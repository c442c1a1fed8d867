"""Seeded scenario generators and the replication harness.

Five data-generating scenarios (normal, poisson, binomial, negbin, gamma)
draw a coefficient matrix, a latent basis, the implied mean matrix, and
conditionally independent observations.  Per-replication randomness comes
from a counter-based generator keyed statelessly by (seed, rep_index), so
replications are reproducible and independent regardless of scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .latent_space import ScalingConfig, estimate_latent_space
from .matrix_core import DataMatrix
from .nef_qvf import Family, variance_from_mean
from .subspace_metrics import RowSpaceBasis, subspace_distance
from .variance_estimation import dk_error, estimate_dk_qvf

# Observation family of each scenario.
SCENARIO_FAMILIES = {
    "normal": Family("normal"),
    "poisson": Family("poisson"),
    "binomial": Family("binomial", 20),
    "negbin": Family("negbin", 10),
    "gamma": Family("gamma", 10),
}

# Counter-based generator; streams derive statelessly from (seed, rep_index).
RNG_ALGORITHM = "philox4x64:key=(seed<<64)|rep_index"

_MASK64 = (1 << 64) - 1


def rep_rng(seed: int, rep_index: int) -> np.random.Generator:
    """Stateless per-replication stream: Philox keyed by (seed, rep_index)."""
    if rep_index < 0:
        raise InvalidParameterError("rep_index must be >= 0")
    key = ((int(seed) & _MASK64) << 64) | (int(rep_index) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def scenario_family(scenario: str) -> Family:
    """Observation family used by the scenario."""
    try:
        return SCENARIO_FAMILIES[scenario]
    except (KeyError, TypeError):  # TypeError: unhashable config value
        raise InvalidParameterError(f"unknown scenario {scenario!r}") from None


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: scenario, sizes, replication count, seed."""

    scenario: str
    n: int
    k: int
    r: int
    reps: int = 50
    seed: int = 0
    scaling: ScalingConfig = field(default_factory=ScalingConfig)

    def __post_init__(self):
        scenario_family(self.scenario)  # rejects an unknown scenario
        if not (1 <= self.r < self.n):
            raise InvalidParameterError("need 1 <= r < n")
        if self.k < 1 or self.reps < 1:
            raise InvalidParameterError("k and reps must be >= 1")


@dataclass(frozen=True)
class ScenarioDraw:
    """One simulated instance: coefficients, basis, means, data, truths.

    ``theta`` is exactly phi @ m.  For the binomial scenario theta holds
    success probabilities and the family-level mean is s * theta; everywhere
    else theta is the mean itself.  ``true_deltas`` are the column averages
    of the exact observation variances; ``w_exact`` is the finite-k
    coefficient gram phi^T phi / k.
    """

    scenario: str
    rep_index: int
    family: Family
    phi: np.ndarray
    m: np.ndarray
    theta: np.ndarray
    y: DataMatrix
    true_deltas: np.ndarray
    w_exact: np.ndarray


def _binomial_basis(r: int, n: int) -> np.ndarray:
    # Identity block on the first r columns, 1/r on the remaining ones.
    m = np.zeros((r, n))
    m[:, :r] = np.eye(r)
    m[:, r:] = 1.0 / r
    return m


def generate_scenario(cfg: ScenarioConfig, rep_index: int) -> ScenarioDraw:
    """Deterministic draw of one replication of the configured scenario."""
    rng = rep_rng(cfg.seed, rep_index)
    k, n, r = cfg.k, cfg.n, cfg.r
    scenario = cfg.scenario
    family = scenario_family(scenario)

    if scenario == "normal":
        phi = rng.normal(0.0, 1.0, size=(k, r))
        m = rng.uniform(1.0, 10.0, size=(r, n))
    elif scenario == "poisson":
        phi = rng.noncentral_chisquare(9.0, 1.0, size=(k, r))
        m = rng.uniform(1.0, 5.0, size=(r, n))
    elif scenario == "binomial":
        phi = rng.uniform(0.05, 0.95, size=(k, r))
        m = _binomial_basis(r, n)
    else:  # negbin, gamma
        phi = rng.uniform(0.5, 2.0, size=(k, r))
        m = rng.uniform(0.3, 1.5, size=(r, n))

    theta = phi @ m
    means = family.s * theta if scenario == "binomial" else theta
    # Raises OutOfSupportError for means outside the family's region.
    true_deltas = variance_from_mean(family, means).mean(axis=0)

    if scenario == "binomial":
        y = rng.binomial(int(family.s), theta).astype(float)
    elif scenario == "normal":
        y = theta + rng.normal(0.0, 1.0, size=theta.shape)
    elif scenario == "poisson":
        y = rng.poisson(theta).astype(float)
    elif scenario == "negbin":
        s = family.s
        y = rng.negative_binomial(s, s / (s + theta)).astype(float)
    else:  # gamma
        s = family.s
        y = rng.gamma(s, theta / s)

    w_exact = (phi.T @ phi) / float(k)

    return ScenarioDraw(
        scenario=scenario,
        rep_index=int(rep_index),
        family=family,
        phi=phi,
        m=m,
        theta=theta,
        y=DataMatrix(y),
        true_deltas=true_deltas,
        w_exact=w_exact,
    )


@dataclass(frozen=True)
class RepRecord:
    """Per-replication outcomes; ``error`` is set when the rep failed."""

    rep_index: int
    r_hat: int | None = None
    d_fixed: float | None = None
    d_auto: float | None = None
    rho: float | None = None
    scale_coefficient: float | None = None
    no_plateau: bool | None = None
    error: str | None = None


@dataclass(frozen=True)
class ReplicationStats:
    """Aggregates over the replications of one simulation cell."""

    config: ScenarioConfig
    records: tuple[RepRecord, ...]

    @property
    def completed(self) -> int:
        return sum(1 for rec in self.records if rec.error is None)

    @property
    def failed(self) -> int:
        return len(self.records) - self.completed

    @property
    def no_plateau(self) -> int:
        """Replications whose scale calibration found no plateau."""
        return sum(1 for rec in self.records if rec.no_plateau)

    def _counts(self) -> tuple[int, int, int]:
        correct = under = over = 0
        r = self.config.r
        for rec in self.records:
            if rec.error is not None or rec.r_hat is None:
                continue
            if rec.r_hat == r:
                correct += 1
            elif rec.r_hat < r:
                under += 1
            else:
                over += 1
        return correct, under, over

    @property
    def r_correct(self) -> int:
        return self._counts()[0]

    @property
    def r_under(self) -> int:
        return self._counts()[1]

    @property
    def r_over(self) -> int:
        return self._counts()[2]

    def _median(self, attr: str) -> float:
        vals = [
            getattr(rec, attr)
            for rec in self.records
            if rec.error is None and getattr(rec, attr) is not None
            and math.isfinite(getattr(rec, attr))
        ]
        if not vals:
            return float("nan")
        return float(np.median(np.asarray(vals)))

    @property
    def d_median_fixed(self) -> float:
        return self._median("d_fixed")

    @property
    def d_median_auto(self) -> float:
        return self._median("d_auto")

    @property
    def rho_median(self) -> float:
        return self._median("rho")


def _run_one(cfg: ScenarioConfig, rep_index: int) -> RepRecord:
    try:
        draw = generate_scenario(cfg, rep_index)
        y = draw.y
        dk = estimate_dk_qvf(y, draw.family)
        rho = dk_error(dk, draw.true_deltas)

        est = estimate_latent_space(y, dk, rank="auto", cfg=cfg.scaling)
        rank = est.rank
        r_hat = rank.r_hat

        m_true = RowSpaceBasis(draw.m)
        m_fixed = est.eigen.eigenvectors[:, :cfg.r].T
        d_fixed = subspace_distance(m_true, m_fixed)
        if r_hat >= 1:
            d_auto = subspace_distance(m_true, est.m_hat)
        else:
            d_auto = float("nan")

        trace = rank.calibration
        return RepRecord(
            rep_index=rep_index,
            r_hat=r_hat,
            d_fixed=d_fixed,
            d_auto=d_auto,
            rho=rho,
            scale_coefficient=rank.scale_coefficient,
            no_plateau=bool(trace.no_plateau) if trace is not None else None,
        )
    except Exception as exc:  # record, do not abort the batch
        return RepRecord(rep_index=rep_index, error=f"{type(exc).__name__}: {exc}")


def run_replications(cfg: ScenarioConfig, threads: int = 1) -> ReplicationStats:
    """Run all replications of a cell, collecting ordered per-rep records.

    Replications are independent and run on a pool of ``threads`` workers.
    Records are keyed by rep index, so results do not depend on scheduling.
    Failures are recorded per replication without aborting.
    """
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        records = pool.map(lambda i: _run_one(cfg, i), range(cfg.reps))
        return ReplicationStats(config=cfg, records=tuple(records))

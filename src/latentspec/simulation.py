"""Seeded scenario generators and the replication harness.

Five data-generating scenarios (normal, poisson, binomial, negbin, gamma)
draw a coefficient matrix, a latent basis, the implied mean matrix, and
conditionally independent observations.  Per-replication randomness comes
from a counter-based generator keyed statelessly by (seed, rep_index), so
replications are reproducible and independent regardless of scheduling.
Observations are drawn in row blocks, in stream order, into one k x n
array: numpy's samplers read the stream element by element in C order, so
the blocks give the same variates as one whole-matrix call, and a
replication holds only ``theta`` and ``y`` beside small block temporaries.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .latent_space import ScalingConfig, estimate_latent_space
from .matrix_core import _BLOCK_ENTRIES, DataMatrix, data_moments
from .nef_qvf import Family, variance_from_mean
from .subspace_metrics import RowSpaceBasis, subspace_distance
from .variance_estimation import dk_error, estimate_dk_qvf, needs_column_sums

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

_KEY_BOUND = 1 << 64


def _check_key_part(value: int, name: str) -> None:
    # Each half of the 128-bit key holds exactly one value: a wider or
    # negative one would alias another seed's stream.
    if not 0 <= value < _KEY_BOUND:
        raise InvalidParameterError(f"{name} must lie in [0, 2**64), got {value}")


def rep_rng(seed: int, rep_index: int) -> np.random.Generator:
    """Stateless per-replication stream: Philox keyed by (seed, rep_index)."""
    seed, rep_index = int(seed), int(rep_index)
    _check_key_part(seed, "seed")
    _check_key_part(rep_index, "rep_index")
    return np.random.Generator(np.random.Philox(key=(seed << 64) | rep_index))


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
        _check_key_part(self.seed, "seed")


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


def _draw(rng: np.random.Generator, scenario: str, family: Family,
          theta: np.ndarray) -> np.ndarray:
    """Observations of the scenario at ``theta``, one per entry in C order."""
    if scenario == "normal":
        return theta + rng.normal(0.0, 1.0, size=theta.shape)
    if scenario == "poisson":
        return rng.poisson(theta)
    if scenario == "binomial":
        return rng.binomial(int(family.s), theta)
    s = family.s
    if scenario == "negbin":
        return rng.negative_binomial(s, s / (s + theta))
    return rng.gamma(s, theta / s)


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

    # Whole, not per block: a one-row product takes BLAS's gemv path,
    # whose last bits differ from the matrix product's.
    theta = phi @ m
    y = np.empty((k, n))
    # The column totals of the exact variances run through the blocks in
    # row order: each block's first row takes the total so far, so the
    # sums are those of one sequential sum over all k rows.
    total = None
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, k, step):
        block = theta[start:start + step]
        means = family.s * block if scenario == "binomial" else block
        # Raises OutOfSupportError for means outside the family's region.
        var = variance_from_mean(family, means)
        if total is not None:
            var[0] += total
        total = var.sum(axis=0)
        y[start:start + step] = _draw(rng, scenario, family, block)
    true_deltas = total / k

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
        moments = data_moments(draw.y, needs_column_sums(draw.family))
        dk = estimate_dk_qvf(moments, draw.family)
        rho = dk_error(dk, draw.true_deltas)

        est = estimate_latent_space(moments, dk, rank="auto", cfg=cfg.scaling)
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

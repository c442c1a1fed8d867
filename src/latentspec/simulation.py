"""Seeded scenario generators and the replication harness.

Five data-generating scenarios (normal, poisson, binomial, negbin, gamma)
draw a coefficient matrix, a latent basis, the implied mean matrix, and
conditionally independent observations.  Per-replication randomness comes
from a counter-based generator keyed statelessly by (seed, rep_index), so
replications are reproducible and independent regardless of scheduling.
A replication is drawn in row blocks, in stream order: each block's means
are its rows of phi @ m, and numpy's samplers read the stream element by
element in C order, so the blocks give the same variates as one
whole-matrix call.  ``generate_scenario`` writes the blocks into whole
k x n ``theta`` and ``y``.  The replication harness reduces a count
scenario's blocks to their Moments as they are drawn, so it holds no k x n
array; the normal and gamma scenarios, whose real-valued sums depend on
the order of the rows, are reduced from the whole draw.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .latent_space import ScalingConfig, estimate_latent_space
from .matrix_core import (
    _BLOCK_ENTRIES,
    DataMatrix,
    _count_moments,
    _count_sums,
    data_moments,
    median,
)
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
# Scenarios whose observations are counts: nonnegative whole numbers.
_COUNT_SCENARIOS = frozenset({"poisson", "binomial", "negbin"})

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

    ``theta`` is phi @ m, computed one row block at a time (a block's last
    bits can differ from those of the whole product, as BLAS picks its
    kernel by shape).  For the binomial scenario theta holds success
    probabilities and the family-level mean is s * theta; everywhere else
    theta is the mean itself.  ``true_deltas`` are the column averages of
    the exact observation variances; ``w_exact`` is the finite-k
    coefficient gram phi^T phi / k.  ``theta`` and ``y`` are whole k x n
    arrays; the replication harness reads count scenarios block by block
    instead.
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


def _row_blocks(k: int, n: int):
    """(start, stop) of each row block of about ``_BLOCK_ENTRIES`` entries.

    A one-row tail joins the block before it: a one-row product takes
    BLAS's gemv path, whose last bits differ from the matrix product's.
    """
    step = max(2, _BLOCK_ENTRIES // n)
    for start in range(0, k, step):
        stop = start + step
        if stop + 1 == k:
            yield start, k
            return
        yield start, min(stop, k)


class _Walk:
    """One replication drawn in row blocks, in stream order.

    Iterating yields ``(start, theta, y)`` for each row block: theta is the
    block's rows of phi @ m and y its observations, which numpy's samplers
    draw element by element in C order, so the blocks give the same variates
    as one whole-matrix call.  ``true_deltas`` is set once every block has
    been walked.
    """

    def __init__(self, cfg: ScenarioConfig, rep_index: int):
        self.cfg = cfg
        self.family = scenario_family(cfg.scenario)
        self.rng = rng = rep_rng(cfg.seed, rep_index)
        k, n, r = cfg.k, cfg.n, cfg.r
        if cfg.scenario == "normal":
            self.phi = rng.normal(0.0, 1.0, size=(k, r))
            self.m = rng.uniform(1.0, 10.0, size=(r, n))
        elif cfg.scenario == "poisson":
            self.phi = rng.noncentral_chisquare(9.0, 1.0, size=(k, r))
            self.m = rng.uniform(1.0, 5.0, size=(r, n))
        elif cfg.scenario == "binomial":
            self.phi = rng.uniform(0.05, 0.95, size=(k, r))
            self.m = _binomial_basis(r, n)
        else:  # negbin, gamma
            self.phi = rng.uniform(0.5, 2.0, size=(k, r))
            self.m = rng.uniform(0.3, 1.5, size=(r, n))
        self.true_deltas = None

    def __iter__(self):
        cfg, family = self.cfg, self.family
        # The column totals of the exact variances run through the blocks
        # in row order: each block's first row takes the total so far, so
        # the sums are those of one sequential sum over all k rows.
        total = None
        for start, stop in _row_blocks(cfg.k, cfg.n):
            theta = self.phi[start:stop] @ self.m
            # Raises OutOfSupportError for means outside the family's region.
            var = variance_from_mean(
                family, family.s * theta if cfg.scenario == "binomial" else theta)
            if total is not None:
                var[0] += total
            total = var.sum(axis=0)
            del var  # freed before the draw, which is the block's peak
            yield start, theta, _draw(self.rng, cfg.scenario, family, theta)
        self.true_deltas = total / cfg.k


def generate_scenario(cfg: ScenarioConfig, rep_index: int) -> ScenarioDraw:
    """Deterministic draw of one replication of the configured scenario."""
    walk = _Walk(cfg, rep_index)
    theta, y = np.empty((cfg.k, cfg.n)), np.empty((cfg.k, cfg.n))
    for start, theta_block, y_block in walk:
        stop = start + theta_block.shape[0]
        theta[start:stop] = theta_block
        y[start:stop] = y_block
    phi = walk.phi
    return ScenarioDraw(
        scenario=cfg.scenario,
        rep_index=int(rep_index),
        family=walk.family,
        phi=phi,
        m=walk.m,
        theta=theta,
        y=DataMatrix(y),
        true_deltas=walk.true_deltas,
        w_exact=(phi.T @ phi) / float(cfg.k),
    )


def _replication_moments(cfg: ScenarioConfig, rep_index: int):
    """(family, m, Moments, true_deltas) of one replication.

    Count scenarios are reduced block by block as they are drawn, so no
    k x n array is held: their blocks are whole numbers, and while
    k * max(y)^2 < 2^53 the block sums are exact and the Moments have the
    bits of ``data_moments`` of the whole draw.  Past that bound, and for
    the normal and gamma scenarios, whose real-valued sums depend on the
    order of the rows, the whole draw is made and reduced.  The stream is
    keyed by (seed, rep_index), so that draw is the same one.
    """
    if cfg.scenario in _COUNT_SCENARIOS:
        walk = _Walk(cfg, rep_index)
        # map, unlike a generator expression, keeps no block alive while
        # the next one is drawn.
        blocks = map(lambda drawn: drawn[2].astype(np.float64), walk)
        moments = _count_moments([_count_sums(blocks, cfg.n)])
        if moments is not None:
            return walk.family, walk.m, moments, walk.true_deltas
    draw = generate_scenario(cfg, rep_index)
    moments = data_moments(draw.y, needs_column_sums(draw.family))
    return draw.family, draw.m, moments, draw.true_deltas


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
        return median(vals)

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
        family, m, moments, true_deltas = _replication_moments(cfg, rep_index)
        dk = estimate_dk_qvf(moments, family)
        rho = dk_error(dk, true_deltas)

        est = estimate_latent_space(moments, dk, rank="auto", cfg=cfg.scaling)
        rank = est.rank
        r_hat = rank.r_hat

        m_true = RowSpaceBasis(m)
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

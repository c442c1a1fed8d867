"""Seeded scenario generators and the replication harness.

Five data-generating scenarios (normal, poisson, binomial, negbin, gamma)
are one row each of ``_SCENARIOS``: an observation family and the laws of a
coefficient matrix and a latent basis, whose product is the mean matrix of
conditionally independent observations.  Per-replication randomness comes
from a counter-based generator keyed statelessly by (seed, rep_index), so
replications are reproducible and independent regardless of scheduling.
A replication is drawn in row blocks, in stream order: each block's means
are its rows of phi @ m, and numpy's samplers read the stream element by
element in C order, so the blocks give the same variates as one
whole-matrix call.  The family's sampler is called on 64 KiB chunks of a
block, each turned in place into the sampler's parameters and then
overwritten by its variates, so they go straight into the block's rows.
``generate_scenario`` writes the blocks into one whole k x n ``y``.  The
replication harness draws each block into one buffer that a worker
allocates once, and ``_block_moments``, the reducer every input goes
through, adds each block to the Moments in block order as it is drawn, so
a worker holds its k x r coefficients, its buffer and one chunk's draw,
and no k x n array.
``true_deltas`` is the column average of the exact variances up to
rounding, computed in closed form from the k x r coefficients alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, OutOfSupportError
from .latent_space import ScalingConfig, estimate_latent_space
from .matrix_core import (
    _BLOCK_ENTRIES,
    DataMatrix,
    _block_moments,
    _on_threads,
    check_columns,
    median,
)
from .nef_qvf import Family, in_support, qvf_coefficients, whole_support
from .subspace_metrics import RowSpaceBasis, subspace_distance
from .variance_estimation import dk_error, estimate_dk_qvf

# One row per scenario, as in README's Scenarios table: its observation
# family, then the laws of the coefficients phi and of the basis m, each a
# Generator method and its arguments (None: ``_binomial_basis``).
_SCENARIOS = {
    "normal": (Family("normal"), ("normal", 0.0, 1.0), ("uniform", 1.0, 10.0)),
    "poisson": (Family("poisson"), ("noncentral_chisquare", 9.0, 1.0),
                ("uniform", 1.0, 5.0)),
    "binomial": (Family("binomial", 20), ("uniform", 0.05, 0.95), None),
    "negbin": (Family("negbin", 10), ("uniform", 0.5, 2.0), ("uniform", 0.3, 1.5)),
    "gamma": (Family("gamma", 10), ("uniform", 0.5, 2.0), ("uniform", 0.3, 1.5)),
}

# Counter-based generator; streams derive statelessly from (seed, rep_index).
RNG_ALGORITHM = "philox4x64:key=(seed<<64)|rep_index"

_KEY_BOUND = 1 << 64

# Entries of a row block drawn by one sampler call: 64 KiB of variates.
_CHUNK_ENTRIES = 8192


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
        return _SCENARIOS[scenario][0]
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
        for name in ("n", "k", "r", "reps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if not (1 <= self.r < self.n):
            raise InvalidParameterError("need 1 <= r < n")
        check_columns(self.n)
        if self.k < 1 or self.reps < 1:
            raise InvalidParameterError("k and reps must be >= 1")
        _check_key_part(self.seed, "seed")


@dataclass(frozen=True)
class ScenarioDraw:
    """One simulated instance: coefficients, basis, data, truths.

    The means are phi @ m.  For the binomial scenario they are success
    probabilities and the family-level mean is s * phi @ m; everywhere else
    they are the mean itself.  ``w_exact`` is the finite-k coefficient gram
    phi^T phi / k; ``true_deltas``, the column averages of the exact
    observation variances, are computed in closed form (see ``_Walk``).
    ``y`` is the one whole k x n array; the replication harness does not
    hold it, but draws the same blocks into one reused buffer.
    """

    family: Family
    phi: np.ndarray
    m: np.ndarray
    y: DataMatrix
    true_deltas: np.ndarray
    w_exact: np.ndarray


def _binomial_basis(r: int, n: int) -> np.ndarray:
    # Identity block on the first r columns, 1/r on the remaining ones.
    m = np.zeros((r, n))
    m[:, :r] = np.eye(r)
    m[:, r:] = 1.0 / r
    return m


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
    """One replication, drawn one row block at a time in stream order.

    phi and then m are drawn by the laws of the scenario's ``_SCENARIOS``
    row.  ``draw`` writes a block's observations over its rows of phi @ m,
    which numpy's samplers draw element by element in C order, so blocks
    drawn in row order give the same variates as one whole-matrix call.
    The means are mu = c * phi @ m (c = s for binomial, else 1), so the
    column average of the exact variances b0 + b1*mu + b2*mu^2 is
    ``true_deltas`` = b0 + b1*c*(phibar @ m) + b2*c^2*diag(m^T w m), from
    phi's column means phibar and ``w_exact`` w = phi^T phi / k alone.  Up
    to rounding it equals the average of the variances entry by entry.
    """

    def __init__(self, cfg: ScenarioConfig, rep_index: int):
        self.family, phi_law, m_law = _SCENARIOS[cfg.scenario]
        self.rng = rng = rep_rng(cfg.seed, rep_index)
        k, n, r = cfg.k, cfg.n, cfg.r
        self.phi = phi = getattr(rng, phi_law[0])(*phi_law[1:], size=(k, r))
        self.m = m = (_binomial_basis(r, n) if m_law is None
                      else getattr(rng, m_law[0])(*m_law[1:], size=(r, n)))
        self.scale = c = self.family.s if self.family.kind == "binomial" else 1.0
        self.w_exact = w = (phi.T @ phi) / float(k)
        b = qvf_coefficients(self.family)
        self.true_deltas = (b.b0 + b.b1 * c * (phi.mean(axis=0) @ m)
                            + b.b2 * c * c * (m * (w @ m)).sum(axis=0))

    def draw(self, start: int, stop: int, out: np.ndarray) -> None:
        """Write the observations of rows start:stop into ``out``.

        ``out`` first takes the block's rows of phi @ m.  The observations
        are then drawn ``_CHUNK_ENTRIES`` entries at a time, in C order,
        each over its own chunk of means, which gamma and negbin first turn
        in place into their samplers' parameters; so no sampler output is
        larger than one chunk.  ``out`` must be C-contiguous, as a row
        slice of a C array is: its flat view is what the chunks write.
        Blocks must be drawn in row order.  Raises OutOfSupportError for
        means outside the family's region.
        """
        np.matmul(self.phi[start:stop], self.m, out=out)
        c, kind, s, rng = self.scale, self.family.kind, self.family.s, self.rng
        if not in_support(self.family, c * out.min(), c * out.max(), True):
            raise OutOfSupportError(f"{kind} means outside the mean region")
        flat = out.reshape(-1)
        for a in range(0, flat.size, _CHUNK_ENTRIES):
            t = flat[a:a + _CHUNK_ENTRIES]
            if kind == "normal":
                t += rng.normal(0.0, 1.0, size=t.shape)
            elif kind == "gamma":  # gamma(s, t / s) = (t / s) * G(s)
                t /= s
                t *= rng.standard_gamma(s, size=t.shape)
            elif kind == "poisson":
                t[:] = rng.poisson(t)
            elif kind == "binomial":
                t[:] = rng.binomial(int(s), t)
            else:  # negbin, with success probability s / (s + t)
                t += s
                np.divide(s, t, out=t)
                t[:] = rng.negative_binomial(s, t)


def _block_buffer(cfg: ScenarioConfig) -> np.ndarray:
    """Rows for the largest of the cell's row blocks, means then data.

    A replication worker allocates one and draws each block of each of its
    replications into it.
    """
    rows = max(stop - start for start, stop in _row_blocks(cfg.k, cfg.n))
    return np.empty((rows, cfg.n))


def generate_scenario(cfg: ScenarioConfig, rep_index: int) -> ScenarioDraw:
    """Deterministic draw of one replication of the configured scenario."""
    walk = _Walk(cfg, rep_index)
    y = np.empty((cfg.k, cfg.n))
    for start, stop in _row_blocks(cfg.k, cfg.n):
        walk.draw(start, stop, y[start:stop])
    return ScenarioDraw(
        family=walk.family,
        phi=walk.phi,
        m=walk.m,
        y=DataMatrix(y),
        true_deltas=walk.true_deltas,
        w_exact=walk.w_exact,
    )


def _replication_moments(cfg: ScenarioConfig, rep_index: int,
                         buf: np.ndarray | None = None):
    """(family, m, Moments, true_deltas) of one replication.

    Each row block is drawn into the first rows of ``buf`` (a
    ``_block_buffer``, allocated here when not given), which holds its means
    and then its observations, and is added to the Moments by
    ``_block_moments`` before the next block is drawn, so no k x n array is
    held.  The blocks are summed in ``_row_blocks`` order, which fixes the
    bits of the sums of real-valued data.  When the Moments are
    ``Moments.exact``, as a count scenario's are below the bound, they have
    the bits of ``data_moments`` of the whole draw.  The normal and gamma
    draws are real-valued, so their Moments are not integral.
    """
    walk = _Walk(cfg, rep_index)
    buf = _block_buffer(cfg) if buf is None else buf

    def blocks():
        for start, stop in _row_blocks(cfg.k, cfg.n):
            block = buf[:stop - start]
            walk.draw(start, stop, block)
            yield block

    moments = _block_moments(blocks(), whole_support(walk.family))
    return walk.family, walk.m, moments, walk.true_deltas


@dataclass(frozen=True)
class RepRecord:
    """Per-replication outcomes; ``error`` is set when the rep failed.

    The fields, in order, are the columns of ``reps.csv`` (``rep_index``
    under the header ``rep``), so a new one goes before ``error``, which
    stays last.
    """

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

    # The attributes written, in order, as the columns of summary.csv.
    summary_columns = ("r_correct", "r_under", "r_over", "failed", "no_plateau",
                       "d_median_fixed", "d_median_auto", "rho_median")

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

    def _rank_offsets(self) -> list[int]:
        """r_hat - r of each replication that completed."""
        return [rec.r_hat - self.config.r for rec in self.records
                if rec.error is None and rec.r_hat is not None]

    @property
    def r_correct(self) -> int:
        return sum(e == 0 for e in self._rank_offsets())

    @property
    def r_under(self) -> int:
        return sum(e < 0 for e in self._rank_offsets())

    @property
    def r_over(self) -> int:
        return sum(e > 0 for e in self._rank_offsets())

    def _median(self, attr: str) -> float:
        vals = [getattr(rec, attr) for rec in self.records if rec.error is None]
        vals = [v for v in vals if v is not None and math.isfinite(v)]
        return median(vals) if vals else float("nan")

    @property
    def d_median_fixed(self) -> float:
        return self._median("d_fixed")

    @property
    def d_median_auto(self) -> float:
        return self._median("d_auto")

    @property
    def rho_median(self) -> float:
        return self._median("rho")


def _run_one(cfg: ScenarioConfig, rep_index: int,
             buf: np.ndarray | None = None) -> RepRecord:
    try:
        family, m, moments, true_deltas = _replication_moments(
            cfg, rep_index, buf)
        dk = estimate_dk_qvf(moments, family)
        rho = dk_error(dk, true_deltas)

        est = estimate_latent_space(moments, dk, rank="auto", cfg=cfg.scaling)
        rank = est.rank
        r_hat = rank.r_hat

        m_true = RowSpaceBasis(m)
        m_fixed = est.eigen.eigenvectors[:, :cfg.r].T
        d_fixed = subspace_distance(m_true, m_fixed)
        if r_hat == cfg.r:  # m_hat holds the rows of m_fixed
            d_auto = d_fixed
        elif r_hat >= 1:
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

    Replications are independent and run on ``min(threads, reps)`` workers,
    the calling thread among them, so one thread starts none.  Each worker
    allocates one ``_block_buffer``, which all its replications draw into,
    and takes the next rep index from one shared iterator until none is left;
    each replication's stream is keyed by (seed, rep index) and the records
    are put back in rep order, so results do not depend on ``threads``.
    Failures are recorded per replication without aborting.
    """
    workers = max(1, min(threads, cfg.reps))
    pending = iter(range(cfg.reps))

    def run():
        buf = _block_buffer(cfg)
        try:
            return [(i, _run_one(cfg, i, buf)) for i in pending]
        except BaseException:  # e.g. Ctrl-C on the calling thread
            # Empty the shared iterator, so every other worker stops after
            # the replication it is running.
            for _ in pending:
                pass
            raise

    records = [None] * cfg.reps
    for done in _on_threads(run, [()] * workers):
        for i, record in done:
            records[i] = record
    return ReplicationStats(config=cfg, records=tuple(records))

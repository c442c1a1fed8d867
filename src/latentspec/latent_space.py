"""Core pipeline: adjusted gram matrix, rank selection, latent-space estimate.

The adjusted gram matrix is the scaled gram of the data minus the diagonal
variance correction.  Its leading eigenvectors estimate the latent row
space; the number to keep is chosen by thresholding eigenvalues after
scaling by tau = c_k * k^(-eta), where the scale coefficient c_k is either
supplied or calibrated from a plateau scan over a candidate grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, LengthMismatchError
from .matrix_core import SymmetricEigen, as_data, gram_scaled, sym_eigen
from .variance_estimation import VarianceEstimate

ETA_DEFAULT = 1.0 / 3.0

GRID_SIZE = 40
GRID_SPAN = (1e-3, 1e3)


@dataclass(frozen=True)
class ScalingConfig:
    """Threshold c_tilde, decay exponent eta, and the scale coefficient.

    ``scale_coefficient`` is either a positive number used as-is or the
    string "auto", which triggers plateau calibration on the eigenvalues.
    """

    c_tilde: float = 1.0
    eta: float = ETA_DEFAULT
    scale_coefficient: float | str = "auto"

    def __post_init__(self):
        if not (self.c_tilde > 0):
            raise InvalidParameterError("c_tilde must be positive")
        if not (0.0 < self.eta <= 1.0):
            raise InvalidParameterError("eta must be in (0, 1]")
        sc = self.scale_coefficient
        if isinstance(sc, str):
            if sc != "auto":
                raise InvalidParameterError(
                    "scale_coefficient must be positive or 'auto'"
                )
        elif not (float(sc) > 0):
            raise InvalidParameterError(
                "scale_coefficient must be positive or 'auto'"
            )


@dataclass(frozen=True)
class CalibrationTrace:
    """Record of one scale-coefficient scan, kept for auditability."""

    grid: np.ndarray
    rank_counts: np.ndarray
    chosen: float
    plateau_rank: int | None
    plateau_bounds: tuple[float, float] | None
    no_plateau: bool

    def to_dict(self) -> dict:
        return {
            "grid": [float(g) for g in self.grid],
            "rank_counts": [int(v) for v in self.rank_counts],
            "chosen": float(self.chosen),
            "plateau_rank": self.plateau_rank,
            "plateau_bounds": (
                [float(b) for b in self.plateau_bounds]
                if self.plateau_bounds is not None
                else None
            ),
            "no_plateau": bool(self.no_plateau),
        }


@dataclass(frozen=True)
class RankEstimate:
    """Outcome of thresholding the scaled eigenvalues."""

    r_hat: int
    scaled_eigenvalues: np.ndarray
    tau_tilde: float
    threshold: float
    scale_coefficient: float
    eta: float
    k: int
    calibration: CalibrationTrace | None = None

    def __post_init__(self):
        expected = int(np.sum(self.scaled_eigenvalues > self.threshold))
        if expected != self.r_hat:
            raise InvalidParameterError(
                f"rank {self.r_hat} does not match threshold count {expected}"
            )


@dataclass(frozen=True)
class SubspaceEstimate:
    """Orthonormal-row basis of the estimated latent row space.

    ``m_hat`` has one row per retained eigenvector; a zero-row matrix is the
    legal "empty subspace" outcome when automatic rank selection keeps
    nothing.  ``eigen`` carries the full decomposition of the adjusted gram
    matrix for reporting.
    """

    m_hat: np.ndarray
    eigenvalues: np.ndarray
    rank: RankEstimate | None
    fixed_rank: int | None
    eigen: SymmetricEigen

    @property
    def r_hat(self) -> int:
        return self.m_hat.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.m_hat.shape[0] == 0


def adjusted_gram(y, d) -> np.ndarray:
    """Scaled gram of the data minus the diagonal variance correction."""
    data = as_data(y)
    n = data.values.shape[1]
    deltas = d.deltas if isinstance(d, VarianceEstimate) else np.asarray(d, float)
    deltas = deltas.reshape(-1)
    if deltas.shape[0] != n:
        raise LengthMismatchError(
            f"correction length {deltas.shape[0]} != column count {n}"
        )
    g = gram_scaled(data)
    g[np.diag_indices_from(g)] -= deltas
    return g


def default_grid(eigenvalues, k: int, eta: float) -> np.ndarray:
    """Candidate scale coefficients bracketing the positive eigenvalue scale.

    GRID_SIZE values log-spaced between GRID_SPAN[0] and GRID_SPAN[1] times
    the median positive eigenvalue times k^eta.  Empty when no eigenvalue is
    positive or the lower end of the grid underflows to zero.
    """
    vals = np.asarray(eigenvalues, dtype=float).reshape(-1)
    pos = vals[vals > 0]
    anchor = float(np.median(pos)) * float(k) ** eta if pos.size else 0.0
    if not GRID_SPAN[0] * anchor > 0:
        return np.empty(0)
    return np.geomspace(GRID_SPAN[0] * anchor, GRID_SPAN[1] * anchor, GRID_SIZE)


def calibrate_scale(eigenvalues, k: int,
                    cfg: ScalingConfig) -> tuple[float, CalibrationTrace]:
    """Pick a scale coefficient from the longest stable rank plateau.

    Every value g of ``default_grid`` is tried as the scale coefficient: the
    implied threshold is c_tilde * g * k^(-eta) and the rank is the count of
    eigenvalues above it.  Maximal runs of consecutive grid values giving
    the same rank, with 1 <= rank < n, are plateaus.  Two kinds of run are
    censored because they carry no usable stability information: runs cut
    off by the top of the grid (their true extent is unknown, and they
    reflect overall scale rather than a separation in the spectrum), and
    runs at the bottom of the grid that already count every positive
    eigenvalue (nothing left to separate).  Among the eligible plateaus the
    geometric midpoint of the longest is chosen, ties going to the run at
    larger grid values.  With no eligible plateau, or an underflowing
    midpoint, the coefficient falls back to 1.0 and the trace is flagged.
    """
    vals = np.asarray(eigenvalues, dtype=float).reshape(-1)
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    grid = default_grid(vals, k, cfg.eta)
    thresholds = cfg.c_tilde * grid * float(k) ** (-cfg.eta)
    counts = np.count_nonzero(vals > thresholds[:, None], axis=1)

    # Maximal runs of equal counts, from starts[i] to stops[i] inclusive.
    starts = np.flatnonzero(np.diff(counts, prepend=-1))
    stops = np.append(starts[1:], counts.size) - 1
    ranks = counts[starts]
    eligible = (
        (ranks >= 1) & (ranks < vals.size)
        & (stops != counts.size - 1)
        & ~((starts == 0) & (ranks >= np.count_nonzero(vals > 0)))
    )
    lengths = np.where(eligible, stops - starts + 1, 0)

    rank, bounds, chosen = None, None, 1.0
    if lengths.any():
        best = lengths.size - 1 - int(np.argmax(lengths[::-1]))
        lo, hi = grid[starts[best]], grid[stops[best]]
        if lo * hi > 0:  # else the midpoint underflows
            rank, bounds = int(ranks[best]), (float(lo), float(hi))
            chosen = float(np.sqrt(lo * hi))
    trace = CalibrationTrace(
        grid=grid, rank_counts=counts, chosen=chosen, plateau_rank=rank,
        plateau_bounds=bounds, no_plateau=rank is None,
    )
    return chosen, trace


def estimate_rank(eigenvalues, k: int,
                  cfg: ScalingConfig | None = None) -> RankEstimate:
    """Count eigenvalues whose scaled value exceeds the threshold.

    ``eigenvalues`` is a descending eigenvalue vector.  The scale
    tau = c_k * k^(-eta) uses the configured coefficient, calibrating it
    first when set to "auto".  Negative eigenvalues can never be counted.
    A count of zero is a legal outcome.
    """
    cfg = cfg if cfg is not None else ScalingConfig()
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    vals = np.asarray(eigenvalues, dtype=float).reshape(-1)
    trace = None
    if isinstance(cfg.scale_coefficient, str):
        coeff, trace = calibrate_scale(vals, k, cfg)
    else:
        coeff = float(cfg.scale_coefficient)
    tau = coeff * float(k) ** (-cfg.eta)
    scaled = vals / tau
    return RankEstimate(
        r_hat=int(np.count_nonzero(scaled > cfg.c_tilde)),
        scaled_eigenvalues=scaled,
        tau_tilde=tau,
        threshold=cfg.c_tilde,
        scale_coefficient=coeff,
        eta=cfg.eta,
        k=int(k),
        calibration=trace,
    )


def estimate_latent_space(y, d, rank="auto",
                          cfg: ScalingConfig | None = None) -> SubspaceEstimate:
    """Estimate the latent row space from data and a variance correction.

    Pipeline: adjusted gram -> eigendecomposition -> rank (automatic via
    ``cfg`` or a fixed integer) -> leading eigenvectors as the rows of the
    estimate.  Deterministic given identical inputs.

    An automatic rank of zero yields the distinct empty-subspace result
    (zero-row basis) rather than an error.
    """
    data = as_data(y)
    k, n = data.values.shape
    g = adjusted_gram(data, d)
    eig = sym_eigen(g)

    rank_record = None
    fixed = None
    if isinstance(rank, str):
        if rank != "auto":
            raise InvalidParameterError("rank must be 'auto' or an integer")
        rank_record = estimate_rank(eig.eigenvalues, k, cfg)
        r_hat = rank_record.r_hat
    else:
        fixed = int(rank)
        if not (1 <= fixed <= n):
            raise InvalidParameterError(
                f"fixed rank must be in [1, n={n}], got {fixed}"
            )
        r_hat = fixed

    m_hat = eig.eigenvectors[:, :r_hat].T.copy()
    return SubspaceEstimate(
        m_hat=m_hat,
        eigenvalues=eig.eigenvalues[:r_hat].copy(),
        rank=rank_record,
        fixed_rank=fixed,
        eigen=eig,
    )

"""Column-average variance estimates forming the diagonal correction.

Two estimators are provided: the family-based one (column averages of the
per-observation transform v(.), taken from the column means of y and y*y)
and a residual-variance estimator for Normal data with unknown per-row
variances, which fills the diagonal with a single pooled value.
``dk_error`` is the max-abs diagnostic against a known truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTailError,
    InvalidParameterError,
    LengthMismatchError,
    SupportViolationError,
    as_integer,
)
from .matrix_core import Moments, as_data, as_moments, data_moments, sym_eigen
from .nef_qvf import Family, in_support, qvf_coefficients, qvf_transform

_MAX_REPORTED_VIOLATIONS = 20


@dataclass(frozen=True)
class VarianceEstimate:
    """The n diagonal entries of the correction plus the producing method.

    ``negative_flag`` records whether any entry came out negative.  For
    in-support data the exact column average of v(y) is nonnegative, but
    rounding can set the flag when a column's variance is near zero.
    """

    deltas: np.ndarray
    method: str
    negative_flag: bool = False

    def __post_init__(self):
        arr = np.asarray(self.deltas, dtype=float).reshape(-1)
        if arr.size == 0 or not np.isfinite(arr).all():
            raise InvalidParameterError("deltas must be a finite nonempty vector")
        object.__setattr__(self, "deltas", arr)

    @property
    def n(self) -> int:
        return self.deltas.shape[0]


def explicit(deltas) -> VarianceEstimate:
    """Wrap user-supplied diagonal entries."""
    return VarianceEstimate(np.asarray(deltas, dtype=float), method="explicit")


def needs_column_sums(f: Family) -> bool:
    """Whether the family's correction reads the column sums of y or y*y."""
    c = qvf_coefficients(f)
    return bool(c.b1 or c.b2)


def check_support(f: Family, values) -> None:
    """Raise SupportViolationError if an entry of ``values`` lies outside
    the support of ``f``, naming the first 20 (row, col) positions."""
    y = np.asarray(values, dtype=float)
    bad = np.argwhere(~in_support(f, y, y, y == np.floor(y)))
    if bad.shape[0]:
        locs = [tuple(int(v) for v in row) for row in bad[:_MAX_REPORTED_VIOLATIONS]]
        raise SupportViolationError(
            f"{bad.shape[0]} entries outside the {f.kind} support, "
            f"first at (row, col) {locs[0]}",
            locations=locs,
        )


def estimate_dk_qvf(y, f: Family) -> VarianceEstimate:
    """Column averages of v(y), one per sample column.

    ``y`` is a data matrix or its Moments.  Raises SupportViolationError if
    any entry is outside the family support; no silent clamping is done
    because a negative variance estimate always indicates a wrong family
    choice.  The error lists the offending positions when ``y`` is a
    matrix; Moments hold no positions.

    v is quadratic, so the average is taken from the column sums of y and
    y*y, which ``data_moments`` makes invariant under row permutations.
    The normal family's v is the constant 1 and needs neither sum.
    """
    data = None if isinstance(y, Moments) else as_data(y)
    sums = needs_column_sums(f)
    m = y if data is None else data_moments(data, sums)
    if sums and m.colsum is None:
        raise InvalidParameterError(
            f"the {f.kind} correction needs the column sums")
    if not in_support(f, m.ymin, m.ymax, m.integral):
        if data is not None:
            check_support(f, data.values)
        raise SupportViolationError(f"entries outside the {f.kind} support")
    k = float(m.k)
    # With b1 = b2 = 0 only the shape of mean_y is read.
    mean_y, mean_y2 = np.zeros(m.n), None
    if sums:
        mean_y, mean_y2 = m.colsum / k, m.colsumsq / k
    deltas = qvf_transform(qvf_coefficients(f), mean_y, mean_y2)
    return VarianceEstimate(
        deltas,
        method=f"qvf:{f.kind}",
        negative_flag=bool((deltas < 0).any()),
    )


def estimate_dk_leek(y, t: int) -> VarianceEstimate:
    """Pooled residual-variance estimate for Normal data, unknown row variances.

    With eigenvalues l_1 >= ... >= l_n of the scaled gram G = Y^T Y / k (the
    squared singular values of Y over k), the pooled estimate is
    sigma^2 = (sum of l_j for j = t..n) / (n - t), and every diagonal entry
    is set to it.  Meaningful use needs t larger than the true rank.
    ``y`` is a data matrix or its Moments.  ``t`` is an integer in [1, n):
    an int or a numpy integer, not a bool nor a float, however integral;
    anything else raises InvalidParameterError, and t = n raises
    DegenerateTailError.
    """
    m = as_moments(y)
    n = m.n
    t = as_integer(t, "t")
    if t < 1 or t > n:
        raise InvalidParameterError(f"t must be in [1, n={n}], got {t}")
    if t == n:
        raise DegenerateTailError("t = n leaves an empty residual sum")
    lam = np.clip(sym_eigen(m.scaled_gram()).eigenvalues, 0.0, None)
    sigma2 = float(np.sum(lam[t - 1:])) / (n - t)
    return VarianceEstimate(
        np.full(n, sigma2), method=f"leek:t={t}"
    )


def dk_error(est: VarianceEstimate, truth) -> float:
    """Max absolute componentwise gap between estimate and truth."""
    tr = np.asarray(truth, dtype=float).reshape(-1)
    if tr.shape[0] != est.n:
        raise LengthMismatchError(
            f"length mismatch: estimate {est.n}, truth {tr.shape[0]}"
        )
    return float(np.max(np.abs(est.deltas - tr)))

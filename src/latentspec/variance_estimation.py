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
)
from .matrix_core import as_data, gram_scaled, sym_eigen
from .nef_qvf import (
    Family,
    data_in_support,
    data_support_mask,
    qvf_coefficients,
    qvf_transform,
)

_MAX_REPORTED_VIOLATIONS = 20
# Families whose in-support data are nonnegative integers, and the bound
# below which sums of such integers are exact in float64.
_COUNT_KINDS = frozenset({"poisson", "binomial", "negbin"})
_EXACT_SUM_BOUND = 2 ** 53


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


def estimate_dk_qvf(y, f: Family) -> VarianceEstimate:
    """Column averages of v(y), one per sample column.

    Raises SupportViolationError (listing offending positions) if any entry
    is outside the family support; no silent clamping is done because a
    negative variance estimate always indicates a wrong family choice.

    v is quadratic, so the average is taken from the column means of y and
    y*y, and the result is exactly invariant under row permutations of the
    input.  Count data (poisson, binomial, negbin) that passed the support
    check are nonnegative integers; when also k * max(y)^2 < 2^53, every
    partial sum of y and of y*y is an integer below 2^53, hence exact in
    float64 in any order, and the columns are summed as they stand.  Other
    data (gamma, GHS, larger counts) are summed over sorted columns, which
    fixes the order.  The normal family's v is the constant 1 and needs
    neither mean.
    """
    arr = as_data(y).values
    if not data_in_support(f, arr):
        bad = np.argwhere(~data_support_mask(f, arr))
        locs = [tuple(int(v) for v in row) for row in bad[:_MAX_REPORTED_VIOLATIONS]]
        raise SupportViolationError(
            f"{bad.shape[0]} entries outside the {f.kind} support, "
            f"first at (row, col) {locs[0]}",
            locations=locs,
        )
    k = float(arr.shape[0])
    c = qvf_coefficients(f)
    # With b1 = b2 = 0 only the shape of mean_y is read.
    mean_y, mean_y2 = np.zeros(arr.shape[1]), None
    counts = f.kind in _COUNT_KINDS
    if counts and arr.shape[0] * int(arr.max()) ** 2 < _EXACT_SUM_BOUND:
        mean_y = arr.sum(axis=0) / k
        mean_y2 = np.einsum("ij,ij->j", arr, arr) / k if c.b2 else None
    elif c.b1 or c.b2:
        cols = np.sort(arr, axis=0)
        mean_y = cols.sum(axis=0) / k
        # Squared in place: the sort is the only k x n temporary.
        mean_y2 = np.square(cols, out=cols).sum(axis=0) / k if c.b2 else None
    deltas = qvf_transform(c, mean_y, mean_y2)
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
    """
    data = as_data(y)
    n = data.values.shape[1]
    t = int(t)
    if t < 1 or t > n:
        raise InvalidParameterError(f"t must be in [1, n={n}], got {t}")
    if t == n:
        raise DegenerateTailError("t = n leaves an empty residual sum")
    lam = np.clip(sym_eigen(gram_scaled(data)).eigenvalues, 0.0, None)
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

"""Agreement between a true latent row space and an estimate.

The distance compares the orthogonal projections induced by the two row
spaces and is zero exactly when the spaces coincide.  The first argument may
be any full-row-rank basis; the second is expected to have orthonormal rows
(as produced by the estimator) and is only warned about otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParameterError,
    NotOrthonormalWarning,
    RankDeficientError,
)
from .matrix_core import SymmetricEigen, _as_2d_float, frobenius_norm, sym_eigen

RANK_TOL = 1e-10
ORTHONORMAL_TOL = 1e-10
MAX_CONDITION = 1e12


@dataclass(frozen=True)
class RowSpaceBasis:
    """An r x n matrix whose rows span the space.

    ``row_gram`` is the eigendecomposition of B B^T, computed once for the
    rank check and reused by the projector and the distance.
    ``orthonormal`` is set when B B^T is the identity within 1e-10.
    """

    matrix: np.ndarray
    orthonormal: bool = field(init=False)
    row_gram: SymmetricEigen = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = _as_2d_float(self.matrix, "basis")
        r, n = mat.shape
        if r < 1 or r > n:
            raise RankDeficientError(
                f"basis must have 1 <= rows <= cols, got {mat.shape}"
            )
        gram = mat @ mat.T
        orthonormal = np.max(np.abs(gram - np.eye(r))) <= ORTHONORMAL_TOL
        gram = (gram + gram.T) / 2.0
        eig = sym_eigen(gram)
        lam = eig.eigenvalues
        if lam[0] <= 0 or np.sqrt(max(lam[-1], 0.0)) <= RANK_TOL * np.sqrt(lam[0]):
            raise RankDeficientError(
                "basis rows are rank deficient at tolerance 1e-10"
            )
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "orthonormal", bool(orthonormal))
        object.__setattr__(self, "row_gram", eig)

    @property
    def r(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def as_basis(b) -> RowSpaceBasis:
    """Wrap an array as a RowSpaceBasis."""
    return b if isinstance(b, RowSpaceBasis) else RowSpaceBasis(b)


def _inv_row_gram(basis: RowSpaceBasis) -> np.ndarray:
    """Inverse of (B B^T) via its eigendecomposition; rejects cond > 1e12."""
    eig = basis.row_gram
    lam = eig.eigenvalues
    if lam[-1] <= 0 or lam[0] / lam[-1] > MAX_CONDITION:
        raise RankDeficientError(
            "row gram condition number exceeds 1e12; basis too ill-conditioned"
        )
    u = eig.eigenvectors
    return (u / lam) @ u.T


def projection_matrix(b) -> np.ndarray:
    """Orthogonal projector onto the row space: B^T (B B^T)^-1 B.

    For certified-orthonormal rows this reduces to B^T B directly.  The
    result is symmetric and idempotent to roughly 1e-9.
    """
    basis = as_basis(b)
    mat = basis.matrix
    if basis.orthonormal:
        p = mat.T @ mat
    else:
        p = mat.T @ _inv_row_gram(basis) @ mat
    return (p + p.T) / 2.0


def subspace_distance(m, m_hat) -> float:
    """Normalized projection discrepancy between two row spaces.

    Parameters
    ----------
    m : (r, n) array_like or RowSpaceBasis
        Reference basis; needs full row rank but not orthonormality.
    m_hat : (r_hat, n) array_like or RowSpaceBasis
        Estimated basis; expected orthonormal rows.  If the check fails a
        NotOrthonormalWarning is emitted and the value computed anyway.

    Returns
    -------
    float
        Zero iff the row spaces coincide (for equal row counts); invariant
        under rotations of the estimate's rows.  The first term compares the
        reference rows themselves with their projection onto the estimate,
        so the reference's scale matters unless the spans coincide.
    """
    bm = as_basis(m)
    bh = as_basis(m_hat)
    if bm.n != bh.n:
        raise InvalidParameterError(
            f"column counts differ: {bm.n} vs {bh.n}"
        )
    if not bh.orthonormal:
        warnings.warn(
            "estimated basis rows are not orthonormal; distance computed anyway",
            NotOrthonormalWarning,
        )
    mm = bm.matrix
    mh = bh.matrix
    n = bm.n
    r_hat = bh.r
    m_v = mh @ mm.T
    v_m = _inv_row_gram(bm) @ (mm @ mh.T)
    term1 = frobenius_norm(mm.T - mh.T @ m_v)
    term2 = frobenius_norm(mh.T - mm.T @ v_m)
    return float(np.sqrt(term1 ** 2 + term2 ** 2) / np.sqrt(n * r_hat))

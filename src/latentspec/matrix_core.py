"""Dense real matrix primitives used by the whole pipeline.

Provides the Frobenius norm, the scaled gram matrix of a data matrix, and a
symmetric eigendecomposition (LAPACK ``eigh`` with the eigenvectors' sign
and order made canonical).  All computation is in 64-bit floating point and
everything downstream reduces to n x n problems, so no large decompositions
are ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    NoConvergenceError,
    NotSymmetricError,
)

SYMMETRY_TOL = 1e-10


def _as_2d_float(a, name="matrix"):
    """Coerce to a C-ordered float64 2-D array with finite entries."""
    arr = np.ascontiguousarray(np.asarray(a, dtype=float))
    if arr.ndim != 2:
        raise InvalidParameterError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidParameterError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """A k x n observation matrix: rows are variables, columns are samples.

    Invariants: at least one row, at least two columns, all entries finite.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_2d_float(self.values, "data matrix")
        if arr.shape[0] < 1 or arr.shape[1] < 2:
            raise InvalidParameterError(
                f"data matrix must be at least 1 x 2, got {arr.shape}"
            )
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def entry(self, i: int, j: int) -> float:
        return float(self.values[i, j])

    @classmethod
    def from_array(cls, a) -> "DataMatrix":
        return cls(np.asarray(a, dtype=float))


def as_values(y) -> np.ndarray:
    """Accept a DataMatrix or array-like and return the validated ndarray."""
    if isinstance(y, DataMatrix):
        return y.values
    return DataMatrix.from_array(y).values


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries.

    Total on any finite array (vector or matrix); no shape restrictions
    beyond finiteness.
    """
    arr = np.asarray(a, dtype=float)
    if arr.size and not np.isfinite(arr).all():
        raise InvalidParameterError("norm input contains non-finite entries")
    return float(np.sqrt(np.sum(arr * arr)))


def gram_scaled(y) -> np.ndarray:
    """Return the n x n matrix (Y^T Y) / k for a k x n data matrix Y.

    The upper triangle is computed and mirrored so the result is exactly
    symmetric bit-for-bit.  The single division by k happens after
    accumulation to keep intermediate sums well-scaled.
    """
    arr = as_values(y)
    k = arr.shape[0]
    g = arr.T @ arr
    g = np.triu(g) + np.triu(g, 1).T
    return g / float(k)


@dataclass(frozen=True)
class SymmetricEigen:
    """Full eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are sorted descending; column i of ``eigenvectors`` pairs
    with ``eigenvalues[i]``.  Each eigenvector is sign-fixed so its entry of
    largest magnitude (lowest index on ties) is nonnegative; exactly equal
    eigenvalues are ordered by the sign-fixed vectors lexicographically.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def _fix_sign(vectors: np.ndarray) -> np.ndarray:
    """Negate each column whose largest-magnitude entry (first on ties) is < 0."""
    if vectors.size == 0:
        return vectors
    n = vectors.shape[1]
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)]
    return np.where(lead < 0.0, -vectors, vectors)


def sym_eigen(a) -> SymmetricEigen:
    """Eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Parameters
    ----------
    a : (n, n) array_like
        Symmetric matrix of any size.
        Symmetry is checked relative to the Frobenius norm:
        max |A_ij - A_ji| <= 1e-10 * ||A||_F.  The matrix is symmetrised
        before it is factored.

    Returns
    -------
    SymmetricEigen
        Sign-fixed and ordered as documented there.  Identical input bits
        give identical output bits for a fixed BLAS thread count.

    Raises
    ------
    NotSymmetricError
        If the symmetry check fails.
    NoConvergenceError
        If LAPACK reports that the factorization did not converge.
    """
    A = _as_2d_float(a, "matrix")
    n = A.shape[0]
    if A.shape[1] != n:
        raise InvalidParameterError(f"matrix must be square, got {A.shape}")
    if n > 1:
        asym = float(np.max(np.abs(A - A.T)))
        if asym > SYMMETRY_TOL * max(frobenius_norm(A), np.finfo(float).tiny):
            raise NotSymmetricError(
                f"max asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.1e} * ||A||_F"
            )
    A = (A + A.T) / 2.0

    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh did not converge: {exc}") from exc

    vecs = _fix_sign(vecs)
    # Descending eigenvalues; exact ties ordered by the sign-fixed vectors,
    # compared lexicographically from the first entry.
    order = np.lexsort(np.vstack([-vecs[::-1], -vals]))
    return SymmetricEigen(eigenvalues=vals[order], eigenvectors=vecs[:, order])

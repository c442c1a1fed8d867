"""Dense real matrix primitives used by the whole pipeline.

Provides the Frobenius norm, the median, the second moments of a data
matrix (its gram, column sums and range, the only statistics the estimators
read), a symmetric eigendecomposition (LAPACK ``eigh`` with the eigenvectors' sign
and order made canonical), and the helper that runs independent calls on
threads.  All computation is in 64-bit floating point and
everything downstream reduces to n x n problems, so no large decompositions
are ever needed.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace
from threading import Thread

import numpy as np

from .errors import (
    InvalidParameterError,
    NoConvergenceError,
    NotSymmetricError,
)

SYMMETRY_TOL = 1e-10
# Below this bound integers and their sums are exact in float64.
EXACT_SUM_BOUND = 2 ** 53
# The most columns a data matrix may have, checked before its n x n gram is
# formed: single-threaded eigh of that gram took 0.24, 1.75 and 12.0 s at
# n = 1024, 2048 and 4096 (8, 32 and 128 MiB; 2-core x86-64, OpenBLAS 0.3.31).
MAX_COLUMNS = 4096
# Row blocks of about this many entries (512 KiB of float64) keep a block's
# temporaries in cache: is_integral tests blocks of this size, and a
# simulated replication is drawn and reduced in them, each into the one
# buffer its worker allocates for the largest block.
_BLOCK_ENTRIES = 1 << 16


def cpu_count() -> int:
    """The CPUs this process may run on: the default number of workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _on_threads(fn, calls: list[tuple]) -> list:
    """``[fn(*args) for args in calls]``, with ``calls[0]`` run on the
    calling thread and each other call on a thread of its own.

    The other threads are started before ``calls[0]`` runs, and a single
    call starts none.  Results come back in call order.  Every call
    finishes before an exception is raised, and then the first one in call
    order is.
    """
    results = [None] * len(calls)
    errors = [None] * len(calls)

    def run(i):
        try:
            results[i] = fn(*calls[i])
        except BaseException as exc:  # re-raised on the calling thread
            errors[i] = exc

    threads = [Thread(target=run, args=(i,)) for i in range(1, len(calls))]
    for thread in threads:
        thread.start()
    try:
        results[0] = fn(*calls[0])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


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
        _check_data_shape(*arr.shape)
        object.__setattr__(self, "values", arr)


def _check_data_shape(k: int, n: int) -> None:
    if k < 1 or n < 2:
        raise InvalidParameterError(
            f"data matrix must be at least 1 x 2, got {(k, n)}"
        )
    check_columns(n)


def check_columns(n: int) -> None:
    """Raise unless n columns are within the cap, ``MAX_COLUMNS``."""
    if n > MAX_COLUMNS:
        raise InvalidParameterError(f"{n} columns exceed the cap of {MAX_COLUMNS}")


def as_data(y) -> DataMatrix:
    """Return a DataMatrix as is, or validate an array-like into one.

    Validation is a full pass over the matrix, so a caller that hands the
    data on to other stages passes the DataMatrix, not its values.
    """
    return y if isinstance(y, DataMatrix) else DataMatrix(y)


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries.

    Total on any finite array (vector or matrix); no shape restrictions
    beyond finiteness.  A norm past the float range is inf, without a
    warning.
    """
    arr = np.asarray(a, dtype=float)
    if arr.size and not np.isfinite(arr).all():
        raise InvalidParameterError("norm input contains non-finite entries")
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(arr * arr)))


def median(values) -> float:
    """The median of a non-empty array: ``float(np.median(values))``, bit
    for bit.

    The middle of the sorted values, or the mean of the middle two,
    ``(s[h-1] + s[h]) / 2``, which overflows and warns as ``np.median``
    does; NaN when any value is NaN.  Of a tie between -0.0 and 0.0 either
    may be returned, and a NaN's payload is not kept.  ``np.median`` itself
    imports ``numpy.ma`` on its first call, some 13 ms of every fresh
    process.
    """
    s = np.sort(np.asarray(values, dtype=float), axis=None)
    h = s.size // 2
    mid = s[h] if s.size % 2 else (s[h - 1] + s[h]) / 2
    return float(s[-1] if np.isnan(s[-1]) else mid)


@dataclass(frozen=True)
class Moments:
    """The sufficient statistics of a k x n data matrix Y.

    ``gram`` is the unscaled Y^T Y.  ``colsum`` and ``colsumsq`` are the
    column sums of y and y*y, ``ymin`` and ``ymax`` the smallest and
    largest entry, and ``integral`` tells whether every entry is a whole
    number.  Every estimator reads the data only through these, so a file
    can be reduced to them without holding the matrix.  Moments made
    without column sums hold None in those five fields: the normal family,
    the pooled variance and an explicit correction read only the gram.
    The gram and sums must be finite.  The shape is checked where data come
    in, so the Moments of a few rows may be added up before it is.
    """

    gram: np.ndarray
    colsum: np.ndarray | None
    colsumsq: np.ndarray | None
    k: int
    ymin: float | None
    ymax: float | None
    integral: bool | None

    def __post_init__(self):
        sums = (self.gram, self.colsum, self.colsumsq)
        if not all(np.isfinite(s).all() for s in sums if s is not None):
            raise InvalidParameterError(
                "the data's gram or column sums overflow the float range"
            )

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    @property
    def exact(self) -> bool:
        """True for nonnegative whole numbers with k * max(y)^2 < 2^53: all
        their partial sums are integers below 2^53, exact in float64, so the
        totals do not depend on how the rows are ordered, blocked or split."""
        return bool(self.integral and self.ymin >= 0
                    and self.k * int(self.ymax) ** 2 < EXACT_SUM_BOUND)

    def __add__(self, other: Moments) -> Moments:
        """The Moments of this matrix's rows followed by ``other``'s."""
        return Moments(self.gram + other.gram, self.colsum + other.colsum,
                       self.colsumsq + other.colsumsq, self.k + other.k,
                       min(self.ymin, other.ymin), max(self.ymax, other.ymax),
                       self.integral and other.integral)

    def scaled_gram(self) -> np.ndarray:
        """(Y^T Y) / k, as symmetric as the gram: numpy forms ``Y.T @ Y``
        exactly symmetric, and ``sym_eigen`` symmetrises what it factors.

        The single division by k comes after accumulation, which keeps the
        sums well scaled.
        """
        return self.gram / float(self.k)


def is_integral(arr: np.ndarray) -> bool:
    """True when every entry of the 2-D array is a whole number.

    Tested on the first row, then in row blocks, so no k x n temporary is
    built and real-valued data are mostly settled by their first row.
    """
    step = max(1, _BLOCK_ENTRIES // arr.shape[1])
    blocks = itertools.chain(
        [arr[:1]], (arr[i:i + step] for i in range(1, arr.shape[0], step)))
    return all(np.array_equal(np.floor(block), block) for block in blocks)


def data_moments(y, sums: bool = True) -> Moments:
    """The Moments of a data matrix, with column sums when ``sums`` is set.

    ``Moments.exact`` data have exact partial sums in any order, so their
    columns are summed as they stand.  Other data are summed over sorted
    columns, which fixes the order and so makes the sums invariant under
    row permutations.
    """
    arr = as_data(y).values
    # Entries from about 1e154 overflow these sums to inf, which Moments
    # rejects with one error.
    with np.errstate(over="ignore"):
        if not sums:
            return Moments(arr.T @ arr, None, None, arr.shape[0], None, None,
                           None)
        moments = _block_moments([arr], is_integral(arr))
        if moments.exact:
            return moments
        cols = np.sort(arr, axis=0)
        colsum = cols.sum(axis=0)
        # Squared in place: the sort is the only k x n temporary.
        colsumsq = np.square(cols, out=cols).sum(axis=0)
    return replace(moments, colsum=colsum, colsumsq=colsumsq)


def _block_moments(blocks, integral: bool) -> Moments:
    """The Moments of the (rows, n) float64 ``blocks`` of a matrix, added in
    the order they come.

    The sums start from the first block's, so a single block gives the bits
    of its own ``block.T @ block``, and the sums of y*y are the gram's
    diagonal.  ``integral`` tells whether the blocks hold whole numbers only.
    """
    blocks = iter(blocks)
    first = next(blocks)
    gram, colsum = first.T @ first, np.ones(first.shape[0]) @ first
    k, ymin, ymax = first.shape[0], first.min(), first.max()
    for block in blocks:
        gram += block.T @ block
        colsum += np.ones(block.shape[0]) @ block
        k += block.shape[0]
        ymin, ymax = min(ymin, block.min()), max(ymax, block.max())
    return Moments(gram, colsum, np.diag(gram).copy(), k, float(ymin),
                   float(ymax), integral)


def as_moments(y) -> Moments:
    """Return Moments as they are, or the Moments (without sums) of a matrix."""
    return y if isinstance(y, Moments) else data_moments(y, sums=False)


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
        max |A_ij - A_ji| <= 1e-10 * ||A||_F.  The matrix is symmetrised,
        as A - (A - A^T) / 2, before it is factored; this is the one place
        on the estimate path that symmetrises.

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
    # This form cannot overflow near the float range, and it keeps every
    # bit, signed zeros too, of an exactly symmetric A.
    A = A - (A - A.T) / 2.0

    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh did not converge: {exc}") from exc

    vecs = _fix_sign(vecs)
    # Descending eigenvalues; exact ties ordered by the sign-fixed vectors,
    # compared lexicographically from the first entry.  eigh returns them
    # ascending, so without ties reversing its order is the same sort.
    if np.all(vals[1:] > vals[:-1]):
        order = np.arange(n - 1, -1, -1)
    else:
        order = np.lexsort(np.vstack([-vecs[::-1], -vals]))
    return SymmetricEigen(eigenvalues=vals[order], eigenvectors=vecs[:, order])

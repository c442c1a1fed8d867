"""Matrix primitives: norm, scaled gram, symmetric eigendecomposition, and
the helper that runs calls on threads."""

import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentspec.errors import (
    InvalidParameterError,
    NotSymmetricError,
)
import latentspec.matrix_core as matrix_core
import latentspec.matrixio as matrixio
from latentspec.matrix_core import (
    DataMatrix,
    _on_threads,
    data_moments,
    frobenius_norm,
    median,
    sym_eigen,
)
from latentspec.matrixio import read_moments_csv
from latentspec.simulation import ScenarioConfig, _replication_moments
from latentspec.subspace_metrics import RowSpaceBasis


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(0.0, scale, size=(n, n))
    return (a + a.T) / 2.0


# ---------------------------------------------------------------- frobenius

def test_frobenius_zero_matrix():
    assert frobenius_norm(np.zeros((2, 2))) == 0.0


def test_frobenius_identity():
    assert frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0), rel=1e-15)


def test_frobenius_three_four_five():
    assert frobenius_norm([[3.0, 4.0]]) == 5.0


def test_frobenius_transpose_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal(size=(rng.integers(1, 8), rng.integers(1, 8)))
        assert frobenius_norm(a) == frobenius_norm(a.T)


def test_frobenius_rejects_nan():
    with pytest.raises(InvalidParameterError):
        frobenius_norm([[np.nan, 1.0]])


# -------------------------------------------------------------------- median

# Few distinct values, so that draws tie; subnormals; values near the top
# of the range, whose middle pairs overflow; infinities and NaN.
_MEDIAN_POOL = [0.0, 1.0, -2.5, 3.0, 5e-324, 1e-310, -2.2e-308, 1.7e308,
                1.797e308, -1.75e308, np.inf, -np.inf, np.nan]
# x + 0.0 turns -0.0 into 0.0, and every NaN becomes the default NaN:
# which signed zero np.median's partition leaves in the middle, and which
# NaN payload np.sort keeps, are not defined by the values.
_MEDIAN_VALUES = st.one_of(
    st.sampled_from(_MEDIAN_POOL),
    st.floats(width=64).map(lambda x: np.nan if x != x else x + 0.0),
)


def _with_warnings(fn, values):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = float(fn(values))
    return np.float64(out).tobytes(), [w.category for w in caught]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_MEDIAN_VALUES, min_size=1, max_size=60))
def test_median_bits_and_warnings_match_numpy_property(values):
    arr = np.array(values)
    assert _with_warnings(median, arr) == _with_warnings(np.median, arr)


def test_median_bits_and_warnings_match_numpy_seeded():
    rng = np.random.default_rng(18)
    draws = [
        lambda size: rng.normal(size=size),
        lambda size: rng.integers(0, 4, size).astype(float),
        lambda size: rng.choice([5e-324, 1e-310, 2.2e-308, 1.0], size),
        lambda size: rng.uniform(1.6e308, 1.79e308, size),
    ]
    for size in range(1, 61):
        for draw in draws:
            arr = draw(size)
            assert _with_warnings(median, arr) == _with_warnings(np.median, arr)


# --------------------------------------------------------------- data matrix

def test_data_matrix_shape_and_entries():
    values = DataMatrix([[1, 2, 3], [4, 5, 6]]).values
    assert values.shape == (2, 3) and values.dtype == np.float64
    assert values[1, 2] == 6.0


def test_data_matrix_rejects_single_column():
    with pytest.raises(InvalidParameterError):
        DataMatrix([[1.0], [2.0]])


def test_data_matrix_rejects_nonfinite():
    with pytest.raises(InvalidParameterError):
        DataMatrix([[1.0, np.inf]])


# --------------------------------------------------------------------- gram

def test_gram_identity():
    got = data_moments(np.eye(2), sums=False).scaled_gram()
    np.testing.assert_array_equal(got, np.eye(2) / 2.0)


def test_gram_hand_multiply():
    # Y^T Y of [[1,2],[3,4]] is [[10,14],[14,20]]; divided by k=2.
    got = data_moments(np.array([[1.0, 2.0], [3.0, 4.0]]), sums=False).scaled_gram()
    np.testing.assert_allclose(got, [[5.0, 7.0], [7.0, 10.0]], rtol=0, atol=0)


def test_gram_exactly_symmetric(tmp_path, monkeypatch):
    # Only sym_eigen symmetrises, so every gram the estimate path forms
    # must come out of numpy exactly symmetric: whole matrices, a plain file
    # reduced in three row ranges, streamed replications, and the B B^T of
    # a non-orthonormal RowSpaceBasis.
    rng = np.random.default_rng(1)
    grams = []
    for _ in range(20):
        y = rng.normal(size=(rng.integers(2, 40), rng.integers(2, 10)))
        grams.append(data_moments(y, sums=False).scaled_gram())
    monkeypatch.setattr(matrixio, "_RANGE_MIN_BYTES", 1000)
    monkeypatch.setattr(matrixio, "cpu_count", lambda: 3)
    path = tmp_path / "y.csv"
    path.write_text("".join(",".join(map(str, row)) + "\n"
                            for row in rng.poisson(50.0, size=(2000, 7))))
    grams.append(read_moments_csv(path).scaled_gram())
    for scenario in ("normal", "poisson"):
        cfg = ScenarioConfig(scenario=scenario, n=9, k=20000, r=2, reps=1)
        grams.append(_replication_moments(cfg, 0)[2].scaled_gram())
    for r, n in [(1, 2), (3, 7), (20, 50)]:
        b = RowSpaceBasis(rng.normal(size=(r, n))).matrix
        grams.append(b @ b.T)
    for g in grams:
        assert np.array_equal(g, g.T)


def test_gram_matches_definition():
    rng = np.random.default_rng(2)
    y = rng.normal(size=(13, 5))
    got = data_moments(y, sums=False).scaled_gram()
    np.testing.assert_allclose(got, y.T @ y / 13.0, rtol=1e-13)


@pytest.mark.parametrize("sums", [True, False])
def test_whole_gram_is_one_matmul(sums):
    # A zero column next to a negative one: a BLAS that starts each entry
    # from its first product makes -0.0 of 0 * -1 + 0 * -1, which a sum
    # started from +0.0 would turn into +0.0.
    y = np.array([[0.0, -1.0, 2.5], [0.0, -1.0, 1.5]])
    assert data_moments(y, sums).gram.tobytes() == (y.T @ y).tobytes()


# -------------------------------------------------------------------- eigen

def test_eigen_identity():
    eig = sym_eigen(np.eye(3))
    np.testing.assert_array_equal(eig.eigenvalues, np.ones(3))
    np.testing.assert_array_equal(eig.eigenvectors, np.eye(3))


def test_eigen_already_diagonal():
    eig = sym_eigen(np.diag([5.0, 3.0, 1.0]))
    np.testing.assert_array_equal(eig.eigenvalues, [5.0, 3.0, 1.0])
    np.testing.assert_array_equal(eig.eigenvectors, np.eye(3))


def test_eigen_two_by_two_closed_form():
    # Characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 = 1 -> l = 3, 1.
    eig = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(eig.eigenvectors[:, 0], [s, s], atol=1e-12)
    np.testing.assert_allclose(eig.eigenvectors[:, 1], [s, -s], atol=1e-12)


def test_eigen_invariants_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 25))
        a = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 100.0)))
        eig = sym_eigen(a)
        assert np.all(np.diff(eig.eigenvalues) <= 0)
        v = eig.eigenvectors
        assert frobenius_norm(v.T @ v - np.eye(n)) <= 1e-10 * np.sqrt(n) + 1e-12
        recon = v @ np.diag(eig.eigenvalues) @ v.T
        # Converged off-norm tolerance plus reassembly rounding.
        fro = frobenius_norm(a)
        assert frobenius_norm(a - recon) <= 2e-10 * fro + 1e-13


def test_eigen_matches_lapack_oracle():
    # Independent route: same eigenvalues as numpy's LAPACK solver.
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        a = random_symmetric(rng, n)
        mine = sym_eigen(a).eigenvalues
        ref = np.linalg.eigvalsh(a)[::-1]
        scale = max(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(mine, ref, atol=1e-9 * scale)


def test_eigen_sign_convention():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_symmetric(rng, 6)
        v = sym_eigen(a).eigenvectors
        for i in range(6):
            col = v[:, i]
            assert col[np.argmax(np.abs(col))] >= 0.0


def test_eigen_deterministic():
    rng = np.random.default_rng(6)
    a = random_symmetric(rng, 12)
    e1 = sym_eigen(a.copy())
    e2 = sym_eigen(a.copy())
    assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
    assert np.array_equal(e1.eigenvectors, e2.eigenvectors)


def test_eigen_symmetrises_near_float_range_without_overflow(monkeypatch):
    # Entries near the top of the float range (an explicit correction of
    # -1e308 puts them there) factor without an overflowing average, and an
    # exactly symmetric input, signed zeros included, is factored as it is.
    a = np.array([[1e308, -0.0, 1.5e308], [-0.0, 1e308, 0.0],
                  [1.5e308, 0.0, -1e308]])
    seen, eigh = [], np.linalg.eigh

    def spy(m):
        seen.append(m.copy())
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    sym_eigen(a)
    assert seen[0].tobytes() == a.tobytes()


def test_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        sym_eigen(np.array([[1.0, 2.0], [0.5, 1.0]]))


def test_eigen_rejects_nonsquare():
    with pytest.raises(InvalidParameterError):
        sym_eigen(np.zeros((2, 3)))


def test_eigen_contract_at_n600():
    # No dimension cap: the contract holds past the old limit of 512.
    n = 600
    a = random_symmetric(np.random.default_rng(10), n)
    eig = sym_eigen(a)
    vals, v = eig.eigenvalues, eig.eigenvectors
    assert np.all(np.diff(vals) <= 0)
    assert np.all(v[np.argmax(np.abs(v), axis=0), np.arange(n)] >= 0.0)
    assert frobenius_norm(a @ v - v * vals) <= 1e-10 * frobenius_norm(a)


def test_eigen_tie_order_matches_loop_reference():
    # Per-column sign fix and a Python sort on (-value, -vector), applied to
    # the same eigh output, must give the same bits on exactly tied spectra.
    rng = np.random.default_rng(9)
    for trial in range(300):
        n = int(rng.integers(1, 9))
        perm = np.eye(n)[rng.permutation(n)]
        a = perm @ np.diag(rng.integers(0, 3, size=n).astype(float)) @ perm.T
        if trial % 2:
            b = rng.integers(-2, 3, size=(n, n)).astype(float)
            a = a + b + b.T
        vals, vecs = np.linalg.eigh(a)
        cols = []
        for i in range(n):
            v = vecs[:, i]
            cols.append(-v if v[np.argmax(np.abs(v))] < 0.0 else v)
        order = sorted(range(n), key=lambda i: (-vals[i], tuple(-cols[i])))
        eig = sym_eigen(a)
        assert np.array_equal(eig.eigenvalues, vals[order])
        assert np.array_equal(
            eig.eigenvectors, np.column_stack([cols[i] for i in order])
        )


def test_eigen_untied_order_is_reversed_eigh_order():
    # Without ties the sort by (-value, -vector) is eigh's order reversed.
    rng = np.random.default_rng(11)
    for n in (2, 5, 50, 300):
        a = random_symmetric(rng, n)
        vals, vecs = np.linalg.eigh(a)
        assert np.all(np.diff(vals) > 0)
        lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
        vecs = np.where(lead < 0.0, -vecs, vecs)
        order = np.lexsort(np.vstack([-vecs[::-1], -vals]))
        eig = sym_eigen(a)
        assert np.array_equal(eig.eigenvalues, vals[order])
        assert np.array_equal(eig.eigenvectors, vecs[:, order])


def test_eigen_zero_matrix():
    eig = sym_eigen(np.zeros((4, 4)))
    np.testing.assert_array_equal(eig.eigenvalues, np.zeros(4))


def test_sorted_eigenvalue_gap_bounded_by_frobenius_gap():
    # Perturbation bound: l2 distance of sorted spectra <= Frobenius distance.
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 15))
        a = random_symmetric(rng, n, scale=2.0)
        b = a + random_symmetric(rng, n, scale=float(rng.uniform(0.001, 1.0)))
        la = sym_eigen(a).eigenvalues
        lb = sym_eigen(b).eigenvalues
        assert np.linalg.norm(la - lb) <= frobenius_norm(a - b) + 1e-9


# ---------------------------------------------------------------- threads

def test_on_threads_returns_results_in_call_order():
    def late_first(i):
        time.sleep(0.01 * (5 - i))
        return i * i

    assert _on_threads(late_first, [(i,) for i in range(5)]) == [0, 1, 4, 9, 16]


def test_on_threads_runs_the_first_call_on_the_caller(started):
    caller = threading.get_ident()
    assert _on_threads(threading.get_ident, [()]) == [caller]
    assert started == []
    idents = _on_threads(threading.get_ident, [(), (), ()])
    assert idents[0] == caller and caller not in idents[1:]
    assert len(started) == 2 and not any(t.is_alive() for t in started)


@pytest.mark.parametrize("raises", [(1,), (0,), (2, 1)])
def test_on_threads_raises_after_every_call_finished(raises):
    finished = []

    def call(i):
        # Call 2 raises before call 1, and call 3 ends last.
        time.sleep((0, 0.04, 0.02, 0.06)[i])
        if i in raises:
            raise ValueError(f"call {i}")
        finished.append(i)

    with pytest.raises(ValueError, match=f"call {min(raises)}"):
        _on_threads(call, [(i,) for i in range(4)])
    assert sorted(finished) == sorted(set(range(4)) - set(raises))

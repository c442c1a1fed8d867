"""Row-space projection and the normalized projection distance."""

import numpy as np
import pytest

from latentspec.errors import (
    InvalidParameterError,
    NotOrthonormalWarning,
    RankDeficientError,
)
from latentspec.matrix_core import frobenius_norm
from latentspec.subspace_metrics import (
    RowSpaceBasis,
    projection_matrix,
    subspace_distance,
)


def orthonormal_rows(mat):
    """Row-space-preserving orthonormal basis (QR on the transpose)."""
    q, _ = np.linalg.qr(mat.T)
    return q[:, : mat.shape[0]].T


def random_orthogonal(rng, r):
    q, rmat = np.linalg.qr(rng.normal(size=(r, r)))
    return q * np.sign(np.diag(rmat))


# --------------------------------------------------------------- projection

def test_projection_axis():
    np.testing.assert_allclose(
        projection_matrix(np.array([[1.0, 0.0, 0.0]])), np.diag([1.0, 0.0, 0.0]),
        atol=1e-14,
    )


def test_projection_whole_space():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(4, 4))
    np.testing.assert_allclose(projection_matrix(b), np.eye(4), atol=1e-9)


def test_projection_diagonal_half():
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(
        projection_matrix(np.array([[s, s]])), [[0.5, 0.5], [0.5, 0.5]],
        atol=1e-14,
    )


def test_projection_idempotent_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(30):
        r = int(rng.integers(1, 5))
        n = int(rng.integers(r, r + 8)) + 1
        b = rng.normal(size=(r, n))
        p = projection_matrix(b)
        assert frobenius_norm(p @ p - p) <= 1e-9
        assert np.array_equal(p, p.T)


def test_projection_rank_deficient():
    with pytest.raises(RankDeficientError):
        projection_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))


# ----------------------------------------------------------------- distance

def test_distance_identical_orthonormal():
    m = orthonormal_rows(np.random.default_rng(2).normal(size=(3, 7)))
    assert subspace_distance(m, m) <= 1e-12


def test_distance_orthogonal_axes():
    d = subspace_distance(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert d == pytest.approx(1.0, abs=1e-12)


def test_distance_same_span_rotation():
    rng = np.random.default_rng(3)
    m = rng.uniform(1.0, 10.0, size=(5, 15))
    m_orth = orthonormal_rows(m)
    q = random_orthogonal(rng, 5)
    assert subspace_distance(m, q @ m_orth) <= 1e-9


def test_distance_basis_invariance_general_pair():
    # Rotating the orthonormal estimate never changes the distance, even for
    # unrelated spans.
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = rng.normal(size=(3, 9))
        m_hat = orthonormal_rows(rng.normal(size=(4, 9)))
        q = random_orthogonal(rng, 4)
        d1 = subspace_distance(m, m_hat)
        d2 = subspace_distance(m, q @ m_hat)
        assert abs(d1 - d2) <= 1e-10


def test_distance_scale_invariance_same_span():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.uniform(0.5, 3.0, size=(3, 8))
        m_hat = random_orthogonal(rng, 3) @ orthonormal_rows(m)
        c = float(rng.uniform(0.1, 20.0))
        d1 = subspace_distance(m, m_hat)
        d2 = subspace_distance(c * m, m_hat)
        assert abs(d1 - d2) <= 1e-10


def test_distance_depends_on_reference_scale_across_spans():
    # Unrelated spans: the first term grows with the reference rows.
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 9))
    m_hat = orthonormal_rows(rng.normal(size=(9, 4)).T)
    assert subspace_distance(m, m_hat) == pytest.approx(0.414, abs=5e-4)
    assert subspace_distance(2.0 * m, m_hat) == pytest.approx(0.698, abs=5e-4)


def test_distance_zero_implies_projectors_match():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(4, 10))
    m_hat = orthonormal_rows(m)
    assert subspace_distance(m, m_hat) <= 1e-9
    gap = frobenius_norm(projection_matrix(m) - projection_matrix(m_hat))
    assert gap <= 1e-8


def test_distance_warns_on_non_orthonormal_estimate():
    m = np.array([[1.0, 0.0, 0.0]])
    bad = np.array([[2.0, 0.0, 0.0]])
    with pytest.warns(NotOrthonormalWarning):
        d = subspace_distance(m, bad)
    assert np.isfinite(d)


def test_distance_rejects_rank_deficient_reference():
    m = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
    m_hat = orthonormal_rows(np.random.default_rng(7).normal(size=(2, 3)))
    with pytest.raises(RankDeficientError):
        subspace_distance(m, m_hat)


def test_distance_column_mismatch():
    with pytest.raises(InvalidParameterError):
        subspace_distance(np.eye(2), np.eye(3))


def test_basis_wrapper_detects_orthonormality():
    b = RowSpaceBasis(np.eye(3)[:2])
    assert b.r == 2 and b.n == 3 and b.orthonormal
    assert not RowSpaceBasis(2.0 * np.eye(3)[:2]).orthonormal
    with pytest.raises(RankDeficientError):
        RowSpaceBasis(np.zeros((1, 3)))

"""Diagonal variance correction: family averages, pooled residual, diagnostics."""

import numpy as np
import pytest
from family_helpers import v_value

from latentspec.errors import (
    DegenerateTailError,
    InvalidParameterError,
    LengthMismatchError,
    SupportViolationError,
)
from latentspec.nef_qvf import (
    binomial,
    gamma,
    ghs,
    negbin,
    normal,
    poisson,
    qvf_coefficients,
    qvf_transform,
)
from latentspec import variance_estimation
from latentspec.matrix_core import data_moments
from latentspec.simulation import ScenarioConfig, generate_scenario
from latentspec.variance_estimation import (
    dk_error,
    estimate_dk_leek,
    estimate_dk_qvf,
    explicit,
)


# ------------------------------------------------------------------ family

def test_qvf_poisson_column_average():
    y = np.array([[2.0, 2.0], [4.0, 4.0]])
    est = estimate_dk_qvf(y, poisson())
    np.testing.assert_array_equal(est.deltas, [3.0, 3.0])


def test_qvf_normal_is_exactly_ones():
    rng = np.random.default_rng(0)
    y = rng.normal(size=(40, 7))
    est = estimate_dk_qvf(y, normal())
    assert np.array_equal(est.deltas, np.ones(7))


def test_qvf_binomial_hand_average():
    # v(0) = 0exactly, v(10) = (200 - 100)/19; average over two rows.
    y = np.array([[0.0, 0.0], [10.0, 10.0]])
    est = estimate_dk_qvf(y, binomial(20))
    np.testing.assert_allclose(est.deltas, [50.0 / 19.0] * 2, rtol=1e-15)


FAMILIES = [normal(), poisson(), binomial(20), negbin(10), gamma(10), ghs(2)]


def family_data(f, rng, shape):
    """In-support draws for each family; gamma and GHS are real-valued."""
    if f.kind == "poisson":
        return rng.poisson(7.0, size=shape).astype(float)
    if f.kind == "binomial":
        return rng.binomial(20, 0.4, size=shape).astype(float)
    if f.kind == "negbin":
        return rng.negative_binomial(10, 0.5, size=shape).astype(float)
    if f.kind == "gamma":
        return rng.gamma(10.0, 0.3, size=shape)
    return rng.normal(1.0, 3.0, size=shape)  # normal, ghs


def test_qvf_row_permutation_bit_invariant():
    for f in FAMILIES:
        y = family_data(f, np.random.default_rng(1), (200, 6))
        base = estimate_dk_qvf(y, f).deltas
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(200)
            shuffled = estimate_dk_qvf(y[perm], f).deltas
            assert np.array_equal(base, shuffled), f.kind


COUNT_FAMILIES = [poisson(), binomial(20), negbin(10)]


def sorted_sum_deltas(f, y):
    """The correction from column sums taken over sorted columns."""
    cols = np.sort(y, axis=0)
    k = y.shape[0]
    return qvf_transform(qvf_coefficients(f), cols.sum(axis=0) / k,
                         (cols * cols).sum(axis=0) / k)


def count_sorts(monkeypatch):
    calls = []
    real = np.sort

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "sort", spy)
    return calls


@pytest.mark.parametrize("f", COUNT_FAMILIES, ids=lambda f: f.kind)
def test_qvf_counts_sum_without_sort_bit_equal_to_sorted(f, monkeypatch):
    # Counts with k * max(y)^2 < 2^53 have exact sums in any order, so the
    # plain column sums give the sorted sums' bits.  The last case sits just
    # under the bound, where y*y sums reach about 2^52.
    rng = np.random.default_rng(3)
    cases = [family_data(f, rng, (500, 6)), family_data(f, rng, (1, 4)),
             np.zeros((30, 3))]
    big = binomial(4e6) if f.kind == "binomial" else f
    near_bound = rng.poisson(2.5e6, size=(1000, 4)).astype(float)
    assert 1000 * near_bound.max() ** 2 < 2.0**53
    cases.append(near_bound)
    for y in cases:
        fam = big if y is near_bound else f
        want = sorted_sum_deltas(fam, y)
        sorts = count_sorts(monkeypatch)
        got = estimate_dk_qvf(y, fam).deltas
        assert got.tobytes() == want.tobytes()
        assert sorts == []


@pytest.mark.parametrize("f", [poisson(), binomial(4e7), negbin(10)],
                         ids=lambda f: f.kind)
def test_qvf_large_counts_sorted_and_row_permutation_invariant(f, monkeypatch):
    # Counts near 1e7 with k=200 give k * max(y)^2 >= 2^53: sums of y*y are
    # rounded, so only the sort makes them independent of the row order.
    rng = np.random.default_rng(4)
    y = rng.poisson(rng.uniform(0.5e7, 1.5e7, size=(1, 6)), size=(200, 6))
    y = y.astype(float)
    assert 200 * y.max() ** 2 >= 2.0**53
    sorts = count_sorts(monkeypatch)
    base = estimate_dk_qvf(y, f).deltas
    assert len(sorts) == 1
    assert base.tobytes() == sorted_sum_deltas(f, y).tobytes()
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(200)
        assert estimate_dk_qvf(y[perm], f).deltas.tobytes() == base.tobytes()


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.kind)
@pytest.mark.parametrize("k", [1, 2, 500])
def test_qvf_equals_column_mean_of_v(f, k):
    # The correction comes from column means of y and y*y; it must equal
    # the column average of v(y), including on an all-zero column.
    y = family_data(f, np.random.default_rng(k), (k, 5))
    if f.kind != "gamma":  # zero is outside the gamma support
        y[:, 2] = 0.0
    est = estimate_dk_qvf(y, f)
    np.testing.assert_allclose(est.deltas, v_value(f, y).mean(axis=0),
                               rtol=1e-12, atol=0.0)


def test_qvf_support_violation_reports_location():
    y = np.array([[1.0, 2.0], [3.0, -1.0]])
    with pytest.raises(SupportViolationError) as info:
        estimate_dk_qvf(y, poisson())
    assert (1, 1) in info.value.locations


def test_qvf_support_violation_text_and_locations():
    y = np.zeros((30, 4))
    y[3:28, 2] = 0.5
    y[29, 0] = -1.0
    with pytest.raises(SupportViolationError) as info:
        estimate_dk_qvf(y, poisson())
    assert str(info.value) == (
        "26 entries outside the poisson support, first at (row, col) (3, 2)")
    assert info.value.locations == [(row, 2) for row in range(3, 23)]


def test_qvf_builds_no_support_mask_on_in_support_data(monkeypatch):
    def no_mask(f, values):
        raise AssertionError("support mask built")

    monkeypatch.setattr(variance_estimation, "check_support", no_mask)
    for f in FAMILIES:
        estimate_dk_qvf(family_data(f, np.random.default_rng(2), (50, 4)), f)


def test_qvf_reads_moments_and_needs_their_sums():
    y = family_data(poisson(), np.random.default_rng(5), (40, 3))
    want = estimate_dk_qvf(y, poisson()).deltas
    assert estimate_dk_qvf(data_moments(y), poisson()).deltas.tobytes() == want.tobytes()
    gram_only = data_moments(y, sums=False)
    assert np.array_equal(estimate_dk_qvf(gram_only, normal()).deltas, np.ones(3))
    with pytest.raises(InvalidParameterError, match="needs the column sums"):
        estimate_dk_qvf(gram_only, poisson())


def test_qvf_support_violation_from_moments_has_no_positions():
    y = np.array([[1.0, 2.0], [3.0, 21.0]])
    with pytest.raises(SupportViolationError) as info:
        estimate_dk_qvf(data_moments(y), binomial(20))
    assert str(info.value) == "entries outside the binomial support"
    assert info.value.locations == []


def test_qvf_support_violation_non_integer():
    y = np.array([[1.0, 2.5], [3.0, 1.0]])
    with pytest.raises(SupportViolationError):
        estimate_dk_qvf(y, binomial(20))


# ----------------------------------------------------------- pooled residual

def test_leek_zero_matrix():
    est = estimate_dk_leek(np.zeros((10, 4)), t=2)
    np.testing.assert_array_equal(est.deltas, np.zeros(4))


def test_leek_equal_singular_values():
    # Y = c * [I_n; 0]: all n singular values equal c, so the residual sum
    # over j = t..n has (n - t + 1) terms of c^2.
    c, k, n = 3.0, 12, 5
    y = np.zeros((k, n))
    y[:n, :n] = c * np.eye(n)
    for t in (1, 2, 4):
        est = estimate_dk_leek(y, t)
        expect = c * c * (n - t + 1) / (k * (n - t))
        np.testing.assert_allclose(est.deltas, np.full(n, expect), rtol=1e-12)


def test_leek_matches_svd_oracle():
    rng = np.random.default_rng(2)
    y = rng.normal(size=(60, 8))
    sv = np.linalg.svd(y, compute_uv=False)
    for t in (1, 3, 7):
        expect = float(np.sum(sv[t - 1:] ** 2)) / (60 * (8 - t))
        est = estimate_dk_leek(y, t)
        np.testing.assert_allclose(est.deltas, np.full(8, expect), rtol=1e-10)


def test_leek_homoskedastic_recovery():
    # Median over seeds of the pooled estimate should land within 10% of the
    # true noise variance when t exceeds the (zero) signal rank.
    sigma2 = 2.25
    vals = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        y = rng.normal(0.0, np.sqrt(sigma2), size=(5000, 15))
        vals.append(estimate_dk_leek(y, t=1).deltas[0])
    med = float(np.median(vals))
    assert abs(med - sigma2) <= 0.1 * sigma2


def test_leek_degenerate_tail_and_bad_t():
    y = np.zeros((6, 3))
    with pytest.raises(DegenerateTailError):
        estimate_dk_leek(y, t=3)
    with pytest.raises(InvalidParameterError):
        estimate_dk_leek(y, t=0)
    with pytest.raises(InvalidParameterError):
        estimate_dk_leek(y, t=4)


@pytest.mark.parametrize("t", [2.7, 2.0, True, "3", None])
def test_leek_t_must_be_an_integer(t):
    # int() truncated 2.7 to 2, took True as 1 and parsed "3".
    y = np.arange(24.0).reshape(6, 4)
    with pytest.raises(InvalidParameterError, match="t must be an integer"):
        estimate_dk_leek(y, t)
    got, want = estimate_dk_leek(y, np.int64(2)), estimate_dk_leek(y, 2)
    assert got.method == want.method == "leek:t=2"
    np.testing.assert_array_equal(got.deltas, want.deltas)


# ---------------------------------------------------------------- dk_error

def test_dk_error_examples():
    assert dk_error(explicit([1.0, 1.0]), [1.0, 1.0]) == 0.0
    assert dk_error(explicit([1.0, 1.0]), [1.0, 3.0]) == 2.0


def test_dk_error_length_mismatch():
    with pytest.raises(LengthMismatchError):
        dk_error(explicit([1.0, 1.0]), [1.0, 1.0, 1.0])


def test_dk_error_shrinks_with_more_rows():
    # Column-average estimate tightens as rows accumulate.
    meds = []
    for k in (1000, 10000):
        errs = []
        for rep in range(20):
            cfg = ScenarioConfig(scenario="poisson", n=15, k=k, r=5,
                                 reps=20, seed=17)
            draw = generate_scenario(cfg, rep)
            est = estimate_dk_qvf(draw.y, draw.family)
            errs.append(dk_error(est, draw.true_deltas))
        meds.append(float(np.median(errs)))
    assert meds[1] < meds[0]

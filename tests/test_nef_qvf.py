"""Families: variance functions and the unbiased variance transform."""

import math

import numpy as np
import pytest
from family_helpers import (
    ALL_FAMILIES,
    old_mean_region_check,
    v_value,
    variance_from_mean,
)

from latentspec.errors import InvalidParameterError, OutOfSupportError
from latentspec.matrix_core import is_integral
from latentspec.nef_qvf import (
    Family,
    binomial,
    gamma,
    ghs,
    in_support,
    negbin,
    normal,
    poisson,
    qvf_coefficients,
)

# ------------------------------------------------------------- coefficients

def coeffs(f):
    c = qvf_coefficients(f)
    return (c.b0, c.b1, c.b2)


def test_qvf_coefficients_table():
    assert coeffs(normal()) == (1.0, 0.0, 0.0)
    assert coeffs(poisson()) == (0.0, 1.0, 0.0)
    assert coeffs(binomial(20)) == (0.0, 1.0, -1.0 / 20.0)
    assert coeffs(negbin(10)) == (0.0, 1.0, 1.0 / 10.0)
    assert coeffs(gamma(10)) == (0.0, 0.0, 1.0 / 10.0)
    assert coeffs(ghs(2)) == (2.0, 0.0, 1.0 / 2.0)


# ------------------------------------------------------------------ v_value

def test_v_value_examples():
    assert v_value(poisson(), 5.0) == 5.0
    assert v_value(binomial(20), 0.0) == 0.0
    assert v_value(gamma(10), 3.0) == pytest.approx(9.0 / 11.0, rel=1e-15)
    assert v_value(negbin(10), 2.0) == pytest.approx(24.0 / 11.0, rel=1e-15)
    assert v_value(normal(), -3.7) == 1.0


def test_v_value_matches_quadratic_construction():
    # v(t) = (1 + b2)^-1 (b0 + b1 t + b2 t^2) must agree for every family.
    grid = np.linspace(-6.0, 18.0, 49)
    for f in ALL_FAMILIES:
        c = qvf_coefficients(f)
        expect = (c.b0 + c.b1 * grid + c.b2 * grid**2) / (1.0 + c.b2)
        got = v_value(f, grid)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)


def test_v_value_vectorized_shape():
    out = v_value(binomial(20), np.arange(6.0).reshape(2, 3))
    assert out.shape == (2, 3)


# ---------------------------------------------------------------- unbiased

def binomial_pmf(s, p, y):
    return math.comb(s, y) * p**y * (1.0 - p) ** (s - y)


def test_unbiasedness_binomial_enumeration():
    # Exhaustive check of E[v(y)] = V[y] on a couple of cells (the full grid
    # runs in the acceptance suite).
    for s, p in ((5, 0.3), (12, 0.7)):
        f = binomial(s)
        mean = s * p
        ev = sum(binomial_pmf(s, p, y) * v_value(f, float(y)) for y in range(s + 1))
        assert abs(ev - variance_from_mean(f, mean)) <= 1e-12


def test_unbiasedness_poisson_truncated():
    lam = 2.0
    f = poisson()
    term = math.exp(-lam)
    total, ev, y = term, term * v_value(f, 0.0), 0
    while total < 1.0 - 1e-13:
        y += 1
        term *= lam / y
        total += term
        ev += term * v_value(f, float(y))
    assert abs(ev - lam) <= 1e-9


# ----------------------------------------------------------------- variance

def test_variance_from_mean_examples():
    assert variance_from_mean(normal(), 123.0) == 1.0
    assert variance_from_mean(poisson(), 2.5) == 2.5
    assert variance_from_mean(ghs(2), 0.0) == 2.0
    assert variance_from_mean(binomial(20), 10.0) == pytest.approx(5.0)
    assert variance_from_mean(negbin(10), 2.0) == pytest.approx(2.4)
    assert variance_from_mean(gamma(10), 3.0) == pytest.approx(0.9)


def test_variance_nonnegative_on_admissible_grid():
    grids = {
        "normal": np.linspace(-50, 50, 21),
        "poisson": np.linspace(0, 40, 21),
        "binomial": np.linspace(0, 20, 21),
        "negbin": np.linspace(0, 40, 21),
        "gamma": np.linspace(0.1, 40, 21),
        "ghs": np.linspace(-50, 50, 21),
    }
    for f in ALL_FAMILIES:
        assert np.all(variance_from_mean(f, grids[f.kind]) >= 0.0)


def test_variance_out_of_support():
    with pytest.raises(OutOfSupportError):
        variance_from_mean(poisson(), -0.1)
    with pytest.raises(OutOfSupportError):
        variance_from_mean(binomial(20), 21.0)
    with pytest.raises(OutOfSupportError):
        variance_from_mean(gamma(10), 0.0)


def test_variance_region_check_skips_nan():
    # A NaN mean is not outside the region, nor does it hide one that is.
    nan = float("nan")
    assert np.isnan(variance_from_mean(poisson(), [nan, nan])).all()
    np.testing.assert_array_equal(
        variance_from_mean(binomial(20), [nan, 10.0])[1:], [5.0])
    for f, bad in [(poisson(), -0.1), (binomial(20), 21.0), (gamma(10), 0.0)]:
        with pytest.raises(OutOfSupportError):
            variance_from_mean(f, [nan, bad, nan])
    assert variance_from_mean(gamma(10), np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("f", ALL_FAMILIES + [binomial(2)],
                         ids=lambda f: f"{f.kind}-{f.s}")
def test_mean_region_is_hull_of_support(f):
    # in_support with whole=True rejects exactly the finite ranges of means
    # that the family-by-family reference rule rejects.
    tiny = np.nextafter(0.0, 1.0)
    ends = [0.0, -0.0, tiny, -tiny, 0.5, 1.0, -1.0, 1e300, -1e300]
    if f.s is not None:
        ends += [f.s, np.nextafter(f.s, np.inf), np.nextafter(f.s, 0.0), f.s + 1]
    for lo in ends:
        for hi in ends:
            if lo > hi:
                continue
            try:
                old_mean_region_check(f, lo, hi)
                old = True
            except OutOfSupportError:
                old = False
            assert bool(in_support(f, lo, hi, True)) == old, (lo, hi)


# --------------------------------------------------------------- validation

def test_family_validation():
    with pytest.raises(InvalidParameterError):
        Family("binomial", 1)
    with pytest.raises(InvalidParameterError):
        Family("binomial", 2.5)
    with pytest.raises(InvalidParameterError):
        Family("normal", 3)
    with pytest.raises(InvalidParameterError):
        Family("gamma")
    with pytest.raises(InvalidParameterError):
        Family("cauchy")


@pytest.mark.parametrize("value", [True, np.True_, "2", [3], 1j, 10 ** 400],
                         ids=["bool", "numpy-bool", "text", "list", "complex",
                              "integer-past-float-range"])
@pytest.mark.parametrize("kind", ["binomial", "negbin", "gamma", "ghs"])
def test_family_rejects_s_that_is_not_real(kind, value):
    # True was taken as s = 1; the other values raised a TypeError.
    with pytest.raises(InvalidParameterError,
                       match=f"family '{kind}' needs a positive parameter s"):
        Family(kind, value)
    f = Family(kind, np.int64(4))
    assert f == Family(kind, 4.0) and type(f.s) is float


@pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.kind)
@pytest.mark.parametrize("bad", [None, -1.0, -0.0, 0.0, 0.5, 20.5, 21.0, 1e300])
def test_data_in_support_matches_mask(f, bad):
    # The verdict from the range is that of the entry mask on every entry.
    # 30000 x 3 spans two row blocks; the one changed entry is in the last.
    y = np.random.default_rng(0).integers(1, 20, size=(30000, 3)).astype(float)
    if bad is not None:
        y[-2, 1] = bad
    verdict = in_support(f, y.min(), y.max(), is_integral(y))
    mask = in_support(f, y, y, y == np.floor(y))
    assert mask.shape == y.shape
    assert verdict == mask.all()

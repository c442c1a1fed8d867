"""Adjusted gram, rank selection, scale calibration, latent-space estimate."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latentspec.cli import _json_value
from latentspec.errors import InvalidParameterError, LengthMismatchError
from latentspec.latent_space import (
    GRID,
    CalibrationTrace,
    ScalingConfig,
    adjusted_gram,
    calibrate_scale,
    estimate_latent_space,
    estimate_rank,
)
from latentspec.matrix_core import data_moments, frobenius_norm
from latentspec.simulation import ScenarioConfig, generate_scenario
from latentspec.subspace_metrics import subspace_distance
from latentspec.variance_estimation import explicit


# ------------------------------------------------------------ adjusted gram

def test_adjusted_gram_exact_cancellation():
    # sqrt(2)^2 rounds one ulp above 2, so allow exactly that much.
    y = np.sqrt(2.0) * np.eye(2)
    got = adjusted_gram(y, [1.0, 1.0])
    assert np.all(np.abs(got) <= 2.3e-16)
    # Integer entries cancel bit-exactly.
    got = adjusted_gram(2.0 * np.eye(2), [2.0, 2.0])
    np.testing.assert_array_equal(got, np.zeros((2, 2)))


def test_adjusted_gram_zero_correction():
    rng = np.random.default_rng(0)
    y = rng.normal(size=(9, 4))
    np.testing.assert_array_equal(adjusted_gram(y, np.zeros(4)),
                                  data_moments(y, sums=False).scaled_gram())


def test_adjusted_gram_accepts_variance_estimate():
    got = adjusted_gram(2.0 * np.eye(2), explicit([2.0, 2.0]))
    np.testing.assert_array_equal(got, np.zeros((2, 2)))


def test_adjusted_gram_length_mismatch():
    with pytest.raises(LengthMismatchError):
        adjusted_gram(np.eye(3), [1.0, 1.0])


def test_adjusted_gram_noiseless_identity():
    cfg = ScenarioConfig(scenario="normal", n=15, k=10000, r=5, reps=1, seed=1)
    draw = generate_scenario(cfg, 0)
    g = adjusted_gram(draw.phi @ draw.m, np.zeros(15))
    h = draw.m.T @ draw.w_exact @ draw.m
    assert frobenius_norm(g - h) <= 1e-8


# ---------------------------------------------------------------- rank rule

def test_estimate_rank_threshold_count():
    vals = np.array([5.0, 3.0, 0.001, 1e-5])
    # k = 1000 and eta = 1/3 give tau = 0.1 with unit scale coefficient.
    cfg = ScalingConfig(c_tilde=1.0, eta=1.0 / 3.0, scale_coefficient=1.0)
    est = estimate_rank(vals, k=1000, cfg=cfg)
    assert est.r_hat == 2
    assert est.tau_tilde == pytest.approx(0.1)
    np.testing.assert_allclose(
        est.scaled_eigenvalues, vals / est.tau_tilde, rtol=1e-15
    )


def test_estimate_rank_all_zero():
    cfg = ScalingConfig(scale_coefficient=1.0)
    assert estimate_rank(np.zeros(5), k=100, cfg=cfg).r_hat == 0


def test_estimate_rank_never_counts_negative():
    cfg = ScalingConfig(scale_coefficient=1e-9)
    vals = np.array([1.0, -2.0, -30.0])
    assert estimate_rank(vals, k=10, cfg=cfg).r_hat == 1


def test_estimate_rank_monotone_in_threshold_and_scale():
    rng = np.random.default_rng(1)
    vals = np.sort(rng.uniform(0.0, 10.0, size=12))[::-1]
    base = None
    for c_tilde in (0.25, 0.5, 1.0, 2.0, 4.0):
        cfg = ScalingConfig(c_tilde=c_tilde, scale_coefficient=1.0)
        r = estimate_rank(vals, k=1000, cfg=cfg).r_hat
        assert base is None or r <= base
        base = r
    base = None
    for scale in (0.1, 1.0, 10.0, 100.0):
        cfg = ScalingConfig(scale_coefficient=scale)
        r = estimate_rank(vals, k=1000, cfg=cfg).r_hat
        assert base is None or r <= base
        base = r


# -------------------------------------------------------------- calibration

def test_calibrate_scale_separated_spectrum():
    vals = np.array([5.0, 3.0, 0.001, 1e-5])
    cfg = ScalingConfig()
    chosen, trace = calibrate_scale(vals, k=10000, cfg=cfg)
    assert not trace.no_plateau
    assert trace.plateau_rank == 2
    lo, hi = trace.plateau_bounds
    assert trace.anchor == 1.5005
    assert chosen == pytest.approx(
        trace.anchor * np.sqrt(lo * hi) * 10000.0 ** cfg.eta)
    est = estimate_rank(vals, k=10000, cfg=cfg)
    assert est.r_hat == 2


def test_calibrate_scale_no_separation_falls_back():
    vals = np.ones(4)
    chosen, trace = calibrate_scale(vals, k=10000, cfg=ScalingConfig())
    assert trace.no_plateau
    assert chosen == 1.0


def test_calibrate_scale_all_nonpositive_falls_back():
    chosen, trace = calibrate_scale(np.array([-1.0, -2.0]), k=100,
                                    cfg=ScalingConfig())
    assert trace.no_plateau and chosen == 1.0


def test_calibrate_scale_overflowing_anchor_raises():
    # The median of two eigenvalues near 1e308 overflows; that is one error,
    # not a RuntimeWarning and an infinite anchor in the trace.
    with pytest.raises(InvalidParameterError, match="median positive eigenvalue"):
        calibrate_scale(np.array([1e308, 1e308]), 1000, ScalingConfig())
    chosen, trace = calibrate_scale(np.array([1e308, 0.5e308, 1.0]), 1000,
                                    ScalingConfig())
    assert trace.anchor == 0.5e308


def _loop_calibrate_scale(vals, k, cfg):
    """Reference: the plateau scan as one rank count per grid value and a
    run-by-run search, the form the array scan replaced."""
    grid = np.geomspace(1e-3, 1e3, 40)
    positive = sorted(v for v in vals if v > 0.0)
    n_positive = len(positive)
    anchor = float(np.median(positive)) if positive else 0.0
    counts = np.array(
        [int(np.sum(vals > cfg.c_tilde * g * anchor)) for g in grid], dtype=int
    )
    last = counts.shape[0] - 1
    best = None  # (length, start, stop_inclusive, rank)
    i = 0
    while i < counts.shape[0]:
        j = i
        while j + 1 < counts.shape[0] and counts[j + 1] == counts[i]:
            j += 1
        r = int(counts[i])
        if 1 <= r < vals.shape[0] and j != last and not (
                i == 0 and r >= n_positive):
            if best is None or j - i + 1 >= best[0]:
                best = (j - i + 1, i, j, r)
        i = j + 1
    if best is None:
        return 1.0, CalibrationTrace(
            grid=grid, rank_counts=counts, anchor=anchor, chosen=1.0,
            plateau_rank=None, plateau_bounds=None, no_plateau=True,
        )
    _, lo, hi, rank = best
    chosen = float(anchor * np.sqrt(grid[lo] * grid[hi]) * float(k) ** cfg.eta)
    return chosen, CalibrationTrace(
        grid=grid, rank_counts=counts, anchor=anchor, chosen=chosen,
        plateau_rank=rank, plateau_bounds=(float(grid[lo]), float(grid[hi])),
        no_plateau=False,
    )


# Ties, zeros, negatives and magnitudes from 1e-9 to 1e9.
_SPECTRUM_VALUE = st.one_of(
    st.just(0.0), st.sampled_from([-1.0, 0.5, 1.0, 2.0]),
    st.floats(1e-9, 1e9), st.floats(-1e9, -1e-9),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_calibrate_scale_trace_matches_direct_scan(data):
    n = data.draw(st.integers(1, 15))
    vals = np.sort(data.draw(st.lists(
        _SPECTRUM_VALUE, min_size=n, max_size=n)))[::-1]
    k = data.draw(st.integers(1, 10**7))
    cfg = ScalingConfig(
        c_tilde=data.draw(st.floats(0.1, 10.0)),
        eta=data.draw(st.sampled_from([1.0 / 3.0, 0.5, 1.0])),
    )
    chosen, trace = calibrate_scale(vals, k, cfg)
    ref_chosen, ref_trace = _loop_calibrate_scale(vals, k, cfg)
    assert chosen.hex() == ref_chosen.hex()
    assert _json_value(trace) == _json_value(ref_trace)


@pytest.mark.parametrize("vals, k", [([0.0, 5e-324], 1)])
def test_estimate_rank_auto_near_underflow_falls_back(vals, k):
    # The lowest thresholds underflow to zero and count the one positive
    # eigenvalue; the higher ones count nothing, so no plateau is eligible.
    est = estimate_rank(np.array(vals), k)
    assert est.calibration.no_plateau and est.scale_coefficient == 1.0
    assert np.all(np.isfinite(est.scaled_eigenvalues))


@pytest.mark.parametrize("vals, k, r_hat", [([1e300, 1e-150, 1e-160], 10, 1)])
def test_estimate_rank_auto_near_overflow_falls_back(vals, k, r_hat):
    # The plateau midpoint would scale the top eigenvalue to inf, so it
    # takes the fallback, without a RuntimeWarning (pyproject.toml makes
    # one an error).
    est = estimate_rank(np.array(vals), k)
    assert est.calibration.no_plateau and est.scale_coefficient == 1.0
    assert np.all(np.isfinite(est.scaled_eigenvalues))
    assert est.r_hat == r_hat


@pytest.mark.parametrize("coeff", [1e-300, 5e-324])
def test_estimate_rank_numeric_scale_overflow_raises(coeff):
    # A numeric coefficient has no fallback: scaled eigenvalues past the
    # float range (or 0 / 0 once tau underflows) are an error, raised
    # without a RuntimeWarning.
    cfg = ScalingConfig(scale_coefficient=coeff)
    with pytest.raises(InvalidParameterError, match="scale coefficient"):
        estimate_rank(np.array([1e29, 0.0]), k=10 ** 6, cfg=cfg)


@pytest.mark.parametrize("vals, k, rescaled", [
    ([1e-300, 1e-310], 1000, [1.0, 1e-10]),
    ([1e306, 1e306, 1.0], 10**6, [1.0, 1.0, 1e-306]),
])
def test_estimate_rank_auto_near_float_limits_matches_rescaled(vals, k,
                                                              rescaled):
    # Spectra near the ends of the float range get the rank of the same
    # spectrum in ordinary units: the scan is in units of the median.
    est = estimate_rank(np.array(vals), k)
    ref = estimate_rank(np.array(rescaled), k)
    assert not est.calibration.no_plateau
    assert est.r_hat == ref.r_hat == len(vals) - 1
    assert np.all(np.isfinite(est.scaled_eigenvalues))


def test_default_grid_shape_and_anchor():
    assert GRID.shape == (40,)
    assert GRID[0] == pytest.approx(1e-3) and GRID[-1] == pytest.approx(1e3)
    np.testing.assert_allclose(np.diff(np.log(GRID)), np.log(1e6) / 39)
    vals = np.array([8.0, 2.0, 0.5, -0.1])
    _, trace = calibrate_scale(vals, k=1000, cfg=ScalingConfig())
    assert trace.anchor == 2.0
    np.testing.assert_array_equal(trace.grid, GRID)
    _, trace = calibrate_scale(np.array([-1.0, 0.0]), k=1000,
                               cfg=ScalingConfig())
    assert trace.anchor == 0.0


def test_estimate_rank_auto_fallback_overflow_raises():
    # No plateau is eligible, and even the fallback coefficient 1 scales
    # every eigenvalue past the float range (tau = 0.1): that is an error,
    # as for a numeric coefficient, raised without a RuntimeWarning.
    vals = np.full(3, 1e308)
    trace = calibrate_scale(vals, 1000, ScalingConfig())[1]
    assert trace.no_plateau and trace.chosen == 1.0
    with pytest.raises(InvalidParameterError, match="scale coefficient 1 "):
        estimate_rank(vals, k=1000)


def test_scaling_config_validation():
    with pytest.raises(InvalidParameterError):
        ScalingConfig(c_tilde=0.0)
    with pytest.raises(InvalidParameterError):
        ScalingConfig(eta=0.0)
    with pytest.raises(InvalidParameterError):
        ScalingConfig(eta=1.5)
    with pytest.raises(InvalidParameterError):
        ScalingConfig(scale_coefficient="median")
    with pytest.raises(InvalidParameterError):
        ScalingConfig(scale_coefficient=-1.0)
    # An infinite threshold or coefficient would reach rank.json as Infinity.
    for bad in ({"c_tilde": np.inf}, {"scale_coefficient": np.inf}):
        with pytest.raises(InvalidParameterError, match="finite and positive"):
            ScalingConfig(**bad)


SCALING_ERRORS = {"c_tilde": "c_tilde must be finite and positive",
                  "eta": "eta must be in (0, 1]",
                  "scale_coefficient":
                      "scale_coefficient must be finite and positive, or 'auto'"}


@pytest.mark.parametrize("value", [True, np.True_, "abc", None, 1j, [0.5], 10 ** 400],
                         ids=["bool", "numpy-bool", "text", "none", "complex", "list",
                              "integer-past-float-range"])
@pytest.mark.parametrize("name", sorted(SCALING_ERRORS))
def test_scaling_config_rejects_values_that_are_not_real(name, value):
    # A bool passed the range checks as 1, and text, None or a complex value
    # raised a TypeError from the comparison, which is no LatentSpecError.
    # An integer past the float range passed, and estimate_rank then raised
    # an OverflowError.
    with pytest.raises(InvalidParameterError) as info:
        ScalingConfig(**{name: value})
    assert str(info.value) == f"{SCALING_ERRORS[name]}, got {value!r}"


def test_scaling_config_stores_python_floats():
    cfg = ScalingConfig(c_tilde=2, eta=np.float32(0.5), scale_coefficient=np.int64(3))
    assert (cfg.c_tilde, cfg.eta, cfg.scale_coefficient) == (2.0, 0.5, 3.0)
    assert {type(v) for v in (cfg.c_tilde, cfg.eta, cfg.scale_coefficient)} == {float}
    assert ScalingConfig(c_tilde=2) == ScalingConfig(c_tilde=2.0)


@pytest.mark.parametrize("k", [1000.0, 1000.5, True, "1000", None])
def test_rank_calibration_k_must_be_an_integer(k):
    # A float k was used as it is, and True as 1.
    vals = np.array([5.0, 1.0, 0.1])
    for call in (estimate_rank, calibrate_scale):
        with pytest.raises(InvalidParameterError,
                           match=re.escape(f"k must be an integer, got {k!r}")):
            call(vals, k, ScalingConfig())
    est = estimate_rank(vals, np.int64(1000))
    assert est.r_hat == estimate_rank(vals, 1000).r_hat
    assert est.k == 1000 and type(est.k) is int


# ----------------------------------------------------------- full estimator

def test_estimate_fixed_rank_diagonal_case():
    # Y chosen so the adjusted gram is diag(4, 0, 0).
    y = np.zeros((4, 3))
    y[:, 0] = 2.0
    est = estimate_latent_space(y, np.zeros(3), rank=1)
    np.testing.assert_allclose(est.m_hat, [[1.0, 0.0, 0.0]], atol=1e-12)
    assert est.eigen.eigenvalues[0] == pytest.approx(4.0)


def test_estimate_rank_one_noiseless():
    rng = np.random.default_rng(3)
    phi = rng.normal(size=(500, 1))
    m = rng.uniform(1.0, 2.0, size=(1, 6))
    y = phi @ m
    est = estimate_latent_space(y, np.zeros(6), rank=1)
    unit = (m / np.linalg.norm(m)).reshape(-1)
    gap = min(
        np.linalg.norm(est.m_hat.reshape(-1) - unit),
        np.linalg.norm(est.m_hat.reshape(-1) + unit),
    )
    assert gap <= 1e-8


def test_estimate_auto_empty_subspace():
    est = estimate_latent_space(np.zeros((4, 3)), np.zeros(3), rank="auto")
    assert est.is_empty
    assert est.m_hat.shape == (0, 3)
    assert est.rank is not None and est.rank.r_hat == 0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_estimate_auto_all_nonpositive_spectrum_is_empty(data):
    # A correction at or above the largest eigenvalue of Y'Y/k leaves no
    # positive eigenvalue, whatever the scale coefficient.
    k = data.draw(st.integers(1, 30))
    n = data.draw(st.integers(2, 8))
    y = np.array(data.draw(st.lists(
        st.floats(-1e3, 1e3), min_size=k * n, max_size=k * n))).reshape(k, n)
    top = float(np.linalg.eigvalsh(data_moments(y, sums=False).scaled_gram())[-1])
    extra = np.array(data.draw(st.lists(
        st.floats(0.0, 1e3), min_size=n, max_size=n)))
    d = 2.0 * top + extra
    cfg = ScalingConfig(scale_coefficient=data.draw(
        st.sampled_from(["auto", 1e-9, 1.0, 1e9])))
    est = estimate_latent_space(y, d, rank="auto", cfg=cfg)
    assert np.all(est.eigen.eigenvalues <= 0)
    assert est.is_empty and est.m_hat.shape == (0, n)
    assert est.rank.r_hat == 0


_EIGENVALUE = st.one_of(st.just(0.0), st.floats(1e-6, 1e4), st.floats(-1e2, -1e-6))
_UNIT_FREE = ("grid", "rank_counts", "plateau_rank", "plateau_bounds",
              "no_plateau")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_estimate_rank_auto_invariant_to_power_of_two_scaling(data):
    n = data.draw(st.integers(2, 12))
    vals = np.sort(data.draw(st.lists(
        _EIGENVALUE, min_size=n, max_size=n)))[::-1]
    k = data.draw(st.integers(1, 10**6))
    base = estimate_rank(vals, k)
    assume(not base.calibration.no_plateau)
    j = data.draw(st.integers(-1000, 1000))
    # Scaling by 2^j is exact while every threshold and coefficient formed
    # from a nonzero value (1e-3 to 1e5 times it) stays a normal float.
    nonzero = np.abs(vals[vals != 0.0]) * 2.0 ** j
    assume(np.all((nonzero >= np.finfo(float).tiny * 1e3)
                  & (nonzero <= np.finfo(float).max * 1e-5)))
    scaled = estimate_rank(vals * 2.0 ** j, k)
    assert scaled.r_hat == base.r_hat
    got, want = _json_value(scaled.calibration), _json_value(base.calibration)
    assert {f: got[f] for f in _UNIT_FREE} == {f: want[f] for f in _UNIT_FREE}
    assert scaled.calibration.anchor == base.calibration.anchor * 2.0 ** j
    assert scaled.scale_coefficient == base.scale_coefficient * 2.0 ** j


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_calibrate_scale_scan_reads_neither_k_nor_eta(data):
    n = data.draw(st.integers(1, 12))
    vals = np.sort(data.draw(st.lists(
        _SPECTRUM_VALUE, min_size=n, max_size=n)))[::-1]
    c_tilde = data.draw(st.floats(0.1, 10.0))
    traces = [
        calibrate_scale(vals, k, ScalingConfig(c_tilde=c_tilde, eta=eta))[1]
        for k in (1, 10**7) for eta in (1.0 / 3.0, 1.0)
    ]
    scans = [{f: _json_value(t)[f] for f in _UNIT_FREE} for t in traces]
    assert all(scan == scans[0] for scan in scans)


def test_estimate_fixed_rank_validation():
    y = np.zeros((4, 3))
    with pytest.raises(InvalidParameterError):
        estimate_latent_space(y, np.zeros(3), rank=0)
    with pytest.raises(InvalidParameterError):
        estimate_latent_space(y, np.zeros(3), rank=4)
    with pytest.raises(InvalidParameterError):
        estimate_latent_space(y, np.zeros(3), rank="all")


@pytest.mark.parametrize("rank", [2.7, 2.0, True, None])
def test_fixed_rank_must_be_an_integer(rank):
    # int() truncated 2.7 to 2 and took True as 1.
    y = np.diag([3.0, 2.0, 1.0])
    with pytest.raises(InvalidParameterError,
                       match=re.escape(f"fixed rank must be an integer, got {rank!r}")):
        estimate_latent_space(y, np.zeros(3), rank=rank)
    est = estimate_latent_space(y, np.zeros(3), rank=np.int64(2))
    assert est.r_hat == 2 and type(est.r_hat) is int


def test_estimate_deterministic():
    cfg = ScenarioConfig(scenario="poisson", n=8, k=500, r=2, reps=1, seed=9)
    draw = generate_scenario(cfg, 0)
    deltas = np.zeros(8)
    a = estimate_latent_space(draw.y, deltas, rank="auto")
    b = estimate_latent_space(draw.y, deltas, rank="auto")
    assert np.array_equal(a.m_hat, b.m_hat)
    assert a.r_hat == b.r_hat


def test_adjusted_gram_converges_to_coefficient_form():
    # With the true correction, the adjusted gram tightens around the
    # coefficient gram form as rows accumulate.
    meds = []
    for k in (1000, 10000):
        gaps = []
        for rep in range(10):
            cfg = ScenarioConfig(scenario="poisson", n=10, k=k, r=3,
                                 reps=10, seed=41)
            draw = generate_scenario(cfg, rep)
            g = adjusted_gram(draw.y, draw.true_deltas)
            h = draw.m.T @ draw.w_exact @ draw.m
            gaps.append(frobenius_norm(g - h))
        meds.append(float(np.median(gaps)))
    assert meds[1] < meds[0]


def test_eigenvalues_converge_to_coefficient_form():
    from latentspec.matrix_core import sym_eigen

    meds = []
    for k in (1000, 10000):
        gaps = []
        for rep in range(10):
            cfg = ScenarioConfig(scenario="gamma", n=10, k=k, r=3,
                                 reps=10, seed=43)
            draw = generate_scenario(cfg, rep)
            g = adjusted_gram(draw.y, draw.true_deltas)
            h = draw.m.T @ draw.w_exact @ draw.m
            beta = sym_eigen(g).eigenvalues
            alpha = sym_eigen((h + h.T) / 2.0).eigenvalues
            gaps.append(float(np.max(np.abs(beta - alpha))))
        meds.append(float(np.median(gaps)))
    assert meds[1] < meds[0]


def test_fixed_rank_span_invariance():
    # Orthogonal remixing of the estimated rows leaves the distance intact.
    rng = np.random.default_rng(4)
    cfg = ScenarioConfig(scenario="normal", n=10, k=2000, r=3, reps=1, seed=5)
    draw = generate_scenario(cfg, 0)
    est = estimate_latent_space(draw.y, np.ones(10), rank=3)
    q, rmat = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(rmat))
    d1 = subspace_distance(draw.m, est.m_hat)
    d2 = subspace_distance(draw.m, q @ est.m_hat)
    assert abs(d1 - d2) <= 1e-10

"""Scenario generators and the replication harness."""

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

import latentspec.matrix_core as matrix_core
import latentspec.nef_qvf as nef_qvf
import latentspec.simulation as sim
from family_helpers import assert_moments_equal
from latentspec.errors import InvalidParameterError, OutOfSupportError
from latentspec.latent_space import ScalingConfig
from latentspec.matrix_core import _BLOCK_ENTRIES, data_moments
from latentspec.simulation import (
    ScenarioConfig,
    _binomial_basis,
    _replication_moments,
    generate_scenario,
    rep_rng,
    run_replications,
    scenario_family,
)
from latentspec.subspace_metrics import subspace_distance
from latentspec.latent_space import estimate_latent_space
from latentspec.nef_qvf import binomial, qvf_coefficients, variance_from_mean
from latentspec.variance_estimation import estimate_dk_qvf, needs_column_sums


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(scenario="weibull", n=10, k=100, r=2)
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(scenario="normal", n=10, k=100, r=10)
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(scenario="normal", n=10, k=100, r=2, reps=0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_key_half_is_rejected(seed):
    # Masking to 64 bits would alias -1 with 2**64 - 1 and 2**64 with 0.
    with pytest.raises(InvalidParameterError, match="seed"):
        ScenarioConfig(scenario="normal", n=10, k=100, r=2, seed=seed)
    with pytest.raises(InvalidParameterError, match="seed"):
        rep_rng(seed, 0)
    with pytest.raises(InvalidParameterError, match="rep_index"):
        rep_rng(0, seed)


def test_seed_key_half_ends_are_accepted():
    for seed in (0, 2 ** 64 - 1):
        ScenarioConfig(scenario="normal", n=10, k=100, r=2, seed=seed)
        rep_rng(seed, 2 ** 64 - 1).random()


def test_scenario_families():
    assert scenario_family("normal").kind == "normal"
    assert scenario_family("binomial").s == 20
    assert scenario_family("negbin").s == 10
    assert scenario_family("gamma").s == 10


# --------------------------------------------------------------- generators

def test_binomial_basis_structure():
    cfg = ScenarioConfig(scenario="binomial", n=15, k=50, r=3, reps=1, seed=0)
    draw = generate_scenario(cfg, 0)
    m = draw.m
    np.testing.assert_array_equal(m[:, :3], np.eye(3))
    np.testing.assert_array_equal(m[:, 3:], np.full((3, 12), 1.0 / 3.0))


def test_binomial_probabilities_strictly_inside():
    cfg = ScenarioConfig(scenario="binomial", n=15, k=300, r=5, reps=1, seed=1)
    draw = generate_scenario(cfg, 0)
    assert np.all(draw.theta > 0.05 - 1e-12)
    assert np.all(draw.theta < 0.95 + 1e-12)
    assert np.all(draw.y.values >= 0) and np.all(draw.y.values <= 20)


def test_normal_true_deltas_are_ones():
    cfg = ScenarioConfig(scenario="normal", n=8, k=100, r=2, reps=1, seed=2)
    draw = generate_scenario(cfg, 0)
    np.testing.assert_array_equal(draw.true_deltas, np.ones(8))


def test_poisson_coefficients_mean():
    # Noncentral chi-square(9, 1) has mean 10; check the matrix of draws.
    cfg = ScenarioConfig(scenario="poisson", n=15, k=10000, r=5, reps=1, seed=3)
    draw = generate_scenario(cfg, 0)
    se = math.sqrt(2 * (9 + 2 * 1) / (10000 * 5))
    assert abs(float(draw.phi.mean()) - 10.0) <= 3 * se


def test_theta_is_exact_product():
    cfg = ScenarioConfig(scenario="gamma", n=6, k=50, r=2, reps=1, seed=4)
    draw = generate_scenario(cfg, 0)
    assert np.array_equal(draw.theta, draw.phi @ draw.m)


def test_binomial_mean_conversion():
    # Probability 0.5 with 20 trials: variance 20 * 0.25 = 5.
    assert variance_from_mean(binomial(20), 20 * 0.5) == pytest.approx(5.0)


def test_w_exact_definition():
    cfg = ScenarioConfig(scenario="normal", n=6, k=40, r=3, reps=1, seed=6)
    draw = generate_scenario(cfg, 0)
    np.testing.assert_allclose(
        draw.w_exact, draw.phi.T @ draw.phi / 40.0, rtol=1e-14
    )


# ------------------------------------------------------- block-draw oracle

def _reference_generate_scenario(cfg, rep_index):
    """The whole-matrix draw that generate_scenario makes in row blocks."""
    rng = rep_rng(cfg.seed, rep_index)
    k, n, r = cfg.k, cfg.n, cfg.r
    scenario = cfg.scenario
    family = scenario_family(scenario)

    if scenario == "normal":
        phi = rng.normal(0.0, 1.0, size=(k, r))
        m = rng.uniform(1.0, 10.0, size=(r, n))
    elif scenario == "poisson":
        phi = rng.noncentral_chisquare(9.0, 1.0, size=(k, r))
        m = rng.uniform(1.0, 5.0, size=(r, n))
    elif scenario == "binomial":
        phi = rng.uniform(0.05, 0.95, size=(k, r))
        m = _binomial_basis(r, n)
    else:  # negbin, gamma
        phi = rng.uniform(0.5, 2.0, size=(k, r))
        m = rng.uniform(0.3, 1.5, size=(r, n))

    theta = phi @ m
    w_exact = (phi.T @ phi) / float(k)
    # The column average of b0 + b1*mu + b2*mu^2 at mu = c * theta: the
    # average of theta is phibar @ m, that of theta^2 is diag(m^T w m).
    b = qvf_coefficients(family)
    c = family.s if scenario == "binomial" else 1.0
    avg_theta = phi.mean(axis=0) @ m
    avg_theta2 = (m * (w_exact @ m)).sum(axis=0)
    true_deltas = b.b0 + b.b1 * c * avg_theta + b.b2 * c * c * avg_theta2

    if scenario == "binomial":
        y = rng.binomial(int(family.s), theta).astype(float)
    elif scenario == "normal":
        y = theta + rng.normal(0.0, 1.0, size=theta.shape)
    elif scenario == "poisson":
        y = rng.poisson(theta).astype(float)
    elif scenario == "negbin":
        s = family.s
        y = rng.negative_binomial(s, s / (s + theta)).astype(float)
    else:  # gamma
        s = family.s
        y = rng.gamma(s, theta / s)

    return phi, m, theta, y, true_deltas, w_exact


def _block_shapes():
    # k = 1, below one block, one block, one block and a one-row tail,
    # several blocks and a ragged tail.
    for n in (2, 15, 100):
        step = _BLOCK_ENTRIES // n
        for k in (1, step // 3, step, step + 1, 3 * step + 7):
            yield n, k


@pytest.mark.parametrize("scenario", ["normal", "poisson", "binomial", "negbin", "gamma"])
@pytest.mark.parametrize("n, k", list(_block_shapes()))
def test_block_draw_matches_whole_matrix_draw(scenario, n, k):
    cfg = ScenarioConfig(scenario=scenario, n=n, k=k, r=min(3, n - 1), seed=41)
    draw = generate_scenario(cfg, 2)
    got = (draw.phi, draw.m, draw.theta, draw.y.values, draw.true_deltas,
           draw.w_exact)
    for name, a, b in zip(("phi", "m", "theta", "y", "true_deltas", "w_exact"),
                          got, _reference_generate_scenario(cfg, 2)):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("scenario", ["normal", "poisson", "binomial", "negbin", "gamma"])
@pytest.mark.parametrize("n, k", list(_block_shapes()))
def test_true_deltas_are_column_average_of_exact_variances(scenario, n, k):
    cfg = ScenarioConfig(scenario=scenario, n=n, k=k, r=min(3, n - 1), seed=41)
    draw = generate_scenario(cfg, 2)
    means = draw.family.s * draw.theta if scenario == "binomial" else draw.theta
    np.testing.assert_allclose(
        draw.true_deltas, variance_from_mean(draw.family, means).mean(axis=0),
        rtol=1e-13, atol=0)


def _no_variance_pass(*args):
    raise AssertionError("a replication computed per-entry variances")


@pytest.mark.parametrize("scenario", ["normal", "poisson", "binomial", "negbin", "gamma"])
def test_replication_makes_no_variance_pass(monkeypatch, scenario):
    cfg = ScenarioConfig(scenario=scenario, n=15, k=5000, r=3, seed=5)
    monkeypatch.setattr(nef_qvf, "variance_from_mean", _no_variance_pass)
    monkeypatch.setattr(sim, "variance_from_mean", _no_variance_pass,
                        raising=False)
    _replication_moments(cfg, 0)
    generate_scenario(cfg, 0)


@pytest.mark.parametrize("scenario, value", [
    ("poisson", -1.0), ("binomial", -1.0), ("binomial", 2.0),
    ("negbin", -1.0), ("gamma", 0.0)])
def test_block_outside_mean_region_raises(monkeypatch, scenario, value):
    # The last row lands in the last of several blocks.
    init = sim._Walk.__init__

    def init_bad_last_row(self, cfg, rep_index):
        init(self, cfg, rep_index)
        self.phi[-1] = value

    n = 15
    cfg = ScenarioConfig(scenario=scenario, n=n, k=3 * (_BLOCK_ENTRIES // n) + 7,
                         r=3, seed=5)
    monkeypatch.setattr(sim._Walk, "__init__", init_bad_last_row)
    with pytest.raises(OutOfSupportError):
        generate_scenario(cfg, 0)
    with pytest.raises(OutOfSupportError):
        _replication_moments(cfg, 0)


@pytest.mark.parametrize("scenario, n, k", [("binomial", 100, 10_000),
                                             ("poisson", 20, 100_000)])
def test_generate_scenario_holds_two_matrices(scenario, n, k):
    # theta and y are the only k x n arrays; block temporaries stay small.
    cfg = ScenarioConfig(scenario=scenario, n=n, k=k, r=3, seed=1)
    tracemalloc.start()
    try:
        generate_scenario(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * k * n


@pytest.mark.parametrize("scenario, bound", [("normal", 1.5), ("gamma", 2.2)])
def test_whole_replication_holds_no_theta(scenario, bound):
    # y is the only k x n array besides gamma's column sort; phi and a few
    # row blocks of 2^16 entries add about 0.3 of one.  Measured at 1.29
    # (normal) and 2.09 (gamma) of one k x n array.  The first call in a
    # process adds about 0.1 of one-time allocations, so it is made first.
    n, k = 100, 10_000
    cfg = ScenarioConfig(scenario=scenario, n=n, k=k, r=3, seed=1)
    _replication_moments(cfg, 0)
    tracemalloc.start()
    try:
        _replication_moments(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * k * n


# ------------------------------------------------- streamed count reduction

COUNT_SCENARIOS = ["poisson", "binomial", "negbin"]


def _no_whole_draw(cfg, rep_index):
    raise AssertionError("the streamed reduction fell back to the whole matrix")


@pytest.mark.parametrize("scenario", COUNT_SCENARIOS)
@pytest.mark.parametrize("n, k", list(_block_shapes()))
def test_streamed_moments_match_whole_draw(monkeypatch, scenario, n, k):
    cfg = ScenarioConfig(scenario=scenario, n=n, k=k, r=min(3, n - 1), seed=41)
    with monkeypatch.context() as patch:
        # Past the exact-sum bound the walked y is reduced by data_moments.
        patch.setattr(sim, "data_moments", _no_whole_draw)
        family, m, moments, true_deltas = _replication_moments(cfg, 2)
    draw = generate_scenario(cfg, 2)
    assert family == draw.family
    assert np.array_equal(m, draw.m)
    assert_moments_equal(moments, data_moments(draw.y))
    assert np.array_equal(true_deltas, draw.true_deltas)


@pytest.mark.parametrize("scenario", ["normal", "gamma"])
@pytest.mark.parametrize("n, k", list(_block_shapes()))
def test_walked_moments_match_whole_draw(monkeypatch, scenario, n, k):
    cfg = ScenarioConfig(scenario=scenario, n=n, k=k, r=min(3, n - 1), seed=41)
    with monkeypatch.context() as patch:
        # The walk writes y alone, with no theta.
        patch.setattr(sim, "generate_scenario", _no_whole_draw)
        family, m, moments, true_deltas = _replication_moments(cfg, 2)
    draw = generate_scenario(cfg, 2)
    assert family == draw.family
    assert np.array_equal(m, draw.m)
    assert_moments_equal(moments, data_moments(draw.y, needs_column_sums(family)))
    assert np.array_equal(true_deltas, draw.true_deltas)


@pytest.mark.parametrize("scenario, n, k", [("binomial", 100, 10_000),
                                             ("poisson", 20, 100_000)])
def test_streamed_replication_holds_no_matrix(scenario, n, k):
    # phi (k x r) and a few row blocks: measured at 0.40 (binomial, the
    # first call in a process) and 0.28 (poisson) of one k x n array,
    # where the whole draw holds two.
    cfg = ScenarioConfig(scenario=scenario, n=n, k=k, r=3, seed=1)
    tracemalloc.start()
    try:
        _replication_moments(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * 8 * k * n


def test_streamed_binomial_replication_peak():
    # No block of exact variances: phi, one block's theta and draw.
    # Measured at 0.30 of one k x n array (0.37 with the variance pass)
    # after a first call, which adds one-time allocations.
    n, k = 100, 10_000
    cfg = ScenarioConfig(scenario="binomial", n=n, k=k, r=3, seed=1)
    _replication_moments(cfg, 0)
    tracemalloc.start()
    try:
        _replication_moments(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.33 * 8 * k * n


def test_streamed_moments_fall_back_past_exact_sum_bound(monkeypatch):
    cfg = ScenarioConfig(scenario="poisson", n=8, k=3000, r=2, seed=17)
    draw = generate_scenario(cfg, 1)
    # Below k * max(y)^2, so the running block totals break the bound.
    bound = cfg.k * int(draw.y.values.max()) ** 2 // 2
    whole = []

    def spy(y, sums=True):
        whole.append(y.shape)
        return data_moments(y, sums)

    monkeypatch.setattr(matrix_core, "EXACT_SUM_BOUND", bound)
    monkeypatch.setattr(sim, "data_moments", spy)
    _, m, moments, true_deltas = _replication_moments(cfg, 1)
    assert whole == [(cfg.k, cfg.n)]
    assert np.array_equal(m, draw.m)
    assert_moments_equal(moments, data_moments(draw.y))
    assert np.array_equal(true_deltas, draw.true_deltas)


# ----------------------------------------------------------- reproducibility

def test_draws_bit_reproducible():
    cfg = ScenarioConfig(scenario="negbin", n=7, k=123, r=2, reps=3, seed=99)
    a = generate_scenario(cfg, 1)
    b = generate_scenario(cfg, 1)
    assert np.array_equal(a.y.values, b.y.values)
    assert np.array_equal(a.phi, b.phi)


def test_distinct_reps_differ():
    cfg = ScenarioConfig(scenario="negbin", n=7, k=123, r=2, reps=3, seed=99)
    a = generate_scenario(cfg, 0)
    b = generate_scenario(cfg, 1)
    assert not np.array_equal(a.y.values, b.y.values)


def test_rep_rng_streams_independent():
    a = rep_rng(5, 0).normal(size=1000)
    b = rep_rng(5, 1).normal(size=1000)
    assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.1


# ----------------------------------------------------------------- oracles

def test_noiseless_recovery_every_scenario():
    # With y replaced by its mean and no correction, the fixed-rank estimate
    # recovers the row space almost exactly.
    for scenario in ("normal", "poisson", "binomial", "negbin", "gamma"):
        cfg = ScenarioConfig(scenario=scenario, n=12, k=2000, r=4, reps=1, seed=10)
        draw = generate_scenario(cfg, 0)
        est = estimate_latent_space(draw.theta, np.zeros(12), rank=4)
        assert subspace_distance(draw.m, est.m_hat) <= 1e-6


def test_column_average_transform_tightens():
    cfg_small = ScenarioConfig(scenario="gamma", n=10, k=1000, r=3, reps=1, seed=11)
    cfg_big = ScenarioConfig(scenario="gamma", n=10, k=40000, r=3, reps=1, seed=11)
    gaps = []
    for cfg in (cfg_small, cfg_big):
        draw = generate_scenario(cfg, 0)
        est = estimate_dk_qvf(draw.y, draw.family)
        gaps.append(np.median(np.abs(est.deltas - draw.true_deltas)))
    assert gaps[1] <= 1.5 * gaps[0] / 2.0


# ------------------------------------------------------------------ harness

def test_run_replications_counts_and_medians():
    cfg = ScenarioConfig(scenario="poisson", n=8, k=400, r=2, reps=6, seed=12)
    stats = run_replications(cfg)
    assert stats.completed == 6
    assert stats.r_correct + stats.r_under + stats.r_over == 6
    assert np.isfinite(stats.d_median_fixed)
    assert np.isfinite(stats.rho_median)


def test_run_replications_thread_invariant(started):
    cfg = ScenarioConfig(scenario="gamma", n=8, k=400, r=2, reps=8, seed=13)
    a = run_replications(cfg, threads=1)
    assert [rec.rep_index for rec in a.records] == list(range(cfg.reps))
    assert started == []
    for threads in (2, 3, 9):
        assert run_replications(cfg, threads=threads).records == a.records
        assert len(started) == min(threads, cfg.reps) - 1
        started.clear()


def test_run_replications_stop_soon_after_an_interrupt(monkeypatch, started):
    # Ctrl-C lands on the calling thread; the other worker finishes the
    # replication it is running and takes no more.
    caller = threading.get_ident()
    ran = []

    def run_one(cfg, rep_index):
        if threading.get_ident() == caller:
            time.sleep(0.01)
            raise KeyboardInterrupt
        time.sleep(0.05)
        ran.append(rep_index)
        return sim.RepRecord(rep_index=rep_index)

    monkeypatch.setattr(sim, "_run_one", run_one)
    cfg = ScenarioConfig(scenario="normal", n=8, k=400, r=2, reps=50, seed=15)
    with pytest.raises(KeyboardInterrupt):
        run_replications(cfg, threads=2)
    assert len(started) == 1 and not started[0].is_alive()
    # A fixed half of the reps per worker would run 25 here.
    assert len(ran) < 10


def test_run_one_reuses_the_fixed_distance_at_the_true_rank(monkeypatch):
    calls = []

    def spy(m, m_hat):
        calls.append(m_hat.shape[0])
        return subspace_distance(m, m_hat)

    monkeypatch.setattr(sim, "subspace_distance", spy)
    cfg = ScenarioConfig(scenario="normal", n=8, k=400, r=2, reps=3, seed=14)
    for rep in range(cfg.reps):
        calls.clear()
        rec = sim._run_one(cfg, rep)
        assert rec.r_hat == cfg.r and rec.d_auto == rec.d_fixed
        assert calls == [cfg.r]


def test_run_replications_normal_correction_is_exact():
    cfg = ScenarioConfig(scenario="normal", n=8, k=400, r=2, reps=3, seed=14)
    stats = run_replications(cfg)
    assert stats.rho_median == 0.0


def test_run_replications_records_failures_without_aborting(monkeypatch):
    import latentspec.simulation as sim

    real = sim._replication_moments

    def flaky(cfg, rep_index):
        if rep_index == 1:
            raise ValueError("boom")
        return real(cfg, rep_index)

    monkeypatch.setattr(sim, "_replication_moments", flaky)
    cfg = ScenarioConfig(scenario="poisson", n=8, k=300, r=2, reps=3, seed=16)
    stats = sim.run_replications(cfg)
    assert stats.completed == 2 and stats.failed == 1
    assert stats.records[1].error is not None
    assert "boom" in stats.records[1].error


def test_run_replications_custom_scaling():
    cfg = ScenarioConfig(
        scenario="poisson", n=8, k=400, r=2, reps=4, seed=15,
        scaling=ScalingConfig(eta=1.0 / 1.1),
    )
    stats = run_replications(cfg)
    assert stats.completed == 4

"""Scenario generators and the replication harness."""

import math
import re
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import latentspec.matrix_core as matrix_core
import latentspec.nef_qvf as nef_qvf
import latentspec.simulation as sim
from family_helpers import assert_moments_equal, variance_from_mean
from latentspec.errors import InvalidParameterError, OutOfSupportError
from latentspec.latent_space import ScalingConfig
from latentspec.matrix_core import _BLOCK_ENTRIES, Moments, data_moments
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
from latentspec.nef_qvf import binomial, qvf_coefficients
from latentspec.variance_estimation import estimate_dk_qvf


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(scenario="weibull", n=10, k=100, r=2)
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(scenario="normal", n=10, k=100, r=10)
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(scenario="normal", n=10, k=100, r=2, reps=0)


@pytest.mark.parametrize("name, value", [
    ("n", 15.0), ("k", 200.0), ("r", 3.0), ("reps", 2.0), ("seed", 1.0),
    ("r", True), ("n", True), ("seed", False), ("k", "200"),
    ("reps", np.float64(2.0)), ("r", np.True_)])
def test_config_sizes_must_be_integers(name, value):
    # A float or bool r passed the range checks and failed every replication
    # with a TypeError; a float n, k or reps raised one from run_replications.
    sizes = {"n": 15, "k": 200, "r": 3, "reps": 2, "seed": 0, name: value}
    with pytest.raises(InvalidParameterError,
                       match=re.escape(f"{name} must be an integer, got {value!r}")):
        ScenarioConfig("poisson", **sizes)


def test_config_takes_numpy_integers_as_ints():
    cfg = ScenarioConfig("poisson", n=np.int64(15), k=np.int32(200), r=np.uint8(3),
                         reps=np.int16(2), seed=np.uint64(2 ** 64 - 1))
    assert cfg == ScenarioConfig("poisson", n=15, k=200, r=3, reps=2, seed=2 ** 64 - 1)
    assert {type(getattr(cfg, name)) for name in ("n", "k", "r", "reps", "seed")} == {int}


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


# Each README spelling of a family or a law in the Scenarios table.
_README_NAMES = {"normal": "Normal", "poisson": "Poisson", "binomial": "Binomial",
                 "negbin": "NegBin", "gamma": "Gamma", "uniform": "Uniform",
                 "noncentral_chisquare": "noncentral chi2"}


def _readme_law(law):
    if law is None:  # the one basis with no law
        return "identity block + 1/r"
    name, *args = law
    return f"{_README_NAMES[name]}({', '.join(f'{a:g}' for a in args)})"


def test_readme_scenarios_table_matches_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Scenarios\n", 1)[1].split("\n## ", 1)[0]
    header, _, *rows = [[cell.strip() for cell in line.strip("|").split("|")]
                        for line in section.splitlines() if line.startswith("|")]
    assert header == ["scenario", "observations", "coefficients", "latent basis"]
    assert [row[0] for row in rows] == list(sim._SCENARIOS)
    for scenario, observations, phi_law, m_law in rows:
        family, *laws = sim._SCENARIOS[scenario]
        assert [phi_law, m_law] == [_readme_law(law) for law in laws], scenario
        s = "theta" if family.s is None else f"{family.s:g},"
        assert observations.startswith(f"{_README_NAMES[family.kind]}({s}")


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
    theta = draw.phi @ draw.m
    assert np.all(theta > 0.05 - 1e-12)
    assert np.all(theta < 0.95 + 1e-12)
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
    got = (draw.phi, draw.m, draw.y.values, draw.true_deltas, draw.w_exact)
    want = list(_reference_generate_scenario(cfg, 2))
    del want[2]  # the reference's theta, which a draw does not keep
    for name, a, b in zip(("phi", "m", "y", "true_deltas", "w_exact"), got, want):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("scenario", ["normal", "poisson", "binomial", "negbin", "gamma"])
def test_uneven_chunks_carry_the_stream_across_sampler_calls(monkeypatch, scenario):
    # Chunks of 61 entries, under one row, divide neither a row (n = 100)
    # nor a 655-row block, so each sampler call must start mid-row where
    # the last one stopped, in this block or the one before.
    n = 100
    cfg = ScenarioConfig(scenario=scenario, n=n, k=2 * (_BLOCK_ENTRIES // n) + 7,
                         r=3, seed=41)
    moments = _replication_moments(cfg, 2)[2]
    monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 61)
    draw = generate_scenario(cfg, 2)
    _, _, _, y, _, _ = _reference_generate_scenario(cfg, 2)
    assert np.array_equal(draw.y.values, y)
    assert_moments_equal(_replication_moments(cfg, 2)[2], moments)


@pytest.mark.parametrize("scenario", ["normal", "poisson", "binomial", "negbin", "gamma"])
@pytest.mark.parametrize("n, k", list(_block_shapes()))
def test_true_deltas_are_column_average_of_exact_variances(scenario, n, k):
    cfg = ScenarioConfig(scenario=scenario, n=n, k=k, r=min(3, n - 1), seed=41)
    draw = generate_scenario(cfg, 2)
    theta = draw.phi @ draw.m
    means = draw.family.s * theta if scenario == "binomial" else theta
    np.testing.assert_allclose(
        draw.true_deltas, variance_from_mean(draw.family, means).mean(axis=0),
        rtol=1e-13, atol=0)


def _no_variance_pass(*args):
    raise AssertionError("a replication computed per-entry variances")


@pytest.mark.parametrize("scenario", ["normal", "poisson", "binomial", "negbin", "gamma"])
def test_replication_makes_no_variance_pass(monkeypatch, scenario):
    cfg = ScenarioConfig(scenario=scenario, n=15, k=5000, r=3, seed=5)
    monkeypatch.setattr(nef_qvf, "variance_from_mean", _no_variance_pass,
                        raising=False)
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
def test_generate_scenario_holds_one_matrix(scenario, n, k):
    # y is the only k x n array; block temporaries stay small.  Measured at
    # 1.16 (binomial) and 1.28 (poisson), where a whole theta beside y took
    # 2.16 and 2.28.
    cfg = ScenarioConfig(scenario=scenario, n=n, k=k, r=3, seed=1)
    tracemalloc.start()
    try:
        generate_scenario(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * k * n


@pytest.mark.parametrize("scenario", ["normal", "poisson", "binomial", "negbin", "gamma"])
def test_replication_holds_no_k_by_n_array(scenario):
    # phi (k x r), the block buffer and one chunk's draw: measured at
    # 0.116-0.125 of one k x n array (negbin highest), where block-sized
    # sampler outputs took 0.17-0.24, a whole y 1.29 (normal) and y with
    # its column sort 2.09 (gamma).  The first call in a process adds
    # one-time allocations, so it is made first.
    n, k = 100, 10_000
    cfg = ScenarioConfig(scenario=scenario, n=n, k=k, r=3, seed=1)
    _replication_moments(cfg, 0)
    tracemalloc.start()
    try:
        _replication_moments(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.14 * 8 * k * n


# ------------------------------------------------- streamed count reduction

COUNT_SCENARIOS = ["poisson", "binomial", "negbin"]


def _no_whole_draw(cfg, rep_index):
    raise AssertionError("the streamed reduction fell back to the whole matrix")


def _blocked_moments(y, integral):
    """The Moments of ``y`` summed over its ``_row_blocks`` in order: the
    gram and column sums block by block, the sums of y*y from the gram's
    diagonal."""
    k, n = y.shape
    gram, colsum = np.zeros((n, n)), np.zeros(n)
    for start, stop in sim._row_blocks(k, n):
        block = y[start:stop]
        gram += block.T @ block
        colsum += np.ones(stop - start) @ block
    return Moments(gram, colsum, np.diag(gram).copy(), k, float(y.min()),
                   float(y.max()), integral)


@pytest.mark.parametrize("scenario", COUNT_SCENARIOS)
@pytest.mark.parametrize("n, k", list(_block_shapes()))
def test_streamed_moments_match_whole_draw(monkeypatch, scenario, n, k):
    cfg = ScenarioConfig(scenario=scenario, n=n, k=k, r=min(3, n - 1), seed=41)
    with monkeypatch.context() as patch:
        patch.setattr(sim, "generate_scenario", _no_whole_draw)
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
        patch.setattr(sim, "generate_scenario", _no_whole_draw)
        family, m, moments, true_deltas = _replication_moments(cfg, 2)
    draw = generate_scenario(cfg, 2)
    assert family == draw.family
    assert np.array_equal(m, draw.m)
    # Real-valued sums are fixed by the block order, not by the rows' sort.
    assert_moments_equal(moments, _blocked_moments(draw.y.values, False))
    assert np.array_equal(true_deltas, draw.true_deltas)


@pytest.mark.parametrize("scenario, n, k", [("binomial", 100, 10_000),
                                             ("poisson", 20, 100_000)])
def test_streamed_replication_holds_no_matrix(scenario, n, k):
    # phi (k x r), the block buffer and one chunk's draw: measured at 0.21
    # (binomial, the first call in a process) and 0.19 (poisson) of one
    # k x n array, where the whole draw holds two.
    cfg = ScenarioConfig(scenario=scenario, n=n, k=k, r=3, seed=1)
    tracemalloc.start()
    try:
        _replication_moments(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * 8 * k * n


def test_streamed_moments_fall_back_past_exact_sum_bound(monkeypatch):
    # Past the bound the counts are summed in block order too, still with
    # no whole draw.  k spans three blocks.
    cfg = ScenarioConfig(scenario="poisson", n=8, k=20_000, r=2, seed=17)
    draw = generate_scenario(cfg, 1)
    # Below k * max(y)^2, so the running block totals break the bound.
    bound = cfg.k * int(draw.y.values.max()) ** 2 // 2
    monkeypatch.setattr(matrix_core, "EXACT_SUM_BOUND", bound)
    monkeypatch.setattr(sim, "generate_scenario", _no_whole_draw)
    _, m, moments, true_deltas = _replication_moments(cfg, 1)
    assert np.array_equal(m, draw.m)
    assert_moments_equal(moments, _blocked_moments(draw.y.values, True))
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
        est = estimate_latent_space(draw.phi @ draw.m, np.zeros(12), rank=4)
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


@pytest.mark.parametrize("scenario", ["normal", "gamma"])
def test_run_replications_thread_invariant_past_one_block(scenario):
    # n = 8 makes blocks of 8192 rows: each replication spans two.
    cfg = ScenarioConfig(scenario=scenario, n=8, k=10_000, r=2, reps=5, seed=13)
    assert len(list(sim._row_blocks(cfg.k, cfg.n))) == 2
    a = run_replications(cfg, threads=1)
    for threads in (2, 4):
        assert run_replications(cfg, threads=threads).records == a.records


def test_run_replications_allocate_one_buffer_per_worker(monkeypatch):
    made = []

    def block_buffer(cfg):
        made.append(threading.get_ident())
        return real(cfg)

    real = sim._block_buffer
    monkeypatch.setattr(sim, "_block_buffer", block_buffer)
    cfg = ScenarioConfig(scenario="gamma", n=8, k=400, r=2, reps=6, seed=13)
    for threads in (1, 2):
        made.clear()
        run_replications(cfg, threads=threads)
        assert len(set(made)) == len(made) == threads


def test_run_replications_stop_soon_after_an_interrupt(monkeypatch, started):
    # Ctrl-C lands on the calling thread; the other worker finishes the
    # replication it is running and takes no more.
    caller = threading.get_ident()
    ran = []

    def run_one(cfg, rep_index, buf):
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

    def flaky(cfg, rep_index, buf):
        if rep_index == 1:
            raise ValueError("boom")
        return real(cfg, rep_index, buf)

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

"""What the benchmark under ``perfbench/`` uses from the package.

The benchmark builds its inputs with ``generate_scenario``, checks results
with ``subspace_distance``, drives every op through ``cli.main`` and traces
``simulation._run_one``.  A refactor that renames or drops one of these
fails here, in the fast suite, rather than only when the benchmark runs.
"""

import json

import numpy as np

import latentspec.simulation as simulation
from latentspec.cli import main
from latentspec.simulation import ScenarioConfig, generate_scenario
from latentspec.subspace_metrics import subspace_distance


def _write_counts(path, y):
    counts = y.astype(np.int64)
    assert np.array_equal(counts, y) and counts.min() >= 0
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in counts.tolist()))


def test_benchmark_interface(tmp_path):
    cfg = ScenarioConfig("poisson", n=6, k=200, r=2, reps=1, seed=0)
    draw = generate_scenario(cfg, 0)
    y = draw.y.values
    assert isinstance(y, np.ndarray) and y.shape == (200, 6)
    assert draw.m.shape == (2, 6)

    record = simulation._run_one(cfg, 0)
    assert record.error is None and record.r_hat is not None

    data = tmp_path / "tall.csv"
    _write_counts(data, y)
    out = tmp_path / "out_tall"
    out.mkdir()
    assert main(["estimate", str(data), "--family", "poisson", "--rank", "auto",
                 "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} >= {"m_hat.csv", "eigenvalues.csv",
                                                "rank.json"}
    r_hat = json.loads((out / "rank.json").read_text())["r_hat"]
    m_hat = np.loadtxt(out / "m_hat.csv", delimiter=",", ndmin=2)
    assert m_hat.shape == (r_hat, 6)
    assert 0.0 <= subspace_distance(draw.m, m_hat) <= 1.0

    # The keys of the benchmark's simulate configs, the ignored "rank_mode"
    # among them.
    sim_out = tmp_path / "out_narrow"
    sim_out.mkdir()
    config = {"scenario": "gamma", "n": 6, "k": 200, "r": 2, "reps": 2, "seed": 1,
              "rank_mode": "auto",
              "scaling": {"c_tilde": 1.0, "eta": 1.0 / 3.0, "scale": "auto"},
              "output_dir": str(sim_out)}
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", str(path), "--threads", "1"]) == 0
    reps = (sim_out / "reps.csv").read_text().splitlines()
    assert reps[0].split(",")[5:8] == ["r_hat", "d_fixed", "d_auto"]
    assert reps[0].endswith(",error") and len(reps) == 3
    summary = (sim_out / "summary.csv").read_text().splitlines()
    assert "r_correct" in summary[0].split(",") and len(summary) == 2
    assert (sim_out / "meta.json").is_file()

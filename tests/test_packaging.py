"""Packaging: the package runs on numpy and the standard library alone, and
a one-shot estimate loads only the modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import latentspec

# Prints the top-level modules that importing the package loads, leaving
# out those loaded before it (site hooks may preload some at start-up).
PROBE = """
import sys
before = set(sys.modules)
import latentspec, latentspec.cli
for name in sorted({m.split(".")[0] for m in set(sys.modules) - before}):
    print(name)
"""


# Runs one estimate on a plain CSV in a fresh interpreter, prints the
# modules of interest that it loaded, then checks the names the package
# resolves on first use.
COLD_ESTIMATE = """
import contextlib, io, sys
import latentspec.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = latentspec.cli.main(["estimate", sys.argv[1], "--family", "poisson",
                              "--out", sys.argv[2]])
assert rc == 0, rc
for name in ("numpy.ma", "latentspec.simulation", "latentspec.subspace_metrics",
             "concurrent.futures", "logging"):
    if name in sys.modules:
        print(name)

import latentspec
from latentspec import simulation, subspace_metrics
assert latentspec.run_replications is simulation.run_replications
assert latentspec.ScenarioConfig is simulation.ScenarioConfig
assert latentspec.subspace_distance is subspace_metrics.subspace_distance
assert latentspec.projection_matrix is subspace_metrics.projection_matrix
names = dir(latentspec)
assert {"run_replications", "ScenarioConfig", "subspace_distance",
        "projection_matrix", "estimate_latent_space"} <= set(names), names
try:
    latentspec.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("latentspec.no_such_name resolved")
"""


def test_numpy_is_the_only_runtime_dependency():
    env = dict(os.environ)
    src = str(Path(latentspec.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    run = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True)
    loaded = set(run.stdout.split())
    assert {"latentspec", "numpy"} <= loaded
    assert loaded - sys.stdlib_module_names - {"numpy", "latentspec"} == set()


def test_cold_estimate_loads_only_what_it_runs(tmp_path):
    data = tmp_path / "y.csv"
    rows = [[(3 * i + j) % 7 + i % 3 for j in range(4)] for i in range(40)]
    data.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    env = dict(os.environ)
    src = str(Path(latentspec.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-c", COLD_ESTIMATE, str(data), str(tmp_path / "out")],
        env=env, check=True, capture_output=True, text=True)
    assert run.stdout.split() == []
    assert (tmp_path / "out" / "m_hat.csv").is_file()

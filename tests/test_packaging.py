"""Packaging: the package runs on numpy and the standard library alone."""

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

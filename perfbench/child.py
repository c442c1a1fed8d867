"""Benchmark child process: drives ``latentspec.cli.main`` in a closed loop.

Usage (started by run.py, never by hand):

    python3 perfbench/child.py setup SRC_DIR TINY_CSV OUT_DIR
    python3 perfbench/child.py run SPEC_JSON RESULT_JSON

``setup`` imports the CLI, runs one cold ``estimate`` on the tiny CSV and
prints ``time.monotonic()`` at that moment, so the process that started it
can time a fresh interpreter up to that point.  ``run`` does the same
warm-up, then starts op after op, each one a ``cli.main(argv)`` call, until
``seconds`` of its own time have passed.  Between ops it hashes the op's
output files and keeps a copy of the first output of every cell for the
parent to check.  At even steps through the run it pauses, idle, for one
set-up sample in a fresh interpreter; the pauses are left out of the run's
clock, and the samples see the same machine as the ops do.  With ``trace`` set, every
second op runs with the span recorder installed; the others run untraced so
the parent can measure what tracing costs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_TIMEOUT_S = 60


def _check_env(src: str) -> None:
    for key, value in PINNED.items():
        if os.environ.get(key) != value:
            raise SystemExit(f"{key} must be pinned to {value} in the child")
    if "LATENTSPEC_THREADS" in os.environ:
        raise SystemExit("LATENTSPEC_THREADS must be unset in the child")
    import latentspec

    home = Path(latentspec.__file__).resolve().parent
    if home != Path(src).resolve() / "latentspec":
        raise SystemExit(f"latentspec imported from {home}, not from {src}")


def _quiet_main(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def setup(src: str, tiny_csv: str, out_dir: str) -> None:
    _check_env(src)
    import latentspec.cli as cli

    rc = _quiet_main(cli, ["estimate", tiny_csv, "--family", "poisson", "--out", out_dir])
    stamp = time.monotonic()
    if rc != 0:
        raise SystemExit(f"tiny estimate exited with {rc}")
    print(repr(stamp))


def _setup_sample(src: str, tiny_csv: str, out_dir: str) -> float:
    """Seconds from starting a fresh interpreter to the end of its tiny estimate."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "setup", src, tiny_csv, out_dir],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("set-up sample did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"set-up sample failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def run(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    _check_env(spec["src"])
    import latentspec.cli as cli

    rc = _quiet_main(cli, ["estimate", spec["tiny_csv"], "--family", "poisson",
                           "--out", spec["tiny_out"]])
    if rc != 0:
        raise SystemExit(f"warm-up estimate exited with {rc}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    cells = spec["cells"]
    first_dir = Path(spec["first_dir"])
    seen = set()
    ops = []
    seconds = float(spec["seconds"])
    samples = spec["setup_samples"]
    setup = []
    paused = 0.0
    t0 = time.perf_counter()

    def now():
        return time.perf_counter() - t0 - paused

    i = 0
    while now() < seconds:
        if len(setup) < samples and now() >= len(setup) * seconds / samples:
            pause = time.perf_counter()
            setup.append(_setup_sample(spec["src"], spec["tiny_csv"],
                                       str(Path(spec["tiny_out"]) / f"setup_{len(setup)}")))
            paused += time.perf_counter() - pause
        cell = cells[i % len(cells)]
        # Alternate traced and untraced ops so that every cell gets both:
        # with an even number of cells the phase flips every cycle.
        phase = i // len(cells) if len(cells) % 2 == 0 else 0
        traced = tracer is not None and (i + phase) % 2 == 1
        out = Path(cell["out_dir"])
        for name in cell["files"]:
            (out / name).unlink(missing_ok=True)
        if traced:
            tracer.install()
            tracer.begin_op(i)
        error = None
        start = now()
        try:
            code = _quiet_main(cli, cell["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            error = traceback.format_exc(limit=3)
        end = now()
        if traced:
            tracer.end_op()
            tracer.uninstall()
        hashes = {}
        for name in cell["files"]:
            path = out / name
            hashes[name] = _sha256(path) if path.is_file() else None
        if cell["id"] not in seen and code == 0:
            seen.add(cell["id"])
            keep = first_dir / cell["id"]
            keep.mkdir(parents=True, exist_ok=True)
            for name in cell["files"]:
                shutil.copyfile(out / name, keep / name)
        ops.append({"op": i, "cell": cell["id"], "code": code, "error": error,
                    "start": start, "end": end, "traced": traced,
                    "hashes": hashes})
        i += 1
    elapsed = now()
    for j, op in enumerate(ops):
        nxt = ops[j + 1]["start"] if j + 1 < len(ops) else elapsed
        op["cycle_s"] = nxt - op["start"]

    result = {
        "ops": ops,
        "elapsed_s": elapsed,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans_path": None,
    }
    if tracer is not None:
        tracer.dump(spec["spans_path"])
        result["spans_path"] = spec["spans_path"]
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup" and len(sys.argv) == 5:
        setup(sys.argv[2], sys.argv[3], sys.argv[4])
    elif mode == "run" and len(sys.argv) == 4:
        run(sys.argv[2], sys.argv[3])
    else:
        raise SystemExit(__doc__)

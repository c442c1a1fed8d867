"""latentspec benchmark: one command that runs a workload, checks it, reports.

    python3 perfbench/run.py --workload estimate-tall --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports the package from ``src/``
there and exits with code 2 if there is none.  A run generates the
workload's inputs from ``--seed``, times set-up in fresh interpreters,
then starts one child process that calls ``latentspec.cli.main`` in a
closed loop for ``--seconds``, timing set-up in fresh interpreters at even
steps through the run, and checks every output.  The last line of
standard output is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  The line before it is the full report, which is also
kept under ``.perfbench_out/`` with the traced spans.  ``--smoke`` runs
every workload at tiny sizes in both modes and checks the metric names and
units against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import PINNED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

# Set-up samples per run, spread evenly through the timed phase.
SETUP_SAMPLES = 11
# The child overruns --seconds by its last op and its set-up pauses;
# beyond this grace it is stuck.
CHILD_GRACE_S = 60
# op_tail_s needs this many samples, so that it sits at p50 or above.
TAIL_MIN_SAMPLES = 20
SELF_SUM_TOL = 1e-6

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "units/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "rank_correct_frac": "ratio",
    "d_auto_median": "1",
}
PER_LAYER = {
    "matrixio.self_s": "s",
    "nef_qvf.data_support_mask.s": "s",
    "nef_qvf.v_value.s": "s",
    "variance_estimation.estimate_dk_qvf.self_s": "s",
    "matrix_core.gram_scaled.s": "s",
    "matrix_core.gram_scaled.gflops_computed": "GFLOP/s",
    "matrix_core.sym_eigen.s": "s",
    "matrix_core.sym_eigen.calls_per_unit": "count",
    "latent_space.adjusted_gram.self_s": "s",
    "latent_space.estimate_rank.s": "s",
    "latent_space.self_s": "s",
    "subspace_metrics.subspace_distance.calls_per_unit": "count",
    "simulation.rep_errors": "count",
    "simulation.thread_busy_frac": "ratio",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas")
    except (TypeError, KeyError):
        blas = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "child_env": PINNED,
        "latentspec_threads_in_parent": os.environ.get("LATENTSPEC_THREADS"),
        "git_commit": commit,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env.pop("LATENTSPEC_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _run_child(spec: dict, work: Path) -> dict:
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    spec_path.write_text(json.dumps(spec))
    with open(work / "child.stderr", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), "run", str(spec_path), str(result_path)],
            env=_child_env(), stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=spec["seconds"] + CHILD_GRACE_S)
        except subprocess.TimeoutExpired:
            raise BenchError("benchmark child did not finish in time")
        finally:
            if proc.poll() is None:
                # The child's group includes any set-up sample it is waiting on.
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if code != 0 or not result_path.is_file():
        tail = (work / "child.stderr").read_text()[-2000:]
        raise BenchError(f"benchmark child exited with {code}: {tail}")
    return json.loads(result_path.read_text())


def _tail(times: list[float]):
    """Highest percentile with at least ten samples above it, if p >= 50."""
    n = len(times)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(times)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n, "beyond": 10}


def _check_cells(plan, first_dir: Path) -> tuple[dict, dict, dict]:
    """Validate the first output of every cell that ran; gather accuracy."""
    from workloads import check_estimate, check_simulate

    cell_problems, accuracy, rep_errors = {}, {}, {}
    for cell in plan.cells:
        kept = first_dir / cell.id
        if not kept.is_dir():
            continue
        try:
            if plan.workload == "estimate-tall":
                problems, record = check_estimate(cell, kept)
                rows = [record]
            else:
                problems, rows = check_simulate(cell, kept)
        except (OSError, ValueError, KeyError) as exc:
            problems, rows = [f"{cell.id}: unreadable output: {exc}"], []
        cell_problems[cell.id] = problems
        accuracy[cell.id] = rows
        rep_errors[cell.id] = sum(1 for row in rows if row.get("error"))
    return cell_problems, accuracy, rep_errors


def _judge_ops(ops, cells, cell_problems) -> list[str]:
    """Mark each op failed or not; return the reasons for failures."""
    reasons = []
    first_hash = {}
    for op in ops:
        cell = cells[op["cell"]]
        why = None
        if op["error"] is not None:
            why = f"exception: {op['error'].strip().splitlines()[-1]}"
        elif op["code"] != 0:
            why = f"exit code {op['code']}"
        elif any(h is None for h in op["hashes"].values()):
            why = "missing output file"
        elif op["cell"] not in cell_problems:
            why = "no checked output for this cell"
        elif cell_problems[op["cell"]]:
            why = cell_problems[op["cell"]][0]
        else:
            ref = first_hash.setdefault(op["cell"], op["hashes"])
            if op["hashes"] != ref:
                why = "output differs from the cell's first op"
        op["failed"] = why is not None
        op["units"] = 0 if why else cell.units
        if why:
            reasons.append(f"op {op['op']} ({op['cell']}): {why}")
    return reasons


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             smoke: bool = False) -> tuple[dict, dict]:
    """Run one benchmark run; return (result line, full report)."""
    if not (SRC / "latentspec" / "cli.py").is_file():
        raise BenchError(f"no latentspec sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import latentspec

    if Path(latentspec.__file__).resolve().parent != (SRC / "latentspec").resolve():
        raise BenchError(f"latentspec imported from {latentspec.__file__}, not {SRC}")
    from workloads import build_plan, tiny_csv

    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    try:
        load_start = _loadavg()
        tiny, tiny_info = tiny_csv(work)
        plan = build_plan(workload, seed, work, smoke)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        spec = {
            "src": str(SRC), "tiny_csv": str(tiny), "tiny_out": str(work / "tiny_out"),
            "first_dir": str(work / "first"), "seconds": seconds, "trace": trace,
            "spans_path": str(spans_path),
            "setup_samples": 1 if smoke else SETUP_SAMPLES,
            "cells": [cell.child_spec() for cell in plan.cells],
        }
        result = _run_child(spec, work)
        cells = {cell.id: cell for cell in plan.cells}
        cell_problems, accuracy, rep_errors = _check_cells(plan, work / "first")
        ops = result["ops"]
        reasons = _judge_ops(ops, cells, cell_problems)
        load_end = _loadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops)
    failed = sum(op["failed"] for op in ops)
    times = [op["end"] - op["start"] for op in ops]
    units = sum(op["units"] for op in ops)
    acc_rows = [row for rows in accuracy.values() for row in rows if not row.get("error")]
    correct_ranks = sum(1 for row in acc_rows if row["r_hat"] == row["r"])
    d_auto = [row["d_auto"] for row in acc_rows
              if row["d_auto"] is not None and math.isfinite(row["d_auto"])]
    figures = {
        "setup_s": statistics.median(result["setup_s"]),
        "work_per_s": units / result["elapsed_s"],
        "op_p50_s": statistics.median(times) if times else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
        "failed_frac": failed / attempted if attempted else 1.0,
        "rank_correct_frac": correct_ranks / len(acc_rows) if acc_rows else 0.0,
        "d_auto_median": statistics.median(d_auto) if d_auto else 0.0,
    }
    problems = list(reasons)
    if not acc_rows:
        problems.append("no checked output to measure accuracy on")
    if trace:
        from tracer import layer_figures, load_spans, overhead_frac

        traced = [op for op in ops if op["traced"]]
        plain = [op for op in ops if not op["traced"]]
        if not traced or not plain:
            raise BenchError("the traced run needs at least two ops")
        layers = layer_figures(load_spans(spans_path), traced, plan.threads)
        layers["simulation.rep_errors"] = sum(rep_errors.get(op["cell"], 0) for op in traced)
        layers["trace.overhead_frac"] = overhead_frac(
            [op["end"] - op["start"] for op in traced],
            [op["end"] - op["start"] for op in plain])
        if abs(layers["trace.self_sum_frac"] - 1.0) > SELF_SUM_TOL:
            problems.append(f"self times cover {layers['trace.self_sum_frac']:.9f} of op time")
        metric_units = PER_LAYER
    else:
        layers = None
        metric_units = END_TO_END
    source = layers if trace else figures
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "threads": plan.threads,
        "environment": dict(_environment(), loadavg_start=load_start, loadavg_end=load_end),
        "inputs": [tiny_info] + plan.inputs,
        "setup_samples_s": result["setup_s"],
        "end_to_end": figures,
        "op_tail_s": _tail(times),
        "per_layer": layers,
        "ops": [{k: op[k] for k in ("op", "cell", "start", "end", "traced", "failed")}
                for op in ops],
        "accuracy_cells": sorted(accuracy),
        "problems": problems,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    return line, report


def _smoke() -> int:
    """Tiny runs of every workload in both modes, checked against BENCHMARK.json."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from the harness's")
    for workload in WORKLOADS:
        for trace in (False, True):
            start = time.perf_counter()
            line, _ = run_once(workload, 1, 1.0, trace, smoke=True)
            kind = "per_layer" if trace else "end_to_end"
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            if got != declared[kind]:
                bad.append(f"{label}: metrics {got} != BENCHMARK.json {declared[kind]}")
            if not line["correct"] or line["failed"]:
                bad.append(f"{label}: not correct ({line['failed']} failed)")
            if any(not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])
                   for m in line["metrics"].values()):
                bad.append(f"{label}: a metric is not a finite number")
            print(f"smoke {label}: {line['attempted']} ops, "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    for msg in bad:
        print(f"smoke FAILED: {msg}", file=sys.stderr)
    if not bad:
        print("smoke ok", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny runs of every workload, checked against BENCHMARK.json")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return _smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        line, report = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, m in line["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if report["op_tail_s"]:
        tail = report["op_tail_s"]
        print(f"op_tail_s {tail['value']:.6g} s at p{tail['percentile']:.1f} "
              f"of {tail['samples']} ops", file=sys.stderr)
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

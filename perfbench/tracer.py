"""Span recorder for traced benchmark runs, and the per-layer figures.

The recorder wraps latentspec's functions from outside the package: every
module attribute that names a public latentspec function (plus the
per-replication worker ``simulation._run_one``) is replaced by one shared
wrapper, so a call is traced whichever module it was looked up in, for
example both ``latentspec.simulation.sym_eigen`` and
``latentspec.subspace_metrics.sym_eigen``.  Spans stay in memory until
``dump`` writes them out.

A span is ``(span_id, parent_id, name, op_id, thread_id, start, end, info)``.
The parent is the innermost open span on the same thread; a span opened on
a worker thread with nothing open takes the innermost open span of the
thread that started the op (``run_replications`` waiting on its pool), so
``--threads 2`` spans nest under the op that caused them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
import types
from collections import defaultdict

PACKAGE = "latentspec"
# Private functions that still mark a layer boundary worth a span.
EXTRA_FUNCTIONS = {("latentspec.simulation", "_run_one")}
OP_ROOT = "cli.main"


def _span_name(fn) -> str:
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"


def _gram_info(args, kwargs):
    arr = args[0] if args else kwargs["y"]
    shape = getattr(arr, "values", arr).shape
    return {"k": int(shape[0]), "n": int(shape[1])}


def _read_info(args, kwargs):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# Sizes recorded beside a span, taken before its clock starts.
_INFO = {
    "matrix_core.gram_scaled": _gram_info,
    "matrixio.read_matrix_csv": _read_info,
}


class Tracer:
    """Records nested spans of latentspec calls made by the benchmark child."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack = None
        self._op_id = None
        self._patches = []
        self._wrappers = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn):
        name = _span_name(fn)
        info_fn = _INFO.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._op_stack:
                parent = tracer._op_stack[-1]
            else:
                parent = None
            span_id = next(tracer._ids)
            info = info_fn(args, kwargs) if info_fn is not None else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, tracer._op_id,
                     threading.get_ident(), start, end, info)
                )

        return traced

    def install(self) -> None:
        """Wrap every binding site of the package's functions."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                if value.__name__.startswith("_") and (
                    (home, value.__name__) not in EXTRA_FUNCTIONS
                ):
                    continue
                wrapper = self._wrappers.get(value)
                if wrapper is None:
                    wrapper = self._wrappers[value] = self._wrap(value)
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._op_stack = self._stack()

    def end_op(self) -> None:
        self._op_id = None
        self._op_stack = None

    def dump(self, path) -> None:
        """Write all spans as JSON lines, in the order they closed."""
        keys = ("id", "parent", "name", "op", "thread", "start", "end", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_figures(spans, ops, threads: int) -> dict:
    """Per-layer figures from the spans of the traced ops.

    ``ops`` holds one record per traced op (at least one) with ``units`` and
    ``cycle_s`` (op start to the next op's start).  A span's self time is
    its duration minus its same-thread children; a span whose children ran
    on other threads spends its remaining time waiting for them, which is
    counted as wait, not self time.  Times are seconds per traced op.
    """
    n_ops = len(ops)
    units = sum(op["units"] for op in ops) or 1
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    cross_children = set()
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        if parent["thread"] == s["thread"]:
            child_time[parent["id"]] += s["end"] - s["start"]
        else:
            cross_children.add(parent["id"])

    def ancestors(s):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
            yield s["name"]

    total = defaultdict(float)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    calls = defaultdict(int)
    wait = 0.0
    main_self = 0.0
    op_time = 0.0
    eig_in_distance = 0.0
    gram_flop = 0.0
    read_bytes = 0
    main_threads = {}
    for s in spans:
        if s["name"] == OP_ROOT:
            main_threads[s["op"]] = s["thread"]
            op_time += s["end"] - s["start"]
    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - child_time[s["id"]]
        name = s["name"]
        calls[name] += 1
        total[name] += dur
        if s["id"] in cross_children:
            wait += own
        else:
            self_s[name] += own
            layer_self[_layer(name)] += own
        if main_threads.get(s["op"]) == s["thread"]:
            main_self += own
        if name == "matrix_core.sym_eigen" and (
            "subspace_metrics.subspace_distance" in ancestors(s)
        ):
            eig_in_distance += dur
        if name == "matrix_core.gram_scaled":
            gram_flop += 2.0 * s["info"]["k"] * s["info"]["n"] ** 2
        if name == "matrixio.read_matrix_csv":
            read_bytes += s["info"]["bytes"]


    def per_op(value):
        return value / n_ops
    busy = sum(self_s.values())
    cycle = sum(op["cycle_s"] for op in ops)
    read_s = total["matrixio.read_matrix_csv"]
    gram_s = total["matrix_core.gram_scaled"]
    fig = {
        "matrixio.read_matrix_csv.s": per_op(read_s),
        "matrixio.read_matrix_csv.mb_per_s": read_bytes / 1e6 / read_s if read_s else 0.0,
        "matrixio.write_matrix_csv.s": per_op(total["matrixio.write_matrix_csv"]),
        "nef_qvf.data_support_mask.s": per_op(total["nef_qvf.data_support_mask"]),
        "nef_qvf.v_value.s": per_op(total["nef_qvf.v_value"]),
        "variance_estimation.estimate_dk_qvf.self_s":
            per_op(self_s["variance_estimation.estimate_dk_qvf"]),
        "matrix_core.gram_scaled.s": per_op(gram_s),
        "matrix_core.gram_scaled.gflops_computed": gram_flop / 1e9 / gram_s if gram_s else 0.0,
        "matrix_core.sym_eigen.s": per_op(total["matrix_core.sym_eigen"]),
        "matrix_core.sym_eigen.in_distance.s": per_op(eig_in_distance),
        "matrix_core.sym_eigen.calls_per_unit": calls["matrix_core.sym_eigen"] / units,
        "latent_space.adjusted_gram.self_s": per_op(self_s["latent_space.adjusted_gram"]),
        "latent_space.estimate_rank.s": per_op(total["latent_space.estimate_rank"]),
        "latent_space.estimate_latent_space.self_s":
            per_op(self_s["latent_space.estimate_latent_space"]),
        "subspace_metrics.subspace_distance.calls_per_unit":
            calls["subspace_metrics.subspace_distance"] / units,
        "subspace_metrics.subspace_distance.self_s":
            per_op(self_s["subspace_metrics.subspace_distance"]),
        "simulation.generate_scenario.s": per_op(total["simulation.generate_scenario"]),
        "simulation.run_replications.wait_s": per_op(wait),
        "simulation.thread_busy_frac": busy / (cycle * threads) if cycle else 0.0,
    }
    for layer in ("cli", "matrixio", "nef_qvf", "variance_estimation",
                  "matrix_core", "latent_space", "subspace_metrics", "simulation"):
        fig[f"{layer}.self_s"] = per_op(layer_self[layer])
    # Self times (and pool waits) on the op's own thread partition the op.
    fig["trace.self_sum_frac"] = main_self / op_time if op_time else 0.0
    fig["trace.spans_per_op"] = per_op(len(spans))
    return fig


def overhead_frac(traced_times, plain_times) -> float:
    """Traced median op time over untraced median op time, minus one."""
    return statistics.median(traced_times) / statistics.median(plain_times) - 1.0

"""The three benchmark workloads: seeded inputs, op lists and output checks.

Every input is made from the workload seed with the package's own
``generate_scenario`` before the timed phase; the program under test only
ever sees the generated files.  Each workload is a list of cells; the child
cycles through them, one ``cli.main`` call per op, so every cell runs
several times and its repeated outputs can be compared byte for byte.

* ``estimate-tall``: ``estimate --family poisson --rank auto`` on poisson
  count CSVs with k=100000, n=20, r=3, written as plain integers.  The
  paper's tall k >> n case; CSV ingest and the per-column sort dominate.
* ``simulate-wide``: ``simulate --threads 2`` on binomial n=100, k=10000,
  r=2 with 4 replications per op.  The n x n eigensolve dominates, and two
  threads expose how much the replications really run in parallel.
* ``simulate-narrow``: ``simulate --threads 1`` over the desk-scale table,
  five scenarios x k in {1000, 5000}, n=15, r=3, 20 replications per op.
  Many small eigensolves (six of seven are r x r, inside the distance), so
  per-call overhead shows; it also covers accuracy on every scenario.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCENARIOS = ("normal", "poisson", "binomial", "negbin", "gamma")
ESTIMATE_FILES = ("m_hat.csv", "eigenvalues.csv", "rank.json")
SIMULATE_FILES = ("summary.csv", "reps.csv", "meta.json")
# Output checks for estimate-tall, against a plain numpy eigh reference.
EIG_RTOL = 1e-8
SUBSPACE_TOL = 1e-8
# Absolute floor on eigenvalue agreement, in units of eps * n * max|lambda|:
# no backward-stable solver, eigh included, fixes an eigenvalue closer.
EIG_EPS_FLOOR = 64
# The program's Jacobi solver stops once its off-diagonal norm is at most
# 1e-10 * ||A||_F, so that is the residual its eigenvectors may leave.
RESIDUAL_RTOL = 1e-10
ORTHO_TOL = 1e-8


@dataclass
class Cell:
    """One distinct op: its argv, where it writes, and what to check."""

    id: str
    argv: list
    out_dir: str
    files: tuple
    units: int
    check: dict = field(default_factory=dict)

    def child_spec(self) -> dict:
        return {"id": self.id, "argv": self.argv, "out_dir": self.out_dir,
                "files": list(self.files)}


@dataclass
class Plan:
    workload: str
    threads: int
    cells: list
    inputs: list


# Full sizes, and the tiny sizes of the smoke mode.
SIZES = {
    "estimate-tall": {"full": {"k": 100_000, "n": 20, "r": 3, "files": 12},
                      "smoke": {"k": 2_000, "n": 10, "r": 3, "files": 2}},
    "simulate-wide": {"full": {"n": 100, "k": 10_000, "r": 2, "reps": 4, "configs": 5},
                      "smoke": {"n": 20, "k": 500, "r": 2, "reps": 2, "configs": 2}},
    "simulate-narrow": {"full": {"n": 15, "k": (1000, 5000), "r": 3, "reps": 20},
                        "smoke": {"n": 15, "k": (300, 600), "r": 3, "reps": 2}},
}
WORKLOADS = tuple(SIZES)


def _describe(path: Path, shape) -> dict:
    data = path.read_bytes()
    return {"path": path.name, "shape": list(shape), "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def write_int_csv(path: Path, y: np.ndarray) -> None:
    """Counts as plain comma-separated integers, one row per line."""
    counts = y.astype(np.int64)
    if counts.min() < 0 or np.any(counts != y):
        raise ValueError("write_int_csv takes non-negative integer counts")
    text = [str(v) for v in range(int(counts.max()) + 1)]
    with open(path, "w") as fh:
        fh.writelines(",".join([text[v] for v in row]) + "\n" for row in counts.tolist())


def tiny_csv(work: Path) -> tuple[Path, dict]:
    """The fixed tiny input of the set-up measurement (seed 0, 200 x 6)."""
    from latentspec.simulation import ScenarioConfig, generate_scenario

    draw = generate_scenario(ScenarioConfig("poisson", n=6, k=200, r=2, reps=1, seed=0), 0)
    path = work / "tiny.csv"
    write_int_csv(path, draw.y.values)
    return path, _describe(path, draw.y.values.shape)


def _estimate_tall(seed: int, work: Path, size: dict) -> Plan:
    from latentspec.simulation import ScenarioConfig, generate_scenario

    cfg = ScenarioConfig("poisson", n=size["n"], k=size["k"], r=size["r"],
                         reps=size["files"], seed=seed)
    cells, inputs = [], []
    for i in range(size["files"]):
        draw = generate_scenario(cfg, i)
        y = draw.y.values
        path = work / f"tall_{i}.csv"
        write_int_csv(path, y)
        inputs.append(_describe(path, y.shape))
        k = y.shape[0]
        adjusted = y.T @ y / k - np.diag(y.mean(axis=0))
        w, v = np.linalg.eigh(adjusted)
        out = work / f"out_tall_{i}"
        out.mkdir()
        cells.append(Cell(
            id=f"tall_{i}",
            argv=["estimate", str(path), "--family", "poisson", "--rank", "auto",
                  "--out", str(out)],
            out_dir=str(out), files=ESTIMATE_FILES, units=1,
            check={"adjusted": adjusted, "eigenvalues": w[::-1],
                   "eigenvectors": v[:, ::-1], "m": draw.m, "r": size["r"]},
        ))
    return Plan("estimate-tall", 1, cells, inputs)


def _simulate_config(work: Path, name: str, cell: dict, reps: int, seed: int) -> tuple:
    out = work / f"out_{name}"
    out.mkdir()
    cfg = dict(cell, reps=reps, seed=seed, rank_mode="auto",
               scaling={"c_tilde": 1.0, "eta": 1.0 / 3.0, "scale": "auto"},
               output_dir=str(out))
    path = work / f"{name}.json"
    path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    return path, out


def _simulate_wide(seed: int, work: Path, size: dict) -> Plan:
    cells, inputs = [], []
    cell = {"scenario": "binomial", "n": size["n"], "k": size["k"], "r": size["r"]}
    for c in range(size["configs"]):
        name = f"wide_{c}"
        # Several config seeds, so accuracy rests on more than one batch.
        path, out = _simulate_config(work, name, cell, size["reps"], seed * 1000 + c)
        inputs.append(_describe(path, (size["k"], size["n"])))
        cells.append(Cell(
            id=name, argv=["simulate", str(path), "--threads", "2"],
            out_dir=str(out), files=SIMULATE_FILES, units=size["reps"],
            check={"r": size["r"], "reps": size["reps"]},
        ))
    return Plan("simulate-wide", 2, cells, inputs)


def _simulate_narrow(seed: int, work: Path, size: dict) -> Plan:
    cells, inputs = [], []
    for scenario in SCENARIOS:
        for k in size["k"]:
            name = f"narrow_{scenario}_{k}"
            cell = {"scenario": scenario, "n": size["n"], "k": k, "r": size["r"]}
            path, out = _simulate_config(work, name, cell, size["reps"], seed)
            inputs.append(_describe(path, (k, size["n"])))
            cells.append(Cell(
                id=name, argv=["simulate", str(path), "--threads", "1"],
                out_dir=str(out), files=SIMULATE_FILES, units=size["reps"],
                check={"r": size["r"], "reps": size["reps"]},
            ))
    return Plan("simulate-narrow", 1, cells, inputs)


def build_plan(workload: str, seed: int, work: Path, smoke: bool) -> Plan:
    size = SIZES[workload]["smoke" if smoke else "full"]
    make = {"estimate-tall": _estimate_tall, "simulate-wide": _simulate_wide,
            "simulate-narrow": _simulate_narrow}[workload]
    return make(seed, work, size)


def _projector(basis_rows: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(basis_rows.T)
    return q @ q.T


def check_estimate(cell: Cell, out: Path) -> tuple[list, dict]:
    """Problems found in one estimate's outputs, and its accuracy record.

    The limits follow how well the problem is conditioned.  An eigenvalue
    must match eigh within EIG_RTOL of itself, or within what rounding
    leaves of the largest, whichever is wider.  ``m_hat``'s rows must be
    orthonormal and span an invariant subspace of the adjusted gram up to
    the solver's tolerance (a residual that does not depend on eigengaps),
    whose Ritz values are eigh's leading ones to within that residual.
    Its projector must then lie within SUBSPACE_TOL, or within the
    Davis-Kahan bound sqrt(2) * residual / gap if that is larger, of eigh's
    leading ``r_hat`` vectors; gap separates m_hat's Ritz values from the
    eigenvalues below them.
    """
    problems = []
    ref = cell.check
    rank = json.loads((out / "rank.json").read_text())
    r_hat = int(rank["r_hat"])
    eig = np.loadtxt(out / "eigenvalues.csv", delimiter=",", ndmin=1)
    want = ref["eigenvalues"]
    if eig.shape != want.shape:
        problems.append(f"{cell.id}: {eig.shape[0]} eigenvalues, expected {want.shape[0]}")
        return problems, {"r_hat": r_hat, "r": ref["r"], "d_auto": None}
    n = want.shape[0]
    scale = float(np.max(np.abs(want)))
    floor = EIG_EPS_FLOOR * n * np.finfo(float).eps * scale
    lead = max(r_hat, 1)
    if np.any(np.abs(eig[:lead] - want[:lead]) > np.maximum(EIG_RTOL * np.abs(want[:lead]), floor)):
        problems.append(f"{cell.id}: leading eigenvalues differ from eigh beyond {EIG_RTOL}")
    if np.any(np.abs(eig - want) > EIG_RTOL * scale):
        problems.append(f"{cell.id}: eigenvalues differ from eigh beyond {EIG_RTOL} x max")
    d_auto = None
    if r_hat >= 1:
        m_hat = np.loadtxt(out / "m_hat.csv", delimiter=",", ndmin=2)
        if m_hat.shape != (r_hat, n):
            problems.append(f"{cell.id}: m_hat shape {m_hat.shape} for r_hat={r_hat}")
            return problems, {"r_hat": r_hat, "r": ref["r"], "d_auto": None}
        ortho = np.linalg.norm(m_hat @ m_hat.T - np.eye(r_hat))
        if ortho > ORTHO_TOL:
            problems.append(f"{cell.id}: m_hat rows are {ortho:.2e} from orthonormal")
        a = ref["adjusted"]
        q = m_hat.T
        ritz = q.T @ a @ q
        residual = np.linalg.norm(a @ q - q @ ritz)
        if residual > RESIDUAL_RTOL * np.linalg.norm(a):
            problems.append(f"{cell.id}: m_hat leaves a residual of {residual:.2e} "
                            f"(over {RESIDUAL_RTOL} x ||A||_F)")
        theta = np.linalg.eigvalsh((ritz + ritz.T) / 2.0)[::-1]
        if np.any(np.abs(theta - want[:r_hat]) > residual + floor):
            problems.append(f"{cell.id}: m_hat spans eigenvectors other than eigh's leading ones")
        gap = theta[-1] - want[r_hat] if r_hat < n else np.inf
        limit = max(SUBSPACE_TOL, np.sqrt(2.0) * residual / gap) if gap > 0 else np.inf
        dist = np.linalg.norm(_projector(m_hat) - _projector(ref["eigenvectors"][:, :r_hat].T))
        if dist > limit:
            problems.append(f"{cell.id}: m_hat is {dist:.2e} from eigh's leading vectors "
                            f"(limit {limit:.2e} at eigengap {gap:.3g})")
        from latentspec.subspace_metrics import subspace_distance

        d_auto = subspace_distance(ref["m"], m_hat)
    return problems, {"r_hat": r_hat, "r": ref["r"], "d_auto": d_auto}


def check_simulate(cell: Cell, out: Path) -> tuple[list, list]:
    """Problems found in one simulate op's outputs, and its replication rows."""
    problems = []
    with open(out / "reps.csv", newline="") as fh:
        reps = list(csv.DictReader(fh))
    with open(out / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    r = cell.check["r"]
    if len(reps) != cell.check["reps"] or len(summary) != 1:
        problems.append(f"{cell.id}: {len(reps)} replication rows, {len(summary)} summary rows")
    errors = [row for row in reps if row["error"]]
    if errors:
        problems.append(f"{cell.id}: {len(errors)} replications failed: {errors[0]['error']}")
    correct = sum(1 for row in reps if row["r_hat"] and int(row["r_hat"]) == r)
    if summary and int(summary[0]["r_correct"]) != correct:
        problems.append(f"{cell.id}: summary r_correct disagrees with reps.csv")
    rows = [{"r_hat": int(row["r_hat"]) if row["r_hat"] else None, "r": r,
             "d_auto": float(row["d_auto"]) if row["d_auto"] else None,
             "error": row["error"]} for row in reps]
    return problems, rows

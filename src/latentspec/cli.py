"""Command line front end.

Commands: estimate | simulate | distance | subsample | rank-sweep.  All
outputs are plot-ready CSV plus JSON decision records; every command with a
seed is bit-reproducible.

Exit codes, decided in ``main`` alone:
  2  a malformed or missing file, a bad flag or config value, an invalid
     data matrix or an unusable output path;
  3  a support violation or a rank-deficient basis;
  4  an empty subspace.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidParameterError,
    LatentSpecError,
    NotOrthonormalWarning,
    OutOfSupportError,
    RankDeficientError,
    SupportViolationError,
)
from .latent_space import ETA_DEFAULT, ScalingConfig, estimate_latent_space
from .matrix_core import DataMatrix, Moments, cpu_count, data_moments, median
from .matrixio import (
    format_value,
    read_matrix_csv,
    read_moments_csv,
    read_vector_csv,
    write_matrix_csv,
)
from .nef_qvf import FAMILY_KINDS, Family, in_support
from .variance_estimation import (
    VarianceEstimate,
    check_support,
    estimate_dk_leek,
    estimate_dk_qvf,
    explicit,
    needs_column_sums,
)

# The simulation and subspace_metrics modules are imported by the commands
# that call them, so that a one-shot estimate does not load them.

EXIT_PARSE = 2
EXIT_SUPPORT = 3
EXIT_DEGENERATE = 4

# Desk-scale guardrails; the full grid runs behind --full.
MAX_K_DEFAULT = 10_000
MAX_N_DEFAULT = 100
MAX_REPS_DEFAULT = 100

# The ScenarioConfig attributes that lead each summary.csv and reps.csv row.
_CELL_COLUMNS = ("scenario", "n", "k", "r")


class CliError(Exception):
    """A bad flag or config value found by the command line itself."""


def _resolve_threads(value) -> int:
    if value is None:
        return cpu_count()
    if value < 1:
        raise CliError(f"--threads must be at least 1, got {value}")
    return value


def _load_data(path, transpose=False) -> DataMatrix:
    """Read the data matrix and validate it once for every later stage."""
    arr = read_matrix_csv(path)
    try:
        return DataMatrix(arr.T if transpose else arr)
    except InvalidParameterError as exc:
        raise CliError(f"{path}: {exc}")


def _load_moments(path, transpose: bool, fam: Family | None) -> Moments:
    """The data file's Moments, with the column sums ``fam`` reads, checked
    against the support of ``fam``.

    A plain file is reduced as it is parsed.  It is read whole again to
    name the positions of a support violation, or when its counts are too
    large for exact sums, which shows only after the first pass has parsed
    and reduced all of it (about 30 ms at 100000 x 20).  Any other file,
    or a transposed one, is read whole once.
    """
    moments = data = None
    if not transpose:
        try:
            moments = read_moments_csv(path)
        except InvalidParameterError as exc:
            raise CliError(f"{path}: {exc}")
    if moments is None:
        data = _load_data(path, transpose)
        moments = data_moments(data, fam is not None and needs_column_sums(fam))
    if fam is not None and not in_support(fam, moments.ymin, moments.ymax,
                                          moments.integral):
        if data is None:
            data = _load_data(path, transpose)
        check_support(fam, data.values)
    return moments


def _csv_cell(value):
    """None is an empty cell, a bool 0 or 1, a float ``format_value``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return format_value(value)
    return value


def _write_table(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


def _family_from_args(args) -> Family | None:
    return None if args.family is None else Family(args.family, args.s)


def _parse_rank(text: str):
    if text == "auto":
        return "auto"
    if text.startswith("fixed:"):
        try:
            return int(text.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad rank spec {text!r}")
    raise CliError(f"rank must be 'auto' or 'fixed:R', got {text!r}")


def _scaling(c_tilde: float, eta: float, scale, source: str) -> ScalingConfig:
    """Scaling from the flags or a config's ``scaling`` object, named by
    ``source`` in an error; ``scale`` is 'auto', a number or its text."""
    if scale != "auto":
        try:
            scale = float(scale)
        except ValueError:
            pass  # ScalingConfig rejects any text but 'auto'
    try:
        return ScalingConfig(c_tilde=c_tilde, eta=eta, scale_coefficient=scale)
    except InvalidParameterError as exc:
        raise CliError(f"{source}: {exc}")


def _config_number(value, name: str) -> float:
    """A JSON number; strings and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"config {name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise CliError(f"config {name} is an integer past the float range")


def _finite_number(text: str) -> float:
    """A config number, finite since meta.json copies it and JSON has no inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def _config_int(value, name: str) -> int:
    """A JSON integer, or a float with an integral value such as 6.0."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliError(f"config {name} must be an integer, got {value!r}")
    return value


def _parse_int_list(text: str, name: str, lo: int, hi: int) -> list[int]:
    """Comma-separated integers and inclusive ``a:b`` ranges, each in [lo, hi].

    Both ends of a range are checked before it is expanded.
    """
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            ends = [int(v) for v in part.split(":", 1)]
        except ValueError:
            raise CliError(f"bad {name} entry {part!r}")
        for v in ends:
            if not lo <= v <= hi:
                raise CliError(f"{name} value {v} outside [{lo}, {hi}]")
        if ends[0] > ends[-1]:
            raise CliError(f"{name} range {part!r} runs backwards")
        out.extend(range(ends[0], ends[-1] + 1))
    if not out:
        raise CliError(f"{name} is empty")
    return out


def _variance_estimate(args, moments: Moments, fam: Family | None) -> VarianceEstimate:
    """Build the diagonal correction from the one correction flag set."""
    if fam is not None:
        return estimate_dk_qvf(moments, fam)
    if args.leek is not None:
        return estimate_dk_leek(moments, args.leek)
    deltas = read_vector_csv(args.dk_file)
    n = moments.n
    if deltas.shape[0] != n:
        raise CliError(
            f"--dk-file length {deltas.shape[0]} != column count {n}"
        )
    return explicit(deltas)


def _json_value(value):
    """An array as its list, a dataclass record as the object of its
    fields, each by this rule; anything else as it is."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return {f.name: _json_value(getattr(value, f.name)) for f in fields(value)}
    return value


def _write_json(path, record) -> None:
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _family_record(fam: Family) -> dict:
    """rank.json's family object, e.g. {"family": "binomial", "s": 20}."""
    rec = {"family": fam.kind}
    if fam.s is not None:
        rec["s"] = int(fam.s) if fam.s.is_integer() else fam.s
    return rec


def _rank_record(est, dk, fam: Family | None) -> dict:
    """rank.json's record; under ``--rank auto`` each field of the
    RankEstimate is a key too."""
    rec = {
        "r_hat": est.r_hat,
        "rank_mode": "fixed" if est.rank is None else "auto",
        "fixed_rank": est.r_hat if est.rank is None else None,
        "dk_method": dk.method,
        "negative_flag": dk.negative_flag,
        "eigenvalues": est.eigen.eigenvalues.tolist(),
        "family": None if fam is None else _family_record(fam),
    }
    if est.rank is not None:
        rec.update(_json_value(est.rank))
    return rec


def cmd_estimate(args) -> int:
    chosen = [args.family, args.leek, args.dk_file]
    if sum(flag is not None for flag in chosen) != 1:
        raise CliError("exactly one of --family, --leek, --dk-file is required")
    fam = _family_from_args(args)
    rank = _parse_rank(args.rank)
    cfg = _scaling(args.c_tilde, args.eta, args.scale, "scaling flags")
    moments = _load_moments(args.data, args.transpose, fam)
    k, n = moments.k, moments.n
    if k <= n:
        print(
            f"warning: {k} rows <= {n} columns; more rows than columns "
            "is recommended",
            file=sys.stderr,
        )
    dk = _variance_estimate(args, moments, fam)
    est = estimate_latent_space(moments, dk, rank=rank, cfg=cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out / "m_hat.csv", est.m_hat)
    write_matrix_csv(out / "eigenvalues.csv", est.eigen.eigenvalues)
    _write_json(out / "rank.json", _rank_record(est, dk, fam))
    if est.is_empty:
        print(
            "empty subspace: no scaled eigenvalue exceeded the threshold; "
            "see rank.json for the calibration trace",
            file=sys.stderr,
        )
        return EXIT_DEGENERATE
    print(f"r_hat={est.r_hat} -> {out / 'm_hat.csv'}")
    return 0


def _config_cells(cfg: dict) -> list[dict]:
    """The cross product of the config's scenario, n, k and r lists; a
    single value is a list of one, and an empty list is an error."""
    def values(key):
        v = cfg[key] if isinstance(cfg[key], list) else [cfg[key]]
        if not v:
            raise CliError(f"config {key} must not be an empty list")
        return v if key == "scenario" else [_config_int(x, key) for x in v]

    scenarios, ns, ks, rs = map(values, ("scenario", "n", "k", "r"))
    return [{"scenario": scenario, "n": n, "k": k, "r": r}
            for scenario in scenarios for n in ns for k in ks for r in rs]


def cmd_simulate(args) -> int:
    from .simulation import (RNG_ALGORITHM, RepRecord, ReplicationStats,
                             ScenarioConfig, run_replications)

    threads = _resolve_threads(args.threads)
    try:
        cfg = json.loads(Path(args.config).read_text(),
                         parse_float=_finite_number, parse_constant=_finite_number)
    except ValueError as exc:  # bad JSON or bytes, or a number past the float range
        raise CliError(f"cannot read config {args.config}: {exc}")
    if not isinstance(cfg, dict):
        raise CliError(f"config {args.config} is not a JSON object")
    for key in ("scenario", "n", "k", "r", "output_dir"):
        if key not in cfg:
            raise CliError(f"config missing key {key!r}")
    if not isinstance(cfg["output_dir"], str):
        raise CliError(f"config output_dir must be a string, got {cfg['output_dir']!r}")
    reps = _config_int(cfg.get("reps", 50), "reps")
    seed = _config_int(cfg.get("seed", 0), "seed")
    scaling_cfg = cfg.get("scaling", {})
    if not isinstance(scaling_cfg, dict):
        raise CliError("config scaling is not a JSON object")
    c_tilde = scaling_cfg.get("c_tilde", ScalingConfig.c_tilde)
    eta = scaling_cfg.get("eta", ETA_DEFAULT)
    scale = scaling_cfg.get("scale", "auto")
    if scale != "auto":
        scale = _config_number(scale, "scaling.scale")
    scaling = _scaling(
        _config_number(c_tilde, "scaling.c_tilde"),
        _config_number(eta, "scaling.eta"),
        scale, "config scaling",
    )

    cells = _config_cells(cfg)
    if not args.full:
        for cell in cells:
            if (
                cell["k"] > MAX_K_DEFAULT
                or cell["n"] > MAX_N_DEFAULT
                or reps > MAX_REPS_DEFAULT
            ):
                raise CliError(
                    f"cell {cell} with reps={reps} exceeds the desk-scale "
                    f"limits (k<={MAX_K_DEFAULT}, n<={MAX_N_DEFAULT}, "
                    f"reps<={MAX_REPS_DEFAULT}); pass --full to run it"
                )

    # Every cell is checked before anything is written.
    configs = [ScenarioConfig(**cell, reps=reps, seed=seed, scaling=scaling)
               for cell in cells]
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)

    rep_columns = [f.name for f in fields(RepRecord)]
    summary_rows, rep_rows = [], []
    for sc in configs:
        stats = run_replications(sc, threads=threads)
        cell = [getattr(sc, name) for name in _CELL_COLUMNS]
        summary_rows.append(cell + [reps] + [
            getattr(stats, name) for name in stats.summary_columns])
        rep_rows.extend(cell + [getattr(rec, name) for name in rep_columns]
                        for rec in stats.records)

    _write_table(out / "summary.csv",
                 [*_CELL_COLUMNS, "reps", *ReplicationStats.summary_columns],
                 summary_rows)
    _write_table(out / "reps.csv",
                 [*_CELL_COLUMNS,
                  *("rep" if name == "rep_index" else name for name in rep_columns)],
                 rep_rows)
    meta = {"rng": RNG_ALGORITHM, "seed": seed, "reps": reps, "config": cfg}
    _write_json(out / "meta.json", meta)
    print(f"wrote {out / 'summary.csv'} ({len(summary_rows)} cells)")
    return 0


def _basis(path, matrix):
    """The RowSpaceBasis of ``matrix``, read from ``path``, which its
    InvalidParameterError names."""
    from .subspace_metrics import RowSpaceBasis

    try:
        return RowSpaceBasis(matrix)
    except InvalidParameterError as exc:
        raise CliError(f"{path}: {exc}")


def cmd_distance(args) -> int:
    from .subspace_metrics import NOT_ORTHONORMAL, subspace_distance

    m = read_matrix_csv(args.m)
    m_hat = read_matrix_csv(args.m_hat)
    normalized = False
    if args.normalize_m:
        # Each row is first scaled by a power of two, which is exact, to a
        # largest entry in [0.5, 1), so that its squares cannot overflow.
        m = np.ldexp(m, -np.frexp(np.abs(m).max(axis=1, keepdims=True))[1])
        norms = np.sqrt(np.sum(m * m, axis=1, keepdims=True))
        if np.any(norms == 0):
            raise RankDeficientError("cannot normalize a zero row")
        m = m / norms
        normalized = True
    basis, basis_hat = _basis(args.m, m), _basis(args.m_hat, m_hat)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotOrthonormalWarning)
        d = subspace_distance(basis, basis_hat)
    if not basis_hat.orthonormal:
        print(f"warning: {NOT_ORTHONORMAL}", file=sys.stderr)
    record = {
        "d": d,
        "n": int(m.shape[1]),
        "rows_m": int(m.shape[0]),
        "rows_m_hat": int(m_hat.shape[0]),
        "normalized_m": normalized,
        "m_hat_orthonormal": basis_hat.orthonormal,
    }
    print(format_value(d))
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_subsample(args) -> int:
    from .simulation import rep_rng
    from .subspace_metrics import subspace_distance

    if args.reps < 1:
        raise CliError(f"--reps must be at least 1, got {args.reps}")
    fam = _family_from_args(args)
    if fam is None:
        raise CliError("--family is required")
    rank = _parse_rank(args.rank)
    cfg = _scaling(args.c_tilde, args.eta, args.scale, "scaling flags")
    data = _load_data(args.data, args.transpose).values
    m = read_matrix_csv(args.m)
    k_full, n = data.shape
    if m.shape[1] != n:
        raise CliError(f"M has {m.shape[1]} columns, data has {n}")
    k_grid = _parse_int_list(args.k_grid, "--k-grid", 1, k_full)
    # Every draw is a subset of the rows, so it is in support if the file is.
    check_support(fam, data)

    sums = needs_column_sums(fam)
    rows = []
    for ki, kv in enumerate(k_grid):
        dists = []
        for rep in range(args.reps):
            rng = rep_rng(args.seed, ki * args.reps + rep)
            idx = np.sort(rng.choice(k_full, size=kv, replace=False))
            moments = data_moments(data[idx, :], sums)
            dk = estimate_dk_qvf(moments, fam)
            est = estimate_latent_space(moments, dk, rank=rank, cfg=cfg)
            if est.is_empty:
                dists.append(float("nan"))
            else:
                dists.append(subspace_distance(m, est.m_hat))
        finite = [v for v in dists if np.isfinite(v)]
        med = median(finite) if finite else float("nan")
        rows.append([kv, med])

    out = Path(args.out)
    _write_table(out, ["k", "d_median"], rows)
    print(f"wrote {out}")
    return 0


def cmd_rank_sweep(args) -> int:
    from .subspace_metrics import subspace_distance

    fam = _family_from_args(args)
    if fam is None:
        raise CliError("--family is required")
    moments = _load_moments(args.data, args.transpose, fam)
    n = moments.n
    r_grid = _parse_int_list(args.r_grid, "--r-grid", 1, n)
    m = read_matrix_csv(args.m) if args.m else None
    if m is not None and m.shape[1] != n:
        raise CliError(f"M has {m.shape[1]} columns, data has {n}")

    dk = estimate_dk_qvf(moments, fam)
    eig = estimate_latent_space(moments, dk, rank=n).eigen

    rows = [[r, None if m is None
             else subspace_distance(m, eig.eigenvectors[:, :r].T)]
            for r in r_grid]

    out = Path(args.out)
    _write_table(out, ["r", "d"], rows)
    print(f"wrote {out}")
    return 0


def _add_scaling_flags(p) -> None:
    p.add_argument("--c-tilde", type=float, default=ScalingConfig.c_tilde,
                   help="rank threshold on the scaled eigenvalues")
    p.add_argument("--eta", type=float, default=ETA_DEFAULT,
                   help="decay exponent of the eigenvalue scale")
    p.add_argument("--scale", default="auto",
                   help="scale coefficient, a number or 'auto'")


def _add_family_flags(p) -> None:
    p.add_argument("--family", choices=FAMILY_KINDS,
                   help="observation family for the variance correction")
    p.add_argument("--s", type=float, default=None,
                   help="family parameter (trials, size, or shape)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentspec",
        description="Latent row-space estimation from second moments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate the latent space from a CSV matrix")
    p.add_argument("data", help="CSV matrix, rows = variables, columns = samples")
    _add_family_flags(p)
    p.add_argument("--leek", type=int, default=None, metavar="T",
                   help="pooled residual-variance correction with cut index T")
    p.add_argument("--dk-file", default=None,
                   help="CSV vector of explicit diagonal corrections")
    p.add_argument("--rank", default="auto", help="'auto' or 'fixed:R'")
    _add_scaling_flags(p)
    p.add_argument("--transpose", action="store_true",
                   help="input is samples x variables; transpose it")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("simulate", help="run seeded replication batches")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--full", action="store_true",
                   help="lift the desk-scale size guardrails")
    p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("distance", help="distance between two row-space bases")
    p.add_argument("m", help="reference basis CSV")
    p.add_argument("m_hat", help="estimated basis CSV (orthonormal rows)")
    p.add_argument("--normalize-m", action="store_true",
                   help="rescale reference rows to unit norm first")

    p = sub.add_parser("subsample",
                       help="distance-vs-rows convergence curve by row subsampling")
    p.add_argument("data", help="CSV matrix")
    p.add_argument("m", help="reference basis CSV")
    _add_family_flags(p)
    p.add_argument("--k-grid", required=True,
                   help="comma list (or a:b ranges) of row counts")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank", default="auto", help="'auto' or 'fixed:R'")
    _add_scaling_flags(p)
    p.add_argument("--transpose", action="store_true")
    p.add_argument("--out", default="curve.csv")

    p = sub.add_parser("rank-sweep",
                       help="distance versus forced rank, one estimate per rank")
    p.add_argument("data", help="CSV matrix")
    _add_family_flags(p)
    p.add_argument("--r-grid", required=True,
                   help="comma list (or a:b ranges) of forced ranks")
    p.add_argument("--m", default=None, help="reference basis CSV (optional)")
    p.add_argument("--transpose", action="store_true")
    p.add_argument("--out", default="rank_sweep.csv")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up at call time, not bound into the cached parser, so that a
    # rebound cmd_* function is the one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (SupportViolationError, OutOfSupportError, RankDeficientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SUPPORT
    except (CliError, LatentSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

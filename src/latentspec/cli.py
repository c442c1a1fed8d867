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
import json
import os
import sys
import warnings
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
from .matrix_core import DataMatrix
from .matrixio import format_value, read_matrix_csv, read_vector_csv, write_matrix_csv
from .nef_qvf import FAMILY_KINDS, Family, family_to_dict
from .simulation import (
    RNG_ALGORITHM,
    ScenarioConfig,
    rep_rng,
    run_replications,
)
from .subspace_metrics import subspace_distance
from .variance_estimation import (
    estimate_dk_leek,
    estimate_dk_qvf,
    explicit,
)

EXIT_PARSE = 2
EXIT_SUPPORT = 3
EXIT_DEGENERATE = 4

# Desk-scale guardrails; the full grid runs behind --full.
MAX_K_DEFAULT = 10_000
MAX_N_DEFAULT = 100
MAX_REPS_DEFAULT = 100


class CliError(Exception):
    """A bad flag or config value found by the command line itself."""


def _resolve_threads(value) -> int:
    return max(1, value if value is not None else os.cpu_count() or 1)


def _load_data(path, transpose=False) -> DataMatrix:
    """Read the data matrix and validate it once for every later stage."""
    arr = read_matrix_csv(path)
    try:
        return DataMatrix(arr.T if transpose else arr)
    except InvalidParameterError as exc:
        raise CliError(f"{path}: {exc}")


def _write_table(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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


def _scaling(c_tilde: float, eta: float, scale, scale_name: str) -> ScalingConfig:
    """Scaling from flags or a config; ``scale`` is 'auto' or a positive number."""
    if scale != "auto":
        try:
            number = float(scale)
        except (TypeError, ValueError):
            number = float("nan")
        if not number > 0:
            raise CliError(
                f"{scale_name} must be 'auto' or a positive number, got {scale!r}"
            )
        scale = number
    return ScalingConfig(c_tilde=c_tilde, eta=eta, scale_coefficient=scale)


def _scaling_from_args(args) -> ScalingConfig:
    return _scaling(args.c_tilde, args.eta, args.scale, "--scale")


def _config_number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise CliError(f"config {name} must be a number, got {value!r}")


def _config_int(value, name: str) -> int:
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise CliError(f"config {name} must be an integer, got {value!r}")


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
        out.extend(range(ends[0], ends[-1] + 1))
    if not out:
        raise CliError(f"{name} is empty")
    return out


def _variance_estimate(args, data) -> tuple:
    """Build the diagonal correction from the mutually exclusive flags."""
    chosen = [
        args.family is not None,
        args.leek is not None,
        args.dk_file is not None,
    ]
    if sum(chosen) != 1:
        raise CliError(
            "exactly one of --family, --leek, --dk-file is required"
        )
    if args.family is not None:
        fam = _family_from_args(args)
        return estimate_dk_qvf(data, fam), fam
    if args.leek is not None:
        return estimate_dk_leek(data, args.leek), None
    deltas = read_vector_csv(args.dk_file)
    n = data.values.shape[1]
    if deltas.shape[0] != n:
        raise CliError(
            f"--dk-file length {deltas.shape[0]} != column count {n}"
        )
    return explicit(deltas), None


def _rank_record(est, dk) -> dict:
    rec = {
        "r_hat": est.r_hat,
        "rank_mode": "auto" if est.fixed_rank is None else "fixed",
        "fixed_rank": est.fixed_rank,
        "dk_method": dk.method,
        "negative_flag": dk.negative_flag,
        "eigenvalues": [float(v) for v in est.eigen.eigenvalues],
    }
    if est.rank is not None:
        rank = est.rank
        rec.update(
            {
                "tau_tilde": rank.tau_tilde,
                "c_tilde": rank.threshold,
                "eta": rank.eta,
                "scale_coefficient": rank.scale_coefficient,
                "k": rank.k,
                "scaled_eigenvalues": [float(v) for v in rank.scaled_eigenvalues],
                "calibration": (
                    rank.calibration.to_dict() if rank.calibration else None
                ),
            }
        )
    return rec


def cmd_estimate(args) -> int:
    data = _load_data(args.data, args.transpose)
    k, n = data.values.shape
    if k <= n:
        print(
            f"warning: {k} rows <= {n} columns; more rows than columns "
            "is recommended",
            file=sys.stderr,
        )
    dk, fam = _variance_estimate(args, data)
    rank = _parse_rank(args.rank)
    cfg = _scaling_from_args(args)
    est = estimate_latent_space(data, dk, rank=rank, cfg=cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out / "m_hat.csv", est.m_hat.reshape(est.r_hat, n))
    write_matrix_csv(out / "eigenvalues.csv", est.eigen.eigenvalues)
    record = _rank_record(est, dk)
    record["family"] = family_to_dict(fam) if fam is not None else None
    (out / "rank.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n"
    )
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
    def listify(v):
        return v if isinstance(v, list) else [v]

    cells = []
    for scenario in listify(cfg["scenario"]):
        for n in listify(cfg["n"]):
            for k in listify(cfg["k"]):
                for r in listify(cfg["r"]):
                    cells.append(
                        {"scenario": scenario, "n": _config_int(n, "n"),
                         "k": _config_int(k, "k"), "r": _config_int(r, "r")}
                    )
    return cells


def cmd_simulate(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
    except ValueError as exc:  # bad JSON or bytes
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
    scaling = _scaling(
        _config_number(c_tilde, "scaling.c_tilde"),
        _config_number(eta, "scaling.eta"),
        scaling_cfg.get("scale", "auto"), "config scaling.scale",
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

    threads = _resolve_threads(args.threads)
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    rep_rows = []
    for cell in cells:
        sc = ScenarioConfig(
            scenario=cell["scenario"], n=cell["n"], k=cell["k"], r=cell["r"],
            reps=reps, seed=seed, scaling=scaling,
        )
        stats = run_replications(sc, threads=threads)
        summary_rows.append(
            [
                cell["scenario"], cell["n"], cell["k"], cell["r"], reps,
                stats.r_correct, stats.r_under, stats.r_over,
                stats.failed, stats.no_plateau,
                format_value(stats.d_median_fixed),
                format_value(stats.d_median_auto),
                format_value(stats.rho_median),
            ]
        )
        for rec in stats.records:
            rep_rows.append(
                [
                    cell["scenario"], cell["n"], cell["k"], cell["r"],
                    rec.rep_index,
                    "" if rec.r_hat is None else rec.r_hat,
                    "" if rec.d_fixed is None else format_value(rec.d_fixed),
                    "" if rec.d_auto is None else format_value(rec.d_auto),
                    "" if rec.rho is None else format_value(rec.rho),
                    "" if rec.scale_coefficient is None
                    else format_value(rec.scale_coefficient),
                    "" if rec.no_plateau is None else int(rec.no_plateau),
                    rec.error or "",
                ]
            )

    _write_table(
        out / "summary.csv",
        ["scenario", "n", "k", "r", "reps", "r_correct", "r_under", "r_over",
         "failed", "no_plateau", "d_median_fixed", "d_median_auto",
         "rho_median"],
        summary_rows,
    )
    _write_table(
        out / "reps.csv",
        ["scenario", "n", "k", "r", "rep", "r_hat", "d_fixed", "d_auto", "rho",
         "scale_coefficient", "no_plateau", "error"],
        rep_rows,
    )
    meta = {"rng": RNG_ALGORITHM, "seed": seed, "reps": reps, "config": cfg}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out / 'summary.csv'} ({len(summary_rows)} cells)")
    return 0


def cmd_distance(args) -> int:
    m = read_matrix_csv(args.m)
    m_hat = read_matrix_csv(args.m_hat)
    normalized = False
    if args.normalize_m:
        norms = np.sqrt(np.sum(m * m, axis=1, keepdims=True))
        if np.any(norms == 0):
            raise RankDeficientError("cannot normalize a zero row")
        m = m / norms
        normalized = True
    ortho = True
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = subspace_distance(m, m_hat)
        for w in caught:
            if issubclass(w.category, NotOrthonormalWarning):
                ortho = False
                print(f"warning: {w.message}", file=sys.stderr)
    record = {
        "d": d,
        "n": int(m.shape[1]),
        "rows_m": int(m.shape[0]),
        "rows_m_hat": int(m_hat.shape[0]),
        "normalized_m": normalized,
        "m_hat_orthonormal": ortho,
    }
    print(format_value(d))
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_subsample(args) -> int:
    if args.reps < 1:
        raise CliError(f"--reps must be at least 1, got {args.reps}")
    data = _load_data(args.data, args.transpose)
    m = read_matrix_csv(args.m)
    k_full, n = data.values.shape
    if m.shape[1] != n:
        raise CliError(f"M has {m.shape[1]} columns, data has {n}")
    k_grid = _parse_int_list(args.k_grid, "--k-grid", 1, k_full)
    fam = _family_from_args(args)
    if fam is None:
        raise CliError("--family is required")
    rank = _parse_rank(args.rank)
    cfg = _scaling_from_args(args)

    rows = []
    for ki, kv in enumerate(k_grid):
        dists = []
        for rep in range(args.reps):
            rng = rep_rng(args.seed, ki * args.reps + rep)
            idx = np.sort(rng.choice(k_full, size=kv, replace=False))
            sub = DataMatrix(data.values[idx, :])
            dk = estimate_dk_qvf(sub, fam)
            est = estimate_latent_space(sub, dk, rank=rank, cfg=cfg)
            if est.is_empty:
                dists.append(float("nan"))
            else:
                dists.append(subspace_distance(m, est.m_hat))
        finite = [v for v in dists if np.isfinite(v)]
        med = float(np.median(finite)) if finite else float("nan")
        rows.append([kv, format_value(med)])

    out = Path(args.out)
    _write_table(out, ["k", "d_median"], rows)
    print(f"wrote {out}")
    return 0


def cmd_rank_sweep(args) -> int:
    data = _load_data(args.data, args.transpose)
    n = data.values.shape[1]
    r_grid = _parse_int_list(args.r_grid, "--r-grid", 1, n)
    fam = _family_from_args(args)
    if fam is None:
        raise CliError("--family is required")
    m = read_matrix_csv(args.m) if args.m else None
    if m is not None and m.shape[1] != n:
        raise CliError(f"M has {m.shape[1]} columns, data has {n}")

    dk = estimate_dk_qvf(data, fam)
    eig = estimate_latent_space(data, dk, rank=n).eigen

    rows = []
    for r in r_grid:
        m_hat = eig.eigenvectors[:, :r].T
        if m is not None:
            rows.append([r, format_value(subspace_distance(m, m_hat))])
        else:
            rows.append([r, ""])

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
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="run seeded replication batches")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--full", action="store_true",
                   help="lift the desk-scale size guardrails")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("distance", help="distance between two row-space bases")
    p.add_argument("m", help="reference basis CSV")
    p.add_argument("m_hat", help="estimated basis CSV (orthonormal rows)")
    p.add_argument("--normalize-m", action="store_true",
                   help="rescale reference rows to unit norm first")
    p.set_defaults(func=cmd_distance)

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
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("rank-sweep",
                       help="distance versus forced rank, one estimate per rank")
    p.add_argument("data", help="CSV matrix")
    _add_family_flags(p)
    p.add_argument("--r-grid", required=True,
                   help="comma list (or a:b ranges) of forced ranks")
    p.add_argument("--m", default=None, help="reference basis CSV (optional)")
    p.add_argument("--transpose", action="store_true")
    p.add_argument("--out", default="rank_sweep.csv")
    p.set_defaults(func=cmd_rank_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SupportViolationError, OutOfSupportError, RankDeficientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SUPPORT
    except (CliError, LatentSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

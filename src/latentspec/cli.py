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
from .matrix_core import DataMatrix, Moments, cpu_count, data_moments, median
from .matrixio import (
    format_value,
    read_matrix_csv,
    read_moments_csv,
    read_vector_csv,
    write_matrix_csv,
)
from .nef_qvf import FAMILY_KINDS, Family, family_to_dict, in_support
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

    A plain file is reduced as it is parsed, and read whole again only to
    name the positions of a support violation.  Any other file, a
    transposed one, or one whose counts are too large for exact sums is
    read whole once.
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
    """A JSON number; strings and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"config {name} must be a number, got {value!r}")
    return float(value)


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
    chosen = [args.family, args.leek, args.dk_file]
    if sum(flag is not None for flag in chosen) != 1:
        raise CliError("exactly one of --family, --leek, --dk-file is required")
    fam = _family_from_args(args)
    moments = _load_moments(args.data, args.transpose, fam)
    k, n = moments.k, moments.n
    if k <= n:
        print(
            f"warning: {k} rows <= {n} columns; more rows than columns "
            "is recommended",
            file=sys.stderr,
        )
    dk = _variance_estimate(args, moments, fam)
    rank = _parse_rank(args.rank)
    cfg = _scaling_from_args(args)
    est = estimate_latent_space(moments, dk, rank=rank, cfg=cfg)

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
    from .simulation import RNG_ALGORITHM, ScenarioConfig, run_replications

    threads = _resolve_threads(args.threads)
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
    scale = scaling_cfg.get("scale", "auto")
    if scale != "auto":
        scale = _config_number(scale, "scaling.scale")
    scaling = _scaling(
        _config_number(c_tilde, "scaling.c_tilde"),
        _config_number(eta, "scaling.eta"),
        scale, "config scaling.scale",
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

    summary_rows = []
    rep_rows = []
    for sc in configs:
        stats = run_replications(sc, threads=threads)
        summary_rows.append(
            [
                sc.scenario, sc.n, sc.k, sc.r, reps,
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
                    sc.scenario, sc.n, sc.k, sc.r, rec.rep_index,
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
    from .subspace_metrics import subspace_distance

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
    from .simulation import rep_rng
    from .subspace_metrics import subspace_distance

    if args.reps < 1:
        raise CliError(f"--reps must be at least 1, got {args.reps}")
    data = _load_data(args.data, args.transpose).values
    m = read_matrix_csv(args.m)
    k_full, n = data.shape
    if m.shape[1] != n:
        raise CliError(f"M has {m.shape[1]} columns, data has {n}")
    k_grid = _parse_int_list(args.k_grid, "--k-grid", 1, k_full)
    fam = _family_from_args(args)
    if fam is None:
        raise CliError("--family is required")
    rank = _parse_rank(args.rank)
    cfg = _scaling_from_args(args)
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
        rows.append([kv, format_value(med)])

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


if __name__ == "__main__":
    sys.exit(main())

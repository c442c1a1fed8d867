"""Command line: parsing, outputs, exit codes, reproducibility."""

import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from family_helpers import ALL_FAMILIES
from hypothesis import given, settings
from hypothesis import strategies as st

import latentspec
from latentspec import cli, matrix_core, matrixio
from latentspec.cli import build_parser, main
from latentspec.errors import (
    LatentSpecError,
    OutOfSupportError,
    RankDeficientError,
    SupportViolationError,
)
from latentspec.latent_space import estimate_latent_space
from latentspec.matrixio import read_matrix_csv, write_matrix_csv
from latentspec.nef_qvf import Family, binomial, poisson
from latentspec.simulation import ScenarioConfig, generate_scenario, rep_rng
from latentspec.subspace_metrics import subspace_distance
from latentspec.variance_estimation import estimate_dk_qvf


@pytest.fixture
def poisson_fixture(tmp_path):
    """Seeded poisson draw (k=400, n=6, r=2) written as CSV files."""
    cfg = ScenarioConfig(scenario="poisson", n=6, k=400, r=2, reps=1, seed=5)
    draw = generate_scenario(cfg, 0)
    y_path = tmp_path / "y.csv"
    m_path = tmp_path / "m.csv"
    write_matrix_csv(y_path, draw.y.values)
    write_matrix_csv(m_path, draw.m)
    return draw, y_path, m_path


# --------------------------------------------------------------- csv round trip

def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 1e6, size=(17, 5)) * 10.0 ** rng.integers(-12, 12, (17, 5))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, a)
    back = read_matrix_csv(path)
    assert np.array_equal(a, back)


def test_csv_header_autodetect(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("alpha,beta\n1.0,2.0\n3.0,4.0\n")
    np.testing.assert_array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_ragged_rejected(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1.0,2.0\n3.0\n")
    from latentspec.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        read_matrix_csv(path)


def test_csv_vector_shapes(tmp_path):
    from latentspec.errors import InvalidParameterError
    from latentspec.matrixio import read_vector_csv

    row = tmp_path / "row.csv"
    row.write_text("1.0,2.0,3.0\n")
    np.testing.assert_array_equal(read_vector_csv(row), [1.0, 2.0, 3.0])
    col = tmp_path / "col.csv"
    col.write_text("1.0\n2.0\n3.0\n")
    np.testing.assert_array_equal(read_vector_csv(col), [1.0, 2.0, 3.0])
    full = tmp_path / "full.csv"
    full.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(InvalidParameterError):
        read_vector_csv(full)


def test_csv_write_bytes_pinned(tmp_path):
    path = tmp_path / "s.csv"
    write_matrix_csv(path, [[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 1.7976931348623157e308]])
    assert path.read_bytes() == (
        b"-0.00000000000000000e+00,nan,inf\n"
        b"-inf,4.94065645841246544e-324,1.79769313486231571e+308\n"
    )
    write_matrix_csv(path, [1.0, -2.5])
    assert path.read_bytes() == b"1.00000000000000000e+00\n-2.50000000000000000e+00\n"
    write_matrix_csv(path, np.zeros((0, 3)))
    assert path.read_bytes() == b""


@pytest.mark.parametrize("text, expected", [
    ('"1","2.5"\n3,"4"\n', [[1.0, 2.5], [3.0, 4.0]]),
    (" 1 ,\t2\n3\t, 4 \n", [[1.0, 2.0], [3.0, 4.0]]),
    ("\n1,2\n\n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
    (" \t\n1,2\n  \n3,4\n\t\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("\n \na,b\n \n1,2\n", [[1.0, 2.0]]),
    ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("\ufeff1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,\n3,4\n5,6\n", None),
    ("1,2\n3,\n", None),
    (",,\n1,2,3\n", None),
    ("1,2\n3,4,5\n", None),
    ("1,2\n3,x\n", None),
    ("a,b\n\n \n", None),
    ("", None),
])
def test_csv_accepts_and_rejects(tmp_path, text, expected):
    from latentspec.errors import InvalidParameterError

    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    if expected is None:
        with pytest.raises(InvalidParameterError, match="m.csv"):
            read_matrix_csv(path)
    else:
        np.testing.assert_array_equal(read_matrix_csv(path), expected)


@pytest.mark.parametrize("text, where", [
    ("a,b\n1,2\n3,x\n", "line 3: could not convert string 'x'"),
    ("\n1,2\n\n3,x\n", "line 4: could not convert string 'x'"),
    ("1,2\n3\n", "line 2 has 1 values, line 1 has 2"),
    ("1,2\r\n\r\n3,4,5\r\n", "line 3 has 3 values, line 1 has 2"),
    (" \n1,\n3,4\n", "line 2: could not convert string ''"),
])
def test_csv_error_names_file_line(tmp_path, text, where):
    from latentspec.errors import InvalidParameterError

    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    with pytest.raises(InvalidParameterError) as info:
        read_matrix_csv(path)
    assert where in str(info.value)
    assert "at row" not in str(info.value) and "usecols" not in str(info.value)


def test_estimate_rejects_first_row_with_empty_cell(tmp_path):
    # A row with an empty cell is bad data, not a header to skip.
    data = tmp_path / "y.csv"
    data.write_text("1,\n3,4\n5,6\n")
    rc = main(["estimate", str(data), "--family", "poisson",
               "--rank", "fixed:1", "--out", str(tmp_path / "out")])
    assert rc == 2


def test_estimate_undecodable_input_exits_2(tmp_path, capsys):
    data = tmp_path / "y.csv"
    data.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00\x81")
    rc = main(["estimate", str(data), "--family", "poisson",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.count(str(data)) == 1


# -------------------------------------------------------------------- estimate

def test_estimate_fixed_rank_contract(tmp_path):
    rng = np.random.default_rng(1)
    y = rng.poisson(6.0, size=(100, 4)).astype(float)
    data = tmp_path / "y.csv"
    write_matrix_csv(data, y)
    out = tmp_path / "out"
    rc = main(["estimate", str(data), "--family", "poisson",
               "--rank", "fixed:1", "--out", str(out)])
    assert rc == 0
    m_hat = read_matrix_csv(out / "m_hat.csv")
    assert m_hat.shape == (1, 4)
    assert np.linalg.norm(m_hat) == pytest.approx(1.0, abs=1e-10)
    eigs = read_matrix_csv(out / "eigenvalues.csv").reshape(-1)
    assert eigs.shape == (4,)
    assert np.all(np.diff(eigs) <= 0)


def test_estimate_auto_rank_record(tmp_path):
    rng = np.random.default_rng(2)
    y = rng.poisson(6.0, size=(100, 4)).astype(float)
    data = tmp_path / "y.csv"
    write_matrix_csv(data, y)
    out = tmp_path / "out"
    rc = main(["estimate", str(data), "--family", "poisson",
               "--rank", "auto", "--out", str(out)])
    assert rc in (0, 4)
    record = json.loads((out / "rank.json").read_text())
    scaled = record["scaled_eigenvalues"]
    assert scaled == sorted(scaled, reverse=True)
    count = sum(1 for v in scaled if v > record["c_tilde"])
    assert record["r_hat"] == count
    assert record["dk_method"] == "qvf:poisson"
    assert record["negative_flag"] is False


def test_estimate_records_negative_flag(tmp_path):
    # Column 3 holds only 0 and s, where the binomial variance is zero; the
    # correction there rounds to -1.87e-15.
    data = tmp_path / "y.csv"
    data.write_text("14,20,20\n6,14,20\n19,13,0\n")
    out = tmp_path / "out"
    main(["estimate", str(data), "--family", "binomial", "--s", "20",
          "--rank", "fixed:1", "--out", str(out)])
    record = json.loads((out / "rank.json").read_text())
    assert record["negative_flag"] is True


def test_estimate_matches_library(poisson_fixture, tmp_path):
    draw, y_path, _ = poisson_fixture
    out = tmp_path / "out"
    rc = main(["estimate", str(y_path), "--family", "poisson",
               "--rank", "auto", "--out", str(out)])
    assert rc == 0
    m_hat = read_matrix_csv(out / "m_hat.csv")
    dk = estimate_dk_qvf(draw.y, draw.family)
    est = estimate_latent_space(draw.y, dk, rank="auto")
    assert np.array_equal(m_hat, est.m_hat)


def test_estimate_known_rank_recovery(tmp_path):
    cfg = ScenarioConfig(scenario="poisson", n=6, k=10000, r=2, reps=1, seed=21)
    draw = generate_scenario(cfg, 0)
    data = tmp_path / "y.csv"
    write_matrix_csv(data, draw.y.values)
    out = tmp_path / "out"
    rc = main(["estimate", str(data), "--family", "poisson", "--out", str(out)])
    assert rc == 0
    record = json.loads((out / "rank.json").read_text())
    assert record["r_hat"] == 2


def test_estimate_exit_codes(tmp_path):
    data = tmp_path / "y.csv"
    write_matrix_csv(data, np.full((8, 3), -1.0))
    # support violation for poisson counts
    rc = main(["estimate", str(data), "--family", "poisson",
               "--out", str(tmp_path / "o1")])
    assert rc == 3
    # flag conflicts
    rc = main(["estimate", str(data), "--family", "poisson", "--leek", "1",
               "--out", str(tmp_path / "o2")])
    assert rc == 2
    rc = main(["estimate", str(data), "--out", str(tmp_path / "o3")])
    assert rc == 2
    # degenerate: all-zero data yields an empty subspace under auto rank
    zeros = tmp_path / "z.csv"
    write_matrix_csv(zeros, np.zeros((8, 3)))
    rc = main(["estimate", str(zeros), "--family", "poisson",
               "--out", str(tmp_path / "o4")])
    assert rc == 4
    assert (tmp_path / "o4" / "rank.json").exists()
    assert read_matrix_csv(tmp_path / "o4" / "eigenvalues.csv").shape == (3, 1)
    # unreadable input
    rc = main(["estimate", str(tmp_path / "missing.csv"), "--family",
               "poisson", "--out", str(tmp_path / "o5")])
    assert rc == 2


@pytest.mark.parametrize("flags", [["--family", "poisson"], ["--leek", "1"]])
@pytest.mark.parametrize("text, reason", [
    ("1\n2\n3\n", "at least 1 x 2"),
    ("1,2\nnan,3\n4,5\n", "non-finite"),
])
def test_estimate_invalid_data_matrix_exits_2(tmp_path, capsys, flags, text, reason):
    data = tmp_path / "y.csv"
    data.write_text(text)
    rc = main(["estimate", str(data), *flags, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(data) in err and reason in err


@pytest.mark.parametrize("flags", [
    ["--family", "poisson"], ["--family", "normal"], ["--leek", "2"],
])
def test_estimate_validates_data_once(poisson_fixture, tmp_path, monkeypatch, flags):
    # Validation is a full finiteness pass over the k x n matrix; the data
    # are wrapped once and every later stage reuses the DataMatrix.
    from latentspec import matrix_core

    names = []
    real = matrix_core._as_2d_float

    def spy(a, name="matrix"):
        names.append(name)
        return real(a, name)

    monkeypatch.setattr(matrix_core, "_as_2d_float", spy)
    _, y_path, _ = poisson_fixture
    rc = main(["estimate", str(y_path), *flags, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert names.count("data matrix") == 1


def test_estimate_leek_and_dk_file(tmp_path):
    rng = np.random.default_rng(3)
    y = rng.normal(size=(60, 5))
    data = tmp_path / "y.csv"
    write_matrix_csv(data, y)
    rc = main(["estimate", str(data), "--leek", "2", "--rank", "fixed:2",
               "--out", str(tmp_path / "o1")])
    assert rc == 0
    dkfile = tmp_path / "dk.csv"
    write_matrix_csv(dkfile, np.ones(5))
    rc = main(["estimate", str(data), "--dk-file", str(dkfile),
               "--rank", "fixed:2", "--out", str(tmp_path / "o2")])
    assert rc == 0


def test_estimate_transpose(tmp_path):
    rng = np.random.default_rng(4)
    y = rng.poisson(5.0, size=(50, 4)).astype(float)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_matrix_csv(a, y)
    write_matrix_csv(b, y.T)
    main(["estimate", str(a), "--family", "poisson", "--rank", "fixed:1",
          "--out", str(tmp_path / "oa")])
    main(["estimate", str(b), "--family", "poisson", "--rank", "fixed:1",
          "--transpose", "--out", str(tmp_path / "ob")])
    ma = read_matrix_csv(tmp_path / "oa" / "m_hat.csv")
    mb = read_matrix_csv(tmp_path / "ob" / "m_hat.csv")
    assert np.array_equal(ma, mb)


# ------------------------------------------------------- streamed plain files

ESTIMATE_FILES = ("m_hat.csv", "eigenvalues.csv", "rank.json")
FAMILY_FLAGS = {
    "normal": ["--family", "normal"],
    "poisson": ["--family", "poisson"],
    "binomial": ["--family", "binomial", "--s", "20"],
    "negbin": ["--family", "negbin", "--s", "10"],
    "gamma": ["--family", "gamma", "--s", "10"],
    "ghs": ["--family", "ghs", "--s", "2"],
}


def plain_text(y, header=False, final_newline=True) -> str:
    rows = [",".join(str(int(v)) for v in row) for row in y]
    if header:
        rows.insert(0, ",".join(f"s{j}" for j in range(y.shape[1])))
    return "\n".join(rows) + "\n" * final_newline


@pytest.fixture
def counts(tmp_path):
    """Rank-2 counts in 1..20, inside every family's support, written as a
    plain file and as the float parse's scientific notation."""
    rng = np.random.default_rng(11)
    theta = rng.uniform(0.2, 0.8, size=(300, 2)) @ rng.uniform(0.3, 0.6, size=(2, 5))
    y = np.maximum(rng.binomial(20, theta), 1).astype(float)
    plain = tmp_path / "plain.csv"
    plain.write_text(plain_text(y))
    other = tmp_path / "other.csv"
    write_matrix_csv(other, y)
    return y, plain, other


def run_cli(argv, out_dir, files=ESTIMATE_FILES):
    """Exit code and output bytes of one command writing into out_dir."""
    rc = main([*argv, "--out", str(out_dir)])
    return rc, {name: (out_dir / name).read_bytes() if (out_dir / name).exists()
                else None for name in files}


@pytest.fixture
def whole_reads(monkeypatch):
    """Paths read through the whole-matrix path, in call order."""
    paths = []
    real = cli._load_data

    def spy(path, transpose=False):
        paths.append(Path(path).name)
        return real(path, transpose)

    monkeypatch.setattr(cli, "_load_data", spy)
    return paths


@pytest.mark.parametrize("layout", ["plain", "bom-header-no-final-newline"])
@pytest.mark.parametrize("kind", list(FAMILY_FLAGS))
def test_streamed_estimate_bit_equal_to_whole_matrix(
        counts, tmp_path, monkeypatch, whole_reads, kind, layout):
    y, plain, other = counts
    if layout != "plain":
        plain.write_bytes(b"\xef\xbb\xbf"
                          + plain_text(y, header=True, final_newline=False).encode())
    monkeypatch.setattr(matrixio, "_BLOCK_BYTES", 1)  # one row per block
    flags = ["--rank", "auto", *FAMILY_FLAGS[kind]]
    got = run_cli(["estimate", str(plain), *flags], tmp_path / "a")
    assert whole_reads == []
    want = run_cli(["estimate", str(other), *flags], tmp_path / "b")
    assert whole_reads == ["other.csv"]
    assert got == want and got[0] in (0, 4)


@pytest.mark.parametrize("argv", [
    ["estimate", "{data}", "--leek", "3"],
    ["estimate", "{data}", "--dk-file", "{dk}", "--rank", "fixed:2"],
], ids=["leek", "dk-file"])
def test_streamed_leek_and_dk_file_bit_equal(counts, tmp_path, monkeypatch,
                                             whole_reads, argv):
    _, plain, other = counts
    dk = tmp_path / "dk.csv"
    write_matrix_csv(dk, np.full(5, 2.5))
    monkeypatch.setattr(matrixio, "_BLOCK_BYTES", 1)
    runs = [run_cli([a.format(data=data, dk=dk) for a in argv], tmp_path / name)
            for name, data in (("a", plain), ("b", other))]
    assert whole_reads == ["other.csv"]
    assert runs[0] == runs[1] and runs[0][0] in (0, 4)


def test_streamed_equals_transposed_whole_matrix(counts, tmp_path, whole_reads):
    y, plain, _ = counts
    flipped = tmp_path / "flipped.csv"
    flipped.write_text(plain_text(y.T))
    flags = ["--family", "poisson", "--rank", "auto"]
    got = run_cli(["estimate", str(plain), *flags], tmp_path / "a")
    want = run_cli(["estimate", str(flipped), "--transpose", *flags], tmp_path / "b")
    assert whole_reads == ["flipped.csv"]
    assert got == want and got[0] == 0


def test_streamed_rank_sweep_bit_equal(counts, tmp_path, whole_reads):
    _, plain, other = counts
    tables = []
    for data in (plain, other):
        out = tmp_path / f"sweep_{data.stem}.csv"
        assert main(["rank-sweep", str(data), "--family", "binomial", "--s", "20",
                     "--r-grid", "1:5", "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert whole_reads == ["other.csv"]
    assert tables[0] == tables[1]


def test_counts_beyond_exact_sums_fall_back_to_whole_matrix(counts, tmp_path,
                                                            whole_reads):
    # 300 * (10^14)^2 >= 2^53: the streamed sums could round, so the plain
    # file is read whole and summed as any other file.
    y, plain, other = counts
    y[7, 3] = 1e14
    plain.write_text(plain_text(y))
    write_matrix_csv(other, y)
    flags = ["--family", "poisson", "--rank", "fixed:2"]
    got = run_cli(["estimate", str(plain), *flags], tmp_path / "a")
    want = run_cli(["estimate", str(other), *flags], tmp_path / "b")
    assert whole_reads == ["plain.csv", "other.csv"]
    assert got == want and got[0] == 0


@pytest.mark.parametrize("kind, row, col, value", [
    ("binomial", 4, 2, 21), ("binomial", 299, 0, 25), ("gamma", 17, 1, 0),
])
def test_streamed_support_violation_names_positions(counts, tmp_path, capsys,
                                                    whole_reads, kind, row, col,
                                                    value):
    y, plain, other = counts
    y[row, col] = value
    plain.write_text(plain_text(y))
    write_matrix_csv(other, y)
    errors = []
    for data in (plain, other):
        rc = main(["estimate", str(data), *FAMILY_FLAGS[kind],
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        errors.append(capsys.readouterr().err)
    # The streamed Moments hold no positions; the file is read again whole.
    assert whole_reads.count("plain.csv") == 1
    assert errors[0] == errors[1] == (
        f"error: 1 entries outside the {kind} support, "
        f"first at (row, col) ({row}, {col})\n")


def test_support_violation_in_whole_file_parses_it_once(counts, tmp_path, capsys,
                                                      monkeypatch):
    # The matrix in hand names the positions; the file is not parsed again.
    y, _, other = counts
    y[40, 3] = 0.5
    write_matrix_csv(other, y)
    calls = []
    real = matrixio._loadtxt

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(matrixio, "_loadtxt", spy)
    assert main(["estimate", str(other), "--family", "poisson",
                 "--out", str(tmp_path / "out")]) == 3
    assert len(calls) == 1
    assert capsys.readouterr().err == (
        "error: 1 entries outside the poisson support, first at (row, col) (40, 3)\n")


def test_streamed_one_column_file_exits_2(tmp_path, capsys, monkeypatch, started):
    # The last file is cut into two row ranges, and its error still names
    # all of its rows.
    errors = []
    for name, text in (("plain.csv", "1\n2\n3\n"), ("other.csv", "1.0\n2.0\n3.0\n"),
                       ("split.csv", "1\n2\n3\n")):
        if name == "split.csv":
            monkeypatch.setattr(matrixio, "_RANGE_MIN_BYTES", 2)
            monkeypatch.setattr(matrixio, "cpu_count", lambda: 2)
        data = tmp_path / name
        data.write_text(text)
        assert main(["estimate", str(data), "--family", "poisson",
                     "--out", str(tmp_path / "out")]) == 2
        errors.append(capsys.readouterr().err.replace(str(data), "DATA"))
    assert len(started) == 1
    assert errors[0] == errors[1] == errors[2] == (
        "error: DATA: data matrix must be at least 1 x 2, got (3, 1)\n")


@pytest.mark.parametrize("name", ["plain", "other"])
def test_leek_estimate_builds_one_gram(counts, tmp_path, monkeypatch, name):
    # Each Moments holds the one gram that the pooled variance and the
    # adjusted gram both read; two eigensolves stay.
    from latentspec import latent_space, matrix_core, variance_estimation

    built, solved = [], []
    real_init = matrix_core.Moments.__init__
    real_eigen = matrix_core.sym_eigen

    def init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    def eigen(a):
        solved.append(1)
        return real_eigen(a)

    monkeypatch.setattr(matrix_core.Moments, "__init__", init)
    monkeypatch.setattr(latent_space, "sym_eigen", eigen)
    monkeypatch.setattr(variance_estimation, "sym_eigen", eigen)
    data = counts[1] if name == "plain" else counts[2]
    rc = main(["estimate", str(data), "--leek", "3", "--out", str(tmp_path / "o")])
    assert rc in (0, 4)
    assert (len(built), len(solved)) == (1, 2)


def test_estimate_bit_equal_on_one_and_three_cpus(tmp_path, monkeypatch, started):
    # Over 3 ranges of the default minimum, so three CPUs give three ranges.
    rng = np.random.default_rng(12)
    theta = rng.uniform(1, 3, size=(110_000, 2)) @ rng.uniform(0.2, 1, size=(2, 16))
    y = rng.poisson(theta)
    data = tmp_path / "tall.csv"
    data.write_text(plain_text(y))
    assert data.stat().st_size >= 3 * matrixio._RANGE_MIN_BYTES
    runs = []
    for cpus in (1, 3):
        monkeypatch.setattr(matrixio, "cpu_count", lambda: cpus)
        runs.append(run_cli(["estimate", str(data), "--family", "poisson",
                             "--rank", "auto"], tmp_path / f"cpus{cpus}"))
    assert len(started) == 2
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_file_below_range_minimum_starts_no_pool(counts, tmp_path, monkeypatch,
                                                 started):
    _, plain, _ = counts
    assert plain.stat().st_size < 2 * matrixio._RANGE_MIN_BYTES
    monkeypatch.setattr(matrixio, "cpu_count", lambda: 4)
    assert main(["estimate", str(plain), "--family", "poisson",
                 "--out", str(tmp_path / "o")]) == 0
    assert started == []


# -------------------------------------------------------------------- distance

def test_distance_identical(tmp_path, capsys):
    m = np.eye(3)[:2]
    p1 = tmp_path / "m1.csv"
    p2 = tmp_path / "m2.csv"
    write_matrix_csv(p1, m)
    write_matrix_csv(p2, m)
    rc = main(["distance", str(p1), str(p2)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[0]) == 0.0
    record = json.loads(lines[1])
    assert record["d"] == 0.0 and record["m_hat_orthonormal"]


def test_distance_orthogonal_axes(tmp_path, capsys):
    p1 = tmp_path / "m1.csv"
    p2 = tmp_path / "m2.csv"
    write_matrix_csv(p1, np.array([[1.0, 0.0]]))
    write_matrix_csv(p2, np.array([[0.0, 1.0]]))
    rc = main(["distance", str(p1), str(p2)])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert float(out[0]) == pytest.approx(1.0, abs=1e-12)


def test_distance_matches_library(poisson_fixture, tmp_path, capsys):
    draw, y_path, m_path = poisson_fixture
    out = tmp_path / "out"
    main(["estimate", str(y_path), "--family", "poisson", "--rank", "fixed:2",
          "--out", str(out)])
    capsys.readouterr()
    rc = main(["distance", str(m_path), str(out / "m_hat.csv")])
    assert rc == 0
    got = float(capsys.readouterr().out.strip().splitlines()[0])
    dk = estimate_dk_qvf(draw.y, draw.family)
    est = estimate_latent_space(draw.y, dk, rank=2)
    want = subspace_distance(draw.m, est.m_hat)
    assert got == pytest.approx(want, abs=1e-12)


def test_distance_normalize_m(tmp_path, capsys):
    rng = np.random.default_rng(5)
    m = rng.uniform(1.0, 3.0, size=(2, 5))
    scaled = m * np.array([[7.0], [0.3]])
    norm = m / np.linalg.norm(m, axis=1, keepdims=True)
    q, _ = np.linalg.qr(m.T)
    m_hat = q[:, :2].T
    p_scaled = tmp_path / "ms.csv"
    p_norm = tmp_path / "mn.csv"
    p_hat = tmp_path / "mh.csv"
    write_matrix_csv(p_scaled, scaled)
    write_matrix_csv(p_norm, norm)
    write_matrix_csv(p_hat, m_hat)
    main(["distance", str(p_scaled), str(p_hat), "--normalize-m"])
    d1 = float(capsys.readouterr().out.strip().splitlines()[0])
    main(["distance", str(p_norm), str(p_hat)])
    d2 = float(capsys.readouterr().out.strip().splitlines()[0])
    assert d1 == pytest.approx(d2, abs=1e-14)
    # Scaling rows by a power of two is exact, so rows past 1e154, whose
    # squares overflow, normalize to the same bits.
    write_matrix_csv(p_scaled, scaled * 2.0 ** 600)
    assert main(["distance", str(p_scaled), str(p_hat), "--normalize-m"]) == 0
    assert float(capsys.readouterr().out.strip().splitlines()[0]) == d1


@pytest.mark.parametrize("overflowing", ["m", "m_hat"])
def test_distance_overflowing_basis_exits_2(tmp_path, capsys, overflowing):
    # One error line that names the file whose B B^T overflows, and no
    # RuntimeWarning, which the command would no longer hide.
    paths = {"m": tmp_path / "m.csv", "m_hat": tmp_path / "m_hat.csv"}
    for name, path in paths.items():
        path.write_text("3e200,1e200\n" if name == overflowing else "0.6,0.8\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["distance", str(paths["m"]), str(paths["m_hat"])]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {paths[overflowing]}: ") and "overflows" in line


def test_distance_rank_deficient_exit(tmp_path):
    p1 = tmp_path / "m1.csv"
    p2 = tmp_path / "m2.csv"
    write_matrix_csv(p1, np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]))
    write_matrix_csv(p2, np.eye(3)[:2])
    assert main(["distance", str(p1), str(p2)]) == 3


# -------------------------------------------------------------------- simulate

def write_sim_config(tmp_path, **overrides):
    cfg = {
        "scenario": "poisson",
        "n": 6,
        "k": [300, 600],
        "r": 2,
        "reps": 4,
        "seed": 9,
        "scaling": {"c_tilde": 1.0, "eta": 1.0 / 3.0, "scale": "auto"},
        "rank_mode": "auto",
        "output_dir": str(tmp_path / "sim"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_simulate_outputs_and_rerun_identical(tmp_path):
    path, cfg = write_sim_config(tmp_path)
    assert main(["simulate", str(path), "--threads", "2"]) == 0
    out = tmp_path / "sim"
    first = {
        name: (out / name).read_bytes()
        for name in ("summary.csv", "reps.csv", "meta.json")
    }
    assert main(["simulate", str(path), "--threads", "1"]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_simulate_takes_integral_floats_as_integers(tmp_path):
    # A float with an integral value, such as 6.0, is taken as that integer,
    # as README promises: the tables, seed and reps are the integer config's.
    outputs = []
    for name, sizes in [("ints", {}), ("floats", {"n": 6.0, "k": [300.0, 600],
                                                  "r": 2.0, "reps": 4.0, "seed": 9.0})]:
        (tmp_path / name).mkdir()
        path, _ = write_sim_config(tmp_path / name, **sizes)
        assert main(["simulate", str(path)]) == 0
        out = tmp_path / name / "sim"
        meta = json.loads((out / "meta.json").read_text())
        outputs.append([(out / table).read_bytes() for table in ("summary.csv", "reps.csv")]
                       + [json.dumps({key: meta[key] for key in ("seed", "reps")})])
    assert outputs[1] == outputs[0]
    assert outputs[0][2] == '{"seed": 9, "reps": 4}'


def test_simulate_defaults_are_the_scenario_config_defaults(tmp_path):
    path, cfg = write_sim_config(tmp_path, k=50)
    del cfg["reps"], cfg["seed"]
    path.write_text(json.dumps(cfg))
    assert main(["simulate", str(path)]) == 0
    meta = json.loads((tmp_path / "sim" / "meta.json").read_text())
    default = ScenarioConfig("poisson", n=6, k=50, r=2)
    assert (meta["seed"], meta["reps"]) == (default.seed, default.reps) == (0, 50)


@pytest.mark.parametrize("scaling", [None, {}, {"c_tilde": 1, "note": "x"},
                                     {"eta": 1.0 / 3.0, "scale": "auto"}],
                         ids=["absent", "empty", "c-tilde-only", "eta-and-scale"])
def test_simulate_scaling_keys_default_to_scaling_config(tmp_path, scaling):
    # Each scaling key the config leaves out takes ScalingConfig's default,
    # and a key ScalingConfig has no field for is not read.
    outputs = []
    for name, given in [("full", {"c_tilde": 1.0, "eta": 1.0 / 3.0, "scale": "auto"}),
                        ("part", scaling)]:
        path, cfg = write_sim_config(tmp_path, k=300, output_dir=str(tmp_path / name))
        if given is None:
            del cfg["scaling"]
        else:
            cfg["scaling"] = given
        path.write_text(json.dumps(cfg))
        assert main(["simulate", str(path)]) == 0
        outputs.append([(tmp_path / name / f).read_bytes()
                        for f in ("summary.csv", "reps.csv")])
    assert outputs[0] == outputs[1]


def test_estimate_scaling_flags_default_to_scaling_config(tmp_path, poisson_fixture):
    _, y_path, _ = poisson_fixture
    argv = ["estimate", str(y_path), "--family", "poisson"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--c-tilde", "1", "--eta", repr(1.0 / 3.0), "--scale", "auto",
                        "--out", str(tmp_path / "b")]) == 0
    for name in ("rank.json", "m_hat.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_summary_matches_library(tmp_path):
    path, cfg = write_sim_config(tmp_path, k=500)
    assert main(["simulate", str(path)]) == 0
    summary = (tmp_path / "sim" / "summary.csv").read_text().splitlines()
    header = summary[0].split(",")
    row = dict(zip(header, summary[1].split(",")))
    from latentspec.simulation import run_replications

    stats = run_replications(
        ScenarioConfig(scenario="poisson", n=6, k=500, r=2, reps=4, seed=9)
    )
    assert int(row["r_correct"]) == stats.r_correct
    assert float(row["d_median_fixed"]) == stats.d_median_fixed
    assert float(row["rho_median"]) == stats.rho_median


def _simulate_with_failed_rep(tmp_path, monkeypatch):
    """Simulate a gamma k=2 cell whose replication 2 raises "boom"; at k=2
    most gamma replications find no calibration plateau."""
    import latentspec.simulation as sim

    real = sim._replication_moments

    def flaky(cfg, rep_index, buf):
        if rep_index == 2:
            raise ValueError("boom")
        return real(cfg, rep_index, buf)

    monkeypatch.setattr(sim, "_replication_moments", flaky)
    path, _ = write_sim_config(tmp_path, scenario="gamma", k=2)
    assert main(["simulate", str(path)]) == 0


def test_simulate_summary_counts_failed_reps(tmp_path, monkeypatch):
    _simulate_with_failed_rep(tmp_path, monkeypatch)
    with open(tmp_path / "sim" / "summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    with open(tmp_path / "sim" / "reps.csv", newline="") as fh:
        reps = list(csv.DictReader(fh))
    assert int(row["failed"]) == 1
    counts = ("r_correct", "r_under", "r_over", "failed")
    assert sum(int(row[c]) for c in counts) == 4
    no_plateau = sum(r["no_plateau"] == "1" for r in reps)
    assert int(row["no_plateau"]) == no_plateau >= 1


RANK_KEYS = {"r_hat", "rank_mode", "fixed_rank", "dk_method", "negative_flag",
             "eigenvalues", "family"}
AUTO_RANK_KEYS = RANK_KEYS | {"tau_tilde", "c_tilde", "eta", "scale_coefficient",
                              "k", "scaled_eigenvalues", "calibration"}
CALIBRATION_KEYS = {"grid", "rank_counts", "anchor", "chosen", "plateau_rank",
                    "plateau_bounds", "no_plateau"}


def test_output_formats(tmp_path, monkeypatch, poisson_fixture):
    # The exact header lines of both simulate tables, a failed replication's
    # row, the 0/1 of no_plateau and the rank.json key sets, which readers
    # of these files rely on.
    _simulate_with_failed_rep(tmp_path, monkeypatch)
    summary = (tmp_path / "sim" / "summary.csv").read_text().splitlines()
    assert summary[0] == ("scenario,n,k,r,reps,r_correct,r_under,r_over,failed,"
                          "no_plateau,d_median_fixed,d_median_auto,rho_median")
    assert summary[1].startswith("gamma,6,2,2,4,")
    reps = (tmp_path / "sim" / "reps.csv").read_text().splitlines()
    assert reps[0] == ("scenario,n,k,r,rep,r_hat,d_fixed,d_auto,rho,"
                       "scale_coefficient,no_plateau,error")
    assert reps[3] == "gamma,6,2,2,2,,,,,,,ValueError: boom"
    ok = [line.split(",") for line in reps[1:] if not line.endswith("boom")]
    assert [row[4] for row in ok] == ["0", "1", "3"]
    assert {row[10] for row in ok} <= {"0", "1"} and "1" in {row[10] for row in ok}
    assert all(row[11] == "" for row in ok)
    # Floats are written with FLOAT_FORMAT, integers as they are.
    assert all(cell == matrixio.format_value(float(cell)) for row in ok
               for cell in row[6:10])
    assert all(row[5] == str(int(row[5])) for row in ok)

    _, y_path, _ = poisson_fixture
    for flags, keys, calibrated, mode, fixed in [
            (["--rank", "fixed:2"], RANK_KEYS, None, "fixed", 2),
            (["--rank", "auto"], AUTO_RANK_KEYS, True, "auto", None),
            (["--scale", "3"], AUTO_RANK_KEYS, False, "auto", None)]:
        out = tmp_path / "_".join(flags)
        assert main(["estimate", str(y_path), "--family", "poisson", *flags,
                     "--out", str(out)]) in (0, 4)
        record = json.loads((out / "rank.json").read_text())
        assert set(record) == keys
        assert (record["rank_mode"], record["fixed_rank"]) == (mode, fixed)
        if calibrated is not None:
            assert isinstance(record["scaled_eigenvalues"], list)
            assert (record["calibration"] is not None) == calibrated
        if calibrated:
            assert set(record["calibration"]) == CALIBRATION_KEYS


def test_simulate_guardrails(tmp_path):
    path, _ = write_sim_config(tmp_path, k=20000)
    assert main(["simulate", str(path)]) == 2


SCALE_ERROR = "scale_coefficient must be finite and positive, or 'auto'"


@pytest.mark.parametrize("value, got, text", [
    ("-1", "-1.0", "-1"), ("0", "0.0", "0"), ("nan", "nan", "NaN"),
    ("inf", "inf", "Infinity"), ("abc", "'abc'", '"abc"'),
], ids=["-1--1", "0-0", "nan-NaN", "inf-Infinity", "abc"])
def test_bad_scale_prints_one_message(tmp_path, capsys, poisson_fixture,
                                      value, got, text):
    # ScalingConfig is the one home of the rule, and names the value it
    # rejects, as the flag's text parsed or the config's JSON value; the
    # command line only names where the values came from.  A config holding
    # NaN or Infinity is not read at all, as no config number may be
    # non-finite.
    _, y_path, _ = poisson_fixture
    assert main(["estimate", str(y_path), "--family", "poisson", "--scale",
                 value, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: scaling flags: {SCALE_ERROR}, got {got}"]
    path, cfg = write_sim_config(tmp_path)
    path.write_text(json.dumps(cfg).replace('"scale": "auto"', f'"scale": {text}'))
    assert main(["simulate", str(path)]) == 2
    want = {"-1": f"error: config scaling: {SCALE_ERROR}, got -1",
            "0": f"error: config scaling: {SCALE_ERROR}, got 0",
            "abc": f"error: config scaling: {SCALE_ERROR}, got 'abc'",
            }.get(value, f"error: cannot read config {path}: number {text} is not finite")
    assert capsys.readouterr().err.splitlines() == [want]
    assert not (tmp_path / "o").exists() and not (tmp_path / "sim").exists()


@pytest.mark.parametrize("overrides, code", [
    ({"n": 101}, 2),
    ({"k": 10001}, 2),
    ({"reps": 101}, 2),
    ({"n": 100, "k": 300, "r": 2, "reps": 1}, 0),
    ({"k": 10000, "reps": 1}, 0),
    ({"k": 300, "reps": 100}, 0),
], ids=["n-101", "k-10001", "reps-101", "n-100", "k-10000", "reps-100"])
def test_simulate_guardrail_edges(tmp_path, overrides, code):
    path, _ = write_sim_config(tmp_path, **overrides)
    assert main(["simulate", str(path)]) == code
    assert (tmp_path / "sim").exists() == (code == 0)


def test_simulate_full_flag_lifts_guardrail(tmp_path):
    path, _ = write_sim_config(tmp_path, k=12000, reps=2)
    assert main(["simulate", str(path)]) == 2
    assert main(["simulate", str(path), "--full", "--threads", "2"]) == 0
    assert (tmp_path / "sim" / "summary.csv").exists()


def test_simulate_bad_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", str(path)]) == 2
    path.write_text(json.dumps({"scenario": "poisson"}))
    assert main(["simulate", str(path)]) == 2


@pytest.mark.parametrize("field, value", [
    ("scale", "abc"),
    ("eta", "abc"),
    ("c_tilde", [1.0]),
    ("reps", "abc"),
    ("reps", 2.5),
    ("seed", "abc"),
    ("n", "abc"),
    ("k", [300, "x"]),
    ("r", None),
    ("scenario", [["poisson"]]),
    ("output_dir", 5),
    ("seed", -1),
    ("seed", 2 ** 64),
    ("k", "50"),
    ("seed", False),
    ("reps", "2"),
    ("c_tilde", "2"),
    ("eta", True),
    ("scale", "1.5"),
    ("scenario", []),
    ("n", []),
    ("k", []),
    ("r", []),
])
def test_simulate_malformed_field_exits_2(tmp_path, capsys, field, value):
    if field in ("scale", "eta", "c_tilde"):
        path, _ = write_sim_config(tmp_path, scaling={field: value})
    else:
        path, _ = write_sim_config(tmp_path, **{field: value})
    assert main(["simulate", str(path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("k", -5), ("scenario", "poison"),
                                          ("k", [300, -5])])
def test_simulate_bad_cell_writes_nothing(tmp_path, capsys, field, value):
    # Every cell is checked before the output directory is made.
    path, cfg = write_sim_config(tmp_path, **{field: value})
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not Path(cfg["output_dir"]).exists()


def test_simulate_threads_invariant_at_threaded_lapack_size(tmp_path):
    # n=300 is large enough for a threaded LAPACK path, which the n <= 10
    # tests above never reach.  BLAS threads stay fixed at 2; only --threads
    # varies, so every output must match byte for byte.
    cfg = {
        "scenario": ["normal", "poisson", "binomial", "negbin", "gamma"],
        "n": 300,
        "k": 1000,
        "r": 3,
        "reps": 2,
        "seed": 11,
        "output_dir": str(tmp_path / "sim"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    src = str(Path(latentspec.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    outputs = []
    for threads in ("1", "2"):
        subprocess.run(
            [sys.executable, "-m", "latentspec.cli", "simulate", str(path),
             "--full", "--threads", threads],
            env=env, check=True, capture_output=True,
        )
        outputs.append({
            name: (tmp_path / "sim" / name).read_bytes()
            for name in ("summary.csv", "reps.csv", "meta.json")
        })
    assert outputs[0] == outputs[1]
    rows = csv.DictReader(outputs[0]["reps.csv"].decode().splitlines())
    assert [row["error"] for row in rows] == [""] * 10


# -------------------------------------------------------------------- subsample

def test_subsample_degenerate_grid_matches_composition(poisson_fixture, tmp_path, capsys):
    draw, y_path, m_path = poisson_fixture
    curve = tmp_path / "curve.csv"
    rc = main(["subsample", str(y_path), str(m_path), "--family", "poisson",
               "--k-grid", "400", "--reps", "1", "--seed", "3",
               "--rank", "fixed:2", "--out", str(curve)])
    assert rc == 0
    k_val, d_val = read_matrix_csv(curve)[0]
    assert k_val == 400
    out = tmp_path / "est"
    main(["estimate", str(y_path), "--family", "poisson", "--rank", "fixed:2",
          "--out", str(out)])
    capsys.readouterr()
    main(["distance", str(m_path), str(out / "m_hat.csv")])
    d_ref = float(capsys.readouterr().out.strip().splitlines()[0])
    assert d_val == pytest.approx(d_ref, abs=1e-15)


def test_subsample_median_curve_non_increasing(tmp_path):
    cfg = ScenarioConfig(scenario="poisson", n=6, k=8000, r=2, reps=1, seed=23)
    draw = generate_scenario(cfg, 0)
    y_path = tmp_path / "y.csv"
    m_path = tmp_path / "m.csv"
    write_matrix_csv(y_path, draw.y.values)
    write_matrix_csv(m_path, draw.m)
    curve = tmp_path / "curve.csv"
    rc = main(["subsample", str(y_path), str(m_path), "--family", "poisson",
               "--k-grid", "500,2000,8000", "--reps", "10", "--seed", "1",
               "--rank", "fixed:2", "--out", str(curve)])
    assert rc == 0
    d = read_matrix_csv(curve)[:, 1]
    assert d[0] >= d[1] >= d[2]


def test_subsample_deterministic(poisson_fixture, tmp_path):
    _, y_path, m_path = poisson_fixture
    c1 = tmp_path / "c1.csv"
    c2 = tmp_path / "c2.csv"
    for out in (c1, c2):
        rc = main(["subsample", str(y_path), str(m_path), "--family", "poisson",
                   "--k-grid", "100,200", "--reps", "5", "--seed", "77",
                   "--out", str(out)])
        assert rc == 0
    assert c1.read_bytes() == c2.read_bytes()


@pytest.mark.parametrize("k_grid, drawn", [("20", False), ("399", True)])
def test_subsample_support_violation_names_file_row(poisson_fixture, tmp_path,
                                                     capsys, k_grid, drawn):
    # The whole file is checked before any draw, so the bad entry is found
    # whether or not the draw holds its row, and is named at its file row:
    # the 399-row draw leaves out row 371, so it holds row 380 at 379.
    draw, y_path, m_path = poisson_fixture
    y = draw.y.values.copy()
    y[380, 2] = 2.5
    write_matrix_csv(y_path, y)
    idx = rep_rng(3, 0).choice(400, size=int(k_grid), replace=False)
    assert (380 in idx) == drawn
    rc = main(["subsample", str(y_path), str(m_path), "--family", "poisson",
               "--k-grid", k_grid, "--reps", "1", "--seed", "3",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: 1 entries outside the poisson support, first at (row, col) (380, 2)\n")
    assert not (tmp_path / "c.csv").exists()


def test_subsample_k_too_large(poisson_fixture, tmp_path):
    _, y_path, m_path = poisson_fixture
    rc = main(["subsample", str(y_path), str(m_path), "--family", "poisson",
               "--k-grid", "401", "--reps", "2", "--out",
               str(tmp_path / "c.csv")])
    assert rc == 2


# ------------------------------------------------------------------- rank sweep

def test_rank_sweep_minimum_at_true_rank(tmp_path):
    cfg = ScenarioConfig(scenario="poisson", n=12, k=4000, r=5, reps=1, seed=31)
    draw = generate_scenario(cfg, 0)
    y_path = tmp_path / "y.csv"
    m_path = tmp_path / "m.csv"
    write_matrix_csv(y_path, draw.y.values)
    write_matrix_csv(m_path, draw.m)
    out = tmp_path / "sweep.csv"
    rc = main(["rank-sweep", str(y_path), "--family", "poisson",
               "--r-grid", "1:10", "--m", str(m_path), "--out", str(out)])
    assert rc == 0
    table = read_matrix_csv(out)
    assert table.shape == (10, 2)
    assert int(table[np.argmin(table[:, 1]), 0]) == 5


def test_rank_sweep_full_space(tmp_path):
    rng = np.random.default_rng(6)
    y = rng.poisson(5.0, size=(80, 4)).astype(float)
    y_path = tmp_path / "y.csv"
    write_matrix_csv(y_path, y)
    out = tmp_path / "sweep.csv"
    rc = main(["rank-sweep", str(y_path), "--family", "poisson",
               "--r-grid", "4", "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1].startswith("4,")


def test_rank_sweep_noiseless_rank_one(tmp_path):
    rng = np.random.default_rng(7)
    theta = rng.normal(size=(200, 1)) @ rng.uniform(1.0, 2.0, size=(1, 5))
    y_path = tmp_path / "y.csv"
    m_path = tmp_path / "m.csv"
    write_matrix_csv(y_path, theta)
    write_matrix_csv(m_path, theta[:1] / np.linalg.norm(theta[0]))
    out = tmp_path / "sweep.csv"
    # Normal-family correction is a constant diagonal shift, which leaves
    # eigenvectors of the adjusted gram unchanged.
    rc = main(["rank-sweep", str(y_path), "--family", "normal",
               "--r-grid", "1", "--m", str(m_path), "--out", str(out)])
    assert rc == 0
    assert read_matrix_csv(out)[0, 1] <= 1e-6


@pytest.mark.parametrize("text, bad", [("1:3000000", 3000000), ("0:2", 0),
                                       ("2,9", 9)])
def test_parse_int_list_checks_bounds_before_expanding(text, bad):
    assert cli._parse_int_list("1:3, 5", "--r-grid", 1, 5) == [1, 2, 3, 5]
    with pytest.raises(cli.CliError, match=f"--r-grid value {bad} outside"):
        cli._parse_int_list(text, "--r-grid", 1, 5)


def test_parse_int_list_rejects_a_reversed_range():
    # A range whose ends are reversed would expand to nothing.
    assert cli._parse_int_list("3:3", "--k-grid", 1, 5) == [3]
    with pytest.raises(cli.CliError, match="--k-grid range '5:3' runs backwards"):
        cli._parse_int_list("1, 5:3", "--k-grid", 1, 5)


@dataclass(frozen=True)
class _Inner:
    values: np.ndarray
    bounds: tuple[float, float] | None


@dataclass(frozen=True)
class _Outer:
    count: int
    inner: _Inner
    missing: _Inner | None = None


def test_json_value_writes_a_nested_record_as_its_fields():
    # A record with no serializer of its own, nested in another, is the
    # object of its fields, and each array in it is a list.
    record = _Outer(count=2, inner=_Inner(np.array([0.5, 2.0]), (1.0, 3.0)))
    assert cli._json_value(record) == {
        "count": 2, "inner": {"values": [0.5, 2.0], "bounds": (1.0, 3.0)},
        "missing": None}
    assert json.loads(json.dumps(cli._json_value(record))) == {
        "count": 2, "inner": {"values": [0.5, 2.0], "bounds": [1.0, 3.0]},
        "missing": None}


def test_family_serialization_round_trip():
    for f in ALL_FAMILIES:
        d = cli._family_record(f)
        assert Family(d["family"], d.get("s")) == f
    assert cli._family_record(binomial(20)) == {"family": "binomial", "s": 20}
    assert cli._family_record(poisson()) == {"family": "poisson"}


# ------------------------------------------------------------------- exit codes

@pytest.fixture
def exit_case_files(tmp_path):
    """Small inputs for the exit-code table; ``file`` is a regular file."""
    rng = np.random.default_rng(8)
    files = {
        "y": rng.poisson(5.0, size=(40, 4)).astype(float),
        "m": np.eye(4)[:2],
        "m_nan": [[np.nan, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
        "m_parallel": [[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]],
        "dk_inf": [1.0, np.inf, 1.0, 1.0],
        "dk_short": [1.0, 1.0, 1.0],
        "dk": [1.0, 1.0, 1.0, 1.0],
        "m_wide": np.eye(5)[:2],
        # Row gram diag(1, 1e-14): a condition number of 1e14.
        "m_ill": [[1.0, 0.0, 0.0], [0.0, 1e-7, 0.0]],
        "m3": np.eye(3)[:2],
        "overflow": [[1e200, 2e200], [3e200, 1e200], [2e200, 2e200]],
        # --leek 1 leaves an eigenvalue near -1.8e308, which even "auto"'s
        # fallback coefficient 1 scales past the float range.
        "leek_overflow": [[9.05732655185893145e+153, 9.02428080423874835e+153],
                          [9.00368761715425753e+153, 9.00148748719756759e+153]],
    }
    paths = {"tmp": str(tmp_path)}
    for name, values in files.items():
        write_matrix_csv(tmp_path / f"{name}.csv", values)
        paths[name] = str(tmp_path / f"{name}.csv")
    (tmp_path / "file").write_text("not a directory\n")
    paths["file"] = str(tmp_path / "file")
    # Plain counts near 1e15, whose eigenvalues overflow at --scale 1e-300.
    huge = rng.integers(10 ** 14, 8 * 10 ** 14, size=(40, 4))
    (tmp_path / "huge.csv").write_text(
        "".join(",".join(map(str, row)) + "\n" for row in huge))
    paths["huge"] = str(tmp_path / "huge.csv")
    config = {"scenario": "poisson", "n": 4, "k": 50, "r": 1, "reps": 1,
              "output_dir": str(tmp_path / "file" / "sim")}
    (tmp_path / "config.json").write_text(json.dumps(config))
    paths["config"] = str(tmp_path / "config.json")
    config["output_dir"] = str(tmp_path / "sim")
    (tmp_path / "config_ok.json").write_text(json.dumps(config))
    paths["config_ok"] = str(tmp_path / "config_ok.json")
    for name, text in [("config_array", json.dumps([config])),
                       ("config_scaling_3", json.dumps(dict(config, scaling=3)))]:
        (tmp_path / f"{name}.json").write_text(text)
        paths[name] = str(tmp_path / f"{name}.json")
    # Configs holding NaN or a number past the float range, written as
    # text; each would write its output to "o", which must not be made.
    config["output_dir"] = str(tmp_path / "o")
    text = json.dumps(config)[:-1]
    for name, entry in [("c_tilde_1e999", '"scaling": {"c_tilde": 1e999}'),
                        ("scale_infinity", '"scaling": {"scale": Infinity}'),
                        ("note_1e999", '"note": 1e999'),
                        ("note_nan", '"note": NaN'),
                        ("c_tilde_huge_int", '"scaling": {"c_tilde": 1%s}' % ("0" * 400))]:
        (tmp_path / f"{name}.json").write_text(f"{text}, {entry}}}")
        paths[name] = str(tmp_path / f"{name}.json")
    return paths


SUBSAMPLE = "subsample {y} {m} --family poisson --k-grid 20 --reps 1"


@pytest.mark.parametrize("code, command", [
    pytest.param(2, "estimate {y} --family poisson --rank fixed:9 --out {tmp}/o",
                 id="estimate-rank-above-n"),
    pytest.param(2, SUBSAMPLE + " --rank fixed:9 --out {tmp}/c.csv",
                 id="subsample-rank-above-n"),
    pytest.param(2, "estimate {y} --dk-file {dk_inf} --out {tmp}/o",
                 id="estimate-dk-file-inf"),
    pytest.param(2, "distance {m_nan} {m}", id="distance-nan-in-m"),
    pytest.param(2, "rank-sweep {y} --family poisson --r-grid 1:2 --m {m_nan} "
                    "--out {tmp}/s.csv", id="rank-sweep-nan-in-m"),
    pytest.param(2, "estimate {y} --family poisson --out {file}/sub",
                 id="estimate-out-under-file"),
    pytest.param(2, "simulate {config}", id="simulate-output-dir-under-file"),
    pytest.param(2, "simulate {config_ok} --threads 0", id="simulate-threads-0"),
    pytest.param(2, "simulate {config_ok} --threads -3",
                 id="simulate-threads-negative"),
    pytest.param(2, SUBSAMPLE + " --rank fixed:2 --out {file}/c.csv",
                 id="subsample-out-under-file"),
    pytest.param(3, SUBSAMPLE.replace("{m}", "{m_parallel}")
                 + " --rank fixed:2 --out {tmp}/c.csv",
                 id="subsample-parallel-reference"),
    pytest.param(2, SUBSAMPLE.replace("--reps 1", "--reps 0")
                 + " --rank fixed:2 --out {tmp}/c.csv", id="subsample-reps-0"),
    pytest.param(2, SUBSAMPLE.replace("--reps 1", "--reps -1")
                 + " --rank fixed:2 --out {tmp}/c.csv", id="subsample-reps-negative"),
    pytest.param(2, SUBSAMPLE + " --seed -1 --rank fixed:2 --out {tmp}/c.csv",
                 id="subsample-seed-negative"),
    pytest.param(2, "estimate {huge} --family poisson --scale 1e-300 --out {tmp}/o",
                 id="estimate-scale-overflow"),
    pytest.param(2, "estimate {overflow} --family gamma --s 2 --out {tmp}/o",
                 id="estimate-moments-overflow"),
    pytest.param(2, "estimate {leek_overflow} --leek 1 --out {tmp}/o",
                 id="estimate-auto-fallback-overflow"),
    pytest.param(2, "estimate {y} --family poisson --c-tilde inf --out {tmp}/o",
                 id="estimate-c-tilde-inf"),
    pytest.param(2, "estimate {y} --family poisson --scale inf --out {tmp}/o",
                 id="estimate-scale-inf"),
    pytest.param(2, "simulate {c_tilde_1e999}", id="simulate-c-tilde-1e999"),
    pytest.param(2, "simulate {scale_infinity}", id="simulate-scale-infinity"),
    pytest.param(2, "simulate {note_1e999}", id="simulate-unused-key-1e999"),
    pytest.param(2, "simulate {note_nan}", id="simulate-unused-key-nan"),
    pytest.param(2, "simulate {c_tilde_huge_int}", id="simulate-c-tilde-huge-integer"),
    pytest.param(2, SUBSAMPLE.replace("--k-grid 20", "--k-grid 20,30:25")
                 + " --rank fixed:2 --out {tmp}/o", id="subsample-reversed-k-grid"),
    pytest.param(2, "estimate {y} --dk-file {dk_short} --out {tmp}/o",
                 id="estimate-dk-file-length"),
    pytest.param(2, "rank-sweep {y} --family poisson --r-grid 1 --m {m_wide} "
                    "--out {tmp}/s.csv", id="rank-sweep-m-columns"),
    pytest.param(2, "estimate {y} --family poisson --rank bogus --out {tmp}/o",
                 id="estimate-rank-bogus"),
    pytest.param(2, SUBSAMPLE.replace("--k-grid 20", "--k-grid 2,x")
                 + " --out {tmp}/o", id="subsample-k-grid-entry"),
    pytest.param(2, SUBSAMPLE.replace("--k-grid 20", "--k-grid ,")
                 + " --out {tmp}/o", id="subsample-k-grid-empty"),
    pytest.param(2, "simulate {config_array}", id="simulate-config-array"),
    pytest.param(2, "simulate {config_scaling_3}", id="simulate-scaling-not-object"),
    pytest.param(3, "distance {m_ill} {m3}", id="distance-ill-conditioned-reference"),
    pytest.param(2, "estimate {y} --leek 2 --s 20 --out {tmp}/o",
                 id="estimate-s-without-family-leek"),
    pytest.param(2, "estimate {y} --dk-file {dk} --s 5 --out {tmp}/o",
                 id="estimate-s-without-family-dk-file"),
])
def test_error_exit_codes(exit_case_files, capsys, code, command):
    argv = [arg.format(**exit_case_files) for arg in command.split()]
    assert main(argv) == code
    assert not os.path.exists(os.path.join(exit_case_files["tmp"], "o"))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1


@pytest.mark.parametrize("command, message", [
    pytest.param("estimate {data} --family poisson --scale abc", "scaling flags: "
                 "scale_coefficient must be finite and positive, or 'auto', got 'abc'",
                 id="estimate-scale"),
    pytest.param("estimate {data} --family poisson --rank fixed:x",
                 "bad rank spec 'fixed:x'", id="estimate-rank"),
    pytest.param("subsample {data} {data} --k-grid 5 --rank fixed:x",
                 "--family is required", id="subsample-family"),
    pytest.param("subsample {data} {data} --family poisson --k-grid 5 --eta 2",
                 "scaling flags: eta must be in (0, 1], got 2.0", id="subsample-eta"),
    pytest.param("subsample {data} {data} --family poisson --k-grid 5 --seed -1",
                 "seed must lie in [0, 2**64), got -1", id="subsample-seed"),
    pytest.param("estimate {data} --leek 2 --s 20", "--s needs --family",
                 id="estimate-s-without-family"),
])
def test_flags_are_checked_before_the_data_is_read(tmp_path, capsys, monkeypatch,
                                                   command, message):
    # The data file does not exist, so a flag error can win only if the
    # flags are checked before the file is read.
    reads = []
    for name in ("_load_moments", "_load_data"):
        monkeypatch.setattr(cli, name, lambda *args, real=getattr(cli, name):
                            reads.append(args) or real(*args))
    argv = command.format(data=tmp_path / "missing.csv").split()
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert reads == [] and not (tmp_path / "o").exists()


def test_memory_error_exits_2(exit_case_files, capsys, monkeypatch):
    # A matrix too large for memory, such as the k x k gram of a tall file
    # under --transpose, is one error line and exit 2, with nothing written.
    def no_memory(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "data_moments", no_memory)
    out = Path(exit_case_files["tmp"]) / "o"
    assert main(["estimate", exit_case_files["y"], "--family", "poisson",
                 "--transpose", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and not out.exists()
    assert err.splitlines() == [
        "error: out of memory: Unable to allocate 74.5 GiB for an array"]


def test_dk_file_near_float_range(tmp_path, capsys):
    # Corrections of -1e308 push the adjusted gram's entries, and then the
    # median positive eigenvalue, to the top of the float range.
    (tmp_path / "y.csv").write_text("1,2\n3,4\n5,6\n")
    (tmp_path / "dk.csv").write_text("-1e308,-1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["estimate", str(tmp_path / "y.csv"),
                     "--dk-file", str(tmp_path / "dk.csv"),
                     "--out", str(tmp_path / "o")])
    assert code in (0, 2, 4)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum(line.startswith("error: ") for line in err.splitlines()) == (code == 2)


CAP = 5


def _cap_case(tmp_path, command, n):
    """argv of ``command`` on a file of n columns; ``out`` is its output."""
    y = np.random.default_rng(3).poisson(5.0, size=(40, n)).astype(float)
    path = tmp_path / "y.csv"
    if command == "estimate-real":
        write_matrix_csv(path, y + 0.5)
    elif command == "transpose":
        write_matrix_csv(path, y.T)
    else:
        path.write_text(plain_text(y))
    write_matrix_csv(tmp_path / "m.csv", np.eye(n)[:1])
    out = tmp_path / "out"
    family = ["--family", "gamma" if command == "estimate-real" else "poisson"]
    family += ["--s", "4"] if command == "estimate-real" else []
    if command == "simulate":
        (tmp_path / "sim.json").write_text(json.dumps(
            {"scenario": "poisson", "n": n, "k": 50, "r": 1, "reps": 1,
             "output_dir": str(out)}))
        return ["simulate", str(tmp_path / "sim.json"), "--threads", "1"], out
    if command == "rank-sweep":
        return ["rank-sweep", str(path), *family, "--r-grid", "1",
                "--out", str(out)], out
    if command == "subsample":
        return ["subsample", str(path), str(tmp_path / "m.csv"), *family,
                "--k-grid", "20", "--reps", "1", "--rank", "fixed:1",
                "--out", str(out)], out
    argv = ["estimate", str(path), *family, "--rank", "fixed:1", "--out", str(out)]
    return argv + ["--transpose"] * (command == "transpose"), out


@pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "past-cap"])
@pytest.mark.parametrize("command", ["estimate-plain", "estimate-real", "transpose",
                                     "rank-sweep", "subsample", "simulate"])
def test_column_cap(tmp_path, capsys, monkeypatch, command, over):
    # n at the cap runs; one column past it is one error line and exit 2,
    # with no gram formed and nothing written.
    monkeypatch.setattr(matrix_core, "MAX_COLUMNS", CAP)
    if over:
        def no_gram(*args):
            raise AssertionError("a gram was formed past the column cap")

        monkeypatch.setattr(matrixio, "_block_moments", no_gram)
        monkeypatch.setattr(cli, "data_moments", no_gram)
    argv, out = _cap_case(tmp_path, command, CAP + over)
    code = main(argv)
    err = capsys.readouterr().err
    if not over:
        assert code == 0, err
        return
    assert code == 2 and not out.exists()
    lines = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(lines) == 1 and f"cap of {CAP}" in lines[0], err


def _edge_matrix(kind, k, n, rng):
    """A k x n matrix of one of the edge kinds the estimate property draws."""
    if kind == "zeros":
        return np.zeros((k, n))
    if kind == "constant":
        return np.full((k, n), 3.0)
    if kind == "zero-column":
        y = rng.poisson(4.0, size=(k, n)).astype(float)
        y[:, rng.integers(n)] = 0.0
        return y
    if kind == "counts":
        return rng.poisson(4.0, size=(k, n)).astype(float)
    if kind == "real":
        return rng.normal(1.0, 2.0, size=(k, n))
    if kind == "negative":
        return -rng.poisson(4.0, size=(k, n)).astype(float)
    if kind.startswith("real-"):  # real-1e100 and real-1e200
        return rng.normal(1.0, 2.0, size=(k, n)) * float(kind[5:])
    return rng.integers(10 ** 14, 8 * 10 ** 14, size=(k, n)).astype(float)


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def _cli_artifacts(argv, out):
    """Exit code, stderr and {relative path: bytes} of one run of ``argv``
    writing into the new directory ``out`` (``estimate``'s ``--out`` is the
    directory, ``simulate``'s config names its output_dir, ``distance``
    prints, and the other commands' ``--out`` is a file in it), with every
    warning recorded.  What ``distance`` prints is kept as ``stdout``."""
    out.mkdir()
    if argv[0] not in ("simulate", "distance"):
        target = out if argv[0] == "estimate" else out / "out.csv"
        argv = argv + ["--out", str(target)]
    stdout, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, [str(w.message) for w in runtime]
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    if argv[0] == "distance":
        files["stdout"] = stdout.getvalue().encode()
    return code, err.getvalue().replace(str(out), "OUT"), files


def _assert_edge_contracts(argv, tmp):
    # A documented exit code, no traceback or RuntimeWarning, strict JSON,
    # and the same bytes from a rerun.
    first = _cli_artifacts(argv, tmp / "a")
    code, err, files = first
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    for name, data in files.items():
        if name.endswith(".json"):
            _strict_json(data.decode())
    if argv[0] == "distance" and code == 0:  # the value, then the record
        _strict_json(files["stdout"].decode().splitlines()[-1])
    assert _cli_artifacts(argv, tmp / "b") == first


def _draw_edge_file(data, tmp):
    """Draw a small edge matrix and write it to ``tmp``: (path, k, n, rng)."""
    k = data.draw(st.sampled_from([1, 2, 3, 5, 40]), "k")
    n = data.draw(st.sampled_from([2, 3, 4, 7]), "n")
    kind = data.draw(st.sampled_from(["zeros", "constant", "zero-column", "counts",
                                      "real", "negative", "huge", "real-1e100",
                                      "real-1e200"]), "kind")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), "seed"))
    y = _edge_matrix(kind, k, n, rng)
    path = tmp / "y.csv"
    if np.array_equal(y, np.floor(y)):  # plain integers, the streamed read
        path.write_text("".join(",".join(str(int(v)) for v in row) + "\n"
                                for row in y))
    else:
        write_matrix_csv(path, y)
    return path, k, n, rng


EDGE_FAMILIES = ["normal", "poisson", "binomial", "negbin", "gamma", "ghs"]


# Explicit corrections near both ends of the float range, and ordinary ones.
DK_ENTRIES = [-1.7e308, -1e308, -9e307, 9e307, 1e308, 1.7e308, -1.0, 0.0, 0.5, 3.0]


def _draw_correction(data, n, choices, tmp=None, cols=None):
    """Correction flags; a ``--dk-file`` of ``cols`` entries goes to ``tmp``."""
    correction = data.draw(st.sampled_from(choices), "correction")
    if correction == "leek":
        return ["--leek", str(data.draw(st.integers(1, n), "t"))]
    if correction == "dk-file":
        dk = data.draw(st.lists(st.sampled_from(DK_ENTRIES), min_size=cols,
                                max_size=cols), "dk")
        write_matrix_csv(tmp / "dk.csv", dk)
        return ["--dk-file", str(tmp / "dk.csv")]
    if correction in ("normal", "poisson"):
        return ["--family", correction]
    return ["--family", correction,
            "--s", data.draw(st.sampled_from(["2", "5", "20"]), "s")]


def _draw_scaling(data, n):
    rank = data.draw(st.sampled_from(
        ["auto", "auto", "fixed:1", "fixed:2", f"fixed:{n}"]), "rank")
    scale = data.draw(st.sampled_from(["auto", "1e-300", "1", "1e300", "inf"]),
                      "scale")
    c_tilde = data.draw(st.sampled_from(["1", "1", "0.5", "1e300", "inf"]), "c_tilde")
    return ["--rank", rank, "--scale", scale, "--c-tilde", c_tilde]


def _draw_basis(data, tmp, cols, rng):
    """Write a reference basis over ``cols`` columns, or an edge case of one
    (all zeros, or one column too many), to ``tmp``."""
    kind = data.draw(st.sampled_from(["random", "random", "zeros", "wide"]), "basis")
    r = data.draw(st.integers(1, cols), "basis_rows")
    m = rng.normal(size=(r, cols + (kind == "wide")))
    if kind == "zeros":
        m[:] = 0.0
    path = tmp / "m.csv"
    write_matrix_csv(path, m)
    return path


@settings(max_examples=140, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_estimate_edge_contracts(data):
    # Small and degenerate files through every correction and rank flag,
    # explicit corrections near +-1e308 among them.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path, k, n, _ = _draw_edge_file(data, tmp)
        transpose = data.draw(st.booleans(), "transpose")
        argv = ["estimate", str(path)]
        argv += _draw_correction(data, n, EDGE_FAMILIES + ["leek", "dk-file"],
                                 tmp, k if transpose else n)
        argv += _draw_scaling(data, n)
        if transpose:
            argv.append("--transpose")
        _assert_edge_contracts(argv, tmp)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_rank_sweep_edge_contracts(data):
    # Small and degenerate files through every family, with rank grids that
    # reach past n and reference bases that are degenerate or too wide.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path, k, n, rng = _draw_edge_file(data, tmp)
        transpose = data.draw(st.booleans(), "transpose")
        cols = k if transpose else n
        argv = ["rank-sweep", str(path)] + _draw_correction(data, n, EDGE_FAMILIES)
        argv += ["--r-grid", data.draw(st.sampled_from(
            ["1", f"1:{cols}", f"{cols}", f"{cols + 1}"]), "r_grid")]
        if data.draw(st.booleans(), "with_m"):
            argv += ["--m", str(_draw_basis(data, tmp, cols, rng))]
        if transpose:
            argv.append("--transpose")
        _assert_edge_contracts(argv, tmp)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_subsample_edge_contracts(data):
    # Small and degenerate files through every family and rank flag, with
    # row grids from one row to one past the file's.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path, k, n, rng = _draw_edge_file(data, tmp)
        transpose = data.draw(st.booleans(), "transpose")
        rows, cols = (n, k) if transpose else (k, n)
        m = _draw_basis(data, tmp, cols, rng)
        argv = ["subsample", str(path), str(m)]
        argv += _draw_correction(data, n, EDGE_FAMILIES)
        argv += ["--k-grid", data.draw(st.sampled_from(
            ["1", f"{rows}", f"1:{rows}", f"{rows + 1}"]), "k_grid")]
        argv += ["--reps", data.draw(st.sampled_from(["1", "2"]), "reps"),
                 "--seed", data.draw(st.sampled_from(["0", "7"]), "seed")]
        argv += _draw_scaling(data, cols)
        if transpose:
            argv.append("--transpose")
        _assert_edge_contracts(argv, tmp)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_distance_edge_contracts(data):
    # Bases of the edge kinds, orthonormal or not, from near 1e-300 to near
    # 1e306, with one more row or column than fits, with and without
    # --normalize-m.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        n = data.draw(st.sampled_from([2, 3, 4, 7]), "n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), "seed"))
        argv = ["distance"]
        for name in ("m", "m_hat"):
            rows = data.draw(st.integers(1, n + 1), f"{name}_rows")
            cols = n + data.draw(st.sampled_from([0, 0, 0, 1]), f"{name}_wide")
            kind = data.draw(st.sampled_from(
                ["orthonormal", "orthonormal", "zeros", "constant", "real",
                 "negative", "real-1e-300", "real-1e100", "real-1e200",
                 "real-1e306"]), f"{name}_kind")
            if kind == "orthonormal":
                q = np.linalg.qr(rng.normal(size=(cols, cols)))[0]
                matrix = q[:rows] if rows <= cols else rng.normal(size=(rows, cols))
            else:
                matrix = _edge_matrix(kind, rows, cols, rng)
            write_matrix_csv(tmp / f"{name}.csv", matrix)
            argv.append(str(tmp / f"{name}.csv"))
        if data.draw(st.booleans(), "normalize"):
            argv.append("--normalize-m")
        _assert_edge_contracts(argv, tmp)


def _simulate_artifacts(cfg, threads, out):
    """_cli_artifacts of ``simulate`` on ``cfg`` with its output_dir in
    ``out``; the config file sits next to ``out``."""
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps(dict(cfg, output_dir=str(out / "run"))))
    return _cli_artifacts(["simulate", str(config), "--threads", str(threads)], out)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_simulate_edge_contracts(data):
    # Small cells of every scenario, with r inside and outside [1, n), seeds
    # at both ends of their range, and a key replaced by a quoted, boolean,
    # negative or empty-list value.  A rerun and the other thread count
    # write the same tables; a rejected config writes nothing.
    n = data.draw(st.sampled_from([2, 3, 4, 7]), "n")
    cfg = {
        "scenario": data.draw(st.sampled_from(
            ["normal", "poisson", "binomial", "negbin", "gamma"]), "scenario"),
        "n": n,
        "k": data.draw(st.sampled_from([1, 2, 3, 5, 40]), "k"),
        "r": data.draw(st.sampled_from([1, 1, n - 1, 0, n]), "r"),
        "reps": data.draw(st.sampled_from([1, 2, 3]), "reps"),
        "seed": data.draw(st.sampled_from([0, 1, 2 ** 64 - 1]), "seed"),
    }
    if data.draw(st.sampled_from([False, False, True]), "odd"):
        key = data.draw(st.sampled_from(sorted(cfg)), "key")
        cfg[key] = data.draw(st.sampled_from(
            [str(cfg[key]), True, -2, []]), "value")
    threads = data.draw(st.sampled_from([1, 2]), "threads")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code, err, files = first = _simulate_artifacts(cfg, threads, tmp / "a")
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err
        if code == 2:
            assert not files and not (tmp / "a" / "run").exists()
        if files:
            meta = _strict_json(files["run/meta.json"].decode())
            assert meta["config"]["output_dir"] == str(tmp / "a" / "run")

        def tables(run):
            return run[0], run[1], {name: body for name, body in run[2].items()
                                    if not name.endswith("meta.json")}

        assert tables(_simulate_artifacts(cfg, threads, tmp / "b")) == tables(first)
        assert tables(_simulate_artifacts(cfg, 3 - threads, tmp / "c")) == tables(first)


def _error_classes(base=LatentSpecError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


@pytest.mark.parametrize("error", sorted(_error_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_main_maps_every_library_error(monkeypatch, capsys, error):
    def raise_it(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_distance", raise_it)
    support = (SupportViolationError, OutOfSupportError, RankDeficientError)
    assert main(["distance", "m.csv", "m_hat.csv"]) == (3 if error in support else 2)
    assert capsys.readouterr().err == "error: boom\n"


# ------------------------------------------------------------------- README

def test_readme_command_lines_parse():
    # Parsed, not run: a renamed or removed flag fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "latentspec"
        build_parser().parse_args(argv[1:])


def test_readme_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    cfg = ScenarioConfig(scenario="binomial", n=8, k=2000, r=2, reps=1, seed=3)
    write_matrix_csv(tmp_path / "counts.csv", generate_scenario(cfg, 0).y.values)
    monkeypatch.chdir(tmp_path)
    exec(block, {})
    r_hat, shape = capsys.readouterr().out.split(" ", 1)
    assert shape.strip() == f"({r_hat}, 8)"

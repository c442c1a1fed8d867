"""CSV reader: the byte parse of plain integer files against the float64 parse,
and the streamed Moments of plain files against the whole matrix's."""

import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from family_helpers import assert_moments_equal
from latentspec import matrixio
from latentspec.cli import main
from latentspec.errors import InvalidParameterError
from latentspec.matrix_core import data_moments
from latentspec.matrixio import read_matrix_csv


def float_parse(text: str, skiprows: int = 0) -> np.ndarray:
    """The reader's float64 path on its own, blank lines dropped first."""
    lines = [line for line in text.split("\n") if line.strip()]
    return np.loadtxt(lines, delimiter=",", ndmin=2, quotechar='"',
                      comments=None, skiprows=skiprows)


def read_with_parses(path):
    """read_matrix_csv, plus the parses that ran: "bytes" for a byte parse
    that gave the result, the dtype of each loadtxt call."""
    tried = []
    real_plain, real_loadtxt = matrixio._read_plain, matrixio._loadtxt

    def plain(data):
        out = real_plain(data)
        if out is not None:
            tried.append("bytes")
        return out

    def spy(lines, **kwargs):
        tried.append(np.dtype(kwargs.get("dtype", float)).name)
        return real_loadtxt(lines, **kwargs)

    with mock.patch.object(matrixio, "_read_plain", plain), \
            mock.patch.object(matrixio, "_loadtxt", spy):
        return read_matrix_csv(path), tried


BYTES = ["bytes"]
FLOAT = ["float64"]


@pytest.mark.parametrize("text, skiprows, tried", [
    ("1,2\n3,4\n", 0, BYTES),
    ('"1", 2\n\t3 ,"  4 "\n+5,007\n', 0, FLOAT),
    ("g1,g2\n1,2\n3,4\n", 1, BYTES),
    # -0 is -0.0 as a float; a sign is never plain.
    ("-0,1\n2,3\n", 0, FLOAT),
    ("\n  s-1,s-2\n1,2\n3,4\n", 1, FLOAT),
    ("s-1,s-2\n-0,2\n3,4\n", 1, FLOAT),
    # From 16 digits on the float parse rounds to nearest, ties to even.
    ("9007199254740993,9007199254740995\n1,2\n", 0, FLOAT),
    ("9223372036854775807,1\n2,3\n", 0, FLOAT),
    ("99999999999999999999,1\n2,3\n", 0, FLOAT),
    ("1,2\n3,4\n1.5,6\n", 0, FLOAT),
], ids=["plain", "quoted-padded", "header", "minus-zero", "header-with-minus",
        "header-and-minus-zero", "above-2^53",
        "int64-max", "beyond-int64", "float-last-row"])
def test_int_parse_matches_float_parse(tmp_path, text, skiprows, tried):
    path = tmp_path / "m.csv"
    path.write_text(text)
    got, parses = read_with_parses(path)
    want = float_parse(text, skiprows)
    assert parses == tried
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_int_parse_values_pinned(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("9007199254740993,9007199254740995\n-0,1\n")
    got = read_matrix_csv(path)
    assert got[0].tolist() == [9007199254740992.0, 9007199254740996.0]
    assert np.signbit(got[1, 0])


def test_bad_cell_after_integer_rows_names_file_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n5,x\n6,7\n")
    with pytest.raises(InvalidParameterError) as info:
        read_with_parses(path)
    assert "line 3: could not convert string 'x' to float64" in str(info.value)


def _cell(value: int, style: int) -> str:
    return [str(value), f'"{value}"', f" {value}\t", f"+{value}", f"00{value}"][style]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_int_parse_matches_float_parse_property(data):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    magnitude = st.one_of(st.integers(0, 2**53 + 8), st.integers(0, 2**63 - 1))
    cells = data.draw(st.lists(st.tuples(magnitude, st.integers(0, 4)),
                               min_size=rows * cols, max_size=rows * cols))
    text = "".join(
        ",".join(_cell(*cells[i * cols + j]) for j in range(cols)) + "\n"
        for i in range(rows)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_text(text)
        got, parses = read_with_parses(path)
    plain = all(re.fullmatch("[0-9]{1,15}", cell)
                for line in text.splitlines() for cell in line.split(","))
    assert parses == (BYTES if plain else FLOAT)
    assert got.tobytes() == float_parse(text).tobytes()


_DIGITS = st.text("0123456789", min_size=1, max_size=15)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_byte_parse_bit_equal_to_float_parse_property(data):
    """Plain files of 1-15 digit cells, leading zeros included, with or
    without a header, a BOM and the final newline, in blocks of a few bytes
    so that rows straddle block ends."""
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 5))
    cells = data.draw(st.lists(_DIGITS, min_size=rows * cols,
                               max_size=rows * cols))
    header = data.draw(st.booleans())
    text = "\n".join(
        ",".join(cells[i * cols:(i + 1) * cols]) for i in range(rows))
    if header:
        text = ",".join(f"s{j}" for j in range(cols)) + "\n" + text
    if data.draw(st.booleans()):
        text += "\n"
    bom = data.draw(st.booleans())
    block = data.draw(st.integers(1, 64))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
        with mock.patch.object(matrixio, "_BLOCK_BYTES", block):
            got, parses = read_with_parses(path)
    assert parses == BYTES
    assert got.tobytes() == float_parse(text, int(header)).tobytes()


@pytest.mark.parametrize("text, want", [
    ("1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
    ("a,b\r\n1,2\n", [[1, 2]]),
    # Universal newlines end a row at a lone CR, here inside the first line.
    ("1,2\r3,4\n5,6\n", [[1, 2], [3, 4], [5, 6]]),
    ("1,2\n\n3,4\n", [[1, 2], [3, 4]]),
    ("1,2\n3,4\n\n", [[1, 2], [3, 4]]),
    ("1,2\n3,4\n \n", [[1, 2], [3, 4]]),
    ("1234567890123456,2\n3,4\n", [[1234567890123456, 2], [3, 4]]),
    ("+5,2\n3,4\n", [[5, 2], [3, 4]]),
    ('"3",2\n3,4\n', [[3, 2], [3, 4]]),
    ("-0,2\n3,4\n", [[-0.0, 2], [3, 4]]),
], ids=["crlf", "crlf-header", "cr-first-line", "blank-line",
        "trailing-blank-line", "trailing-space-line", "16-digits", "plus",
        "quoted", "minus-zero"])
def test_fallback_inputs_read_as_float_parse(tmp_path, text, want):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    got, parses = read_with_parses(path)
    assert parses == FLOAT
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


@pytest.mark.parametrize("bad, reason", [
    ("1,2", "line 25002 has 2 values, line 2 has 3"),
    ("1,2,3,4", "line 25002 has 4 values, line 2 has 3"),
    ("1,,3", "line 25002: could not convert string '' to float64 at column 2."),
    # A space where a comma belongs still gives a row of three separators.
    ("1 2,3", "line 25002: could not convert string '1 2' to float64 at column 1."),
], ids=["short-row", "long-row", "empty-cell", "space-for-comma"])
@pytest.mark.parametrize("block", [matrixio._BLOCK_BYTES, 40],
                         ids=["default-block", "40-byte-block"])
def test_bad_row_in_late_block_names_file_line(tmp_path, bad, reason, block):
    rows = ["1,2,3"] * 30000
    rows[25000] = bad
    path = tmp_path / "m.csv"
    path.write_text("a,b,c\n" + "\n".join(rows) + "\n")
    with mock.patch.object(matrixio, "_BLOCK_BYTES", block), \
            pytest.raises(InvalidParameterError) as info:
        read_matrix_csv(path)
    assert str(info.value) == f"cannot read {path}: {reason}"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_streamed_moments_bit_equal_to_whole_matrix_property(data):
    """read_moments_csv against data_moments of the parsed matrix, in blocks
    of a few bytes, with or without a header, a BOM and the final newline;
    None exactly when k * max(y)^2 reaches 2^53."""
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 5))
    digits = st.one_of(st.text("0123456789", min_size=1, max_size=4), _DIGITS)
    cells = data.draw(st.lists(digits, min_size=rows * cols,
                               max_size=rows * cols))
    text = "\n".join(
        ",".join(cells[i * cols:(i + 1) * cols]) for i in range(rows))
    if data.draw(st.booleans()):
        text = ",".join(f"s{j}" for j in range(cols)) + "\n" + text
    if data.draw(st.booleans()):
        text += "\n"
    bom = data.draw(st.booleans())
    block = data.draw(st.integers(1, 64))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
        with mock.patch.object(matrixio, "_BLOCK_BYTES", block):
            y = read_matrix_csv(path)
            exact = rows * int(y.max()) ** 2 < 2**53
            if exact and cols < 2:
                with pytest.raises(InvalidParameterError, match="at least 1 x 2"):
                    matrixio.read_moments_csv(path)
                return
            got = matrixio.read_moments_csv(path)
    if exact:
        assert_moments_equal(got, data_moments(y))
    else:
        assert got is None


@pytest.mark.parametrize("text", [
    "1,2\n3,4.5\n", "1,2\r\n3,4\r\n", "1, 2\n3,4\n", "-1,2\n3,4\n", "a,b\n",
    "", "1,2\n\n3,4\n", "1,,3", ",1\n2,3\n", "1,2,\n3,4,\n", "1,2\n3\n",
    "1234567890123456,2\n3,4\n",
], ids=["decimal", "crlf", "padded", "sign", "header-only", "empty", "blank-line",
        "empty-cell", "empty-first-cell", "trailing-comma", "ragged", "16-digits"])
def test_streamed_moments_none_for_non_plain(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    assert matrixio.read_moments_csv(path) is None


def read_moments_with_cuts(path, cuts):
    """read_moments_csv with its row ranges cut at ``cuts``."""
    with mock.patch.object(matrixio, "_row_cuts", lambda data, start: cuts):
        return matrixio.read_moments_csv(path)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_split_moments_bit_equal_to_one_range_property(data):
    """The Moments of 1-4 row ranges, reduced on threads and added, against
    one range and against the whole matrix; a cut may fall at the last row."""
    rows = data.draw(st.integers(1, 8))
    cols = data.draw(st.integers(2, 5))
    # Cells of up to 4 digits keep every sum exact; up to 15 mostly not.
    width = data.draw(st.sampled_from([4, 4, 15]))
    cells = data.draw(st.lists(st.text("0123456789", min_size=1, max_size=width),
                               min_size=rows * cols, max_size=rows * cols))
    text = "\n".join(
        ",".join(cells[i * cols:(i + 1) * cols]) for i in range(rows))
    if data.draw(st.booleans()):
        text = ",".join(f"s{j}" for j in range(cols)) + "\n" + text
    if data.draw(st.booleans()):
        text += "\n"
    raw = b"\xef\xbb\xbf" * data.draw(st.booleans()) + text.encode()
    start, n = matrixio._plain_layout(raw)
    # _row_cuts makes no empty range, so inner cuts are distinct row starts.
    row_starts = [i + 1 for i in range(start, len(raw) - 1) if raw[i] == ord("\n")]
    inner = data.draw(st.sets(st.sampled_from(row_starts), max_size=3)) \
        if row_starts else set()
    cuts = [start] + sorted(inner) + [len(raw)]
    block = data.draw(st.integers(1, 64))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(raw)
        with mock.patch.object(matrixio, "_BLOCK_BYTES", block):
            y = read_matrix_csv(path)
            got = read_moments_with_cuts(path, cuts)
            one = read_moments_with_cuts(path, [start, len(raw)])
    if rows * int(y.max()) ** 2 < 2**53:
        assert_moments_equal(got, one)
        assert_moments_equal(got, data_moments(y))
    else:
        assert got is None and one is None


@pytest.mark.parametrize("cut", ["last-row"])
def test_split_at_edges_bit_equal(tmp_path, cut):
    raw = b"a,b,c\n1,2,3\n40,5,6\n7,80,900"
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    start, _ = matrixio._plain_layout(raw)
    got = read_moments_with_cuts(path, [start, raw.rindex(b"\n") + 1, len(raw)])
    assert_moments_equal(got, data_moments(read_matrix_csv(path)))


def test_non_plain_byte_only_in_last_range_gives_none(tmp_path):
    raw = b"1,2\n" * 50 + b"3,4.5\n"
    start, _ = matrixio._plain_layout(raw)
    last = raw.rindex(b"\n", 0, len(raw) - 1) + 1
    head, path = tmp_path / "head.csv", tmp_path / "m.csv"
    head.write_bytes(raw[:last])
    path.write_bytes(raw)
    assert matrixio.read_moments_csv(head) is not None
    assert read_moments_with_cuts(path, [start, 100, last, len(raw)]) is None


@pytest.mark.parametrize("text, ranges_alone", [
    # One 2^26 row per range: each range is exact on its own, since
    # (2^26)^2 = 2^52, and only the added totals reach 2^53.
    ("67108864,1\n1,67108864\n", [True, True]),
    # Both 2^26 rows in the second range: it breaks the bound by itself.
    ("1,1\n67108864,1\n1,67108864\n", [True, False]),
], ids=["totals-only", "one-range"])
def test_split_counts_beyond_bound_give_none(tmp_path, text, ranges_alone):
    raw = text.encode()
    start, _ = matrixio._plain_layout(raw)
    cuts = [start, raw.index(b"\n") + 1, len(raw)]
    alone = []
    for a, b in zip(cuts, cuts[1:]):
        part = tmp_path / f"rows-{a}.csv"
        part.write_bytes(raw[a:b])
        alone.append(matrixio.read_moments_csv(part) is not None)
    assert alone == ranges_alone
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    assert read_moments_with_cuts(path, cuts) is None
    assert read_moments_with_cuts(path, [start, len(raw)]) is None


def test_read_moments_splits_one_range_per_cpu(tmp_path):
    rng = np.random.default_rng(3)
    y = rng.poisson(4.0, size=(500, 6))
    path = tmp_path / "m.csv"
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in y))
    ranges = []
    real = matrixio._plain_blocks

    def spy(data, start, stop, n):
        ranges.append((start, stop))
        return real(data, start, stop, n)

    with mock.patch.object(matrixio, "_RANGE_MIN_BYTES", 100), \
            mock.patch.object(matrixio, "_BLOCK_BYTES", 64), \
            mock.patch.object(matrixio, "cpu_count", lambda: 4), \
            mock.patch.object(matrixio, "_plain_blocks", spy):
        got = matrixio.read_moments_csv(path)
    ranges.sort()  # the first range runs last-started, on the caller
    size = path.stat().st_size
    assert len(ranges) == 4 and ranges[0][0] == 0 and ranges[-1][1] == size
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert all(abs(stop - start - size / 4) < 30 for start, stop in ranges)
    assert_moments_equal(got, data_moments(y.astype(float)))


def test_non_plain_byte_only_in_last_range_falls_back_to_float_parse(tmp_path):
    raw = b"1,2\n" * 50 + b"3,4.5\n"
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    # Blocks of five 4-byte rows: ten plain blocks, then the 4.5 cell's row
    # alone in the last one.
    with mock.patch.object(matrixio, "_BLOCK_BYTES", 20):
        start, n = matrixio._plain_layout(raw)
        blocks = matrixio._plain_blocks(raw, start, len(raw), n)
        assert [next(blocks).shape for _ in range(10)] == [(5, 2)] * 10
        with pytest.raises(matrixio._NotPlain):
            next(blocks)
        got, parses = read_with_parses(path)
    assert parses == FLOAT
    assert got.tobytes() == float_parse(raw.decode()).tobytes()


def test_whole_read_starts_no_thread(tmp_path, started):
    rng = np.random.default_rng(4)
    y = rng.poisson(4.0, size=(500, 6))
    path = tmp_path / "m.csv"
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in y))
    m = tmp_path / "basis.csv"
    m.write_text("1,0,0,0,0,0\n0,1,0,0,0,0\n")
    with mock.patch.object(matrixio, "_RANGE_MIN_BYTES", 100), \
            mock.patch.object(matrixio, "_BLOCK_BYTES", 64), \
            mock.patch.object(matrixio, "cpu_count", lambda: 4):
        got, parses = read_with_parses(path)
        assert main(["subsample", str(path), str(m), "--family", "poisson",
                     "--k-grid", "100,500", "--reps", "1", "--rank", "fixed:2",
                     "--out", str(tmp_path / "curve.csv")]) == 0
    assert parses == BYTES
    assert got.tobytes() == y.astype(float).tobytes()
    assert started == []

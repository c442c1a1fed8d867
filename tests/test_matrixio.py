"""CSV reader: the int64 parse of integer files against the float64 parse."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentspec import matrixio
from latentspec.errors import InvalidParameterError
from latentspec.matrixio import read_matrix_csv


def float_parse(text: str, skiprows: int = 0) -> np.ndarray:
    """The reader's float64 path on its own, blank lines dropped first."""
    lines = [line for line in text.split("\n") if line.strip()]
    return np.loadtxt(lines, delimiter=",", ndmin=2, quotechar='"',
                      comments=None, skiprows=skiprows)


def read_with_parses(path):
    """read_matrix_csv, plus the dtypes of the loadtxt calls it made."""
    tried = []
    real = matrixio._loadtxt

    def spy(lines, **kwargs):
        tried.append(np.dtype(kwargs.get("dtype", float)).name)
        return real(lines, **kwargs)

    with mock.patch.object(matrixio, "_loadtxt", spy):
        return read_matrix_csv(path), tried


INT = ["int64"]
INT_THEN_FLOAT = ["int64", "float64"]
FLOAT = ["float64"]


@pytest.mark.parametrize("text, skiprows, tried", [
    ("1,2\n3,4\n", 0, INT),
    ('"1", 2\n\t3 ,"  4 "\n+5,007\n', 0, INT),
    ("g1,g2\n1,2\n3,4\n", 1, INT),
    # -0 is -0.0 as a float but 0 as an integer: a '-' in a data row skips
    # the int parse, a '-' in the header does not.
    ("-0,1\n2,3\n", 0, FLOAT),
    ("\n  s-1,s-2\n1,2\n3,4\n", 1, INT),
    ("s-1,s-2\n-0,2\n3,4\n", 1, FLOAT),
    # Above 2^53 both parsers round to nearest, ties to even.
    ("9007199254740993,9007199254740995\n1,2\n", 0, INT),
    ("9223372036854775807,1\n2,3\n", 0, INT),
    # Beyond int64 the int parse fails and the float parse reads it.
    ("99999999999999999999,1\n2,3\n", 0, INT_THEN_FLOAT),
    ("1,2\n3,4\n1.5,6\n", 0, INT_THEN_FLOAT),
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
    assert parses == INT
    assert got.tobytes() == float_parse(text).tobytes()

"""CSV matrix reading and writing for the command line tools.

Dialect: comma separated, '.' decimal point, UTF-8 (a leading byte order
mark is ignored), no locale dependence.  Blank and whitespace-only lines
are skipped.  The first non-blank row is a header, and is skipped, when one
of its cells is non-empty and not a number.  Every other row must have the
same number of cells, each a number, optionally double-quoted and padded
with spaces or tabs.  Values are written in scientific notation with 17
digits after the point, which round-trips 64-bit floats exactly.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError

FLOAT_FORMAT = "%.17e"

# A line holding only whitespace; the first line is covered by strip().
_BLANK_LINE = re.compile(r"\n[^\S\n]+(?=\n|\Z)")


def format_value(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def write_matrix_csv(path, a) -> None:
    """Write a 2-D array as CSV; a 1-D array is written as one column."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim not in (1, 2):
        raise InvalidParameterError("only 1-D or 2-D arrays are written")
    np.savetxt(path, arr, fmt=FLOAT_FORMAT, delimiter=",")


def _is_header(line: str) -> bool:
    """True when a cell of the row is non-empty and not a number."""
    for cell in line.split(","):
        cell = cell.strip().strip('"')
        try:
            float(cell or 0)
        except ValueError:
            return True
    return False


_loadtxt = functools.partial(
    np.loadtxt, delimiter=",", ndmin=2, quotechar='"', comments=None
)


def _parse(lines: list[str], skiprows: int, text: str) -> np.ndarray:
    """loadtxt as float64, through the faster int64 parser when it can.

    Where both parsers accept a cell they give the same float64: integers
    beyond 2^53 round to nearest, ties to even, either way.  The exception
    is '-0', which is -0.0 as a float but 0 as an integer, so data rows
    with a '-' anywhere go straight to the float parse (a header's '-' is
    never parsed).  Any cell the int64 parser rejects (a decimal point, an
    exponent, a value beyond int64) sends the whole file to the float parse.
    """
    # lines[0] is the first non-blank line of text, without leading space.
    data_start = text.index(lines[0]) + len(lines[0]) if skiprows else 0
    if text.find("-", data_start) < 0:
        try:
            ints = _loadtxt(lines, skiprows=skiprows, dtype=np.int64)
        except ValueError:
            pass
        else:
            # Cast in place: the two types have one item size, and a 1-D
            # copy over the same memory reads each item before writing it.
            # A second k x n array would be fresh memory to fault in.
            flat = ints.reshape(-1)
            np.copyto(flat.view(np.float64), flat, casting="unsafe")
            return ints.view(np.float64)
    return _loadtxt(lines, skiprows=skiprows)


def _first_bad_line(text: str, header: bool) -> str | None:
    """'line N: reason' for the first bad data line, N 1-based in the file.

    loadtxt's own row numbers skip the header and blank lines.  Each line is
    re-read on its own, so this runs only after loadtxt rejected the file.
    """
    first = None
    for number, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        if header:
            header = False
            continue
        try:
            width = _loadtxt([line]).shape[1]
        except ValueError as exc:
            return f"line {number}: {str(exc).replace('at row 0, ', 'at ')}"
        if first is None:
            first = (number, width)
        elif width != first[1]:
            return (f"line {number} has {width} values, "
                    f"line {first[0]} has {first[1]}")
    return None


def read_matrix_csv(path) -> np.ndarray:
    """Read a numeric CSV matrix, skipping one auto-detected header row."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc}") from exc
    lines = _BLANK_LINE.sub("\n", text).strip().split("\n")
    header = _is_header(lines[0])
    if not lines[0] or (header and len(lines) == 1):
        raise InvalidParameterError(f"cannot read {path}: no data rows")
    try:
        return _parse(lines, int(header), text)
    except ValueError as exc:
        reason = _first_bad_line(text, header) or exc
        raise InvalidParameterError(f"cannot read {path}: {reason}") from exc


def read_vector_csv(path) -> np.ndarray:
    """Read a CSV holding a single row or single column of numbers."""
    arr = read_matrix_csv(path)
    if arr.shape[0] == 1 or arr.shape[1] == 1:
        return arr.reshape(-1)
    raise InvalidParameterError(
        f"cannot read {path}: expected a single row or column, got shape {arr.shape}"
    )

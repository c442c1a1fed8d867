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


def read_matrix_csv(path) -> np.ndarray:
    """Read a numeric CSV matrix, skipping one auto-detected header row."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
        lines = _BLANK_LINE.sub("\n", text).strip().split("\n")
        header = _is_header(lines[0])
        if not lines[0] or (header and len(lines) == 1):
            raise InvalidParameterError(f"cannot read {path}: no data rows")
        return np.loadtxt(
            lines, delimiter=",", ndmin=2, quotechar='"', comments=None,
            skiprows=int(header),
        )
    except ValueError as exc:
        # Undecodable bytes (UnicodeDecodeError) or a bad row from loadtxt.
        raise InvalidParameterError(f"cannot read {path}: {exc}") from exc


def read_vector_csv(path) -> np.ndarray:
    """Read a CSV holding a single row or single column of numbers."""
    arr = read_matrix_csv(path)
    if arr.shape[0] == 1 or arr.shape[1] == 1:
        return arr.reshape(-1)
    raise InvalidParameterError(
        f"cannot read {path}: expected a single row or column, got shape {arr.shape}"
    )

"""CSV matrix reading and writing for the command line tools.

Dialect: comma separated, '.' decimal point, UTF-8 (a leading byte order
mark is ignored), no locale dependence.  Blank and whitespace-only lines
are skipped.  The first non-blank row is a header, and is skipped, when one
of its cells is non-empty and not a number.  Every other row must have the
same number of cells, each a number, optionally double-quoted and padded
with spaces or tabs.  Values are written in scientific notation with 17
digits after the point, which round-trips 64-bit floats exactly.

A plain file, one that holds only the bytes 0-9, ',' and newline after an
optional byte order mark and header row, with 1 to 15 digits in every cell
and an optional final newline, is parsed straight from its bytes, in blocks
of whole rows.  Its cells are integers below 2^53, exact in float64, so the
result has the same bits as the float parse that reads every other file.
``read_moments_csv`` reduces a plain file to its Moments block by block,
without holding the matrix.
"""

from __future__ import annotations

import codecs
import functools
import io
import re
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError
from .matrix_core import EXACT_SUM_BOUND, Moments

FLOAT_FORMAT = "%.17e"

# Plain files are parsed in blocks of whole rows of at least this many
# bytes.  Per-call overhead grows below it and cache misses above it: on a
# 100000 x 20 count file, reduced to its Moments through one reused block
# buffer, 64 KiB and 128 KiB tied and 32 KiB and 256 KiB were slower.
_BLOCK_BYTES = 1 << 16
# Integers of up to 15 digits are below 2^53, so exact in float64.
_MAX_DIGITS = 15

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


def _line_end(data: bytes, start: int) -> int:
    end = data.find(b"\n", start)
    return len(data) if end < 0 else end


class _NotPlain(Exception):
    """A block of the file is not plain."""


def _plain_layout(data: bytes) -> tuple[int, int] | None:
    """(offset of the first data row, cells per row) of a plain file.

    None when the head of the file rules out a plain file: undecodable
    bytes or a CR in the first line, or no data row.  The rows themselves
    are checked by ``_plain_blocks``.
    """
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    first = _line_end(data, start)
    try:
        head = data[start:first].decode("utf-8")
    except UnicodeDecodeError:
        return None
    if "\r" in head:  # universal newlines would end the row at '\r'
        return None
    if _is_header(head):
        start = first + 1
        first = _line_end(data, start)
    if start >= len(data):
        return None
    return start, data.count(b",", start, first) + 1


def _plain_blocks(data: bytes, start: int, n: int):
    """Yield the rows of a plain file from ``start`` on, in (rows, n) blocks.

    A plain file holds only the bytes 0-9, ',' and '\\n' after an optional
    byte order mark and an optional header row; every cell has 1 to 15
    digits and the last newline may be missing.  Such cells are integers
    below 2^53, exact in float64, so the float parse gives the same bits.
    Anything else (blank lines, empty cells, CR, quotes, padding, signs,
    decimals, 16 or more digits, ragged rows) raises _NotPlain.

    Every block is parsed into one buffer, so a block is valid only until
    the next one is yielded.
    """
    buf = np.frombuffer(data, np.uint8)[start:]
    vals = np.empty(0)
    pos = 0
    while pos < buf.size:
        end = data.find(b"\n", start + pos + _BLOCK_BYTES - 1) - start
        if end < 0:
            end = buf.size - 1
        block = buf[pos:end + 1]
        if block[-1] != ord("\n"):
            block = np.append(block, np.uint8(ord("\n")))
        # Every cell takes at least a digit and a separator.
        if vals.size < block.size // 2:
            vals = np.empty(block.size // 2)
        rows = _parse_block(block, n, vals)
        if rows is None:
            raise _NotPlain
        yield vals[:rows * n].reshape(rows, n)
        pos = end + 1


def _read_plain(data: bytes) -> np.ndarray | None:
    """The matrix of a plain file, or None when the file is not plain."""
    layout = _plain_layout(data)
    if layout is None:
        return None
    start, n = layout
    out = np.empty((data.count(b"\n", start) + (data[-1:] != b"\n"), n))
    done = 0
    try:
        for block in _plain_blocks(data, start, n):
            out[done:done + block.shape[0]] = block
            done += block.shape[0]
    except _NotPlain:
        return None
    return out


def read_moments_csv(path) -> Moments | None:
    """The Moments of a plain file, reduced block by block as it is parsed.

    The k x n matrix is never held: each block adds its gram, column sums
    and range to running totals.  Plain cells are nonnegative integers, so
    while k * max(y)^2 < 2^53 every partial sum is an integer below 2^53,
    exact in float64, and the totals have the bits of the whole-matrix
    ones whatever the block split.  None when the file is not plain or its
    counts break that bound; ``read_matrix_csv`` then reads the matrix.
    """
    data = Path(path).read_bytes()
    layout = _plain_layout(data)
    if layout is None:
        return None
    start, n = layout
    gram, colsum = np.zeros((n, n)), np.zeros(n)
    k, ymin, ymax = 0, np.inf, 0.0
    try:
        for block in _plain_blocks(data, start, n):
            gram += block.T @ block
            colsum += np.ones(block.shape[0]) @ block
            k += block.shape[0]
            ymin, ymax = min(ymin, block.min()), max(ymax, block.max())
            if k * int(ymax) ** 2 >= EXACT_SUM_BOUND:
                return None
    except _NotPlain:
        return None
    return Moments(gram, colsum, np.diag(gram).copy(), k, float(ymin),
                   float(ymax), integral=True)


def _parse_block(b: np.ndarray, n: int, out: np.ndarray) -> int | None:
    """Parse whole rows of n cells into the front of the flat array out.

    b ends with a newline and out has room for every cell.  Returns the
    number of rows, or None when the block is not plain.
    """
    sep = np.flatnonzero(b < ord("0"))
    rows = np.count_nonzero(b == ord("\n"))
    # Every byte is a digit, comma or newline, there are n separators per
    # row, and every n-th separator is a newline.
    if (b.max() > ord("9") or sep.size != rows * n
            or np.count_nonzero(b == ord(",")) != sep.size - rows
            or (b[sep[n - 1::n]] != ord("\n")).any()):
        return None
    digits = np.empty_like(sep)
    digits[0] = sep[0]
    np.subtract(sep[1:], sep[:-1] + 1, out=digits[1:])
    shortest, longest = digits.min(), digits.max()
    if shortest < 1 or longest > _MAX_DIGITS:
        return None
    # Right to left, one place at a time; all sums are exact integers.
    last = sep - 1
    vals = out[:sep.size]
    np.subtract(b[last], ord("0"), out=vals)
    for place in range(1, longest):
        d = b[last - place] - ord("0")
        if place >= shortest:
            # Zero the cells that have no digit at this place; the index
            # they read lies in an earlier cell, or wraps for the first.
            d *= digits > place
        vals += d * 10.0 ** place
    return rows


def read_matrix_csv(path) -> np.ndarray:
    """Read a numeric CSV matrix, skipping one auto-detected header row."""
    data = Path(path).read_bytes()
    values = _read_plain(data)
    if values is not None:
        return values
    try:
        # As Path.read_text decodes: universal newlines, BOM dropped.
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc}") from exc
    lines = _BLANK_LINE.sub("\n", text).strip().split("\n")
    header = _is_header(lines[0])
    if not lines[0] or (header and len(lines) == 1):
        raise InvalidParameterError(f"cannot read {path}: no data rows")
    try:
        return _loadtxt(lines, skiprows=int(header))
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

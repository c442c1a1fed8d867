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
and an optional final newline, is parsed straight from its bytes.  Its
rows are cut into one range per CPU, and each range is parsed in blocks of
whole rows into its own rows of the result: the first range on the calling
thread, each other one on a thread of its own.  The
cells are integers below 2^53, exact in float64, so the result has the same
bits as the float parse that reads every other file.  ``read_moments_csv``
cuts the same ranges but reduces each one, block by block, to its Moments
without holding the matrix, and adds the partial sums.  They are exact
integers, so the Moments do not depend on the split.
"""

from __future__ import annotations

import codecs
import functools
import io
import re
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError
from .matrix_core import (
    Moments,
    _count_moments,
    _count_sums,
    _on_threads,
    cpu_count,
)

FLOAT_FORMAT = "%.17e"

# Plain files are parsed in blocks of whole rows of at least this many
# bytes.  Every block costs a fixed run of numpy calls whose Python side
# holds the GIL; only the passes over the block's bytes release it.  On a
# 100000 x 20 count file (6.6 MB, 2-core host, median of 75 reductions) one
# thread took 45, 46, 48 and 59 ms with blocks of 64, 128, 256 and 512 KiB,
# and two threads 50, 39, 37 and 37 ms: small blocks keep the second thread
# waiting on the GIL, large ones miss the cache.
_BLOCK_BYTES = 1 << 18
# Each thread gets a row range of at least this many bytes, so a smaller
# file is parsed or reduced on the calling thread alone.
_RANGE_MIN_BYTES = 4 * _BLOCK_BYTES
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


def _plain_blocks(data: bytes, start: int, stop: int, n: int):
    """Yield the rows of ``data[start:stop]``, whole rows of a plain file,
    in (rows, n) blocks.

    A plain file holds only the bytes 0-9, ',' and '\\n' after an optional
    byte order mark and an optional header row; every cell has 1 to 15
    digits and the last newline may be missing.  Such cells are integers
    below 2^53, exact in float64, so the float parse gives the same bits.
    Anything else (blank lines, empty cells, CR, quotes, padding, signs,
    decimals, 16 or more digits, ragged rows) raises _NotPlain.

    Every block is parsed into one buffer, so a block is valid only until
    the next one is yielded.
    """
    buf = np.frombuffer(data, np.uint8)[start:stop]
    vals = np.empty(0)
    pos = 0
    while pos < buf.size:
        end = data.find(b"\n", start + pos + _BLOCK_BYTES - 1, stop) - start
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


def _fill_rows(data: bytes, start: int, stop: int, n: int,
               out: np.ndarray) -> bool:
    """Parse the plain rows of data[start:stop] into ``out``, which has one
    row for each of them; False when a block is not plain."""
    done = 0
    try:
        for block in _plain_blocks(data, start, stop, n):
            out[done:done + block.shape[0]] = block
            done += block.shape[0]
    except _NotPlain:
        return False
    return True


def _read_ranges(data: bytes, n: int, cuts: list[int]) -> np.ndarray | None:
    """The matrix of the rows between consecutive ``cuts``, each range
    parsed into its own rows of the result, the first on the calling thread
    and each other one on a thread of its own; None when a range is not
    plain."""
    ends = [0]
    for a, b in zip(cuts, cuts[1:]):
        # Only the range at the end of the file can lack a final newline.
        ends.append(ends[-1] + data.count(b"\n", a, b)
                    + (a < b and data[b - 1] != ord("\n")))
    out = np.empty((ends[-1], n))
    filled = _on_threads(_fill_rows, [
        (data, a, b, n, out[lo:hi])
        for a, b, lo, hi in zip(cuts, cuts[1:], ends, ends[1:])
    ])
    return out if all(filled) else None


def _read_plain(data: bytes) -> np.ndarray | None:
    """The matrix of a plain file, or None when the file is not plain.

    The rows are cut into ranges as ``read_moments_csv`` cuts them.
    """
    layout = _plain_layout(data)
    if layout is None:
        return None
    start, n = layout
    return _read_ranges(data, n, _row_cuts(data, start))


def _reduce_rows(data: bytes, start: int, stop: int, n: int):
    """(gram, colsum, rows, ymin, ymax) of the plain rows in data[start:stop].

    None when a block is not plain or the range's own running totals break
    k * max(y)^2 < 2^53.  An empty range gives zeros.
    """
    try:
        return _count_sums(_plain_blocks(data, start, stop, n), n)
    except _NotPlain:
        return None


def _row_cuts(data: bytes, start: int) -> list[int]:
    """Offsets [start, ..., len(data)] that cut data[start:] into row ranges
    of about equal size, each cut just after a newline: one range per CPU,
    but none under ``_RANGE_MIN_BYTES``."""
    size = len(data) - start
    parts = min(cpu_count(), size // _RANGE_MIN_BYTES)
    cuts = [start]
    for i in range(1, parts):
        cut = data.find(b"\n", start + size * i // parts) + 1
        if cuts[-1] < cut < len(data):
            cuts.append(cut)
    cuts.append(len(data))
    return cuts


def _reduce_ranges(data: bytes, n: int, cuts: list[int]) -> Moments | None:
    """The Moments of the rows between consecutive ``cuts``, the first range
    reduced on the calling thread and each other one on a thread of its own,
    added together; None when a range is not plain or the totals break the
    exact-sum bound."""
    return _count_moments(_on_threads(
        _reduce_rows, [(data, a, b, n) for a, b in zip(cuts, cuts[1:])]))


def read_moments_csv(path) -> Moments | None:
    """The Moments of a plain file, reduced range by range as it is parsed.

    The k x n matrix is never held.  The rows are cut into one contiguous
    range per CPU, but into no range under ``_RANGE_MIN_BYTES``, and each
    range is reduced block by block to its gram, column sums and range: the
    first on the calling thread, each other one on a thread of its own.
    Plain cells are nonnegative integers, so while k * max(y)^2 < 2^53 every partial sum is an integer
    below 2^53, exact in float64, and the totals have the bits of the
    whole-matrix ones whatever the split.  None when the file is not plain
    or its counts break that bound; ``read_matrix_csv`` then reads the
    matrix.
    """
    data = Path(path).read_bytes()
    layout = _plain_layout(data)
    if layout is None:
        return None
    start, n = layout
    return _reduce_ranges(data, n, _row_cuts(data, start))


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

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
of whole rows on the calling thread.  A block costs one scan for its
separators, two uint16 passes over all its bytes per digit of its longest
cell (up to four), and one gather at the separators per four digits
(``_parse_block``).  The cells are integers below 2^53, exact in float64,
so the result has the same bits as the float parse that reads every other
file.  Only ``read_moments_csv`` cuts the rows into ranges, one per CPU: it
reduces each range's blocks with ``_block_moments`` without holding the
matrix, and adds the ranges' Moments in file order.  While they are
``Moments.exact`` their sums are exact integers, so they do not depend on
the split.
"""

from __future__ import annotations

import codecs
import functools
import io
import operator
import re
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError
from .matrix_core import (
    Moments,
    _block_moments,
    _check_data_shape,
    _on_threads,
    check_columns,
    cpu_count,
)

FLOAT_FORMAT = "%.17e"

# Plain files are parsed in blocks of whole rows of at least this many
# bytes.  Every block costs a fixed run of numpy calls whose Python side
# holds the GIL; only the passes over the block's bytes release it.  On a
# 100000 x 20 count file (6.6 MB, 2-core host, median of 75 reductions) one
# thread took 40, 35, 36 and 42 ms with blocks of 64, 128, 256 and 512 KiB,
# and two threads 36, 28, 24 and 32 ms: small blocks keep the second thread
# waiting on the GIL, large ones miss the cache.
_BLOCK_BYTES = 1 << 18
# ``read_moments_csv`` gives each thread a row range of at least this many
# bytes, so a smaller file is reduced on the calling thread alone.
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


def _read_plain(data: bytes) -> np.ndarray | None:
    """The matrix of a plain file, parsed block by block on the calling
    thread, or None when the file is not plain."""
    layout = _plain_layout(data)
    if layout is None:
        return None
    start, n = layout
    # One row per newline, and one more when the last newline is missing.
    out = np.empty((data.count(b"\n", start) + (data[-1:] != b"\n"), n))
    done = 0
    try:
        for block in _plain_blocks(data, start, len(data), n):
            out[done:done + block.shape[0]] = block
            done += block.shape[0]
    except _NotPlain:
        return None
    return out


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


def read_moments_csv(path) -> Moments | None:
    """The Moments of a plain file, reduced range by range as it is parsed.

    The k x n matrix is never held.  The rows are cut into one contiguous
    range per CPU, but into no range under ``_RANGE_MIN_BYTES``; each
    range's blocks are added by ``_block_moments``, the first range on the
    calling thread and each other one on a thread of its own, and the
    ranges' Moments are added in file order.  While they are
    ``Moments.exact`` they have the bits of the whole matrix's, whatever the
    split.  None when they are not, or when the file is not plain;
    ``read_matrix_csv`` then reads the matrix.  InvalidParameterError for a
    first row of more than ``MAX_COLUMNS`` cells, before any block is
    parsed, and for exact Moments of one column, naming all the file's rows.
    """
    data = Path(path).read_bytes()
    layout = _plain_layout(data)
    if layout is None:
        return None
    start, n = layout
    check_columns(n)
    cuts = _row_cuts(data, start)
    try:
        parts = _on_threads(
            lambda a, b: _block_moments(_plain_blocks(data, a, b, n), True),
            list(zip(cuts, cuts[1:])))
    except _NotPlain:
        return None
    moments = functools.reduce(operator.add, parts)
    if not moments.exact:
        return None
    _check_data_shape(moments.k, n)
    return moments


def _parse_block(b: np.ndarray, n: int, out: np.ndarray) -> int | None:
    """Parse whole rows of n cells into the front of the flat array out.

    b ends with a newline and out has room for every cell.  Returns the
    number of rows, or None when the block is not plain.

    One scan finds the separators.  Then ``k[j + 1]`` is built over the
    whole block, in uint16, as the value of the last digits up to byte j,
    one more digit per step by Horner's rule: ten times the value up to
    byte j - 1 after a digit, nothing after a separator, plus the digit at
    j.  Three steps give every cell's last four digits at the byte before
    its separator, gathered once into float64; each further group of four
    digits is gathered from four bytes earlier.  All sums are exact
    integers.
    """
    sep = (b < ord("0")).nonzero()[0]
    rows = sep.size // n
    # Every byte is a digit, comma or newline, there are n separators per
    # row, and every n-th separator is a newline, the others commas.
    if (b.max() > ord("9") or sep.size != rows * n
            or np.count_nonzero(b == ord(",")) != sep.size - rows
            or (b[sep[n - 1::n]] != ord("\n")).any()):
        return None
    # A cell's digits lie strictly between its separator and the one before.
    gaps = np.subtract(sep[1:], sep[:-1])
    longest = max(sep[0] + 1, gaps.max(initial=0)) - 1
    if sep[0] == 0 or gaps.min(initial=2) < 2 or longest > _MAX_DIGITS:
        return None
    # Index j + 1 holds byte j's digit; a separator's wraps, but a step
    # multiplies it by 0 and no gather reads it.
    digit = np.empty(b.size + 1, np.uint16)
    digit[0] = 0
    np.subtract(b, ord("0"), out=digit[1:], dtype=np.uint16)
    k = digit
    if longest > 1:
        # k[j + 1] = ten[j - 1] * k[j] + digit[j + 1], where ten[j - 1] is 10
        # when byte j - 1 is a digit and 0 when it is a separator.
        ten = np.multiply(b[:-1] >= ord("0"), 10, dtype=np.uint16)
        for _ in range(min(longest, 4) - 1):
            nxt = np.empty_like(digit)
            nxt[:2] = digit[:2]
            np.multiply(ten, k[1:-1], out=nxt[2:])
            np.add(nxt[2:], digit[2:], out=nxt[2:])
            k = nxt
    vals = out[:sep.size]
    np.copyto(vals, k.take(sep))
    if longest > 4:
        # Digits + 1 of each cell; a cell of no more than `place` digits
        # gathers from an earlier cell, or wraps, and is masked.
        width = np.diff(sep, prepend=-1)
        for place in range(4, longest, 4):
            part = k.take(sep - place) * (width > place + 1)
            vals += part * 10.0 ** place
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

"""The one CSV layout of every table the package writes and reads back.

A table is a header line of column names followed by one line per row:
fields joined by ``,``, lines ended by LF, no quoting.  Cells are formatted
column by column: floats as their shortest round-trip ``repr``, boolean
flags as ``1``/``0``, integers and strings with ``str``.  With no quoting,
a text cell may not hold ``,``, LF or CR.

Every CSV reader of the package, the LOB parser included, reads from bytes
through one tokenizer (:func:`split_cells`).  Two numpy word kernels
(:func:`plain_floats`, :func:`plain_ints`) convert a whole column of plain
cells with no Python object per cell: the LOB parser uses both, a table's
integer columns the second.  Every cell the kernels decline, in a table or
a LOB file, is converted once per distinct text (:func:`converted`), and
the first text the conversion rejects names its row.
A table file with a byte outside the tokenizer's alphabet, a CR included,
is normalised as text first (rows split on whitespace).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import stat
import threading

import numpy as np

__all__ = [
    "write_table",
    "check_text_cell",
    "read_cells",
    "Cells",
    "split_cells",
    "distinct_cells",
    "converted",
    "plain_floats",
    "plain_ints",
]

# Rows formatted per write: bounds the text held at once whatever the table size.
BLOCK_ROWS = 8192
# The characters no cell may hold: the layout has no quoting.
_SEPARATOR = re.compile("[,\n\r]")


def _cells(column) -> list[str]:
    """Cell texts of a column slice (a numpy array or a sequence)."""
    # str of a Python float is its repr, the shortest text that round-trips
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        # each distinct value is formatted once; keyed by its bits, -0.0 keeps its own text
        bits, index = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
        fmt = "01".__getitem__ if column.dtype == bool else str
        texts = np.array(list(map(fmt, bits.view(column.dtype).tolist())), dtype=object)
        return texts[index].tolist()
    if isinstance(column, np.ndarray):
        column = column.tolist()
    texts = list(map(str, column))
    if _SEPARATOR.search("".join(texts)):
        check_text_cell(next(filter(_SEPARATOR.search, texts)))
    return texts


def check_text_cell(text: str) -> None:
    """Raise the ValueError :func:`write_table` raises for ``text`` as a
    cell if it holds ``,``, LF or CR, so a caller can reject it before
    writing anything."""
    if _SEPARATOR.search(text):
        raise ValueError(f"cell {text!r} holds a ',', LF or CR, which would split its row")


def write_table(path, header, columns) -> None:
    """Write ``columns`` (equal-length arrays or sequences) under ``header``.

    The rows go to a temporary file beside ``path``, which replaces
    ``path`` only once every row is written: a failed write leaves no
    partial table, and no temporary file.  A symlinked ``path`` is written
    through to the file it names, and an existing file keeps its mode.  A
    text cell holding ``,``, LF or CR raises ValueError.
    """
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    path = os.path.realpath(path)
    # unique per writing thread, so concurrent writes of one path each
    # replace it with a whole table
    partial = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, n_rows, BLOCK_ROWS):
                block = [_cells(column[start:start + BLOCK_ROWS]) for column in columns]
                fh.write("\n".join(map(",".join, zip(*block))) + "\n")
        with contextlib.suppress(FileNotFoundError):
            os.chmod(partial, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


# -- the byte-level tokenizer and the word kernels ---------------------------

_COMMA, _NEWLINE, _DOT, _MINUS = b",\n.-"

# Bytes readable in front of every cell end: the kernels read up to three
# 8-byte words that end at a cell's separator.
PAD = 24

_WORD = np.dtype("<u8")
_ALL = (1 << 64) - 1


def _u64(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


def _words(buf: np.ndarray) -> np.ndarray:
    """Word j of the result is bytes j .. j + 7 of ``buf``, little-endian.

    The word that ends where a cell ends, at separator position e, is
    ``_words(buf)[e - 8]``: the cell's bytes are its top bytes.
    """
    return np.ndarray((buf.size - 7,), dtype=_WORD, buffer=buf, strides=(1,))


# Indexed by n: the mask keeping the top n bytes of a word, and the one-bit
# flag of the lowest of them (where the first byte of an n-byte cell sits).
_TOP = _u64([_ALL ^ ((1 << 8 * (8 - n)) - 1) for n in range(9)])
_LEAD_FLAG = _u64([0] + [1 << 8 * (8 - n) for n in range(1, 9)])
_LOW_NIBBLES = np.uint64(0x0F0F0F0F0F0F0F0F)
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII "0"
_DIGIT_CEILING = np.uint64(0x4646464646464646)  # 0x7F - "9" in every byte
_HIGH_BITS = np.uint64(0x8080808080808080)
_BYTES = np.uint64(0xFF)
# Indexed by s = 8 - (byte index of the dot), 0 without a dot: the bytes
# above and below the dot, and 10**(digits after the dot).
_ABOVE_DOT = _u64([_ALL] + [_ALL ^ ((1 << 8 * (9 - s)) - 1) for s in range(1, 9)])
_BELOW_DOT = _u64([0] + [(1 << 8 * (8 - s)) - 1 for s in range(1, 9)])
_DOT_SCALE = np.array([1.0] + [10.0 ** (s - 1) for s in range(1, 9)])
# The byte weights 1..8 from the lowest byte up: one dot flag at byte k
# times this has 8 - k in its top byte.
_DOT_INDEX = np.uint64(0x0807060504030201)
_INT64_MAX = np.uint64(2**63 - 1)


def _eight_digits(word: np.ndarray) -> np.ndarray:
    """Eight ASCII digits per word to one integer, the lowest byte the most
    significant digit (the simdjson multiply-shift); updates ``word``."""
    word &= _LOW_NIBBLES
    word *= np.uint64(10 * 256 + 1)
    word >>= np.uint64(8)
    word &= np.uint64(0x00FF00FF00FF00FF)
    word *= np.uint64(100 * 65536 + 1)
    word >>= np.uint64(16)
    word &= np.uint64(0x0000FFFF0000FFFF)
    word *= np.uint64(10000 * (1 << 32) + 1)
    word >>= np.uint64(32)
    return word


def _gaps(positions: np.ndarray) -> np.ndarray:
    """Each position minus the one before it, the first minus -1."""
    out = np.empty_like(positions)
    out[:1] = positions[:1] + 1
    np.subtract(positions[1:], positions[:-1], out=out[1:])
    return out


def split_cells(buf: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of the lines ``buf[lo:hi]``, each line ended by ``\\n``.

    Only ``,`` and ``\\n`` separate: one pass finds every byte up to ``,``,
    and any other byte below ``,`` (a ``+``, a control byte) is kept as
    part of its cell.  Returns the end of every cell (the position of its
    separator in ``buf``) in file order, the start of each non-empty line,
    and each line's field count, 0 for an empty line, whose separator is not
    a cell.  A cell's width is its end minus the end before it, less one, or
    minus its line's start for the first cell of a line.
    """
    text = buf[lo:hi]
    ends = np.flatnonzero(text <= _COMMA)
    separators = text[ends]
    newline = separators == _NEWLINE
    separate = newline | (separators == _COMMA)
    if not separate.all():
        ends, newline = ends[separate], newline[separate]
    line_ends = np.flatnonzero(newline)
    fields = _gaps(line_ends)
    ends += lo
    starts = np.empty(line_ends.size, dtype=ends.dtype)
    starts[:1] = lo
    np.add(ends[line_ends[:-1]], 1, out=starts[1:])
    empty = (fields == 1) & (ends[line_ends] == starts)
    if empty.any():
        fields[empty] = 0
        ends = np.delete(ends, line_ends[empty])
        starts = starts[~empty]
    return ends, starts, fields


def plain_floats(buf: np.ndarray, ends: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """``float(text)`` of every cell, bit for bit, or None unless all are plain.

    ``ends`` and ``width`` may have any shape; the values take it.  The
    cells' bytes must be ``-``, ``.`` and digits only: the callers check
    that.  A plain cell is empty (NaN) or at most 8 bytes of an optional
    leading ``-``, digits and at most one ``.``, with at least one digit.
    Its digits, read as one integer m < 10**8, and f, the digits after the
    dot, give ``±m / 10**f``: both terms are exact doubles, so the one
    correctly rounded division equals ``float(text)`` bit for bit, ``-0``
    included.  Every cell costs a few word operations and no Python object.
    """
    if ends.size and width.max() > 8:
        return None
    word = _words(buf)[ends - 8]
    word &= _TOP[width]
    as_bytes = word.view(np.uint8)
    dots = as_bytes == _DOT
    dot = dots.view(_WORD)
    has_dot = dot != 0
    if np.count_nonzero(dots) != np.count_nonzero(has_dot):
        return None  # a cell with two dots
    del dots
    minus = as_bytes == _MINUS
    negative = None
    if minus.any():
        minus = minus.view(_WORD)
        if not (minus == (_LEAD_FLAG[width] & minus)).all():
            return None  # a sign after the first byte
        negative = minus != 0
        word &= ~(minus * _BYTES)
    del minus, as_bytes
    dot_slot = ((dot * _DOT_INDEX) >> np.uint64(56)).astype(np.intp)
    del dot, has_dot
    # the bytes before the dot move up one byte, over it
    word = (word & _ABOVE_DOT[dot_slot]) | ((word & _BELOW_DOT[dot_slot]) << np.uint64(8))
    empty = width == 0
    # with sign and dot gone, only a cell without digits is all zero bytes
    if np.count_nonzero(word == 0) != np.count_nonzero(empty):
        return None
    values = _eight_digits(word).astype(np.float64)
    del word
    values /= _DOT_SCALE[dot_slot]
    if negative is not None:
        np.negative(values, out=values, where=negative)
    values[empty] = np.nan
    return values


def plain_ints(buf: np.ndarray, ends: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """``int(text)`` of every cell as int64, or None unless all are plain.

    A plain integer cell is an optional leading ``-`` and 1 to 19 digits,
    leading zeros allowed, inside the int64 range.  It is read as three
    words of eight digits: the value, below 10**19 < 2**64, is exact in
    uint64 before the sign is applied.
    """
    n = ends.size
    if not n:
        return np.empty(0, dtype=np.int64)
    if width.min() < 1 or width.max() > 20:
        return None
    negative = buf[ends - width] == _MINUS
    digits = width - negative
    if digits.min() < 1 or digits.max() > 19:
        return None
    view = _words(buf)
    value = np.zeros(n, dtype=np.uint64)
    for k in range(3):
        in_word = np.clip(digits - 8 * k, 0, 8)
        if not in_word.any():
            break
        inside = _TOP[in_word]
        # the bytes outside the cell read as "0"
        word = (view[ends - 8 * (k + 1)] & inside) | (_ZEROS & ~inside)
        if (((word + _DIGIT_CEILING) | (word - _ZEROS)) & _HIGH_BITS).any():
            return None  # a byte outside "0".."9"
        value += _eight_digits(word) * np.uint64(10 ** (8 * k))
    if (value > _INT64_MAX + negative).any():
        return None
    out = value.view(np.int64)
    np.negative(out, out=out, where=negative)
    return out


_DISTINCT_MIX = np.uint64(0x9E3779B97F4A7C15)


def _decoded(data: bytes, ends, width) -> list[str]:
    return [data[e - w:e].decode("utf-8") for e, w in zip(ends.tolist(), width.tolist())]


def distinct_cells(data: bytes, ends: np.ndarray, width: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct cell texts in the order they first appear, and each
    cell's index into them.

    ``ends`` and ``width`` may have any shape; the index takes it, and the
    cells appear in C order.  Every cell needs :data:`PAD` bytes of
    ``data`` in front of its end.  Equal neighbours are compared byte for
    byte and form runs.  The runs are keyed by a hash of their last 24
    bytes and width, and each run is checked against the first run with its
    key.  A cell over :data:`PAD` bytes, or a key collision, sends the
    cells to a dict of their decoded texts instead.  Converting the
    distinct texts in order, the first bad one is the first bad cell.
    """
    shape = ends.shape
    ends, width = ends.ravel(), width.ravel()
    if ends.size and width.max() <= PAD:
        view = _words(np.frombuffer(data, dtype=np.uint8))
        # word k holds bytes 8k+1 .. 8k+8 from a cell's end, zero outside it
        cell = [view[ends - 8 * (k + 1)] & _TOP[np.clip(width - 8 * k, 0, 8)]
                for k in range(-(-int(width.max()) // 8))]
        same = width[1:] == width[:-1]
        for word in cell:
            same &= word[1:] == word[:-1]
        runs = np.flatnonzero(np.concatenate(([True], ~same)))
        run_width = width[runs]
        cell = [word[runs] for word in cell]
        key = run_width.astype(np.uint64)
        for word in cell:
            key = key * _DISTINCT_MIX + word
        # the first run of each key; unique's stable sort for return_index is slower
        keys, inverse = np.unique(key, return_inverse=True)
        first = np.full(keys.size, runs.size)
        np.minimum.at(first, inverse, np.arange(runs.size))
        rep = first[inverse]
        same = run_width == run_width[rep]
        for word in cell:
            same &= word == word[rep]
        if same.all():
            order = np.argsort(first)
            # argsort of the permutation is its inverse: each run's rank
            index = np.repeat(np.argsort(order)[inverse], np.diff(runs, append=ends.size))
            firsts = runs[first[order]]
            return _decoded(data, ends[firsts], width[firsts]), index.reshape(shape)
    ids: dict[str, int] = {}
    index = np.array([ids.setdefault(t, len(ids)) for t in _decoded(data, ends, width)], np.intp)
    return list(ids), index.reshape(shape)


def converted(data: bytes, ends, width, convert, dtype) -> tuple[np.ndarray, tuple | None]:
    """The cells' values, one ``convert()`` per distinct text
    (:func:`distinct_cells`) in the order they first appear, and
    ``(row, text, message)`` of the first cell whose text ``convert``
    rejects with ValueError, None if none.  The row is the cell's index
    along the first axis; the cells of that text and of every later one
    hold 0.  A value ``dtype`` cannot hold raises as numpy raises it."""
    texts, index = distinct_cells(data, ends, width)
    values = np.zeros(len(texts), dtype)
    for k, text in enumerate(texts):
        try:
            values[k] = convert(text)
        except ValueError as exc:
            row = np.unravel_index(np.argmax(index == k), index.shape)[0]
            return values[index], (int(row), text, str(exc))
    return values[index], None


# -- typed columns of a table ------------------------------------------------

# The bytes a table file may hold for the tokenizer as it is; a file with
# any other byte, a CR included, is normalised first.
_TABLE_BYTES = (b"0123456789.-,\n_" + bytes(range(ord("a"), ord("z") + 1))
                + bytes(range(ord("A"), ord("Z") + 1)))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


class Cells:
    """A table's header and cells, converted to a typed column on request:
    by the integer word kernel where it takes the column, else one
    ``int()``, ``float()`` or flag match per distinct cell
    (:func:`converted`), with the values of one per cell.  A rejected cell
    raises ValueError naming the file, its data row, the column and the
    text, then the conversion's own words."""

    def __init__(self, path, header, data: bytes, ends, starts):
        self.path = path
        self.header = header
        self.n_rows = len(ends)
        self._data, self._ends, self._starts = data, ends, starts

    def _cells(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """End and width of each cell of a column."""
        i = self.header.index(name)
        ends = self._ends[:, i]
        width = ends - (self._ends[:, i - 1] if i else self._starts - 1)
        width -= 1
        return ends, width

    def texts(self, name: str) -> list[str]:
        """The cell texts of a column."""
        return _decoded(self._data, *self._cells(name))

    def reject(self, name: str, row: int, reason: str):
        """Raise the ValueError of a rejected cell: the file, the data row
        (``row`` counts from 0), the column and the cell's text, then
        ``reason``."""
        ends, width = self._cells(name)
        text = _decoded(self._data, ends[row:row + 1], width[row:row + 1])[0]
        raise ValueError(f"{self.path}: data row {row + 1} has {name} {text!r}, {reason}")

    def _converted(self, name: str, convert, dtype) -> np.ndarray:
        values, bad = converted(self._data, *self._cells(name), convert, dtype)
        if bad is not None:
            self.reject(name, bad[0], bad[2])
        return values

    def ints(self, name: str) -> np.ndarray:
        """A column of ``int()`` values, as int64."""
        values = plain_ints(np.frombuffer(self._data, dtype=np.uint8), *self._cells(name))
        return self._converted(name, int, np.int64) if values is None else values

    def floats(self, name: str) -> np.ndarray:
        """A column of finite ``float()`` values, as float64; a cell that
        reads as NaN or infinite is rejected."""
        return self._converted(name, _finite, np.float64)

    def flags(self, name: str, true_text: str, false_text: str) -> np.ndarray:
        """A two-valued column as booleans, True where the cell is
        ``true_text``; any other cell is rejected."""

        def flag(text: str) -> bool:
            if text not in (true_text, false_text):
                raise ValueError(f"not {true_text!r} or {false_text!r}")
            return text == true_text

        return self._converted(name, flag, bool)


def read_cells(path) -> Cells:
    """Read a table's header and cells from its bytes.

    A file that holds a byte other than letters, digits, ``_``, ``.``,
    ``-``, ``,`` and LF (a CR among them) is decoded as UTF-8 and normalised
    first: its header is the first line stripped of whitespace, and its
    rows are the body split on whitespace, so blank lines and CR line ends
    are ignored.  A row whose field count differs from the header's raises.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.translate(None, _TABLE_BYTES):
        text = io.StringIO(raw.decode("utf-8"), newline=None)
        raw = "\n".join([text.readline().strip(), *text.read().split()]).encode("utf-8")
    head = raw.partition(b"\n")[0]
    header = head.decode("utf-8").split(",")
    n_cols = len(header)
    # PAD zero bytes in front, and a final line end should the file lack one
    # (one more would make an empty last line, whose removal copies every cell end)
    data = b"".join([bytes(PAD), raw, b"" if raw.endswith(b"\n") else b"\n"])
    del raw
    ends, starts, fields = split_cells(np.frombuffer(data, dtype=np.uint8),
                                       PAD + len(head) + 1, len(data))
    fields = fields[fields > 0]
    if (fields != n_cols).any():
        row = int(np.argmax(fields != n_cols))
        raise ValueError(f"{path}: data row {row + 1} has {fields[row]} fields, "
                         f"the header {n_cols}")
    return Cells(path, header, data, ends.reshape(-1, n_cols), starts)

"""Recorded and synthetic quote data.

LOB CSV schema (header mandatory, UTF-8, LF, CRLF or CR line ends):

    ts,bid_px_1,bid_sz_1,...,bid_px_5,bid_sz_5,
       ask_px_1,ask_sz_1,...,ask_px_5,ask_sz_5,trade_px,trade_sz

``ts`` is integer nanoseconds since epoch; price/size fields may be empty
for absent levels, and trade_px/trade_sz are empty on non-trade events.
An empty cell is the only way to write "absent": literal ``nan``/``inf``
cells are rejected.  :func:`parse_lob_csv` takes the file's bytes and
returns it as columns (:class:`LOBBook`), with NaN for each empty cell.
Every file takes one route: blocks of lines cut by the tokenizer of
:mod:`mmsim.table`, and one converter per block, which reads a column with
the word kernels when they take it whole, else once per distinct cell text
(:func:`mmsim.table.converted`) at the same cell positions.  A file with
CR line ends is split as text first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import RngStream
from .params import MarketParams
from .table import converted, plain_floats, plain_ints, split_cells

__all__ = [
    "LOBBook",
    "PriceSeries",
    "SchemaMismatchError",
    "MalformedRowError",
    "NonMonotoneTimestampError",
    "EmptyInputError",
    "LOB_CSV_HEADER",
    "parse_lob_csv",
    "render_lob_csv",
    "resample_forward_fill",
    "check_tick",
    "synthetic_quotes",
]

N_LEVELS = 5
LOB_CSV_HEADER = (
    ["ts"]
    + [f"bid_{kind}_{lvl}" for lvl in range(1, N_LEVELS + 1) for kind in ("px", "sz")]
    + [f"ask_{kind}_{lvl}" for lvl in range(1, N_LEVELS + 1) for kind in ("px", "sz")]
    + ["trade_px", "trade_sz"]
)

LOB_COLUMNS = LOB_CSV_HEADER[1:]
_N_FIELDS = len(LOB_CSV_HEADER)
_BID_PX_1 = LOB_COLUMNS.index("bid_px_1")
_BID_SZ_1 = LOB_COLUMNS.index("bid_sz_1")
_ASK_PX_1 = LOB_COLUMNS.index("ask_px_1")
_ASK_SZ_1 = LOB_COLUMNS.index("ask_sz_1")
_BOOK_SIZES = [LOB_COLUMNS.index(f"{side}_sz_{lvl}")
               for side in ("bid", "ask") for lvl in range(1, N_LEVELS + 1)]
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# Lines parsed per block: bounds the parser's transient arrays to one block
# (about a megabyte of text) while keeping the per-block numpy calls few.
BLOCK_ROWS = 8192

NANOS = 1_000_000_000


class SchemaMismatchError(ValueError):
    """CSV header does not match the documented schema."""


class MalformedRowError(ValueError):
    def __init__(self, line: int, reason: str):
        self.line = line
        super().__init__(f"line {line}: {reason}")


class NonMonotoneTimestampError(ValueError):
    def __init__(self, line: int, ts: int, prev: int):
        self.line = line
        super().__init__(f"line {line}: timestamp {ts} precedes {prev}")


class EmptyInputError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class LOBBook:
    """Book events as columns.

    ``ts`` is int64 nanoseconds, shape (n,).  ``cells`` is float64, shape
    (n, 22): one column per CSV field after ``ts`` (:data:`LOB_COLUMNS`
    order), NaN where the cell is empty (absent level, no trade).
    """

    ts: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        if self.ts.ndim != 1 or self.cells.shape != (self.ts.size, len(LOB_COLUMNS)):
            raise ValueError(
                f"book needs ts (n,) and cells (n, {len(LOB_COLUMNS)}), "
                f"got {self.ts.shape} and {self.cells.shape}"
            )

    def __len__(self) -> int:
        return self.ts.size

    def column(self, name: str) -> np.ndarray:
        """The cells of one CSV column, e.g. ``book.column("bid_px_1")``."""
        return self.cells[:, LOB_COLUMNS.index(name)]


@dataclass(eq=False)
class PriceSeries:
    """Uniformly spaced top-of-book series (dt seconds apart, from t0 ns)."""

    t0: int
    dt: float
    bid: np.ndarray
    ask: np.ndarray
    level1_bid_sz: np.ndarray
    level1_ask_sz: np.ndarray

    def __post_init__(self):
        n = self.bid.size
        if not (self.ask.size == self.level1_bid_sz.size == self.level1_ask_sz.size == n):
            raise ValueError("series arrays must have equal length")
        finite = np.isfinite(self.bid) & np.isfinite(self.ask)
        if not finite.all():
            self._reject(finite, "non-finite quotes: every sample needs a bid and an ask")
        below = self.bid < self.ask
        if not below.all():
            self._reject(below, "crossed quotes: bid must stay below ask")

    def _reject(self, ok: np.ndarray, problem: str):
        """Raise ``problem``, naming the first sample where ``ok`` is False."""
        i = int(ok.argmin())
        ts = self.t0 + i * int(round(self.dt * NANOS))
        raise ValueError(f"{problem}; sample {i} at ts {ts} has bid {float(self.bid[i])!r} "
                         f"and ask {float(self.ask[i])!r}")

    def __len__(self) -> int:
        return self.bid.size

    @property
    def mid(self) -> np.ndarray:
        return (self.bid + self.ask) / 2.0

    def window(self, start: int, n_samples: int) -> "PriceSeries":
        """Contiguous sub-series of n_samples starting at sample index start;
        ValueError unless start >= 0 and n_samples >= 1."""
        if start < 0 or n_samples < 1:
            raise ValueError(f"window needs start >= 0 and n_samples >= 1, "
                             f"got start={start}, n_samples={n_samples}")
        stop = start + n_samples
        if stop > len(self):
            raise ValueError(f"window [{start}, {stop}) exceeds series length {len(self)}")
        return PriceSeries(
            t0=self.t0 + start * int(round(self.dt * NANOS)),
            dt=self.dt,
            bid=self.bid[start:stop],
            ask=self.ask[start:stop],
            level1_bid_sz=self.level1_bid_sz[start:stop],
            level1_ask_sz=self.level1_ask_sz[start:stop],
        )


_HEADER_BYTES = ",".join(LOB_CSV_HEADER).encode("ascii")
# The bytes of a plain body, whose cells may take the float word kernel.
_BODY_BYTES = b"0123456789.-,\n"
_HEADER_LETTERS = _HEADER_BYTES.translate(None, _BODY_BYTES)


def parse_lob_csv(data: bytes) -> LOBBook:
    """Parse the bytes of a LOB CSV file into a :class:`LOBBook`.

    A file other than a plain one (the schema's header, then only
    :data:`_BODY_BYTES`) is decoded as UTF-8, split with ``str.splitlines``
    and joined again with LF, which in the plain alphabet gives the same
    lines, and is plain if the joined bytes are (as CRLF and CR spellings
    are).  Blocks of :data:`BLOCK_ROWS` lines convert (:func:`_convert_block`)
    straight into the book's columns, allocated once, up to the first row
    that does not.  One :func:`_check_rows` then raises for the first bad
    row by its file line, blank lines counted; within a row the checks run
    in the order field count, number parsing, crossed level 1, negative
    size, timestamp order.
    """
    raw, plain = data, _is_plain(data)
    if not plain:
        if not data:
            raise SchemaMismatchError("empty input, header row required")
        raw = "\n".join(data.decode("utf-8").splitlines()).encode("utf-8")
        plain = _is_plain(raw)
    if not raw.endswith(b"\n"):
        raw += b"\n"
    body = raw.index(b"\n") + 1
    header = raw[:body - 1].decode("utf-8").split(",")
    if header != LOB_CSV_HEADER:
        raise SchemaMismatchError(
            f"header {header!r} does not match required {LOB_CSV_HEADER!r}"
        )

    # the header line lies in front of every body cell: the kernels' pad
    buf = np.frombuffer(raw, dtype=np.uint8)
    line_ends = np.flatnonzero(buf[body:] == ord("\n"))
    line_ends += body
    ts_out = np.empty(line_ends.size, dtype=np.int64)
    cells_out = np.empty((line_ends.size, len(LOB_COLUMNS)))
    kept, reason = 0, None
    for first in range(0, line_ends.size, BLOCK_ROWS):
        last = min(first + BLOCK_ROWS, line_ends.size)
        lo = int(line_ends[first - 1]) + 1 if first else body
        hi = int(line_ends[last - 1]) + 1
        ts, cells, reason = _convert_block(raw, buf, *split_cells(buf, lo, hi), plain)
        ts_out[kept:kept + ts.size] = ts
        cells_out[kept:kept + ts.size] = cells
        kept += ts.size
        if reason is not None:
            break
    ts_out, cells_out = ts_out[:kept], cells_out[:kept]
    _check_rows(ts_out, cells_out, reason, line_ends, body)
    return LOBBook(ts_out, cells_out)


def _is_plain(raw: bytes) -> bool:
    """The schema's header line, then only :data:`_BODY_BYTES`."""
    return (raw.startswith(_HEADER_BYTES + b"\n")
            and raw.translate(None, _BODY_BYTES) == _HEADER_LETTERS)


def _convert_block(raw, buf, ends, starts, fields,
                   plain: bool) -> tuple[np.ndarray, np.ndarray, str | None]:
    """ts and cells of a block's rows before the first it cannot convert, and why.

    A column the word kernels take whole is converted by them with no
    Python object per cell: ``ts`` by :func:`plain_ints`, which checks its
    own bytes, and the other cells by :func:`plain_floats` only when
    ``plain`` (the file is :data:`_BODY_BYTES` only, which that kernel
    needs).  Both equal ``int()`` and ``float()`` of the text bit for bit.
    A column they decline goes through :func:`converted`, one
    :func:`_timestamp` or :func:`_cell_value` per distinct cell text.  The
    row they cannot convert is the earlier of the first with a wrong field
    count and the first holding a text the conversion rejects, ``ts``
    before cells; its reason is None if there is none.  Nothing raises.
    """
    fields = fields[fields > 0]
    n = int(np.argmax(fields != _N_FIELDS)) if (fields != _N_FIELDS).any() else fields.size
    ends = ends[:n * _N_FIELDS].reshape(n, _N_FIELDS)
    ts_width = ends[:, 0] - starts[:n]
    width = ends[:, 1:] - ends[:, :-1]
    width -= 1
    ts, ts_bad = plain_ints(buf, ends[:, 0], ts_width), None
    if ts is None:
        ts, ts_bad = converted(raw, ends[:, 0], ts_width, _timestamp, np.int64)
    cells, cells_bad = (plain_floats(buf, ends[:, 1:], width) if plain else None), None
    if cells is None:
        cells, cells_bad = converted(raw, ends[:, 1:], width, _cell_value, np.float64)
    count_bad = ((n, "", f"expected {_N_FIELDS} fields, got {fields[n]}")
                 if n < fields.size else None)
    # min keeps the first of equal rows: ts, then cells
    r, _, reason = min(filter(None, [ts_bad, cells_bad, count_bad]), key=lambda found: found[0],
                       default=(n, "", None))
    return ts[:r], cells[:r], reason


def _timestamp(text: str) -> int:
    """``int()`` of a ``ts`` cell inside the int64 range."""
    value = int(text)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError(f"timestamp {text} outside the int64 range")
    return value


def _cell_value(text: str) -> float:
    """``float()`` of a finite price or size cell, NaN for an empty one."""
    if not text:
        return math.nan
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}; leave absent cells empty")
    return value


def _check_rows(ts: np.ndarray, cells: np.ndarray, reason: str | None,
                line_ends: np.ndarray, body: int) -> None:
    """Raise for the file's first bad row: the first crossed, negative-size or
    time-travelling converted row, else the next one if it failed to convert
    for ``reason``.  Only its file line is found, from ``line_ends``, blanks counted."""
    bid, ask = cells[:, _BID_PX_1], cells[:, _ASK_PX_1]
    crossed = bid >= ask  # false where either side is absent
    # compared whole, then picked: picking the float columns first copies them
    negative = (cells < 0)[:, _BOOK_SIZES].any(axis=1)
    back = np.concatenate(([False], ts[1:] < ts[:-1]))
    bad = crossed | negative | back
    r = int(bad.argmax()) if bad.any() else ts.size
    if r == ts.size and reason is None:
        return
    line = int(np.flatnonzero(np.diff(line_ends, prepend=body - 1) > 1)[r]) + 2
    if r == ts.size:
        raise MalformedRowError(line, reason)
    if crossed[r]:
        raise MalformedRowError(line, f"crossed book: bid {float(bid[r])} >= ask {float(ask[r])}")
    if negative[r]:
        raise MalformedRowError(line, "negative size")
    raise NonMonotoneTimestampError(line, int(ts[r]), int(ts[r - 1]))


def render_lob_csv(book: LOBBook) -> str:
    """Inverse of :func:`parse_lob_csv`: NaN cells are written empty."""
    out = [",".join(LOB_CSV_HEADER)]
    for ts, row in zip(book.ts.tolist(), book.cells.tolist()):
        out.append(",".join([str(ts)] + ["" if math.isnan(v) else repr(v) for v in row]))
    return "\n".join(out) + "\n"


def resample_forward_fill(book: LOBBook, dt: float) -> PriceSeries:
    """Sample the last-known book state on a uniform grid of boundaries.

    Boundaries run every dt seconds, rounded to whole nanoseconds (the
    series' ``dt`` is that step), from the first whole second at or after
    the first record to the last record (nanoseconds); each sample is the
    most recent record at or before its boundary, so every boundary has
    one.  A book whose records span no whole-second boundary is rejected.
    Absent level-1 sizes sample as 0; an absent level-1 price is rejected
    by :class:`PriceSeries`.
    """
    if not len(book):
        raise EmptyInputError("no records to resample")
    step = int(round(dt * NANOS))
    if step <= 0:
        raise ValueError(f"dt must be positive, got {dt}" if dt <= 0 else
                         f"dt {dt} s is under the timestamps' 1 ns resolution")
    first, last = int(book.ts[0]), int(book.ts[-1])
    start = ((first + NANOS - 1) // NANOS) * NANOS
    if last < start:
        raise ValueError(
            f"records from ts {first} to {last} (ns) span no whole-second boundary"
        )

    boundaries = np.arange(start, last + 1, step, dtype=np.int64)
    rows = np.searchsorted(book.ts, boundaries, side="right") - 1
    return PriceSeries(
        t0=start,
        dt=step / NANOS,
        bid=book.cells[rows, _BID_PX_1],
        ask=book.cells[rows, _ASK_PX_1],
        level1_bid_sz=_absent_as_zero(book.cells[rows, _BID_SZ_1]),
        level1_ask_sz=_absent_as_zero(book.cells[rows, _ASK_SZ_1]),
    )


def _absent_as_zero(sizes: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(sizes), 0.0, sizes)


def check_tick(tick: float) -> None:
    """Raise unless the price grid's tick is finite and positive."""
    if not (math.isfinite(tick) and tick > 0):
        raise ValueError(f"tick must be finite and positive, got {tick}")


def check_tick_count(bid: np.ndarray, ask: np.ndarray, tick: float) -> None:
    """Raise ValueError, naming the tick and the first such sample, if a
    bid or ask is 2**53 ticks or more from 0: there a float stops counting
    whole ticks exactly, so no tick grid check or int64 tick count holds."""
    beyond = np.maximum(np.abs(bid), np.abs(ask)) >= 2.0**53 * tick
    if beyond.any():
        i = int(beyond.argmax())
        raise ValueError(f"sample {i}: bid {float(bid[i])!r} or ask {float(ask[i])!r} is "
                         f"2**53 ticks of {tick!r} or more; the tick is too small to count them")


# The chance per step that a synthetic mid moves one tick up, and that it
# moves one tick down.
MID_MOVE_PROB = 0.25


def synthetic_quotes(
    params: MarketParams,
    n_steps: int,
    seed: int | RngStream = 0,
    tick: float | None = None,
) -> PriceSeries:
    """Tick random-walk quotes with a fixed spread (n_steps + 1 samples).

    The mid starts at 100.0.  Per step it moves one tick up with
    probability ``MID_MOVE_PROB``, one tick down with the same probability,
    and otherwise stays put.  The bid and ask sit a half-spread either
    side, so ask - bid == delta always, and each level-1 size is 10.0.
    ``delta`` must be a whole number of ticks (``tick``, by default delta).
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if tick is None:
        tick = params.delta
    check_tick(tick)
    half = params.delta / 2.0
    # sample 0: the mid starts at 100.0, and the walk counts whole ticks from it
    check_tick_count(np.array([100.0 - half]), np.array([100.0 + half]), tick)
    grid = tick / 2.0
    if not abs(round(half / grid) * grid - half) < 1e-12:
        raise ValueError(f"delta = {params.delta!r} is not a whole number of ticks of {tick!r}")
    stream = seed if isinstance(seed, RngStream) else RngStream(seed=seed)
    gen = stream.generator()

    u = gen.random(n_steps)
    moves = np.where(u < MID_MOVE_PROB, 1, np.where(u < 2 * MID_MOVE_PROB, -1, 0))
    mid_ticks = round(100.0 / tick) + np.concatenate([[0], np.cumsum(moves)])
    mid = np.round(mid_ticks * tick, 12)

    # canonicalize quotes on the half-tick grid so equal prices repr
    # equally across the series
    bid = np.round(np.round((mid - half) / grid) * grid, 12)
    ask = np.round(np.round((mid + half) / grid) * grid, 12)
    n = n_steps + 1
    return PriceSeries(
        t0=0,
        dt=params.dt,
        bid=bid,
        ask=ask,
        level1_bid_sz=np.full(n, 10.0),
        level1_ask_sz=np.full(n, 10.0),
    )

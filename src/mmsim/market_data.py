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
:mod:`mmsim.table`, each converted by the word kernels when the file and
the block are plain, else cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dynamics import RngStream
from .params import MarketParams
from .table import lf_line_ends, plain_floats, plain_ints, split_cells

__all__ = [
    "LOBBook",
    "PriceSeries",
    "TradeStats",
    "SchemaMismatchError",
    "MalformedRowError",
    "NonMonotoneTimestampError",
    "EmptyInputError",
    "NoTradesError",
    "LOB_CSV_HEADER",
    "parse_lob_csv",
    "render_lob_csv",
    "resample_forward_fill",
    "trade_size_stats",
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


class NoTradesError(ValueError):
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
        if not (np.isfinite(self.bid).all() and np.isfinite(self.ask).all()):
            raise ValueError("non-finite quotes: every sample needs a bid and an ask")
        if np.any(self.bid >= self.ask):
            raise ValueError("crossed quotes: bid must stay below ask")

    def __len__(self) -> int:
        return self.bid.size

    @property
    def mid(self) -> np.ndarray:
        return (self.bid + self.ask) / 2.0

    def window(self, start: int, n_samples: int) -> "PriceSeries":
        """Contiguous sub-series of n_samples starting at sample index start."""
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


@dataclass(frozen=True)
class TradeStats:
    mean_size: float
    median_size: float
    count: int


_HEADER_BYTES = ",".join(LOB_CSV_HEADER).encode("ascii")
# The bytes of a plain body, whose blocks may take the word kernels.
_BODY_BYTES = b"0123456789.-,\n"
_HEADER_LETTERS = _HEADER_BYTES.translate(None, _BODY_BYTES)


def parse_lob_csv(data: bytes) -> LOBBook:
    """Parse the bytes of a LOB CSV file into a :class:`LOBBook`.

    A plain file (the schema's header, then only :data:`_BODY_BYTES`, CR
    only before LF) is read with CRLF made LF; any other file is decoded as
    UTF-8, split with ``str.splitlines`` and joined again with LF, which in
    the plain alphabet gives the same lines, and is plain if the joined
    bytes are (as a file with lone CR line ends is).  The body is cut into
    blocks of :data:`BLOCK_ROWS` lines written into columns allocated once.
    A block of a plain file may take the word kernels; any other block
    takes the per-cell path, which alone reports a bad field count or
    number.  The first bad row in file order raises, blank lines counted
    in its line number; within a row the checks run in the order field
    count, number parsing, crossed level 1, negative size, timestamp order.
    """
    raw = lf_line_ends(data)
    plain = raw is not None and _is_plain(raw)
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
    kept = 0
    for first in range(0, line_ends.size, BLOCK_ROWS):
        last = min(first + BLOCK_ROWS, line_ends.size)
        lo = int(line_ends[first - 1]) + 1 if first else body
        hi = int(line_ends[last - 1]) + 1
        ends, starts, fields = split_cells(buf, lo, hi)
        if not starts.size:
            continue  # blank lines only
        linenos = (np.flatnonzero(fields) + first + 2).tolist()
        prev_ts = int(ts_out[kept - 1]) if kept else None
        converted = _convert_plain(buf, ends, starts, fields) if plain else None
        if converted is None:
            rows = raw[lo:hi].decode("utf-8").split("\n")
            ts, cells = _parse_rows([row for row in rows if row], linenos, prev_ts)
        else:
            ts, cells = converted
            _check_rows(ts, cells, linenos, prev_ts)
        ts_out[kept:kept + ts.size] = ts
        cells_out[kept:kept + ts.size] = cells
        kept += ts.size
    return LOBBook(ts_out[:kept], cells_out[:kept])


def _is_plain(raw: bytes) -> bool:
    """The schema's header line, then only :data:`_BODY_BYTES`."""
    return (raw.startswith(_HEADER_BYTES + b"\n")
            and raw.translate(None, _BODY_BYTES) == _HEADER_LETTERS)


def _parse_rows(rows: list[str], linenos, prev_ts: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Columns of a block's non-empty rows as text, by the per-cell path;
    raises for the first bad row."""
    ts, cells = _convert_cells(rows, linenos, prev_ts)
    _check_rows(ts, cells, linenos, prev_ts)
    return ts, cells


def _convert_plain(buf, ends, starts, fields) -> tuple[np.ndarray, np.ndarray] | None:
    """ts and cells of a block whose cells are all plain, else None.

    ``ends``, ``starts`` and ``fields`` are :func:`split_cells` of the
    block, whose bytes are :data:`_BODY_BYTES` only.  Every non-empty line
    must hold 23 fields.  ``ts`` is an optional ``-`` and up to 19 digits
    inside the int64 range, converted by :func:`plain_ints`; every other
    cell is plain in the sense of :func:`plain_floats`.  Both equal
    ``int()`` and ``float()`` of the text bit for bit, with no Python object
    per cell.
    """
    if not (fields[fields > 0] == _N_FIELDS).all():
        return None
    ends = ends.reshape(-1, _N_FIELDS)
    ts = plain_ints(buf, ends[:, 0], ends[:, 0] - starts)
    if ts is None:
        return None
    width = ends[:, 1:] - ends[:, :-1]
    width -= 1
    cells = plain_floats(buf, ends[:, 1:], width)
    if cells is None:
        return None
    return ts, cells


def _convert_cells(rows: list[str], linenos, prev_ts: int | None) -> tuple[np.ndarray, np.ndarray]:
    """ts and cells of any block, one ``float()`` per distinct cell text.

    Raises for a bad field count or number at row r, after checking
    rows[:r], so that an earlier crossed, negative-size or time-travel row
    wins.
    """
    n = len(rows)
    commas = list(map(str.count, rows, repeat(",", n)))
    if commas.count(_N_FIELDS - 1) != n:
        r = next(i for i, c in enumerate(commas) if c != _N_FIELDS - 1)
        if r:
            _parse_rows(rows[:r], linenos, prev_ts)
        raise MalformedRowError(linenos[r], f"expected {_N_FIELDS} fields, got {commas[r] + 1}")

    fields = ",".join(rows).split(",")
    ts_text = fields[0::_N_FIELDS]
    del fields[0::_N_FIELDS]
    try:
        ts = np.fromiter(map(int, ts_text), np.int64, n)
        cells = np.array(list(map(_CellValues().__getitem__, fields)), dtype=np.float64)
        # every non-empty cell must be finite: "" is the only spelling of absent
        parsed = np.isfinite(cells).sum() == cells.size - fields.count("")
    except (ValueError, OverflowError):
        parsed = False
    if not parsed:
        r, reason = _first_unparseable(ts_text, fields)
        if r:
            _parse_rows(rows[:r], linenos, prev_ts)
        raise MalformedRowError(linenos[r], reason)
    return ts, cells.reshape(n, len(LOB_COLUMNS))


def _check_rows(ts: np.ndarray, cells: np.ndarray, linenos, prev_ts: int | None) -> None:
    """Raise for the first crossed, negative-size or time-travelling row."""
    bid, ask = cells[:, _BID_PX_1], cells[:, _ASK_PX_1]
    crossed = bid >= ask  # false where either side is absent
    negative = (cells[:, _BOOK_SIZES] < 0).any(axis=1)
    prev = np.concatenate(([ts[0] if prev_ts is None else prev_ts], ts[:-1]))
    back = ts < prev
    bad = crossed | negative | back
    if bad.any():
        r = int(bad.argmax())
        if crossed[r]:
            raise MalformedRowError(
                linenos[r], f"crossed book: bid {float(bid[r])} >= ask {float(ask[r])}"
            )
        if negative[r]:
            raise MalformedRowError(linenos[r], "negative size")
        raise NonMonotoneTimestampError(linenos[r], int(ts[r]), int(prev[r]))


class _CellValues(dict):
    """Cell text -> float, NaN for an empty cell; float() runs once per
    distinct text, since prices and sizes repeat within a block."""

    def __init__(self):
        super().__init__({"": math.nan})

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def _first_unparseable(ts_text: list[str], fields: list[str]) -> tuple[int, str]:
    """Row index and reason of the first cell that is not a valid number."""
    width = len(LOB_COLUMNS)
    for r, text in enumerate(ts_text):
        try:
            if not _INT64_MIN <= int(text) <= _INT64_MAX:
                return r, f"timestamp {text} outside the int64 range"
        except ValueError as exc:
            return r, str(exc)
        for cell in fields[r * width:(r + 1) * width]:
            if not cell:
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                return r, str(exc)
            if not math.isfinite(value):
                return r, f"non-finite value {cell!r}; leave absent cells empty"
    raise AssertionError("block has no unparseable cell")


def render_lob_csv(book: LOBBook) -> str:
    """Inverse of :func:`parse_lob_csv`: NaN cells are written empty."""
    out = [",".join(LOB_CSV_HEADER)]
    for ts, row in zip(book.ts.tolist(), book.cells.tolist()):
        out.append(",".join([str(ts)] + ["" if math.isnan(v) else repr(v) for v in row]))
    return "\n".join(out) + "\n"


def resample_forward_fill(book: LOBBook, dt: float) -> PriceSeries:
    """Sample the last-known book state on a uniform grid of boundaries.

    Boundaries run every dt seconds from the first whole second at or after
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
        raise ValueError(f"dt must be positive, got {dt}")
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
        dt=dt,
        bid=book.cells[rows, _BID_PX_1],
        ask=book.cells[rows, _ASK_PX_1],
        level1_bid_sz=_absent_as_zero(book.cells[rows, _BID_SZ_1]),
        level1_ask_sz=_absent_as_zero(book.cells[rows, _ASK_SZ_1]),
    )


def _absent_as_zero(sizes: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(sizes), 0.0, sizes)


def trade_size_stats(book: LOBBook) -> TradeStats:
    """Mean and median executed size over all trade events."""
    sizes = book.column("trade_sz")
    sizes = sizes[~np.isnan(sizes)]
    if not sizes.size:
        raise NoTradesError("no trade sizes present in the input")
    return TradeStats(
        mean_size=float(sizes.mean()),
        median_size=float(np.median(sizes)),
        count=int(sizes.size),
    )


def check_tick(tick: float) -> None:
    """Raise unless the price grid's tick is finite and positive."""
    if not (math.isfinite(tick) and tick > 0):
        raise ValueError(f"tick must be finite and positive, got {tick}")


def synthetic_quotes(
    params: MarketParams,
    n_steps: int,
    seed: int | RngStream = 0,
    move_prob: float = 0.25,
    s0: float = 100.0,
    level1_size: float = 10.0,
    tick: float | None = None,
) -> PriceSeries:
    """Tick random-walk quotes with a fixed spread (n_steps + 1 samples).

    Per step the mid moves one tick up with probability ``move_prob``, one
    tick down with the same probability, and otherwise stays put.  The bid
    and ask sit a half-spread either side, so ask - bid == delta always.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not 0.0 <= move_prob <= 0.5:
        raise ValueError(f"move_prob must lie in [0, 0.5], got {move_prob}")
    if tick is None:
        tick = params.delta
    check_tick(tick)
    stream = seed if isinstance(seed, RngStream) else RngStream(seed=seed)
    gen = stream.generator()

    u = gen.random(n_steps)
    moves = np.where(u < move_prob, 1, np.where(u < 2 * move_prob, -1, 0))
    ticks0 = round(s0 / tick)
    mid_ticks = ticks0 + np.concatenate([[0], np.cumsum(moves)])
    mid = np.round(mid_ticks * tick, 12)

    # canonicalize quotes on the half-tick grid (when the half-spread sits on
    # it) so equal prices repr equally across the series
    half = params.delta / 2.0
    grid = tick / 2.0
    if abs(round(half / grid) * grid - half) < 1e-12:
        bid = np.round(np.round((mid - half) / grid) * grid, 12)
        ask = np.round(np.round((mid + half) / grid) * grid, 12)
    else:
        bid = mid - half
        ask = mid + half
    n = n_steps + 1
    return PriceSeries(
        t0=0,
        dt=params.dt,
        bid=bid,
        ask=ask,
        level1_bid_sz=np.full(n, level1_size),
        level1_ask_sz=np.full(n, level1_size),
    )

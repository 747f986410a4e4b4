"""Recorded and synthetic quote data.

LOB CSV schema (header mandatory, UTF-8, LF or CRLF line ends):

    ts,bid_px_1,bid_sz_1,...,bid_px_5,bid_sz_5,
       ask_px_1,ask_sz_1,...,ask_px_5,ask_sz_5,trade_px,trade_sz

``ts`` is integer nanoseconds since epoch; price/size fields may be empty
for absent levels, and trade_px/trade_sz are empty on non-trade events.
An empty cell is the only way to write "absent": literal ``nan``/``inf``
cells are rejected.  :func:`parse_lob_csv` returns the file as columns
(:class:`LOBBook`), with NaN for each empty cell.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .dynamics import RngStream, round_to_tick
from .params import MarketParams

__all__ = [
    "LOBBook",
    "PriceSeries",
    "TradeStats",
    "SchemaMismatchError",
    "MalformedRowError",
    "NonMonotoneTimestampError",
    "EmptyInputError",
    "NoDataBeforeStartError",
    "NoTradesError",
    "LOB_CSV_HEADER",
    "parse_lob_csv",
    "render_lob_csv",
    "resample_forward_fill",
    "trade_size_stats",
    "synthetic_quotes",
]

log = logging.getLogger(__name__)

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

# Rows parsed per block: bounds the parser's transient strings to one
# block while keeping the per-block numpy calls few.
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


class NoDataBeforeStartError(ValueError):
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


def parse_lob_csv(stream) -> LOBBook:
    """Parse LOB CSV text (a string or line iterable) into a :class:`LOBBook`.

    Rows are converted :data:`BLOCK_ROWS` at a time.  The first bad row in
    file order raises; within a row the checks run in the order field count,
    number parsing, crossed level 1, negative size, timestamp order.
    """
    if isinstance(stream, str):
        lines = iter(stream.splitlines())
    else:
        lines = (raw.rstrip("\r\n") for raw in stream)
    try:
        header = next(lines).split(",")
    except StopIteration:
        raise SchemaMismatchError("empty input, header row required") from None
    if header != LOB_CSV_HEADER:
        raise SchemaMismatchError(
            f"header {header!r} does not match required {LOB_CSV_HEADER!r}"
        )

    ts_blocks = [np.empty(0, dtype=np.int64)]
    cell_blocks = [np.empty((0, len(LOB_COLUMNS)))]
    prev_ts = None
    first_line = 2
    while block := list(islice(lines, BLOCK_ROWS)):
        linenos = range(first_line, first_line + len(block))
        first_line += len(block)
        if "" in block:
            kept = [i for i, line in enumerate(block) if line]
            block = [block[i] for i in kept]
            linenos = [linenos[i] for i in kept]
            if not block:
                continue
        ts, cells = _parse_block(block, linenos, prev_ts)
        ts_blocks.append(ts)
        cell_blocks.append(cells)
        prev_ts = int(ts[-1])
    return LOBBook(np.concatenate(ts_blocks), np.concatenate(cell_blocks))


def _parse_block(rows: list[str], linenos, prev_ts: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Columns of non-empty rows; raises for the first bad row.

    ``linenos[r]`` is the file line of ``rows[r]``; ``prev_ts`` is the last
    timestamp before the block.  A block of plain cells is converted by the
    word kernel; any other block takes the per-cell path, which alone
    locates and reports a bad field count or number.
    """
    converted = _convert_plain(rows)
    if converted is None:
        converted = _convert_cells(rows, linenos, prev_ts)
    ts, cells = converted
    _check_rows(ts, cells, linenos, prev_ts)
    return ts, cells


_COMMA, _NEWLINE, _DOT, _MINUS, _SLASH, _NINE = b",\n.-/9"


def _u64(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


_WORD = np.dtype("<u8")
_ALL = (1 << 64) - 1
_LOW_NIBBLES = np.uint64(0x0F0F0F0F0F0F0F0F)
_BYTES = np.uint64(0xFF)
# A cell of width w is the top w bytes of the little-endian word that ends
# at its separator.  Indexed by w: the mask keeping those bytes, and the
# one-bit flag of their first byte (where a sign may sit).
_WIDTH_MASK = _u64([_ALL ^ ((1 << 8 * (8 - w)) - 1) for w in range(9)])
_LEAD_FLAG = _u64([0] + [1 << 8 * (8 - w) for w in range(1, 9)])
# Indexed by s = 8 - (byte index of the dot), 0 without a dot: the bytes
# above and below the dot, and 10**(digits after the dot).
_ABOVE_DOT = _u64([_ALL] + [_ALL ^ ((1 << 8 * (9 - s)) - 1) for s in range(1, 9)])
_BELOW_DOT = _u64([0] + [(1 << 8 * (8 - s)) - 1 for s in range(1, 9)])
_DOT_SCALE = np.array([1.0] + [10.0 ** (s - 1) for s in range(1, 9)])
# The byte weights 1..8 from the lowest byte up: one dot flag at byte k
# times this has 8 - k in its top byte.
_DOT_INDEX = np.uint64(0x0807060504030201)


def _convert_plain(rows: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """ts and cells of a block whose cells are all plain, else None.

    A plain cell is empty (NaN) or at most 8 bytes of an optional leading
    ``-``, digits and at most one ``.``, with at least one digit.  Its
    digits, read as one integer m < 10**8, and f, the digits after the
    dot, give ``±m / 10**f``: both terms are exact doubles, so the one
    correctly rounded division equals ``float(text)`` bit for bit, ``-0``
    included.  Every cell costs a few word operations and no Python object;
    ``ts`` is still converted with ``int()``.
    """
    n = len(rows)
    try:
        raw = ("\n".join(rows) + "\n").encode("ascii")
    except UnicodeEncodeError:
        return None
    # 8 leading pad bytes, so that every cell's word lies inside the buffer
    buf = np.zeros(8 + len(raw), dtype=np.uint8)
    text = buf[8:]
    text[:] = np.frombuffer(raw, dtype=np.uint8)
    del raw
    sep = (text == _COMMA) | (text == _NEWLINE)
    # "-", ".", "/", "0".."9" are consecutive: any other byte, or "/", is not plain
    offset = text - np.uint8(_MINUS)
    if (~sep & ((offset > _NINE - _MINUS) | (offset == _SLASH - _MINUS))).any():
        return None
    del offset
    seps = np.flatnonzero(sep)
    del sep
    if seps.size != n * _N_FIELDS:
        return None
    seps = seps.reshape(n, _N_FIELDS)
    # n newlines, each the last separator of its row: every row has 22 commas
    if not (text[seps[:, -1]] == _NEWLINE).all():
        return None

    try:
        ts = np.fromiter(map(int, [row.partition(",")[0] for row in rows]), np.int64, n)
    except (ValueError, OverflowError):
        return None

    ends = seps[:, 1:].ravel()
    width = ends - (seps[:, :-1].ravel() + 1)
    del seps
    if width.max() > 8:
        return None
    # word j of this stride-1 view holds bytes j-8 .. j-1 of the text
    words = np.ndarray((text.size + 1,), dtype=_WORD, buffer=buf, strides=(1,))
    word = words[ends]
    del words, ends, buf, text
    word &= _WIDTH_MASK[width]
    as_bytes = word.view(np.uint8)
    minus = (as_bytes == _MINUS).view(_WORD)
    dot = (as_bytes == _DOT).view(_WORD)
    negative = minus != 0
    has_dot = dot != 0
    digits = width - negative - has_dot
    if not (
        (minus == (_LEAD_FLAG[width] & minus)).all()  # a sign only in front
        and not (dot & (dot - np.uint64(1))).any()  # at most one dot
        and ((digits > 0) | (width == 0)).all()
    ):
        return None

    word &= ~(minus * _BYTES)
    dot_slot = ((dot * _DOT_INDEX) >> np.uint64(56)).astype(np.intp)
    del minus, dot, as_bytes
    word = (word & _ABOVE_DOT[dot_slot]) | ((word & _BELOW_DOT[dot_slot]) << np.uint64(8))
    # eight ASCII digits to one integer (the simdjson multiply-shift)
    word &= _LOW_NIBBLES
    word = (word * np.uint64(10 * 256 + 1)) >> np.uint64(8)
    word &= np.uint64(0x00FF00FF00FF00FF)
    word = (word * np.uint64(100 * 65536 + 1)) >> np.uint64(16)
    word &= np.uint64(0x0000FFFF0000FFFF)
    word = (word * np.uint64(10000 * (1 << 32) + 1)) >> np.uint64(32)

    cells = word.astype(np.float64)
    del word
    cells /= _DOT_SCALE[dot_slot]
    np.negative(cells, out=cells, where=negative)
    cells[width == 0] = math.nan
    return ts, cells.reshape(n, len(LOB_COLUMNS))


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
            _parse_block(rows[:r], linenos, prev_ts)
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
            _parse_block(rows[:r], linenos, prev_ts)
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


def resample_forward_fill(
    book: LOBBook,
    dt: float,
    start: int | None = None,
    end: int | None = None,
) -> PriceSeries:
    """Sample the last-known book state on a uniform grid of boundaries.

    Boundaries run from ``start`` to ``end`` (nanoseconds) every dt seconds;
    each sample is the most recent record at or before the boundary.  When
    ``start`` is omitted it defaults to the first whole second at or after
    the first record.  Leading boundaries with no prior record are dropped
    with a warning; if none remain the input starts too late and
    :class:`NoDataBeforeStartError` is raised.  Absent level-1 sizes sample
    as 0; an absent level-1 price is rejected by :class:`PriceSeries`.
    """
    if not len(book):
        raise EmptyInputError("no records to resample")
    step = int(round(dt * NANOS))
    if step <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if start is None:
        start = ((int(book.ts[0]) + NANOS - 1) // NANOS) * NANOS
    if end is None:
        end = int(book.ts[-1])
    if end < start:
        raise ValueError("end precedes start")

    boundaries = np.arange(start, end + 1, step, dtype=np.int64)
    last = np.searchsorted(book.ts, boundaries, side="right") - 1

    covered = last >= 0
    if not covered.any():
        raise NoDataBeforeStartError(
            f"all {len(book)} records arrive after the final boundary {boundaries[-1]}"
        )
    n_dropped = int(np.argmax(covered))
    if n_dropped:
        log.warning("dropped %d leading boundaries with no prior record", n_dropped)
    rows = last[n_dropped:]
    return PriceSeries(
        t0=int(boundaries[n_dropped]),
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

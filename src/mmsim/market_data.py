"""Recorded and synthetic quote data.

LOB CSV schema (header mandatory, UTF-8, LF, CRLF or CR line ends):

    ts,bid_px_1,bid_sz_1,...,bid_px_5,bid_sz_5,
       ask_px_1,ask_sz_1,...,ask_px_5,ask_sz_5,trade_px,trade_sz

``ts`` is integer nanoseconds since epoch; price/size fields may be empty
for absent levels, and trade_px/trade_sz are empty on non-trade events.
An empty cell is the only way to write "absent": literal ``nan``/``inf``
cells are rejected.  :func:`parse_lob_csv` takes the file's bytes and
returns it as columns (:class:`LOBBook`), with NaN for each empty cell.
"""

from __future__ import annotations

import logging
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
    "NoDataBeforeStartError",
    "NoTradesError",
    "LOB_CSV_HEADER",
    "parse_lob_csv",
    "render_lob_csv",
    "resample_forward_fill",
    "trade_size_stats",
    "check_tick",
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


def parse_lob_csv(data: bytes) -> LOBBook:
    """Parse the bytes of a LOB CSV file into a :class:`LOBBook`.

    Rows are converted :data:`BLOCK_ROWS` lines at a time, and the blocks
    are written into columns allocated once from the body's line count, so
    the book is never held twice.  The first bad row in file order raises;
    within a row the checks run in the order field count, number parsing,
    crossed level 1, negative size, timestamp order.
    """
    raw = _tokenizable(data)
    if raw is None:
        n_lines, blocks = _text_blocks(data.decode("utf-8").splitlines())
        parse = _parse_rows
    else:
        n_lines, blocks = _byte_blocks(raw)
        parse = _parse_tokens
    return _fill_columns(blocks, parse, n_lines)


def _fill_columns(blocks, parse, n_lines: int) -> LOBBook:
    """The ``(linenos, block)`` pairs of a body of ``n_lines`` lines, each
    parsed by ``parse`` after the last timestamp before it, written into
    columns allocated once and cut to the rows kept (blank lines hold none)."""
    ts_out = np.empty(n_lines, dtype=np.int64)
    cells_out = np.empty((n_lines, len(LOB_COLUMNS)))
    kept = 0
    for linenos, block in blocks:
        ts, cells = parse(block, linenos, int(ts_out[kept - 1]) if kept else None)
        ts_out[kept:kept + ts.size] = ts
        cells_out[kept:kept + ts.size] = cells
        kept += ts.size
    return LOBBook(ts_out[:kept], cells_out[:kept])


_HEADER_BYTES = ",".join(LOB_CSV_HEADER).encode("ascii")
# The bytes of a body the tokenizer reads; a file with any other byte after
# its header line (CR only before LF) is split into lines as text instead.
_BODY_BYTES = b"0123456789.-,\n"
_HEADER_LETTERS = _HEADER_BYTES.translate(None, _BODY_BYTES)


def _tokenizable(raw: bytes) -> bytes | None:
    """The file with LF line ends, the last line ended, when its header is
    the schema's and its body holds only :data:`_BODY_BYTES`, else None.

    In that alphabet ``str.splitlines`` breaks lines only at LF and CRLF, so
    the tokenizer splits the bytes into the same lines.
    """
    raw = lf_line_ends(raw)
    if raw is None:
        return None
    header_end = raw.find(b"\n")
    if header_end < 0 or raw[:header_end] != _HEADER_BYTES:
        return None
    # with the body's alphabet deleted, only the header's letters may be left
    if raw.translate(None, _BODY_BYTES) != _HEADER_LETTERS:
        return None
    return raw if raw.endswith(b"\n") else raw + b"\n"


def _byte_blocks(raw: bytes):
    """The body's line count, and its blocks of :data:`BLOCK_ROWS` lines of a
    :func:`_tokenizable` file, each a byte range of the one buffer, as
    :func:`_parse_tokens` takes them."""
    # the header line lies in front of every body cell: the kernels' pad
    data = np.frombuffer(raw, dtype=np.uint8)
    body = raw.find(b"\n") + 1
    line_ends = np.flatnonzero(data[body:] == ord("\n"))
    line_ends += body

    def blocks():
        for first in range(0, line_ends.size, BLOCK_ROWS):
            last = min(first + BLOCK_ROWS, line_ends.size)
            lo = int(line_ends[first - 1]) + 1 if first else body
            tokens = split_cells(data, lo, int(line_ends[last - 1]) + 1)
            kept = tokens[2] > 0
            if kept.all():
                yield range(first + 2, last + 2), (data, *tokens)
            elif kept.any():
                yield (np.flatnonzero(kept) + first + 2).tolist(), (data, *tokens)

    return line_ends.size, blocks()


def _text_blocks(lines: list[str]):
    """The body's line count, and its blocks of :data:`BLOCK_ROWS` lines
    after the header, as :func:`_parse_rows` takes them: the non-empty
    lines of each block."""
    if not lines:
        raise SchemaMismatchError("empty input, header row required")
    header = lines[0].split(",")
    if header != LOB_CSV_HEADER:
        raise SchemaMismatchError(
            f"header {header!r} does not match required {LOB_CSV_HEADER!r}"
        )

    def blocks():
        for first in range(1, len(lines), BLOCK_ROWS):
            block = lines[first:first + BLOCK_ROWS]
            kept = [i for i, line in enumerate(block) if line]
            if kept:
                yield [first + 1 + i for i in kept], [block[i] for i in kept]

    return len(lines) - 1, blocks()


def _parse_tokens(block, linenos, prev_ts: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Columns of a block's non-empty rows; raises for the first bad row.

    ``block`` is ``buf`` and :func:`split_cells` of the block's lines in
    it, ``linenos[r]`` the file line of row r and ``prev_ts`` the last
    timestamp before the block.  A block of plain cells is converted by the
    word kernels; any other block takes the per-cell path, which alone
    locates and reports a bad field count or number.
    """
    buf, ends, starts, fields = block
    converted = _convert_plain(buf, ends, starts, fields)
    if converted is None:
        text = buf[starts[0]:ends[-1] + 1].tobytes().decode("ascii")
        return _parse_rows([row for row in text.split("\n") if row], linenos, prev_ts)
    _check_rows(*converted, linenos, prev_ts)
    return converted


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

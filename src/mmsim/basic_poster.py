"""Basic limit-order posting experiments.

Two self-contained strategies used to measure how often resting orders are
picked off:

* a minimal always-posted market maker on a tick random walk, where one
  market order arrives per step and fills the bid or ask with certainty
  (front-of-queue assumption), each fill classified by the next quote move;

* a static ladder strategy that rests a buy and a sell ``offset_ticks``
  apart around the market.  After a fill at price p the same side replaces
  itself one rung further from the market (p -/+ offset) and the opposite
  side reposts at the rung p +/- offset unless an order already rests
  there.  A resting order stays until it fills; none is ever cancelled.
  An order fills adversely when the quote sweeps through its level, or
  non-adversely at (or inside) the touch once simulated traded volume
  strictly exhausts the queue ahead of it; a rung that improves the market
  starts with an empty queue.

All ladder arithmetic runs on integer tick counts; prices are converted
back through a canonical rounding so equal ticks compare equal as floats.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import RngStream, round_to_tick
from .fills import FillCounters, FillEvent, FillKind, Side, classify_fill
from .market_data import PriceSeries, check_tick
from .params import OFFSET_TICKS_PRESETS
from .table import write_table

__all__ = [
    "RestingOrder",
    "FillLog",
    "FillTypeSummary",
    "EmptySeriesError",
    "OFFSET_TICKS_PRESETS",
    "run_example1",
    "run_basic_posting",
    "queue_fill_check",
    "fill_type_table",
    "write_fill_summary_csv",
]

log = logging.getLogger(__name__)

# Steps ahead compared at once when searching for the next active step.
SEARCH_STEPS = 256


class EmptySeriesError(ValueError):
    pass


@dataclass(frozen=True)
class RestingOrder:
    """One resting unit order and the volume queued ahead of it."""

    side: Side
    price: float
    queue_ahead: float = 0.0


@dataclass
class FillLog:
    fills: list[FillEvent]
    totals: FillCounters


@dataclass(frozen=True)
class FillTypeSummary:
    total: int
    adverse: int
    non_adverse: int


def queue_fill_check(order: RestingOrder, traded_at_price: float) -> tuple[bool, RestingOrder]:
    """Consume traded volume; fill once it strictly exceeds the queue ahead."""
    if traded_at_price < 0:
        raise ValueError(f"traded volume must be >= 0, got {traded_at_price}")
    if traded_at_price > order.queue_ahead:
        return True, replace(order, queue_ahead=0.0)
    return False, replace(order, queue_ahead=order.queue_ahead - traded_at_price)


def _log_from_fills(fills: list[FillEvent]) -> FillLog:
    return FillLog(fills=fills, totals=FillCounters.from_fills(fills))


def run_example1(
    n_steps: int,
    walk_p: float = 0.25,
    seed: int = 0,
    tick: float = 0.01,
    s0: float = 100.0,
) -> FillLog:
    """Always-posted MM with certain fills: one MO per step, 50/50 side.

    The bid follows a tick random walk (up/down each with probability
    ``walk_p``) and the ask sits one tick above.  The fill at step i
    executes at that step's touch and is classified against the next
    step's touch on the same side.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if not 0.0 <= walk_p <= 0.5:
        raise ValueError(f"walk_p must lie in [0, 0.5], got {walk_p}")
    check_tick(tick)
    if n_steps == 0:
        return _log_from_fills([])

    gen = RngStream(seed=seed).generator()
    bid_ticks = [round(s0 / tick)]
    for _ in range(n_steps):
        u = gen.random()
        move = 1 if u < walk_p else (-1 if u < 2 * walk_p else 0)
        bid_ticks.append(bid_ticks[-1] + move)

    fills: list[FillEvent] = []
    for i in range(n_steps):
        buy_mo = gen.random() < 0.5
        if buy_mo:
            now, nxt = _price(bid_ticks[i] + 1, tick), _price(bid_ticks[i + 1] + 1, tick)
            fills.append(FillEvent(i, Side.ASK, now, classify_fill(Side.ASK, now, nxt)))
        else:
            now, nxt = _price(bid_ticks[i], tick), _price(bid_ticks[i + 1], tick)
            fills.append(FillEvent(i, Side.BID, now, classify_fill(Side.BID, now, nxt)))
    return _log_from_fills(fills)


def _price(ticks: int, tick: float) -> float:
    return round_to_tick(ticks * tick, tick)


def run_basic_posting(
    series: PriceSeries,
    offset_ticks: int = 4,
    tick: float = 0.01,
    seed: int = 0,
    default_queue: float = 10.0,
    mo_prob: float = 0.44,
) -> FillLog:
    """Run the static ladder strategy over a top-of-book series.

    Every bid and ask must lie within 1e-6 tick of the ``tick`` grid, else
    ValueError names the first sample off it.  Queue consumption at the
    touch is simulated: per step one unit of volume trades on each side
    independently with probability ``mo_prob``.  The uniforms are drawn up
    front as one ``gen.random((n - 1, 2))`` block for the series' n
    samples, whatever the orders do: row i is step i, column 0 the sell
    order (it hits the bid queue), column 1 the buy order.  Orders placed
    at the current touch inherit the visible level-1 size as their queue;
    orders placed away from the market start with ``default_queue`` ahead.

    At each step the buys are visited high to low, then the sells low to
    high; fills are removed, then reposted against the next sample.  Only
    steps where a rung can act are visited.  While the rungs stay put,
    whether step i can touch the book is a threshold on the highest buy and
    the lowest sell, so the next such step is found with array compares over
    the samples ahead, and every other step is skipped.
    """
    n = len(series)
    if n == 0:
        raise EmptySeriesError("series holds no samples")
    if offset_ticks < 1:
        raise ValueError(f"offset_ticks must be >= 1, got {offset_ticks}")
    check_tick(tick)

    quotes = np.stack([series.bid, series.ask]) / tick
    ticks = np.rint(quotes)
    off_grid = (np.abs(quotes - ticks) > 1e-6).any(axis=0)
    if off_grid.any():
        i = int(off_grid.argmax())
        raise ValueError(f"sample {i}: bid {float(series.bid[i])!r} or ask "
                         f"{float(series.ask[i])!r} is off the tick grid of {tick!r}")
    bid_a, ask_a = ticks.astype(np.int64)
    mo = RngStream(seed=seed).generator().random((n - 1, 2)) < mo_prob
    b0, b1, a0, a1 = bid_a[:-1], bid_a[1:], ask_a[:-1], ask_a[1:]
    # step i can act on a buy rung only if the highest one is at least
    # buy_reach[i]: the bid falls below it, the ask drops onto it, or a sell
    # order meets it at or inside the touch; sell_reach mirrors it
    buy_reach = np.minimum(a1, np.where(b1 < b0, b1 + 1, a1))
    buy_reach = np.where(mo[:, 0], np.minimum(buy_reach, b0), buy_reach)
    sell_reach = np.maximum(b1, np.where(a1 > a0, a1 - 1, b1))
    sell_reach = np.where(mo[:, 1], np.maximum(sell_reach, a0), sell_reach)
    bid_t, ask_t = bid_a.tolist(), ask_a.tolist()
    mo_sell, mo_buy = mo[:, 0].tolist(), mo[:, 1].tolist()

    # each side's rung ticks, ascending, and the queue ahead of each rung
    buys: list[int] = []
    sells: list[int] = []
    buy_queue: dict[int, float] = {}
    sell_queue: dict[int, float] = {}

    def _queue_at_placement(side: Side, ticks: int, i: int) -> float:
        if side is Side.BID:
            if ticks == bid_t[i]:
                return float(series.level1_bid_sz[i])
            if ticks > bid_t[i]:  # improving the bid: fresh level, empty queue
                return 0.0
        else:
            if ticks == ask_t[i]:
                return float(series.level1_ask_sz[i])
            if ticks < ask_t[i]:
                return 0.0
        return default_queue

    def _place(side: Side, ticks: int, i: int) -> None:
        rungs, queue = (buys, buy_queue) if side is Side.BID else (sells, sell_queue)
        if ticks in queue:
            log.debug("step %d: %s rung %d already posted, repost skipped", i, side.value, ticks)
            return
        if side is Side.BID:
            if sells and ticks >= sells[0]:
                log.debug("step %d: bid rung %d would cross lowest ask, skipped", i, ticks)
                return
            if ticks >= ask_t[i]:
                return
        else:
            if buys and ticks <= buys[-1]:
                log.debug("step %d: ask rung %d would cross highest bid, skipped", i, ticks)
                return
            if ticks <= bid_t[i]:
                return
        queue[ticks] = _queue_at_placement(side, ticks, i)
        insort(rungs, ticks)

    def _step(i: int) -> bool:
        """Apply step i's rules; True when a rung was filled."""
        bid_now, bid_next, ask_now, ask_next = bid_t[i], bid_t[i + 1], ask_t[i], ask_t[i + 1]
        filled: list[tuple[Side, int]] = []
        # buys below this floor can be neither swept nor reached
        floor = min(bid_now, bid_next + 1, ask_next)
        for ticks in reversed(buys[bisect_left(buys, floor):]):
            if (bid_now >= ticks > bid_next) or ask_next <= ticks:
                fills.append(FillEvent(i, Side.BID, _price(ticks, tick), FillKind.ADVERSE))
                filled.append((Side.BID, ticks))
            elif ticks >= bid_now and mo_sell[i]:
                # queue_fill_check(order, 1.0): fill once volume exceeds the queue
                ahead = buy_queue[ticks]
                if 1.0 > ahead:
                    price = _price(ticks, tick)
                    kind = classify_fill(Side.BID, price, _price(bid_next, tick))
                    fills.append(FillEvent(i, Side.BID, price, kind))
                    filled.append((Side.BID, ticks))
                else:
                    buy_queue[ticks] = ahead - 1.0
        ceiling = max(ask_now, ask_next - 1, bid_next)
        for ticks in sells[:bisect_right(sells, ceiling)]:
            if (ask_now <= ticks < ask_next) or bid_next >= ticks:
                fills.append(FillEvent(i, Side.ASK, _price(ticks, tick), FillKind.ADVERSE))
                filled.append((Side.ASK, ticks))
            elif ticks <= ask_now and mo_buy[i]:
                ahead = sell_queue[ticks]
                if 1.0 > ahead:
                    price = _price(ticks, tick)
                    kind = classify_fill(Side.ASK, price, _price(ask_next, tick))
                    fills.append(FillEvent(i, Side.ASK, price, kind))
                    filled.append((Side.ASK, ticks))
                else:
                    sell_queue[ticks] = ahead - 1.0

        for side, ticks in filled:
            rungs, queue = (buys, buy_queue) if side is Side.BID else (sells, sell_queue)
            del queue[ticks]
            rungs.remove(ticks)
        for side, ticks in filled:
            if side is Side.BID:
                _place(Side.BID, ticks - offset_ticks, i + 1)
                _place(Side.ASK, ticks + offset_ticks, i + 1)
            else:
                _place(Side.ASK, ticks + offset_ticks, i + 1)
                _place(Side.BID, ticks - offset_ticks, i + 1)

        if buys and sells and buys[-1] >= sells[0]:
            raise RuntimeError(
                f"ladder discipline broken at step {i}: "
                f"bid rung {buys[-1]} >= ask rung {sells[0]}"
            )
        return bool(filled)

    # initial rungs straddling the sample-0 market, offset_ticks apart
    spread_t = ask_t[0] - bid_t[0]
    below = max(0, (offset_ticks - spread_t) // 2)
    first_buy = bid_t[0] - below
    _place(Side.BID, first_buy, 0)
    _place(Side.ASK, first_buy + offset_ticks, 0)

    fills: list[FillEvent] = []
    i, n_steps = 0, n - 1
    while i < n_steps and (buys or sells):
        stop = min(i + SEARCH_STEPS, n_steps)
        active = np.zeros(stop - i, dtype=bool)
        if buys:
            active |= buy_reach[i:stop] <= buys[-1]
        if sells:
            active |= sell_reach[i:stop] >= sells[0]
        for k in np.flatnonzero(active).tolist():
            if _step(i + k):
                # the rungs changed: search again from the next step
                i += k + 1
                break
        else:
            i = stop

    return _log_from_fills(fills)


def fill_type_table(log_: FillLog) -> FillTypeSummary:
    """Collapse a fill log into (total, adverse, non-adverse) counts."""
    t = log_.totals
    return FillTypeSummary(
        total=t.n_plus + t.n_minus, adverse=t.afa + t.afb, non_adverse=t.nfa + t.nfb
    )


def write_fill_summary_csv(rows: list[tuple[str, str, FillTypeSummary]], path) -> None:
    """Summary CSV: date, contract, total, adverse, non_adverse."""
    write_table(
        path,
        ["date", "contract", "total", "adverse", "non_adverse"],
        list(zip(*((date, contract, s.total, s.adverse, s.non_adverse)
                   for date, contract, s in rows))),
    )

"""Basic limit-order posting experiments.

Two self-contained strategies used to measure how often resting orders are
picked off:

* a minimal always-posted market maker on a tick random walk, where one
  market order arrives per step and fills the bid or ask with certainty
  (front-of-queue assumption), each fill classified by the next quote move;

* a static ladder strategy that rests a buy and a sell ``offset_ticks``
  apart around the market.  A resting order stays until it fills; none is
  ever cancelled.  An order fills adversely when the quote sweeps through
  its level, or non-adversely at (or inside) the touch once simulated
  traded volume strictly exhausts the queue ahead of it; a rung that
  improves the market starts with an empty queue.

The ladder keeps each side's rungs in signed ticks: +t for a buy at tick t,
-t for a sell, so on both sides a better price is a larger number and one
set of rules steps both sides.  After a fill at signed tick x the same side
replaces itself one rung further from the market, at x - offset, and the
other side reposts at -x - offset (the filled price plus or minus offset on
its own side) unless an order already rests there.

All ladder arithmetic runs on integer tick counts; prices are converted
back through a canonical rounding so equal ticks compare equal as floats.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, insort
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .dynamics import RngStream, round_to_tick
from .fills import FillEvent, FillKind, Side, classify_fill
from .market_data import PriceSeries, check_tick, check_tick_count
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


# The tick of Example 1's book, whose bid starts at 100.0.
EXAMPLE1_TICK = 0.01


def run_example1(n_steps: int, walk_p: float = 0.25, seed: int = 0) -> FillLog:
    """Always-posted MM with certain fills: one MO per step, 50/50 side.

    The bid starts at 100.0 and follows a random walk on the
    ``EXAMPLE1_TICK`` tick (up/down each with probability ``walk_p``); the
    ask sits one tick above.  The fill at step i executes at that step's
    touch and is classified against the next step's touch on the same side.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if not 0.0 <= walk_p <= 0.5:
        raise ValueError(f"walk_p must lie in [0, 0.5], got {walk_p}")
    if n_steps == 0:
        return FillLog([])

    gen = RngStream(seed=seed).generator()
    u = gen.random(n_steps)
    moves = np.where(u < walk_p, 1, np.where(u < 2 * walk_p, -1, 0)).tolist()
    bid_ticks = list(accumulate(moves, initial=round(100.0 / EXAMPLE1_TICK)))

    fills: list[FillEvent] = []
    # a buy market order lifts the ask, one tick above the bid; a sell hits the bid
    for i, buy_mo in enumerate((gen.random(n_steps) < 0.5).tolist()):
        side, above = (Side.ASK, 1) if buy_mo else (Side.BID, 0)
        now, nxt = (_price(t + above, EXAMPLE1_TICK) for t in bid_ticks[i:i + 2])
        fills.append(FillEvent(i, side, now, classify_fill(side, now, nxt)))
    return FillLog(fills)


def _price(ticks: int, tick: float) -> float:
    return round_to_tick(ticks * tick, tick)


class _LadderSide:
    """One side of the ladder in signed ticks (+t for a buy at tick t, -t
    for a sell): the per-step columns the rules read, and the resting rungs.
    The far touch is the other side's touch, negated."""

    __slots__ = ("side", "sign", "touch", "level1", "mo", "reach", "rungs", "queue")

    def __init__(self, side: Side, sign: int, touch, far, level1, mo) -> None:
        self.side, self.sign, self.level1 = side, sign, level1
        now, nxt, far_next = touch[:-1], touch[1:], far[1:]
        # step i can act on a rung only if the best one is at least reach[i]:
        # the touch drops below it, the far touch comes onto it, or a market
        # order from the other side meets it at or inside the touch
        reach = np.minimum(far_next, np.where(nxt < now, nxt + 1, far_next))
        self.reach = np.where(mo, np.minimum(reach, now), reach)
        self.touch, self.mo = touch.tolist(), mo.tolist()
        self.rungs: list[int] = []  # ascending, so the best rung is last
        self.queue: dict[int, float] = {}  # the volume queued ahead of each rung


def run_basic_posting(
    series: PriceSeries,
    offset_ticks: int = 4,
    tick: float = 0.01,
    seed: int = 0,
    default_queue: float = 10.0,
    mo_prob: float = 0.44,
) -> FillLog:
    """Run the static ladder strategy over a top-of-book series.

    Every bid and ask must lie under 2**53 ticks from 0 and within 1e-6
    tick of the ``tick`` grid, else ValueError names the first sample that
    does not.  Queue consumption at the touch is simulated: per step one
    unit of volume trades on each side independently with probability
    ``mo_prob``.  The uniforms are drawn up front as one
    ``gen.random((n - 1, 2))`` block for the series' n samples, whatever
    the orders do: row i is step i, column 0 the sell order (it hits the
    bid queue), column 1 the buy order.  Orders placed at the current
    touch inherit the visible level-1 size as their queue; orders placed
    away from the market start with ``default_queue`` ahead.

    Both sides follow one set of rules on signed ticks, where the buys'
    touch is the bid and the sells' is the negated ask.  At each step the
    buys are visited best (highest) first, then the sells best (lowest)
    first; fills are removed, then reposted in fill order against the next
    sample.  Only steps where a rung can act are visited.  While the rungs
    stay put, whether step i can touch the book is a threshold on each
    side's best rung, so the next such step is found with array compares
    over the samples ahead, and every other step is skipped.
    """
    n = len(series)
    if n == 0:
        raise EmptySeriesError("series holds no samples")
    if offset_ticks < 1:
        raise ValueError(f"offset_ticks must be >= 1, got {offset_ticks}")
    check_tick(tick)
    check_tick_count(series.bid, series.ask, tick)

    quotes = np.stack([series.bid, series.ask]) / tick
    ticks = np.rint(quotes)
    off_grid = (np.abs(quotes - ticks) > 1e-6).any(axis=0)
    if off_grid.any():
        i = int(off_grid.argmax())
        raise ValueError(f"sample {i}: bid {float(series.bid[i])!r} or ask "
                         f"{float(series.ask[i])!r} is off the tick grid of {tick!r}")
    bid_a, ask_a = ticks.astype(np.int64)
    mo = RngStream(seed=seed).generator().random((n - 1, 2)) < mo_prob
    buy = _LadderSide(Side.BID, 1, bid_a, ask_a, series.level1_bid_sz, mo[:, 0])
    sell = _LadderSide(Side.ASK, -1, -ask_a, -bid_a, series.level1_ask_sz, mo[:, 1])
    # each side with the other, in the order a step visits them
    sides = ((buy, sell), (sell, buy))

    def _place(s: _LadderSide, other: _LadderSide, x: int, i: int) -> None:
        if x in s.queue:
            log.debug("step %d: %s rung %d already posted, repost skipped",
                      i, s.side.value, s.sign * x)
            return
        if other.rungs and x + other.rungs[-1] >= 0:
            log.debug("step %d: %s rung %d would cross the best %s rung, skipped",
                      i, s.side.value, s.sign * x, other.side.value)
            return
        if x + other.touch[i] >= 0:  # at or through the far touch
            return
        touch = s.touch[i]
        # at the touch it queues behind the visible size; improving the touch
        # opens a fresh level with an empty queue; away from it, default_queue
        s.queue[x] = float(s.level1[i]) if x == touch else 0.0 if x > touch else default_queue
        insort(s.rungs, x)

    def _step(i: int) -> bool:
        """Apply step i's rules; True when a rung was filled."""
        filled: list[tuple[_LadderSide, _LadderSide, int]] = []
        for s, other in sides:
            side, sign, rungs, queue, mo_now = s.side, s.sign, s.rungs, s.queue, s.mo[i]
            touch, touch_next, far_next = s.touch[i], s.touch[i + 1], -other.touch[i + 1]
            # rungs below this floor can be neither swept nor reached
            floor = min(touch, touch_next + 1, far_next)
            for x in reversed(rungs[bisect_left(rungs, floor):]):
                if (touch >= x > touch_next) or far_next <= x:
                    fills.append(FillEvent(i, side, _price(sign * x, tick), FillKind.ADVERSE))
                elif x >= touch and mo_now:
                    # queue_fill_check(order, 1.0): fill once volume exceeds the queue
                    ahead = queue[x]
                    if 1.0 > ahead:
                        price = _price(sign * x, tick)
                        kind = classify_fill(side, price, _price(sign * touch_next, tick))
                        fills.append(FillEvent(i, side, price, kind))
                    else:
                        queue[x] = ahead - 1.0
                        continue
                else:
                    continue
                filled.append((s, other, x))

        for s, _, x in filled:
            del s.queue[x]
            s.rungs.remove(x)
        for s, other, x in filled:
            _place(s, other, x - offset_ticks, i + 1)
            _place(other, s, -x - offset_ticks, i + 1)

        if buy.rungs and sell.rungs and buy.rungs[-1] + sell.rungs[-1] >= 0:
            raise RuntimeError(
                f"ladder discipline broken at step {i}: "
                f"bid rung {buy.rungs[-1]} >= ask rung {-sell.rungs[-1]}"
            )
        return bool(filled)

    # initial rungs straddling the sample-0 market, offset_ticks apart
    spread_t = -sell.touch[0] - buy.touch[0]
    below = max(0, (offset_ticks - spread_t) // 2)
    first_buy = buy.touch[0] - below
    _place(buy, sell, first_buy, 0)
    _place(sell, buy, -first_buy - offset_ticks, 0)

    fills: list[FillEvent] = []
    i, n_steps = 0, n - 1
    while i < n_steps and (buy.rungs or sell.rungs):
        stop = min(i + SEARCH_STEPS, n_steps)
        active = np.zeros(stop - i, dtype=bool)
        for s, _ in sides:
            if s.rungs:
                active |= s.reach[i:stop] <= s.rungs[-1]
        for k in np.flatnonzero(active).tolist():
            if _step(i + k):
                # the rungs changed: search again from the next step
                i += k + 1
                break
        else:
            i = stop

    return FillLog(fills)


def fill_type_table(log_: FillLog) -> FillTypeSummary:
    """Collapse a fill log into (total, adverse, non-adverse) counts."""
    total = len(log_.fills)
    adverse = sum(f.kind is FillKind.ADVERSE for f in log_.fills)
    return FillTypeSummary(total=total, adverse=adverse, non_adverse=total - adverse)


def write_fill_summary_csv(rows: list[tuple[str, str, FillTypeSummary]], path) -> None:
    """Summary CSV: date, contract, total, adverse, non_adverse."""
    write_table(
        path,
        ["date", "contract", "total", "adverse", "non_adverse"],
        list(zip(*((date, contract, s.total, s.adverse, s.non_adverse)
                   for date, contract, s in rows))),
    )

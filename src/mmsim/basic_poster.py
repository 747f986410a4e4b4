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
  there.  Resting orders away from the market stay active unless a cancel
  distance is set.  An order fills adversely when the quote sweeps through
  its level, or non-adversely at (or inside) the touch once simulated
  traded volume strictly exhausts the queue ahead of it; a rung that
  improves the market starts with an empty queue.

All ladder arithmetic runs on integer tick counts; prices are converted
back through a canonical rounding so equal ticks compare equal as floats.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .dynamics import RngStream, round_to_tick
from .fills import FillCounters, FillEvent, FillKind, Side, classify_fill
from .market_data import PriceSeries
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

# Ladder spacing per contract, in ticks.
OFFSET_TICKS_PRESETS = {"ES": 4, "CL": 4, "NQ": 16, "ZN": 1}


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
    if n_steps == 0:
        return _log_from_fills([])
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if not 0.0 <= walk_p <= 0.5:
        raise ValueError(f"walk_p must lie in [0, 0.5], got {walk_p}")

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
    cancel_distance_ticks: int | None = None,
) -> FillLog:
    """Run the static ladder strategy over a top-of-book series.

    Queue consumption at the touch is simulated: per step one unit of
    volume trades on each side independently with probability ``mo_prob``
    (two draws per step, bid side first, regardless of order state).
    Orders placed at the current touch inherit the visible level-1 size as
    their queue; orders placed away from the market start with
    ``default_queue`` ahead.
    """
    if len(series) == 0:
        raise EmptySeriesError("series holds no samples")
    if offset_ticks < 1:
        raise ValueError(f"offset_ticks must be >= 1, got {offset_ticks}")

    gen = RngStream(seed=seed).generator()
    bid_t = [round(b / tick) for b in series.bid]
    ask_t = [round(a / tick) for a in series.ask]

    buys: dict[int, RestingOrder] = {}
    sells: dict[int, RestingOrder] = {}

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
        book = buys if side is Side.BID else sells
        if ticks in book:
            log.debug("step %d: %s rung %d already posted, repost skipped", i, side.value, ticks)
            return
        if side is Side.BID:
            if sells and ticks >= min(sells):
                log.debug("step %d: bid rung %d would cross lowest ask, skipped", i, ticks)
                return
            if ticks >= ask_t[i]:
                return
        else:
            if buys and ticks <= max(buys):
                log.debug("step %d: ask rung %d would cross highest bid, skipped", i, ticks)
                return
            if ticks <= bid_t[i]:
                return
        book[ticks] = RestingOrder(side, _price(ticks, tick), _queue_at_placement(side, ticks, i))

    # initial rungs straddling the sample-0 market, offset_ticks apart
    spread_t = ask_t[0] - bid_t[0]
    below = max(0, (offset_ticks - spread_t) // 2)
    first_buy = bid_t[0] - below
    _place(Side.BID, first_buy, 0)
    _place(Side.ASK, first_buy + offset_ticks, 0)

    fills: list[FillEvent] = []
    for i in range(len(series) - 1):
        mo_sell = gen.random() < mo_prob  # sell MO consumes the bid queue
        mo_buy = gen.random() < mo_prob

        filled: list[tuple[Side, int]] = []
        for ticks in sorted(buys, reverse=True):
            order = buys[ticks]
            # swept: the bid fell through the level, or the ask dropped onto
            # it; a rung improving the current bid is matchable by sell flow
            swept = (bid_t[i] >= ticks > bid_t[i + 1]) or ask_t[i + 1] <= ticks
            if swept:
                fills.append(FillEvent(i, Side.BID, order.price, FillKind.ADVERSE))
                filled.append((Side.BID, ticks))
            elif ticks >= bid_t[i] and mo_sell:
                done, buys[ticks] = queue_fill_check(order, 1.0)
                if done:
                    kind = classify_fill(Side.BID, order.price, _price(bid_t[i + 1], tick))
                    fills.append(FillEvent(i, Side.BID, order.price, kind))
                    filled.append((Side.BID, ticks))
        for ticks in sorted(sells):
            order = sells[ticks]
            swept = (ask_t[i] <= ticks < ask_t[i + 1]) or bid_t[i + 1] >= ticks
            if swept:
                fills.append(FillEvent(i, Side.ASK, order.price, FillKind.ADVERSE))
                filled.append((Side.ASK, ticks))
            elif ticks <= ask_t[i] and mo_buy:
                done, sells[ticks] = queue_fill_check(order, 1.0)
                if done:
                    kind = classify_fill(Side.ASK, order.price, _price(ask_t[i + 1], tick))
                    fills.append(FillEvent(i, Side.ASK, order.price, kind))
                    filled.append((Side.ASK, ticks))

        for side, ticks in filled:
            del (buys if side is Side.BID else sells)[ticks]
        for side, ticks in filled:
            if side is Side.BID:
                _place(Side.BID, ticks - offset_ticks, i + 1)
                _place(Side.ASK, ticks + offset_ticks, i + 1)
            else:
                _place(Side.ASK, ticks + offset_ticks, i + 1)
                _place(Side.BID, ticks - offset_ticks, i + 1)

        if cancel_distance_ticks is not None:
            mid2 = (bid_t[i + 1] + ask_t[i + 1]) / 2.0
            for book in (buys, sells):
                for ticks in [t for t in book if abs(t - mid2) > cancel_distance_ticks]:
                    del book[ticks]

        if buys and sells and max(buys) >= min(sells):
            raise RuntimeError(
                f"ladder discipline broken at step {i}: "
                f"bid rung {max(buys)} >= ask rung {min(sells)}"
            )

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

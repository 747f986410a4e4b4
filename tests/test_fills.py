import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.dynamics import RngStream
from mmsim.fills import (
    FILL_EVENTS,
    EnvMode,
    EnvVariant,
    FillColumns,
    FillCounters,
    FillEvent,
    FillKind,
    Side,
    classify_fill,
    fill_rule,
    read_fill_log,
    step_fills,
    write_fill_log,
)
from mmsim.params import default_params


def test_classify_direct_rules():
    assert classify_fill(Side.BID, 100.00, 99.99) is FillKind.ADVERSE
    assert classify_fill(Side.ASK, 81.86, 81.86) is FillKind.NON_ADVERSE
    assert classify_fill(Side.ASK, 81.90, 81.91) is FillKind.ADVERSE
    # favorable moves are non-adverse
    assert classify_fill(Side.BID, 100.00, 100.01) is FillKind.NON_ADVERSE
    assert classify_fill(Side.ASK, 81.90, 81.85) is FillKind.NON_ADVERSE


def _trade_throughs(posted_bid, posted_ask, bid_now, ask_now, bid_next, ask_next, t_index=0):
    """``step_fills`` in improved mode with no market order: only the
    trade-throughs fill."""
    return step_fills(posted_bid, posted_ask, bid_now, ask_now, bid_next, ask_next,
                      False, False, EnvMode.improved(default_params()), 0.0, 0.0, t_index)


def test_detect_ask_moved_through():
    fills = _trade_throughs(False, True, 81.86, 81.90, 81.86, 81.91, t_index=4)
    assert fills == [FillEvent(4, Side.ASK, 81.90, FillKind.ADVERSE)]


def test_detect_nothing_when_not_posted():
    assert _trade_throughs(False, False, 81.86, 81.90, 81.80, 81.95) == []


def test_detect_bid_side_only_when_bid_moves():
    fills = _trade_throughs(True, True, 81.86, 81.90, 81.82, 81.90)
    assert len(fills) == 1
    assert fills[0].side is Side.BID
    assert fills[0].price == 81.86
    assert fills[0].kind is FillKind.ADVERSE


def test_detect_both_sides_on_widening():
    fills = _trade_throughs(True, True, 81.86, 81.90, 81.85, 81.91)
    assert {f.side for f in fills} == {Side.BID, Side.ASK}


def _thinned_ask_fill(posted, mo_arrived, traded_through, rho, u):
    """Whether ``step_fills`` gives the ask a non-adverse fill in improved
    mode at ``rho``: a buy order arrived or not, the ask moved a tick up or
    not, and ``u`` is the ask's thinning uniform."""
    mode = EnvMode(EnvVariant.IMPROVED, rho_effective=rho)
    ask_next = 100.01 if traded_through else 100.0
    fills = step_fills(False, posted, 99.99, 100.0, 99.99, ask_next,
                       mo_arrived, False, mode, u, 0.0)
    return any(f.kind is FillKind.NON_ADVERSE for f in fills)


def test_nonadverse_requires_posting_and_arrival():
    gen = RngStream(seed=0).generator()
    for _ in range(200):
        assert not _thinned_ask_fill(False, True, False, 1.0, gen.random())
        assert not _thinned_ask_fill(True, False, False, 1.0, gen.random())
        assert not _thinned_ask_fill(True, True, True, 1.0, gen.random())


def test_nonadverse_certain_at_rho_one():
    gen = RngStream(seed=1).generator()
    assert all(_thinned_ask_fill(True, True, False, 1.0, u) for u in gen.random(2000))


def test_nonadverse_frequency_matches_rho():
    gen = RngStream(seed=2).generator()
    n = 100_000
    hits = sum(_thinned_ask_fill(True, True, False, 0.2, u) for u in gen.random(n))
    assert hits / n == pytest.approx(0.2, abs=0.005)


def test_accumulate_cases():
    # accumulating a step's fills is adding their count to the running total
    zero = FillCounters()
    assert zero + FillCounters.from_fills([]) == zero

    one = zero + FillCounters.from_fills([FillEvent(0, Side.ASK, 100.0, FillKind.ADVERSE)])
    assert (one.afa, one.n_plus) == (1, 1)
    assert (one.nfa, one.afb, one.nfb, one.n_minus) == (0, 0, 0, 0)

    mixed = zero + FillCounters.from_fills([
        FillEvent(0, Side.ASK, 100.0, FillKind.ADVERSE),
        FillEvent(0, Side.ASK, 100.0, FillKind.NON_ADVERSE),
        FillEvent(1, Side.BID, 99.0, FillKind.ADVERSE),
        FillEvent(1, Side.BID, 99.0, FillKind.NON_ADVERSE),
    ])
    assert (mixed.afa, mixed.nfa, mixed.afb, mixed.nfb) == (1, 1, 1, 1)
    assert mixed.n_plus == mixed.n_minus == 2
    assert (one + mixed).afa == 2 and (one + mixed).nfb == 1


fill_events = st.builds(
    FillEvent,
    t_index=st.integers(min_value=0, max_value=100),
    side=st.sampled_from(list(Side)),
    price=st.just(100.0),
    kind=st.sampled_from(list(FillKind)),
)


@given(st.lists(fill_events, max_size=50))
def test_counter_identity_always_holds(fills):
    c = FillCounters.from_fills(fills)
    assert c.n_plus == c.afa + c.nfa
    assert c.n_minus == c.afb + c.nfb
    assert c.n_plus + c.n_minus == len(fills)


def test_adverse_takes_precedence_over_thinning():
    p = default_params()
    mode = EnvMode.improved(p)
    gen = RngStream(seed=3).generator()
    # ask moved through while a buy MO arrives: exactly one fill, adverse
    for _ in range(500):
        fills = step_fills(False, True, 81.86, 81.90, 81.86, 81.91,
                           mo_buy=True, mo_sell=False, mode=mode,
                           u_ask=gen.random(), u_bid=gen.random())
        assert len(fills) == 1
        assert fills[0].kind is FillKind.ADVERSE


def test_benchmark_mode_never_emits_adverse():
    mode = EnvMode.benchmark()
    gen = RngStream(seed=4).generator()
    for _ in range(500):
        fills = step_fills(True, True, 81.86, 81.90, 81.50, 82.50,
                           mo_buy=True, mo_sell=True, mode=mode,
                           u_ask=gen.random(), u_bid=gen.random())
        assert all(f.kind is FillKind.NON_ADVERSE for f in fills)
        assert len(fills) == 2  # rho_effective = 1 fills both matched sides


def test_env_mode_constructors():
    p = default_params()
    bench = EnvMode.benchmark()
    improved = EnvMode.improved(p)
    assert bench.rho_effective == 1.0 and not bench.detect_adverse
    assert improved.rho_effective == p.rho and improved.detect_adverse


def _naive_replay(bids, asks, posted_bid, posted_ask, mo_buy, mo_sell, mode, u):
    """Step-by-step literal restatement of the fill rules; ``u[i]`` holds
    step i's ask and bid thinning uniforms."""
    out = []
    for i in range(len(bids) - 1):
        ask_adverse = bid_adverse = False
        if mode.detect_adverse:
            if posted_ask[i] and asks[i + 1] > asks[i]:
                out.append(FillEvent(i, Side.ASK, asks[i], FillKind.ADVERSE))
                ask_adverse = True
            if posted_bid[i] and bids[i + 1] < bids[i]:
                out.append(FillEvent(i, Side.BID, bids[i], FillKind.ADVERSE))
                bid_adverse = True
        if posted_ask[i] and mo_buy[i] and not ask_adverse:
            if u[i, 0] < mode.rho_effective:
                out.append(FillEvent(i, Side.ASK, asks[i], FillKind.NON_ADVERSE))
        if posted_bid[i] and mo_sell[i] and not bid_adverse:
            if u[i, 1] < mode.rho_effective:
                out.append(FillEvent(i, Side.BID, bids[i], FillKind.NON_ADVERSE))
    return out


@pytest.mark.parametrize("variant", ["benchmark", "improved"])
def test_step_fills_matches_naive_replay(variant):
    p = default_params()
    mode = EnvMode.benchmark() if variant == "benchmark" else EnvMode.improved(p)
    setup = RngStream(seed=50).generator()
    n = 50
    ticks = np.cumsum(setup.integers(-1, 2, size=n + 1))
    bids = 100.0 + 0.01 * ticks
    asks = bids + 0.01
    posted_bid = setup.random(n) < 0.6
    posted_ask = setup.random(n) < 0.6
    mo_buy = setup.random(n) < 0.4
    mo_sell = setup.random(n) < 0.4

    u = RngStream(seed=51).generator().random((n, 2))
    got = []
    for i in range(n):
        got.extend(step_fills(
            bool(posted_bid[i]), bool(posted_ask[i]),
            bids[i], asks[i], bids[i + 1], asks[i + 1],
            bool(mo_buy[i]), bool(mo_sell[i]), mode, u[i, 0], u[i, 1], t_index=i,
        ))
    want = _naive_replay(bids, asks, posted_bid, posted_ask, mo_buy, mo_sell, mode, u)
    assert got == want


@pytest.mark.parametrize("variant", ["benchmark", "improved"])
def test_fill_rule_on_every_state_equals_step_fills(variant):
    """fill_rule evaluated once on arrays of all 4 posting x 16 step states
    gives, row by row, the events step_fills emits for every way of
    reaching that state: each quote moving up, down or not at all, and
    each side's arrival and thinning draw."""
    mode = EnvMode.benchmark() if variant == "benchmark" else EnvMode.improved(default_params())
    # posted ask, posted bid, ask moved up, bid moved down, ask hit, bid hit
    states = np.array(list(itertools.product([False, True], repeat=6)))
    # only the improved environment counts a move as a trade-through
    moved = states[:, 2:4].T & mode.detect_adverse
    rule = np.stack(fill_rule(*states[:, :2].T, *moved, *states[:, 4:].T), axis=1)
    seen = set()
    bid_now, ask_now, tick = 99.99, 100.0, 0.01
    price = {Side.ASK: ask_now, Side.BID: bid_now}
    for posted_ask, posted_bid in itertools.product([False, True], repeat=2):
        for ask_move, bid_move in itertools.product([-tick, 0.0, tick], repeat=2):
            for mo_buy, mo_sell, u_ask, u_bid in itertools.product(
                    [False, True], [False, True], [0.0, 0.5], [0.0, 0.5]):
                fills = step_fills(posted_bid, posted_ask, bid_now, ask_now,
                                   bid_now + bid_move, ask_now + ask_move,
                                   mo_buy, mo_sell, mode, u_ask, u_bid, t_index=3)
                state = (posted_ask, posted_bid, ask_move > 0, bid_move < 0,
                         mo_buy and u_ask < mode.rho_effective, mo_sell and u_bid < mode.rho_effective)
                row = int(np.flatnonzero((states == state).all(axis=1))[0])
                seen.add(row)
                assert fills == [FillEvent(3, side, price[side], kind)
                                 for fired, (side, kind) in zip(rule[row], FILL_EVENTS) if fired]
    assert len(seen) == 64


def test_fill_log_round_trip(tmp_path):
    fills = [
        FillEvent(3, Side.ASK, 81.90, FillKind.ADVERSE),
        FillEvent(5, Side.BID, 81.86, FillKind.NON_ADVERSE),
    ]
    path = tmp_path / "fills.csv"
    write_fill_log(FillColumns.from_events(fills), path)
    _assert_same_columns(read_fill_log(path), FillColumns.from_events(fills))
    assert path.read_text().startswith("t_index,side,price,kind\n")


def _assert_same_columns(got: FillColumns, want: FillColumns):
    for name in ("t_index", "is_ask", "price", "is_adverse"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(list(Side)), st.sampled_from(list(FillKind))),
                max_size=40))
def test_counters_from_columns_match_a_tally(sides_kinds):
    fills = [FillEvent(i, side, 100.0, kind) for i, (side, kind) in enumerate(sides_kinds)]
    tally = Counter(sides_kinds)
    want = FillCounters(
        afa=tally[Side.ASK, FillKind.ADVERSE], nfa=tally[Side.ASK, FillKind.NON_ADVERSE],
        afb=tally[Side.BID, FillKind.ADVERSE], nfb=tally[Side.BID, FillKind.NON_ADVERSE],
    )
    assert FillCounters.from_columns(FillColumns.from_events(fills)) == want
    assert FillCounters.from_fills(fills) == want

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.basic_poster import (
    EmptySeriesError,
    OFFSET_TICKS_PRESETS,
    SEARCH_STEPS,
    RestingOrder,
    fill_type_table,
    queue_fill_check,
    run_basic_posting,
    run_example1,
    write_fill_summary_csv,
)
from mmsim.cli import cli_main
from mmsim.dynamics import RngStream, round_to_tick
from mmsim.fills import FillEvent, FillKind, Side, classify_fill
from mmsim.market_data import LOB_COLUMNS, LOBBook, PriceSeries, render_lob_csv, synthetic_quotes
from mmsim.params import TICK_PRESETS, default_params


def _series(bids, asks, bid_sz=10.0, ask_sz=10.0):
    n = len(bids)
    return PriceSeries(
        t0=0, dt=1.0,
        bid=np.asarray(bids, dtype=float), ask=np.asarray(asks, dtype=float),
        level1_bid_sz=np.full(n, bid_sz), level1_ask_sz=np.full(n, ask_sz),
    )


def test_queue_fill_check_cases():
    filled, order = queue_fill_check(RestingOrder(Side.BID, 100.0, 0.0), 1.0)
    assert filled and order.queue_ahead == 0.0

    filled, order = queue_fill_check(RestingOrder(Side.BID, 100.0, 10.0), 4.0)
    assert not filled and order.queue_ahead == 6.0

    filled, order = queue_fill_check(RestingOrder(Side.BID, 100.0, 10.0), 0.0)
    assert not filled and order.queue_ahead == 10.0

    with pytest.raises(ValueError):
        queue_fill_check(RestingOrder(Side.BID, 100.0, 10.0), -1.0)


def test_queue_fill_is_strict_about_volume():
    order = RestingOrder(Side.ASK, 100.0, 10.0)
    filled, order = queue_fill_check(order, 10.0)
    assert not filled and order.queue_ahead == 0.0
    filled, _ = queue_fill_check(order, 1.0)
    assert filled


def test_example1_empty_run():
    log = run_example1(0)
    assert log.fills == []
    summary = fill_type_table(log)
    assert (summary.total, summary.adverse, summary.non_adverse) == (0, 0, 0)


def test_example1_frozen_prices_all_nonadverse():
    log = run_example1(500, walk_p=0.0, seed=3)
    assert len(log.fills) == 500
    assert all(f.kind is FillKind.NON_ADVERSE for f in log.fills)


@pytest.mark.parametrize("seed", range(5))
def test_example1_one_fill_per_step_exhaustive(seed):
    n = 400
    log = run_example1(n, walk_p=0.25, seed=seed)
    summary = fill_type_table(log)
    assert summary.total == n
    assert summary.adverse + summary.non_adverse == n
    assert [f.t_index for f in log.fills] == list(range(n))


def test_example1_deterministic():
    assert run_example1(200, seed=9).fills == run_example1(200, seed=9).fills


def test_example1_classification_agrees_with_fill_rules():
    log = run_example1(300, walk_p=0.3, seed=4)
    fills = log.fills
    # price path per side is recoverable from consecutive same-side fills
    by_side = {Side.BID: [], Side.ASK: []}
    for f in fills:
        by_side[f.side].append(f)
    for side, side_fills in by_side.items():
        for a, b in zip(side_fills, side_fills[1:]):
            if b.t_index == a.t_index + 1:
                assert a.kind is classify_fill(side, a.price, b.price)


def test_ladder_walkthrough_replay():
    # offset 4 ticks around an 81.87/81.88 market: rest buy 81.86, sell 81.90;
    # three trade-throughs then a repost fill at a previously-filled rung
    bids = [81.87, 81.85, 81.81, 81.86, 81.81]
    asks = [81.88, 81.86, 81.82, 81.87, 81.82]
    expected = [
        FillEvent(0, Side.BID, 81.86, FillKind.ADVERSE),
        FillEvent(1, Side.BID, 81.82, FillKind.ADVERSE),
        FillEvent(2, Side.ASK, 81.86, FillKind.ADVERSE),
        FillEvent(3, Side.BID, 81.82, FillKind.ADVERSE),
    ]
    for seed in (0, 99):
        log = run_basic_posting(_series(bids, asks), offset_ticks=4, tick=0.01, seed=seed)
        assert log.fills == expected


def test_ladder_reposts_far_side_at_filled_rung():
    # after two buy fills the sell side repopulates at the first filled rung
    bids = [81.87, 81.85, 81.81, 81.92]
    asks = [81.88, 81.86, 81.82, 81.93]
    log = run_basic_posting(_series(bids, asks), offset_ticks=4, tick=0.01, seed=0)
    ask_fills = [f for f in log.fills if f.side is Side.ASK]
    # price recovering through 81.86 and 81.90 lifts both resting sells
    assert {f.price for f in ask_fills} == {81.86, 81.90}


def test_constant_series_has_no_adverse_fills():
    series = _series([100.0] * 50, [100.01] * 50)
    for offset in (1, 2, 4):
        log = run_basic_posting(series, offset_ticks=offset, tick=0.01, seed=1)
        assert all(f.kind is FillKind.NON_ADVERSE for f in log.fills)


def test_queue_initialized_from_touch_size_and_consumed():
    # order rests at the touch with 3 lots ahead; one lot trades per step
    # (mo_prob = 1), so the strict-exhaustion fill lands at step 3
    series = _series([100.0] * 10, [100.01] * 10, bid_sz=3.0)
    log = run_basic_posting(series, offset_ticks=1, tick=0.01, seed=2, mo_prob=1.0)
    bid_fills = [f for f in log.fills if f.side is Side.BID]
    assert bid_fills
    assert bid_fills[0] == FillEvent(3, Side.BID, 100.0, FillKind.NON_ADVERSE)


def test_away_orders_use_default_queue():
    # buy placed one tick below the touch (queue = default, not level-1
    # size); the bid then drifts onto it without trading through, and the
    # strict-exhaustion fill lands after default_queue + 1 consuming steps
    bids = [100.0] + [99.99] * 9
    asks = [100.01] + [100.0] * 9
    series = _series(bids, asks, bid_sz=3.0)
    log = run_basic_posting(series, offset_ticks=3, tick=0.01, seed=2,
                            mo_prob=1.0, default_queue=5.0)
    bid_fills = [f for f in log.fills if f.side is Side.BID]
    assert bid_fills[0] == FillEvent(6, Side.BID, 99.99, FillKind.NON_ADVERSE)


def test_presets_match_contract_spacings():
    assert OFFSET_TICKS_PRESETS == {"ES": 4, "CL": 4, "NQ": 16, "ZN": 1}


def test_every_contract_has_its_published_tick():
    assert TICK_PRESETS == {"ES": 0.25, "CL": 0.01, "NQ": 0.25, "ZN": 0.015625}
    assert TICK_PRESETS.keys() == OFFSET_TICKS_PRESETS.keys()


def test_empty_series_rejected():
    with pytest.raises(EmptySeriesError):
        run_basic_posting(_series([], []), offset_ticks=4, tick=0.01)


def test_random_walk_keeps_ladder_disciplined():
    # the run itself asserts bid rung < ask rung at every step
    from mmsim.market_data import synthetic_quotes
    from mmsim.params import TICK_PRESETS, default_params
    from dataclasses import replace

    p = replace(default_params(), delta=0.02)
    series = synthetic_quotes(p, 3000, seed=6, tick=0.01)
    log = run_basic_posting(series, offset_ticks=2, tick=0.01, seed=6)
    summary = fill_type_table(log)
    assert summary.total == summary.adverse + summary.non_adverse
    assert summary.total > 0


def test_ladder_kinds_agree_with_classification_rule():
    # every ladder fill, trade-through or queue, must classify exactly as
    # the quote-move rule applied at its own price level
    from mmsim.market_data import synthetic_quotes
    from mmsim.params import TICK_PRESETS, default_params
    from dataclasses import replace

    p = replace(default_params(), delta=0.02)
    series = synthetic_quotes(p, 4000, seed=11, tick=0.01)
    log = run_basic_posting(series, offset_ticks=1, tick=0.01, seed=11, mo_prob=0.6)
    assert log.fills
    for f in log.fills:
        nxt = series.bid[f.t_index + 1] if f.side is Side.BID else series.ask[f.t_index + 1]
        assert f.kind is classify_fill(f.side, f.price, float(nxt))


def test_summary_csv_format(tmp_path):
    log = run_example1(100, seed=1)
    path = tmp_path / "summary.csv"
    write_fill_summary_csv([("2024/04/23", "CL", fill_type_table(log))], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "date,contract,total,adverse,non_adverse"
    assert lines[1].startswith("2024/04/23,CL,100,")


def _reference_posting(series, offset_ticks=4, tick=0.01, seed=0, default_queue=10.0,
                       mo_prob=0.44):
    """The ladder stepped at every sample, every resting rung visited in
    order at each step: the plain statement of the rules."""
    gen = RngStream(seed=seed).generator()
    bid_t = [round(b / tick) for b in series.bid]
    ask_t = [round(a / tick) for a in series.ask]

    def price(ticks):
        return round_to_tick(ticks * tick, tick)

    buys: dict[int, RestingOrder] = {}
    sells: dict[int, RestingOrder] = {}

    def queue_at_placement(side, ticks, i):
        if side is Side.BID:
            if ticks == bid_t[i]:
                return float(series.level1_bid_sz[i])
            if ticks > bid_t[i]:
                return 0.0
        else:
            if ticks == ask_t[i]:
                return float(series.level1_ask_sz[i])
            if ticks < ask_t[i]:
                return 0.0
        return default_queue

    def place(side, ticks, i):
        book = buys if side is Side.BID else sells
        if ticks in book:
            return
        if side is Side.BID:
            if sells and ticks >= min(sells):
                return
            if ticks >= ask_t[i]:
                return
        else:
            if buys and ticks <= max(buys):
                return
            if ticks <= bid_t[i]:
                return
        book[ticks] = RestingOrder(side, price(ticks), queue_at_placement(side, ticks, i))

    spread_t = ask_t[0] - bid_t[0]
    below = max(0, (offset_ticks - spread_t) // 2)
    first_buy = bid_t[0] - below
    place(Side.BID, first_buy, 0)
    place(Side.ASK, first_buy + offset_ticks, 0)

    fills = []
    for i in range(len(series) - 1):
        mo_sell = gen.random() < mo_prob
        mo_buy = gen.random() < mo_prob

        filled = []
        for ticks in sorted(buys, reverse=True):
            order = buys[ticks]
            swept = (bid_t[i] >= ticks > bid_t[i + 1]) or ask_t[i + 1] <= ticks
            if swept:
                fills.append(FillEvent(i, Side.BID, order.price, FillKind.ADVERSE))
                filled.append((Side.BID, ticks))
            elif ticks >= bid_t[i] and mo_sell:
                done, buys[ticks] = queue_fill_check(order, 1.0)
                if done:
                    kind = classify_fill(Side.BID, order.price, price(bid_t[i + 1]))
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
                    kind = classify_fill(Side.ASK, order.price, price(ask_t[i + 1]))
                    fills.append(FillEvent(i, Side.ASK, order.price, kind))
                    filled.append((Side.ASK, ticks))

        for side, ticks in filled:
            del (buys if side is Side.BID else sells)[ticks]
        for side, ticks in filled:
            if side is Side.BID:
                place(Side.BID, ticks - offset_ticks, i + 1)
                place(Side.ASK, ticks + offset_ticks, i + 1)
            else:
                place(Side.ASK, ticks + offset_ticks, i + 1)
                place(Side.BID, ticks - offset_ticks, i + 1)

        assert not (buys and sells and max(buys) >= min(sells))
    return fills


_SIZES = st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 7.0, 10.0, 125.0, 1e9, 2.0**60])


@st.composite
def _tick_series(draw):
    """Flat stretches joined by jumps of up to 5 ticks, 1-3 tick spreads."""
    stretches = draw(st.lists(
        st.tuples(st.integers(1, 12), st.integers(-5, 5), st.integers(1, 3), _SIZES, _SIZES),
        min_size=1, max_size=25,
    ))
    bids, asks, bid_sz, ask_sz = [], [], [], []
    level = 10_000
    for length, jump, spread, b_sz, a_sz in stretches:
        level += jump
        bids += [level] * length
        asks += [level + spread] * length
        bid_sz += [b_sz] * length
        ask_sz += [a_sz] * length
    return PriceSeries(
        t0=0, dt=1.0,
        bid=np.array(bids) * 0.01, ask=np.array(asks) * 0.01,
        level1_bid_sz=np.array(bid_sz), level1_ask_sz=np.array(ask_sz),
    )


@settings(max_examples=250, deadline=None)
@given(
    series=_tick_series(),
    offset=st.integers(1, 16),
    mo_prob=st.sampled_from([0.0, 0.44, 1.0]),
    default_queue=st.sampled_from([0.0, 2.5, 10.0]),
    seed=st.integers(0, 3),
)
def test_ladder_matches_the_every_step_reference(series, offset, mo_prob, default_queue, seed):
    kwargs = dict(offset_ticks=offset, tick=0.01, seed=seed, default_queue=default_queue,
                  mo_prob=mo_prob)
    assert run_basic_posting(series, **kwargs).fills == _reference_posting(series, **kwargs)


def test_ladder_matches_the_reference_on_a_random_walk():
    # long enough for the search for active steps to cross many spans of
    # SEARCH_STEPS, which the short property-test series rarely do
    from mmsim.market_data import synthetic_quotes
    from mmsim.params import TICK_PRESETS, default_params
    from dataclasses import replace

    series = synthetic_quotes(replace(default_params(), delta=0.02), 3000, seed=4, tick=0.01)
    assert len(series) > 10 * SEARCH_STEPS
    for offset in (1, 4, 2):
        kwargs = dict(offset_ticks=offset, tick=0.01, seed=4)
        want = _reference_posting(series, **kwargs)
        assert want
        assert run_basic_posting(series, **kwargs).fills == want


def test_rung_waits_on_a_125_lot_queue():
    # bid rung at the touch behind 125 lots: it fills on the 126th sell
    # market order; the ask rung behind 40 lots on the 41st buy order
    n = 400
    series = _series([100.0] * n, [100.01] * n, bid_sz=125.0, ask_sz=40.0)
    log = run_basic_posting(series, offset_ticks=1, tick=0.01, seed=5)
    assert log.fills == [
        FillEvent(86, Side.ASK, 100.01, FillKind.NON_ADVERSE),
        FillEvent(284, Side.BID, 100.0, FillKind.NON_ADVERSE),
        FillEvent(374, Side.ASK, 100.01, FillKind.NON_ADVERSE),
    ]
    u = RngStream(seed=5).generator().random((n - 1, 2))
    assert np.flatnonzero(u[:, 0] < 0.44)[125] == 284
    assert np.flatnonzero(u[:, 1] < 0.44)[40] == 86


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _recorded_book(n=900, seed=8):
    """Book events 0.7 s apart: level 1 only, a wandering touch and small
    or 125-lot queues."""
    rng = np.random.default_rng(seed)
    bid = 10_000 + np.cumsum(rng.choice([-2, -1, 0, 0, 0, 0, 0, 1, 1, 2], n))
    ask = bid + rng.integers(1, 3, n)
    cells = np.full((n, len(LOB_COLUMNS)), np.nan)
    cells[:, LOB_COLUMNS.index("bid_px_1")] = np.round(bid * 0.01, 2)
    cells[:, LOB_COLUMNS.index("ask_px_1")] = np.round(ask * 0.01, 2)
    for name in ("bid_sz_1", "ask_sz_1"):
        cells[:, LOB_COLUMNS.index(name)] = rng.choice([0.0, 1.0, 2.0, 3.0, 5.0, 125.0], n)
    ts = 1_700_000_000 * 10**9 + np.arange(n, dtype=np.int64) * 700_000_000
    return LOBBook(ts=ts, cells=cells)


@pytest.mark.parametrize("args, fills_sha, summary_sha", [
    (["--steps", "5000", "--seed", "2"],
     "324b0905392b04bb360e300d892479c5e9d3a2a6b0e9c1a76743a1f0b9f321eb",
     "20c7e744c1cfd79a5fcec7bc2a9ad64ccc2991a1e5d7498bf2e40f73c075dda7"),
    (["--data", "lob.csv", "--contract", "ZN", "--tick", "0.01", "--seed", "3",
      "--date", "2024-04-23"],
     "8e7d832c5211bf5ab585fac390e349b3c79211a6c21eed77b9c71626a3cce131",
     "e3a091fd932117e752f1cafaede773a28efb8170e7899a25621aa3c138437657"),
], ids=["synthetic", "recorded"])
def test_basic_post_outputs_are_pinned(tmp_path, monkeypatch, args, fills_sha, summary_sha):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lob.csv").write_text(render_lob_csv(_recorded_book()), encoding="utf-8")
    assert cli_main(["basic-post", *args, "--out", "bp"]) == 0
    assert _sha256(tmp_path / "bp" / "fills.csv") == fills_sha
    assert _sha256(tmp_path / "bp" / "summary.csv") == summary_sha


@pytest.mark.parametrize("tick", [0.0, math.nan, -0.01, math.inf])
def test_tick_must_be_finite_and_positive(tick):
    series = _series([81.87, 81.87], [81.88, 81.88])
    with pytest.raises(ValueError, match="tick"):
        run_basic_posting(series, offset_ticks=4, tick=tick)
    with pytest.raises(ValueError, match="tick"):
        synthetic_quotes(default_params(), 10, seed=1, tick=tick)


@pytest.mark.parametrize("tick", ["0", "nan", "-0.01"])
@pytest.mark.parametrize("data", [False, True], ids=["synthetic", "recorded"])
def test_cli_basic_post_rejects_a_bad_tick(tmp_path, monkeypatch, capsys, tick, data):
    monkeypatch.chdir(tmp_path)
    args = ["basic-post", f"--tick={tick}", "--out", "bp"]
    if data:
        (tmp_path / "lob.csv").write_text(render_lob_csv(_recorded_book()), encoding="utf-8")
        args += ["--data", "lob.csv"]
    else:
        args += ["--steps", "50"]
    assert cli_main(args) == 1
    assert "tick must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("contract", ["ES", "NQ", "ZN"])
def test_cli_basic_post_steps_on_the_contract_tick(tmp_path, monkeypatch, contract):
    """The recorded book's 0.01 tick counts, put on the contract's tick: the
    ladder fills on that grid without --tick, as with it given."""
    monkeypatch.chdir(tmp_path)
    tick = TICK_PRESETS[contract]
    book = _recorded_book()
    cells = book.cells.copy()
    for name in ("bid_px_1", "ask_px_1"):
        column = LOB_COLUMNS.index(name)
        cells[:, column] = np.rint(cells[:, column] / 0.01) * tick
    (tmp_path / "lob.csv").write_text(render_lob_csv(LOBBook(ts=book.ts, cells=cells)),
                                      encoding="utf-8")
    run = ["basic-post", "--data", "lob.csv", "--contract", contract]
    assert cli_main([*run, "--out", "preset"]) == 0
    assert cli_main([*run, "--tick", repr(tick), "--out", "given"]) == 0
    fills = (tmp_path / "preset" / "fills.csv").read_text(encoding="utf-8")
    assert fills == (tmp_path / "given" / "fills.csv").read_text(encoding="utf-8")
    prices = np.array([float(row.split(",")[2]) for row in fills.splitlines()[1:]])
    assert prices.size and np.array_equal(prices / tick, np.rint(prices / tick))


def test_quotes_of_2_to_the_53_ticks_are_rejected():
    # on a tick of 2**-50, 2**53 ticks are 8.0: sample 2's bid reaches it
    tick = 2.0**-50
    series = _series([1.0, 7.0, -8.0], [2.0, 7.5, -7.0])
    want = r"sample 2: bid -8\.0 or ask -7\.0 is 2\*\*53 ticks of 8\.8"
    with pytest.raises(ValueError, match=want):
        run_basic_posting(series, offset_ticks=4, tick=tick)
    run_basic_posting(_series([1.0, 7.0], [2.0, 7.5]), offset_ticks=4, tick=tick)
    with pytest.raises(ValueError, match=r"sample 0: .* 2\*\*53 ticks of 1e-15"):
        synthetic_quotes(default_params(), 10, seed=1, tick=1e-15)


@pytest.mark.parametrize("tick", ["1e-300", "1e-15"])
@pytest.mark.parametrize("data", [False, True], ids=["synthetic", "recorded"])
def test_cli_basic_post_rejects_a_tick_too_small_for_whole_ticks(
    tmp_path, monkeypatch, capsys, tick, data
):
    monkeypatch.chdir(tmp_path)
    args = ["basic-post", "--tick", tick, "--out", "bp"]
    if data:
        (tmp_path / "lob.csv").write_text(render_lob_csv(_recorded_book()), encoding="utf-8")
        args += ["--data", "lob.csv"]
    else:
        args += ["--steps", "50"]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValueError: sample 0: bid ")
    assert f"is 2**53 ticks of {tick} or more" in err
    assert not (tmp_path / "bp").exists()


def test_quotes_off_the_tick_grid_are_rejected():
    series = _series([81.87, 81.87, 81.875], [81.88, 81.88, 81.89])
    with pytest.raises(ValueError, match="sample 2: bid 81.875 or ask 81.89 is off the tick grid"):
        run_basic_posting(series, offset_ticks=4, tick=0.01)
    # the same quotes on a 0.005 grid, and a rounding error far below 1e-6 tick
    run_basic_posting(series, offset_ticks=4, tick=0.005)
    run_basic_posting(_series([0.1 + 0.2, 0.3], [0.4, 0.4]), offset_ticks=1, tick=0.1)


def test_cli_basic_post_rejects_quotes_off_the_tick_grid(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lob.csv").write_text(render_lob_csv(_recorded_book()), encoding="utf-8")
    assert cli_main(["basic-post", "--data", "lob.csv", "--tick", "0.25", "--out", "bp"]) == 1
    assert "off the tick grid of 0.25" in capsys.readouterr().err
    assert not (tmp_path / "bp").exists()


def test_cli_basic_post_rejects_a_book_inside_one_second(tmp_path, monkeypatch, capsys):
    # records at 0.2 s and 0.7 s: the first whole second after the first
    # record comes after the last, so there is no boundary to sample at
    monkeypatch.chdir(tmp_path)
    book = LOBBook(ts=np.array([200_000_000, 700_000_000]), cells=_recorded_book(n=2).cells)
    (tmp_path / "lob.csv").write_text(render_lob_csv(book), encoding="utf-8")
    assert cli_main(["basic-post", "--data", "lob.csv", "--out", "bp"]) == 1
    err = capsys.readouterr().err
    assert "records from ts 200000000 to 700000000 (ns) span no whole-second boundary" in err
    assert not (tmp_path / "bp").exists()

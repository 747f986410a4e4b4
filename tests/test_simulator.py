import hashlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim import dynamics, simulator
from mmsim.cli import cli_main
from mmsim.dynamics import BatchWindow, RngStream
from mmsim.fills import (
    EnvMode,
    EnvVariant,
    FillColumns,
    FillCounters,
    FillEvent,
    FillKind,
    Side,
    read_fill_log,
    write_fill_log,
)
from mmsim.market_data import PriceSeries, synthetic_quotes
from mmsim.params import default_grid, default_params
from mmsim.reporting import read_batch_wealth_csv
from mmsim.simulator import (
    InventoryBoundBreachError,
    SeriesTooShortError,
    _NodeGrid,
    run_batch,
    run_simulation,
    terminal_wealth,
    write_snapshot_csv,
)
from mmsim.solver import (
    PolicyShapeMismatchError,
    PostingPolicy,
    alpha_grid,
    export_policy_csv,
    extract_policy,
    load_policy_csv,
    solve_dpe,
)
from mmsim.table import read_cells
from backtest_oracle import backtest_value
from scalar_reference import draw_window_events, fill_events, update_cash, update_inventory
from scalar_reference import run_simulation as run_scalar


@pytest.fixture(scope="module")
def solved():
    params = default_params()
    surface = solve_dpe(params, default_grid())
    return params, extract_policy(surface, params)


def _bid(i=0, px=99.995):
    return FillEvent(i, Side.BID, px, FillKind.NON_ADVERSE)


def _ask(i=0, px=100.005):
    return FillEvent(i, Side.ASK, px, FillKind.NON_ADVERSE)


def test_update_inventory_cases():
    assert update_inventory(0, [_bid()], 7) == 1
    assert update_inventory(3, [_bid(), _ask()], 7) == 3
    with pytest.raises(InventoryBoundBreachError):
        update_inventory(7, [_bid()], 7)
    with pytest.raises(InventoryBoundBreachError):
        update_inventory(-7, [_ask()], 7)


def test_update_cash_cases():
    assert update_cash(0.0, [_ask()]) == 100.005
    assert update_cash(0.0, [_bid()]) == -99.995
    captured = update_cash(0.0, [_ask(), _bid()])
    assert captured == pytest.approx(0.01, rel=1e-9)


def test_terminal_wealth_cases():
    p = default_params()
    assert terminal_wealth(3.5, 0, 100.0, p) == 3.5
    assert terminal_wealth(10.0, 2, 100.0, p) == pytest.approx(209.95, rel=1e-12)
    # two lots bought back at the ask: 10 - 2 * 100.005 - 0.01 * 4 = -190.05
    expected = 10.0 - 2 * (100.0 + p.delta / 2) - p.varphi * 4
    assert expected == pytest.approx(-190.05, rel=1e-12)
    assert terminal_wealth(10.0, -2, 100.0, p) == pytest.approx(expected, rel=1e-12)


def _constant_series(n, bid=99.995, ask=100.005):
    return PriceSeries(
        t0=0, dt=1.0,
        bid=np.full(n, bid), ask=np.full(n, ask),
        level1_bid_sz=np.full(n, 10.0), level1_ask_sz=np.full(n, 10.0),
    )


def test_no_events_no_wealth(solved):
    params, policy = solved
    quiet = replace(params, lambda_plus=0.0, lambda_minus=0.0)
    series = _constant_series(quiet.n_dt + 1)
    result = run_simulation(policy, series, EnvMode.improved(quiet), quiet, BatchWindow(0, 0))
    assert len(result.fills) == 0
    assert np.all(result.wealth == 0.0)
    assert np.all(result.inventory == 0)


def test_simulation_is_deterministic(solved):
    params, policy = solved
    series = synthetic_quotes(params, params.n_dt, seed=5)
    mode = EnvMode.improved(params)
    a = run_simulation(policy, series, mode, params, BatchWindow(9, 2))
    b = run_simulation(policy, series, mode, params, BatchWindow(9, 2))
    assert np.array_equal(a.cash, b.cash)
    assert np.array_equal(a.inventory, b.inventory)
    assert np.array_equal(a.wealth, b.wealth)
    assert fill_events(a.fills) == fill_events(b.fills)
    assert a.terminal_wealth == b.terminal_wealth


def test_wealth_identity_marks_to_mid(solved):
    params, policy = solved
    series = synthetic_quotes(params, params.n_dt, seed=6)
    result = run_simulation(policy, series, EnvMode.improved(params), params, BatchWindow(1, 0))
    mid = series.mid
    for i in range(params.n_dt):
        assert result.wealth[i] == result.cash[i] + result.inventory[i] * mid[i]
    assert result.wealth[-1] == terminal_wealth(
        result.cash[-1], int(result.inventory[-1]), float(mid[params.n_dt]), params
    )


def test_accounting_replays_from_fill_log(solved):
    params, policy = solved
    series = synthetic_quotes(params, params.n_dt, seed=7)
    result = run_simulation(policy, series, EnvMode.improved(params), params, BatchWindow(2, 0))
    assert result.fills, "expected fills on this seed"

    q, c = 0, 0.0
    inventory = [0]
    cash = [0.0]
    by_step = {}
    for f in fill_events(result.fills):
        by_step.setdefault(f.t_index, []).append(f)
    for i in range(params.n_dt):
        step = by_step.get(i, [])
        q = update_inventory(q, step, params.q_max)
        c = update_cash(c, step)
        inventory.append(q)
        cash.append(c)
    assert np.array_equal(np.array(inventory), result.inventory)
    assert np.array_equal(np.array(cash), result.cash)


def test_inventory_stays_bounded_and_unposted_at_bounds(solved):
    params, policy = solved
    # crank arrival rates so inventory pushes against the bounds
    hot = replace(params, lambda_plus=5.0, lambda_minus=5.0)
    series = synthetic_quotes(hot, hot.n_dt, seed=8)
    result = run_simulation(policy, series, EnvMode.benchmark(), hot, BatchWindow(3, 0))
    assert np.abs(result.inventory).max() <= hot.q_max
    j0 = hot.q_max
    for i in range(hot.n_dt):
        if result.inventory[i] == hot.q_max:
            assert not result.posted_bid[i]
        if result.inventory[i] == -hot.q_max:
            assert not result.posted_ask[i]


def test_benchmark_fills_exactly_on_posted_arrivals(solved):
    """Recover the arrival flags from the documented draw layout, then
    check fills == posted AND arrival, side by side."""
    params, policy = solved
    series = synthetic_quotes(params, params.n_dt, seed=11)
    mode = EnvMode.benchmark()
    result = run_simulation(policy, series, mode, params, BatchWindow(4, 0))

    # window 0 is row 0 of group 0: the group's uniforms (buy arrival,
    # sell arrival, ask and bid thinning per step), then its alpha shocks
    gen = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(1, 0)))
    u = gen.random((dynamics.GROUP_WINDOWS, params.n_dt, 4))[0]
    p_arr = 1.0 - math.exp(-params.lambda_plus * params.dt)
    fills_by_step = {}
    for f in fill_events(result.fills):
        fills_by_step.setdefault((f.t_index, f.side), []).append(f)
    for i in range(params.n_dt):
        buy = u[i, 0] < p_arr
        sell = u[i, 1] < p_arr
        expect_ask = bool(result.posted_ask[i]) and buy
        expect_bid = bool(result.posted_bid[i]) and sell
        got_ask = fills_by_step.get((i, Side.ASK), [])
        got_bid = fills_by_step.get((i, Side.BID), [])
        assert len(got_ask) == int(expect_ask)
        assert len(got_bid) == int(expect_bid)
        if expect_ask:
            assert got_ask[0].kind is FillKind.NON_ADVERSE
            assert got_ask[0].price == series.ask[i]


def _constant_policy(params, nodes, post_ask: bool, post_bid: bool) -> PostingPolicy:
    shape = (params.n_dt + 1, nodes.size, 2 * params.q_max + 1)
    return PostingPolicy(
        post_ask=np.full(shape, post_ask), post_bid=np.full(shape, post_bid),
        alpha_nodes=nodes, q_nodes=np.arange(-params.q_max, params.q_max + 1),
    )


def test_window_events_do_not_depend_on_policy(solved):
    """An always-posted book in the benchmark environment fills exactly on
    the arrival flags recovered from each window's batch draws."""
    params, policy = solved
    # a bound no window can reach: inventory moves at most one lot a step
    roomy = replace(params, q_max=params.n_dt)
    always = _constant_policy(roomy, policy.alpha_nodes, True, True)
    windows = 3
    series = synthetic_quotes(roomy, windows * roomy.n_dt, seed=18)
    batch = run_batch(always, series, EnvMode.benchmark(), roomy, master_seed=19)

    p_arr = 1.0 - math.exp(-roomy.lambda_plus * roomy.dt)
    want_ask, want_bid = [], []
    for w in range(windows):
        u, _ = draw_window_events(BatchWindow(19, w), roomy.n_dt)
        want_ask += (w * roomy.n_dt + np.flatnonzero(u[:, 0] < p_arr)).tolist()
        want_bid += (w * roomy.n_dt + np.flatnonzero(u[:, 1] < p_arr)).tolist()
        window = series.window(w * roomy.n_dt, roomy.n_dt + 1)
        r = run_simulation(always, window, EnvMode.benchmark(), roomy, BatchWindow(19, w))
        events = fill_events(r.fills)
        assert [f.t_index for f in events if f.side is Side.ASK] == np.flatnonzero(
            u[:, 0] < p_arr).tolist()
        assert [f.t_index for f in events if f.side is Side.BID] == np.flatnonzero(
            u[:, 1] < p_arr).tolist()
    fills = batch.fills
    assert fills.t_index[fills.is_ask].tolist() == want_ask
    assert fills.t_index[~fills.is_ask].tolist() == want_bid
    assert not fills.is_adverse.any()


def test_nonadverse_count_matches_expectation(solved):
    params, policy = solved
    series = synthetic_quotes(params, 120 * params.n_dt, seed=12)
    mode = EnvMode.improved(params)
    p_arr = 1.0 - math.exp(-params.lambda_plus * params.dt)

    eligible = 0
    observed = 0
    for w in range(120):
        window = series.window(w * params.n_dt, params.n_dt + 1)
        r = run_simulation(policy, window, mode, params, BatchWindow(13, w))
        events = fill_events(r.fills)
        adverse_ask = {f.t_index for f in events
                       if f.side is Side.ASK and f.kind is FillKind.ADVERSE}
        adverse_bid = {f.t_index for f in events
                       if f.side is Side.BID and f.kind is FillKind.ADVERSE}
        eligible += sum(1 for i in range(params.n_dt)
                        if r.posted_ask[i] and i not in adverse_ask)
        eligible += sum(1 for i in range(params.n_dt)
                        if r.posted_bid[i] and i not in adverse_bid)
        observed += sum(1 for f in events if f.kind is FillKind.NON_ADVERSE)

    p_fill = params.rho * p_arr
    expected = eligible * p_fill
    sd = math.sqrt(eligible * p_fill * (1 - p_fill))
    assert abs(observed - expected) <= 3 * sd


@pytest.mark.parametrize("env", ["benchmark", "thinned", "improved"])
def test_backtest_recovers_its_oracle(solved, env):
    """On 2,000 windows of ``simulate``'s synthetic quotes, the backtest's
    mean objective lies within 3 SE of the oracle's value of the policy it
    runs, with alpha refined until the oracle moves by under 0.1 SE."""
    params, policy = solved
    mode = {"benchmark": EnvMode.benchmark(),
            "thinned": EnvMode(EnvVariant.BENCHMARK, params.rho),
            "improved": EnvMode.improved(params)}[env]
    series = synthetic_quotes(params, 2000 * params.n_dt, RngStream(seed=7, stream_id=10_000))
    objectives = run_batch(policy, series, mode, params, master_seed=7).objectives
    se = objectives.std(ddof=1) / math.sqrt(objectives.size)
    refine, value = 3, backtest_value(policy, params, mode, 3)
    while True:
        finer = backtest_value(policy, params, mode, 2 * refine + 1)
        if abs(finer - value) < 0.1 * se:
            break
        assert refine < 50, "the oracle does not settle under refinement"
        refine, value = 2 * refine + 1, finer
    assert abs(objectives.mean() - finer) < 3 * se


def test_batch_window_count_and_short_series(solved):
    params, policy = solved
    series = synthetic_quotes(params, 240, seed=14)  # 241 samples
    batch = run_batch(policy, series, EnvMode.benchmark(), params, master_seed=5)
    assert batch.n_paths == 2
    assert batch.terminal_wealths.shape == (2,)

    short = synthetic_quotes(params, 99, seed=14)  # 100 samples
    with pytest.raises(SeriesTooShortError):
        run_batch(policy, short, EnvMode.benchmark(), params, master_seed=5)
    with pytest.raises(SeriesTooShortError):
        run_simulation(policy, short, EnvMode.benchmark(), params, BatchWindow(0, 0))
    for w in (-1, 2):
        with pytest.raises(IndexError, match=f"window {w} outside a batch of 2"):
            batch.window(w, series)


def test_batch_equals_orderless_window_runs(solved):
    params, policy = solved
    series = synthetic_quotes(params, 5 * params.n_dt, seed=15)
    mode = EnvMode.improved(params)
    batch = run_batch(policy, series, mode, params, master_seed=21)

    wealths = np.empty(5)
    for w in reversed(range(5)):
        window = series.window(w * params.n_dt, params.n_dt + 1)
        wealths[w] = run_scalar(policy, window, mode, params,
                                BatchWindow(21, w)).terminal_wealth
    assert np.array_equal(wealths, batch.terminal_wealths)


_FILL_COLUMNS = ("t_index", "event", "price")


def _assert_same_fills(got: FillColumns, want: list[FillEvent]):
    want = FillColumns.from_events(want)
    assert len(got) == len(want)
    for name in _FILL_COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _assert_same_result(got, want):
    """Two window runs agree in every field, bit for bit and in type."""
    for name in ("inventory", "cash", "wealth", "posted_bid", "posted_ask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in _FILL_COLUMNS:
        a, b = getattr(got.fills, name), getattr(want.fills, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.counters == want.counters
    for name in ("terminal_wealth", "objective"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) is np.float64 and a == b, name


@pytest.mark.parametrize("lam", [None, 5.0])
@pytest.mark.parametrize("variant", ["benchmark", "improved"])
def test_batch_matches_scalar_oracle_bit_for_bit(solved, monkeypatch, variant, lam):
    """Every window of the vectorised batch equals its scalar oracle run:
    wealth, objective, counters and fills, with no tolerance.  Each
    window's run_simulation, and the window as its batch reads it, equal
    the oracle in every field."""
    monkeypatch.setattr(simulator, "BLOCK_WINDOWS", 3)  # blocks of 3, 3 and 1 windows
    params, policy = solved
    params = replace(params, phi=1e-4)  # a running penalty, so objectives differ from wealth
    if lam is not None:
        params = replace(params, lambda_plus=lam, lambda_minus=lam)
    mode = EnvMode.benchmark() if variant == "benchmark" else EnvMode.improved(params)
    windows = 7
    series = synthetic_quotes(params, windows * params.n_dt + 5, seed=22)
    batch = run_batch(policy, series, mode, params, master_seed=23)
    assert batch.n_paths == windows

    fills, totals, at_bound = [], FillCounters(), False
    for w in range(windows):
        window = series.window(w * params.n_dt, params.n_dt + 1)
        r = run_scalar(policy, window, mode, params, BatchWindow(23, w))
        _assert_same_result(run_simulation(policy, window, mode, params, BatchWindow(23, w)), r)
        _assert_same_result(batch.window(w, series), r)
        assert batch.terminal_wealths[w] == r.terminal_wealth
        assert batch.objectives[w] == r.objective
        fills += [replace(f, t_index=f.t_index + w * params.n_dt)
                  for f in fill_events(r.fills)]
        totals += r.counters
        at_bound |= bool(np.any(np.abs(r.inventory) == params.q_max))
    assert batch.fill_totals == totals
    _assert_same_fills(batch.fills, fills)
    if lam is not None:
        assert at_bound, "hot arrival rates should drive inventory to a bound"


@pytest.mark.parametrize("variant", ["benchmark", "improved"])
def test_batch_does_not_depend_on_block_size(solved, monkeypatch, variant):
    """Blocks of 1 and 3 windows give the one default block's wealths,
    objectives and fill columns exactly.  Unequal buy and sell rates tell
    the two arrival flags apart, checked against the scalar run."""
    params, policy = solved
    params = replace(params, phi=1e-4, lambda_plus=2.0, lambda_minus=0.3)
    mode = EnvMode.benchmark() if variant == "benchmark" else EnvMode.improved(params)
    series = synthetic_quotes(params, 7 * params.n_dt, seed=29)
    whole = run_batch(policy, series, mode, params, master_seed=30)
    assert whole.fills.t_index.size > 0
    for w in range(7):
        window = series.window(w * params.n_dt, params.n_dt + 1)
        r = run_scalar(policy, window, mode, params, BatchWindow(30, w))
        assert (whole.terminal_wealths[w], whole.objectives[w]) == (r.terminal_wealth, r.objective)
    for block in (1, 3):
        monkeypatch.setattr(simulator, "BLOCK_WINDOWS", block)
        split = run_batch(policy, series, mode, params, master_seed=30)
        assert np.array_equal(split.terminal_wealths, whole.terminal_wealths)
        assert np.array_equal(split.objectives, whole.objectives)
        assert split.fill_totals == whole.fill_totals
        for name in _FILL_COLUMNS:
            assert np.array_equal(getattr(split.fills, name), getattr(whole.fills, name)), name


def _stepped_series(rng, n_samples):
    """Quotes on a 0.01 tick that stay flat for stretches, with a spread of
    one or two ticks, so either side trades through on its own."""
    moves = rng.integers(-1, 2, n_samples) * (rng.random(n_samples) < 0.3)
    bid = 100.0 + 0.01 * np.cumsum(moves)
    ask = bid + 0.01 * rng.integers(1, 3, n_samples)
    return PriceSeries(t0=0, dt=1.0, bid=bid, ask=ask,
                       level1_bid_sz=np.full(n_samples, 10.0),
                       level1_ask_sz=np.full(n_samples, 10.0))


@pytest.mark.parametrize("variant", ["benchmark", "improved"])
def test_batch_matches_scalar_on_a_random_policy(solved, monkeypatch, variant):
    """A policy that posts each side at random, never at an inventory
    bound, over quotes with flat stretches and trade-throughs: every
    window's wealth, objective and fills equal its scalar run exactly, and
    its run_simulation and the window its batch reads equal the scalar run
    in every field."""
    monkeypatch.setattr(simulator, "BLOCK_WINDOWS", 4)  # blocks of 4 and 2 windows
    monkeypatch.setattr(simulator, "NODE_CHUNK", 7)  # a short last chunk of steps
    params, policy = solved
    params = replace(params, phi=1e-4, lambda_plus=2.0, lambda_minus=1.5)
    mode = EnvMode.benchmark() if variant == "benchmark" else EnvMode.improved(params)
    rng = np.random.default_rng(37)
    post_ask = rng.random(policy.post_ask.shape) < 0.6
    post_bid = rng.random(policy.post_bid.shape) < 0.6
    post_ask[:, :, 0] = False  # no ask at -q_max
    post_bid[:, :, -1] = False  # no bid at +q_max
    random_policy = replace(policy, post_ask=post_ask, post_bid=post_bid)
    windows = 6
    series = _stepped_series(rng, windows * params.n_dt + 1)
    batch = run_batch(random_policy, series, mode, params, master_seed=38)

    fills, totals = [], FillCounters()
    for w in range(windows):
        window = series.window(w * params.n_dt, params.n_dt + 1)
        r = run_scalar(random_policy, window, mode, params, BatchWindow(38, w))
        _assert_same_result(run_simulation(random_policy, window, mode, params,
                                           BatchWindow(38, w)), r)
        _assert_same_result(batch.window(w, series), r)
        assert batch.terminal_wealths[w] == r.terminal_wealth
        assert batch.objectives[w] == r.objective
        fills += [replace(f, t_index=f.t_index + w * params.n_dt)
                  for f in fill_events(r.fills)]
        totals += r.counters
    assert batch.fill_totals == totals
    if mode.detect_adverse:
        assert totals.afa and totals.afb, "expected trade-throughs on both sides"
    _assert_same_fills(batch.fills, fills)


@pytest.mark.parametrize("variant, patched", [
    pytest.param(variant, patched, id=variant if patched else f"{variant}-64")
    for patched in (True, False) for variant in ("benchmark", "improved")])
def test_batch_matches_scalar_across_groups(solved, monkeypatch, variant, patched):
    """Patched, groups of 3 windows straddle blocks of 5 and 3 windows
    (windows 0-2 and 3-4, then 5 and 6-7), and every window is checked.
    Unpatched, 70 windows are a full group of 64 then a short one, and
    windows 60-69 are checked across the boundary.  Each checked window,
    as its batch reads it, equals its scalar run in every field."""
    if patched:
        monkeypatch.setattr(simulator, "BLOCK_WINDOWS", 5)
        monkeypatch.setattr(dynamics, "GROUP_WINDOWS", 3)
        windows, checked = 8, range(8)
    else:
        assert dynamics.GROUP_WINDOWS == 64
        windows, checked = 70, range(60, 70)
    params, policy = solved
    params = replace(params, phi=1e-4, lambda_plus=2.0, lambda_minus=0.3)
    mode = EnvMode.benchmark() if variant == "benchmark" else EnvMode.improved(params)
    n = params.n_dt
    series = synthetic_quotes(params, windows * n, seed=43)
    batch = run_batch(policy, series, mode, params, master_seed=44)
    assert batch.n_paths == windows

    fills, totals = [], FillCounters()
    for w in checked:
        window = series.window(w * n, n + 1)
        r = run_scalar(policy, window, mode, params, BatchWindow(44, w))
        _assert_same_result(batch.window(w, series), r)
        assert (batch.terminal_wealths[w], batch.objectives[w]) == (r.terminal_wealth, r.objective)
        fills += [replace(f, t_index=f.t_index + w * n) for f in fill_events(r.fills)]
        totals += r.counters
    at = np.searchsorted(batch.fills.t_index, [checked.start * n, checked.stop * n])
    got = FillColumns(**{name: getattr(batch.fills, name)[slice(*at)] for name in _FILL_COLUMNS})
    assert FillCounters.from_columns(got) == totals and len(fills) > 0
    if len(checked) == windows:
        assert batch.fill_totals == totals
    _assert_same_fills(got, fills)


def test_batch_window_does_not_depend_on_session_length(solved):
    """Windows 3 and 65, in the first and second group, give the same
    wealth, objective and fills in a session of 70 windows and of 130."""
    params, policy = solved
    mode = EnvMode.improved(params)
    n = params.n_dt
    series = synthetic_quotes(params, 130 * n, seed=50)
    long = run_batch(policy, series, mode, params, master_seed=51)
    short = run_batch(policy, series.window(0, 70 * n + 1), mode, params, master_seed=51)
    assert (short.n_paths, long.n_paths) == (70, 130)
    for w in (3, 65):
        assert short.terminal_wealths[w] == long.terminal_wealths[w]
        assert short.objectives[w] == long.objectives[w]
        mine = [batch.fills.t_index // n == w for batch in (short, long)]
        assert mine[0].any()
        for name in _FILL_COLUMNS:
            got, want = (getattr(b.fills, name)[m] for b, m in zip((short, long), mine))
            assert np.array_equal(got, want), name


# sha256 of run_batch's outputs on the session below: a change to the draw
# layout, the alpha path, the node lookup or the event order moves it
_GOLDEN_BATCH = {
    "benchmark": "f1ecbf63d5700fbf73bd4c7fd8b059feaf8f06fde5695a3c936afd8aef9c5762",
    "improved": "1d3802f46cbe89a67c30ca69e47ea6bdd2a0b80802a8a0af866b121ab39f3ca2",
}


@pytest.mark.parametrize("variant", ["benchmark", "improved"])
def test_batch_outputs_equal_their_recorded_digest(solved, variant):
    params, policy = solved
    mode = EnvMode.benchmark() if variant == "benchmark" else EnvMode.improved(params)
    series = synthetic_quotes(params, 6 * params.n_dt, RngStream(seed=45, stream_id=0))
    batch = run_batch(policy, series, mode, params, master_seed=46)
    h = hashlib.sha256()
    for column in (batch.terminal_wealths, batch.objectives, batch.fills.t_index,
                   batch.fills.is_ask, batch.fills.price, batch.fills.is_adverse):
        h.update(np.ascontiguousarray(column).tobytes())
    assert batch.fills.t_index.size > 0
    assert h.hexdigest() == _GOLDEN_BATCH[variant]


@pytest.mark.parametrize("variant", ["benchmark", "improved"])
def test_batch_peak_memory_stays_small(solved, variant):
    """Beyond its alpha path the batch keeps one byte per window step: a
    thousand windows of 120 steps peak under 3 MiB of traced memory in
    either environment."""
    params, policy = solved
    mode = EnvMode.benchmark() if variant == "benchmark" else EnvMode.improved(params)
    series = synthetic_quotes(params, 1000 * params.n_dt, seed=39)
    tracemalloc.start()
    try:
        run_batch(policy, series, mode, params, master_seed=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def _separated(values, reach):
    """Sorted distinct nodes whose every gap exceeds the float spacing at
    ``reach + max|node|``, the range ``_NodeGrid`` states."""
    nodes = np.unique(np.asarray(values, dtype=float))
    gap = np.spacing(reach + np.abs(nodes).max())
    kept = [nodes[0]]
    for x in nodes[1:]:
        if x - kept[-1] > gap:
            kept.append(x)
    return np.array(kept)


def _steps(first, cell, count):
    """``count`` evenly spaced nodes from ``first``, as a policy must hold."""
    return first + cell * np.arange(count)


_NODE_LISTS = st.one_of(
    st.builds(_steps, st.floats(-500.0, 500.0), st.floats(0.01, 50.0), st.integers(1, 40)),
    # consecutive quarter steps: every midpoint is an exact tie
    st.builds(lambda k, count: _steps(k, 1, count) * 0.25, st.integers(-2_000, 2_000),
              st.integers(1, 40)),
    st.builds(lambda k, count: _steps(k, 1, count) * 0.0016, st.integers(-25, 25),
              st.integers(1, 51)),
)


@settings(max_examples=300, deadline=None)
@given(values=_NODE_LISTS, free=st.floats(-1e3, 1e3))
def test_nearest_node_equals_argmin(values, free):
    nodes = _separated(values, 1e3)
    mids = (nodes[:-1] + nodes[1:]) / 2
    probes = np.concatenate([
        nodes, mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
        np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        [0.0, -0.0, -1e3, 1e3, free],
    ])
    want = [int(np.abs(nodes - a).argmin()) for a in probes]
    assert _NodeGrid(nodes).nearest(probes).tolist() == want
    assert [int(_NodeGrid(nodes).nearest(a)) for a in probes] == want
    # a block of steps by windows, as the batch looks nodes up
    block = probes[:probes.size // 3 * 3].reshape(3, -1)
    assert _NodeGrid(nodes).nearest(block).tolist() == np.reshape(want[:block.size], block.shape).tolist()


def _node_probes(nodes, rng):
    """The nodes, their midpoints, the neighbouring float of each either
    way, and uniform values over twice the nodes' range."""
    mids = (nodes[:-1] + nodes[1:]) / 2
    reach = 2 * np.abs(nodes).max()
    return np.concatenate([
        nodes, mids, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
        rng.uniform(-reach, reach, 500),
    ])


def _solver_node_sets(solved, tmp_path):
    params, policy = solved
    sets = [alpha_grid(replace(default_grid(), n_alpha=n)) for n in (21, 51, 101, 201)]
    export_policy_csv(policy, tmp_path / "policy.csv")
    return [*sets, load_policy_csv(tmp_path / "policy.csv").alpha_nodes]


def _no_search(*args, **kwargs):
    raise AssertionError("_NodeGrid.nearest fell back to np.searchsorted")


def test_nearest_node_takes_no_search_on_solver_grids(solved, tmp_path, monkeypatch):
    """On the solver's evenly spaced nodes, and on the nodes a policy file
    reads back as, one rounding finds every node, and the exact compare
    the rest: with the binary search made to raise, every probe still gets
    argmin's node."""
    node_sets = _solver_node_sets(solved, tmp_path)
    rng = np.random.default_rng(41)

    monkeypatch.setattr(np, "searchsorted", _no_search)
    for nodes in node_sets:
        probes = _node_probes(nodes, rng)
        want = [int(np.abs(nodes - a).argmin()) for a in probes]
        assert _NodeGrid(nodes).nearest(probes).tolist() == want
        block = probes[:probes.size // 2 * 2].reshape(2, -1)
        assert _NodeGrid(nodes).nearest(block).reshape(-1).tolist() == want[:block.size]
        assert [int(_NodeGrid(nodes).nearest(a)) for a in probes] == want


def _ulps(x, k):
    """``x`` moved by 1 to ``k`` floats either way."""
    down, up, out = x, x, []
    for _ in range(k):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(5, 200), decade=st.floats(-6.0, 3.0), free=st.floats(-1.0, 1.0))
def test_nearest_node_takes_no_search_on_drawn_solver_grids(m, decade, free):
    """The same on drawn ``alpha_grid`` grids (odd ``n_alpha`` 11-401,
    ``alpha_max`` over nine decades), probed at the nodes and midpoints,
    1-3 floats either side of each, either side of the rounding's margin
    (``0.5 - 1e-6`` cell from a node) by 1e-6 cell and by a float, and far
    outside the grid."""
    nodes = alpha_grid(replace(default_grid(), n_alpha=2 * m + 1, alpha_max=10.0 ** decade))
    cell = nodes[1] - nodes[0]
    mids = (nodes[:-1] + nodes[1:]) / 2
    edges = np.concatenate([nodes[:-1] + (0.5 - 1e-6) * cell, nodes[1:] - (0.5 - 1e-6) * cell])
    far = nodes[-1] * np.array([1.5, 10.0, 1e4, 1e6])
    probes = np.concatenate([
        nodes, mids, _ulps(nodes, 3), _ulps(mids, 3),
        edges, edges - 1e-6 * cell, edges + 1e-6 * cell, _ulps(edges, 1),
        far, -far, [free * nodes[-1], 0.0, -0.0],
    ])
    want = np.abs(nodes - probes[:, None]).argmin(axis=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "searchsorted", _no_search)
        grid = _NodeGrid(nodes)
        assert (grid.nearest(probes) == want).all()
        block = probes[:probes.size // 4 * 4].reshape(4, -1)
        assert (grid.nearest(block) == want[:block.size].reshape(4, -1)).all()
        assert [int(grid.nearest(a)) for a in probes[::97]] == want[::97].tolist()


def test_nearest_node_of_a_non_finite_alpha(solved, tmp_path):
    """+inf takes the last node and -inf the first.  NaN sorts after every
    node and compares false, so it takes the lower node of the last
    bracket, as the binary search always gave it.  Scalars and arrays
    alike, with no IndexError."""
    for nodes in [np.array([0.5]), np.array([-1.0, 2.0]), *_solver_node_sets(solved, tmp_path)]:
        n = nodes.size
        want = [n - 1, 0, max(n - 2, 0)]
        assert _NodeGrid(nodes).nearest(np.array([np.inf, -np.inf, np.nan])).tolist() == want
        assert [int(_NodeGrid(nodes).nearest(a)) for a in (np.inf, -np.inf, np.nan)] == want


@pytest.mark.parametrize("nodes", ["reversed", "repeated", "not finite", "uneven"])
def test_unordered_alpha_nodes_raise_in_batch_and_oracle(solved, nodes):
    """The node lookup rounds on finite, strictly increasing, evenly spaced
    nodes; a policy without them is rejected before any step."""
    params, policy = solved
    bad = policy.alpha_nodes.copy()
    if nodes == "reversed":
        bad = bad[::-1]
    elif nodes == "repeated":
        bad[1] = bad[0]
    elif nodes == "not finite":
        bad[-1] = np.inf  # still increasing
    else:
        bad[1] = (bad[0] + bad[1]) / 2  # still increasing
    broken = replace(policy, alpha_nodes=bad)
    series = synthetic_quotes(params, params.n_dt, seed=31)
    with pytest.raises(PolicyShapeMismatchError, match="strictly increasing"):
        run_batch(broken, series, EnvMode.benchmark(), params, master_seed=32)
    for run in (run_scalar, run_simulation):
        with pytest.raises(PolicyShapeMismatchError, match="strictly increasing"):
            run(broken, series, EnvMode.benchmark(), params, BatchWindow(32, 0))


def test_a_series_at_another_dt_is_rejected():
    """A policy solved at dt = 0.5 s over a 60 s horizon does not backtest
    a series sampled every 1 s: both entry points name both steps."""
    params = replace(default_params(), dt=0.5, horizon=60.0)
    policy = extract_policy(solve_dpe(params, default_grid()), params)
    series = synthetic_quotes(default_params(), 240, seed=3)
    message = re.escape("series sampled every 1.0 s, but the config's dt is 0.5 s")
    with pytest.raises(ValueError, match=message):
        run_batch(policy, series, EnvMode.benchmark(), params, master_seed=1)
    with pytest.raises(ValueError, match=message):
        run_simulation(policy, series, EnvMode.benchmark(), params, BatchWindow(1, 0))


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
def test_masks_that_are_not_bool_raise_in_batch_and_oracle(solved, dtype):
    """The batch ORs mask values into its posting bits, where a bid mask of
    2 would set the ask's bit; masks must be bool before any step."""
    params, policy = solved
    broken = replace(policy, post_bid=policy.post_bid.astype(dtype) * 2)
    series = synthetic_quotes(params, params.n_dt, seed=31)
    with pytest.raises(PolicyShapeMismatchError, match="masks must be bool"):
        run_batch(broken, series, EnvMode.benchmark(), params, master_seed=32)
    for run in (run_scalar, run_simulation):
        with pytest.raises(PolicyShapeMismatchError, match="masks must be bool"):
            run(broken, series, EnvMode.benchmark(), params, BatchWindow(32, 0))


def test_batch_settles_cash_in_event_order(solved):
    """An always-posted book with certain thinning fills a non-adverse ask
    in most steps where the bid is hit adversely; cash must take the
    adverse bid first, as the scalar run does, to agree in the last bit."""
    params, policy = solved
    busy = replace(params, q_max=params.n_dt, rho=1.0, lambda_plus=5.0, lambda_minus=5.0)
    always = _constant_policy(busy, policy.alpha_nodes, True, True)
    mode = EnvMode.improved(busy)
    windows = 7
    series = synthetic_quotes(busy, windows * busy.n_dt, seed=27)
    batch = run_batch(always, series, mode, busy, master_seed=28)
    for w in range(windows):
        window = series.window(w * busy.n_dt, busy.n_dt + 1)
        r = run_scalar(always, window, mode, busy, BatchWindow(28, w))
        assert batch.terminal_wealths[w] == r.terminal_wealth


def test_snapshot_rows_join_a_step_fills_in_settlement_order(solved, tmp_path):
    """The busy book above fills more than once in some steps: each
    snapshot row's ';'-joined sides and kinds are its window's fill
    columns at that step, adverse before non-adverse and ask before bid."""
    params, policy = solved
    busy = replace(params, q_max=params.n_dt, rho=1.0, lambda_plus=5.0, lambda_minus=5.0)
    always = _constant_policy(busy, policy.alpha_nodes, True, True)
    mode = EnvMode.improved(busy)
    windows = 3
    series = synthetic_quotes(busy, windows * busy.n_dt, seed=27)
    joined = 0
    for w in range(windows):
        window = series.window(w * busy.n_dt, busy.n_dt + 1)
        result = run_simulation(always, window, mode, busy, BatchWindow(28, w))
        fills = result.fills
        path = tmp_path / f"snapshot_{w}.csv"
        write_snapshot_csv(result, window, path)
        snap = read_cells(path)
        assert snap.n_rows == busy.n_dt + 1
        for i, (sides, kinds) in enumerate(zip(snap.texts("fill_side"), snap.texts("fill_kind"))):
            at = np.flatnonzero(fills.t_index == i)
            assert (np.diff(fills.event[at].astype(int)) > 0).all()
            assert sides == ";".join(["bid", "ask"][a] for a in fills.is_ask[at].tolist())
            assert kinds == ";".join(["non_adverse", "adverse"][a]
                                     for a in fills.is_adverse[at].tolist())
            joined += ";" in sides
    assert joined, "expected a step with two fills"


@pytest.mark.parametrize("post_bid", [True, False])
def test_posting_at_a_bound_raises_in_batch_and_oracle(solved, post_bid):
    """A policy that keeps posting the bid at +q_max (or the ask at -q_max)
    breaches the bound under hot rates, in both simulators."""
    params, policy = solved
    hot = replace(params, lambda_plus=5.0, lambda_minus=5.0)
    one_sided = _constant_policy(hot, policy.alpha_nodes, not post_bid, post_bid)
    series = synthetic_quotes(hot, 2 * hot.n_dt, seed=24)
    with pytest.raises(InventoryBoundBreachError):
        run_batch(one_sided, series, EnvMode.benchmark(), hot, master_seed=25)
    for run in (run_scalar, run_simulation):
        with pytest.raises(InventoryBoundBreachError):
            run(one_sided, series, EnvMode.benchmark(), hot, BatchWindow(25, 0))


def test_simulate_command_fills_equal_window_replay(solved, tmp_path):
    """`simulate` writes the batch's fill log without rerunning windows; it
    must equal the log of each window run alone, and only the requested
    snapshots are written."""
    params, policy = solved
    export_policy_csv(policy, tmp_path / "policy.csv")
    out = tmp_path / "run"
    assert cli_main(["simulate", "--policy", str(tmp_path / "policy.csv"), "--mode", "improved",
                     "--windows", "5", "--snapshots", "2", "--seed", "26",
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "batch_wealth.csv", "fills.csv", "snapshot_0.csv", "snapshot_1.csv"]

    series = synthetic_quotes(params, 5 * params.n_dt, RngStream(seed=26, stream_id=10_000))
    mode = EnvMode.improved(params)
    fills = []
    for w in range(5):
        window = series.window(w * params.n_dt, params.n_dt + 1)
        r = run_scalar(policy, window, mode, params, BatchWindow(26, w))
        fills += [replace(f, t_index=f.t_index + w * params.n_dt)
                  for f in fill_events(r.fills)]
    assert fills
    write_fill_log(FillColumns.from_events(fills), tmp_path / "replayed.csv")
    assert (out / "fills.csv").read_bytes() == (tmp_path / "replayed.csv").read_bytes()


def test_simulate_command_snapshots_agree_with_the_batch_outputs(solved, tmp_path):
    """Each snapshot's last wealth is its window's row of batch_wealth.csv,
    and its fills, priced at the snapshot's quotes, are the window's rows
    of fills.csv."""
    params, policy = solved
    export_policy_csv(policy, tmp_path / "policy.csv")
    out = tmp_path / "run"
    assert cli_main(["simulate", "--policy", str(tmp_path / "policy.csv"), "--mode", "improved",
                     "--windows", "5", "--snapshots", "3", "--seed", "49",
                     "--out", str(out)]) == 0
    wealths, _ = read_batch_wealth_csv(out / "batch_wealth.csv")
    logged = read_fill_log(out / "fills.csv")
    n = params.n_dt
    for w in range(3):
        snap = read_cells(out / f"snapshot_{w}.csv")
        assert snap.floats("wealth")[-1] == wealths[w]
        bid, ask = snap.floats("bid"), snap.floats("ask")
        fills = [
            (w * n + i, side == "ask", ask[i] if side == "ask" else bid[i], kind == "adverse")
            for i, (sides, kinds) in enumerate(zip(snap.texts("fill_side"), snap.texts("fill_kind")))
            if sides
            for side, kind in zip(sides.split(";"), kinds.split(";"))
        ]
        rows = np.flatnonzero(logged.t_index // n == w)
        assert fills == list(zip(logged.t_index[rows].tolist(), logged.is_ask[rows].tolist(),
                                 logged.price[rows].tolist(), logged.is_adverse[rows].tolist()))
        assert fills, "expected fills in every snapshot window on this seed"


def test_simulate_command_rejects_a_negative_snapshot_count(solved, tmp_path, capsys):
    _, policy = solved
    export_policy_csv(policy, tmp_path / "policy.csv")
    out = tmp_path / "run"
    assert cli_main(["simulate", "--policy", str(tmp_path / "policy.csv"), "--windows", "2",
                     "--snapshots", "-1", "--out", str(out)]) == 1
    assert "--snapshots must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("windows", ["0", "-3"])
def test_simulate_command_rejects_a_window_count_below_one(solved, tmp_path, capsys, windows):
    _, policy = solved
    export_policy_csv(policy, tmp_path / "policy.csv")
    out = tmp_path / "run"
    assert cli_main(["simulate", "--policy", str(tmp_path / "policy.csv"), "--windows", windows,
                     "--out", str(out)]) == 1
    assert f"--windows must be >= 1, got {windows}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_command_rejects_a_policy_with_shifted_inventory_nodes(solved, tmp_path, capsys):
    params, policy = solved
    shifted = replace(policy, q_nodes=policy.q_nodes + 3)  # q + 3 in every row of policy.csv
    export_policy_csv(shifted, tmp_path / "policy.csv")
    out = tmp_path / "run"
    assert cli_main(["simulate", "--policy", str(tmp_path / "policy.csv"), "--windows", "2",
                     "--out", str(out)]) == 1
    assert "PolicyShapeMismatchError" in capsys.readouterr().err
    assert not out.exists()
    series = synthetic_quotes(params, params.n_dt, seed=33)
    with pytest.raises(PolicyShapeMismatchError, match="inventory nodes"):
        run_simulation(shifted, series, EnvMode.benchmark(), params, BatchWindow(33, 0))


def test_batch_rejects_a_negative_seed(solved):
    params, policy = solved
    series = synthetic_quotes(params, 2 * params.n_dt, seed=27)
    with pytest.raises(ValueError, match="non-negative"):
        run_batch(policy, series, EnvMode.benchmark(), params, master_seed=-1)


def test_policy_shape_mismatch_detected(solved):
    params, policy = solved
    series = synthetic_quotes(params, params.n_dt, seed=16)
    shrunk = replace(params, n_dt=60, horizon=60.0)
    with pytest.raises(PolicyShapeMismatchError):
        run_simulation(policy, series, EnvMode.benchmark(), shrunk, BatchWindow(0, 0))


def test_objective_subtracts_running_penalty(solved):
    params, policy = solved
    series = synthetic_quotes(params, params.n_dt, seed=17)
    mode = EnvMode.benchmark()
    base = run_simulation(policy, series, mode, params, BatchWindow(6, 0))
    assert base.objective == base.terminal_wealth  # phi = 0

    charged = replace(params, phi=1e-4)
    r = run_simulation(policy, series, mode, charged, BatchWindow(6, 0))
    penalty = charged.phi * np.sum(r.inventory[:-1].astype(float) ** 2) * charged.dt
    assert r.objective == pytest.approx(r.terminal_wealth - penalty, rel=1e-12)

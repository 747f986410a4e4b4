"""Acceptance checks.

Each check prints one ``criterion N: PASS/FAIL`` line (run with ``-s`` to
see them all).  Criterion 2 asserts an exact bid/ask mirror symmetry of the
solved value tensor: at the symmetric defaults every term of the model,
the terminal liquidation at the touch included, is invariant under
(alpha, q) -> (-alpha, -q).
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from mmsim.basic_poster import fill_type_table, run_basic_posting, run_example1
from mmsim.cli import cli_main
from mmsim.dynamics import RngStream
from mmsim.fills import (
    EnvMode,
    FillCounters,
    FillEvent,
    FillKind,
    Side,
)
from mmsim.market_data import PriceSeries, synthetic_quotes
from mmsim.params import default_grid, default_params
from mmsim.simulator import run_simulation, terminal_wealth
from mmsim.solver import extract_policy, solve_dpe, terminal_condition
from scalar_reference import (
    counters_from_events,
    fill_events,
    step_fills,
    update_cash,
    update_inventory,
)


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d}: FAIL - {description}")
        raise
    print(f"criterion {n:2d}: PASS - {description}")


@pytest.fixture(scope="module")
def table_solution():
    params = default_params()
    surface = solve_dpe(params, default_grid())
    policy = extract_policy(surface, params)
    return params, surface, policy


def test_criterion_1_terminal_exactness():
    with criterion(1, "terminal slice equals the liquidation payoff exactly"):
        params = default_params()
        t0 = time.perf_counter()
        surface = solve_dpe(params, default_grid())
        elapsed = time.perf_counter() - t0
        expected = terminal_condition(surface.q_nodes, params)
        assert np.abs(surface.h[-1] - expected[None, :]).max() == 0.0
        assert elapsed < 1.0


def test_criterion_2_solver_symmetry(table_solution):
    with criterion(2, "bid/ask mirror symmetry of value and policy"):
        params, surface, policy = table_solution
        asym = np.abs(surface.h - surface.h[:, ::-1, ::-1]).max()
        reflected = np.array_equal(policy.post_ask, policy.post_bid[:, ::-1, ::-1])
        assert asym <= 1e-9 and reflected, (
            f"mirror asymmetry {asym:.3g} (tolerance 1e-9) of a model whose "
            "rates, jumps, alpha grid, source and terminal payoff are all "
            f"mirror-symmetric (policy reflected: {reflected})"
        )


def test_criterion_3_single_substep_oracle():
    with criterion(3, "one backward substep matches the hand-computed stencil"):
        p = replace(default_params(), dt=0.5, horizon=0.5, n_dt=1)
        grid = replace(default_grid(), substeps=1)
        surface = solve_dpe(p, grid)
        i0 = int(np.where(surface.alpha_nodes == 0.0)[0][0])
        got = surface.h[0, i0, p.q_max + 1]

        t = lambda q: -q * (p.delta / 2 + p.varphi * q)
        gain_ask = max(0.0, p.rho * (p.delta / 2 + t(0) - t(1)))
        gain_bid = max(0.0, p.rho * (p.delta / 2 + t(2) - t(1)))
        expected = t(1) + 0.5 * (p.lambda_plus * gain_ask + p.lambda_minus * gain_bid)
        assert abs(got - expected) <= 1e-12
        assert abs(got - (-0.0138334)) <= 1e-12


def test_criterion_4_policy_consistency(table_solution):
    with criterion(4, "posting indicators re-derived from the surface bit-for-bit"):
        params, surface, policy = table_solution
        nodes = surface.alpha_nodes
        half = params.delta / 2
        n_t, n_a, n_q = surface.h.shape
        up_q = nodes + params.eps_plus
        dn_q = nodes - params.eps_minus
        for k in range(n_t):
            up = np.stack([np.interp(up_q, nodes, surface.h[k, :, j]) for j in range(n_q)], axis=1)
            dn = np.stack([np.interp(dn_q, nodes, surface.h[k, :, j]) for j in range(n_q)], axis=1)
            want_ask = np.zeros((n_a, n_q), dtype=bool)
            want_bid = np.zeros((n_a, n_q), dtype=bool)
            want_ask[:, 1:] = half + params.rho * (up[:, :-1] - up[:, 1:]) > 0
            want_bid[:, :-1] = half + params.rho * (dn[:, 1:] - dn[:, :-1]) > 0
            assert np.array_equal(policy.post_ask[k], want_ask)
            assert np.array_equal(policy.post_bid[k], want_bid)


def test_criterion_5_grid_convergence():
    with criterion(5, "alpha-grid refinement shrinks the intergrid gap monotonically"):
        params = default_params()
        base = default_grid()
        h0 = solve_dpe(params, base).h
        h1 = solve_dpe(params, replace(base, n_alpha=101, substeps=8)).h
        h2 = solve_dpe(params, replace(base, n_alpha=201, substeps=32)).h
        d1 = np.abs(h1[:, ::2, :] - h0).max()
        d2 = np.abs(h2[:, ::4, :] - h1[:, ::2, :]).max()
        assert d2 < d1


def _random_market(n_steps: int, seed: int):
    gen = RngStream(seed=seed).generator()
    ticks = np.cumsum(gen.integers(-1, 2, size=n_steps + 1))
    bid = np.round(100.0 + 0.01 * ticks, 12)
    ask = np.round(bid + 0.01, 12)
    posted_bid = gen.random(n_steps) < 0.5
    posted_ask = gen.random(n_steps) < 0.5
    mo_buy = gen.random(n_steps) < 0.44
    mo_sell = gen.random(n_steps) < 0.44
    return bid, ask, posted_bid, posted_ask, mo_buy, mo_sell


def test_criterion_6_adverse_fill_guarantee():
    with criterion(6, "posted orders always fill on trade-through, never otherwise"):
        n = 100_000
        bid, ask, posted_bid, posted_ask, mo_buy, mo_sell = _random_market(n, seed=60)
        mode = EnvMode.improved(default_params())
        u = RngStream(seed=61).generator().random((n, 2))

        missing = 0
        spurious = 0
        for i in range(n):
            fills = step_fills(
                bool(posted_bid[i]), bool(posted_ask[i]),
                bid[i], ask[i], bid[i + 1], ask[i + 1],
                bool(mo_buy[i]), bool(mo_sell[i]), mode, u[i, 0], u[i, 1], t_index=i,
            )
            ask_adverse = [f for f in fills if f.side is Side.ASK and f.kind is FillKind.ADVERSE]
            bid_adverse = [f for f in fills if f.side is Side.BID and f.kind is FillKind.ADVERSE]
            if posted_ask[i] and ask[i + 1] > ask[i]:
                if len(ask_adverse) != 1 or ask_adverse[0].price != ask[i]:
                    missing += 1
            elif ask_adverse:
                spurious += 1
            if posted_bid[i] and bid[i + 1] < bid[i]:
                if len(bid_adverse) != 1 or bid_adverse[0].price != bid[i]:
                    missing += 1
            elif bid_adverse:
                spurious += 1
        assert missing == 0
        assert spurious == 0


def test_criterion_7_fill_probability_calibration():
    with criterion(7, "thinned fill frequency sits at rho and counters stay consistent"):
        rho = default_params().rho
        mode = EnvMode.improved(default_params())
        gen = RngStream(seed=70).generator()
        n = 100_000
        # the thinning the simulator runs: a posted ask, a buy arrival, no
        # trade-through, and the step's ask uniform
        hits = sum(
            bool(step_fills(False, True, 99.99, 100.0, 99.99, 100.0, True, False, mode, u, 0.0))
            for u in gen.random(n)
        )
        assert abs(hits / n - rho) <= 0.005

        # counter identity checked after every step of a simulated run
        steps = 20_000
        bid, ask, posted_bid, posted_ask, mo_buy, mo_sell = _random_market(steps, seed=71)
        u = RngStream(seed=72).generator().random((steps, 2))
        counters = FillCounters()
        tally = {"afa": 0, "nfa": 0, "afb": 0, "nfb": 0}
        for i in range(steps):
            fills = step_fills(
                bool(posted_bid[i]), bool(posted_ask[i]),
                bid[i], ask[i], bid[i + 1], ask[i + 1],
                bool(mo_buy[i]), bool(mo_sell[i]), mode, u[i, 0], u[i, 1], t_index=i,
            )
            counters = counters + counters_from_events(fills)
            for f in fills:
                key = ("a" if f.kind is FillKind.ADVERSE else "n") + (
                    "fa" if f.side is Side.ASK else "fb"
                )
                tally[key] += 1
            assert counters.n_plus == tally["afa"] + tally["nfa"]
            assert counters.n_minus == tally["afb"] + tally["nfb"]
            assert (counters.afa, counters.nfa, counters.afb, counters.nfb) == (
                tally["afa"], tally["nfa"], tally["afb"], tally["nfb"]
            )


def test_criterion_8_environment_ordering():
    with criterion(8, "improved environment underperforms the benchmark by > 2 SE"):
        t0 = time.perf_counter()
        params = default_params()
        grid = default_grid()
        p_bench = replace(params, rho=1.0)
        policy_bench = extract_policy(solve_dpe(p_bench, grid), p_bench)
        policy_improved = extract_policy(solve_dpe(params, grid), params)

        windows = 200
        series = synthetic_quotes(params, windows * params.n_dt,
                                  RngStream(seed=80, stream_id=0))
        from mmsim.simulator import run_batch

        bench = run_batch(policy_bench, series, EnvMode.benchmark(), p_bench, master_seed=81)
        improved = run_batch(policy_improved, series, EnvMode.improved(params), params,
                             master_seed=81)
        assert bench.n_paths >= 200
        mb, mi = bench.terminal_wealths.mean(), improved.terminal_wealths.mean()
        se = math.sqrt(
            bench.terminal_wealths.var(ddof=1) / bench.n_paths
            + improved.terminal_wealths.var(ddof=1) / improved.n_paths
        )
        assert mb - mi > 2 * se, f"benchmark {mb:.4f} vs improved {mi:.4f}, se {se:.4f}"
        assert improved.fill_totals.afa + improved.fill_totals.afb > 0
        assert bench.fill_totals.afa + bench.fill_totals.afb == 0
        assert time.perf_counter() - t0 < 120.0


def test_criterion_9_accounting_replay(table_solution):
    with criterion(9, "cash/inventory replay from the fill log, inventory bounded"):
        params, _, policy = table_solution
        windows = 60
        series = synthetic_quotes(params, windows * params.n_dt,
                                  RngStream(seed=90, stream_id=0))
        mode = EnvMode.improved(params)
        for w in range(windows):
            window = series.window(w * params.n_dt, params.n_dt + 1)
            r = run_simulation(policy, window, mode, params, RngStream(91, w))
            assert np.abs(r.inventory).max() <= params.q_max

            by_step: dict[int, list[FillEvent]] = {}
            for f in fill_events(r.fills):
                by_step.setdefault(f.t_index, []).append(f)
            q, c = 0, 0.0
            mid = window.mid
            for i in range(params.n_dt):
                q = update_inventory(q, by_step.get(i, []), params.q_max)
                c = update_cash(c, by_step.get(i, []))
                assert q == r.inventory[i + 1]
                assert c == r.cash[i + 1]
                if i + 1 < params.n_dt:
                    assert r.wealth[i + 1] == c + q * mid[i + 1]
            assert r.terminal_wealth == terminal_wealth(c, q, float(mid[params.n_dt]), params)


def test_criterion_10_example1_exhaustive():
    with criterion(10, "always-posted MM: one classified fill per step, all seeds"):
        for seed in range(5):
            log = run_example1(1000, walk_p=0.25, seed=seed)
            s = fill_type_table(log)
            assert s.total == 1000
            assert s.adverse + s.non_adverse == s.total
        frozen = run_example1(1000, walk_p=0.0, seed=0)
        assert fill_type_table(frozen).adverse == 0


def test_criterion_11_ladder_walkthrough():
    with criterion(11, "ladder strategy reproduces the four-step fill sequence"):
        bids = np.array([81.87, 81.85, 81.81, 81.86, 81.81])
        asks = np.array([81.88, 81.86, 81.82, 81.87, 81.82])
        series = PriceSeries(
            t0=0, dt=1.0, bid=bids, ask=asks,
            level1_bid_sz=np.full(5, 10.0), level1_ask_sz=np.full(5, 10.0),
        )
        log = run_basic_posting(series, offset_ticks=4, tick=0.01, seed=0)
        assert log.fills == [
            FillEvent(0, Side.BID, 81.86, FillKind.ADVERSE),
            FillEvent(1, Side.BID, 81.82, FillKind.ADVERSE),
            FillEvent(2, Side.ASK, 81.86, FillKind.ADVERSE),
            FillEvent(3, Side.BID, 81.82, FillKind.ADVERSE),
        ]


def _run_twice(tmp_path, name, args):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{name}_{tag}"
        assert cli_main([str(a) for a in args + ["--out", out]]) == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b and files_a
    for fname in files_a:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "every subcommand writes byte-identical files per seed"):
        solve_dir = tmp_path / "solve_a"
        _run_twice(tmp_path, "solve", ["solve", "--config", "default"])
        _run_twice(tmp_path, "simulate", [
            "simulate", "--policy", solve_dir / "policy.csv",
            "--mode", "improved", "--windows", 3, "--seed", 11,
        ])
        _run_twice(tmp_path, "report", [
            "report", "--in", tmp_path / "simulate_a", "--bins", 9,
        ])
        _run_twice(tmp_path, "basic-post", [
            "basic-post", "--contract", "CL", "--steps", 400, "--seed", 12,
        ])
        _run_twice(tmp_path, "example1", ["example1", "--steps", 300, "--seed", 7])

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.dynamics import (
    MOArrivals,
    PathState,
    RngStream,
    draw_window_events,
    pcg64_stream_states,
    round_to_tick,
    sample_mo_arrivals,
    simulate_synthetic_path,
    step_alpha,
    step_midprice,
)
from mmsim.params import default_params

NO_ARRIVALS = MOArrivals()


def test_rng_stream_replays_identically():
    a = RngStream(seed=123, stream_id=4).generator().random(100)
    b = RngStream(seed=123, stream_id=4).generator().random(100)
    assert np.array_equal(a, b)
    c = RngStream(seed=123, stream_id=5).generator().random(100)
    assert not np.array_equal(a, c)


def test_window_events_follow_the_documented_layout():
    # one (n, 4) block of uniforms, then n normal shocks, from the stream's start
    u, z = draw_window_events(RngStream(seed=31, stream_id=3), 120)
    gen = RngStream(seed=31, stream_id=3).generator()
    assert np.array_equal(u, gen.random((120, 4)))
    assert np.array_equal(z, gen.standard_normal(120))


# seeds of one to five uint32 words, ids at both ends of the spawn-key word
SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 1]), st.integers(0, 2**128))
STREAM_IDS = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, first=STREAM_IDS, count=st.integers(1, 4))
def test_stream_states_equal_numpy_seeding(seed, first, count):
    first = min(first, 2**32 - count)
    states = pcg64_stream_states(seed, first, count)
    assert len(states) == count
    bit_gen = np.random.PCG64()
    gen = np.random.Generator(bit_gen)
    for w, (state, inc) in zip(range(first, first + count), states):
        numpy_seeded = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(w,)))
        assert numpy_seeded.state["state"] == {"state": state, "inc": inc}
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        u, z = draw_window_events(gen, 6)
        want_u, want_z = draw_window_events(RngStream(seed, w), 6)
        assert np.array_equal(u, want_u) and np.array_equal(z, want_z)


def test_stream_states_of_no_ids_are_empty():
    assert pcg64_stream_states(5, 2**32, 0) == []


@pytest.mark.parametrize("first, count", [(2**32, 1), (2**32 - 1, 2), (-1, 1)])
def test_stream_ids_outside_one_word_are_rejected(first, count):
    with pytest.raises(ValueError, match="stream ids"):
        pcg64_stream_states(0, first, count)


def test_negative_seed_is_rejected_like_numpy():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match="non-negative"):
        pcg64_stream_states(-1, 0, 1)


def test_alpha_step_is_one_expression_for_scalars_and_arrays():
    p = default_params()
    gen = RngStream(seed=32).generator()
    alpha, z = gen.normal(0.0, 0.01, 64), gen.standard_normal(64)
    buy, sell = gen.random(64) < 0.5, gen.random(64) < 0.5
    stepped = step_alpha(alpha, MOArrivals(buy, sell), p.dt, p, z)
    for k in range(64):
        one = step_alpha(float(alpha[k]), MOArrivals(bool(buy[k]), bool(sell[k])), p.dt, p, z[k])
        assert one == stepped[k]


def test_zero_intensity_never_arrives():
    gen = RngStream(seed=0).generator()
    for _ in range(1000):
        assert not sample_mo_arrivals(0.0, 0.0, 1.0, gen.random(), gen.random()).buy


def test_arrival_probability_matches_thinning_formula():
    lam = 0.5833
    expected = 1.0 - math.exp(-lam)
    assert expected == pytest.approx(0.4419, abs=5e-4)
    gen = RngStream(seed=7).generator()
    n = 100_000
    hits = sum(sample_mo_arrivals(lam, lam, 1.0, u[0], u[1]).buy for u in gen.random((n, 2)))
    assert hits / n == pytest.approx(expected, abs=0.01)


def test_symmetric_intensities_give_matching_frequencies():
    lam = 0.5833
    gen = RngStream(seed=11).generator()
    n = 100_000
    buys = sells = 0
    for u_buy, u_sell in gen.random((n, 2)):
        arr = sample_mo_arrivals(lam, lam, 1.0, u_buy, u_sell)
        buys += arr.buy
        sells += arr.sell
    assert abs(buys - sells) / n < 0.01


def test_alpha_step_deterministic_cases():
    p = replace(default_params(), eta=0.0)
    z = RngStream(seed=0).generator().standard_normal(4)
    assert step_alpha(0.01, NO_ARRIVALS, 1.0, p, z[0]) == pytest.approx(0.0095, rel=1e-12)
    assert step_alpha(0.0, MOArrivals(buy=True), 1.0, p, z[1]) == pytest.approx(0.002, rel=1e-12)
    assert step_alpha(0.0, NO_ARRIVALS, 1.0, p, z[2]) == 0.0
    assert step_alpha(0.0, MOArrivals(sell=True), 1.0, p, z[3]) == pytest.approx(-0.002, rel=1e-12)


def test_midprice_step_deterministic_cases():
    p = replace(default_params(), sigma=0.0)
    gen = RngStream(seed=0).generator()
    assert step_midprice(100.0, 0.001, 1.0, p, gen) == pytest.approx(100.001, rel=1e-12)
    assert step_midprice(100.0, 0.0, 1.0, p, gen) == 100.0


def test_midprice_increment_variance():
    p = default_params()
    gen = RngStream(seed=3).generator()
    n = 100_000
    increments = np.array([step_midprice(100.0, 0.0, 1.0, p, gen) - 100.0 for _ in range(n)])
    assert increments.var() == pytest.approx(2.5e-5, rel=0.05)


def test_midprice_tick_rounding():
    p = replace(default_params(), sigma=0.0)
    gen = RngStream(seed=0).generator()
    assert step_midprice(100.0, 0.004, 1.0, p, gen, tick=0.01) == 100.0
    assert step_midprice(100.0, 0.006, 1.0, p, gen, tick=0.01) == 100.01


def test_round_to_tick_is_canonical():
    assert round_to_tick(8186 * 0.01, 0.01) == 81.86
    assert round_to_tick(81.8649, 0.01) == 81.86
    assert round_to_tick(81.8651, 0.01) == 81.87


def test_degenerate_path_is_constant():
    p = replace(default_params(), sigma=0.0, eta=0.0, lambda_plus=0.0, lambda_minus=0.0)
    path = simulate_synthetic_path(p, 50, RngStream(seed=9))
    assert np.all(path.mid == path.mid[0])
    assert np.all(path.bid == path.bid[0])
    assert np.all(path.ask == path.ask[0])


def test_path_has_fixed_spread_and_shapes():
    p = default_params()
    path = simulate_synthetic_path(p, 200, RngStream(seed=5))
    assert path.mid.shape == (201,)
    assert path.buy_arrivals.shape == (200,)
    assert np.allclose(path.ask - path.bid, p.delta, atol=1e-9)


def test_path_is_deterministic_per_stream():
    p = default_params()
    a = simulate_synthetic_path(p, 100, RngStream(seed=21, stream_id=2))
    b = simulate_synthetic_path(p, 100, RngStream(seed=21, stream_id=2))
    assert np.array_equal(a.mid, b.mid)
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.buy_arrivals, b.buy_arrivals)


def test_path_rejects_empty():
    with pytest.raises(ValueError):
        simulate_synthetic_path(default_params(), 0, RngStream(seed=0))


def test_path_state_accessor():
    path = simulate_synthetic_path(default_params(), 20, RngStream(seed=1))
    state = path.state(5)
    assert state == PathState(s=float(path.mid[5]), alpha=float(path.alpha[5]), t_index=5)
    assert math.isfinite(state.s) and math.isfinite(state.alpha)


def test_alpha_lag1_autocorrelation_matches_mean_reversion():
    p = replace(default_params(), lambda_plus=0.0, lambda_minus=0.0)
    path = simulate_synthetic_path(p, 100_000, RngStream(seed=13), tick=None)
    a = path.alpha
    corr = np.corrcoef(a[:-1], a[1:])[0, 1]
    assert corr == pytest.approx(math.exp(-p.zeta * p.dt), abs=0.02)


def test_alpha_mean_near_zero_under_symmetry():
    p = default_params()
    path = simulate_synthetic_path(p, 100_000, RngStream(seed=17), tick=None)
    a = path.alpha
    # standard error of an AR(1) sample mean: the naive one understates it
    # by sqrt((1+r)/(1-r)) at autocorrelation r
    r = math.exp(-p.zeta * p.dt)
    se = a.std(ddof=1) / math.sqrt(a.size) * math.sqrt((1 + r) / (1 - r))
    assert abs(a.mean()) < 3 * se


def test_alpha_jumps_follow_arrivals():
    p = replace(default_params(), eta=0.0, sigma=0.0)
    path = simulate_synthetic_path(p, 500, RngStream(seed=23))
    for i in range(500):
        expected = path.alpha[i] * (1 - p.zeta * p.dt)
        if path.buy_arrivals[i]:
            expected += p.eps_plus
        if path.sell_arrivals[i]:
            expected -= p.eps_minus
        assert path.alpha[i + 1] == pytest.approx(expected, abs=1e-15)

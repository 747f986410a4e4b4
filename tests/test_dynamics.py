import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.dynamics import (
    GROUP_WINDOWS,
    BatchWindow,
    RngStream,
    arrival_probabilities,
    draw_events,
    round_to_tick,
)
from mmsim.params import default_params
from scalar_reference import draw_window_events, step_alpha


def _arrivals(p, u):
    """A window's buy and sell arrival flags from its uniforms, as the
    simulator thresholds them."""
    p_buy, p_sell = arrival_probabilities(p.lambda_plus, p.lambda_minus, p.dt)
    return u[:, 0] < p_buy, u[:, 1] < p_sell


def _alpha_path(p, n_steps, rng):
    """Alpha over one window of the simulator's event stream, from 0, and
    the window's arrival flags."""
    u, z = draw_window_events(rng, n_steps)
    buy, sell = _arrivals(p, u)
    alpha = np.zeros(n_steps + 1)
    for i in range(n_steps):
        alpha[i + 1] = step_alpha(alpha[i], buy[i], sell[i], p.dt, p, z[i])
    return alpha, buy, sell


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


@pytest.mark.parametrize("window", [0, 5, 63, 64, 130])
def test_batch_window_events_are_their_row_of_the_group(window):
    # the group's own stream: uniforms for the whole group, then its
    # shocks; window w is row w % 64 of group w // 64
    u, z = draw_window_events(BatchWindow(31, window), 12)
    group, row = divmod(window, GROUP_WINDOWS)
    gen = np.random.default_rng(np.random.SeedSequence(31, spawn_key=(1, group)))
    assert np.array_equal(u, gen.random((GROUP_WINDOWS, 12, 4))[row])
    assert np.array_equal(z, gen.standard_normal((GROUP_WINDOWS, 12))[row])


@settings(max_examples=40, deadline=None)
@given(first=st.integers(0, 200), count=st.integers(1, 140))
def test_batch_draws_do_not_depend_on_the_run(first, count):
    """A run of batch windows, drawn group by group, gives each window the
    events it draws alone."""
    got_u, got_z, starts = [], [], []
    for k, u, z in draw_events(BatchWindow(7, first), count, 3):
        starts.append(k)
        got_u.append(u.copy())
        got_z.append(z)
    # one yield per group touched
    assert len(starts) == (first + count - 1) // GROUP_WINDOWS - first // GROUP_WINDOWS + 1
    got_u, got_z = np.concatenate(got_u), np.concatenate(got_z)
    assert got_u.shape == (count, 3, 4) and got_z.shape == (count, 3)
    for k in {0, count // 2, count - 1}:
        u, z = draw_window_events(BatchWindow(7, first + k), 3)
        assert np.array_equal(got_u[k], u) and np.array_equal(got_z[k], z)


def test_a_stream_draws_one_window():
    with pytest.raises(ValueError, match="one window"):
        next(draw_events(RngStream(3), 2, 5))


def test_no_group_stream_is_an_rng_stream():
    """A group's stream is keyed by two words, an RngStream's by one: no
    group of a 32,768-window session starts where any RngStream of the
    same seed with an id below 2**15 does, the CLI's quote streams 10,000
    and 20,000 among them."""
    def start(key):
        return np.random.SeedSequence(40, spawn_key=key).generate_state(4, np.uint64).tobytes()

    streams = {start((i,)) for i in range(2**15)}
    assert len(streams) == 2**15
    groups = {start((1, g)) for g in range(2**15 // GROUP_WINDOWS)}
    assert len(groups) == 2**15 // GROUP_WINDOWS
    assert not streams & groups


def test_negative_seed_is_rejected_like_numpy():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match="non-negative"):
        draw_window_events(BatchWindow(-1, 0), 1)


def test_alpha_step_is_one_expression_for_scalars_and_arrays():
    p = default_params()
    gen = RngStream(seed=32).generator()
    alpha, z = gen.normal(0.0, 0.01, 64), gen.standard_normal(64)
    buy, sell = gen.random(64) < 0.5, gen.random(64) < 0.5
    stepped = step_alpha(alpha, buy, sell, p.dt, p, z)
    for k in range(64):
        one = step_alpha(float(alpha[k]), bool(buy[k]), bool(sell[k]), p.dt, p, z[k])
        assert one == stepped[k]


def test_zero_intensity_never_arrives():
    p = replace(default_params(), lambda_plus=0.0, lambda_minus=0.0)
    u, _ = draw_window_events(RngStream(seed=0), 1000)
    buy, sell = _arrivals(p, u)
    assert not buy.any() and not sell.any()


def test_arrival_probability_matches_thinning_formula():
    lam = 0.5833
    expected = 1.0 - math.exp(-lam)
    assert expected == pytest.approx(0.4419, abs=5e-4)
    p = replace(default_params(), lambda_plus=lam, lambda_minus=lam, dt=1.0)
    n = 100_000
    u, _ = draw_window_events(RngStream(seed=7), n)
    buy, _ = _arrivals(p, u)
    assert np.count_nonzero(buy) / n == pytest.approx(expected, abs=0.01)


def test_symmetric_intensities_give_matching_frequencies():
    lam = 0.5833
    p = replace(default_params(), lambda_plus=lam, lambda_minus=lam, dt=1.0)
    n = 100_000
    u, _ = draw_window_events(RngStream(seed=11), n)
    buy, sell = _arrivals(p, u)
    assert abs(np.count_nonzero(buy) - np.count_nonzero(sell)) / n < 0.01


def test_alpha_step_deterministic_cases():
    p = replace(default_params(), eta=0.0)
    z = RngStream(seed=0).generator().standard_normal(4)
    assert step_alpha(0.01, False, False, 1.0, p, z[0]) == pytest.approx(0.0095, rel=1e-12)
    assert step_alpha(0.0, True, False, 1.0, p, z[1]) == pytest.approx(0.002, rel=1e-12)
    assert step_alpha(0.0, False, False, 1.0, p, z[2]) == 0.0
    assert step_alpha(0.0, False, True, 1.0, p, z[3]) == pytest.approx(-0.002, rel=1e-12)


def test_round_to_tick_is_canonical():
    assert round_to_tick(8186 * 0.01, 0.01) == 81.86
    assert round_to_tick(81.8649, 0.01) == 81.86
    assert round_to_tick(81.8651, 0.01) == 81.87


def test_alpha_lag1_autocorrelation_matches_mean_reversion():
    p = replace(default_params(), lambda_plus=0.0, lambda_minus=0.0)
    a, _, _ = _alpha_path(p, 100_000, RngStream(seed=13))
    corr = np.corrcoef(a[:-1], a[1:])[0, 1]
    assert corr == pytest.approx(math.exp(-p.zeta * p.dt), abs=0.02)


def test_alpha_mean_near_zero_under_symmetry():
    p = default_params()
    a, _, _ = _alpha_path(p, 100_000, RngStream(seed=17))
    # standard error of an AR(1) sample mean: the naive one understates it
    # by sqrt((1+r)/(1-r)) at autocorrelation r
    r = math.exp(-p.zeta * p.dt)
    se = a.std(ddof=1) / math.sqrt(a.size) * math.sqrt((1 + r) / (1 - r))
    assert abs(a.mean()) < 3 * se


def test_alpha_jumps_follow_arrivals():
    p = replace(default_params(), eta=0.0, sigma=0.0)
    alpha, buy, sell = _alpha_path(p, 500, RngStream(seed=23))
    for i in range(500):
        expected = alpha[i] * (1 - p.zeta * p.dt)
        if buy[i]:
            expected += p.eps_plus
        if sell[i]:
            expected -= p.eps_minus
        assert alpha[i + 1] == pytest.approx(expected, abs=1e-15)

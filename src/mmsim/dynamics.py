"""Discretized market dynamics of the simulator.

The short-term drift alpha mean-reverts, and jumps up by eps_plus on each
arriving buy market order and down by eps_minus on each sell; the
simulator steps it with Euler-Maruyama at the configured dt,

    alpha' = alpha (1 - zeta dt) + eta sqrt(dt) z
             + eps_plus 1{buy} - eps_minus 1{sell}.

Market-order arrivals are thinned to at most one per side per step with
probability 1 - exp(-lambda * dt) (:func:`arrival_probabilities`).  A
window's uniforms and alpha shocks are drawn before its first step, in the
one layout of :func:`draw_window_events`, from a named :class:`RngStream`.
The midprice is not stepped: the simulator takes it from the quote series
it runs over.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "pcg64_stream_states",
    "draw_window_events",
    "arrival_probabilities",
    "round_to_tick",
]


def round_to_tick(price: float, tick: float) -> float:
    """Snap a price to the nearest multiple of tick, canonically rounded."""
    return round(round(price / tick) * tick, 12)


@dataclass(frozen=True)
class RngStream:
    """Named random stream: identical (seed, stream_id) replays identically."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )


# numpy's SeedSequence hash constants (pool of four uint32 words)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _hashmix(value, hash_const: int, mult: int):
    """One SeedSequence hash of a uint32 word (a Python int or a uint32
    array); returns it and the advanced hash constant."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _M32
    value = value * hash_const & _M32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32)) & _M32
    return result ^ (result >> 16)


def pcg64_stream_states(seed: int, first: int, count: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``RngStream(seed, w).generator()`` for the
    stream ids ``w`` in ``first .. first + count - 1``.

    This is numpy's seeding, re-done for many ids at once.  The
    SeedSequence entropy is the seed's uint32 words, zero-padded to the
    pool size, then the one spawn-key word ``w``; so the pool after the
    seed's words is the same for every id, and only the last word's mix and
    ``generate_state(4, uint64)`` run per id, as uint32 array operations.
    ``pcg64_set_seed``'s two LCG steps then run on Python ints.  Setting a
    PCG64's ``state`` to the result positions it where numpy's own seeding
    does; ``RngStream.generator`` stays the reference.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer seed, got {seed}")
    if first < 0 or first + count > 1 << 32:
        raise ValueError(
            f"stream ids {first} .. {first + count - 1} must lie in [0, 2**32)"
        )
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))

    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    # the seed's words past the pool, then the spawn key, mix into every pool word
    ids = np.arange(first, first + count, dtype=np.uint32)
    for word in [*words[_POOL_SIZE:], ids]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)

    # generate_state(4, uint64): eight words cycled from the pool, paired
    # little-endian into seed[0], seed[1], inc[0], inc[1]
    hash_const = _INIT_B
    out = []
    for k in range(2 * _POOL_SIZE):
        value, hash_const = _hashmix(pool[k % _POOL_SIZE], hash_const, _MULT_B)
        out.append(value.astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (out[2 * k] | out[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)
    )
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        # state = 0, one LCG step, add the seed, one more step
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
        states.append((state, inc))
    return states


# columns of a window's uniforms: buy arrival, sell arrival, ask and bid thinning
WINDOW_UNIFORMS = 4


def draw_window_events(
    rng: RngStream | np.random.Generator, n_steps: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a window's random events in their fixed layout.

    Returns ``(u, z)``: ``u = gen.random((n_steps, 4))`` holds per step the
    buy-arrival, sell-arrival, ask-thinning and bid-thinning uniforms, then
    ``z = gen.standard_normal(n_steps)`` the alpha shocks.  Every uniform
    is drawn whether or not it is used, so no draw depends on the state.
    The uniforms are drawn into ``out`` when given, a C-contiguous float
    array of shape ``(n_steps, 4)``, which is then ``u``.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return gen.random((n_steps, WINDOW_UNIFORMS), out=out), gen.standard_normal(n_steps)


def arrival_probabilities(
    lambda_plus: float, lambda_minus: float, dt: float
) -> tuple[float, float]:
    """Per-step probabilities of a buy and a sell market-order arrival:
    Poisson arrivals thinned to at most one per side, 1 - exp(-lambda dt)."""
    return 1.0 - math.exp(-lambda_plus * dt), 1.0 - math.exp(-lambda_minus * dt)

"""Discretized market dynamics of the simulator.

The short-term drift alpha mean-reverts, and jumps up by eps_plus on each
arriving buy market order and down by eps_minus on each sell; the
simulator steps it with Euler-Maruyama at the configured dt,

    alpha' = alpha (1 - zeta dt) + eta sqrt(dt) z
             + eps_plus 1{buy} - eps_minus 1{sell}.

Market-order arrivals are thinned to at most one per side per step with
probability 1 - exp(-lambda * dt) (:func:`arrival_probabilities`).  A
window's uniforms and alpha shocks are drawn before its first step, in the
one layout of :func:`draw_events`: from a named :class:`RngStream` or a
generator for a window run alone, and from its group's stream for a
:class:`BatchWindow`, one of ``GROUP_WINDOWS`` windows of a batch drawn
together.  The midprice is not stepped: the simulator takes it from the
quote series it runs over.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "BatchWindow",
    "GROUP_WINDOWS",
    "draw_events",
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


# columns of a window's uniforms: buy arrival, sell arrival, ask and bid thinning
WINDOW_UNIFORMS = 4

# Windows of a batch drawn from one stream, a group: window w is row
# w % GROUP_WINDOWS of group w // GROUP_WINDOWS.
GROUP_WINDOWS = 64

# The first spawn-key word of a group's stream.  An RngStream's key is the
# one word stream_id, so no group stream is an RngStream of the same seed.
_GROUP_TAG = 1


@dataclass(frozen=True)
class BatchWindow:
    """Window ``window`` of a ``run_batch`` session seeded with ``master_seed``."""

    master_seed: int
    window: int


def _draw_rows(gen: np.random.Generator, rows: int, n_steps: int, shocks: int, out=None):
    """The one layout of the event draws, for ``rows`` windows from one
    generator: ``u = gen.random((rows, n_steps, 4))``, per window and step
    the buy-arrival, sell-arrival, ask-thinning and bid-thinning uniforms,
    then ``z = gen.standard_normal((shocks, n_steps))``, the alpha shocks of
    the first ``shocks`` windows (the leading rows of all ``rows``
    windows' shocks).  The uniforms are drawn into ``out`` when given."""
    return gen.random((rows, n_steps, WINDOW_UNIFORMS), out=out), gen.standard_normal(
        (shocks, n_steps))


def draw_events(
    rng: RngStream | np.random.Generator | BatchWindow, count: int, n_steps: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield the events of ``count`` windows from ``rng`` on, one group at
    a time, as ``(k, u, z)``: the uniforms, shape (m, n_steps, 4), and the
    shocks, shape (m, n_steps), of the windows k .. k+m-1 of the run.

    An ``RngStream`` or a generator is one window, a group of one row.  A
    ``BatchWindow`` starts a run of consecutive batch windows: each group
    they touch is drawn once, from its own stream, its uniforms always for
    all ``GROUP_WINDOWS`` rows; so a window's events depend only on
    ``(master_seed, window, n_steps)``.  The uniforms of a batch group are
    drawn into one buffer, which the next group overwrites.  Every uniform
    is drawn whether or not it is used, so no draw depends on the state.
    """
    if not isinstance(rng, BatchWindow):
        if count != 1:
            raise ValueError(f"a stream or generator draws one window, not {count}")
        gen = rng.generator() if isinstance(rng, RngStream) else rng
        yield 0, *_draw_rows(gen, 1, n_steps, 1)
        return
    uniforms = np.empty((GROUP_WINDOWS, n_steps, WINDOW_UNIFORMS))
    k = 0
    while k < count:
        group, row = divmod(rng.window + k, GROUP_WINDOWS)
        m = min(count - k, GROUP_WINDOWS - row)
        gen = np.random.default_rng(
            np.random.SeedSequence(rng.master_seed, spawn_key=(_GROUP_TAG, group)))
        u, z = _draw_rows(gen, GROUP_WINDOWS, n_steps, row + m, out=uniforms)
        yield k, u[row:row + m], z[row:]
        k += m


def arrival_probabilities(
    lambda_plus: float, lambda_minus: float, dt: float
) -> tuple[float, float]:
    """Per-step probabilities of a buy and a sell market-order arrival:
    Poisson arrivals thinned to at most one per side, 1 - exp(-lambda dt)."""
    return 1.0 - math.exp(-lambda_plus * dt), 1.0 - math.exp(-lambda_minus * dt)

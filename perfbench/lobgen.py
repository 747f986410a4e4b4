"""Seeded generator of recorded-style LOB CSV input for the pipeline workload.

The text is written here, not through ``mmsim.market_data.render_lob_csv``,
so that a change to the code under test cannot change the benchmark input.

The book has five levels per side on a 0.01 tick with a one- or two-tick
spread, and level 1 is never empty (a non-finite-quote guard must accept
it).  About 30% of events carry a trade print at the touch, so trade-driven
arrivals have data.  Event times are a Poisson stream; the first event sits
on a whole second, so resampling drops no leading boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_LEVELS = 5
HEADER = ",".join(
    ["ts"]
    + [f"bid_{kind}_{lvl}" for lvl in range(1, N_LEVELS + 1) for kind in ("px", "sz")]
    + [f"ask_{kind}_{lvl}" for lvl in range(1, N_LEVELS + 1) for kind in ("px", "sz")]
    + ["trade_px", "trade_sz"]
)

T0_NS = 1_700_000_000 * 1_000_000_000
START_TICKS = 10_000  # 100.00 on a 0.01 tick
RATE_PER_S = 2.0  # mean book events per second
MOVE_PROB = 0.15  # chance per event that the best bid moves one tick
SPREAD_FLIP_PROB = 0.2  # chance per event that the spread is redrawn
TRADE_PROB = 0.3
MAX_LEVEL_SIZE = 250
MAX_TRADE_SIZE = 10


@dataclass(frozen=True)
class LOBFile:
    text: str
    rows: int  # book events, not counting the header
    span_ns: int  # from the first event to the last


def generate(seed: int, duration_s: float) -> LOBFile:
    """LOB CSV for a session of ``duration_s`` seconds of book events."""
    rng = np.random.default_rng([seed, 0x10B])
    n_draw = int(duration_s * RATE_PER_S * 1.2) + 64
    times = np.concatenate([[0.0], np.cumsum(rng.exponential(1.0 / RATE_PER_S, n_draw))])
    times = times[times < duration_s]
    n = times.size
    ts = T0_NS + np.round(times * 1e9).astype(np.int64)

    u = rng.random(n)
    moves = np.where(u < MOVE_PROB / 2, -1, np.where(u < MOVE_PROB, 1, 0))
    moves[0] = 0
    bid1 = START_TICKS + np.cumsum(moves)
    flips = rng.random(n) < SPREAD_FLIP_PROB
    flips[0] = True
    draws = rng.integers(1, 3, n)
    # forward-fill the spread from the last event that redrew it
    spread = draws[np.maximum.accumulate(np.where(flips, np.arange(n), 0))]
    ask1 = bid1 + spread

    sizes = rng.integers(1, MAX_LEVEL_SIZE + 1, (n, 2 * N_LEVELS))
    traded = rng.random(n) < TRADE_PROB
    buyer = rng.random(n) < 0.5
    trade_px = np.where(buyer, ask1, bid1)
    trade_sz = rng.integers(1, MAX_TRADE_SIZE + 1, n)

    lo = int(bid1.min()) - N_LEVELS
    hi = int(ask1.max()) + N_LEVELS
    px_text = {t: f"{t // 100}.{t % 100:02d}" for t in range(lo, hi + 1)}
    sz_text = [str(s) for s in range(max(MAX_LEVEL_SIZE, MAX_TRADE_SIZE) + 1)]

    rows = [HEADER]
    for i in range(n):
        b, a, sz = int(bid1[i]), int(ask1[i]), sizes[i].tolist()
        cells = [str(int(ts[i]))]
        for lvl in range(N_LEVELS):
            cells += [px_text[b - lvl], sz_text[sz[lvl]]]
        for lvl in range(N_LEVELS):
            cells += [px_text[a + lvl], sz_text[sz[N_LEVELS + lvl]]]
        if traded[i]:
            cells += [px_text[int(trade_px[i])], sz_text[int(trade_sz[i])]]
        else:
            cells += ["", ""]
        rows.append(",".join(cells))
    return LOBFile("\n".join(rows) + "\n", n, int(ts[-1] - ts[0]))

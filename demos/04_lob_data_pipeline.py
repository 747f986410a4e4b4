"""From raw book events to a backtest: the recorded-data path.

Book events arrive at irregular times; the simulator wants one sample per
second.  This script fabricates a small event file in the supported CSV
layout, parses it, forward-fills onto a uniform grid, reports trade-size
statistics, and runs one strategy window on the result.

Run:  python3 demos/04_lob_data_pipeline.py
"""

from pathlib import Path

import numpy as np

from mmsim import (
    EnvMode,
    RngStream,
    default_grid,
    default_params,
    extract_policy,
    parse_lob_csv,
    resample_forward_fill,
    run_simulation,
    solve_dpe,
)
from mmsim.market_data import LOB_CSV_HEADER, render_lob_csv
from mmsim.simulator import write_snapshot_csv

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

SEC = 1_000_000_000


def fabricate_event_file(path: Path, n_events: int = 900) -> None:
    """Irregularly timed book updates with occasional trades."""
    gen = RngStream(seed=31).generator()
    lines = [",".join(LOB_CSV_HEADER)]
    ts = 0
    bid_ticks = 10_000
    for _ in range(n_events):
        ts += int(gen.exponential(0.35) * SEC) + 1
        bid_ticks += int(gen.integers(-1, 2))
        bid = round(bid_ticks * 0.01, 2)
        ask = round(bid + 0.01, 2)
        bid_sz = int(gen.integers(1, 40))
        ask_sz = int(gen.integers(1, 40))
        cells = [str(ts)]
        cells += [str(bid), str(bid_sz)] + [""] * 8
        cells += [str(ask), str(ask_sz)] + [""] * 8
        if gen.random() < 0.25:  # a quarter of events carry a trade
            side_px = bid if gen.random() < 0.5 else ask
            cells += [str(side_px), str(int(gen.integers(1, 6)))]
        else:
            cells += ["", ""]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main():
    raw = OUT / "events.csv"
    fabricate_event_file(raw)
    print(f"fabricated event file: {raw}")

    book = parse_lob_csv(raw.read_bytes())
    print(f"parsed {len(book)} events spanning "
          f"{(book.ts[-1] - book.ts[0]) / SEC:.0f} s")

    sizes = book.column("trade_sz")
    sizes = sizes[~np.isnan(sizes)]  # NaN marks an event without a trade
    print(f"trade sizes: mean {sizes.mean():.2f}, median {np.median(sizes):.0f}, "
          f"count {sizes.size}")

    params = default_params()
    series = resample_forward_fill(book, params.dt)
    print(f"resampled to {len(series)} one-second samples "
          f"(forward fill from the last event at or before each boundary)")

    # round-trip sanity: serialize and re-parse the book (NaN marks absent cells)
    again = parse_lob_csv(render_lob_csv(book).encode("utf-8"))
    assert np.array_equal(again.ts, book.ts)
    assert np.array_equal(again.cells, book.cells, equal_nan=True)

    surface = solve_dpe(params, default_grid())
    policy = extract_policy(surface, params)
    result = run_simulation(policy, series, EnvMode.improved(params), params,
                            RngStream(seed=32))
    print(f"\none {params.n_dt} s window in the improved environment:")
    print(f"  fills: {len(result.fills)}  "
          f"(adverse {result.counters.afa + result.counters.afb}, "
          f"non-adverse {result.counters.nfa + result.counters.nfb})")
    print(f"  terminal wealth: {result.terminal_wealth:+.4f}")
    print(f"  inventory range: [{result.inventory.min()}, {result.inventory.max()}]")
    write_snapshot_csv(result, series, OUT / "window_snapshot.csv")
    print(f"  per-step snapshot written to {OUT / 'window_snapshot.csv'}")


if __name__ == "__main__":
    main()

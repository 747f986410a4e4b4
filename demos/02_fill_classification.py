"""How resting orders actually fill: picked off vs. earned.

A resting limit order fills in one of two ways.  Either the price trades
through it (the fill is guaranteed by exchange mechanics, and the position
is immediately marked at a loss: an adverse fill), or an arriving market
order executes it at an unchanged or improving price (non-adverse).

Two small experiments make the distinction concrete:

* an always-posted market maker whose orders sit at the front of the queue,
  so one fill happens every step: how many of those turn out adverse;
* a passive ladder strategy resting orders a few ticks off the market,
  reposting one rung further away after each fill: nearly everything it
  receives is a trade-through.

Run:  python3 demos/02_fill_classification.py
"""

from pathlib import Path

from mmsim import default_params, run_basic_posting, run_example1, synthetic_quotes
from mmsim.basic_poster import OFFSET_TICKS_PRESETS, fill_type_table
from mmsim.fills import FillColumns, write_fill_log

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)


def main():
    print("always-posted market maker, certain fills, 5000 steps")
    print(f"{'walk move prob':>16} {'total':>7} {'adverse':>8} {'share':>7}")
    for walk_p in (0.0, 0.1, 0.25, 0.4):
        log = run_example1(5000, walk_p=walk_p, seed=1)
        s = fill_type_table(log)
        share = s.adverse / s.total if s.total else 0.0
        print(f"{walk_p:>16.2f} {s.total:>7} {s.adverse:>8} {share:>7.1%}")
    print("a livelier walk turns more fills adverse;"
          " frozen prices cannot pick anyone off\n")

    from dataclasses import replace

    params = replace(default_params(), delta=0.02)  # two-tick spread
    series = synthetic_quotes(params, 20_000, seed=2, tick=0.01)
    print("ladder strategy on the same kind of walk, 20000 steps")
    print(f"{'ladder offset':>16} {'total':>7} {'adverse':>8} {'non-adverse':>12}")
    for contract in ("ZN", "ES", "NQ"):
        offset = OFFSET_TICKS_PRESETS[contract]
        log = run_basic_posting(series, offset_ticks=offset, tick=0.01, seed=3)
        s = fill_type_table(log)
        print(f"{contract + f' ({offset}t)':>16} {s.total:>7} {s.adverse:>8} {s.non_adverse:>12}")
        if contract == "ES":
            write_fill_log(FillColumns.from_events(log.fills), OUT / "ladder_fills.csv")
    print("\nresting away from the market, the overwhelming share of fills is")
    print("adverse: the market reaches a resting order mostly by trading")
    print(f"through it.  ES ladder fill log written to {OUT / 'ladder_fills.csv'}")


if __name__ == "__main__":
    main()

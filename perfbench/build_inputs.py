"""One set-up of a benchmark run, timed from outside as a whole child process.

It starts an interpreter, imports mmsim and runs the program's set-up for the
workload, as a user of the package would before the timed work: the
backtest's two solves and quote session, the fine solve's config.  The
pipeline's set-up is the interpreter and the import alone; its LOB file is
the benchmark's own input, written once and not timed.

    python3 perfbench/build_inputs.py --workload backtest --seed 1 --dir DIR [--tiny]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import mmsim  # noqa: F401  # importing the package is part of every set-up
from workloads import FULL, TINY, WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="directory for written inputs")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    sizes = TINY if args.tiny else FULL
    WORKLOADS[args.workload](args.seed, sizes, Path(args.dir)).build_inputs()


if __name__ == "__main__":
    main()

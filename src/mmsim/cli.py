"""Command-line pipeline.

    mmsim solve      --config default --out out/
    mmsim simulate   --policy out/policy.csv --mode improved --out run/ [--data lob.csv]
    mmsim report     --in run/ --out run/
    mmsim basic-post --contract CL --steps 5000 --out bp/
    mmsim example1   --steps 1000 --seed 7 --out e1/

Every output file is a deterministic function of the inputs and --seed.
Exit codes: 0 success, 1 validation/parameter error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import basic_poster, fills, reporting
from .fills import EnvMode, FillColumns, write_fill_log
from .market_data import parse_lob_csv, resample_forward_fill, synthetic_quotes
from .params import MarketParams, SolverGrid, load_config
from .simulator import (
    PolicyShapeMismatchError,
    run_batch,
    run_simulation,
    write_batch_wealth_csv,
    write_snapshot_csv,
)
from .solver import (
    UnstableSchemeError,
    export_policy_csv,
    export_surface_csv,
    extract_policy,
    load_policy_csv,
    solve_dpe,
)
from .dynamics import RngStream

# every other validation error of the package subclasses ValueError
_VALIDATION_ERRORS = (ValueError, UnstableSchemeError)


def _load_params(config: str | None) -> tuple[MarketParams, SolverGrid]:
    """The config file's parameters; the built-in values for ``default`` or none."""
    text = "" if config in (None, "default") else Path(config).read_text(encoding="utf-8")
    return load_config(text)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_solve(args) -> int:
    params, grid = _load_params(args.config)
    surface = solve_dpe(params, grid)
    policy = extract_policy(surface, params)
    out = _out_dir(args)
    export_surface_csv(surface, policy, out / "surface.csv")
    export_policy_csv(policy, out / "policy.csv")
    print(f"solved {surface.h.shape} surface -> {out / 'surface.csv'}")
    return 0


def _recorded_series(path, params: MarketParams):
    """The LOB CSV at ``path`` resampled every ``params.dt`` seconds."""
    book = parse_lob_csv(Path(path).read_bytes())
    return resample_forward_fill(book, params.dt)


def _load_series(args, params):
    if args.data is not None:
        return _recorded_series(args.data, params)
    n_steps = args.windows * params.n_dt
    return synthetic_quotes(params, n_steps, RngStream(seed=args.seed, stream_id=10_000))


def _cmd_simulate(args) -> int:
    params, _ = _load_params(args.config)
    if args.snapshots < 0:
        raise ValueError(f"--snapshots must be >= 0, got {args.snapshots}")
    if args.policy is None:
        raise PolicyShapeMismatchError("no policy file given; run `solve` and pass --policy")
    policy = load_policy_csv(args.policy)
    mode = EnvMode.improved(params) if args.mode == "improved" else EnvMode.benchmark()
    series = _load_series(args, params)

    batch = run_batch(policy, series, mode, params, master_seed=args.seed)
    out = _out_dir(args)
    write_batch_wealth_csv(batch, out / "batch_wealth.csv")

    write_fill_log(batch.fills, out / "fills.csv")
    # snapshot windows rerun alone on their batch streams for the full paths
    for w in range(min(args.snapshots, batch.n_paths)):
        window = series.window(w * params.n_dt, params.n_dt + 1)
        result = run_simulation(policy, window, mode, params, RngStream(args.seed, w))
        write_snapshot_csv(result, window, out / f"snapshot_{w}.csv")
    print(
        f"{batch.n_paths} windows in {mode.variant.value} mode: "
        f"mean terminal wealth {batch.terminal_wealths.mean():.6f}"
    )
    return 0


def _cmd_report(args) -> int:
    src = Path(args.indir)
    wealths, _ = reporting.read_batch_wealth_csv(src / "batch_wealth.csv")
    fill_log = fills.read_fill_log(src / "fills.csv")
    out = _out_dir(args)
    hist = reporting.terminal_cash_histogram(wealths, args.bins)
    reporting.write_histogram_csv(hist, out / "histogram.csv")
    rows = reporting.summarize_fills(reporting.counters_from_fills(fill_log))
    reporting.write_fill_type_summary_csv(rows, out / "summary.csv")
    for name, count in rows:
        print(f"{name}: {count}")
    return 0


def _cmd_basic_post(args) -> int:
    params, _ = _load_params(args.config)
    offset = args.offset_ticks
    if offset is None:
        offset = basic_poster.OFFSET_TICKS_PRESETS[args.contract]
    if args.data is not None:
        series = _recorded_series(args.data, params)
    else:
        # two-tick spread keeps synthetic touches on the tick grid so the
        # ladder's queue model sees orders at the touch
        series = synthetic_quotes(
            replace(params, delta=2 * args.tick), args.steps,
            RngStream(seed=args.seed, stream_id=20_000), tick=args.tick,
        )
    log = basic_poster.run_basic_posting(
        series, offset_ticks=offset, tick=args.tick, seed=args.seed
    )
    summary = basic_poster.fill_type_table(log)
    out = _out_dir(args)
    write_fill_log(FillColumns.from_events(log.fills), out / "fills.csv")
    basic_poster.write_fill_summary_csv(
        [(args.date, args.contract, summary)], out / "summary.csv"
    )
    print(f"{args.contract}: {summary.total} fills, "
          f"{summary.adverse} adverse, {summary.non_adverse} non-adverse")
    return 0


def _cmd_example1(args) -> int:
    log = basic_poster.run_example1(args.steps, walk_p=args.walk_p, seed=args.seed)
    summary = basic_poster.fill_type_table(log)
    out = _out_dir(args)
    write_fill_log(FillColumns.from_events(log.fills), out / "fills.csv")
    basic_poster.write_fill_summary_csv([(args.date, "SYN", summary)], out / "summary.csv")
    print(f"{summary.total} fills, {summary.adverse} adverse, "
          f"{summary.non_adverse} non-adverse")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--config", default=None,
                       help="parameter file, or 'default' for built-in values")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("solve", help="solve the posting problem, export surface and policy")
    _common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="batch-run a policy over a session")
    _common(p)
    p.add_argument("--policy", default=None, help="policy CSV from `solve`")
    p.add_argument("--mode", choices=["benchmark", "improved"], default="improved")
    p.add_argument("--data", default=None, help="LOB CSV; synthetic quotes when omitted")
    p.add_argument("--windows", type=int, default=330,
                   help="synthetic session length in windows")
    p.add_argument("--snapshots", type=int, default=1,
                   help="number of per-window path snapshots to write")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="histogram and fill summary from simulate outputs")
    _common(p)
    p.add_argument("--in", dest="indir", required=True, help="directory written by simulate")
    p.add_argument("--bins", type=int, default=30)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("basic-post", help="static ladder posting experiment")
    _common(p)
    p.add_argument("--data", default=None, help="LOB CSV; synthetic quotes when omitted")
    p.add_argument("--steps", type=int, default=5000, help="synthetic series steps")
    p.add_argument("--contract", choices=sorted(basic_poster.OFFSET_TICKS_PRESETS),
                   default="CL")
    p.add_argument("--offset-ticks", type=int, default=None,
                   help="override the per-contract ladder spacing")
    p.add_argument("--tick", type=float, default=0.01)
    p.add_argument("--date", default="synthetic")
    p.set_defaults(func=_cmd_basic_post)

    p = sub.add_parser("example1", help="always-posted MM with certain fills")
    _common(p)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--walk-p", type=float, default=0.25)
    p.add_argument("--date", default="synthetic")
    p.set_defaults(func=_cmd_example1)
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()

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
import os
import sys
from dataclasses import replace
from importlib import import_module
from pathlib import Path

from .params import OFFSET_TICKS_PRESETS, TICK_PRESETS, MarketParams, SolverGrid, load_config
from .table import check_text_cell

# every validation error of the package subclasses ValueError; an integer
# cell past the int64 range raises OverflowError
_VALIDATION_ERRORS = (ValueError, OverflowError)

# Each name the commands take from the modules they run, with its module
# (a module's own name stands for the module).  A name is imported and bound
# here on first access (PEP 562), so a command loads only what it calls.
# The commands call through the module (``_cli.run_batch``): a wrapper set
# on it before a command sees the command's call.
_LAZY = {
    "basic_poster": "basic_poster",
    "fills": "fills",
    "reporting": "reporting",
    "RngStream": "dynamics",
    "EnvMode": "fills",
    "FillColumns": "fills",
    "write_fill_log": "fills",
    "parse_lob_csv": "market_data",
    "resample_forward_fill": "market_data",
    "synthetic_quotes": "market_data",
    "run_batch": "simulator",
    # no command calls it; the benchmark's tracer wraps mmsim.cli.run_simulation
    "run_simulation": "simulator",
    "write_batch_wealth_csv": "simulator",
    "write_snapshot_csv": "simulator",
    "PolicyShapeMismatchError": "solver",
    "export_policy_csv": "solver",
    "evaluate_policy": "solver",
    "export_surface_csv": "solver",
    "extract_policy": "solver",
    "load_policy_csv": "solver",
    "solve_dpe": "solver",
}


def __getattr__(name: str):
    owner = _LAZY.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{owner}", __package__)
    value = module if owner == name else getattr(module, name)
    globals()[name] = value
    return value


# this module as the commands see it: ``mmsim.cli``, or ``__main__`` when run with -m
_cli = sys.modules[__name__]


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
    surface = _cli.solve_dpe(params, grid)
    policy = _cli.extract_policy(surface, params)
    # h and the stated policy's own value at (t, alpha, q) = (0, 0, 0)
    origin = (0, grid.n_alpha // 2, params.q_max)
    value = _cli.evaluate_policy(policy, params, grid).h[origin]
    out = _out_dir(args)
    _cli.export_surface_csv(surface, policy, out / "surface.csv")
    _cli.export_policy_csv(policy, out / "policy.csv")
    print(f"solved {surface.h.shape} surface -> {out / 'surface.csv'}")
    print(f"h(0,0,0) = {surface.h[origin]:.6f}; the policy's value there = {value:.6f}")
    return 0


def _recorded_series(path, params: MarketParams):
    """The LOB CSV at ``path`` resampled every ``params.dt`` seconds."""
    book = _cli.parse_lob_csv(Path(path).read_bytes())
    return _cli.resample_forward_fill(book, params.dt)


def _load_series(args, params):
    if args.data is not None:
        return _recorded_series(args.data, params)
    if args.windows < 1:
        raise ValueError(f"--windows must be >= 1, got {args.windows}")
    n_steps = args.windows * params.n_dt
    return _cli.synthetic_quotes(params, n_steps, _cli.RngStream(seed=args.seed, stream_id=10_000))


def _cmd_simulate(args) -> int:
    params, _ = _load_params(args.config)
    if args.snapshots < 0:
        raise ValueError(f"--snapshots must be >= 0, got {args.snapshots}")
    if args.policy is None:
        raise _cli.PolicyShapeMismatchError("no policy file given; run `solve` and pass --policy")
    policy = _cli.load_policy_csv(args.policy)
    env = _cli.EnvMode
    mode = env.improved(params) if args.mode == "improved" else env.benchmark()
    series = _load_series(args, params)

    batch = _cli.run_batch(policy, series, mode, params, master_seed=args.seed)
    out = _out_dir(args)
    _cli.write_batch_wealth_csv(batch, out / "batch_wealth.csv")

    _cli.write_fill_log(batch.fills, out / "fills.csv")
    for w in range(min(args.snapshots, batch.n_paths)):
        window = series.window(w * params.n_dt, params.n_dt + 1)
        _cli.write_snapshot_csv(batch.window(w, series), window, out / f"snapshot_{w}.csv")
    print(
        f"{batch.n_paths} windows in {mode.variant.value} mode: "
        f"mean terminal wealth {batch.terminal_wealths.mean():.6f}"
    )
    return 0


def _cmd_report(args) -> int:
    if args.bins < 1:
        raise ValueError(f"--bins must be >= 1, got {args.bins}")
    src = Path(args.indir)
    reporting = _cli.reporting
    wealths, _ = reporting.read_batch_wealth_csv(src / "batch_wealth.csv")
    fill_log = _cli.fills.read_fill_log(src / "fills.csv")
    # both are computed before --out is created, so a failure leaves no directory
    hist = reporting.terminal_cash_histogram(wealths, args.bins)
    rows = reporting.summarize_fills(reporting.counters_from_fills(fill_log))
    out = _out_dir(args)
    reporting.write_histogram_csv(hist, out / "histogram.csv")
    reporting.write_fill_type_summary_csv(rows, out / "summary.csv")
    for name, count in rows:
        print(f"{name}: {count}")
    return 0


def _write_fill_experiment(args, log, contract: str, prefix: str) -> int:
    """Write a fill experiment's fills.csv and summary.csv to --out and
    print its counts after ``prefix``."""
    basic_poster = _cli.basic_poster
    summary = basic_poster.fill_type_table(log)
    out = _out_dir(args)
    _cli.write_fill_log(_cli.FillColumns.from_events(log.fills), out / "fills.csv")
    basic_poster.write_fill_summary_csv([(args.date, contract, summary)], out / "summary.csv")
    print(f"{prefix}{summary.total} fills, {summary.adverse} adverse, "
          f"{summary.non_adverse} non-adverse")
    return 0


def _cmd_basic_post(args) -> int:
    # the date is a summary.csv cell: reject it before any file is written
    check_text_cell(args.date)
    params, _ = _load_params(args.config)
    offset = args.offset_ticks
    if offset is None:
        offset = OFFSET_TICKS_PRESETS[args.contract]
    tick = args.tick
    if tick is None:
        tick = TICK_PRESETS[args.contract]
    if args.data is not None:
        series = _recorded_series(args.data, params)
    else:
        if args.steps < 1:
            raise ValueError(f"--steps must be >= 1, got {args.steps}")
        # two-tick spread keeps synthetic touches on the tick grid so the
        # ladder's queue model sees orders at the touch
        series = _cli.synthetic_quotes(
            replace(params, delta=2 * tick), args.steps,
            _cli.RngStream(seed=args.seed, stream_id=20_000), tick=tick,
        )
    log = _cli.basic_poster.run_basic_posting(series, offset_ticks=offset, tick=tick,
                                              seed=args.seed)
    return _write_fill_experiment(args, log, args.contract, f"{args.contract}: ")


def _cmd_example1(args) -> int:
    check_text_cell(args.date)
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0, got {args.steps}")
    log = _cli.basic_poster.run_example1(args.steps, walk_p=args.walk_p, seed=args.seed)
    return _write_fill_experiment(args, log, "SYN", "")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument("--out", default="out", help="output directory")

    def _seed(p):
        p.add_argument("--seed", type=int, default=0, help="master random seed")

    def _config(p):
        p.add_argument("--config", default=None,
                       help="parameter file, or 'default' for built-in values")

    p = sub.add_parser("solve", help="solve the posting problem, export surface and policy")
    _common(p)
    _config(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="batch-run a policy over a session")
    _common(p)
    _seed(p)
    _config(p)
    p.add_argument("--policy", default=None, help="policy CSV from `solve`")
    p.add_argument("--mode", choices=["benchmark", "improved"], default="improved")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--data", default=None, help="LOB CSV; synthetic quotes when omitted")
    source.add_argument("--windows", type=int, default=330,
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
    _seed(p)
    _config(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--data", default=None, help="LOB CSV; synthetic quotes when omitted")
    source.add_argument("--steps", type=int, default=5000, help="synthetic series steps")
    p.add_argument("--contract", choices=sorted(OFFSET_TICKS_PRESETS),
                   default="CL")
    p.add_argument("--offset-ticks", type=int, default=None,
                   help="override the per-contract ladder spacing")
    p.add_argument("--tick", type=float, default=None,
                   help="price tick; the contract's published tick when omitted")
    p.add_argument("--date", default="synthetic")
    p.set_defaults(func=_cmd_basic_post)

    p = sub.add_parser("example1", help="always-posted MM with certain fills")
    _common(p)
    _seed(p)
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


def _flush_std_streams() -> bool:
    """Flush stdout and stderr; False if either is None or its flush fails."""
    for stream in (sys.stdout, sys.stderr):
        if stream is None:
            return False
        try:
            stream.flush()
        except (OSError, ValueError):
            return False
    return True


def main() -> None:
    """Run the command line and end the process with its exit code.

    Every command closes each file it reads or writes, so once stdout and
    stderr are flushed the interpreter's teardown, which frees numpy and
    every loaded module object by object, has nothing left to write: the
    process ends at once with ``os._exit``, and ``atexit`` handlers do not
    run.  A missing standard stream or a failed flush (a closed pipe) leaves
    the exit to the interpreter, which reports a failed flush and exits 120.
    An embedding program calls :func:`cli_main` instead.
    """
    code = cli_main()
    if not _flush_std_streams():
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    main()

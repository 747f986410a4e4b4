"""mmsim benchmark: three seeded workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for sizes and reasons): ``pipeline``,
``backtest``, ``solve_fine``.  With ``--trace 0`` the run sets up several
times in fresh child processes, then repeats untraced passes of the timed
work for ``--seconds`` and prints the end-to-end metrics: medians over the
set-ups and passes, with every time scaled by a host-speed probe run just
before and after it.  With ``--trace 1`` it alternates untraced and traced passes, both
in this process, and prints the per-layer metrics; spans go to
``.perfbench/traces/``.  Every pass
checks its outputs.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is used from source: ``src`` goes on PYTHONPATH, and numpy/BLAS
thread variables are set to 1, for this process and its children.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
# On a shared host the same work takes up to 1.7x longer from one minute to
# the next, with other tenants' load.  Each set-up and each operation of a
# pass is bracketed by runs of a fixed probe, and its wall time is scaled to a
# host on which the probe takes PROBE_REF_S (about its median on a 2-vCPU VM).
PROBE_LOOP = 150_000
PROBE_NUMPY_OPS = 300
PROBE_REPEATS = 5
PROBE_REF_S = 0.015
_PROBE_ARRAY = np.linspace(0.0, 1.0, 201 * 21).reshape(201, 21)

E2E_UNITS = {"setup_s": "s", "norm_wall_s": "s", "norm_work_per_s": "1/s", "peak_rss_mb": "MB"}
# what norm_work_per_s counts on each workload, under the name the reports use
WORK_NAMES = {
    "pipeline": "lob_rows_per_s",
    "backtest": "sim_steps_per_s",
    "solve_fine": "solve_node_updates_per_s",
}


class SetupFailed(RuntimeError):
    pass


class Ledger:
    """Operations attempted and failed; outputs must repeat across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    def add(self, result, label: str) -> None:
        for op in result.ops:
            self.attempted += 1
            first = self.digests.setdefault(op.name, op.digest)
            if op.digest != first:
                op.problems.append("outputs differ from the first pass")
            if op.problems:
                self.failed += 1
                self.problems.append(f"{label} {op.name}: {'; '.join(op.problems)}")


def prepare_environment(root: Path) -> bool:
    """Put the checkout's ``src`` on the import path; False if it has none."""
    src = root / "src"
    if not (src / "mmsim" / "__init__.py").is_file():
        return False
    for var in THREAD_VARS:
        os.environ[var] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return True


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def probe_s() -> float:
    """Wall time of a fixed reference computation that is not mmsim's: an
    interpreter loop and a chain of small numpy operations, the two kinds of
    work the workloads do."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    x = _PROBE_ARRAY
    for _ in range(PROBE_NUMPY_OPS):
        x = np.maximum(x * 0.99 + 0.01, _PROBE_ARRAY[::-1])
    return time.perf_counter() - start


def host_probe_s() -> float:
    return statistics.median(probe_s() for _ in range(PROBE_REPEATS))


def scaled(wall: float, probe_before: float, probe_after: float) -> float:
    """A wall time scaled to a host on which the probe takes PROBE_REF_S."""
    return wall * 2 * PROBE_REF_S / (probe_before + probe_after)


def measure_setup(args, work: Path) -> tuple[list[float], list[float]]:
    """Set up SETUP_REPEATS times in fresh processes; (scaled, raw) walls."""
    from workloads import run_child

    argv = [sys.executable, str(HERE / "build_inputs.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--dir", str(work)] + (["--tiny"] if args.tiny else [])
    walls, probes = [], [host_probe_s()]
    for _ in range(SETUP_REPEATS):
        code, wall, _ = run_child(argv, work / "setup.log")
        if code != 0:
            raise SetupFailed((work / "setup.log").read_text(errors="replace"))
        walls.append(wall)
        probes.append(host_probe_s())
    return [scaled(w, a, b) for w, a, b in zip(walls, probes, probes[1:])], walls


def timed_run(args, sizes, work: Path) -> dict:
    from workloads import WORKLOADS, subprocess_runner

    workload = WORKLOADS[args.workload](args.seed, sizes, work)
    workload.prepare()
    setup, raw_setup = measure_setup(args, work)
    workload.build_inputs()
    probes: list[float] = []  # before each operation and after each pass

    def probe() -> None:
        probes.append(host_probe_s())

    if args.workload == "pipeline":
        run_command = subprocess_runner(work)

        def probed(op, argv):
            probe()
            return run_command(op, argv)

        one_pass = lambda: workload.run_pass(work / "out", probed)  # noqa: E731
    else:
        one_pass = lambda: workload.run_pass(probe)  # noqa: E731

    ledger, passes, per_op = Ledger(), [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        first = len(probes)
        result = one_pass()
        probe()
        ledger.add(result, f"pass {len(passes) + 1}")
        passes.append(result)
        # operation k ran between probes first + k and first + k + 1
        marks = probes[first:]
        per_op.append({op.name: scaled(op.wall_s, a, b)
                       for op, a, b in zip(result.ops, marks, marks[1:])})

    if args.workload == "pipeline":
        rss_kb = max(p.peak_rss_kb for p in passes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    norm = {name: statistics.median(s[name] for s in per_op if name in s) for name in per_op[0]}
    raw = {name: statistics.median(op.wall_s for p in passes for op in p.ops if op.name == name)
           for name in norm}
    rate_ops = workload.rate_ops or tuple(norm)
    metrics = {
        "setup_s": statistics.median(setup),
        "norm_wall_s": sum(norm.values()),
        "norm_work_per_s": passes[0].work / sum(norm[name] for name in rate_ops),
        "peak_rss_mb": rss_kb / 1024.0,
    }

    print(f"workload {args.workload}  seed {args.seed}  {len(passes)} passes in "
          f"{time.perf_counter() - start:.1f} s")
    print(f"  setup_s          {metrics['setup_s']:.4f} s   median of {len(setup)} set-ups "
          f"in fresh processes, each scaled to the probe (raw median "
          f"{statistics.median(raw_setup):.4f}, {min(raw_setup):.4f}..{max(raw_setup):.4f})")
    print(f"  norm_wall_s      {metrics['norm_wall_s']:.4f} s   sum of the operations' median "
          f"times, each scaled to a {PROBE_REF_S * 1e3:.1f} ms probe")
    print(f"  norm_work_per_s  {metrics['norm_work_per_s']:.6g} 1/s   "
          f"= {WORK_NAMES[args.workload]}, over the scaled time of {', '.join(rate_ops)}")
    print(f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB")
    print(f"  raw wall         {sum(raw.values()):.4f} s   sum of the operations' median "
          f"times, unscaled")
    print(f"  probe            median {statistics.median(probes) * 1e3:.2f} ms "
          f"({min(probes) * 1e3:.2f}..{max(probes) * 1e3:.2f}), {len(probes)} brackets")
    _print_ops(ledger, passes)
    return _result(ledger, metrics, E2E_UNITS)


def trace_run(args, sizes, work: Path, trace_dir: Path) -> dict:
    from tracing import (
        CLI_TARGETS, LIBRARY_TARGETS, PER_LAYER_UNITS, Tracer, layer_metrics,
        median_metrics, wrapper_cost_s, write_spans,
    )
    from workloads import WORKLOADS, in_process_runner, run_child

    import_s = statistics.median(
        run_child([sys.executable, "-c", "import mmsim"], work / "import.log")[1]
        for _ in range(IMPORT_REPEATS)
    )
    workload = WORKLOADS[args.workload](args.seed, sizes, work)
    pipeline = args.workload == "pipeline"
    targets = CLI_TARGETS if pipeline else LIBRARY_TARGETS
    workload.prepare()
    groups = {"setup": Tracer()}
    with groups["setup"].installed(targets), groups["setup"].span("bench.setup"):
        workload.build_inputs()
    setup_wall = sum(s.duration for s in groups["setup"].spans if s.parent < 0)

    def one_pass(tracer=None):
        if pipeline:  # in process: wrappers cannot reach a subprocess
            return workload.run_pass(work / "out", in_process_runner(tracer))
        return workload.run_pass()

    ledger, untraced, traced, per_pass = Ledger(), [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        if len(untraced) <= len(traced):
            result = one_pass()
            untraced.append(result.wall_s)
            ledger.add(result, f"untraced pass {len(untraced)}")
            continue
        tracer = Tracer()
        with tracer.installed(targets), tracer.span("bench.pass"):
            result = one_pass(tracer)
        # the root span also covers the output checks; the pass wall does not
        traced.append(result.wall_s)
        ledger.add(result, f"traced pass {len(traced)}")
        groups[f"pass{len(traced)}"] = tracer
        per_pass.append(layer_metrics([groups["setup"], tracer], setup_wall + result.wall_s))
        per_pass[-1]["trace.spans"] = len(tracer.spans) - 1  # without the root

    m = median_metrics(per_pass)
    m["cli.import_s"] = import_s
    m["trace.traced_wall_s"] = statistics.median(traced)
    m["trace.untraced_wall_s"] = statistics.median(untraced)
    m["trace.overhead_s"] = m["trace.traced_wall_s"] - m["trace.untraced_wall_s"]
    m["trace.wrapper_cost_s"] = m["trace.spans"] * wrapper_cost_s()
    # the timed pipeline runs each command in a fresh interpreter that
    # imports mmsim; both passes here run in process and skip that
    m["trace.import_part_s"] = len(workload.commands) * import_s if pipeline else 0.0

    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    write_spans(spans_path, groups)

    print(f"workload {args.workload}  seed {args.seed}  traced run: {len(untraced)} untraced, "
          f"{len(traced)} traced passes; spans in {spans_path}")
    for name in PER_LAYER_UNITS:
        print(f"  {name:36s} {m[name]:.6g} {PER_LAYER_UNITS[name]}")
    _print_ops(ledger, [])
    return _result(ledger, m, PER_LAYER_UNITS)


def _print_ops(ledger: Ledger, passes) -> None:
    ratio = ledger.failed / ledger.attempted
    print(f"  failed_ratio {ratio:.6g}   ({ledger.failed} of {ledger.attempted} operations)")
    for name, digest in ledger.digests.items():
        walls = [op.wall_s for p in passes for op in p.ops if op.name == name]
        timing = f"  median {statistics.median(walls):.4f} s" if walls else ""
        print(f"  op {name:20s} sha256 {digest[:16] or '-':16s}{timing}")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")


def _result(ledger: Ledger, metrics: dict, units: dict) -> dict:
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORK_NAMES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: a few windows, a few thousand LOB rows")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not prepare_environment(root):
        print(f"perfbench: no src/mmsim under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    from workloads import FULL, TINY

    base = root / ".perfbench"
    work = base / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = trace_run(args, TINY if args.tiny else FULL, work, base / "traces")
        else:
            result = timed_run(args, TINY if args.tiny else FULL, work)
    except SetupFailed as exc:
        print(f"perfbench: set-up failed:\n{exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

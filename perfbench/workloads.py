"""The three benchmark workloads: inputs from a seed, one timed pass, output checks.

* ``pipeline`` runs the ``mmsim`` CLI end to end on a generated recorded-style
  LOB CSV, one subprocess per command (or in process through
  ``mmsim.cli.cli_main`` when traced).
* ``backtest`` runs ``run_batch`` in the benchmark environment (policy solved
  at rho = 1) and in the improved one (rho = 0.2) over one synthetic session.
* ``solve_fine`` runs ``solve_dpe`` and ``extract_policy`` on a sweep-sized
  grid.

An operation is one CLI command or one public library call.  It fails if it
raises, exits non-zero, or fails an output check; the pipeline checks parse
the output files with this module's own code, not with mmsim's readers.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import lobgen
import mmsim.cli
from mmsim import market_data, simulator, solver
from mmsim.dynamics import RngStream
from mmsim.fills import EnvMode
from mmsim.params import default_grid, default_params, load_config

CHILD_TIMEOUT_S = 150.0
CLI_N_DT = 120  # window length of the CLI's default config


@dataclass(frozen=True)
class Sizes:
    lob_duration_s: float  # pipeline session length; ~2 book events per second
    backtest_windows: int
    fine_grid: dict  # config overrides of the solve_fine workload


FULL = Sizes(
    lob_duration_s=39_600.0,  # 329 windows of 120 s
    backtest_windows=1_000,
    fine_grid=dict(n_alpha=201, substeps=10, q_max=10, n_dt=1200, horizon=1200.0),
)
TINY = Sizes(
    lob_duration_s=1_000.0,
    backtest_windows=4,
    fine_grid=dict(n_alpha=21, substeps=2, q_max=3, n_dt=30, horizon=30.0),
)


@dataclass
class Op:
    """Outcome of one operation of a pass."""

    name: str
    wall_s: float
    problems: list[str] = field(default_factory=list)
    digest: str = ""


@dataclass
class PassResult:
    wall_s: float
    ops: list[Op]
    work: float  # units of work done in the pass: LOB rows, strategy steps or node updates
    peak_rss_kb: int = 0


def run_child(argv: list[str], log_path: Path):
    """Run a child to completion; return (exit code, wall seconds, peak RSS KB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def tree_digest(directory: Path) -> str:
    """sha256 over the names and bytes of every file below a directory."""
    if not directory.is_dir():
        return ""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _csv_rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[:1]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:] if line]


class Workload:
    """A workload's inputs come in two parts.  ``prepare`` makes what the
    benchmark itself provides, once and untimed.  ``build_inputs`` is the
    program's own set-up; it is timed as ``setup_s`` in fresh interpreters
    that import mmsim, and run again in process before the timed passes."""

    name = ""
    rate_ops: tuple[str, ...] = ()  # operations whose time norm_work_per_s divides by; () = all

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes

    def prepare(self) -> None:
        pass

    def build_inputs(self) -> None:
        pass


# --------------------------------------------------------------------------
# pipeline


class Pipeline(Workload):
    """The LOB file is the benchmark's input.  The CLI commands read it
    themselves, so the program's set-up is the fresh interpreter and its
    mmsim import, and ``build_inputs`` adds nothing to it."""

    name = "pipeline"
    commands = ("solve", "simulate_improved", "simulate_benchmark",
                "report_improved", "report_benchmark", "basic_post")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        super().__init__(seed, sizes, workdir)
        self.lob = workdir / "lob.csv"
        self.rows = 0
        self.windows = 0

    def prepare(self) -> None:
        lob = lobgen.generate(self.seed, self.sizes.lob_duration_s)
        self.lob.write_text(lob.text, encoding="utf-8")
        self.rows = lob.rows
        # the first event sits on a whole second, so the 1 s resampling
        # keeps span // 1 s + 1 samples
        self.windows = lob.span_ns // 1_000_000_000 // CLI_N_DT

    def argv(self, out: Path) -> dict[str, list[str]]:
        lob, seed = str(self.lob), str(self.seed)
        policy = str(out / "solve" / "policy.csv")
        argv = {"solve": ["solve", "--config", "default", "--out", str(out / "solve")]}
        for env in ("improved", "benchmark"):
            argv[f"simulate_{env}"] = [
                "simulate", "--data", lob, "--policy", policy, "--mode", env,
                "--seed", seed, "--out", str(out / f"simulate_{env}"),
            ]
        for env in ("improved", "benchmark"):
            argv[f"report_{env}"] = [
                "report", "--in", str(out / f"simulate_{env}"),
                "--out", str(out / f"report_{env}"),
            ]
        argv["basic_post"] = ["basic-post", "--data", lob, "--contract", "CL",
                              "--seed", seed, "--out", str(out / "basic_post")]
        return argv

    def run_pass(self, out: Path, run_command) -> PassResult:
        """Run the six commands in order; ``run_command(op, argv)`` returns
        (exit code, wall seconds, peak RSS KB)."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        codes, walls, rss = {}, {}, 0
        start = time.perf_counter()
        for op, argv in self.argv(out).items():
            codes[op], walls[op], kb = run_command(op, argv)
            rss = max(rss, kb)
        wall = time.perf_counter() - start
        problems = self.check(out, codes)
        ops = [Op(op, walls[op], problems[op], tree_digest(out / op)) for op in self.commands]
        return PassResult(wall, ops, work=self.rows, peak_rss_kb=rss)

    def check(self, out: Path, codes: dict[str, int]) -> dict[str, list[str]]:
        problems = {op: [] for op in self.commands}
        for op, code in codes.items():
            if code != 0:
                problems[op].append(f"exit code {code}")
        checks = [("solve", self._check_solve)]
        for env in ("improved", "benchmark"):
            checks.append((f"simulate_{env}", lambda o, e=env: self._check_simulate(o, e)))
            checks.append((f"report_{env}", lambda o, e=env: self._check_report(o, e)))
        checks.append(("basic_post", self._check_basic_post))
        for op, fn in checks:
            try:
                problems[op] += fn(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems[op].append(f"{type(exc).__name__}: {exc}")
        return problems

    @staticmethod
    def _check_solve(out: Path) -> list[str]:
        surface = _csv_rows(out / "solve" / "surface.csv", "t_index,alpha,q,h,post_bid,post_ask")
        policy = _csv_rows(out / "solve" / "policy.csv", "t_index,alpha,q,post_bid,post_ask")
        if len(surface) != len(policy) or not policy:
            return [f"surface has {len(surface)} nodes, policy {len(policy)}"]
        return []

    def _check_simulate(self, out: Path, env: str) -> list[str]:
        rows = _csv_rows(out / f"simulate_{env}" / "batch_wealth.csv",
                         "window,terminal_wealth,objective")
        problems = []
        if len(rows) != self.windows:
            problems.append(f"{len(rows)} batch wealths, expected {self.windows}")
        if not all(math.isfinite(float(r[1])) and math.isfinite(float(r[2])) for r in rows):
            problems.append("non-finite batch wealth")
        return problems

    @staticmethod
    def _check_report(out: Path, env: str) -> list[str]:
        tally = {"AFA": 0, "NFA": 0, "AFB": 0, "NFB": 0}
        code = {("ask", "adverse"): "AFA", ("ask", "non_adverse"): "NFA",
                ("bid", "adverse"): "AFB", ("bid", "non_adverse"): "NFB"}
        for row in _csv_rows(out / f"simulate_{env}" / "fills.csv", "t_index,side,price,kind"):
            tally[code[row[1], row[3]]] += 1
        summary = {r[0]: int(r[1]) for r in
                   _csv_rows(out / f"report_{env}" / "summary.csv", "fill_type,count")}
        problems = []
        if summary != tally:
            problems.append(f"summary {summary} differs from the fills.csv tally {tally}")
        if env == "benchmark" and (summary.get("AFA") or summary.get("AFB")):
            problems.append(f"adverse fills in the benchmark environment: {summary}")
        return problems

    @staticmethod
    def _check_basic_post(out: Path) -> list[str]:
        (row,) = _csv_rows(out / "basic_post" / "summary.csv",
                           "date,contract,total,adverse,non_adverse")
        total, adverse, non_adverse = (int(x) for x in row[2:])
        fills = _csv_rows(out / "basic_post" / "fills.csv", "t_index,side,price,kind")
        problems = []
        if total != adverse + non_adverse:
            problems.append(f"ladder total {total} != {adverse} + {non_adverse}")
        if total != len(fills):
            problems.append(f"ladder total {total} != {len(fills)} logged fills")
        return problems


def subprocess_runner(logdir: Path):
    """Run each CLI command as ``python -m mmsim.cli`` in its own process."""

    def run(op: str, argv: list[str]):
        return run_child([sys.executable, "-m", "mmsim.cli", *argv], logdir / f"{op}.log")

    return run


def in_process_runner(tracer=None):
    """Run each CLI command through ``mmsim.cli.cli_main`` in this process."""

    def run(op: str, argv: list[str]):
        sink = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(sink):
            if tracer is None:
                code = mmsim.cli.cli_main(argv)
            else:
                with tracer.span(f"cli.{op}"):
                    code = mmsim.cli.cli_main(argv)
        return code, time.perf_counter() - start, 0

    return run


# --------------------------------------------------------------------------
# in-process workloads


def _call(op: Op, fn, *args):
    """Call one public library function as an operation; exceptions fail it."""
    start = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # any exception is a failed operation, reported
        op.problems.append(f"{type(exc).__name__}: {exc}")
        return None
    finally:
        op.wall_s = time.perf_counter() - start


class Backtest(Workload):
    name = "backtest"

    def build_inputs(self) -> None:
        grid = default_grid()
        self.p_improved = default_params()
        self.p_bench = replace(self.p_improved, rho=1.0)
        self.policy_bench = solver.extract_policy(solver.solve_dpe(self.p_bench, grid), self.p_bench)
        self.policy_improved = solver.extract_policy(
            solver.solve_dpe(self.p_improved, grid), self.p_improved)
        n_steps = self.sizes.backtest_windows * self.p_improved.n_dt
        self.series = market_data.synthetic_quotes(
            self.p_improved, n_steps, RngStream(seed=self.seed, stream_id=0))

    def run_pass(self, before_op=lambda: None) -> PassResult:
        runs = [
            (Op("run_batch_benchmark", 0.0), self.policy_bench, EnvMode.benchmark(),
             self.p_bench),
            (Op("run_batch_improved", 0.0), self.policy_improved,
             EnvMode.improved(self.p_improved), self.p_improved),
        ]
        start = time.perf_counter()
        batches = []
        for op, policy, mode, params in runs:
            before_op()
            batches.append(_call(op, simulator.run_batch, policy, self.series, mode, params,
                                 self.seed))
        wall = time.perf_counter() - start
        ops, steps = [run[0] for run in runs], 0
        for op, batch in zip(ops, batches):
            if batch is None:
                continue
            steps += batch.n_paths * self.p_improved.n_dt
            op.problems += self._check(op.name, batch)
            h = hashlib.sha256(batch.terminal_wealths.tobytes())
            h.update(batch.objectives.tobytes())
            h.update(repr(batch.fill_totals).encode())
            op.digest = h.hexdigest()
        return PassResult(wall, ops, work=steps)

    def _check(self, name: str, batch) -> list[str]:
        problems = []
        if batch.n_paths != self.sizes.backtest_windows:
            problems.append(f"{batch.n_paths} windows, expected {self.sizes.backtest_windows}")
        if not np.all(np.isfinite(batch.terminal_wealths)):
            problems.append("non-finite terminal wealth")
        adverse = batch.fill_totals.afa + batch.fill_totals.afb
        if name.endswith("benchmark") and adverse:
            problems.append(f"{adverse} adverse fills in the benchmark environment")
        if name.endswith("improved") and not adverse:
            problems.append("no adverse fills in the improved environment")
        return problems


class SolveFine(Workload):
    name = "solve_fine"
    rate_ops = ("solve_dpe",)

    def config_text(self) -> str:
        """Seeded fill probability and intensities on the sweep-sized grid;
        the node count does not depend on the seed."""
        rng = np.random.default_rng([self.seed, 0x501E])
        values = dict(self.sizes.fine_grid)
        values["rho"] = round(float(rng.uniform(0.1, 0.3)), 6)
        values["lambda_plus"] = values["lambda_minus"] = round(float(rng.uniform(0.5, 0.7)), 6)
        return "".join(f"{k} = {v!r}\n" for k, v in values.items())

    def build_inputs(self) -> None:
        self.params, self.grid = load_config(self.config_text())
        n_q = 2 * self.params.q_max + 1
        self.node_updates = self.params.n_dt * self.grid.substeps * self.grid.n_alpha * n_q

    def run_pass(self, before_op=lambda: None) -> PassResult:
        solve, extract = Op("solve_dpe", 0.0), Op("extract_policy", 0.0)
        start = time.perf_counter()
        before_op()
        surface = _call(solve, solver.solve_dpe, self.params, self.grid)
        policy = None
        if surface is not None:
            before_op()
            policy = _call(extract, solver.extract_policy, surface, self.params)
        else:
            extract.problems.append("no surface to read a policy from")
        wall = time.perf_counter() - start

        shape = (self.params.n_dt + 1, self.grid.n_alpha, 2 * self.params.q_max + 1)
        if surface is not None:
            if surface.h.shape != shape:
                solve.problems.append(f"h has shape {surface.h.shape}, expected {shape}")
            elif not np.all(np.isfinite(surface.h)):
                solve.problems.append("non-finite h")
            solve.digest = hashlib.sha256(surface.h.tobytes()).hexdigest()
        if policy is not None:
            if policy.post_ask.shape != shape or policy.post_bid.shape != shape:
                extract.problems.append(f"policy shape {policy.post_ask.shape}, expected {shape}")
            elif policy.post_ask[:, :, 0].any() or policy.post_bid[:, :, -1].any():
                extract.problems.append("posting at an inventory bound")
            h = hashlib.sha256(policy.post_ask.tobytes())
            h.update(policy.post_bid.tobytes())
            extract.digest = h.hexdigest()
        return PassResult(wall, [solve, extract], work=self.node_updates)


WORKLOADS = {w.name: w for w in (Pipeline, Backtest, SolveFine)}

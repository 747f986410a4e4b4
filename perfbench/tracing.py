"""Spans recorded from outside the program, and the per-layer report built on them.

The tracer replaces a public function by a wrapper at the place where its
caller looks it up (``mmsim.cli.run_batch`` for the CLI, the module attribute
``mmsim.simulator.run_batch`` for the in-process workloads).  Each call
becomes a span with a name, start, end and parent; spans stay in memory and
are written out when the run ends.  A span's self time is its duration minus
that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from mmsim.params import default_grid

# (module, attribute, span name).  Span names are "<layer>.<function>"; the
# layer is the mmsim module that owns the function.  ``run_batch`` spans get
# the environment appended, ``mmsim.cli.run_simulation`` is the per-window
# replay that ``simulate`` runs after its batch.
CLI_TARGETS = [
    ("mmsim.cli", "parse_lob_csv", "market_data.parse_lob_csv"),
    ("mmsim.cli", "resample_forward_fill", "market_data.resample_forward_fill"),
    ("mmsim.cli", "synthetic_quotes", "market_data.synthetic_quotes"),
    ("mmsim.cli", "solve_dpe", "solver.solve_dpe"),
    ("mmsim.cli", "extract_policy", "solver.extract_policy"),
    ("mmsim.cli", "export_surface_csv", "solver.export_surface_csv"),
    ("mmsim.cli", "export_policy_csv", "solver.export_policy_csv"),
    ("mmsim.cli", "load_policy_csv", "solver.load_policy_csv"),
    ("mmsim.cli", "run_batch", "simulator.run_batch"),
    ("mmsim.cli", "run_simulation", "simulator.replay"),
    ("mmsim.cli", "write_batch_wealth_csv", "simulator.write_batch_wealth_csv"),
    ("mmsim.cli", "write_snapshot_csv", "simulator.write_snapshot_csv"),
    ("mmsim.cli", "write_fill_log", "fills.write_fill_log"),
    ("mmsim.fills", "read_fill_log", "fills.read_fill_log"),
    ("mmsim.reporting", "read_batch_wealth_csv", "reporting.read_batch_wealth_csv"),
    ("mmsim.reporting", "terminal_cash_histogram", "reporting.terminal_cash_histogram"),
    ("mmsim.reporting", "write_histogram_csv", "reporting.write_histogram_csv"),
    ("mmsim.reporting", "summarize_fills", "reporting.summarize_fills"),
    ("mmsim.reporting", "counters_from_fills", "reporting.counters_from_fills"),
    ("mmsim.reporting", "write_fill_type_summary_csv", "reporting.write_fill_type_summary_csv"),
    ("mmsim.basic_poster", "run_basic_posting", "basic_poster.run_basic_posting"),
    ("mmsim.basic_poster", "fill_type_table", "basic_poster.fill_type_table"),
    ("mmsim.basic_poster", "write_fill_summary_csv", "basic_poster.write_fill_summary_csv"),
]
# The in-process workloads call these through their modules.  The
# simulator's own per-window calls are not wrapped: dynamics and fills run
# per step inside run_batch and count as simulator time.
LIBRARY_TARGETS = [
    ("mmsim.market_data", "synthetic_quotes", "market_data.synthetic_quotes"),
    ("mmsim.solver", "solve_dpe", "solver.solve_dpe"),
    ("mmsim.solver", "extract_policy", "solver.extract_policy"),
    ("mmsim.simulator", "run_batch", "simulator.run_batch"),
]

LAYERS = ("cli", "market_data", "solver", "simulator", "fills", "reporting", "basic_poster")
CLI_COMMANDS = (
    "solve", "simulate_improved", "simulate_benchmark",
    "report_improved", "report_benchmark", "basic_post",
)
FILL_COUNTERS = ("AFA", "NFA", "AFB", "NFB")

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "market_data.parse_lob_csv_s": "s",
    "market_data.resample_forward_fill_s": "s",
    "market_data.lob_rows": "count",
    "market_data.parse_rows_per_s": "1/s",
    "market_data.synthetic_quotes_s": "s",
    "solver.solve_dpe_s": "s",
    "solver.extract_policy_s": "s",
    "solver.node_updates": "count",
    "solver.h_bytes": "bytes",
    "solver.export_surface_csv_s": "s",
    "solver.export_policy_csv_s": "s",
    "solver.load_policy_csv_s": "s",
    "solver.csv_bytes": "bytes",
    "simulator.run_batch_benchmark_s": "s",
    "simulator.run_batch_improved_s": "s",
    "simulator.replay_s": "s",
    "simulator.replay_share": "ratio",
    "simulator.windows": "count",
    "simulator.steps": "count",
    "fills.write_fill_log_s": "s",
    "fills.read_fill_log_s": "s",
    "fills.events": "count",
    **{f"fills.{env}.{c}": "count" for env in ("benchmark", "improved") for c in FILL_COUNTERS},
    "reporting.read_batch_wealth_csv_s": "s",
    "reporting.counters_from_fills_s": "s",
    "reporting.terminal_cash_histogram_s": "s",
    "basic_poster.run_basic_posting_s": "s",
    "basic_poster.steps": "count",
    "basic_poster.fills": "count",
    "basic_poster.adverse_share": "ratio",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.wrapper_cost_s": "s",
    "trace.import_part_s": "s",
    "trace.remainder_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, args: dict, result) -> dict:
    """Work counts read off a wrapped call's result and its arguments,
    which are bound by parameter name with the defaults applied."""
    if name == "market_data.parse_lob_csv":
        return {"rows": len(result)}
    if name == "solver.solve_dpe":
        n_t, n_alpha, n_q = result.h.shape
        substeps = (args.get("grid") or default_grid()).substeps
        return {"node_updates": (n_t - 1) * substeps * n_alpha * n_q,
                "h_bytes": result.h.nbytes}
    if name in ("solver.export_surface_csv", "solver.export_policy_csv"):
        return {"csv_bytes": os.path.getsize(args["path"])}
    if name == "simulator.run_batch":
        totals = result.fill_totals
        return {"windows": result.n_paths, "steps": result.n_paths * args["params"].n_dt,
                "AFA": totals.afa, "NFA": totals.nfa, "AFB": totals.afb, "NFB": totals.nfb}
    if name == "fills.write_fill_log":
        return {"events": len(args["fills"])}
    if name == "basic_poster.run_basic_posting":
        adverse = sum(1 for f in result.fills if f.kind.value == "adverse")
        return {"steps": len(args["series"]) - 1, "fills": len(result.fills),
                "adverse": adverse}
    return {}


class Tracer:
    """In-memory span recorder with wrappers installed on module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name: str):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            span_name = name
            if name == "simulator.run_batch":
                span_name = f"{name}_{call.arguments['mode'].variant.value}"
            with self.span(span_name) as record:
                result = fn(*args, **kwargs)
            record.counts = _counts(name, call.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every (module, attribute) target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def write_spans(path, groups: dict[str, Tracer]) -> None:
    """Write every group's spans as JSON; parents index within their group."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({name: [asdict(s) for s in t.spans] for name, t in groups.items()}, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(tracers: list[Tracer], root_wall: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass and its set-up.

    ``root_wall`` is the traced wall time the spans must account for; what
    no layer's self time covers is reported as ``trace.remainder_s``.
    """
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    totals: dict[str, float] = {}
    counts: dict[str, float] = {}
    parse_calls = 0
    for tracer in tracers:
        for s, own in zip(tracer.spans, self_times(tracer.spans)):
            layer = s.name.split(".", 1)[0]
            if layer in LAYERS:
                m[f"{layer}.self_s"] += own
            totals[s.name] = totals.get(s.name, 0.0) + s.duration
            parse_calls += s.name == "market_data.parse_lob_csv"
            for key, value in s.counts.items():
                counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value

    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s" and name[:-2] in totals:
            m[name] = totals[name[:-2]]

    rows = counts.get("market_data.parse_lob_csv.rows", 0)
    m["market_data.lob_rows"] = rows / parse_calls if parse_calls else 0
    if m["market_data.parse_lob_csv_s"] > 0:
        m["market_data.parse_rows_per_s"] = rows / m["market_data.parse_lob_csv_s"]
    m["solver.node_updates"] = counts.get("solver.solve_dpe.node_updates", 0)
    m["solver.h_bytes"] = counts.get("solver.solve_dpe.h_bytes", 0)
    m["solver.csv_bytes"] = (counts.get("solver.export_surface_csv.csv_bytes", 0)
                             + counts.get("solver.export_policy_csv.csv_bytes", 0))
    batch_s = m["simulator.run_batch_benchmark_s"] + m["simulator.run_batch_improved_s"]
    if m["simulator.replay_s"] > 0:
        m["simulator.replay_share"] = m["simulator.replay_s"] / (batch_s + m["simulator.replay_s"])
    for env in ("benchmark", "improved"):
        m["simulator.windows"] += counts.get(f"simulator.run_batch_{env}.windows", 0)
        m["simulator.steps"] += counts.get(f"simulator.run_batch_{env}.steps", 0)
        for c in FILL_COUNTERS:
            m[f"fills.{env}.{c}"] = counts.get(f"simulator.run_batch_{env}.{c}", 0)
    m["fills.events"] = counts.get("fills.write_fill_log.events", 0)
    m["basic_poster.steps"] = counts.get("basic_poster.run_basic_posting.steps", 0)
    m["basic_poster.fills"] = counts.get("basic_poster.run_basic_posting.fills", 0)
    if m["basic_poster.fills"]:
        m["basic_poster.adverse_share"] = (
            counts["basic_poster.run_basic_posting.adverse"] / m["basic_poster.fills"]
        )
    m["trace.remainder_s"] = root_wall - sum(m[f"{layer}.self_s"] for layer in LAYERS)
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def wrapper_cost_s() -> float:
    """Seconds one traced call adds to a bare one: binding, span and counts,
    median over batches of calls to a no-op."""
    calls, repeats = 2_000, 5

    def noop(x, y=None):
        return x

    costs = []
    for _ in range(repeats):
        traced = Tracer()._wrapper(noop, "trace.noop")
        start = time.perf_counter()
        for i in range(calls):
            noop(i)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for i in range(calls):
            traced(i)
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)

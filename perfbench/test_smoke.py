"""Smoke test of the benchmark at tiny sizes (a few windows, a few thousand
LOB rows, a coarse grid).  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    text = "\n".join(report)
    assert "failed_ratio 0 " in text
    for m in spec:
        assert m["name"] in text
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert run.WORK_NAMES[workload] in text


def test_tampered_fills_row_is_a_failed_operation(tmp_path):
    pipeline = workloads.Pipeline(5, workloads.TINY, tmp_path)
    pipeline.prepare()
    runner = workloads.in_process_runner()
    ledger = run.Ledger()
    ledger.add(pipeline.run_pass(tmp_path / "out", runner), "pass 1")
    assert (ledger.attempted, ledger.failed) == (6, 0), ledger.problems

    def tampering(op, argv):
        outcome = runner(op, argv)
        if op == "report_benchmark":  # edit one row after it was summarised
            fills = tmp_path / "out" / "simulate_benchmark" / "fills.csv"
            lines = fills.read_text(encoding="utf-8").splitlines(keepends=True)
            lines[1] = lines[1].replace(",non_adverse", ",adverse")
            fills.write_text("".join(lines), encoding="utf-8")
        return outcome

    ledger.add(pipeline.run_pass(tmp_path / "out", tampering), "pass 2")
    assert ledger.failed == 2  # the report check and the changed simulate outputs
    assert any("report_benchmark" in p and "tally" in p for p in ledger.problems)
    assert any("simulate_benchmark" in p and "first pass" in p for p in ledger.problems)


def test_tracer_reads_arguments_by_name():
    from mmsim import market_data, simulator, solver
    from mmsim.fills import EnvMode
    from mmsim.params import default_grid, default_params

    params = default_params()
    tracer = tracing.Tracer()
    with tracer.installed(tracing.LIBRARY_TARGETS):
        surface = solver.solve_dpe(params)  # the default grid
        policy = solver.extract_policy(surface=surface, params=params)
        series = market_data.synthetic_quotes(params, 2 * params.n_dt, seed=1)
        simulator.run_batch(policy=policy, series=series, mode=EnvMode.benchmark(),
                            params=params, master_seed=1)
    counts = {s.name: s.counts for s in tracer.spans}
    n_t, n_alpha, n_q = surface.h.shape
    assert counts["solver.solve_dpe"]["node_updates"] == (
        params.n_dt * default_grid().substeps * n_alpha * n_q)
    assert counts["simulator.run_batch_benchmark"]["steps"] == 2 * params.n_dt


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "backtest", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""What each CLI command imports, and the module route of its calls.

The package and the CLI resolve their names on first access, so a command
loads only the modules it runs; the commands call the library through
``mmsim.cli``, so a wrapper set there (as the benchmark's tracer sets one)
sees every call.  The line ends of a command's input files change none of
its outputs.
"""

import argparse
import gc
import importlib
import io
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mmsim
import mmsim.cli
from mmsim.cli import cli_main
from mmsim.market_data import LOB_COLUMNS, LOBBook, render_lob_csv

SRC = Path(mmsim.__file__).resolve().parents[1]
# the children run without PYTHONUNBUFFERED, so their stdout is a block-buffered
# pipe, as in a shell redirect, and an output left unflushed at exit is lost
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

# the names ``import mmsim`` bound before it resolved them lazily, with their modules
EXPORTS = {
    "run_basic_posting": "basic_poster", "run_example1": "basic_poster",
    "BatchWindow": "dynamics", "RngStream": "dynamics", "EnvMode": "fills",
    "parse_lob_csv": "market_data", "resample_forward_fill": "market_data",
    "synthetic_quotes": "market_data",
    "default_grid": "params", "default_params": "params",
    "summarize_fills": "reporting", "terminal_cash_histogram": "reporting",
    "run_batch": "simulator", "run_simulation": "simulator",
    "evaluate_policy": "solver", "extract_policy": "solver", "solve_dpe": "solver",
}
MODULES = ("basic_poster", "dynamics", "fills", "market_data", "params", "reporting",
           "simulator", "solver", "table")

CLI_BASE = {"mmsim", "mmsim.cli", "mmsim.params", "mmsim.table"}
LOADED = {
    "solve": {"solver"},
    "simulate": {"solver", "simulator", "market_data", "fills", "dynamics"},
    "report": {"fills", "reporting"},
    "basic-post": {"basic_poster", "market_data", "fills", "dynamics"},
    "example1": {"basic_poster", "market_data", "fills", "dynamics"},
}

_RUN_AND_LIST = """
import json, sys
from mmsim.cli import cli_main
code = cli_main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "mmsim")]))
"""


def _python(*args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=120)


def _book(n=300):
    """Level-1 book events 1 s apart on a 0.01 tick: two 120 s windows."""
    rng = np.random.default_rng(4)
    bid = 10_000 + np.cumsum(rng.integers(-1, 2, n))
    cells = np.full((n, len(LOB_COLUMNS)), np.nan)
    cells[:, LOB_COLUMNS.index("bid_px_1")] = bid * 0.01
    cells[:, LOB_COLUMNS.index("ask_px_1")] = (bid + 1) * 0.01
    cells[:, LOB_COLUMNS.index("bid_sz_1")] = cells[:, LOB_COLUMNS.index("ask_sz_1")] = 3.0
    return LOBBook(ts=1_700_000_000 * 10**9 + np.arange(n, dtype=np.int64) * 10**9,
                   cells=cells)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding a policy, a LOB CSV and a simulate run of two windows."""
    root = tmp_path_factory.mktemp("cli")
    assert cli_main(["solve", "--out", str(root / "solve")]) == 0
    (root / "lob.csv").write_text(render_lob_csv(_book()), encoding="utf-8")
    assert cli_main(["simulate", "--policy", str(root / "solve" / "policy.csv"),
                     "--windows", "2", "--out", str(root / "run")]) == 0
    return root


def _argv(command, root, out):
    policy = str(root / "solve" / "policy.csv")
    return {
        "solve": ["solve", "--out", out],
        "simulate": ["simulate", "--policy", policy, "--windows", "2", "--out", out],
        "simulate --data": ["simulate", "--policy", policy, "--data", str(root / "lob.csv"),
                            "--out", out],
        "report": ["report", "--in", str(root / "run"), "--out", out],
        "basic-post": ["basic-post", "--steps", "300", "--out", out],
        "basic-post --data": ["basic-post", "--data", str(root / "lob.csv"), "--out", out],
        "example1": ["example1", "--steps", "200", "--out", out],
    }[command]


def test_importing_the_package_loads_no_module(tmp_path):
    proc = _python("-c", "import json, sys, mmsim; "
                   "print(json.dumps(sorted(m for m in sys.modules if 'mmsim' in m)))",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["mmsim"]


def test_loading_a_policy_leaves_numpy_ma_unloaded(inputs, tmp_path):
    # on numpy 2, np.unique without return_inverse imports numpy.ma for
    # np.ma.is_masked: about 11 ms of every simulate
    proc = _python("-c", "import sys; from mmsim.solver import load_policy_csv; "
                   "assert 'numpy.ma' not in sys.modules; load_policy_csv(sys.argv[1]); "
                   "print('numpy.ma' in sys.modules)",
                   str(inputs / "solve" / "policy.csv"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command", sorted(LOADED))
def test_each_command_loads_only_the_modules_it_runs(inputs, tmp_path, command):
    proc = _python("-c", _RUN_AND_LIST, *_argv(command, inputs, str(tmp_path / "out")),
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert set(loaded) == CLI_BASE | {f"mmsim.{m}" for m in LOADED[command]}


def test_every_exported_name_resolves_to_its_module_object():
    for name, module in EXPORTS.items():
        assert getattr(mmsim, name) is getattr(importlib.import_module(f"mmsim.{module}"), name)
    for module in MODULES:
        assert getattr(mmsim, module) is importlib.import_module(f"mmsim.{module}")
    namespace = {}
    exec("from mmsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


def test_dir_lists_every_export_and_an_unknown_name_raises():
    assert set(EXPORTS) | set(MODULES) | {"__version__"} <= set(dir(mmsim))
    with pytest.raises(AttributeError, match="module 'mmsim' has no attribute 'no_such_name'"):
        mmsim.no_such_name  # noqa: B018
    with pytest.raises(AttributeError, match="module 'mmsim.cli' has no attribute 'solver'"):
        mmsim.cli.solver  # noqa: B018


@pytest.mark.parametrize("command", ["solve", "simulate --data", "report", "basic-post"])
def test_each_command_runs_as_the_main_module(inputs, tmp_path, capsys, command):
    """Run as ``python -m mmsim.cli``, which ends without the interpreter's
    teardown, each command prints, writes and exits as through ``cli_main``."""
    out = tmp_path / "out"
    argv = _argv(command, inputs, str(out))
    assert cli_main(argv) == 0
    printed, written = capsys.readouterr().out, _tree(out)
    proc = _python("-m", "mmsim.cli", *argv, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == printed
    assert printed.count("\n") == {"solve": 2, "report": 4}.get(command, 1)
    assert _tree(out) == written


class _Stream(io.StringIO):
    """A standard stream that says whether it was flushed after its last
    write; its flush raises ``error`` when one is given."""

    def __init__(self, error=None):
        super().__init__()
        self.error, self.dirty = error, False

    def write(self, text):
        self.dirty = True
        return super().write(text)

    def flush(self):
        if self.error is not None:
            raise self.error
        self.dirty = False


@pytest.fixture
def hard_exits(monkeypatch):
    """The calls ``main`` makes to ``os._exit``: each code, with whether
    stdout and stderr were left unflushed at the call."""
    calls = []
    monkeypatch.setattr(os, "_exit",
                        lambda code: calls.append((code, sys.stdout.dirty, sys.stderr.dirty)))
    return calls


@pytest.mark.parametrize("argv, code, stream", [
    (["example1", "--steps", "10"], 0, "stdout"),
    (["example1", "--steps", "-1"], 1, "stderr"),
    (["no-such-command"], 2, "stderr"),
    (["report", "--in", "no-such-dir"], 2, "stderr"),
], ids=["success", "validation error", "usage error", "I/O error"])
def test_main_flushes_both_streams_then_ends_with_the_commands_code(
    tmp_path, monkeypatch, hard_exits, argv, code, stream
):
    streams = {"stdout": _Stream(), "stderr": _Stream()}
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["mmsim", *argv, "--out", "out"])
    monkeypatch.setattr(sys, "stdout", streams["stdout"])
    monkeypatch.setattr(sys, "stderr", streams["stderr"])
    mmsim.cli.main()
    assert hard_exits == [(code, False, False)]
    assert streams[stream].getvalue()


@pytest.mark.parametrize("name, error", [
    ("stdout", BrokenPipeError(32, "Broken pipe")),
    ("stderr", ValueError("I/O operation on closed file.")),
    ("stdout", None),
    ("stderr", None),
], ids=["stdout flush raises", "stderr flush raises", "no stdout", "no stderr"])
def test_a_stream_that_cannot_be_flushed_leaves_the_exit_to_the_interpreter(
    tmp_path, monkeypatch, hard_exits, name, error
):
    streams = {"stdout": _Stream(), "stderr": _Stream()}
    streams[name] = None if error is None else _Stream(error)
    monkeypatch.setattr(sys, "argv", ["mmsim", "example1", "--steps", "-1",
                                      "--out", str(tmp_path / "out")])
    monkeypatch.setattr(sys, "stdout", streams["stdout"])
    monkeypatch.setattr(sys, "stderr", streams["stderr"])
    with pytest.raises(SystemExit) as exit_info:
        mmsim.cli.main()
    assert exit_info.value.code == 1
    assert hard_exits == []


def test_an_exception_inside_a_command_propagates_out_of_main(tmp_path, monkeypatch,
                                                              hard_exits):
    def fail(*args, **kwargs):
        raise RuntimeError("solver failed")

    monkeypatch.setattr(mmsim.cli, "solve_dpe", fail)
    monkeypatch.setattr(sys, "argv", ["mmsim", "solve", "--out", str(tmp_path / "out")])
    with pytest.raises(RuntimeError, match="solver failed"):
        mmsim.cli.main()
    assert hard_exits == []


def test_a_closed_stdout_pipe_is_reported_by_the_interpreter(tmp_path):
    """Block-buffered output to a pipe whose reader is gone fails at the
    flush; the interpreter then reports the error and exits 120."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mmsim.cli", "example1", "--steps", "200",
             "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=ENV, stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 120, proc.stderr
    assert proc.stderr.startswith("Exception ignored")
    assert proc.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")
    assert (tmp_path / "out" / "fills.csv").is_file()


@pytest.mark.parametrize("command", ["solve", "simulate", "simulate --data", "report",
                                     "basic-post", "basic-post --data", "example1"])
def test_no_command_leaves_a_file_open(inputs, tmp_path, command):
    """``main`` ends the process without the interpreter's teardown, which
    would flush and close a file left open: each command closes its own."""
    argv = _argv(command, inputs, str(tmp_path / "out"))
    if command == "simulate --data":
        argv += ["--snapshots", "3"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert cli_main(argv) == 0
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def _tree(root):
    """Every file under ``root``, by its path relative to it, with its bytes."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_line_ends_of_the_inputs_change_no_output(inputs, tmp_path):
    """The LOB CSV and the policy file spelled with CRLF or lone-CR line
    ends give every output file of their LF spelling, byte for byte."""
    lob = (inputs / "lob.csv").read_bytes()
    policy = (inputs / "solve" / "policy.csv").read_bytes()
    assert b"\r" not in lob + policy
    trees = {}
    for name, end in [("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")]:
        root = tmp_path / name
        root.mkdir()
        (root / "lob.csv").write_bytes(lob.replace(b"\n", end))
        (root / "policy.csv").write_bytes(policy.replace(b"\n", end))
        data, policy_at = ["--data", str(root / "lob.csv")], ["--policy", str(root / "policy.csv")]
        for out, argv in [
            ("improved", ["simulate", *policy_at, *data, "--mode", "improved", "--snapshots", "2"]),
            ("benchmark", ["simulate", *policy_at, *data, "--mode", "benchmark",
                           "--snapshots", "2"]),
            ("synthetic", ["simulate", *policy_at, "--windows", "2"]),
            ("basic_post", ["basic-post", *data]),
        ]:
            assert cli_main([*argv, "--out", str(root / "out" / out)]) == 0, (name, out)
        trees[name] = _tree(root / "out")
    assert {"improved/snapshot_1.csv", "basic_post/fills.csv"} <= set(trees["lf"])
    assert trees["crlf"] == trees["lf"]
    assert trees["cr"] == trees["lf"]


# (function on mmsim.cli, a command that calls it, the arguments read by name)
WRAPPED = [
    ("parse_lob_csv", "simulate --data", ()),
    ("parse_lob_csv", "basic-post --data", ()),
    ("resample_forward_fill", "simulate --data", ()),
    ("resample_forward_fill", "basic-post --data", ()),
    ("synthetic_quotes", "simulate", ()),
    ("synthetic_quotes", "basic-post", ()),
    ("solve_dpe", "solve", ("grid",)),
    ("extract_policy", "solve", ()),
    ("export_surface_csv", "solve", ("path",)),
    ("export_policy_csv", "solve", ("path",)),
    ("load_policy_csv", "simulate", ()),
    ("run_batch", "simulate", ("mode", "params")),
    ("write_batch_wealth_csv", "simulate", ()),
    ("write_snapshot_csv", "simulate", ()),
    ("write_fill_log", "simulate", ("fills",)),
    ("write_fill_log", "basic-post", ("fills",)),
]


@pytest.mark.parametrize("name, command, read", WRAPPED,
                         ids=[f"{name}-{command}" for name, command, _ in WRAPPED])
def test_a_wrapper_set_on_the_cli_module_sees_the_call(inputs, tmp_path, monkeypatch,
                                                      name, command, read):
    original = getattr(mmsim.cli, name)
    signature = inspect.signature(original)
    calls = []

    def spy(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        calls.append(call.arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(mmsim.cli, name, spy)
    assert cli_main(_argv(command, inputs, str(tmp_path / "out"))) == 0
    assert calls
    for arguments in calls:
        assert set(read) <= set(arguments)
    if "path" in read:
        assert Path(calls[0]["path"]).is_file()


def test_simulate_reads_its_snapshots_off_its_one_batch(inputs, tmp_path, monkeypatch):
    calls = {"run_batch": 0, "run_simulation": 0}
    for name in calls:
        def spy(*args, _name=name, _original=getattr(mmsim.cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(mmsim.cli, name, spy)
    out = tmp_path / "out"
    assert cli_main([*_argv("simulate", inputs, str(out)), "--snapshots", "2"]) == 0
    assert calls == {"run_batch": 1, "run_simulation": 0}
    assert (out / "snapshot_1.csv").is_file()


# each command's option strings: an option no command reads shows up here
OPTIONS = {
    "solve": {"--config", "--out"},
    "simulate": {"--seed", "--config", "--out", "--policy", "--mode", "--data", "--windows",
                 "--snapshots"},
    "report": {"--out", "--in", "--bins"},
    "basic-post": {"--seed", "--config", "--out", "--data", "--steps", "--contract",
                   "--offset-ticks", "--tick", "--date"},
    "example1": {"--seed", "--out", "--steps", "--walk-p", "--date"},
}


def test_each_command_takes_the_options_of_its_table():
    parser = mmsim.cli._build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == set(OPTIONS)
    for name, command in commands.items():
        taken = {s for action in command._actions for s in action.option_strings}
        assert taken - {"-h", "--help"} == OPTIONS[name], name


@pytest.mark.parametrize("argv, message", [
    (["solve", "--seed", "3"], "unrecognized arguments"),
    (["report", "--seed", "3"], "unrecognized arguments"),
    (["report", "--config", "default"], "unrecognized arguments"),
    (["example1", "--config", "default"], "unrecognized arguments"),
    # a recorded session sets its own length
    (["simulate", "--data", "lob.csv", "--windows", "2"],
     "argument --windows: not allowed with argument --data"),
    (["basic-post", "--data", "lob.csv", "--steps", "7"],
     "argument --steps: not allowed with argument --data"),
], ids=["solve --seed", "report --seed", "report --config", "example1 --config",
        "simulate --data --windows", "basic-post --data --steps"])
def test_an_option_the_command_does_not_read_is_a_usage_error(inputs, tmp_path, capsys, argv,
                                                              message):
    out = tmp_path / "out"
    argv = [str(inputs / arg) if arg == "lob.csv" else arg for arg in argv]
    extra = {"report": ["--in", str(inputs / "run")],
             "simulate": ["--policy", str(inputs / "solve" / "policy.csv")]}.get(argv[0], [])
    assert cli_main([*argv, *extra, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_solve_prints_h_and_the_policys_value_at_the_origin(tmp_path, capsys):
    assert cli_main(["solve", "--out", str(tmp_path / "solve")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "h(0,0,0) = 0.777263; the policy's value there = 0.754531")
    assert sorted(p.name for p in (tmp_path / "solve").iterdir()) == ["policy.csv", "surface.csv"]


def test_a_config_sets_the_grid_by_its_half_width_alone(tmp_path, capsys):
    config = tmp_path / "wide.cfg"
    config.write_text("alpha_max = 0.06\n", encoding="utf-8")
    assert cli_main(["solve", "--config", str(config), "--out", str(tmp_path / "wide")]) == 0
    nodes = mmsim.solver.load_policy_csv(tmp_path / "wide" / "policy.csv").alpha_nodes
    assert (nodes.size, nodes[0], nodes[-1]) == (51, -0.06, 0.06)
    # the grid's lower end is no key of its own
    config.write_text("rho = 0.1\nalpha_min = -0.06\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["solve", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ConfigParseError: line 2: unknown key 'alpha_min'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "simulate", "basic-post"])
def test_a_jump_past_the_grid_exits_1_in_every_command_that_reads_a_config(
    inputs, tmp_path, capsys, command
):
    # 0.05 lands more than one cell (0.0016) past a 51-node grid's 0.04
    config = tmp_path / "jump.cfg"
    config.write_text("eps_plus = 0.05\nalpha_max = 0.04\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main([*_argv(command, inputs, str(out)), "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith(
        "ValidationError: GridTooCoarse: drift jump 0.05 exceeds the grid half-width 0.04")
    assert not out.exists()


def test_a_step_under_a_nanosecond_exits_1_on_recorded_data(inputs, tmp_path, capsys):
    # the config admits dt = 1e-10 s, but it rounds to a 0 ns resampling step
    config = tmp_path / "fine_dt.cfg"
    config.write_text("dt = 1e-10\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main([*_argv("basic-post --data", inputs, str(out)), "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        "ValueError: dt 1e-10 s is under the timestamps' 1 ns resolution\n")
    assert not out.exists()


def test_a_step_rounded_to_whole_nanoseconds_exits_1_on_recorded_data(tmp_path, capsys):
    # dt = 1.5 ns resamples two records 30 ns apart every 2 ns, which is not the
    # config's dt; the 16 samples would hold one 10-step window
    cells = np.full((2, len(LOB_COLUMNS)), np.nan)
    cells[:, LOB_COLUMNS.index("bid_px_1")] = 100.0
    cells[:, LOB_COLUMNS.index("ask_px_1")] = 100.01
    (tmp_path / "lob.csv").write_text(
        render_lob_csv(LOBBook(ts=np.array([10**9, 10**9 + 30]), cells=cells)), encoding="utf-8")
    config = tmp_path / "ns_dt.cfg"
    config.write_text("dt = 1.5e-9\nhorizon = 1.5e-8\n", encoding="utf-8")
    assert cli_main(["solve", "--config", str(config), "--out", str(tmp_path / "solve")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli_main([*_argv("simulate --data", tmp_path, str(out)), "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        "ValueError: series sampled every 2e-09 s, but the config's dt is 1.5e-09 s\n")
    assert not out.exists()


def test_simulate_rejects_a_policy_on_uneven_nodes(inputs, tmp_path, capsys):
    policy = mmsim.solver.load_policy_csv(inputs / "solve" / "policy.csv")
    policy.alpha_nodes[1] = (policy.alpha_nodes[0] + policy.alpha_nodes[1]) / 2
    mmsim.solver.export_policy_csv(policy, tmp_path / "uneven.csv")
    out = tmp_path / "out"
    argv = _argv("simulate", inputs, str(out))
    argv[argv.index("--policy") + 1] = str(tmp_path / "uneven.csv")
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == (
        "PolicyShapeMismatchError: policy alpha nodes must be non-empty, finite, "
        "strictly increasing and evenly spaced\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate --data", "basic-post --data"])
def test_a_one_sided_sample_is_named_with_its_time(inputs, tmp_path, capsys, command):
    book = _book()
    cells = book.cells.copy()
    cells[150:160, LOB_COLUMNS.index("ask_px_1")] = np.nan
    lob = tmp_path / "one_sided.csv"
    lob.write_text(render_lob_csv(LOBBook(ts=book.ts, cells=cells)), encoding="utf-8")
    out = tmp_path / "out"
    argv = _argv(command, inputs, str(out))
    argv[argv.index("--data") + 1] = str(lob)
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValueError: non-finite quotes: every sample needs a bid and an ask; "
                          f"sample 150 at ts {book.ts[150]} has bid ")
    assert err.endswith(" and ask nan\n")
    assert not out.exists()

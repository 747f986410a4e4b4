import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.cli import cli_main
from mmsim.fills import FillColumns, FillCounters, FillEvent, FillKind, Side
from mmsim.reporting import (
    EmptyValuesError,
    counters_from_fills,
    read_batch_wealth_csv,
    summarize_fills,
    terminal_cash_histogram,
    write_histogram_csv,
)


def test_histogram_degenerate_single_bin():
    hist = terminal_cash_histogram([1.0, 1.0, 1.0], 1)
    assert hist.counts.tolist() == [3]
    assert hist.bin_edges[1] - hist.bin_edges[0] == pytest.approx(1.0)


def test_histogram_hand_binned():
    hist = terminal_cash_histogram([0.0, 1.0, 2.0, 3.0], 2)
    assert hist.counts.tolist() == [2, 2]
    assert hist.bin_edges.tolist() == [0.0, 1.5, 3.0]


def test_histogram_max_lands_in_last_bin():
    hist = terminal_cash_histogram([0.0, 10.0], 5)
    assert hist.counts[-1] == 1


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=60)
def test_histogram_conserves_mass(values, n_bins):
    hist = terminal_cash_histogram(values, n_bins)
    assert hist.counts.sum() == len(values)
    assert hist.counts.size == hist.bin_edges.size - 1


def test_histogram_rejects_bad_input():
    with pytest.raises(EmptyValuesError):
        terminal_cash_histogram([], 3)
    with pytest.raises(ValueError):
        terminal_cash_histogram([1.0], 0)


def test_summarize_zero_and_passthrough():
    assert summarize_fills(FillCounters()) == [
        ("AFA", 0), ("NFA", 0), ("AFB", 0), ("NFB", 0)
    ]
    rows = summarize_fills(FillCounters(afa=2, nfa=1, afb=3, nfb=4))
    assert rows == [("AFA", 2), ("NFA", 1), ("AFB", 3), ("NFB", 4)]


def test_counters_from_fills_matches_kinds():
    fills = [
        FillEvent(0, Side.ASK, 1.0, FillKind.ADVERSE),
        FillEvent(1, Side.ASK, 1.0, FillKind.NON_ADVERSE),
        FillEvent(2, Side.BID, 1.0, FillKind.ADVERSE),
        FillEvent(3, Side.BID, 1.0, FillKind.ADVERSE),
    ]
    c = counters_from_fills(FillColumns.from_events(fills))
    assert (c.afa, c.nfa, c.afb, c.nfb) == (1, 1, 2, 0)


def test_histogram_csv_round_trip(tmp_path):
    hist = terminal_cash_histogram([0.0, 0.5, 1.0, 2.0], 2)
    path = tmp_path / "histogram.csv"
    write_histogram_csv(hist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 3


def _run(args):
    return cli_main([str(a) for a in args])


def test_cli_pipeline_round_trip(tmp_path):
    solve_dir = tmp_path / "solve"
    run_dir = tmp_path / "run"
    assert _run(["solve", "--config", "default", "--out", solve_dir]) == 0
    assert (solve_dir / "surface.csv").exists()
    assert (solve_dir / "policy.csv").exists()

    assert _run([
        "simulate", "--policy", solve_dir / "policy.csv", "--mode", "benchmark",
        "--windows", 3, "--seed", 5, "--out", run_dir,
    ]) == 0
    assert (run_dir / "batch_wealth.csv").exists()
    assert (run_dir / "fills.csv").exists()
    assert (run_dir / "snapshot_0.csv").exists()

    assert _run(["report", "--in", run_dir, "--out", run_dir, "--bins", 7]) == 0
    wealths, objectives = read_batch_wealth_csv(run_dir / "batch_wealth.csv")
    assert wealths.shape == (3,)
    hist_lines = (run_dir / "histogram.csv").read_text().splitlines()
    assert len(hist_lines) == 8
    summary = (run_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "fill_type,count"
    assert [row.split(",")[0] for row in summary[1:]] == ["AFA", "NFA", "AFB", "NFB"]
    # benchmark mode: adverse rows stay zero
    assert summary[1] == "AFA,0" and summary[3] == "AFB,0"


def test_cli_simulate_without_policy_fails_validation(tmp_path, capsys):
    assert _run(["simulate", "--out", tmp_path]) == 1
    assert "PolicyShapeMismatchError" in capsys.readouterr().err


def test_cli_bad_config_value_fails_validation(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("delta = -0.01\n")
    assert _run(["solve", "--config", cfg, "--out", tmp_path]) == 1
    assert "SpreadNonPositive" in capsys.readouterr().err


def test_cli_overflowing_step_count_fails_validation(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("horizon = 1e308\ndt = 1e-308\n")
    assert _run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 1
    assert "InconsistentHorizon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_cli_integer_cell_past_int64_fails_validation(tmp_path, capsys, command):
    # a t_index one past the int64 range, in the policy or in the fill log
    big = 2**63
    (tmp_path / "policy.csv").write_text(f"t_index,alpha,q,post_bid,post_ask\n{big},0.0,0,1,1\n")
    (tmp_path / "batch_wealth.csv").write_text("window,terminal_wealth,objective\n0,1.0,1.0\n")
    (tmp_path / "fills.csv").write_text(f"t_index,side,price,kind\n{big},bid,99.99,adverse\n")
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", "--policy", tmp_path / "policy.csv", "--windows", 2,
                     "--out", out],
        "report": ["report", "--in", tmp_path, "--out", out],
    }[command]
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("OverflowError: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("table", ["batch_wealth", "fills"])
def test_cli_report_names_the_bad_cell(tmp_path, capsys, table):
    # a text in data row 2 of batch_wealth.csv, or a t_index of 1x in fills.csv
    wealth = {"batch_wealth": "abc", "fills": "2.0"}[table]
    t_index = {"batch_wealth": "1", "fills": "1x"}[table]
    (tmp_path / "batch_wealth.csv").write_text(
        f"window,terminal_wealth,objective\n0,1.0,1.0\n1,{wealth},1.0\n")
    (tmp_path / "fills.csv").write_text(
        f"t_index,side,price,kind\n0,bid,99.99,adverse\n{t_index},ask,100.01,adverse\n")
    out = tmp_path / "out"
    assert _run(["report", "--in", tmp_path, "--out", out]) == 1
    err = capsys.readouterr().err
    column, text = {"batch_wealth": ("terminal_wealth", "abc"), "fills": ("t_index", "1x")}[table]
    assert err.startswith(f"ValueError: {tmp_path / f'{table}.csv'}: data row 2 has {column} "
                          f"'{text}', ")
    assert not out.exists()


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("table,column", [("batch_wealth", "terminal_wealth"),
                                          ("batch_wealth", "objective"), ("fills", "price")])
def test_cli_report_rejects_a_non_finite_cell(tmp_path, capsys, text, table, column):
    # the cell of data row 2 in the named column; every other cell is finite
    wealth = {"terminal_wealth": f"{text},1.0", "objective": f"1.0,{text}"}.get(column, "2.0,1.0")
    price = text if column == "price" else "100.01"
    (tmp_path / "batch_wealth.csv").write_text(
        f"window,terminal_wealth,objective\n0,1.0,1.0\n1,{wealth}\n")
    (tmp_path / "fills.csv").write_text(
        f"t_index,side,price,kind\n0,bid,99.99,adverse\n1,ask,{price},adverse\n")
    out = tmp_path / "out"
    assert _run(["report", "--in", tmp_path, "--out", out]) == 1
    assert capsys.readouterr().err == (f"ValueError: {tmp_path / f'{table}.csv'}: data row 2 "
                                       f"has {column} '{text}', not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("windows,row,text",
                         [("0,2,1", 2, "2"), ("1,2", 1, "1"), ("0,1,1", 3, "1")])
def test_batch_wealth_windows_run_from_0_in_order(tmp_path, windows, row, text):
    path = tmp_path / "batch_wealth.csv"
    path.write_text("window,terminal_wealth,objective\n"
                    + "".join(f"{w},1.0,1.0\n" for w in windows.split(",")))
    with pytest.raises(ValueError) as err:
        read_batch_wealth_csv(path)
    assert str(err.value) == (f"{path}: data row {row} has window '{text}', "
                              f"not {row - 1}: windows run 0..n-1 in order")


@pytest.mark.parametrize("table,cells,row,column,text", [
    ("batch_wealth", "abc,7", 1, "window", "abc"),
    ("batch_wealth", "0,7", 2, "window", "7"),
    ("fills", "5,-3", 2, "t_index", "-3"),
])
def test_cli_report_rejects_tables_simulate_never_writes(tmp_path, capsys, table, cells, row,
                                                         column, text):
    windows, t_index = (cells, "5,6") if table == "batch_wealth" else ("0,1", cells)
    (tmp_path / "batch_wealth.csv").write_text("window,terminal_wealth,objective\n" + "".join(
        f"{w},1.0,1.0\n" for w in windows.split(",")))
    (tmp_path / "fills.csv").write_text("t_index,side,price,kind\n" + "".join(
        f"{t},bid,99.99,adverse\n" for t in t_index.split(",")))
    out = tmp_path / "out"
    assert _run(["report", "--in", tmp_path, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(
        f"ValueError: {tmp_path / f'{table}.csv'}: data row {row} has {column} '{text}', ")
    assert not out.exists()


def test_cli_example1_checks_its_inputs_before_an_empty_run(tmp_path, capsys):
    out = tmp_path / "e1"
    assert _run(["example1", "--steps", 0, "--walk-p", 0.9, "--out", out]) == 1
    assert "walk_p" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bins", [0, -2])
def test_cli_report_rejects_a_bin_count_below_one_before_writing(tmp_path, capsys, bins):
    (tmp_path / "batch_wealth.csv").write_text("window,terminal_wealth,objective\n0,1.0,1.0\n")
    (tmp_path / "fills.csv").write_text("t_index,side,price,kind\n3,bid,99.99,adverse\n")
    out = tmp_path / "out"
    assert _run(["report", "--in", tmp_path, "--out", out, "--bins", bins]) == 1
    assert f"--bins must be >= 1, got {bins}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_report_of_a_run_without_windows_writes_nothing(tmp_path, capsys):
    (tmp_path / "batch_wealth.csv").write_text("window,terminal_wealth,objective\n")
    (tmp_path / "fills.csv").write_text("t_index,side,price,kind\n")
    out = tmp_path / "out"
    assert _run(["report", "--in", tmp_path, "--out", out]) == 1
    assert "EmptyValuesError: no terminal values to bin" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("steps", [-1, -5])
def test_cli_example1_rejects_a_negative_step_count(tmp_path, capsys, steps):
    out = tmp_path / "e1"
    assert _run(["example1", "--steps", steps, "--out", out]) == 1
    assert f"--steps must be >= 0, got {steps}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("steps", [0, -3])
def test_cli_basic_post_rejects_a_step_count_below_one(tmp_path, capsys, steps):
    out = tmp_path / "bp"
    assert _run(["basic-post", "--steps", steps, "--out", out]) == 1
    assert f"--steps must be >= 1, got {steps}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_file_is_io_error(tmp_path, capsys):
    code = _run(["solve", "--config", tmp_path / "nope.cfg", "--out", tmp_path])
    assert code == 2


def test_cli_usage_error_exits_nonzero(tmp_path):
    assert _run(["simulate", "--mode", "sideways", "--out", tmp_path]) == 2


def test_cli_basic_post_and_example1(tmp_path):
    bp = tmp_path / "bp"
    assert _run(["basic-post", "--contract", "ZN", "--steps", 400, "--seed", 2,
                 "--out", bp]) == 0
    summary = (bp / "summary.csv").read_text().splitlines()
    assert summary[0] == "date,contract,total,adverse,non_adverse"
    assert ",ZN," in summary[1]

    e1 = tmp_path / "e1"
    assert _run(["example1", "--steps", 250, "--seed", 7, "--out", e1]) == 0
    fills = (e1 / "fills.csv").read_text().splitlines()
    assert len(fills) == 251

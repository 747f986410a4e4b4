"""The CSV layout every output table shares, pinned byte for byte, and the
readers' rejection of malformed tables."""

import numpy as np
import pytest

from mmsim import table
from mmsim.basic_poster import FillTypeSummary, write_fill_summary_csv
from mmsim.cli import cli_main
from mmsim.fills import (
    FillColumns,
    FillCounters,
    FillEvent,
    FillKind,
    Side,
    read_fill_log,
    write_fill_log,
)
from mmsim.market_data import PriceSeries
from mmsim.reporting import (
    Histogram,
    read_batch_wealth_csv,
    write_fill_type_summary_csv,
    write_histogram_csv,
)
from mmsim.simulator import BatchResult, SimResult, write_batch_wealth_csv, write_snapshot_csv
from mmsim.solver import (
    PostingPolicy,
    ValueSurface,
    export_policy_csv,
    export_surface_csv,
    load_policy_csv,
)

ALPHA = np.array([-2.5, 1e-17, 0.1])
Q = np.arange(-1, 2)


def _policy() -> PostingPolicy:
    ask = np.zeros((2, 3, 3), dtype=bool)
    ask[:, :, 1:] = True
    ask[1, 0, 2] = False
    bid = np.zeros((2, 3, 3), dtype=bool)
    bid[:, :, :-1] = True
    bid[0, 2, 0] = False
    return PostingPolicy(post_ask=ask, post_bid=bid, alpha_nodes=ALPHA, q_nodes=Q)


def _surface() -> ValueSurface:
    h = np.array([0.1, 1e-17, -2.5, 0.1 + 0.2, 3.0, -0.0, 1e16, 123.456, -7.0] * 2)
    h = h.reshape(2, 3, 3)
    h[1] *= -1
    return ValueSurface(h=h, alpha_nodes=ALPHA, q_nodes=Q, params_fingerprint="")


FILLS = [
    FillEvent(1, Side.ASK, 100.02, FillKind.ADVERSE),
    FillEvent(1, Side.BID, 100.0, FillKind.NON_ADVERSE),
    FillEvent(0, Side.BID, 99.99, FillKind.NON_ADVERSE),
]


def _snapshot(path):
    series = PriceSeries(
        t0=0, dt=1.0, bid=np.array([99.99, 100.0, 99.98]), ask=np.array([100.01, 100.02, 100.0]),
        level1_bid_sz=np.ones(3), level1_ask_sz=np.ones(3),
    )
    result = SimResult(
        inventory=np.array([0, 1, 1]), cash=np.array([0.0, -99.99, -99.97]),
        wealth=np.array([0.0, 0.02, 0.1]), fills=FILLS,
        posted_bid=np.array([True, True]), posted_ask=np.array([False, True]),
        counters=FillCounters(), terminal_wealth=0.1, objective=0.1,
    )
    write_snapshot_csv(result, series, path)


POLICY_ROWS = """\
0,-2.5,-1,1,0
0,-2.5,0,1,1
0,-2.5,1,0,1
0,1e-17,-1,1,0
0,1e-17,0,1,1
0,1e-17,1,0,1
0,0.1,-1,0,0
0,0.1,0,1,1
0,0.1,1,0,1
1,-2.5,-1,1,0
1,-2.5,0,1,1
1,-2.5,1,0,0
1,1e-17,-1,1,0
1,1e-17,0,1,1
1,1e-17,1,0,1
1,0.1,-1,1,0
1,0.1,0,1,1
1,0.1,1,0,1
"""

SURFACE = """\
t_index,alpha,q,h,post_bid,post_ask
0,-2.5,-1,0.1,1,0
0,-2.5,0,1e-17,1,1
0,-2.5,1,-2.5,0,1
0,1e-17,-1,0.30000000000000004,1,0
0,1e-17,0,3.0,1,1
0,1e-17,1,-0.0,0,1
0,0.1,-1,1e+16,0,0
0,0.1,0,123.456,1,1
0,0.1,1,-7.0,0,1
1,-2.5,-1,-0.1,1,0
1,-2.5,0,-1e-17,1,1
1,-2.5,1,2.5,0,0
1,1e-17,-1,-0.30000000000000004,1,0
1,1e-17,0,-3.0,1,1
1,1e-17,1,0.0,0,1
1,0.1,-1,-1e+16,1,0
1,0.1,0,-123.456,1,1
1,0.1,1,7.0,0,1
"""

WRITERS = {
    "surface": (
        lambda path: export_surface_csv(_surface(), _policy(), path),
        SURFACE,
    ),
    "policy": (
        lambda path: export_policy_csv(_policy(), path),
        "t_index,alpha,q,post_bid,post_ask\n" + POLICY_ROWS,
    ),
    "snapshot": (
        _snapshot,
        "t_index,bid,ask,mid,posted_bid,posted_ask,fill_side,fill_kind,q,cash,wealth\n"
        "0,99.99,100.01,100.0,1,0,bid,non_adverse,0,0.0,0.0\n"
        "1,100.0,100.02,100.00999999999999,1,1,ask;bid,adverse;non_adverse,1,-99.99,0.02\n"
        "2,99.98,100.0,99.99000000000001,,,,,1,-99.97,0.1\n",
    ),
    "batch_wealth": (
        lambda path: write_batch_wealth_csv(
            BatchResult(terminal_wealths=np.array([0.1, -2.5]),
                        objectives=np.array([1e-17, 0.1 + 0.2]),
                        fill_totals=FillCounters(), n_paths=2,
                        fills=FillColumns.from_events([])),
            path,
        ),
        "window,terminal_wealth,objective\n0,0.1,1e-17\n1,-2.5,0.30000000000000004\n",
    ),
    "fill_log": (
        lambda path: write_fill_log(FillColumns.from_events(FILLS), path),
        "t_index,side,price,kind\n"
        "1,ask,100.02,adverse\n1,bid,100.0,non_adverse\n0,bid,99.99,non_adverse\n",
    ),
    "fill_log_empty": (
        lambda path: write_fill_log(FillColumns.from_events([]), path),
        "t_index,side,price,kind\n",
    ),
    "histogram": (
        lambda path: write_histogram_csv(
            Histogram(bin_edges=np.array([-2.5, 1e-17, 0.1]), counts=np.array([3, 0])), path
        ),
        "bin_lo,bin_hi,count\n-2.5,1e-17,3\n1e-17,0.1,0\n",
    ),
    "fill_type_summary": (
        lambda path: write_fill_type_summary_csv(
            [("AFA", 1), ("NFA", 0), ("AFB", 2), ("NFB", 5)], path
        ),
        "fill_type,count\nAFA,1\nNFA,0\nAFB,2\nNFB,5\n",
    ),
    "fill_summary": (
        lambda path: write_fill_summary_csv(
            [("2024-01-02", "CL", FillTypeSummary(5, 2, 3)),
             ("synthetic", "ZN", FillTypeSummary(0, 0, 0))],
            path,
        ),
        "date,contract,total,adverse,non_adverse\n2024-01-02,CL,5,2,3\nsynthetic,ZN,0,0,0\n",
    ),
}


@pytest.mark.parametrize("block_rows", [2, table.BLOCK_ROWS])
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_format_is_pinned(tmp_path, monkeypatch, name, block_rows):
    monkeypatch.setattr(table, "BLOCK_ROWS", block_rows)
    write, expected = WRITERS[name]
    path = tmp_path / f"{name}.csv"
    write(path)
    assert path.read_bytes() == expected.encode()


def test_writers_round_trip_through_readers(tmp_path):
    WRITERS["fill_log"][0](tmp_path / "fills.csv")
    fills, want = read_fill_log(tmp_path / "fills.csv"), FillColumns.from_events(FILLS)
    assert fills.t_index.tolist() == want.t_index.tolist()
    assert fills.is_ask.tolist() == want.is_ask.tolist()
    assert fills.price.tolist() == want.price.tolist()
    assert fills.is_adverse.tolist() == want.is_adverse.tolist()
    WRITERS["batch_wealth"][0](tmp_path / "batch_wealth.csv")
    wealths, objectives = read_batch_wealth_csv(tmp_path / "batch_wealth.csv")
    assert wealths.tolist() == [0.1, -2.5] and objectives.tolist() == [1e-17, 0.1 + 0.2]
    for name in ("surface", "policy"):
        WRITERS[name][0](tmp_path / f"{name}.csv")
        loaded = load_policy_csv(tmp_path / f"{name}.csv")
        assert np.array_equal(loaded.post_ask, _policy().post_ask)
        assert np.array_equal(loaded.post_bid, _policy().post_bid)
        assert loaded.alpha_nodes.tolist() == ALPHA.tolist()


@pytest.mark.parametrize("text", [
    "t_index,side,price\n1,ask,100.02\n",  # wrong header
    "t_index,side,price,kind\n1,ask,100.02,adverse\n1,bid,100.0\n",  # short row
])
def test_read_fill_log_rejects(tmp_path, text):
    path = tmp_path / "fills.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_fill_log(path)


@pytest.mark.parametrize("text", [
    "window,wealth,objective\n0,0.1,0.2\n",  # wrong header
    "window,terminal_wealth,objective\n0,0.1,0.2\n1,0.3\n",  # short row
])
def test_read_batch_wealth_csv_rejects(tmp_path, text):
    path = tmp_path / "batch_wealth.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_batch_wealth_csv(path)


@pytest.mark.parametrize("edits", [
    {4: "0,1e-17,0,1"},  # short row
    # a short row, then a long one that makes up the field total and parses
    {4: "0,1e-17,0,1", 5: "0,0,1e-17,1,0,1"},
])
def test_load_policy_csv_rejects_ragged_rows(tmp_path, edits):
    rows = POLICY_ROWS.splitlines()
    for i, row in edits.items():
        rows[i] = row
    path = tmp_path / "policy.csv"
    path.write_text("t_index,alpha,q,post_bid,post_ask\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        load_policy_csv(path)


def test_report_rejects_short_fill_row(tmp_path, capsys):
    WRITERS["batch_wealth"][0](tmp_path / "batch_wealth.csv")
    (tmp_path / "fills.csv").write_text("t_index,side,price,kind\n1,ask,100.02\n")
    out = tmp_path / "out"
    assert cli_main(["report", "--in", str(tmp_path), "--out", str(out)]) == 1
    assert "ValueError" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("row", ["1,buy,100.02,adverse", "1,ask,100.02,toxic"])
def test_report_rejects_unknown_side_or_kind(tmp_path, capsys, row):
    WRITERS["batch_wealth"][0](tmp_path / "batch_wealth.csv")
    (tmp_path / "fills.csv").write_text(f"t_index,side,price,kind\n0,bid,99.99,adverse\n{row}\n")
    out = tmp_path / "out"
    assert cli_main(["report", "--in", str(tmp_path), "--out", str(out)]) == 1
    assert "ValueError" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_read_table_ignores_blank_lines_and_cr_and_names_the_bad_row(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("a,b\n1,x\n2,y\n3,z\n", newline="")
    crlf = tmp_path / "crlf.csv"
    crlf.write_text("a,b\r\n1,x\r\n\r\n2,y\r\n\n3,z\r\n\r\n", newline="")
    assert table.read_table(crlf) == table.read_table(plain) == (
        ["a", "b"], [["1", "2", "3"], ["x", "y", "z"]])
    # data rows count without the blank lines
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\r\n1,x\r\n\r\n2,y,extra\r\n3\r\n", newline="")
    with pytest.raises(ValueError, match="data row 2 has 3 fields, the header 2"):
        table.read_table(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b\n\n")
    assert table.read_table(empty) == (["a", "b"], [[], []])

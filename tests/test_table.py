"""The CSV layout every output table shares, pinned byte for byte, and the
readers' rejection of malformed tables."""

import math
import stat
import string
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# in step order, as a simulator writes them and read_fill_log requires
FILLS = [
    FillEvent(0, Side.BID, 99.99, FillKind.NON_ADVERSE),
    FillEvent(1, Side.ASK, 100.02, FillKind.ADVERSE),
    FillEvent(1, Side.BID, 100.0, FillKind.NON_ADVERSE),
]


def _snapshot(path):
    series = PriceSeries(
        t0=0, dt=1.0, bid=np.array([99.99, 100.0, 99.98]), ask=np.array([100.01, 100.02, 100.0]),
        level1_bid_sz=np.ones(3), level1_ask_sz=np.ones(3),
    )
    result = SimResult(
        inventory=np.array([0, 1, 1]), cash=np.array([0.0, -99.99, -99.97]),
        wealth=np.array([0.0, 0.02, 0.1]),
        fills=FillColumns.from_events(FILLS),
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
                        fills=FillColumns.from_events([]),
                        codes=np.zeros((2, 1), dtype=np.uint8)),
            path,
        ),
        "window,terminal_wealth,objective\n0,0.1,1e-17\n1,-2.5,0.30000000000000004\n",
    ),
    "fill_log": (
        lambda path: write_fill_log(FillColumns.from_events(FILLS), path),
        "t_index,side,price,kind\n"
        "0,bid,99.99,non_adverse\n1,ask,100.02,adverse\n1,bid,100.0,non_adverse\n",
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


@pytest.mark.parametrize("date", ["2024-01-02,x", "2024-01-02\nx", "2024-01-02\rx"])
def test_example1_rejects_a_date_that_would_split_its_row(tmp_path, capsys, date):
    out = tmp_path / "out"
    assert cli_main(["example1", "--steps", "50", "--date", date, "--out", str(out)]) == 1
    assert "ValueError" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()
    with pytest.raises(ValueError, match="holds a ',', LF or CR"):
        table.write_table(tmp_path / "t.csv", ["a", "b"], [[1, 2], ["ok", date]])


@pytest.mark.parametrize("date", ["2024-01-02,x", "2024-01-02\nx", "2024-01-02\rx"])
@pytest.mark.parametrize("command", [["basic-post", "--steps", "500"], ["example1", "--steps", "50"]])
def test_a_rejected_date_leaves_the_out_directory_empty(tmp_path, capsys, command, date):
    """The date is checked before any file is written: no fills.csv, no
    summary.csv, and write_table's message."""
    out = tmp_path / "out"
    assert cli_main([*command, "--date", date, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"ValueError: cell {date!r} holds a ',', LF or CR, which would split its row\n"
    assert not out.exists() or not any(out.iterdir())


def test_write_table_replaces_its_file_only_when_complete(tmp_path, monkeypatch):
    """A cell rejected after a block is written leaves the earlier table
    as it was, and no temporary file beside it."""
    monkeypatch.setattr(table, "BLOCK_ROWS", 1)
    path = tmp_path / "t.csv"
    table.write_table(path, ["a", "b"], [[1], ["ok"]])
    with pytest.raises(ValueError, match="holds a ',', LF or CR"):
        table.write_table(path, ["a", "b"], [[1, 2], ["ok", "x,y"]])
    assert path.read_text() == "a,b\n1,ok\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_write_table_writes_through_a_symlink_and_keeps_the_mode(tmp_path):
    target = tmp_path / "t.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    table.write_table(link, ["a"], [[1]])
    assert link.is_symlink()
    assert target.read_text() == "a\n1\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "t.csv"]


def test_concurrent_writes_of_one_path_each_leave_a_whole_table(tmp_path, monkeypatch):
    """Threads writing the same path use their own temporary files, so
    every write succeeds and the table left is one of the whole tables."""
    monkeypatch.setattr(table, "BLOCK_ROWS", 1)
    path = tmp_path / "t.csv"
    errors = []

    def write(value):
        try:
            for _ in range(30):
                table.write_table(path, ["a"], [[value] * 50])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(v,)) for v in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert path.read_text() in {"a\n" + "1\n" * 50, "a\n" + "2\n" * 50}
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def _texts(path):
    cells = table.read_cells(path)
    return cells.header, [cells.texts(name) for name in cells.header]


def test_read_cells_ignores_blank_lines_and_cr_and_names_the_bad_row(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("a,b\n1,x\n2,y\n3,z\n", newline="")
    crlf = tmp_path / "crlf.csv"
    crlf.write_text("a,b\r\n1,x\r\n\r\n2,y\r\n\n3,z\r\n\r\n", newline="")
    # lone CR line ends and a space: the file is normalised before the tokenizer
    lone_cr = tmp_path / "lone_cr.csv"
    lone_cr.write_text("a,b\r1,x\r\r2,y \r3,z\r", newline="")
    assert _texts(crlf) == _texts(plain) == _texts(lone_cr) == (
        ["a", "b"], [["1", "2", "3"], ["x", "y", "z"]])
    # data rows count without the blank lines
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\r\n1,x\r\n\r\n2,y,extra\r\n3\r\n", newline="")
    with pytest.raises(ValueError, match="data row 2 has 3 fields, the header 2"):
        table.read_cells(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b\n\n")
    assert _texts(empty) == (["a", "b"], [[], []])


def test_read_cells_of_a_table_ending_in_lf_deletes_no_cell_end(tmp_path, monkeypatch):
    def no_delete(*args, **kwargs):
        raise AssertionError("np.delete copies every cell end")

    plain = tmp_path / "plain.csv"
    plain.write_text("a,b\n1,x\n2,y\n", newline="")
    header = tmp_path / "header.csv"
    header.write_text("a,b\n", newline="")
    # no final LF, and trailing blank lines, read as before
    unended = tmp_path / "unended.csv"
    unended.write_text("a,b\n1,x\n2,y", newline="")
    blank = tmp_path / "blank.csv"
    blank.write_text("a,b\n1,x\n2,y\n\n\n", newline="")
    want = (["a", "b"], [["1", "2"], ["x", "y"]])
    assert _texts(unended) == _texts(blank) == want
    monkeypatch.setattr(np, "delete", no_delete)
    assert _texts(plain) == want
    assert _texts(header) == (["a", "b"], [[], []])
    assert _texts(unended) == want
    # the patch is live: the blank lines' separators are still deleted
    with pytest.raises(AssertionError, match="np.delete"):
        _texts(blank)


def test_read_cells_keeps_plus_and_non_ascii_bytes_in_their_cells(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n+1,\u00e9,\u0663.5\n2,\u00fc,1e+3\n", encoding="utf-8")
    cells = table.read_cells(path)
    assert cells.ints("a").tolist() == [1, 2]
    assert cells.texts("b") == ["\u00e9", "\u00fc"]
    assert cells.floats("c").tolist() == [3.5, 1000.0]
    with pytest.raises(ValueError, match="could not convert string to float: '\u00e9'"):
        cells.floats("b")


def test_flags_match_a_text_longer_than_the_pad(tmp_path):
    long = "y" * table.PAD + "s"
    path = tmp_path / "t.csv"
    path.write_text(f"a\nyes\n{long}\n")
    cells = table.read_cells(path)
    assert cells.flags("a", long, "yes").tolist() == [False, True]
    # a cell that differs from it only after byte 24, or only before its
    # last 24 bytes, is reported by its data row
    for other in [long[:-1] + "z", "z" + long[1:]]:
        path.write_text(f"a\nyes\n{long}\n{other}\n")
        with pytest.raises(ValueError, match=f"data row 3 has a '{other}'"):
            table.read_cells(path).flags("a", long, "yes")


@pytest.mark.parametrize("mix", [table._DISTINCT_MIX, np.uint64(0)], ids=["hashed", "colliding"])
@given(texts=st.lists(st.one_of(st.sampled_from(["", "0", "-0", "1.5", "x" * 24, "y" + "x" * 24]),
                                st.text(alphabet="ab1-\u00e9", max_size=30)), max_size=40))
@settings(max_examples=100, deadline=None)
def test_distinct_cells_in_order_of_first_appearance(mix, texts):
    """Against a dict of the texts; a mix of 0 keys every short cell 0, so
    each collision must send the cells to the dict."""
    data = bytes(table.PAD) + "".join(text + "," for text in texts).encode("utf-8")
    width = np.array([len(text.encode("utf-8")) for text in texts], dtype=np.intp)
    ends = table.PAD + np.cumsum(width + 1) - 1
    ids = {}
    want = [ids.setdefault(text, len(ids)) for text in texts]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table, "_DISTINCT_MIX", mix)
        distinct, index = table.distinct_cells(data, ends, width)
    assert distinct == list(ids) and index.tolist() == want
    rows = len(texts) // 2
    distinct, index = table.distinct_cells(data, ends[:2 * rows].reshape(rows, 2),
                                           width[:2 * rows].reshape(rows, 2))
    assert index.shape == (rows, 2) and [distinct[i] for i in index.ravel()] == texts[:2 * rows]


# -- the tokenizer-backed readers against a per-text oracle ------------------

def _oracle_read_table(path):
    """The table read as text: rows split on whitespace, fields on commas."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = fh.read().split()
    for r, row in enumerate(rows):
        if row.count(",") != len(header) - 1:
            raise ValueError(f"{path}: data row {r + 1} has {row.count(',') + 1} fields, "
                             f"the header {len(header)}")
    fields = [row.split(",") for row in rows]
    return header, [[row[i] for row in fields] for i in range(len(header))]


class _OracleCells:
    """Columns converted one ``int()`` or ``float()`` per cell text; the
    first rejected cell raises naming its file, data row, column and text."""

    def __init__(self, path):
        self.path = path
        self.header, self._columns = _oracle_read_table(path)
        self.n_rows = len(self._columns[0])

    def texts(self, name):
        return self._columns[self.header.index(name)]

    def _values(self, name, convert):
        """Each cell's ``convert()``; a rejected text raises naming its row."""
        for r, text in enumerate(self.texts(name)):
            try:
                yield convert(text)
            except ValueError as exc:
                raise ValueError(
                    f"{self.path}: data row {r + 1} has {name} {text!r}, {exc}") from None

    def ints(self, name):
        return np.fromiter(self._values(name, int), np.int64, self.n_rows)

    def floats(self, name):
        def finite(text):
            if not math.isfinite(value := float(text)):
                raise ValueError("not finite")
            return value

        return np.fromiter(self._values(name, finite), np.float64, self.n_rows)

    def flags(self, name, true_text, false_text):
        for r, text in enumerate(self.texts(name)):
            if text not in (true_text, false_text):
                raise ValueError(f"{self.path}: data row {r + 1} has {name} {text!r}, "
                                 f"not {true_text!r} or {false_text!r}")
        return np.array([text == true_text for text in self.texts(name)], dtype=bool)


def _result(call):
    """A call's value as (dtype, bytes) or list, or its exception's class and message."""
    try:
        value = call()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    return value


def _spell_decimal(digits, dot, negative):
    text = str(digits)
    if dot <= len(text):
        text = text[:dot] + "." + text[dot:]
    return "-" + text if negative else text


_INT_CELLS = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(str),
    st.integers(-10**20, 10**20).map(str),
    st.builds(lambda zeros, v: "0" * zeros + str(v), st.integers(1, 4), st.integers(0, 999)),
    st.sampled_from(["-0", "", "1_000", "abc", "1.5", "-", "--1", "1-"]),
)
_PLAIN_CELLS = st.builds(_spell_decimal, st.integers(0, 10**7), st.integers(0, 9), st.booleans())
# rarely the "+" of a large exponent, which has the file normalised as text
_REPR_CELLS = st.one_of(st.floats(-1e15, 1e15).map(repr),
                        st.sampled_from(["nan", "inf", "-inf", "5e-324", "-0.0", "1e+16"]))
_FLAG_CELLS = st.one_of(st.sampled_from(["1", "0"]), st.sampled_from(["1", "0"]),
                        st.sampled_from(["1", "0"]), st.sampled_from(["2", "", "x", "01", "10"]))
_TEXT_CELLS = st.text(alphabet=string.ascii_letters + "_", max_size=30)
_KINDS = {"i": _INT_CELLS, "p": _PLAIN_CELLS, "r": _REPR_CELLS, "f": _FLAG_CELLS,
          "t": _TEXT_CELLS}


@st.composite
def _table_text(draw):
    names = draw(st.permutations(list(_KINDS)))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 12))):
        cells = [draw(_KINDS[name]) for name in names]
        shape = draw(st.integers(0, 40))
        if shape == 0:
            cells.pop()  # a short row
        elif shape == 1:
            cells.append(draw(_PLAIN_CELLS))  # a long row
        elif shape == 2:
            lines.append("")  # a blank line
        lines.append(",".join(cells))
    text = ("\r\n" if draw(st.booleans()) else "\n").join(lines)
    if draw(st.booleans()):
        text += "\n"
    if draw(st.integers(0, 10)) == 0:  # a character outside the tokenizer's alphabet
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([" ", "\t", "\r", "\x0b", "+", "é"])) + text[at:]
    return text


@given(text=_table_text())
@settings(max_examples=200, deadline=None)
def test_read_cells_matches_the_per_text_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cells") / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    got, want = _result(lambda: table.read_cells(path)), _result(lambda: _OracleCells(path))
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.header, got.n_rows) == (want.header, want.n_rows)
    for name in want.header:
        for method, args in [("texts", ()), ("ints", ()), ("floats", ()), ("flags", ("1", "0"))]:
            assert (_result(lambda: getattr(got, method)(name, *args))
                    == _result(lambda: getattr(want, method)(name, *args))), (method, name)


@given(rows=st.lists(st.tuples(_INT_CELLS, st.sampled_from(["ask", "bid", "buy", ""]),
                               st.one_of(_PLAIN_CELLS, _REPR_CELLS),
                               st.sampled_from(["adverse", "non_adverse", "adverse_", "Adverse"])),
                     max_size=10),
       in_order=st.booleans())
@settings(max_examples=100, deadline=None)
def test_read_fill_log_matches_the_per_text_oracle(tmp_path_factory, rows, in_order):
    if in_order:  # t_index 0, 1, ...: the other columns decide
        rows = [(str(i), *r[1:]) for i, r in enumerate(rows)]
    path = tmp_path_factory.mktemp("fills") / "fills.csv"
    path.write_text("\n".join(["t_index,side,price,kind"] + [",".join(r) for r in rows]) + "\n")

    def oracle():
        cells = _OracleCells(path)
        t_index = cells.ints("t_index")
        for r, (before, t) in enumerate(zip([0, *t_index.tolist()], t_index.tolist())):
            if t < before:
                reason = f"below the {before} before it" if r else "below 0"
                raise ValueError(f"{path}: data row {r + 1} has t_index "
                                 f"{cells.texts('t_index')[r]!r}, {reason}")
        return SimpleNamespace(t_index=t_index, is_ask=cells.flags("side", "ask", "bid"),
                               price=cells.floats("price"),
                               is_adverse=cells.flags("kind", "adverse", "non_adverse"))

    got, want = _result(lambda: read_fill_log(path)), _result(oracle)
    if isinstance(want, SimpleNamespace):
        assert isinstance(got, FillColumns)
        for field in ("t_index", "is_ask", "price", "is_adverse"):
            assert _result(lambda: getattr(got, field)) == _result(lambda: getattr(want, field))
    else:
        assert got == want

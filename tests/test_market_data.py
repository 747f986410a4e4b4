import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.cli import cli_main
from mmsim.market_data import (
    BLOCK_ROWS,
    LOB_COLUMNS,
    LOB_CSV_HEADER,
    EmptyInputError,
    LOBBook,
    MalformedRowError,
    NoDataBeforeStartError,
    NonMonotoneTimestampError,
    NoTradesError,
    SchemaMismatchError,
    parse_lob_csv,
    render_lob_csv,
    resample_forward_fill,
    synthetic_quotes,
    trade_size_stats,
)
from mmsim.dynamics import RngStream
from mmsim.params import default_grid, default_params
from mmsim.solver import export_policy_csv, extract_policy, solve_dpe

SEC = 1_000_000_000

HEADER = ",".join(LOB_CSV_HEADER)


def _row(ts, bid, ask, bid_sz=5, ask_sz=7, trade_px="", trade_sz=""):
    cells = [str(ts)]
    cells += [str(bid), str(bid_sz)] + [""] * 8
    cells += [str(ask), str(ask_sz)] + [""] * 8
    cells += [str(trade_px), str(trade_sz)]
    return ",".join(cells)


def _quote_record(ts, bid, ask, bid_sz=5.0, ask_sz=7.0, trade_px=None, trade_sz=None):
    """One book row as (ts, cells): level 1 and the trade set, the rest absent."""
    set_cells = {"bid_px_1": bid, "bid_sz_1": bid_sz, "ask_px_1": ask, "ask_sz_1": ask_sz,
                 "trade_px": trade_px, "trade_sz": trade_sz}
    return ts, [np.nan if set_cells.get(c) is None else set_cells[c] for c in LOB_COLUMNS]


def _book(records):
    return LOBBook(
        np.array([ts for ts, _ in records], dtype=np.int64),
        np.array([cells for _, cells in records], dtype=np.float64).reshape(-1, len(LOB_COLUMNS)),
    )


def _assert_same_book(a, b):
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.cells, b.cells, equal_nan=True)


def test_parse_two_row_fixture():
    text = "\n".join([HEADER, _row(10, 99.99, 100.0), _row(20, 100.0, 100.01, trade_px=100.0, trade_sz=3)])
    book = parse_lob_csv(text)
    assert len(book) == 2
    assert book.ts.dtype == np.int64 and book.cells.shape == (2, 22)
    assert book.ts[0] == 10
    assert book.column("bid_px_1")[0] == 99.99
    assert book.column("ask_sz_1")[0] == 7
    assert np.isnan(book.column("bid_px_2")[0])
    assert book.column("trade_px")[1] == 100.0
    assert book.column("trade_sz")[1] == 3


def test_parse_rejects_wrong_header():
    bad = HEADER.replace("ask_px_1,", "")
    with pytest.raises(SchemaMismatchError):
        parse_lob_csv(bad + "\n")


def test_parse_rejects_crossed_book_with_line_number():
    text = "\n".join([HEADER, _row(10, 100.01, 100.0)])
    with pytest.raises(MalformedRowError) as err:
        parse_lob_csv(text)
    assert err.value.line == 2


def test_parse_rejects_short_row_and_bad_number():
    with pytest.raises(MalformedRowError):
        parse_lob_csv(HEADER + "\n1,2,3\n")
    with pytest.raises(MalformedRowError):
        parse_lob_csv("\n".join([HEADER, _row(10, "abc", 100.0)]))


def test_parse_rejects_time_travel():
    text = "\n".join([HEADER, _row(20, 99.99, 100.0), _row(10, 99.99, 100.0)])
    with pytest.raises(NonMonotoneTimestampError) as err:
        parse_lob_csv(text)
    assert err.value.line == 3


def test_parse_render_parse_is_identity():
    text = "\n".join([
        HEADER,
        _row(10, 99.99, 100.0),
        _row(20, 100.0, 100.01, trade_px=100.01, trade_sz=2.0),
    ])
    book = parse_lob_csv(text)
    again = parse_lob_csv(render_lob_csv(book))
    _assert_same_book(again, book)


_CELL = st.one_of(
    st.just(""),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(repr),
)


@given(rows=st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6), st.lists(_CELL, min_size=22, max_size=22)),
    min_size=1, max_size=30,
))
@settings(max_examples=60)
def test_parse_render_parse_round_trip_with_absent_cells(rows):
    lines, n_empty = [HEADER], 0
    for ts, cells in sorted(rows, key=lambda row: row[0]):
        cells = ["1.0"] + cells[1:10] + ["2.0"] + cells[11:]  # level 1 present, uncrossed
        n_empty += cells.count("")
        lines.append(",".join([str(ts)] + cells))
    book = parse_lob_csv("\n".join(lines) + "\n")
    assert np.isnan(book.cells).sum() == n_empty
    _assert_same_book(parse_lob_csv(render_lob_csv(book)), book)  # NaN positions included


def _long_rows(n):
    return [_row(i, 99.99, 100.0) for i in range(n)]


def test_first_bad_row_in_file_order_across_blocks():
    rows = _long_rows(BLOCK_ROWS + 1000)
    rows[3] = _row(3, 100.01, 100.0)  # line 5: crossed
    rows[8998] = "8998,1,2"  # line 9000: short row, in the next block
    with pytest.raises(MalformedRowError) as err:
        parse_lob_csv("\n".join([HEADER] + rows))
    assert err.value.line == 5

    rows[3] = _row(3, 99.99, 100.0)
    with pytest.raises(MalformedRowError) as err:
        parse_lob_csv("\n".join([HEADER] + rows))
    assert err.value.line == 9000


def test_time_travel_at_block_boundary_reports_its_line():
    rows = _long_rows(BLOCK_ROWS + 10)
    rows[BLOCK_ROWS] = _row(BLOCK_ROWS - 2, 99.99, 100.0)  # first row of block two
    with pytest.raises(NonMonotoneTimestampError) as err:
        parse_lob_csv("\n".join([HEADER] + rows))
    assert err.value.line == BLOCK_ROWS + 2


@pytest.mark.parametrize("bad_rows, exc, line", [
    # an earlier row wins whatever its kind of error
    ({3: "9,1,2", 6: _row(9, 100.01, 100.0)}, MalformedRowError, 3),
    ({4: _row(9, 100.01, 100.0), 6: "9,1,2"}, MalformedRowError, 4),
    ({4: _row(9, "abc", 100.0), 6: _row(9, 100.01, 100.0)}, MalformedRowError, 4),
    ({4: _row(1, 99.99, 100.0), 6: _row(9, "abc", 100.0)}, NonMonotoneTimestampError, 4),
    ({5: _row(9, 99.99, 100.0, bid_sz=-1), 6: "x"}, MalformedRowError, 5),
    # within one row: crossed before negative size before time order
    ({4: _row(1, 100.01, 100.0, bid_sz=-1)}, MalformedRowError, 4),
    ({4: _row(1, 99.99, 100.0, ask_sz=-1)}, MalformedRowError, 4),
])
def test_first_bad_row_within_a_block(bad_rows, exc, line):
    rows = [_row(10 * i, 99.99, 100.0) for i in range(8)]
    for lineno, text in bad_rows.items():
        rows[lineno - 2] = text
    with pytest.raises(exc) as err:
        parse_lob_csv("\n".join([HEADER] + rows))
    assert type(err.value) is exc
    assert err.value.line == line


def test_row_order_of_checks_names_the_first_failing_check():
    with pytest.raises(MalformedRowError, match="crossed"):
        parse_lob_csv("\n".join([HEADER, _row(1, 100.01, 100.0, bid_sz=-1)]))
    with pytest.raises(MalformedRowError, match="negative size"):
        parse_lob_csv("\n".join([HEADER, _row(5, 99.99, 100.0), _row(1, 99.99, 100.0, ask_sz=-2)]))


def test_blank_lines_keep_file_line_numbers():
    text = "\n".join([HEADER, _row(10, 99.99, 100.0), "", "", _row(5, 99.99, 100.0)])
    with pytest.raises(NonMonotoneTimestampError) as err:
        parse_lob_csv(text)
    assert err.value.line == 5
    assert len(parse_lob_csv("\n".join([HEADER, "", _row(10, 99.99, 100.0), ""]))) == 1


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_parse_rejects_literal_non_finite_cells(cell):
    text = "\n".join([HEADER, _row(10, 99.99, 100.0), _row(20, 99.99, 100.0, trade_sz=cell)])
    with pytest.raises(MalformedRowError) as err:
        parse_lob_csv(text)
    assert err.value.line == 3


def test_empty_level1_size_samples_as_zero():
    book = parse_lob_csv("\n".join([HEADER, _row(0, 99.99, 100.0, bid_sz="")]))
    assert np.isnan(book.column("bid_sz_1")[0])
    series = resample_forward_fill(book, 1.0, start=0, end=2 * SEC)
    assert series.level1_bid_sz.tolist() == [0.0, 0.0, 0.0]
    assert series.level1_ask_sz.tolist() == [7.0, 7.0, 7.0]


def test_simulate_rejects_recorded_data_with_missing_bid(tmp_path):
    params = default_params()
    policy = extract_policy(solve_dpe(params, default_grid()), params)
    export_policy_csv(policy, tmp_path / "policy.csv")
    rows = [HEADER]
    for i in range(2 * params.n_dt + 1):
        bid = "" if 100 <= i < 110 else 99.99  # bid_px_1 empty for 10 s
        rows.append(_row(i * SEC, bid, 100.0))
    (tmp_path / "lob.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    code = cli_main(["simulate", "--policy", str(tmp_path / "policy.csv"),
                     "--data", str(tmp_path / "lob.csv"), "--out", str(out)])
    assert code == 1
    assert not (out / "batch_wealth.csv").exists()


def test_forward_fill_hand_case():
    records = [
        _quote_record(int(0.4 * SEC), 100.0, 100.01),
        _quote_record(int(1.7 * SEC), 101.0, 101.01),
    ]
    series = resample_forward_fill(_book(records), 1.0, start=1 * SEC, end=3 * SEC)
    assert series.bid.tolist() == [100.0, 101.0, 101.0]
    assert series.t0 == 1 * SEC
    assert len(series) == 3


def test_forward_fill_single_record_gives_constant():
    records = [_quote_record(0, 100.0, 100.01, bid_sz=3.0)]
    series = resample_forward_fill(_book(records), 1.0, start=0, end=5 * SEC)
    assert np.all(series.bid == 100.0)
    assert np.all(series.level1_bid_sz == 3.0)
    assert len(series) == 6


def test_forward_fill_rejects_late_records():
    records = [_quote_record(int(5.5 * SEC), 100.0, 100.01)]
    with pytest.raises(NoDataBeforeStartError):
        resample_forward_fill(_book(records), 1.0, start=0, end=3 * SEC)


def test_forward_fill_drops_leading_uncovered(caplog):
    records = [_quote_record(int(2.5 * SEC), 100.0, 100.01)]
    with caplog.at_level(logging.WARNING):
        series = resample_forward_fill(_book(records), 1.0, start=0, end=4 * SEC)
    assert series.t0 == 3 * SEC
    assert len(series) == 2
    assert any("dropped 3" in rec.getMessage() for rec in caplog.records)


def test_forward_fill_default_alignment_starts_on_whole_second():
    records = [
        _quote_record(int(0.4 * SEC), 100.0, 100.01),
        _quote_record(int(2.2 * SEC), 100.5, 100.51),
    ]
    series = resample_forward_fill(_book(records), 1.0)
    assert series.t0 == 1 * SEC
    assert series.bid.tolist() == [100.0, 100.0]


def test_forward_fill_rejects_empty():
    with pytest.raises(EmptyInputError):
        resample_forward_fill(_book([]), 1.0)


@given(
    offsets=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=20),
    bid_ticks=st.data(),
)
@settings(max_examples=40)
def test_forward_fill_never_invents_prices(offsets, bid_ticks):
    ts = np.cumsum(offsets) * (SEC // 10)
    records = []
    for t in ts:
        b = 100.0 + 0.01 * bid_ticks.draw(st.integers(min_value=-5, max_value=5))
        records.append(_quote_record(int(t), round(b, 2), round(b + 0.01, 2)))
    series = resample_forward_fill(_book(records), 1.0, start=int(ts[0]), end=int(ts[-1]))
    input_bids = {cells[0] for _, cells in records}
    assert set(series.bid.tolist()) <= input_bids
    assert len(series) == (int(ts[-1]) - int(ts[0])) // SEC + 1


def test_trade_stats_cases():
    records = [
        _quote_record(1, 99.9, 100.0, trade_px=100.0, trade_sz=1.0),
        _quote_record(2, 99.9, 100.0),
        _quote_record(3, 99.9, 100.0, trade_px=100.0, trade_sz=1.0),
        _quote_record(4, 99.9, 100.0, trade_px=99.9, trade_sz=2.0),
    ]
    stats = trade_size_stats(_book(records))
    assert stats.mean_size == pytest.approx(4.0 / 3.0)
    assert stats.median_size == 1.0
    assert stats.count == 3

    single = trade_size_stats(_book([_quote_record(1, 99.9, 100.0, trade_px=99.9, trade_sz=5.0)]))
    assert (single.mean_size, single.median_size) == (5.0, 5.0)

    with pytest.raises(NoTradesError):
        trade_size_stats(_book([_quote_record(1, 99.9, 100.0)]))


def test_synthetic_quotes_frozen_walk():
    series = synthetic_quotes(default_params(), 50, seed=1, move_prob=0.0)
    assert np.all(series.bid == series.bid[0])


def test_synthetic_quotes_fixed_spread_any_seed():
    p = default_params()
    for seed in (0, 1, 2):
        series = synthetic_quotes(p, 100, seed=seed)
        assert np.allclose(series.ask - series.bid, p.delta, atol=1e-9)
        assert len(series) == 101


def test_synthetic_quotes_deterministic():
    p = default_params()
    a = synthetic_quotes(p, 200, RngStream(seed=5, stream_id=3))
    b = synthetic_quotes(p, 200, RngStream(seed=5, stream_id=3))
    assert np.array_equal(a.bid, b.bid)


def test_series_window_slicing():
    p = default_params()
    series = synthetic_quotes(p, 240, seed=8)
    w = series.window(120, 121)
    assert len(w) == 121
    assert w.bid[0] == series.bid[120]
    with pytest.raises(ValueError):
        series.window(200, 121)


def test_series_rejects_crossed_or_ragged():
    from mmsim.market_data import PriceSeries

    with pytest.raises(ValueError, match="non-finite"):
        PriceSeries(0, 1.0, np.array([100.0, np.nan]), np.array([101.0, 101.0]),
                    np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="non-finite"):
        PriceSeries(0, 1.0, np.array([100.0]), np.array([np.inf]), np.ones(1), np.ones(1))
    with pytest.raises(ValueError):
        PriceSeries(0, 1.0, np.array([100.0]), np.array([99.0]),
                    np.ones(1), np.ones(1))
    with pytest.raises(ValueError):
        PriceSeries(0, 1.0, np.array([100.0]), np.array([101.0, 102.0]),
                    np.ones(1), np.ones(1))

import math
from dataclasses import replace
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mmsim import market_data
from mmsim.cli import cli_main
from mmsim.market_data import (
    BLOCK_ROWS,
    LOB_COLUMNS,
    LOB_CSV_HEADER,
    EmptyInputError,
    LOBBook,
    MalformedRowError,
    NonMonotoneTimestampError,
    PriceSeries,
    SchemaMismatchError,
    parse_lob_csv,
    render_lob_csv,
    resample_forward_fill,
    synthetic_quotes,
)
from mmsim.dynamics import RngStream
from mmsim.params import default_grid, default_params
from mmsim.solver import export_policy_csv, extract_policy, solve_dpe

SEC = 1_000_000_000

HEADER = ",".join(LOB_CSV_HEADER)


def _parse(text):
    """``parse_lob_csv`` of a file's text, encoded as UTF-8, or of its bytes."""
    return parse_lob_csv(text.encode("utf-8") if isinstance(text, str) else text)


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
    book = _parse(text)
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
        _parse(bad + "\n")


def test_parse_rejects_crossed_book_with_line_number():
    text = "\n".join([HEADER, _row(10, 100.01, 100.0)])
    with pytest.raises(MalformedRowError) as err:
        _parse(text)
    assert err.value.line == 2


def test_parse_rejects_short_row_and_bad_number():
    with pytest.raises(MalformedRowError):
        _parse(HEADER + "\n1,2,3\n")
    with pytest.raises(MalformedRowError):
        _parse("\n".join([HEADER, _row(10, "abc", 100.0)]))


def test_parse_rejects_time_travel():
    text = "\n".join([HEADER, _row(20, 99.99, 100.0), _row(10, 99.99, 100.0)])
    with pytest.raises(NonMonotoneTimestampError) as err:
        _parse(text)
    assert err.value.line == 3


def test_parse_render_parse_is_identity():
    text = "\n".join([
        HEADER,
        _row(10, 99.99, 100.0),
        _row(20, 100.0, 100.01, trade_px=100.01, trade_sz=2.0),
    ])
    book = _parse(text)
    again = _parse(render_lob_csv(book))
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
    book = _parse("\n".join(lines) + "\n")
    assert np.isnan(book.cells).sum() == n_empty
    _assert_same_book(_parse(render_lob_csv(book)), book)  # NaN positions included


def _long_rows(n):
    return [_row(i, 99.99, 100.0) for i in range(n)]


def test_first_bad_row_in_file_order_across_blocks():
    rows = _long_rows(BLOCK_ROWS + 1000)
    rows[3] = _row(3, 100.01, 100.0)  # line 5: crossed
    rows[8998] = "8998,1,2"  # line 9000: short row, in the next block
    with pytest.raises(MalformedRowError) as err:
        _parse("\n".join([HEADER] + rows))
    assert err.value.line == 5

    rows[3] = _row(3, 99.99, 100.0)
    with pytest.raises(MalformedRowError) as err:
        _parse("\n".join([HEADER] + rows))
    assert err.value.line == 9000


def test_time_travel_at_block_boundary_reports_its_line():
    rows = _long_rows(BLOCK_ROWS + 10)
    rows[BLOCK_ROWS] = _row(BLOCK_ROWS - 2, 99.99, 100.0)  # first row of block two
    with pytest.raises(NonMonotoneTimestampError) as err:
        _parse("\n".join([HEADER] + rows))
    assert err.value.line == BLOCK_ROWS + 2


_FIRST_BAD_ROW_CASES = [
    # an earlier row wins whatever its kind of error
    ({3: "9,1,2", 6: _row(9, 100.01, 100.0)}, MalformedRowError, 3),
    ({4: _row(9, 100.01, 100.0), 6: "9,1,2"}, MalformedRowError, 4),
    ({4: _row(9, "abc", 100.0), 6: _row(9, 100.01, 100.0)}, MalformedRowError, 4),
    ({4: _row(1, 99.99, 100.0), 6: _row(9, "abc", 100.0)}, NonMonotoneTimestampError, 4),
    ({5: _row(9, 99.99, 100.0, bid_sz=-1), 6: "x"}, MalformedRowError, 5),
    # within one row: crossed before negative size before time order
    ({4: _row(1, 100.01, 100.0, bid_sz=-1)}, MalformedRowError, 4),
    ({4: _row(1, 99.99, 100.0, ask_sz=-1)}, MalformedRowError, 4),
]


@pytest.mark.parametrize("bad_rows, exc, line", _FIRST_BAD_ROW_CASES)
def test_first_bad_row_within_a_block(bad_rows, exc, line):
    _assert_first_bad_row(bad_rows, exc, line)


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("bad_rows, exc, line", _FIRST_BAD_ROW_CASES)
def test_first_bad_row_across_small_blocks(bad_rows, exc, line, block_rows):
    """The same cases cut into blocks of 1 to 3 lines, so each precedence
    case straddles block boundaries, across which the one check of the
    converted rows reads each row's previous timestamp."""
    with mock.patch.object(market_data, "BLOCK_ROWS", block_rows):
        _assert_first_bad_row(bad_rows, exc, line)


def _assert_first_bad_row(bad_rows, exc, line):
    rows = [_row(10 * i, 99.99, 100.0) for i in range(8)]
    for lineno, text in bad_rows.items():
        rows[lineno - 2] = text
    with pytest.raises(exc) as err:
        _parse("\n".join([HEADER] + rows))
    assert type(err.value) is exc
    assert err.value.line == line


def test_row_order_of_checks_names_the_first_failing_check():
    with pytest.raises(MalformedRowError, match="crossed"):
        _parse("\n".join([HEADER, _row(1, 100.01, 100.0, bid_sz=-1)]))
    with pytest.raises(MalformedRowError, match="negative size"):
        _parse("\n".join([HEADER, _row(5, 99.99, 100.0), _row(1, 99.99, 100.0, ask_sz=-2)]))


def test_blank_lines_keep_file_line_numbers():
    text = "\n".join([HEADER, _row(10, 99.99, 100.0), "", "", _row(5, 99.99, 100.0)])
    with pytest.raises(NonMonotoneTimestampError) as err:
        _parse(text)
    assert err.value.line == 5
    assert len(_parse("\n".join([HEADER, "", _row(10, 99.99, 100.0), ""]))) == 1
    rows = [_row(10, 99.99, 100.0), _row(20, 99.98, 100.0), _row(30, 99.99, 100.01)]
    want = _parse("\n".join([HEADER, *rows]))
    got = _parse("\n".join([HEADER, rows[0], "", "", *rows[1:], "", ""]))
    assert np.array_equal(got.ts, want.ts) and got.ts.tolist() == [10, 20, 30]
    assert np.array_equal(got.cells, want.cells, equal_nan=True)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_parse_rejects_literal_non_finite_cells(cell):
    text = "\n".join([HEADER, _row(10, 99.99, 100.0), _row(20, 99.99, 100.0, trade_sz=cell)])
    with pytest.raises(MalformedRowError) as err:
        _parse(text)
    assert err.value.line == 3


def test_empty_level1_size_samples_as_zero():
    book = _parse("\n".join([HEADER, _row(0, 99.99, 100.0, bid_sz=""),
                              _row(2 * SEC, 99.99, 100.0, bid_sz="")]))
    assert np.isnan(book.column("bid_sz_1")).all()
    series = resample_forward_fill(book, 1.0)
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
        _quote_record(int(3.2 * SEC), 102.0, 102.01),
    ]
    series = resample_forward_fill(_book(records), 1.0)
    assert series.bid.tolist() == [100.0, 101.0, 101.0]
    assert series.t0 == 1 * SEC
    assert len(series) == 3


def test_forward_fill_single_record_gives_constant():
    # the record repeated unchanged at 5 s sets the last boundary
    records = [_quote_record(t, 100.0, 100.01, bid_sz=3.0) for t in (0, 5 * SEC)]
    series = resample_forward_fill(_book(records), 1.0)
    assert np.all(series.bid == 100.0)
    assert np.all(series.level1_bid_sz == 3.0)
    assert len(series) == 6


def test_forward_fill_rejects_late_records():
    # the first whole second after the only record lies past the last one
    records = [_quote_record(int(5.5 * SEC), 100.0, 100.01)]
    with pytest.raises(ValueError, match="span no whole-second boundary"):
        resample_forward_fill(_book(records), 1.0)


def test_forward_fill_default_alignment_starts_on_whole_second():
    records = [
        _quote_record(int(0.4 * SEC), 100.0, 100.01),
        _quote_record(int(2.2 * SEC), 100.5, 100.51),
    ]
    series = resample_forward_fill(_book(records), 1.0)
    assert series.t0 == 1 * SEC
    assert series.bid.tolist() == [100.0, 100.0]


@pytest.mark.parametrize("dt, message", [
    (1e-10, "dt 1e-10 s is under the timestamps' 1 ns resolution"),
    (4e-10, "dt 4e-10 s is under the timestamps' 1 ns resolution"),
    (0.0, "dt must be positive, got 0.0"),
    (-1.0, "dt must be positive, got -1.0"),
], ids=["1e-10", "4e-10", "zero", "negative"])
def test_forward_fill_rejects_a_step_that_rounds_to_no_nanosecond(dt, message):
    records = [_quote_record(0, 100.0, 100.01), _quote_record(2 * SEC, 100.0, 100.01)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        resample_forward_fill(_book(records), dt)


@pytest.mark.parametrize("dt, step_dt", [
    (1.5e-9, 2e-9), *((dt, dt) for dt in [1.0, 0.5, 0.25, 0.1, 0.001, 2.5, 1e-9]),
])
def test_forward_fill_carries_the_step_it_samples(dt, step_dt):
    # dt rounded to whole nanoseconds is the series' step: records 30 steps
    # apart from a whole second give 31 samples, 2 ns apart for dt = 1.5 ns
    step = round(dt * SEC)
    records = [_quote_record(SEC, 100.0, 100.01), _quote_record(SEC + 30 * step, 100.0, 100.01)]
    series = resample_forward_fill(_book(records), dt)
    assert (len(series), series.t0, series.dt) == (31, SEC, step_dt)


def test_forward_fill_rejects_empty():
    with pytest.raises(EmptyInputError):
        resample_forward_fill(_book([]), 1.0)


@given(
    offsets=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=20),
    bid_ticks=st.data(),
)
@settings(max_examples=40)
def test_forward_fill_never_invents_prices(offsets, bid_ticks):
    # the first record on a whole second, so its boundaries start there
    ts = (np.cumsum(offsets) - offsets[0]) * (SEC // 10)
    records = []
    for t in ts:
        b = 100.0 + 0.01 * bid_ticks.draw(st.integers(min_value=-5, max_value=5))
        records.append(_quote_record(int(t), round(b, 2), round(b + 0.01, 2)))
    series = resample_forward_fill(_book(records), 1.0)
    input_bids = {cells[0] for _, cells in records}
    assert set(series.bid.tolist()) <= input_bids
    assert len(series) == (int(ts[-1]) - int(ts[0])) // SEC + 1


def test_synthetic_quotes_fixed_spread_any_seed():
    p = default_params()
    for seed in (0, 1, 2):
        series = synthetic_quotes(p, 100, seed=seed)
        assert np.allclose(series.ask - series.bid, p.delta, atol=1e-9)
        assert len(series) == 101


@pytest.mark.parametrize("delta, tick", [(0.01, 0.003), (0.015, 0.01), (0.01, 0.02)])
def test_synthetic_quotes_reject_a_spread_of_part_ticks(delta, tick):
    params = replace(default_params(), delta=delta)
    with pytest.raises(ValueError, match=re.escape(
            f"delta = {delta!r} is not a whole number of ticks of {tick!r}")):
        synthetic_quotes(params, 10, seed=1, tick=tick)


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


@pytest.mark.parametrize("start, n_samples", [(-5, 10), (-1, 1), (0, 0), (10, -3)])
def test_series_window_rejects_a_negative_start_or_an_empty_window(start, n_samples):
    series = synthetic_quotes(default_params(), 40, seed=8)
    with pytest.raises(ValueError, match=r"start=.*n_samples="):
        series.window(start, n_samples)


def test_series_window_starts_on_its_sample_boundary():
    n = 40
    series = PriceSeries(7, 0.3, np.full(n, 99.99), np.full(n, 100.0), np.ones(n), np.ones(n))
    # 3 * 0.3 * 1e9 is 899,999,999.99...: the step is rounded once, as resampling does
    assert series.window(3, 2).t0 == 7 + 900_000_000
    assert series.window(37, 3).t0 == 7 + 37 * 300_000_000
    book = _parse("\n".join([HEADER, _row(0, 99.99, 100.0), _row(12 * SEC, 99.99, 100.0)]))
    resampled = resample_forward_fill(book, 0.3)
    assert resampled.window(3, 2).t0 == 900_000_000


def test_series_names_its_first_bad_sample_and_that_sample_s_time():
    # sample i is at t0 + i * round(dt * 1e9) ns, as series.window counts it
    bid, size = np.full(4, 100.0), np.ones(4)
    want = ("crossed quotes: bid must stay below ask; "
            "sample 2 at ts 1000000007 has bid 100.0 and ask 100.0")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        PriceSeries(7, 0.5, bid, np.array([101.0, 100.5, 100.0, 99.0]), size, size)
    want = ("non-finite quotes: every sample needs a bid and an ask; "
            "sample 3 at ts 907 has bid 100.0 and ask inf")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        PriceSeries(7, 3e-7, bid, np.array([99.0, 101.0, 101.0, np.inf]), size, size)


def test_series_rejects_crossed_or_ragged():
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


def test_crlf_lines_parse_like_the_crlf_text():
    rows = [HEADER, _row(10, 99.99, 100.0), _row(20, 100.0, 100.01, trade_px=100.0, trade_sz=3),
            _row(30, 100.0, 100.01)]  # the last cell of the last row is empty
    text = "\r\n".join(rows) + "\r\n"
    from_text = _parse(text)
    assert len(from_text) == 3
    _assert_same_book(_parse(text.replace("\r\n", "\n")), from_text)
    with pytest.raises(NonMonotoneTimestampError) as err:
        _parse(text + _row(5, 99.99, 100.0) + "\r\n")
    assert err.value.line == 5


def test_non_ascii_input_takes_the_text_route():
    rows = [_row(10, 99.99, 100.0), _row(20, 100.0, 100.01, trade_px=100.0, trade_sz=3),
            _row(30, 100.0, 100.01)]
    want = _parse("\n".join([HEADER, *rows]) + "\n")
    non_ascii = [rows[0], _row(20, 100.0, 100.01, trade_px=100.0, trade_sz="\u0663"), rows[2]]
    # the float kernel is never reached: every block's cells take the per-cell path
    with mock.patch.object(market_data, "plain_floats", side_effect=AssertionError):
        _assert_same_book(_parse("\n".join([HEADER, *non_ascii]) + "\n"), want)
        # errors name file lines, blank lines counted
        with pytest.raises(MalformedRowError, match="could not convert") as err:
            _parse("\n".join([HEADER, *non_ascii, "", _row(40, 99.99, 100.0, trade_sz="\u00e9")]))
        assert err.value.line == 6


@pytest.mark.parametrize("end", ["\r", "\r\n"])
def test_cr_and_crlf_spellings_take_the_kernels(end):
    """A file plain but for its line ends is plain once they are LF: the
    per-cell path is never reached, and the book is the LF file's bit for
    bit.  Errors still name file lines, blank lines counted."""
    rows = [_row(10, 99.99, 100.0), _row(20, 100.0, 100.01, trade_px=100.0, trade_sz=3),
            _row(30, 100.0, 100.01)]
    want = _parse("\n".join([HEADER, *rows]) + "\n")
    with mock.patch.object(market_data, "converted", side_effect=AssertionError):
        got = _parse(end.join([HEADER, *rows]) + end)
        assert got.ts.tobytes() == want.ts.tobytes()
        assert got.cells.tobytes() == want.cells.tobytes()
        with pytest.raises(NonMonotoneTimestampError) as err:
            _parse(end.join([HEADER, *rows, "", _row(5, 99.99, 100.0)]))
        assert err.value.line == 6


# -- the plain-cell word kernel against the per-cell path -------------------

def _lobgen_style_text(n_rows, seed):
    """Book text as recorded files spell it: two-decimal prices, integer
    sizes, trade cells empty on non-trade rows."""
    rng = np.random.default_rng(seed)
    rows, bid = [HEADER], 10_000
    for i in range(n_rows):
        bid += int(rng.integers(-1, 2))
        ask = bid + int(rng.integers(1, 3))
        sizes = rng.integers(1, 251, 10).tolist()
        cells = [str(1_700_000_000 * SEC + 500_000_000 * i)]
        for lvl in range(5):
            cells += [f"{(bid - lvl) // 100}.{(bid - lvl) % 100:02d}", str(sizes[lvl])]
        for lvl in range(5):
            cells += [f"{(ask + lvl) // 100}.{(ask + lvl) % 100:02d}", str(sizes[5 + lvl])]
        cells += [f"{ask // 100}.{ask % 100:02d}", "3"] if i % 3 == 0 else ["", ""]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def _without_kernel():
    return mock.patch.multiple(market_data, plain_floats=lambda *cells: None,
                               plain_ints=lambda *cells: None)


def _outcome(text):
    """The parsed book as (ts, cell bits), or the exception's class, line
    and message."""
    try:
        book = _parse(text)
    except (MalformedRowError, NonMonotoneTimestampError) as exc:
        return type(exc), exc.line, str(exc)
    return book.ts.tolist(), book.cells.view(np.uint64).tolist()


def _assert_kernel_matches_cells(text):
    with _without_kernel():
        want = _outcome(text)
    assert _outcome(text) == want


def test_plain_blocks_take_the_kernel():
    text = _lobgen_style_text(3 * 700 + 5, seed=11)
    with mock.patch.object(market_data, "BLOCK_ROWS", 700), \
            mock.patch.object(market_data, "converted", side_effect=AssertionError):
        book = _parse(text)
    with _without_kernel():
        want = _parse(text)
    assert len(book) == 2105
    assert np.array_equal(book.ts, want.ts)
    assert np.array_equal(book.cells.view(np.uint64), want.cells.view(np.uint64))


def test_per_cell_blocks_read_plain_timestamps_with_the_kernel():
    """A file the kernels decline (one size spelled ``3e0``) whose
    timestamps are plain converts them with plain_ints: ``_timestamp`` is
    never called, and the book equals the one parsed with every timestamp
    through it."""
    text = _lobgen_style_text(2 * 700 + 5, seed=12).replace(",3\n", ",3e0\n", 1)
    with mock.patch.object(market_data, "BLOCK_ROWS", 700):
        with mock.patch.object(market_data, "_timestamp", side_effect=AssertionError):
            got = _parse(text)
        with mock.patch.object(market_data, "plain_ints", lambda *cells: None):
            want = _parse(text)
    assert len(got) == 1405
    assert got.ts.tobytes() == want.ts.tobytes()
    assert got.cells.tobytes() == want.cells.tobytes()


_PLAIN_SAMPLES = ["0", "-0", "-0.0", "-.0", "5.", ".5", "-5.", "99999999", "-9999999",
                  "0.000001", "1234.567", ".0000001", "00000000", "0.1", "-.1"]


@pytest.mark.parametrize("cell", _PLAIN_SAMPLES)
def test_kernel_converts_plain_cells_like_float(cell):
    text = "\n".join([HEADER, _row(1, 99.99, 100.0, trade_px=cell)]) + "\n"
    with mock.patch.object(market_data, "converted", side_effect=AssertionError):
        value = _parse(text).column("trade_px")[0]
    assert np.float64(value).view(np.uint64) == np.float64(float(cell)).view(np.uint64)


# Spellings the kernel must leave to the per-cell path: the first eight
# parse, the rest are malformed.
_OTHER_CELLS = ["1e-05", "+1", " 5", "5 ", "123456789", "-12345678", "١", "1_0",
                "-", ".", "-.", "1.2.3", "1-2", "--1", "5-", "0x1", "nan", "inf", "1/2"]


@pytest.mark.parametrize("cell", _OTHER_CELLS)
@pytest.mark.parametrize("column", [1, 2, 21, 22])  # bid_px_1, bid_sz_1, trade_px, trade_sz
def test_other_spellings_parse_as_the_per_cell_path_does(cell, column):
    rows = [_row(i, 99.99, 100.0).split(",") for i in range(3)]
    rows[1][column] = cell
    _assert_kernel_matches_cells("\n".join([HEADER] + [",".join(r) for r in rows]) + "\n")


@pytest.mark.parametrize("ts", ["+5", " 5", "5.0", "", "-", "1e3", "9223372036854775808",
                                "-9223372036854775809", "-9223372036854775808"])
def test_timestamp_spellings_parse_as_the_per_cell_path_does(ts):
    rows = [_row(-10**19 // 2, 99.99, 100.0), ts + _row(0, 99.99, 100.0)[1:],
            _row(2**62, 99.99, 100.0)]
    _assert_kernel_matches_cells("\n".join([HEADER] + rows) + "\n")


def _spell(digits, zeros, dot, negative):
    text = "0" * zeros + str(digits)
    if dot <= len(text):
        text = text[:dot] + "." + text[dot:]
    return "-" + text if negative else text


# up to 8 bytes: up to 6 digits, at most one dot, a sign
_PLAIN = st.builds(_spell, st.integers(0, 10**5 - 1), st.integers(0, 1), st.integers(0, 7),
                   st.booleans())
_UNSIGNED = _PLAIN.map(lambda text: text.lstrip("-"))
# a sign or a dot anywhere in a plain cell: "1-2", "5-", "1.2.3", but also "-5"
_MISPLACED = st.builds(lambda text, at, char: text[:at] + char + text[at:],
                       st.builds(_spell, st.integers(0, 999), st.integers(0, 1),
                                 st.integers(0, 4), st.booleans()),
                       st.integers(0, 7), st.sampled_from("-."))
_ODD = st.one_of(_MISPLACED, _MISPLACED, st.sampled_from(_OTHER_CELLS),
                 st.floats(allow_nan=False).map(repr))
_PRICE, _SIZE = st.one_of(_PLAIN, st.just("")), st.one_of(_UNSIGNED, st.just(""))


@st.composite
def _lob_row(draw, ts):
    """One row of plain cells, its level 1 uncrossed and its sizes unsigned
    unless drawn otherwise; one row in four has one cell that is not plain."""
    cells = [draw(_SIZE if i % 2 else _PRICE) for i in range(22)]  # prices may be negative
    bid, ask = sorted([draw(_UNSIGNED), draw(_UNSIGNED)], key=float)
    cells[0], cells[10] = (ask, bid) if draw(st.integers(0, 60)) == 0 else (bid, ask)
    if draw(st.integers(0, 60)) == 0:
        cells[draw(st.sampled_from(market_data._BOOK_SIZES))] = draw(st.sampled_from(["-1", "-0"]))
    if draw(st.integers(0, 3)) == 0:
        cells[draw(st.integers(0, 21))] = draw(_ODD)
    shape = draw(st.integers(0, 100))
    if shape == 0:
        cells.pop()
    elif shape == 1:
        cells.append("1")
    ts_text = str(ts) if draw(st.integers(0, 80)) else draw(st.sampled_from(["+1", "1.0", "", "x"]))
    return ",".join([ts_text] + cells)


# timestamps the three-word kernel reads (19 digits, the int64 edges,
# negative values, leading zeros) or must leave to int() (one past an edge,
# 20 digits)
_TS_SPELLINGS = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(str),
    st.integers(10**18, 10**19 - 1).map(str),
    st.builds(lambda zeros, v: "0" * zeros + str(v), st.integers(1, 19), st.integers(0, 10**6)),
    st.sampled_from([str(2**63 - 1), str(-2**63), str(2**63), str(-2**63 - 1), "-0", "-00",
                     "00000000000000000000", "-1234567890123456789", "12345678901234567890"]),
)


# A failing example of the st.data() LOB tests below is reported as found,
# unshrunk: shrinking a drawn file can take minutes and hundreds of MB.
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@given(data=st.data(), n_rows=st.integers(1, 8), block_rows=st.sampled_from([1, 2, 3, 5, 8192]),
       crlf=st.booleans(), spelled_ts=st.booleans())
@settings(max_examples=160, deadline=None, phases=_NO_SHRINK)
def test_kernel_matches_the_per_cell_path(data, n_rows, block_rows, crlf, spelled_ts):
    ts, rows = data.draw(st.integers(-10**6, 10**6)), [HEADER]
    for _ in range(n_rows):
        ts += data.draw(st.integers(-1, 40))  # a rare step back in time
        rows.append(data.draw(_lob_row(ts)))
    if spelled_ts:  # in time order, but for a rare swap
        spellings = sorted(data.draw(st.lists(_TS_SPELLINGS, min_size=n_rows, max_size=n_rows)),
                           key=int)
        if data.draw(st.integers(0, 10)) == 0:
            spellings.reverse()
        rows[1:] = [ts + row[row.index(","):] for ts, row in zip(spellings, rows[1:])]
    text = ("\r\n" if crlf else "\n").join(rows) + "\n"
    with mock.patch.object(market_data, "BLOCK_ROWS", block_rows):
        _assert_kernel_matches_cells(text)
        with _without_kernel():
            want = _outcome(text)
        assert _outcome(text.encode("utf-8")) == want


@given(data=st.data(), n_rows=st.integers(6, 12), block_rows=st.integers(1, 5),
       recorded=st.booleans(), ended=st.booleans())
@settings(max_examples=150, deadline=None, phases=_NO_SHRINK)
def test_lone_cr_file_parses_like_its_lf_file(data, n_rows, block_rows, recorded, ended):
    """Over several blocks, blank lines included: the same book bits, or the
    same error class, line and message."""
    if recorded:
        rows = _lobgen_style_text(n_rows, seed=data.draw(st.integers(0, 2**32 - 1))).splitlines()
    else:
        ts, rows = data.draw(st.integers(-10**6, 10**6)), [HEADER]
        for _ in range(n_rows):
            ts += data.draw(st.integers(-1, 40))
            rows.append(data.draw(_lob_row(ts)))
    for at in data.draw(st.lists(st.integers(1, len(rows)), max_size=4)):
        rows.insert(at, "")
    end = "\n" if ended else ""
    with mock.patch.object(market_data, "BLOCK_ROWS", block_rows):
        want = _outcome("\n".join(rows) + end)
        assert _outcome("\r".join(rows) + end.replace("\n", "\r")) == want


# -- the per-cell path against a per-row oracle ------------------------------

_SIZE_COLUMNS = [i for i, name in enumerate(LOB_COLUMNS) if "_sz_" in name]


def _oracle_outcome(text):
    """The schema read one row at a time in plain Python: ``_outcome``'s
    book bits, or the first bad row's error class, line and message."""
    lines = text.splitlines()
    assert lines[0] == HEADER
    ts_out, cells_out, prev = [], [], None
    for line, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        fields = row.split(",")
        if len(fields) != len(LOB_CSV_HEADER):
            return MalformedRowError, line, f"line {line}: expected 23 fields, got {len(fields)}"
        try:
            ts = int(fields[0])
            if not -2**63 <= ts < 2**63:
                raise ValueError(f"timestamp {fields[0]} outside the int64 range")
            cells = [float(cell) if cell else float("nan") for cell in fields[1:]]
        except ValueError as exc:
            return MalformedRowError, line, f"line {line}: {exc}"
        for cell, value in zip(fields[1:], cells):
            if cell and not math.isfinite(value):
                return (MalformedRowError, line,
                        f"line {line}: non-finite value {cell!r}; leave absent cells empty")
        bid, ask = cells[LOB_COLUMNS.index("bid_px_1")], cells[LOB_COLUMNS.index("ask_px_1")]
        if bid >= ask:
            return MalformedRowError, line, f"line {line}: crossed book: bid {bid} >= ask {ask}"
        if any(cells[i] < 0 for i in _SIZE_COLUMNS):
            return MalformedRowError, line, f"line {line}: negative size"
        if prev is not None and ts < prev:
            return (NonMonotoneTimestampError, line,
                    f"line {line}: timestamp {ts} precedes {prev}")
        prev = ts
        ts_out.append(ts)
        cells_out.append(cells)
    return ts_out, np.array(cells_out, dtype=np.float64).view(np.uint64).tolist()


@given(data=st.data(), n_rows=st.integers(1, 12), block_rows=st.integers(1, 5))
@settings(max_examples=150, deadline=None, phases=_NO_SHRINK)
def test_per_cell_path_matches_the_per_row_oracle(data, n_rows, block_rows):
    """Non-plain files, so every block takes the per-cell path: the same
    book bits, or the same error class, line and message."""
    ts, rows = data.draw(st.integers(-10**6, 10**6)), [HEADER]
    for _ in range(n_rows):
        ts += data.draw(st.integers(-1, 40))
        fields = data.draw(_lob_row(ts)).split(",")
        if data.draw(st.integers(0, 7)) == 0:  # a bad timestamp, often with a bad cell
            fields[0] = data.draw(st.sampled_from(["x", "", "1e3", "9" * 20]))
            if data.draw(st.booleans()):
                fields[data.draw(st.integers(1, len(fields) - 1))] = data.draw(_ODD)
        rows.append(",".join(fields))
    # a space before one timestamp, which int() skips, makes the file non-plain
    at = data.draw(st.integers(1, n_rows))
    rows[at] = " " + rows[at]
    for at in data.draw(st.lists(st.integers(1, len(rows)), max_size=4)):
        rows.insert(at, "")
    text = "\n".join(rows) + "\n"
    with mock.patch.object(market_data, "BLOCK_ROWS", block_rows), \
            mock.patch.object(market_data, "plain_floats", side_effect=AssertionError):
        assert _outcome(text) == _oracle_outcome(text)

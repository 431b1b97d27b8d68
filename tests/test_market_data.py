from __future__ import annotations

import csv
import io
import math
from datetime import date

import numpy as np
import pytest

from seqcast.cli import RunConfig, load_series
from seqcast.market_data import (
    BadDateError,
    BadRatioError,
    EmptySeriesError,
    InvalidWindowError,
    MissingColumnError,
    PriceSeries,
    chronological_split,
    drop_missing,
    parse_csv,
    sma,
)
from seqcast.rng import make_rng

HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"


def make_series(closes, symbol="TST", start_ordinal=738155, adj_closes=None):
    closes = np.asarray(closes, dtype=np.float64)
    days = np.datetime64(date.fromordinal(start_ordinal)) + np.arange(closes.size)
    adj = closes if adj_closes is None else np.asarray(adj_closes, dtype=np.float64)
    return PriceSeries(symbol, days, closes.copy(), adj.copy())


def assert_same_series(a: PriceSeries, b: PriceSeries) -> None:
    assert a.symbol == b.symbol
    np.testing.assert_array_equal(a.days, b.days)
    np.testing.assert_array_equal(a.close, b.close)
    np.testing.assert_array_equal(a.adj_close, b.adj_close)


# ---------------------------------------------------------------- parse_csv


def test_parse_csv_maps_fields_by_column_name():
    text = "\n".join(
        [
            HEADER,
            "2020-01-02,1.0,2.0,0.5,1.5,1.4,1000",
            "2020-01-03,1.5,2.5,1.0,2.0,1.9,2000",
        ]
    )
    series = parse_csv(io.StringIO(text), "AAA")
    assert series.symbol == "AAA"
    assert len(series) == 2
    assert series.days.dtype == np.dtype("datetime64[D]")
    assert series.dates() == [date(2020, 1, 2), date(2020, 1, 3)]
    np.testing.assert_array_equal(series.close, [1.5, 2.0])
    np.testing.assert_array_equal(series.adj_close, [1.4, 1.9])
    np.testing.assert_array_equal(series.closes(adjusted=True), [1.4, 1.9])


def test_parse_csv_empty_close_cell_becomes_missing():
    text = "\n".join([HEADER, "2020-01-02,1.0,2.0,0.5,,1.4,1000"])
    series = parse_csv(io.StringIO(text))
    assert math.isnan(series.close[0])
    assert series.adj_close[0] == 1.4


# float() plus NaN as the marker decides every cell form; no list of tokens is needed.
# A non-finite value is no price either: it counts as missing.
@pytest.mark.parametrize(
    "cell",
    ["  ", "null", "NULL", "nan", "NaN", "n/a"]
    + ["", "\t", " Null ", "None", " NAN ", "-nan", "+nan", "abc"]
    + ["inf", "-Infinity", " +inf ", "1e999", "-1e999"],
)
def test_parse_csv_missing_tokens_and_junk(cell):
    text = "\n".join([HEADER, f"2020-01-02,1.0,2.0,0.5,{cell},1.4,1000"])
    assert math.isnan(parse_csv(io.StringIO(text)).close[0])


@pytest.mark.parametrize("cell, value", [(" 1.5 ", 1.5), ("1e3", 1000.0), ("-2.5e-1", -0.25)])
def test_parse_csv_reads_every_numeric_form(cell, value):
    text = "\n".join([HEADER, f"2020-01-02,1.0,2.0,0.5,{cell},1.4,1000"])
    assert parse_csv(io.StringIO(text)).close[0] == value


def test_parse_csv_sorts_descending_rows_ascending():
    days = [date(2020, 1, d) for d in (9, 8, 7, 6, 3)]
    rows = [f"{d.isoformat()},1,1,1,{k + 1.0},{k + 0.5},10" for k, d in enumerate(days)]
    series = parse_csv(io.StringIO("\n".join([HEADER] + rows)))
    assert series.dates() == sorted(days)
    assert all(type(d) is date for d in series.dates())
    # both closes follow their rows through the sort
    np.testing.assert_array_equal(series.close, [5.0, 4.0, 3.0, 2.0, 1.0])
    np.testing.assert_array_equal(series.adj_close, [4.5, 3.5, 2.5, 1.5, 0.5])


def test_parse_csv_days_match_numpy_dates_across_the_calendar():
    ordinals = make_rng(12).choice(date.max.toordinal(), size=500, replace=False) + 1
    days = [date.fromordinal(int(k)) for k in ordinals] + [date.min, date.max]
    text = "\n".join(["Date,Close"] + [f"{d.isoformat()},1" for d in days])
    series = parse_csv(io.StringIO(text))
    np.testing.assert_array_equal(series.days, np.array(sorted(set(days)), dtype="datetime64[D]"))


def test_parse_csv_header_case_and_order_insensitive():
    for adj_header in ("ADJ close", "adjusted_close", "Adj-Close"):
        series = parse_csv(io.StringIO(f"volume,CLOSE,date,{adj_header}\n5,10.5,2020-01-02,10.4"))
        assert series.close[0] == 10.5
        assert series.adj_close[0] == 10.4


def test_parse_csv_without_adj_close_column_reads_it_as_missing():
    series = parse_csv(io.StringIO("Date,Close\n2020-01-02,3.5\n2020-01-03,3.6\n"))
    np.testing.assert_array_equal(series.close, [3.5, 3.6])
    assert np.isnan(series.adj_close).all()


def test_parse_csv_missing_required_columns():
    with pytest.raises(MissingColumnError):
        parse_csv(io.StringIO("Open,High,Low,Close\n1,2,3,4"))
    with pytest.raises(MissingColumnError):
        parse_csv(io.StringIO("Date,Open\n2020-01-02,1"))
    with pytest.raises(MissingColumnError):
        parse_csv(io.StringIO(""))


def test_parse_csv_bad_date():
    rows = ["2020-01-02,1,1,1,1,1,1", "02/01/2020,1,1,1,1,1,1"]
    with pytest.raises(BadDateError, match="line 3"):
        parse_csv(io.StringIO("\n".join([HEADER] + rows)))


@pytest.mark.parametrize("cell", ["20200103", "2020-W01-5", "2020W015", "2020-1-3", " 2020-01-03x"])
def test_parse_csv_reads_only_yyyy_mm_dd_dates(cell):
    # Python 3.11's date.fromisoformat reads the first three as 2020-01-03, and 3.10's refuses
    # them: the one spelling every supported Python reads is the one the program takes
    rows = ["2020-01-02,1,1,1,1,1,1", f"{cell},1,1,1,1,1,1"]
    with pytest.raises(BadDateError, match=f"^line 3: unparseable date {cell.strip()!r}$"):
        parse_csv(io.StringIO("\n".join([HEADER] + rows)))


def _stringio_parse(text: str):
    """What parse_csv reads from `text` (columns Date, Close and Adj Close, found by
    name) when its rows come from csv.reader(io.StringIO(text, newline=None)), which
    reads universal newlines as a text-mode file does: the (day, close, adj close)
    rows in date order with None for missing, or the error's type and message. A
    cell a short row lacks, or a column the header lacks, is empty."""

    def price(cell: str):
        try:
            value = float(cell)
        except ValueError:
            return None
        return value if math.isfinite(value) else None

    try:
        reader = csv.reader(io.StringIO(text, newline=None))
        header = next(reader, None)
        if header is None:
            return MissingColumnError, "empty input: no header row"
        names = [name.strip().lower().replace(" ", "") for name in header]
        where = [names.index(k) if k in names else None for k in ("date", "close", "adjclose")]
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not any(c.strip() for c in row):
                continue
            raw_date, close, adj = (row[i] if i is not None and i < len(row) else "" for i in where)
            try:
                day = date.fromisoformat(raw_date.strip())
            except ValueError:
                return BadDateError, f"line {line_no}: unparseable date {raw_date.strip()!r}"
            rows.append((day, price(close), price(adj)))
    except csv.Error as exc:
        return csv.Error, str(exc)
    return sorted(rows, key=lambda r: r[0])


def _parsed(text: str, tmp_path):
    """What the program parses from a file holding `text`, in _stringio_parse's form."""
    path = tmp_path / "prices.csv"
    path.write_bytes(text.encode("utf-8"))
    cfg = RunConfig(data_path=str(path), start=date.min.isoformat(), end=date.max.isoformat())
    try:
        series = load_series(cfg, "")
    except (csv.Error, ValueError) as exc:
        return type(exc), str(exc)
    columns = (series.close.tolist(), series.adj_close.tolist())
    cells = ([None if math.isnan(v) else v for v in col] for col in columns)
    return list(zip(series.dates(), *cells))


COLUMNS = "Date,Close,Adj Close"


@pytest.mark.parametrize(
    "text",
    [
        # \r\n endings, with and without a final newline
        f"{COLUMNS}\r\n2020-01-03,2,1.9\r\n2020-01-02,1.5,1.4\r\n",
        f"{COLUMNS}\r\n2020-01-02,1.5,1.4\r\n2020-01-03,2,1.9",
        # blank and whitespace-only rows
        f"{COLUMNS}\n\n2020-01-02,1,1\n  ,  , \n\t\n\r\n2020-01-03,2,2\n\n",
        # a quoted close holding a newline, then a bad date whose line number counts records
        f'{COLUMNS}\n2020-01-02,"1.5\n",1.4\n2020-01-03,"2\n\n5",2\n',
        f'{COLUMNS}\n2020-01-02,"1\n5",1\n03/01/2020,1,1\n',
        # cells holding the other boundaries str.splitlines splits on
        f"{COLUMNS}\n2020-01-02,1\x0c,1\x0b\n2020-01-03,2\x1c5,2\x1d\n2020-01-04,3\x1e,3\x85\n",
        f"{COLUMNS}\n2020-01-02,1\u2028,1\n2020-01-03,2\u20295,2\n",
        f'{COLUMNS}\n2020-01-02,"1\r",1\n',
        # a bare \r ends a line, as in a classic Mac file
        f"{COLUMNS}\r2020-01-02,1,1\r",
        # empty text, and a header with no rows
        "",
        COLUMNS,
        f"{COLUMNS}\n",
        # an unparseable date, named by its line
        f"{COLUMNS}\n2020-01-02,1,1\n\n2020-13-01,1,1\n",
        # rows shorter than the header: the cells they lack are empty
        "Open,Close,Volume,Date,Adj Close\n"
        "1,2.5,9,2020-01-02,2.4\n1,3.5,9,2020-01-03\n1,4.5,9,2020-01-06,\n",
        "Date,Open,Close,Adj Close\n2020-01-02\n2020-01-03,1\n2020-01-06,1,2\n2020-01-07,1,2,3\n",
        # whitespace-only rows, and rows of blank cells, between and after the data
        "Date,Close,Adj Close\n \n2020-01-02,1,1\n\t,  ,\n,,\n2020-01-03,2,2\n   \n",
        "Close,Date\n , \n5,2020-01-02\n,\n",
        # quoted cells, a comma and a header name among them, and the date quoted
        'Date,"Close",Adj Close\n"2020-01-03"," 2.5","2,4"\n2020-01-02,"1e1",""\n',
        # no adjusted close column, so every adjusted close is missing
        "Volume,Date,Close\n7,2020-01-02,1.25\n8,2020-01-03\n",
    ],
)
def test_parse_csv_splits_lines_as_stringio_does(text, tmp_path):
    assert _parsed(text, tmp_path) == _stringio_parse(text)


def test_parse_csv_reads_a_str_as_lines_of_one_character():
    # a str is an iterable of characters, so its header is one character: no date column
    with pytest.raises(MissingColumnError, match=r"header has no 'date' column: \['D'\]"):
        parse_csv("Date,Close\n2020-01-02,1.5\n")


def test_parse_csv_duplicate_date():
    rows = ["2020-01-02,1,1,1,1,1,1", "2020-01-02,2,2,2,2,2,2"]
    with pytest.raises(BadDateError, match="duplicate date 2020-01-02"):
        parse_csv(io.StringIO("\n".join([HEADER] + rows)))


def test_series_refuses_days_out_of_order():
    days = np.array(["2020-01-03", "2020-01-02"], dtype="datetime64[D]")
    with pytest.raises(BadDateError, match="rows out of order at 2020-01-02"):
        PriceSeries("T", days, np.ones(2), np.ones(2))


# ------------------------------------------------------------- drop_missing


def test_drop_missing_identity_when_clean():
    series = make_series([1.0, 2.0, 3.0])
    cleaned, dropped = drop_missing(series)
    assert_same_series(cleaned, series)
    assert dropped == 0


def test_drop_missing_filters_and_preserves_order():
    closes = [math.nan if k in (3, 7) else float(k) for k in range(10)]
    series = make_series(closes, adj_closes=[1.0] * 10)
    cleaned, dropped = drop_missing(series)
    assert dropped == 2
    assert len(cleaned) == 8
    np.testing.assert_array_equal(cleaned.close, [0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 9.0])
    np.testing.assert_array_equal(cleaned.days, np.delete(series.days, [3, 7]))


def test_drop_missing_keeps_a_row_missing_only_other_columns():
    text = "\n".join(
        [
            HEADER,
            "2020-01-02,,,,1.5,1.4,",  # open, high, low and volume missing
            "2020-01-03,1.0,2.0,0.5,1.6,,1000",  # adjusted close missing
            "2020-01-06,1.0,2.0,0.5,inf,1.7,1000",  # an infinite close is missing
        ]
    )
    series = parse_csv(io.StringIO(text))
    cleaned, dropped = drop_missing(series)
    assert dropped == 1
    np.testing.assert_array_equal(cleaned.close, [1.5, 1.6])

    adjusted, dropped = drop_missing(series, adjusted=True)
    assert dropped == 1
    assert adjusted.dates() == [date(2020, 1, 2), date(2020, 1, 6)]
    np.testing.assert_array_equal(adjusted.closes(adjusted=True), [1.4, 1.7])


def test_drop_missing_all_missing_gives_empty():
    cleaned, dropped = drop_missing(make_series([math.nan] * 4))
    assert len(cleaned) == 0
    assert dropped == 4


def test_drop_missing_idempotent():
    rng = make_rng(11)
    for _ in range(20):
        n = int(rng.integers(0, 15))
        closes = np.where(rng.random(n) < 0.3, math.nan, 1.0)
        adj_closes = np.where(rng.random(n) < 0.3, math.nan, 1.0)
        series = make_series(closes, adj_closes=adj_closes)
        for adjusted in (False, True):
            once, _ = drop_missing(series, adjusted=adjusted)
            twice, n2 = drop_missing(once, adjusted=adjusted)
            assert_same_series(twice, once)
            assert n2 == 0


# ---------------------------------------------------------------------- sma


def test_sma_constant_series_is_exact():
    (out,) = sma([5.0] * 120, 100)
    assert out.shape == (21,)
    assert np.all(out == 5.0)


def test_sma_hand_case():
    (out,) = sma([1.0, 2.0, 3.0, 4.0], 2)
    np.testing.assert_array_equal(out, [1.5, 2.5, 3.5])


def test_sma_short_series_returns_empty():
    short, out = sma([1.0, 2.0, 3.0], 2, 200)  # beside a window the series fills
    np.testing.assert_array_equal(short, [1.5, 2.5])
    assert out.shape == (0,) and out.dtype == np.float64


def test_sma_invalid_window():
    with pytest.raises(InvalidWindowError):
        sma([1.0, 2.0], 0)


def test_sma_rolling_identity_at_large_scale():
    # out[k] averages values[k : k+n]; the rolling identity in input indexing
    # is out[k] - out[k-1] == (values[k+n-1] - values[k-1]) / n
    rng = make_rng(3)
    values = rng.random(300) * 1e6
    for n in (2, 7, 50):
        (out,) = sma(values, n)
        for k in range(1, out.size):
            expected = (values[k + n - 1] - values[k - 1]) / n
            assert abs((out[k] - out[k - 1]) - expected) < 1e-9


def _fsum_sma(values, n):
    """The moving average window by window, each sum correctly rounded."""
    return [math.fsum(values[k : k + n]) / n for k in range(len(values) - n + 1)]


def test_sma_equals_fsum_windows_bitwise():
    rng = make_rng(4)
    cases = [
        rng.random(500) * 1e6,
        rng.random(400) * 100.0 + 20.0,
        np.round(rng.random(300) * 1e6, 2),
        rng.normal(size=300) * 10.0 ** rng.integers(-8, 9, size=300),  # mixed scales and signs
    ]
    for values in cases:
        windows = (1, 2, 7, 100, 200, len(values))  # one call, as ingest makes
        for out, n in zip(sma(values, *windows), windows, strict=True):
            expected = np.array(_fsum_sma(list(values), n))
            assert out.tobytes() == expected.tobytes(), n


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_sma_refuses_a_non_finite_value(bad):
    values = [1.0, 2.0, bad, 4.0, -bad]
    for n in (2, 200):  # also when the series is shorter than the window
        with pytest.raises(ValueError, match=rf"values\[2\] is {bad}$"):
            sma(values, n)


# -------------------------------------------------------- chronological_split


def test_split_80_20():
    series = make_series(list(range(100)))
    result = chronological_split(series, 0.8)
    assert len(result.train) == 80
    assert len(result.test) == 20


def test_split_floor_rule():
    result = chronological_split(make_series([1, 2, 3, 4, 5]), 0.8)
    assert len(result.train) == 4
    assert len(result.test) == 1


def test_split_reconstruction_identity():
    rng = make_rng(9)
    series = make_series(rng.random(37), adj_closes=rng.random(37))
    result = chronological_split(series, 0.8)
    for field in ("days", "close", "adj_close"):
        joined = np.concatenate([getattr(result.train, field), getattr(result.test, field)])
        np.testing.assert_array_equal(joined, getattr(series, field))


def test_split_preserves_chronology():
    rng = make_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 50))
        ratio = float(rng.uniform(0.05, 0.95))
        result = chronological_split(make_series([1.0] * n), ratio)
        if len(result.train) and len(result.test):
            assert result.train.days[-1] < result.test.days[0]
        assert len(result.train) == math.floor(ratio * n)


def test_split_errors():
    with pytest.raises(BadRatioError):
        chronological_split(make_series([1, 2, 3]), 1.0)
    with pytest.raises(BadRatioError):
        chronological_split(make_series([1, 2, 3]), 0.0)
    with pytest.raises(EmptySeriesError):
        chronological_split(make_series([]), 0.8)

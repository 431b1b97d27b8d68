from __future__ import annotations

import math
from datetime import date

import numpy as np
import pytest

from seqcast.market_data import (
    BadDateError,
    BadRatioError,
    DuplicateDateError,
    EmptySeriesError,
    InsufficientDataWarning,
    InvalidWindowError,
    MissingColumnError,
    OhlcvBar,
    PriceSeries,
    chronological_split,
    drop_missing,
    parse_csv,
    serialize_csv,
    sma,
)
from seqcast.rng import make_rng

HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"


def make_series(closes, symbol="TST", start_ordinal=738155):
    bars = tuple(
        OhlcvBar(
            date=date.fromordinal(start_ordinal + k),
            open=c,
            high=c + 1.0,
            low=c - 1.0,
            close=c,
            adj_close=c,
            volume=100,
        )
        for k, c in enumerate(closes)
    )
    return PriceSeries(symbol=symbol, bars=bars)


# ---------------------------------------------------------------- parse_csv


def test_parse_csv_maps_fields_by_column_name():
    text = "\n".join(
        [
            HEADER,
            "2020-01-02,1.0,2.0,0.5,1.5,1.4,1000",
            "2020-01-03,1.5,2.5,1.0,2.0,1.9,2000",
        ]
    )
    series = parse_csv(text, "AAA")
    assert series.symbol == "AAA"
    assert len(series) == 2
    first = series.bars[0]
    assert first.date == date(2020, 1, 2)
    assert first.open == 1.0
    assert first.high == 2.0
    assert first.low == 0.5
    assert first.close == 1.5
    assert first.adj_close == 1.4
    assert first.volume == 1000


def test_parse_csv_empty_close_cell_becomes_missing():
    text = "\n".join([HEADER, "2020-01-02,1.0,2.0,0.5,,1.4,1000"])
    series = parse_csv(text)
    assert series.bars[0].close is None
    assert series.bars[0].open == 1.0


# float() plus a NaN check decides every cell form; no list of tokens is needed
@pytest.mark.parametrize(
    "cell",
    ["  ", "null", "NULL", "nan", "NaN", "n/a"]
    + ["", "\t", " Null ", "None", " NAN ", "-nan", "+nan", "abc"],
)
def test_parse_csv_missing_tokens_and_junk(cell):
    text = "\n".join([HEADER, f"2020-01-02,{cell},2.0,0.5,1.5,1.4,1000"])
    assert parse_csv(text).bars[0].open is None


@pytest.mark.parametrize(
    "cell, value", [("inf", math.inf), ("-Infinity", -math.inf), (" 1.5 ", 1.5), ("1e3", 1000.0)]
)
def test_parse_csv_reads_every_numeric_form(cell, value):
    text = "\n".join([HEADER, f"2020-01-02,{cell},2.0,0.5,1.5,1.4,1000"])
    assert parse_csv(text).bars[0].open == value


def test_parse_csv_sorts_descending_rows_ascending():
    days = [date(2020, 1, d) for d in (9, 8, 7, 6, 3)]
    rows = [f"{d.isoformat()},1,1,1,{k + 1.0},1,10" for k, d in enumerate(days)]
    series = parse_csv("\n".join([HEADER] + rows))
    assert series.dates() == sorted(days)
    # closes follow their rows through the sort
    assert series.bars[0].close == 5.0
    assert series.bars[-1].close == 1.0


def test_parse_csv_header_case_and_order_insensitive():
    text = "\n".join(
        [
            "volume,CLOSE,date,ADJ close",
            "5,10.5,2020-01-02,10.4",
        ]
    )
    bar = parse_csv(text).bars[0]
    assert bar.close == 10.5
    assert bar.adj_close == 10.4
    assert bar.volume == 5
    assert bar.open is None


def test_parse_csv_missing_required_columns():
    with pytest.raises(MissingColumnError):
        parse_csv("Open,High,Low,Close\n1,2,3,4")
    with pytest.raises(MissingColumnError):
        parse_csv("Date,Open\n2020-01-02,1")
    with pytest.raises(MissingColumnError):
        parse_csv("")


def test_parse_csv_bad_date():
    with pytest.raises(BadDateError):
        parse_csv("\n".join([HEADER, "02/01/2020,1,1,1,1,1,1"]))


def test_parse_csv_duplicate_date():
    rows = ["2020-01-02,1,1,1,1,1,1", "2020-01-02,2,2,2,2,2,2"]
    with pytest.raises(DuplicateDateError):
        parse_csv("\n".join([HEADER] + rows))


def test_parse_csv_negative_volume_becomes_missing():
    text = "\n".join([HEADER, "2020-01-02,1,1,1,1,1,-5"])
    assert parse_csv(text).bars[0].volume is None


def test_bar_rejects_negative_volume():
    with pytest.raises(ValueError):
        OhlcvBar(date=date(2020, 1, 2), volume=-1)


def test_serialize_parse_roundtrip():
    rng = make_rng(5)
    closes = 50.0 + rng.random(37) * 10.0
    series = make_series([round(float(c), 4) for c in closes])
    assert parse_csv(serialize_csv(series), "TST") == series


def test_serialize_parse_roundtrip_with_missing_cells():
    bars = (
        OhlcvBar(date=date(2020, 1, 2), close=1.5),
        OhlcvBar(date=date(2020, 1, 3), open=1.0, high=2.0, low=0.5, close=2.0, adj_close=1.9, volume=7),
    )
    series = PriceSeries(symbol="AAA", bars=bars)
    assert parse_csv(serialize_csv(series), "AAA") == series


# ------------------------------------------------------------- drop_missing


def test_drop_missing_identity_when_clean():
    series = make_series([1.0, 2.0, 3.0])
    cleaned, dropped = drop_missing(series)
    assert cleaned == series
    assert dropped == 0


def test_drop_missing_filters_and_preserves_order():
    bars = []
    for k in range(10):
        close = None if k in (3, 7) else float(k)
        bars.append(
            OhlcvBar(
                date=date.fromordinal(738155 + k),
                open=1.0,
                high=2.0,
                low=0.5,
                close=close,
                adj_close=1.0,
                volume=1,
            )
        )
    cleaned, dropped = drop_missing(PriceSeries(symbol="T", bars=tuple(bars)))
    assert dropped == 2
    assert len(cleaned) == 8
    assert [b.close for b in cleaned.bars] == [0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 9.0]


def test_drop_missing_all_missing_gives_empty():
    bars = tuple(OhlcvBar(date=date.fromordinal(738155 + k)) for k in range(4))
    cleaned, dropped = drop_missing(PriceSeries(symbol="T", bars=bars))
    assert len(cleaned) == 0
    assert dropped == 4


def test_drop_missing_idempotent():
    rng = make_rng(11)
    for _ in range(20):
        bars = []
        for k in range(int(rng.integers(0, 15))):
            missing = rng.random() < 0.3
            bars.append(
                OhlcvBar(
                    date=date.fromordinal(738155 + k),
                    open=1.0,
                    high=1.0,
                    low=1.0,
                    close=None if missing else 1.0,
                    adj_close=1.0,
                )
            )
        series = PriceSeries(symbol="T", bars=tuple(bars))
        once, n1 = drop_missing(series)
        twice, n2 = drop_missing(once)
        assert twice == once
        assert n2 == 0


# ---------------------------------------------------------------------- sma


def test_sma_constant_series_is_exact():
    out = sma([5.0] * 120, 100)
    assert out.shape == (21,)
    assert np.all(out == 5.0)


def test_sma_hand_case():
    out = sma([1.0, 2.0, 3.0, 4.0], 2)
    np.testing.assert_array_equal(out, [1.5, 2.5, 3.5])


def test_sma_short_series_warns_and_returns_empty():
    with pytest.warns(InsufficientDataWarning):
        out = sma([1.0, 2.0, 3.0], 200)
    assert out.size == 0


def test_sma_invalid_window():
    with pytest.raises(InvalidWindowError):
        sma([1.0, 2.0], 0)


def test_sma_rolling_identity_at_large_scale():
    # out[k] averages values[k : k+n]; the rolling identity in input indexing
    # is out[k] - out[k-1] == (values[k+n-1] - values[k-1]) / n
    rng = make_rng(3)
    values = rng.random(300) * 1e6
    for n in (2, 7, 50):
        out = sma(values, n)
        for k in range(1, out.size):
            expected = (values[k + n - 1] - values[k - 1]) / n
            assert abs((out[k] - out[k - 1]) - expected) < 1e-9


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
    series = make_series([float(v) for v in rng.random(37)])
    result = chronological_split(series, 0.8)
    assert result.train.bars + result.test.bars == series.bars


def test_split_preserves_chronology():
    rng = make_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 50))
        ratio = float(rng.uniform(0.05, 0.95))
        result = chronological_split(make_series([1.0] * n), ratio)
        if result.train.bars and result.test.bars:
            assert result.train.bars[-1].date < result.test.bars[0].date
        assert len(result.train) == math.floor(ratio * n)


def test_split_errors():
    with pytest.raises(BadRatioError):
        chronological_split(make_series([1, 2, 3]), 1.0)
    with pytest.raises(BadRatioError):
        chronological_split(make_series([1, 2, 3]), 0.0)
    with pytest.raises(EmptySeriesError):
        chronological_split(PriceSeries(symbol="T", bars=()), 0.8)

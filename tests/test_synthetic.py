from __future__ import annotations

import io
import zlib
from datetime import date
from importlib import resources

import numpy as np

from seqcast.market_data import drop_missing, parse_csv
from seqcast.rng import make_rng

from synthetic import (
    DEFAULT_END,
    DEFAULT_START,
    ETF_PROFILES,
    business_days,
    gbm_closes,
    synthetic_csv,
    write_fixtures,
)


def test_business_days_skips_weekends():
    days = business_days(date(2022, 1, 1), date(2022, 1, 10))
    assert days == [
        date(2022, 1, 3),
        date(2022, 1, 4),
        date(2022, 1, 5),
        date(2022, 1, 6),
        date(2022, 1, 7),
        date(2022, 1, 10),
    ]


def test_synthetic_series_deterministic_and_clean():
    a = synthetic_csv("VNQ")
    b = synthetic_csv("VNQ")
    assert a == b
    series = parse_csv(io.StringIO(a), "VNQ")
    for adjusted in (False, True):
        _, dropped = drop_missing(series, adjusted=adjusted)
        assert dropped == 0
    assert np.all(series.closes() > 0)


def test_synthetic_series_roundtrips_through_csv():
    # the text carries the generator's rounded walk exactly, in both close columns
    series = parse_csv(io.StringIO(synthetic_csv("VGT")), "VGT")
    days = business_days(DEFAULT_START, DEFAULT_END)
    start_price, drift, vol = ETF_PROFILES["VGT"]
    rng = make_rng(zlib.crc32(b"VGT"))
    walk = [round(float(c), 4) for c in gbm_closes(len(days), start_price, drift, vol, rng)]
    assert series.dates() == days
    np.testing.assert_array_equal(series.close, walk)
    np.testing.assert_array_equal(series.adj_close, walk)


def test_write_fixtures_covers_all_nine(tmp_path):
    paths = write_fixtures(tmp_path)
    assert {p.stem for p in paths} == set(ETF_PROFILES)
    for path in paths:
        series = parse_csv(io.StringIO(path.read_text()), path.stem)
        assert len(series) == len(business_days(DEFAULT_START, DEFAULT_END))


def test_bundled_fixtures_match_generator(tmp_path):
    # the committed CSVs are exactly what the generator emits, all nine of them
    written = write_fixtures(tmp_path)
    bundled = resources.files("seqcast").joinpath("fixtures")
    assert sorted(p.name for p in written) == sorted(
        p.name for p in bundled.iterdir() if p.name.endswith(".csv")
    )
    for path in written:
        assert path.read_bytes() == bundled.joinpath(path.name).read_bytes(), path.name

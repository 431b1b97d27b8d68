from __future__ import annotations

from datetime import date

import numpy as np

from seqcast.market_data import drop_missing, parse_csv, serialize_csv
from seqcast.synthetic import (
    ETF_PROFILES,
    business_days,
    synthetic_series,
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
    a = synthetic_series("VNQ", date(2020, 1, 1), date(2020, 3, 1))
    b = synthetic_series("VNQ", date(2020, 1, 1), date(2020, 3, 1))
    assert a == b
    cleaned, dropped = drop_missing(a)
    assert dropped == 0
    closes = cleaned.closes()
    assert np.all(closes > 0)


def test_synthetic_series_roundtrips_through_csv():
    series = synthetic_series("VGT", date(2020, 1, 1), date(2020, 2, 1))
    assert parse_csv(serialize_csv(series), "VGT") == series


def test_write_fixtures_covers_all_nine(tmp_path):
    paths = write_fixtures(tmp_path, date(2020, 1, 1), date(2020, 1, 20))
    assert {p.stem for p in paths} == set(ETF_PROFILES)
    for path in paths:
        series = parse_csv(path.read_text(), path.stem)
        assert len(series) == len(business_days(date(2020, 1, 1), date(2020, 1, 20)))


def test_bundled_fixtures_match_generator():
    # the committed CSVs are exactly what the generator emits
    from importlib import resources

    bundled = resources.files("seqcast").joinpath("fixtures/VNQ.csv").read_text()
    assert bundled == serialize_csv(synthetic_series("VNQ"))

"""OHLCV acquisition, cleaning, chronological splitting, and moving averages.

CSV ingestion is vendor-agnostic: column names are matched case-insensitively,
unparseable numeric cells become missing markers, and rows are sorted by date.
Cleaning and splitting never reorder bars.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from datetime import date
from urllib.error import HTTPError
from urllib.parse import urlsplit
from urllib.request import urlopen

import numpy as np


class MissingColumnError(ValueError):
    """CSV header lacks a required column (Date or Close)."""


class BadDateError(ValueError):
    """A date cell could not be parsed as a calendar day."""


class DuplicateDateError(ValueError):
    """Two rows share the same date."""


class BadRatioError(ValueError):
    """Split ratio outside the open interval (0, 1)."""


class EmptySeriesError(ValueError):
    """Operation requires a non-empty series."""


class InvalidWindowError(ValueError):
    """Window length below 1."""


class NetworkError(RuntimeError):
    """Transport-level failure while fetching remote data."""


class EmptyBodyError(RuntimeError):
    """Remote endpoint answered 200 with an empty body."""


class HttpStatusError(RuntimeError):
    def __init__(self, status: int):
        super().__init__(f"unexpected HTTP status {status}")
        self.status = status


class InsufficientDataWarning(UserWarning):
    """Series shorter than the requested moving-average window."""


# canonical header names after lowercasing and stripping separators
_COLUMN_ALIASES = {
    "date": "date",
    "open": "open",
    "high": "high",
    "low": "low",
    "close": "close",
    "adjclose": "adj_close",
    "adjustedclose": "adj_close",
    "volume": "volume",
}

_CSV_HEADER = ("Date", "Open", "High", "Low", "Close", "Adj Close", "Volume")


@dataclass(frozen=True, slots=True)
class OhlcvBar:
    """One daily bar; any field other than the date may be missing (None)."""

    date: date
    open: float | None = None
    high: float | None = None
    low: float | None = None
    close: float | None = None
    adj_close: float | None = None
    volume: int | None = None

    def __post_init__(self) -> None:
        if self.volume is not None and self.volume < 0:
            raise ValueError(f"volume must be non-negative, got {self.volume}")

    def has_all_prices(self) -> bool:
        return None not in (self.open, self.high, self.low, self.close, self.adj_close)


@dataclass(frozen=True, slots=True)
class PriceSeries:
    """Date-ordered bars for one ticker; dates strictly increasing."""

    symbol: str
    bars: tuple[OhlcvBar, ...]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.date == prev.date:
                raise DuplicateDateError(f"duplicate date {cur.date} in {self.symbol!r}")
            if cur.date < prev.date:
                raise ValueError(f"bars out of order at {cur.date}")

    def __len__(self) -> int:
        return len(self.bars)

    def dates(self) -> list[date]:
        return [bar.date for bar in self.bars]

    def closes(self, adjusted: bool = False) -> np.ndarray:
        """Close (or adjusted-close) channel as float64; missing becomes NaN."""
        values = [
            (bar.adj_close if adjusted else bar.close) for bar in self.bars
        ]
        return np.array(
            [float(v) if v is not None else np.nan for v in values], dtype=np.float64
        )


@dataclass(frozen=True, slots=True)
class SplitResult:
    train: PriceSeries
    test: PriceSeries
    ratio: float


def _normalize_column(name: str) -> str:
    return name.strip().lower().replace(" ", "").replace("_", "").replace("-", "")


def _parse_price(cell: str) -> float | None:
    """A cell's value, or None for an empty, non-numeric or not-a-number cell."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return None if math.isnan(value) else value


def _parse_volume(cell: str) -> int | None:
    value = _parse_price(cell)
    if value is None or value < 0:
        return None
    return int(value)


def parse_csv(text: str, symbol: str = "") -> PriceSeries:
    """Parse vendor CSV into a PriceSeries sorted ascending by date.

    Header columns are matched case-insensitively in any order; Date and Close
    are required. Unparseable numeric cells become missing markers rather than
    errors; an unparseable date is an error because the row cannot be placed.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumnError("empty input: no header row") from None

    columns: dict[str, int] = {}
    for idx, raw in enumerate(header):
        canonical = _COLUMN_ALIASES.get(_normalize_column(raw))
        if canonical is not None and canonical not in columns:
            columns[canonical] = idx
    for required in ("date", "close"):
        if required not in columns:
            raise MissingColumnError(f"header has no {required!r} column: {header}")

    def cell(row: list[str], name: str) -> str:
        idx = columns.get(name)
        if idx is None or idx >= len(row):
            return ""
        return row[idx]

    bars = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        raw_date = cell(row, "date").strip()
        try:
            day = date.fromisoformat(raw_date)
        except ValueError:
            raise BadDateError(f"line {line_no}: unparseable date {raw_date!r}") from None
        bars.append(
            OhlcvBar(
                date=day,
                open=_parse_price(cell(row, "open")),
                high=_parse_price(cell(row, "high")),
                low=_parse_price(cell(row, "low")),
                close=_parse_price(cell(row, "close")),
                adj_close=_parse_price(cell(row, "adj_close")),
                volume=_parse_volume(cell(row, "volume")),
            )
        )

    bars.sort(key=lambda bar: bar.date)
    return PriceSeries(symbol=symbol, bars=tuple(bars))


def serialize_csv(series: PriceSeries) -> str:
    """Inverse of parse_csv: canonical header, repr-exact floats, '' for missing."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_HEADER)

    def fmt(value: float | int | None) -> str:
        return "" if value is None else repr(value) if isinstance(value, float) else str(value)

    for bar in series.bars:
        writer.writerow(
            [
                bar.date.isoformat(),
                fmt(bar.open),
                fmt(bar.high),
                fmt(bar.low),
                fmt(bar.close),
                fmt(bar.adj_close),
                fmt(bar.volume),
            ]
        )
    return out.getvalue()


def fetch_remote(
    endpoint_template: str,
    symbol: str,
    start: date | str,
    end: date | str,
    timeout: float = 30.0,
) -> str:
    """GET a CSV body from a templated endpoint.

    The template must contain {symbol}, {start}, and {end} placeholders,
    and the URL must be http or https. Feeds parse_csv on success.
    """
    for placeholder in ("{symbol}", "{start}", "{end}"):
        if placeholder not in endpoint_template:
            raise ValueError(f"endpoint template missing {placeholder}: {endpoint_template!r}")
    url = endpoint_template.format(symbol=symbol, start=str(start), end=str(end))
    if urlsplit(url).scheme not in ("http", "https"):
        raise NetworkError(f"only http and https endpoints are fetched, not {url}")
    try:
        with urlopen(url, timeout=timeout) as response:
            status = response.status
            charset = response.headers.get_content_charset() or "utf-8"
            body = response.read()
    except HTTPError as exc:
        raise HttpStatusError(exc.code) from exc
    except OSError as exc:  # URLError, refused connections and timeouts
        raise NetworkError(f"fetch failed for {url}: {exc}") from exc
    if status != 200:
        raise HttpStatusError(status)
    if not body:
        raise EmptyBodyError(f"empty body from {url}")
    return body.decode(charset)


def drop_missing(series: PriceSeries) -> tuple[PriceSeries, int]:
    """Remove bars with any missing price field, preserving order.

    Volume may stay missing; only the five price channels are required.
    Idempotent. Returns the cleaned series and the number of bars dropped.
    """
    kept = tuple(bar for bar in series.bars if bar.has_all_prices())
    dropped = len(series.bars) - len(kept)
    return PriceSeries(symbol=series.symbol, bars=kept), dropped


def sma(values, n: int) -> np.ndarray:
    """Simple moving average: out[k] = mean(values[k : k + n]).

    out[k] is the average ending at input index k + n - 1; the first n - 1
    input positions have no defined average, so the output is shorter than
    the input by n - 1. A series shorter than n yields an empty array and an
    InsufficientDataWarning.
    """
    if n < 1:
        raise InvalidWindowError(f"window must be >= 1, got {n}")
    vals = [float(v) for v in values]
    if len(vals) < n:
        warnings.warn(
            f"series of length {len(vals)} shorter than window {n}",
            InsufficientDataWarning,
            stacklevel=2,
        )
        return np.empty(0, dtype=np.float64)
    # fsum gives correctly rounded window sums, keeping the rolling identity
    # sma[t] - sma[t-1] == (P_t - P_{t-n})/n tight even at price scale 1e6
    return np.array(
        [math.fsum(vals[k : k + n]) / n for k in range(len(vals) - n + 1)],
        dtype=np.float64,
    )


def chronological_split(series: PriceSeries, ratio: float) -> SplitResult:
    """First floor(ratio * len) bars become train, the rest test. No shuffling."""
    if len(series) == 0:
        raise EmptySeriesError("cannot split an empty series")
    if not 0.0 < ratio < 1.0:
        raise BadRatioError(f"ratio must be in (0, 1), got {ratio}")
    cut = math.floor(ratio * len(series))
    train = PriceSeries(symbol=series.symbol, bars=series.bars[:cut])
    test = PriceSeries(symbol=series.symbol, bars=series.bars[cut:])
    return SplitResult(train=train, test=test, ratio=ratio)

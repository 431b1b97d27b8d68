"""Daily close parsing, cleaning, chronological splitting, and moving averages.

A series is close-only and columnar: one array of days plus one float64
array each for the close and the adjusted close, with NaN as the missing
marker. CSV ingestion is vendor-agnostic: column names are matched
case-insensitively, columns other than the date and the two closes are
ignored, unparseable or non-finite numeric cells become NaN, and rows are
sorted by date. Cleaning and splitting select rows and never reorder them.
A parse holds the text plus 8 bytes per cell it reads: lines are cut from
the text one at a time, and the date and both closes of each row go straight
into typed columns.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass
from datetime import date
from itertools import accumulate, islice, repeat, tee
from operator import lshift, sub, truediv

import numpy as np


class MissingColumnError(ValueError):
    """CSV header lacks a required column (Date or Close)."""


class BadDateError(ValueError):
    """A date cell could not be parsed as a calendar day, or days do not strictly increase."""


class BadRatioError(ValueError):
    """Split ratio outside the open interval (0, 1)."""


class EmptySeriesError(ValueError):
    """Operation requires a non-empty series."""


class InvalidWindowError(ValueError):
    """Window length below 1, not shorter than the series it slides over, or not
    the length of the train tail that bridges into the test values."""


# canonical header names after lowercasing and stripping separators
_COLUMN_ALIASES = {
    "date": "date",
    "close": "close",
    "adjclose": "adj_close",
    "adjustedclose": "adj_close",
}
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]
# a line as io.StringIO yields it: up to and with a "\n", never ended at a "\r"
# or at another boundary str.splitlines knows
_LINE = re.compile(r"[^\n]*\n|[^\n]+")


@dataclass(frozen=True, slots=True, eq=False)
class PriceSeries:
    """One ticker's daily closes as columns; days strictly increasing.

    `days` is a datetime64[D] array; `close` and `adj_close` are float64
    arrays of the same length with NaN for a missing value. Arrays do not
    compare by value, so neither does a series.
    """

    symbol: str
    days: np.ndarray
    close: np.ndarray
    adj_close: np.ndarray

    def __post_init__(self) -> None:
        steps = np.flatnonzero(np.diff(self.days) <= np.timedelta64(0, "D"))
        if steps.size:
            day = self.days[steps[0] + 1]
            if day == self.days[steps[0]]:
                raise BadDateError(f"duplicate date {day} in {self.symbol!r}")
            raise BadDateError(f"rows out of order at {day}")

    def __len__(self) -> int:
        return len(self.days)

    def __getitem__(self, rows: slice | np.ndarray) -> PriceSeries:
        """The rows a slice or a boolean mask selects, in order."""
        return PriceSeries(self.symbol, self.days[rows], self.close[rows], self.adj_close[rows])

    def dates(self) -> list[date]:
        return self.days.tolist()

    def closes(self, adjusted: bool = False) -> np.ndarray:
        """A copy of the close (or adjusted-close) channel; missing is NaN."""
        return (self.adj_close if adjusted else self.close).copy()


@dataclass(frozen=True, slots=True)
class SplitResult:
    train: PriceSeries
    test: PriceSeries


def _normalize_column(name: str) -> str:
    return name.strip().lower().replace(" ", "").replace("_", "").replace("-", "")


def _parse_price(cell: str) -> float:
    """A cell's value; NaN for an empty, non-numeric or non-finite cell."""
    try:
        value = float(cell)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def parse_csv(text: str, symbol: str = "") -> PriceSeries:
    """Parse vendor CSV into a PriceSeries sorted ascending by date.

    Header columns are matched case-insensitively in any order; Date and Close
    are required, Adj Close is read when present, and every other column is
    ignored. Unparseable or non-finite numeric cells become NaN rather than
    errors; an unparseable date is an error because the row cannot be placed.
    """
    reader = csv.reader(map(re.Match.group, _LINE.finditer(text)))  # no copy of the text
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

    di, ci, ai = columns["date"], columns["close"], columns.get("adj_close")
    blank = [""] * (max(columns.values()) + 1)  # a short row's missing cells are empty
    days, close, adj_close = array("q"), array("d"), array("d")
    add_day, add_close, add_adj = days.append, close.append, adj_close.append
    for line_no, row in enumerate(reader, start=2):
        row += blank[len(row) :]
        raw_date = row[di].strip()
        if not raw_date and not "".join(row).strip():
            continue
        try:
            add_day(date.fromisoformat(raw_date).toordinal())
        except ValueError:
            raise BadDateError(f"line {line_no}: unparseable date {raw_date!r}") from None
        add_close(_parse_price(row[ci]))
        add_adj(math.nan if ai is None else _parse_price(row[ai]))

    # from ordinals: numpy converts a list of date objects one by one, ~30x slower
    day_array = (np.asarray(days) - _EPOCH_ORDINAL).astype("datetime64[D]")
    order = np.argsort(day_array, kind="stable")
    return PriceSeries(
        symbol, day_array[order], np.asarray(close)[order], np.asarray(adj_close)[order]
    )


def drop_missing(series: PriceSeries, adjusted: bool = False) -> tuple[PriceSeries, int]:
    """Remove the rows whose close (or adjusted close) is NaN, preserving order.

    The other channel may stay missing. Idempotent. Returns the cleaned
    series and the number of rows dropped.
    """
    cleaned = series[~np.isnan(series.adj_close if adjusted else series.close)]
    return cleaned, len(series) - len(cleaned)


def sma(values, *windows: int) -> list[np.ndarray]:
    """Simple moving averages, one array per window n: out[k] = mean(values[k : k + n]).

    out[k] is the average ending at input index k + n - 1; the first n - 1
    input positions have no defined average, so the output is shorter than
    the input by n - 1. A series shorter than n yields an empty array. Every
    value must be finite.
    """
    if min(windows) < 1:
        raise InvalidWindowError(f"window must be >= 1, got {min(windows)}")
    vals = np.asarray(values, dtype=np.float64)
    for j in np.flatnonzero(~np.isfinite(vals))[:1]:  # the first non-finite value
        raise ValueError(f"moving average of a non-finite value: values[{j}] is {vals[j]}")
    # A finite float is m * 2**(e - 53) for a 53-bit integer m (frexp): in units of 2**(e0 - 53),
    # e0 = min(0, every e), it is the integer m << (e - e0). Exact prefix sums of those and one
    # int / int division give math.fsum(window) in O(len), bitwise at any scale.
    mant, exp = np.frexp(vals)
    e0 = int(exp.min(initial=0))
    digits, shifts = np.ldexp(mant, 53).astype(np.int64), exp - e0
    out = []
    for n in windows:
        ahead, behind = tee(accumulate(map(lshift, digits.data, shifts.data), initial=0))
        next(islice(ahead, n - 1, None), None)  # n sums in front; tee holds only those n
        sums = map(truediv, map(sub, ahead, behind), repeat(1 << (53 - e0)))
        out.append(np.fromiter(sums, np.float64, max(0, len(vals) - n + 1)) / n)
    return out


def chronological_split(series: PriceSeries, ratio: float) -> SplitResult:
    """First floor(ratio * len) rows become train, the rest test. No shuffling."""
    if len(series) == 0:
        raise EmptySeriesError("cannot split an empty series")
    if not 0.0 < ratio < 1.0:
        raise BadRatioError(f"ratio must be in (0, 1), got {ratio}")
    cut = math.floor(ratio * len(series))
    return SplitResult(train=series[:cut], test=series[cut:])

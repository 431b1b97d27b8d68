"""Deterministic synthetic market data: the generator of the bundled fixtures.

The bundled fixture CSVs are geometric random walks shaped to resemble the
nine Vanguard sector ETFs (level, drift, volatility); regenerate them with

    python tests/synthetic.py --out-dir src/seqcast/fixtures

This script needs numpy only, not seqcast. Everything is seeded from the
symbol name through np.random.default_rng, the PCG64 stream of
seqcast.rng.make_rng, so the files are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import math
import zlib
from datetime import date, timedelta
from pathlib import Path

import numpy as np

DEFAULT_START = date(2012, 1, 2)
DEFAULT_END = date(2022, 12, 21)

# symbol -> (start price, annual drift, annual volatility)
ETF_PROFILES: dict[str, tuple[float, float, float]] = {
    "VGT": (62.0, 0.17, 0.21),
    "VFH": (30.0, 0.11, 0.22),
    "VCR": (58.0, 0.13, 0.20),
    "VHT": (63.0, 0.12, 0.16),
    "VOX": (60.0, 0.06, 0.19),
    "VIS": (60.0, 0.10, 0.19),
    "VDE": (95.0, 0.02, 0.28),
    "VNQ": (60.0, 0.05, 0.15),
    "VPU": (72.0, 0.07, 0.14),
}


def business_days(start: date, end: date) -> list[date]:
    """Weekdays in [start, end]; holidays are not modeled."""
    days = []
    day = start
    while day <= end:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


def gbm_closes(
    n: int, start_price: float, drift: float, vol: float, rng: np.random.Generator
) -> np.ndarray:
    """Geometric Brownian motion sampled at 252 steps per year."""
    dt = 1.0 / 252.0
    steps = (drift - 0.5 * vol * vol) * dt + vol * math.sqrt(dt) * rng.standard_normal(n - 1)
    log_path = np.concatenate([[0.0], np.cumsum(steps)])
    return start_price * np.exp(log_path)


def synthetic_csv(symbol: str) -> str:
    """One symbol's OHLCV walk over the fixture range as CSV text, seeded from its name."""
    start_price, drift, vol = ETF_PROFILES.get(symbol, (50.0, 0.08, 0.20))
    rng = np.random.default_rng(zlib.crc32(symbol.encode("ascii")))
    days = business_days(DEFAULT_START, DEFAULT_END)
    closes = gbm_closes(len(days), start_price, drift, vol, rng)
    intraday = rng.uniform(0.0, 0.01, size=(len(days), 2))
    volumes = rng.integers(200_000, 3_000_000, size=len(days))

    lines = ["Date,Open,High,Low,Close,Adj Close,Volume\n"]
    prev_close = closes[0]
    for k, day in enumerate(days):
        close = round(float(closes[k]), 4)
        open_ = round(float(prev_close), 4)
        high = round(max(open_, close) * (1.0 + float(intraday[k, 0])), 4)
        low = round(min(open_, close) * (1.0 - float(intraday[k, 1])), 4)
        lines.append(
            f"{day.isoformat()},{open_!r},{high!r},{low!r},{close!r},{close!r},{volumes[k]}\n"
        )
        prev_close = closes[k]
    return "".join(lines)


def write_fixtures(out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for symbol in ETF_PROFILES:
        path = out / f"{symbol}.csv"
        path.write_text(synthetic_csv(symbol), encoding="utf-8")
        written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regenerate the bundled fixture CSVs")
    parser.add_argument("--out-dir", default="src/seqcast/fixtures")
    args = parser.parse_args(argv)
    for path in write_fixtures(args.out_dir):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""A fixed piece of work that measures how fast the host runs right now.

The benchmark's host is shared: in phases lasting seconds to minutes it
runs the same code up to 1.7x slower, in CPU time as well as wall time, so
no run length makes raw timings of two sets of runs agree. The yardstick is
fixed work, written here and never changed with the program, that a slow
phase slows by about as much as it slows the workload. The measured run
interleaves yardstick samples with the operations and divides each
statistic of the operation times by the same statistic of the samples
(median by median, a percentile by the same percentile, mean by mean),
times the yardstick's nominal time: figures read as they would on a host
where the yardstick takes its nominal time. Matching the statistics keeps
the host's jitter out of the tail and the mean as well as the median.

Two yardsticks, by the kind of work the workload does:

- "gemm": a float64 LSTM forward pass at the paper's layer sizes
  (50/60/80/120 units), batch 256, 8 timesteps. Like train-paper and
  evaluate-paper, it is BLAS GEMMs and elementwise ufuncs on mid-sized
  arrays; their times move in proportion to it.
- "overhead": the same pass, then the same cell at 8 units and batch 32
  over 20 timesteps, 45 times, then parsing, averaging and JSON-encoding
  3,600 CSV rows in pure Python. pipeline-tiny is per-call overhead, and a
  slow phase slows it about 1.5 times as much (in log terms) as the "gemm"
  pass; the small-array and Python parts slow a little more than it does,
  and the sum of the three tracks it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time

import numpy as np

# About the median sample time on a quiet 2-vCPU host; they only set the scale.
NOMINAL_MS = {"gemm": 45.0, "overhead": 135.0}
SHARE = 0.25  # yardstick time kept at this share of the operations' time
MIN_SAMPLES = 5


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_stack(rng, units: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    layers, n_in = [], 1
    for n in units:
        w = rng.standard_normal((n_in + n, 4 * n)) / np.sqrt(n_in + n)
        layers.append((w, np.zeros(4 * n)))
        n_in = n
    return layers


def _lstm_forward(layers, inputs: np.ndarray) -> float:
    """Forward pass over `inputs` ([T, B, 1]); returns a checksum."""
    seq = inputs
    for w, b in layers:
        units = b.size // 4
        h = np.zeros((inputs.shape[1], units))
        c = np.zeros_like(h)
        outs = []
        for x in seq:
            z = np.concatenate([x, h], axis=1) @ w + b
            gates = _sigmoid(z[:, : 2 * units])
            c = gates[:, :units] * c + gates[:, units:] * np.tanh(z[:, 2 * units : 3 * units])
            h = _sigmoid(z[:, 3 * units :]) * np.tanh(c)
            outs.append(h)
        seq = np.stack(outs)
    return float(seq[-1].sum())


class Yardstick:
    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(20240909)
        self.nominal_ms = NOMINAL_MS[kind]
        paper, paper_inputs = _lstm_stack(rng, (50, 60, 80, 120)), rng.random((8, 256, 1))
        self.parts = [lambda: _lstm_forward(paper, paper_inputs)]
        if kind == "overhead":
            self.small = _lstm_stack(rng, (8, 8))
            self.small_inputs = rng.random((20, 32, 1))
            self.csv_text = "\n".join(
                f"2010-01-{i % 28 + 1:02d}," + ",".join(repr(float(v)) for v in row)
                for i, row in enumerate(rng.random((3600, 5)))
            )
            self.parts += [self._small_passes, self._parse]
        self.samples: list[float] = []  # seconds
        self.spent = 0.0

    def _small_passes(self) -> float:
        return sum(_lstm_forward(self.small, self.small_inputs) for _ in range(45))

    def _parse(self) -> float:
        rows = [(r[0], *map(float, r[1:])) for r in csv.reader(io.StringIO(self.csv_text))]
        closes = [r[4] for r in rows]
        sma = [math.fsum(closes[j : j + 20]) / 20 for j in range(len(closes) - 19)]
        return float(len(json.dumps({"rows": rows, "sma": sma})))

    def sample(self) -> None:
        start = time.perf_counter()
        for part in self.parts:
            part()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def keep_up(self, op_seconds: float) -> None:
        """Sample until the yardstick's time is SHARE of `op_seconds`, the
        operations' time so far, so that the samples spread over the run."""
        while self.spent < SHARE * op_seconds or len(self.samples) < MIN_SAMPLES:
            self.sample()

    def percentile_ms(self, p: int) -> float:
        """The samples' p-th percentile, ranked as harness.tail_percentile
        ranks the operations; the median for p = 50."""
        if p == 50:
            return statistics.median(self.samples) * 1e3
        ordered = sorted(self.samples)
        return ordered[math.ceil(p * len(ordered) / 100) - 1] * 1e3

    def mean_ms(self) -> float:
        return statistics.mean(self.samples) * 1e3

"""Min-max scaling and sliding-window dataset construction.

The scaler is fit on the training split only; test values that land outside
[0, 1] are preserved, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .market_data import InvalidWindowError


class DegenerateRangeError(ValueError):
    """Fewer than two fit values, all equal, or not finite: min-max scaling is undefined."""


@dataclass(frozen=True, slots=True)
class ScalerParams:
    min_value: float
    max_value: float

    def __post_init__(self) -> None:
        if not -math.inf < self.min_value < self.max_value < math.inf:  # also refuses NaN
            raise DegenerateRangeError(
                f"the range must be finite and increasing, got [{self.min_value}, {self.max_value}]"
            )


def fit_scaler(train_values) -> ScalerParams:
    """Record min and max of the training values only (no test leakage)."""
    arr = np.asarray(train_values, dtype=np.float64)
    if arr.size < 2:
        raise DegenerateRangeError(f"need at least 2 values to fit a scaler, got {arr.size}")
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        raise DegenerateRangeError(f"all {arr.size} values equal {lo}")
    return ScalerParams(min_value=lo, max_value=hi)


def transform(params: ScalerParams, values) -> np.ndarray:
    """Affine map sending the training extrema to 0 and 1. Out-of-range values pass through."""
    arr = np.asarray(values, dtype=np.float64)
    return (arr - params.min_value) / (params.max_value - params.min_value)


def inverse_transform(params: ScalerParams, scaled) -> np.ndarray:
    arr = np.asarray(scaled, dtype=np.float64)
    return arr * (params.max_value - params.min_value) + params.min_value


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised samples: inputs[i] is values[i : i+window], target i is values[i+window].

    `inputs` is a read-only view of the windowed values, not a copy: windows
    overlap in memory, and writing the values a caller passed changes them.
    """

    inputs: np.ndarray  # [samples, window, 1]
    targets: np.ndarray  # [samples]
    target_dates: tuple[date, ...] | None = None

    @property
    def n_samples(self) -> int:
        return int(self.inputs.shape[0])


def _window_arrays(arr: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    inputs = np.lib.stride_tricks.sliding_window_view(arr, window)[: arr.size - window]
    return inputs[:, :, np.newaxis], arr[window:].copy()


def make_windows(values, window: int) -> WindowedDataset:
    """Slide a length-`window` history over the series; horizon is one step."""
    if window < 1:
        raise InvalidWindowError(f"window must be >= 1, got {window}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size <= window:
        raise InvalidWindowError(
            f"series of length {arr.size} yields no samples at window {window}"
        )
    inputs, targets = _window_arrays(arr, window)
    return WindowedDataset(inputs=inputs, targets=targets)


def bridge_test_windows(train_tail, test_values, window: int, dates=None) -> WindowedDataset:
    """Window over concat(train_tail, test) so every test point has full history.

    train_tail must hold exactly the last `window` scaled train values; the
    resulting dataset has one sample per test value.
    """
    if window < 1:
        raise InvalidWindowError(f"window must be >= 1, got {window}")
    tail = np.asarray(train_tail, dtype=np.float64)
    test = np.asarray(test_values, dtype=np.float64)
    if tail.size != window:
        raise InvalidWindowError(f"train tail has {tail.size} values, need exactly {window}")
    if dates is not None and len(dates) != test.size:
        raise ValueError(f"got {len(dates)} dates for {test.size} test values")
    inputs, targets = _window_arrays(np.concatenate([tail, test]), window)
    target_dates = tuple(dates) if dates is not None else None
    return WindowedDataset(inputs=inputs, targets=targets, target_dates=target_dates)

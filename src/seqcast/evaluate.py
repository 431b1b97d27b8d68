"""Regression metric battery over unscaled prices, plus test-set prediction.

MAPE guards against near-zero actuals: samples with |actual| below
_MAPE_THRESHOLD (1e-8) are excluded and counted instead of producing
astronomical percentages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .lstm_core import NetworkConfig, NetworkParams, network_forward
from .preprocess import ScalerParams, WindowedDataset, inverse_transform
from .training import EmptySetError, PredictionSet, mse_loss

_MAPE_THRESHOLD = 1e-8


class ZeroVarianceError(ValueError):
    """Actuals are constant (or fewer than two): R2 and EVS are undefined."""


class AllExcludedError(ValueError):
    """Every actual fell below the MAPE threshold."""


def rmse(p: PredictionSet) -> float:
    return math.sqrt(mse_loss(p))


def mae(p: PredictionSet) -> float:
    return float(np.mean(np.abs(p.y - p.y_hat)))


def r_squared(p: PredictionSet) -> float:
    """1 - SSres/SStot; 1.0 is perfect, 0.0 matches the mean predictor."""
    if p.n < 2:
        raise ZeroVarianceError("r_squared needs at least 2 samples")
    residual = p.y - p.y_hat
    total = p.y - p.y.mean()
    ss_tot = float(np.sum(total * total))
    if ss_tot == 0.0:
        raise ZeroVarianceError("actuals are all equal")
    return 1.0 - float(np.sum(residual * residual)) / ss_tot


def mape(p: PredictionSet) -> tuple[float, int]:
    """Mean |y - y_hat| / |y| over samples with |y| >= _MAPE_THRESHOLD.

    Returns (fraction, excluded_count); raises AllExcludedError when no
    sample survives the guard.
    """
    keep = np.abs(p.y) >= _MAPE_THRESHOLD
    excluded = int(p.n - keep.sum())
    if excluded == p.n:
        raise AllExcludedError(f"all {p.n} actuals below threshold {_MAPE_THRESHOLD}")
    ratios = np.abs(p.y[keep] - p.y_hat[keep]) / np.abs(p.y[keep])
    return float(np.mean(ratios)), excluded


def explained_variance(p: PredictionSet) -> float:
    """1 - Var(y - y_hat)/Var(y) with population variances.

    Shift-invariant: a constant prediction bias does not lower the score,
    which is why explained_variance >= r_squared always holds.
    """
    if p.n < 2:
        raise ZeroVarianceError("explained_variance needs at least 2 samples")
    var_y = float(np.var(p.y))
    if var_y == 0.0:
        raise ZeroVarianceError("actuals are all equal")
    return 1.0 - float(np.var(p.y - p.y_hat)) / var_y


@dataclass(frozen=True)
class MetricsReport:
    rmse: float
    mae: float
    r_squared: float
    mape: float
    explained_variance: float
    mape_excluded_count: int


def compute_metrics(p: PredictionSet) -> MetricsReport:
    mape_value, excluded = mape(p)
    return MetricsReport(
        rmse=rmse(p),
        mae=mae(p),
        r_squared=r_squared(p),
        mape=mape_value,
        explained_variance=explained_variance(p),
        mape_excluded_count=excluded,
    )


def predict_series(
    params: NetworkParams,
    config: NetworkConfig,
    scaler: ScalerParams,
    windows: WindowedDataset,
) -> tuple[PredictionSet, tuple[date, ...] | None]:
    """Inference over test windows, inverse-scaled to price units.

    One (actual, predicted) pair per test day; windows come from
    bridge_test_windows so every target has a full history. One inference
    call: lstm_core runs the windows in chunks, on a spare core too.
    """
    if windows.n_samples == 0:
        raise EmptySetError("no windows to predict")
    scaled_pred, _ = network_forward(params, config, windows.inputs, mode="inference")
    pset = PredictionSet(
        y=inverse_transform(scaler, windows.targets),
        y_hat=inverse_transform(scaler, scaled_pred[:, 0]),
    )
    return pset, windows.target_dates

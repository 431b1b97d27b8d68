"""Regression metric battery over unscaled prices, plus test-set prediction.

MAPE guards against near-zero actuals: samples with |actual| below
_MAPE_THRESHOLD (1e-8) are excluded and counted instead of producing
astronomical percentages.

predict_series runs its chunks of windows on lstm_core._workers threads, the
policy network_backward shares: two when OPENBLAS_NUM_THREADS (else
OMP_NUM_THREADS) leaves a core idle, as NumPy releases the GIL in its GEMMs
and ufuncs. The chunks are the same either way, so the predictions are too
at a given BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .lstm_core import NetworkConfig, NetworkParams, _workers, network_forward
from .preprocess import ScalerParams, WindowedDataset, inverse_transform
from .training import EmptySetError, PredictionSet, mse_loss

# Windows per chunk, serial or pooled: one size for both keeps their predictions bitwise
# equal on any BLAS kernel. Two chunks at once peak below one of twice the size, and 120
# gave the predictions of 256-window chunks on the OpenBLAS kernels tried; 116 and 60 did not.
_PREDICT_BATCH = 120

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
    bridge_test_windows so every target has a full history. Chunks run on
    _workers threads and are concatenated in window order; a
    worker's exception is raised here.
    """
    if windows.n_samples == 0:
        raise EmptySetError("no windows to predict")
    workers = _workers(config.layer_units)

    def forward(lo: int) -> np.ndarray:
        batch = windows.inputs[lo : lo + _PREDICT_BATCH]
        pred, _ = network_forward(params, config, batch, mode="inference")
        return pred[:, 0]

    starts = range(0, windows.n_samples, _PREDICT_BATCH)
    if workers == 1:
        chunks = [forward(lo) for lo in starts]
    else:
        # imported here, not at the top, where every start-up would pay for it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            chunks = list(pool.map(forward, starts))
    scaled_pred = np.concatenate(chunks)
    pset = PredictionSet(
        y=inverse_transform(scaler, windows.targets),
        y_hat=inverse_transform(scaler, scaled_pred),
    )
    return pset, windows.target_dates

"""Regression metric battery over unscaled prices, plus test-set prediction.

MAPE guards against near-zero actuals: samples with |actual| below
_MAPE_THRESHOLD (1e-8) are excluded and counted instead of producing
astronomical percentages.

predict_series runs its chunks of windows on the cores BLAS leaves free, as
NumPy releases the GIL inside its GEMMs and ufuncs: on two threads when
OPENBLAS_NUM_THREADS (else OMP_NUM_THREADS) leaves cores idle, serially when
neither is set. The chunks are the same either way, so the predictions are
too at a given BLAS thread count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from datetime import date

import numpy as np

from .lstm_core import NetworkConfig, NetworkParams, network_forward
from .preprocess import ScalerParams, WindowedDataset, inverse_transform
from .training import EmptySetError, PredictionSet, mse_loss

# Windows per chunk, serial or pooled: one size for both keeps their
# predictions bitwise equal on any BLAS kernel. Two 120-window chunks at once
# peak at 2.75 MB under tracemalloc at the paper config, below one
# 256-window chunk's 2.91 MB. 120 gave predictions bitwise equal to
# 256-window chunks on OpenBLAS 0.3.31's SkylakeX, Haswell, Sandybridge,
# Nehalem and Katmai kernels; 116 and 60 did not on SkylakeX.
_PREDICT_BATCH = 120

# Inference stays on one thread when a layer is narrower than this: a narrow
# step is mostly NumPy's per-call overhead, which holds the GIL. Two workers
# over one, 573 windows, T=100 unless given, one BLAS thread, on a 2-vCPU x86
# host, 3 process pairs (5 for the middle three stacks), median in brackets:
# (8, 8) T=20 0.33-0.62x, (8, 8) 0.36-0.82x, (16, 16) 0.46-0.66x, (32, 32)
# 0.84-1.18x (0.86), (50,) 1.17-1.61x (1.22), (50, 60) 0.99-2.02x (1.38), the
# paper stack 1.59-1.75x.
_POOL_MIN_UNITS = 50

# At most this many inference threads: the speed-ups above were measured with
# two, and an affinity mask does not show a container's CPU quota.
_POOL_MAX_WORKERS = 2

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


def _workers(config: NetworkConfig) -> int:
    """Inference threads: the usable cores over the BLAS threads the environment
    names, at most _POOL_MAX_WORKERS. One when neither variable is set (BLAS
    threads over every core), when it is not a positive integer, or when a
    layer is under _POOL_MIN_UNITS."""
    if min(config.layer_units) < _POOL_MIN_UNITS:
        return 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            if hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))
            else:
                cpus = os.cpu_count() or 1
            return max(1, min(_POOL_MAX_WORKERS, cpus // blas))
    return 1


def predict_series(
    params: NetworkParams,
    config: NetworkConfig,
    scaler: ScalerParams,
    windows: WindowedDataset,
) -> tuple[PredictionSet, tuple[date, ...] | None]:
    """Inference over test windows, inverse-scaled to price units.

    One (actual, predicted) pair per test day; windows come from
    bridge_test_windows so every target has a full history. Chunks run on
    _workers(config) threads and are concatenated in window order; a
    worker's exception is raised here.
    """
    if windows.n_samples == 0:
        raise EmptySetError("no windows to predict")
    workers = _workers(config)

    def forward(lo: int) -> np.ndarray:
        batch = windows.inputs[lo : lo + _PREDICT_BATCH]
        pred, _ = network_forward(params, config, batch, mode="inference")
        return pred[:, 0]

    starts = range(0, windows.n_samples, _PREDICT_BATCH)
    if workers == 1:
        chunks = [forward(lo) for lo in starts]
    else:
        # imported here, not at the top: ~8 ms on a 2-vCPU x86 host, paid at every start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            chunks = list(pool.map(forward, starts))
    scaled_pred = np.concatenate(chunks)
    pset = PredictionSet(
        y=inverse_transform(scaler, windows.targets),
        y_hat=inverse_transform(scaler, scaled_pred),
    )
    return pset, windows.target_dates

"""MSE loss, Adam optimization, the epoch/batch loop, and the gradient-check oracle."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .lstm_core import (
    NetworkConfig,
    NetworkParams,
    ShapeMismatchError,
    copy_params,
    network_backward,
    network_forward,
)
from .preprocess import WindowedDataset
from .rng import make_rng


class EmptySetError(ValueError):
    """Loss and metrics need at least one (actual, predicted) pair."""


class EmptyDatasetError(ValueError):
    """Training needs at least one sample."""


class DivergedError(ArithmeticError):
    """Training produced a non-finite loss or parameter."""


@dataclass(frozen=True)
class PredictionSet:
    """Aligned actual/predicted value pairs."""

    y: np.ndarray
    y_hat: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        y_hat = np.asarray(self.y_hat, dtype=np.float64).reshape(-1)
        if y.shape != y_hat.shape:
            raise ValueError(f"length mismatch: {y.shape[0]} actuals, {y_hat.shape[0]} predictions")
        if y.size == 0:
            raise EmptySetError("need at least one (actual, predicted) pair")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "y_hat", y_hat)

    @property
    def n(self) -> int:
        return int(self.y.size)


def mse_loss(p: PredictionSet) -> float:
    """Mean of squared errors: (1/n) * sum((y - y_hat)^2)."""
    diff = p.y - p.y_hat
    return float(np.mean(diff * diff))


def mse_grad(p: PredictionSet) -> np.ndarray:
    """Gradient of mse_loss w.r.t. the predictions: (2/n) * (y_hat - y)."""
    return (2.0 / p.n) * (p.y_hat - p.y)


@dataclass
class AdamState:
    """First/second moment accumulators, shaped like params.flat."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_adam(
    params: NetworkParams,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    return AdamState(
        m=np.zeros_like(params.flat),
        v=np.zeros_like(params.flat),
        t=0,
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
    )


def adam_step(
    state: AdamState, params: NetworkParams, grads: NetworkParams
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update, in place on params.flat."""
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    if p.shape != g.shape or p.shape != m.shape:
        raise ShapeMismatchError(f"param {p.shape}, grad {g.shape}, state {m.shape}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
    return params, state


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    shuffle_seed: int = 0
    clip_norm: float | None = None  # optional global-norm clip, off by default

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    loss: float  # sample-weighted mean training MSE over the epoch
    seconds: float


def _clip_global_norm(grads: NetworkParams, max_norm: float) -> None:
    norm = math.sqrt(np.dot(grads.flat, grads.flat))
    if norm > max_norm:
        grads.flat *= max_norm / norm


def train(
    params: NetworkParams,
    config: NetworkConfig,
    dataset: WindowedDataset,
    tc: TrainConfig,
    progress=None,
) -> tuple[NetworkParams, list[EpochLog]]:
    """Shuffled mini-batch training: forward, BPTT, Adam, once per batch.

    Trains a copy of `params` and returns it; the caller's params are left
    as they were. One seeded generator drives both the epoch shuffles and
    the dropout masks, so a (seed, config, data) triple reproduces the
    parameter trajectory bitwise. The final short batch is trained on, not
    dropped. Raises DivergedError at the end of an epoch whose loss or
    parameters are not finite.
    """
    n = dataset.n_samples
    if n == 0:
        raise EmptyDatasetError("training dataset has no samples")
    params = copy_params(params)
    rng = make_rng(tc.shuffle_seed)
    state = init_adam(params, lr=tc.learning_rate)
    logs: list[EpochLog] = []
    for epoch in range(1, tc.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        squared_sum = 0.0
        for lo in range(0, n, tc.batch_size):
            idx = order[lo : lo + tc.batch_size]
            batch = dataset.inputs[idx]
            pred, cache = network_forward(params, config, batch, mode="train", rng=rng)
            pset = PredictionSet(y=dataset.targets[idx], y_hat=pred[:, 0])
            squared_sum += mse_loss(pset) * len(idx)
            grads = network_backward(params, config, cache, mse_grad(pset))
            if tc.clip_norm is not None:
                _clip_global_norm(grads, tc.clip_norm)
            params, state = adam_step(state, params, grads)
        log = EpochLog(
            epoch=epoch, loss=squared_sum / n, seconds=time.perf_counter() - started
        )
        if not (math.isfinite(log.loss) and np.isfinite(params.flat).all()):
            raise DivergedError(f"epoch {epoch}: non-finite loss or parameters (loss {log.loss})")
        logs.append(log)
        if progress is not None:
            progress(log)
    return params, logs


def finite_diff_gradcheck(
    params: NetworkParams,
    config: NetworkConfig,
    inputs,
    targets,
    probe_count: int = 50,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Compare analytic BPTT gradients against central finite differences.

    Dropout rates are forced to zero (random masks would break the
    comparison). For each probed scalar the relative error is
    |a - fd| / max(|a|, |fd|, 1e-8); returns the max over the probes.
    """
    if probe_count <= 0:
        return 0.0
    cfg = replace(config, dropout_rates=(0.0,) * len(config.layer_units))
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)

    def batch_loss() -> float:
        pred, _ = network_forward(params, cfg, x, mode="inference")
        return mse_loss(PredictionSet(y=y, y_hat=pred[:, 0]))

    pred, cache = network_forward(params, cfg, x, mode="train")
    pset = PredictionSet(y=y, y_hat=pred[:, 0])
    analytic = network_backward(params, cfg, cache, mse_grad(pset))

    rng = make_rng(seed)
    picks = rng.integers(0, params.flat.size, size=probe_count)

    worst = 0.0
    for k in picks:
        saved = float(params.flat[k])
        params.flat[k] = saved + step
        loss_plus = batch_loss()
        params.flat[k] = saved - step
        loss_minus = batch_loss()
        params.flat[k] = saved
        fd = (loss_plus - loss_minus) / (2.0 * step)
        a = float(analytic.flat[k])
        worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
    return worst

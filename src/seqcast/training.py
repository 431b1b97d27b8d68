"""MSE loss, Adam optimization, the epoch/batch loop, and the gradient-check oracle."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

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
    """Training, loss and metrics need at least one sample or (actual, predicted) pair."""


class DivergedError(ArithmeticError):
    """Training produced a non-finite loss or parameter."""


# Adam's moment decay rates and denominator guard: Kingma & Ba's defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# finite_diff_gradcheck's central-difference step, near float64's optimum cbrt(eps) ≈ 6e-6.
GRADCHECK_STEP = 1e-5


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
    """First/second moment accumulators, shaped like params.flat, and `scratch`:
    two more such buffers that take adam_step's temporaries, so it allocates nothing."""

    m: np.ndarray
    v: np.ndarray
    lr: float
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scratch = np.empty((2,) + self.m.shape)


def init_adam(params: NetworkParams, lr: float = 1e-3) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), lr=lr)


def adam_step(
    state: AdamState, params: NetworkParams, grads: NetworkParams
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update, in place on params.flat."""
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    if p.shape != g.shape or p.shape != m.shape:
        raise ShapeMismatchError(f"param {p.shape}, grad {g.shape}, state {m.shape}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    step, denom = state.scratch
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), with its rounding, in place
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=step)
    v += np.multiply(step, g, out=step)
    np.multiply(np.divide(m, bc1, out=step), state.lr, out=step)
    np.sqrt(np.divide(v, bc2, out=denom), out=denom)
    denom += ADAM_EPSILON
    p -= np.divide(step, denom, out=step)
    return params, state


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    loss: float  # sample-weighted mean training MSE over the epoch
    seconds: float


def train(
    params: NetworkParams,
    config: NetworkConfig,
    dataset: WindowedDataset,
    *,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    progress=None,
) -> NetworkParams:
    """Shuffled mini-batch training: forward, BPTT, Adam, once per batch.

    Trains a copy of `params` and returns it, leaving the caller's as they
    were; each epoch's EpochLog goes to `progress`. The caller validates the
    settings (cli.RunConfig does). One generator, seeded with `config.seed`,
    drives both the epoch shuffles and the dropout masks, so the config, the
    settings and the data reproduce the parameter trajectory bitwise. The
    final short batch is trained on, not dropped. Raises DivergedError at the
    end of an epoch whose loss or parameters are not finite.
    """
    n = dataset.n_samples
    if n == 0:
        raise EmptySetError("training dataset has no samples")
    params = copy_params(params)
    rng = make_rng(config.seed)
    state = init_adam(params, lr=learning_rate)
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        squared_sum = 0.0
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            batch = dataset.inputs[idx]
            pred, cache = network_forward(params, config, batch, mode="train", rng=rng)
            pset = PredictionSet(y=dataset.targets[idx], y_hat=pred[:, 0])
            squared_sum += mse_loss(pset) * len(idx)
            grads = network_backward(params, config, cache, mse_grad(pset))
            params, state = adam_step(state, params, grads)
        log = EpochLog(
            epoch=epoch, loss=squared_sum / n, seconds=time.perf_counter() - started
        )
        if not (math.isfinite(log.loss) and np.isfinite(params.flat).all()):
            raise DivergedError(f"epoch {epoch}: non-finite loss or parameters (loss {log.loss})")
        if progress is not None:
            progress(log)
    return params


def finite_diff_gradcheck(
    params: NetworkParams,
    config: NetworkConfig,
    inputs,
    targets,
    probe_count: int,
    seed: int,
) -> float:
    """Compare analytic BPTT gradients against central finite differences.

    Dropout rates are forced to zero (random masks would break the
    comparison). Each probed scalar moves by ±GRADCHECK_STEP, and its
    relative error is |a - fd| / max(|a|, |fd|, 1e-8); returns the max
    over the probes, of which there must be at least one. A non-finite
    analytic or finite-difference value makes the error, and so the max, NaN.
    """
    if probe_count < 1:
        raise ValueError(f"probes must be >= 1, got {probe_count}")
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

    errors = []
    for k in picks:
        saved = float(params.flat[k])
        params.flat[k] = saved + GRADCHECK_STEP
        loss_plus = batch_loss()
        params.flat[k] = saved - GRADCHECK_STEP
        loss_minus = batch_loss()
        params.flat[k] = saved
        fd = (loss_plus - loss_minus) / (2.0 * GRADCHECK_STEP)
        a = float(analytic.flat[k])
        errors.append(abs(a - fd) / max(abs(a), abs(fd), 1e-8))  # NaN if a or fd is not finite
    return float(np.max(errors))  # unlike max(), np.max keeps a NaN

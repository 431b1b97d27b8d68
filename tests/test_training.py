from __future__ import annotations

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import seqcast
import seqcast.training as training_module
from seqcast.lstm_core import (
    NetworkConfig,
    ShapeMismatchError,
    init_params,
    network_forward,
    param_blocks,
    zeros_like_params,
)
from seqcast.preprocess import fit_scaler, make_windows, transform
from seqcast.rng import make_rng
from seqcast.preprocess import WindowedDataset
from seqcast.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    DivergedError,
    EmptySetError,
    PredictionSet,
    adam_step,
    finite_diff_gradcheck,
    init_adam,
    mse_grad,
    mse_loss,
    train,
)


# ----------------------------------------------------------------------- mse


def test_mse_perfect_is_zero():
    p = PredictionSet(y=[1.0, 2.0], y_hat=[1.0, 2.0])
    assert mse_loss(p) == 0.0


def test_mse_hand_case():
    p = PredictionSet(y=[1.0, 2.0, 3.0], y_hat=[2.0, 2.0, 2.0])
    assert abs(mse_loss(p) - 2.0 / 3.0) < 1e-15


def test_mse_single_pair():
    assert mse_loss(PredictionSet(y=[5.0], y_hat=[2.0])) == 9.0


def test_mse_nonnegative_and_zero_iff_equal():
    rng = make_rng(1)
    for _ in range(50):
        y = rng.normal(size=7)
        y_hat = rng.normal(size=7)
        loss = mse_loss(PredictionSet(y=y, y_hat=y_hat))
        assert loss >= 0.0
        assert (loss == 0.0) == bool(np.array_equal(y, y_hat))


def test_mse_grad_hand_cases():
    assert np.array_equal(mse_grad(PredictionSet(y=[1.0], y_hat=[4.0])), [6.0])
    p = PredictionSet(y=[1.0, 2.0], y_hat=[1.0, 2.0])
    np.testing.assert_array_equal(mse_grad(p), 0.0)


def test_mse_grad_matches_finite_difference():
    rng = make_rng(2)
    y = rng.normal(size=7)
    y_hat = rng.normal(size=7)
    grad = mse_grad(PredictionSet(y=y, y_hat=y_hat))
    h = 1e-7
    for k in range(7):
        plus = y_hat.copy()
        plus[k] += h
        minus = y_hat.copy()
        minus[k] -= h
        fd = (
            mse_loss(PredictionSet(y=y, y_hat=plus))
            - mse_loss(PredictionSet(y=y, y_hat=minus))
        ) / (2 * h)
        assert abs(grad[k] - fd) < 1e-8


def test_prediction_set_rejects_empty_and_mismatch():
    with pytest.raises(EmptySetError):
        PredictionSet(y=[], y_hat=[])
    with pytest.raises(ValueError):
        PredictionSet(y=[1.0], y_hat=[1.0, 2.0])


# ---------------------------------------------------------------------- adam


def scalar_net():
    cfg = NetworkConfig(layer_units=(1,), dropout_rates=(0.0,), seed=0)
    return cfg, init_params(cfg)


def test_adam_zero_gradient_leaves_params():
    _, params = scalar_net()
    before = [arr.copy() for _, arr in param_blocks(params)]
    state = init_adam(params)
    params, state = adam_step(state, params, zeros_like_params(params))
    for prev, (_, arr) in zip(before, param_blocks(params)):
        np.testing.assert_array_equal(prev, arr)
    assert state.t == 1


def test_adam_first_update_magnitude():
    for g in (1.0, -0.5, 1e-3, 200.0):
        _, params = scalar_net()
        state = init_adam(params, lr=1e-3)
        grads = zeros_like_params(params)
        grads.dense.b[0] = g
        before = float(params.dense.b[0])
        params, state = adam_step(state, params, grads)
        update = float(params.dense.b[0]) - before
        # t=1 bias correction makes the step -lr * g / (|g| + eps)
        assert abs(abs(update) - state.lr) < 1e-6
        assert np.sign(update) == -np.sign(g)


def test_adam_first_update_never_exceeds_lr():
    rng = make_rng(3)
    for _ in range(20):
        _, params = scalar_net()
        state = init_adam(params, lr=1e-3)
        grads = zeros_like_params(params)
        for _, arr in param_blocks(grads):
            arr[...] = rng.normal(scale=10.0, size=arr.shape)
        before = [arr.copy() for _, arr in param_blocks(params)]
        params, state = adam_step(state, params, grads)
        for prev, (_, arr) in zip(before, param_blocks(params)):
            assert np.all(np.abs(arr - prev) <= state.lr * (1.0 + 1e-6))


def test_adam_constant_gradient_matches_scalar_recurrence():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    g = 2.0

    # independent recurrence, straight from the update equations
    m = v = 0.0
    theta_expected = 0.0
    trajectory = []
    for t in range(1, 4):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta_expected -= lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(theta_expected)

    _, params = scalar_net()
    params.dense.b[0] = 0.0
    state = init_adam(params, lr=lr)
    grads = zeros_like_params(params)
    grads.dense.b[0] = g
    for expected in trajectory:
        params, state = adam_step(state, params, grads)
        assert abs(float(params.dense.b[0]) - expected) < 1e-12


def test_adam_matches_the_textbook_expression_bitwise():
    cfg = NetworkConfig(layer_units=(6, 4), dropout_rates=(0.0, 0.0), seed=8)
    params = init_params(cfg)
    state = init_adam(params, lr=3e-3)
    p, m, v = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat)
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, 3e-3
    rng = make_rng(9)
    for t in range(1, 6):
        grads = zeros_like_params(params)
        grads.flat[...] = rng.normal(scale=2.0, size=grads.flat.shape)
        g = grads.flat.copy()
        params, state = adam_step(state, params, grads)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        np.testing.assert_array_equal(params.flat, p)


def test_warm_adam_step_allocates_nothing():
    cfg = NetworkConfig(layer_units=(8, 8), dropout_rates=(0.0, 0.0), seed=10)
    params = init_params(cfg)
    grads = zeros_like_params(params)
    grads.flat[...] = make_rng(10).normal(size=grads.flat.shape)
    state = init_adam(params)
    adam_step(state, params, grads)
    tracemalloc.start()
    try:
        adam_step(state, params, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096  # one temporary the size of params.flat would be 6.8 KB


def test_adam_shape_mismatch():
    _, params = scalar_net()
    state = init_adam(params)
    other = NetworkConfig(layer_units=(5,), dropout_rates=(0.0,), seed=0)
    bad = zeros_like_params(init_params(other))
    with pytest.raises(ShapeMismatchError):
        adam_step(state, params, bad)


# --------------------------------------------------------------------- train


def tiny_dataset(n=80, window=6, seed=4):
    rng = make_rng(seed)
    values = np.cumsum(rng.normal(size=n + window)) * 0.05 + 1.0
    scaler = fit_scaler(values)
    return make_windows(transform(scaler, values), window)


def test_train_logs_and_batch_count(monkeypatch):
    ds = tiny_dataset(n=80)
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=5)
    params = init_params(cfg)

    calls = []
    original = training_module.adam_step

    def counting(state, params, grads):
        calls.append(state.t)
        return original(state, params, grads)

    monkeypatch.setattr(training_module, "adam_step", counting)
    logs = []
    train(params, cfg, ds, epochs=5, batch_size=32, learning_rate=1e-3, progress=logs.append)
    assert len(logs) == 5
    assert [log.epoch for log in logs] == [1, 2, 3, 4, 5]
    # 80 samples at batch 32 -> ceil(80/32) = 3 batches per epoch, short one kept
    assert len(calls) == 5 * 3


# Trains the tiny_dataset() run of test_train_deterministic_for_seed in a
# fresh interpreter, whose buffer pool starts empty; prints losses and flat.
_FRESH_PROCESS_RUN = """
import json, sys
import numpy as np
from seqcast.lstm_core import NetworkConfig, init_params
from seqcast.preprocess import WindowedDataset
from seqcast.training import train
data = np.load(sys.argv[1])
ds = WindowedDataset(inputs=data["inputs"], targets=data["targets"])
cfg = NetworkConfig(layer_units=(3, 4), dropout_rates=(0.2, 0.1), seed=6)
logs = []
params = train(
    init_params(cfg), cfg, ds, epochs=3, batch_size=32, learning_rate=1e-3, progress=logs.append
)
print(json.dumps({"losses": [log.loss for log in logs], "flat": params.flat.tobytes().hex()}))
"""


def test_train_deterministic_for_seed(tmp_path):
    ds = tiny_dataset()  # 80 samples: two batches of 32 and a short one of 16
    cfg = NetworkConfig(layer_units=(3, 4), dropout_rates=(0.2, 0.1), seed=6)
    runs = []
    for _ in range(2):
        logs = []
        params = train(
            init_params(cfg), cfg, ds, epochs=3, batch_size=32, learning_rate=1e-3,
            progress=logs.append,
        )
        runs.append(([log.loss for log in logs], params.flat))

    data = tmp_path / "data.npz"
    np.savez(data, inputs=ds.inputs, targets=ds.targets)
    src = Path(seqcast.__file__).parents[1]  # `-c` looks in the working directory first
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS_RUN, str(data)],
        cwd=src, capture_output=True, text=True, timeout=120, check=True,
    )
    fresh = json.loads(done.stdout)
    runs.append((fresh["losses"], np.frombuffer(bytes.fromhex(fresh["flat"]))))

    for losses, flat in runs[1:]:
        assert losses == runs[0][0]
        np.testing.assert_array_equal(flat, runs[0][1])


def test_train_leaves_callers_params_alone():
    ds = tiny_dataset(n=40)
    cfg = NetworkConfig(layer_units=(3,), dropout_rates=(0.2,), seed=6)
    p = init_params(cfg)
    before = p.flat.copy()
    out = train(p, cfg, ds, epochs=1, batch_size=32, learning_rate=1e-3)
    assert out is not p
    assert not np.shares_memory(out.flat, p.flat)
    np.testing.assert_array_equal(p.flat, before)
    assert not np.array_equal(out.flat, before)


def test_train_epoch_covers_every_sample_once(monkeypatch):
    ds = tiny_dataset(n=50)
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=7)
    params = init_params(cfg)

    seen: list[np.ndarray] = []
    original = training_module.network_forward

    def recording(params, config, batch, mode="inference", rng=None):
        seen.append(np.asarray(batch)[:, 0, 0].copy())
        return original(params, config, batch, mode=mode, rng=rng)

    monkeypatch.setattr(training_module, "network_forward", recording)
    train(params, cfg, ds, epochs=1, batch_size=16, learning_rate=1e-3)
    per_epoch = np.sort(np.concatenate(seen))
    np.testing.assert_array_equal(per_epoch, np.sort(ds.inputs[:, 0, 0]))


def test_epoch_loss_weights_the_short_last_batch_by_its_size():
    # 50 samples at batch 16: three full batches and a short one of 2. At a zero
    # learning rate and no dropout, every batch sees the initial params, so the
    # epoch loss is the MSE of one inference forward over all 50 samples.
    ds = tiny_dataset(n=50)
    cfg = NetworkConfig(layer_units=(3, 2), dropout_rates=(0.0, 0.0), seed=8)
    params = init_params(cfg)
    logs = []
    out = train(params, cfg, ds, epochs=2, batch_size=16, learning_rate=0.0, progress=logs.append)
    np.testing.assert_array_equal(out.flat, params.flat)
    pred, _ = network_forward(params, cfg, ds.inputs, mode="inference")
    expected = mse_loss(PredictionSet(y=ds.targets, y_hat=pred[:, 0]))
    for log in logs:
        np.testing.assert_allclose(log.loss, expected, rtol=1e-12)


def test_train_empty_dataset():
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=1)
    empty = WindowedDataset(inputs=np.empty((0, 2, 1)), targets=np.empty(0))
    with pytest.raises(EmptySetError, match="training dataset has no samples"):
        train(init_params(cfg), cfg, empty, epochs=1, batch_size=32, learning_rate=1e-3)


def sine_trend_series(
    n: int,
    period: float = 25.0,
    amplitude: float = 2.0,
    trend: float = 0.002,
    level: float = 10.0,
) -> np.ndarray:
    """Noiseless sine plus linear trend; the overfit-capacity test signal."""
    t = np.arange(n, dtype=np.float64)
    return level + amplitude * np.sin(2.0 * math.pi * t / period) + trend * t


def test_sine_trend_series_shape():
    series = sine_trend_series(100)
    assert series.shape == (100,)
    flat = sine_trend_series(100, amplitude=0.0, trend=0.0, level=3.0)
    np.testing.assert_array_equal(flat, 3.0)


def test_train_overfits_noiseless_sine():
    # desk-scale capacity check: tiny net crushes its own training loss
    values = sine_trend_series(200, period=40.0, amplitude=1.0, trend=0.0)
    scaler = fit_scaler(values)
    ds = make_windows(transform(scaler, values), 10)
    cfg = NetworkConfig(layer_units=(8,), dropout_rates=(0.0,), seed=7)
    logs = []
    train(
        init_params(cfg), cfg, ds, epochs=30, batch_size=32, learning_rate=1e-3,
        progress=logs.append,
    )
    assert logs[-1].loss < logs[0].loss / 10.0


def test_train_raises_on_divergence():
    ds = tiny_dataset(n=40)
    targets = ds.targets.copy()
    targets[7] = np.nan
    bad = WindowedDataset(inputs=ds.inputs, targets=targets)
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=1)
    with pytest.raises(DivergedError):
        train(init_params(cfg), cfg, bad, epochs=2, batch_size=32, learning_rate=1e-3)


# ----------------------------------------------------------------- gradcheck


def test_gradcheck_linear_region_tiny_net():
    # shrink the weights so every activation stays near its linear zone
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=9)
    params = init_params(cfg)
    for _, arr in param_blocks(params):
        arr *= 0.01
    rng = make_rng(10)
    x = rng.normal(size=(2, 3, 1)) * 0.01
    pred, _ = network_forward(params, cfg, x, mode="inference")
    y = pred[:, 0] + 0.01 * rng.standard_normal(2)
    err = finite_diff_gradcheck(params, cfg, x, y, probe_count=30, seed=0)
    assert err < 1e-6


def test_gradcheck_random_tiny_nets():
    rng = make_rng(11)
    for trial in range(5):
        layers = int(rng.integers(1, 4))
        units = tuple(int(u) for u in rng.integers(1, 5, size=layers))
        cfg = NetworkConfig(
            layer_units=units, dropout_rates=(0.0,) * layers, seed=int(rng.integers(1000))
        )
        params = init_params(cfg)
        x = rng.normal(size=(2, int(rng.integers(1, 7)), 1))
        pred, _ = network_forward(params, cfg, x, mode="inference")
        y = pred[:, 0] + 0.1 * rng.standard_normal(2)
        err = finite_diff_gradcheck(params, cfg, x, y, probe_count=40, seed=trial)
        assert err < 1e-4


def test_gradcheck_ignores_dropout_rates():
    # rates are forced to zero internally, so a lossy config still checks clean
    cfg = NetworkConfig(layer_units=(3,), dropout_rates=(0.5,), seed=12)
    params = init_params(cfg)
    rng = make_rng(13)
    x = rng.normal(size=(2, 4, 1))
    pred, _ = network_forward(params, cfg, x, mode="inference")
    y = pred[:, 0] + 0.1 * rng.standard_normal(2)
    assert finite_diff_gradcheck(params, cfg, x, y, probe_count=20, seed=0) < 1e-4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gradcheck_reports_a_non_finite_gradient_as_nan(monkeypatch, bad):
    # max() folds NaN away (max(0.0, nan) is 0.0): a NaN gradient scored a perfect 0.0
    original = training_module.network_backward

    def broken(*args):
        grads = original(*args)
        grads.flat[...] = bad
        return grads

    monkeypatch.setattr(training_module, "network_backward", broken)
    cfg = NetworkConfig(layer_units=(3,), dropout_rates=(0.0,), seed=14)
    x = make_rng(15).normal(size=(2, 4, 1))
    err = finite_diff_gradcheck(init_params(cfg), cfg, x, np.zeros(2), probe_count=5, seed=0)
    assert math.isnan(err)


def test_gradcheck_reports_nan_when_only_a_later_probe_is_not_finite(monkeypatch):
    # max() keeps a finite first error over a later NaN, so only a NaN first probe showed
    cfg = NetworkConfig(layer_units=(3,), dropout_rates=(0.0,), seed=14)
    params = init_params(cfg)
    first = make_rng(0).integers(0, params.flat.size, size=5)[0]  # the probe seed 0 draws first
    original = training_module.network_backward

    def broken(*args):
        grads = original(*args)
        kept = grads.flat[first]
        grads.flat[...] = np.nan
        grads.flat[first] = kept
        return grads

    monkeypatch.setattr(training_module, "network_backward", broken)
    x = make_rng(15).normal(size=(2, 4, 1))
    err = finite_diff_gradcheck(params, cfg, x, np.zeros(2), probe_count=5, seed=0)
    assert math.isnan(err)


def test_gradcheck_refuses_zero_probes():
    cfg, params = scalar_net()
    with pytest.raises(ValueError, match="probes must be >= 1, got 0"):
        finite_diff_gradcheck(
            params, cfg, np.zeros((1, 2, 1)), np.zeros(1), probe_count=0, seed=0
        )

from __future__ import annotations

import numpy as np
import pytest

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
from seqcast.synthetic import sine_trend_series
from seqcast.preprocess import WindowedDataset
from seqcast.training import (
    AdamState,
    DivergedError,
    EmptyDatasetError,
    EmptySetError,
    PredictionSet,
    TrainConfig,
    _clip_global_norm,
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
    params, logs = train(params, cfg, ds, TrainConfig(epochs=5, batch_size=32, shuffle_seed=5))
    assert len(logs) == 5
    assert [log.epoch for log in logs] == [1, 2, 3, 4, 5]
    # 80 samples at batch 32 -> ceil(80/32) = 3 batches per epoch, short one kept
    assert len(calls) == 5 * 3


def test_train_deterministic_for_seed():
    ds = tiny_dataset()
    cfg = NetworkConfig(layer_units=(3,), dropout_rates=(0.2,), seed=6)
    runs = []
    for _ in range(2):
        params, logs = train(
            init_params(cfg), cfg, ds, TrainConfig(epochs=3, shuffle_seed=11)
        )
        runs.append((params, [log.loss for log in logs]))
    assert runs[0][1] == runs[1][1]
    for (_, a), (_, b) in zip(param_blocks(runs[0][0]), param_blocks(runs[1][0])):
        np.testing.assert_array_equal(a, b)


def test_train_leaves_callers_params_alone():
    ds = tiny_dataset(n=40)
    cfg = NetworkConfig(layer_units=(3,), dropout_rates=(0.2,), seed=6)
    p = init_params(cfg)
    before = p.flat.copy()
    out, _ = train(p, cfg, ds, TrainConfig(epochs=1, shuffle_seed=3))
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
    train(params, cfg, ds, TrainConfig(epochs=1, batch_size=16, shuffle_seed=8))
    per_epoch = np.sort(np.concatenate(seen))
    np.testing.assert_array_equal(per_epoch, np.sort(ds.inputs[:, 0, 0]))


def test_train_empty_dataset():
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=1)
    with pytest.warns(UserWarning):
        empty = make_windows([1.0, 2.0], 2)
    with pytest.raises(EmptyDatasetError):
        train(init_params(cfg), cfg, empty, TrainConfig(epochs=1))


def test_train_overfits_noiseless_sine():
    # desk-scale capacity check: tiny net crushes its own training loss
    values = sine_trend_series(200, period=40.0, amplitude=1.0, trend=0.0)
    scaler = fit_scaler(values)
    ds = make_windows(transform(scaler, values), 10)
    cfg = NetworkConfig(layer_units=(8,), dropout_rates=(0.0,), seed=7)
    params, logs = train(
        init_params(cfg), cfg, ds, TrainConfig(epochs=30, shuffle_seed=7)
    )
    assert logs[-1].loss < logs[0].loss / 10.0


def test_train_raises_on_divergence():
    ds = tiny_dataset(n=40)
    targets = ds.targets.copy()
    targets[7] = np.nan
    bad = WindowedDataset(inputs=ds.inputs, targets=targets, window=ds.window)
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=1)
    with pytest.raises(DivergedError):
        train(init_params(cfg), cfg, bad, TrainConfig(epochs=2, shuffle_seed=1))


def random_grads(seed):
    cfg = NetworkConfig(layer_units=(3, 2), dropout_rates=(0.0, 0.0), seed=seed)
    grads = zeros_like_params(init_params(cfg))
    grads.flat[...] = make_rng(seed).normal(size=grads.flat.size)
    return grads


def test_clip_global_norm_scales_to_threshold():
    grads = random_grads(14)
    norm = float(np.linalg.norm(grads.flat))
    direction = grads.flat / norm
    _clip_global_norm(grads, norm / 4.0)
    total = sum(float(np.sum(arr * arr)) for _, arr in param_blocks(grads))
    assert abs(np.sqrt(total) - norm / 4.0) < 1e-12
    np.testing.assert_allclose(grads.flat / np.linalg.norm(grads.flat), direction, rtol=1e-12)


def test_clip_global_norm_below_threshold_is_identity():
    grads = random_grads(15)
    before = grads.flat.copy()
    _clip_global_norm(grads, float(np.linalg.norm(before)) * 1.01)
    np.testing.assert_array_equal(grads.flat, before)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=-1.0)


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
    err = finite_diff_gradcheck(params, cfg, x, y, probe_count=30, step=1e-5, seed=0)
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
        err = finite_diff_gradcheck(params, cfg, x, y, probe_count=40, step=1e-5, seed=trial)
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


def test_gradcheck_zero_probes_vacuous():
    cfg, params = scalar_net()
    assert finite_diff_gradcheck(params, cfg, np.zeros((1, 2, 1)), np.zeros(1), probe_count=0) == 0.0

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from seqcast.lstm_core import (
    BadRateError,
    EmptySequenceError,
    InvalidConfigError,
    LstmLayerParams,
    NetworkConfig,
    ShapeMismatchError,
    StaleCacheError,
    count_params,
    dropout_apply,
    init_params,
    lstm_layer_forward,
    network_backward,
    network_forward,
    param_blocks,
    zeros_like_params,
)
from seqcast.rng import make_rng

from lstm_oracle import LstmState, gate, lstm_cell_forward
from lstm_oracle import network_forward as oracle_network_forward


def zero_layer(hidden, inputs):
    return LstmLayerParams(w=np.zeros((4 * hidden, hidden + inputs)), b=np.zeros(4 * hidden))


def random_layer(hidden, inputs, seed, scale=0.5):
    rng = make_rng(seed)
    r = lambda *shape: rng.normal(scale=scale, size=shape)
    return LstmLayerParams(w=r(4 * hidden, hidden + inputs), b=r(4 * hidden))


# ----------------------------------------------------------------- cell math


def test_cell_zero_params_zero_state():
    layer = zero_layer(3, 2)
    state, gates = lstm_cell_forward(layer, np.array([4.0, -1.0]))
    np.testing.assert_array_equal(gates.f, 0.5)
    np.testing.assert_array_equal(gates.i, 0.5)
    np.testing.assert_array_equal(gates.o, 0.5)
    np.testing.assert_array_equal(gates.candidate, 0.0)
    np.testing.assert_array_equal(state.c, 0.0)
    np.testing.assert_array_equal(state.h, 0.0)


def test_cell_zero_params_prev_cell_two():
    layer = zero_layer(2, 1)
    prev = LstmState(h=np.zeros(2), c=np.full(2, 2.0))
    state, _ = lstm_cell_forward(layer, np.array([0.3]), prev=prev)
    np.testing.assert_allclose(state.c, 1.0, atol=1e-12)
    np.testing.assert_allclose(state.h, 0.5 * math.tanh(1.0), atol=1e-9)
    assert abs(state.h[0] - 0.3807970780) < 1e-9


def test_cell_saturated_forget_retains_cell_state():
    layer = zero_layer(2, 1)
    gate(layer, "f")[1][:] = 100.0
    prev = LstmState(h=np.zeros(2), c=np.full(2, 3.0))
    state, gates = lstm_cell_forward(layer, np.array([0.0]), prev=prev)
    np.testing.assert_allclose(state.c, 3.0, atol=1e-9)
    assert np.all(gates.f > 1.0 - 1e-12)


def test_cell_shape_mismatch():
    layer = zero_layer(2, 3)
    with pytest.raises(ShapeMismatchError):
        lstm_cell_forward(layer, np.array([1.0]))


def test_cell_batch_matches_per_sample():
    layer = random_layer(3, 2, seed=5)
    xs = make_rng(6).normal(size=(4, 2))
    batch_state, _ = lstm_cell_forward(layer, xs)
    for k in range(4):
        single_state, _ = lstm_cell_forward(layer, xs[k])
        np.testing.assert_allclose(batch_state.h[k], single_state.h, rtol=1e-12)
        np.testing.assert_allclose(batch_state.c[k], single_state.c, rtol=1e-12)


# --------------------------------------------------------------- layer unroll


def test_layer_t1_flag_equivalence():
    layer = random_layer(3, 1, seed=7)
    seq = np.array([[0.4]])
    seq_out, _ = lstm_layer_forward(layer, seq, return_sequences=True)
    last_out, _ = lstm_layer_forward(layer, seq, return_sequences=False)
    np.testing.assert_array_equal(seq_out[0], last_out)


def test_layer_zero_params_zero_outputs():
    layer = zero_layer(4, 1)
    out, _ = lstm_layer_forward(layer, make_rng(8).normal(size=(6, 1)))
    np.testing.assert_array_equal(out, 0.0)


def test_layer_matches_cell_composition():
    layer = random_layer(2, 1, seed=9)
    seq = make_rng(10).normal(size=(3, 1))
    out, _ = lstm_layer_forward(layer, seq, return_sequences=True)
    state = None
    for t in range(3):
        state, _ = lstm_cell_forward(layer, seq[t], prev=state)
        np.testing.assert_allclose(out[t], state.h, rtol=1e-12, atol=1e-15)


def test_layer_empty_sequence():
    layer = zero_layer(2, 1)
    with pytest.raises(EmptySequenceError):
        lstm_layer_forward(layer, np.empty((0, 1)))


def test_gate_ranges_and_hidden_bound():
    layer = random_layer(4, 1, seed=11, scale=1.5)
    seq = make_rng(12).normal(size=(5, 20, 1)) * 2.0
    out, cache = lstm_layer_forward(layer, seq)
    f, i, candidate, o = np.split(cache.g, 4, axis=1)
    for arr in (f, i, o):
        assert np.all(arr > 0.0) and np.all(arr < 1.0)
    assert np.all(np.abs(candidate) < 1.0)
    assert np.all(np.abs(out) < 1.0)


def test_cell_state_growth_bound():
    layer = random_layer(3, 1, seed=13, scale=2.0)
    seq = make_rng(14).normal(size=(2, 30, 1)) * 3.0
    _, cache = lstm_layer_forward(layer, seq)
    prev = np.zeros_like(cache.c[0])
    for t in range(cache.c.shape[0]):
        assert np.all(np.abs(cache.c[t]) <= np.abs(prev) + 1.0 + 1e-12)
        prev = cache.c[t]


# ------------------------------------------------------------------- dropout


def test_dropout_rate_zero_is_identity():
    values = make_rng(15).normal(size=100)
    out, mask = dropout_apply(values, 0.0, "train", make_rng(0))
    np.testing.assert_array_equal(out, values)
    np.testing.assert_array_equal(mask, 1.0)


def test_dropout_inference_identity():
    values = make_rng(16).normal(size=100)
    out, _ = dropout_apply(values, 0.9, "inference")
    np.testing.assert_array_equal(out, values)


def test_dropout_train_frequency_and_scaling():
    values = np.ones(10_000)
    out, mask = dropout_apply(values, 0.5, "train", make_rng(17))
    zero_fraction = np.mean(out == 0.0)
    assert abs(zero_fraction - 0.5) < 0.02
    survivors = out[out != 0.0]
    np.testing.assert_array_equal(survivors, 2.0)
    np.testing.assert_array_equal(out, values * mask)


def test_dropout_bad_rate():
    with pytest.raises(BadRateError):
        dropout_apply(np.ones(3), 1.0, "train", make_rng(0))
    with pytest.raises(BadRateError):
        dropout_apply(np.ones(3), -0.1, "train", make_rng(0))


# ---------------------------------------------------------------------- init


def test_init_deterministic_for_seed():
    cfg = NetworkConfig(layer_units=(5, 3), dropout_rates=(0.1, 0.2), seed=42)
    a = init_params(cfg)
    b = init_params(cfg)
    for (name_a, arr_a), (_, arr_b) in zip(param_blocks(a), param_blocks(b)):
        np.testing.assert_array_equal(arr_a, arr_b), name_a


def test_init_default_parameter_count():
    # 4*(in+hid+1)*hid per layer + hid+1 for the head:
    # 10,400 + 26,640 + 45,120 + 96,480 + 121
    cfg = NetworkConfig()
    assert count_params(cfg) == 178_761
    assert init_params(cfg).flat.size == 178_761


def test_init_bias_rule():
    params = init_params(NetworkConfig(layer_units=(4, 2), dropout_rates=(0.0, 0.0), seed=3))
    for layer in params.layers:
        np.testing.assert_array_equal(gate(layer, "f")[1], 1.0)
        np.testing.assert_array_equal(gate(layer, "i")[1], 0.0)
        np.testing.assert_array_equal(gate(layer, "c")[1], 0.0)
        np.testing.assert_array_equal(gate(layer, "o")[1], 0.0)
    np.testing.assert_array_equal(params.dense.b, 0.0)


def test_init_glorot_bounds():
    cfg = NetworkConfig(layer_units=(6,), dropout_rates=(0.0,), input_features=2, seed=1)
    params = init_params(cfg)
    limit = math.sqrt(6.0 / ((6 + 2) + 6))
    for name in "fico":
        w, _ = gate(params.layers[0], name)
        assert np.all(np.abs(w) <= limit)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        NetworkConfig(layer_units=(), dropout_rates=())
    with pytest.raises(InvalidConfigError):
        NetworkConfig(layer_units=(4, 4), dropout_rates=(0.2,))
    with pytest.raises(InvalidConfigError):
        NetworkConfig(layer_units=(4,), dropout_rates=(1.0,))
    with pytest.raises(InvalidConfigError):
        NetworkConfig(layer_units=(0,), dropout_rates=(0.0,))


# ----------------------------------------------------------- network forward


def test_network_forward_output_shape_default_config():
    cfg = NetworkConfig(seed=2)
    params = init_params(cfg)
    batch = make_rng(19).normal(size=(4, 100, 1))
    pred, cache = network_forward(params, cfg, batch, mode="inference")
    assert pred.shape == (4, 1)
    assert cache is None


def test_network_forward_inference_pure_and_rowwise():
    cfg = NetworkConfig(layer_units=(3, 2), dropout_rates=(0.2, 0.3), seed=4)
    params = init_params(cfg)
    row = make_rng(20).normal(size=(1, 8, 1))
    batch = np.concatenate([row, row, row])
    pred, _ = network_forward(params, cfg, batch, mode="inference")
    assert pred[0, 0] == pred[1, 0] == pred[2, 0]
    again, _ = network_forward(params, cfg, batch, mode="inference")
    np.testing.assert_array_equal(pred, again)


def test_network_forward_single_layer_matches_manual_composition():
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=6)
    params = init_params(cfg)
    batch = make_rng(21).normal(size=(3, 5, 1))
    pred, _ = network_forward(params, cfg, batch, mode="inference")
    h_last, _ = lstm_layer_forward(params.layers[0], batch, return_sequences=False)
    manual = h_last @ params.dense.w + params.dense.b[0]
    np.testing.assert_allclose(pred[:, 0], manual, rtol=1e-12)


def test_network_forward_train_with_zero_dropout_equals_inference():
    cfg = NetworkConfig(layer_units=(3, 2), dropout_rates=(0.0, 0.0), seed=8)
    params = init_params(cfg)
    batch = make_rng(22).normal(size=(2, 6, 1))
    train_pred, cache = network_forward(params, cfg, batch, mode="train")
    infer_pred, _ = network_forward(params, cfg, batch, mode="inference")
    np.testing.assert_array_equal(train_pred, infer_pred)
    assert cache is not None


def test_network_forward_shape_errors():
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=1)
    params = init_params(cfg)
    with pytest.raises(ShapeMismatchError):
        network_forward(params, cfg, np.zeros((2, 4, 3)))
    with pytest.raises(EmptySequenceError):
        network_forward(params, cfg, np.zeros((2, 0, 1)))


def test_network_forward_requires_rng_for_dropout():
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.5,), seed=1)
    params = init_params(cfg)
    with pytest.raises(ValueError):
        network_forward(params, cfg, np.zeros((1, 3, 1)), mode="train")


# ---------------------------------------------------------- network backward


def test_backward_zero_upstream_gives_zero_grads():
    cfg = NetworkConfig(layer_units=(3, 2), dropout_rates=(0.2, 0.1), seed=10)
    params = init_params(cfg)
    batch = make_rng(23).normal(size=(2, 4, 1))
    _, cache = network_forward(params, cfg, batch, mode="train", rng=make_rng(24))
    grads = network_backward(params, cfg, cache, np.zeros((2, 1)))
    for _, arr in param_blocks(grads):
        np.testing.assert_array_equal(arr, 0.0)


def test_backward_rejects_inference_cache():
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=1)
    params = init_params(cfg)
    _, cache = network_forward(params, cfg, np.zeros((1, 3, 1)), mode="inference")
    with pytest.raises(StaleCacheError):
        network_backward(params, cfg, cache, np.zeros((1, 1)))


def test_backward_rejects_batch_mismatch():
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=1)
    params = init_params(cfg)
    _, cache = network_forward(params, cfg, np.zeros((2, 3, 1)), mode="train")
    with pytest.raises(StaleCacheError):
        network_backward(params, cfg, cache, np.zeros((3, 1)))


def test_zeros_like_params_mirrors_shapes():
    params = init_params(NetworkConfig(layer_units=(3, 2), dropout_rates=(0.0, 0.0), seed=5))
    grads = zeros_like_params(params)
    for (name_p, p), (name_g, g) in zip(param_blocks(params), param_blocks(grads)):
        assert name_p == name_g
        assert p.shape == g.shape
        assert np.all(g == 0.0)


# -------------------------------------------------------------------- layout


def test_param_blocks_are_views_of_flat_in_order():
    cfg = NetworkConfig(layer_units=(3, 2), dropout_rates=(0.0, 0.0), seed=5)
    params = init_params(cfg)
    _, cache = network_forward(params, cfg, make_rng(25).normal(size=(2, 4, 1)), mode="train")
    grads = network_backward(params, cfg, cache, np.ones((2, 1)))
    for p in (params, grads):
        blocks = param_blocks(p)
        assert all(np.shares_memory(arr, p.flat) for _, arr in blocks)
        np.testing.assert_array_equal(np.concatenate([arr.ravel() for _, arr in blocks]), p.flat)
    names = [name for name, _ in param_blocks(params)]
    assert names[:8] == [f"layer0.{k}_{g}" for k in "wb" for g in "fico"]
    assert names[-2:] == ["dense.w", "dense.b"]


def test_writing_a_block_writes_flat():
    params = init_params(NetworkConfig(layer_units=(3, 2), dropout_rates=(0.0, 0.0), seed=5))
    offset = 0
    for name, arr in param_blocks(params):
        arr[...] = -7.0
        np.testing.assert_array_equal(params.flat[offset : offset + arr.size], -7.0)
        offset += arr.size
    assert offset == params.flat.size


def test_backward_refuses_a_consumed_cache():
    cfg = NetworkConfig(layer_units=(3, 2), dropout_rates=(0.2, 0.0), seed=10)
    params = init_params(cfg)
    batch = make_rng(26).normal(size=(2, 4, 1))
    _, cache = network_forward(params, cfg, batch, mode="train", rng=make_rng(27))
    network_backward(params, cfg, cache, np.ones((2, 1)))
    assert cache.consumed
    with pytest.raises(StaleCacheError):
        network_backward(params, cfg, cache, np.ones((2, 1)))


# -------------------------------------------------------------------- kernel

ORACLE_CFG = NetworkConfig(layer_units=(5, 3, 4), dropout_rates=(0.2, 0.3, 0.4), seed=31)


@pytest.mark.parametrize("batch_size", [1, 5])
@pytest.mark.parametrize("steps", [1, 9])
def test_forward_matches_oracle_in_both_modes(batch_size, steps):
    params = init_params(ORACLE_CFG)
    params.flat[...] += make_rng(32).normal(scale=0.3, size=params.flat.size)
    batch = make_rng(33).normal(size=(batch_size, steps, 1))

    pred, _ = network_forward(params, ORACLE_CFG, batch, mode="inference")
    np.testing.assert_allclose(
        pred[:, 0], oracle_network_forward(params, ORACLE_CFG, batch), rtol=1e-12, atol=1e-15
    )
    # same seed on both sides: equal predictions need equal dropout masks
    pred, _ = network_forward(params, ORACLE_CFG, batch, mode="train", rng=make_rng(34))
    expected = oracle_network_forward(params, ORACLE_CFG, batch, rng=make_rng(34))
    np.testing.assert_allclose(pred[:, 0], expected, rtol=1e-12, atol=1e-15)


def test_saturated_gates_are_exact_and_silent():
    layer = zero_layer(3, 1)
    for name, value in zip("fico", (1e3, -1e3, 1e3, 1e3)):
        gate(layer, name)[1][:] = value
    seq = make_rng(35).normal(size=(2, 4, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, cache = lstm_layer_forward(layer, seq)
    f, i, candidate, o = np.split(cache.g, 4, axis=1)
    np.testing.assert_array_equal(f, 1.0)
    np.testing.assert_array_equal(i, 0.0)
    np.testing.assert_array_equal(o, 1.0)
    np.testing.assert_array_equal(candidate, 1.0)
    np.testing.assert_array_equal(out, 0.0)  # c stays 0: the input gate is shut


def _forward_peak_bytes(params, cfg, batch, mode):
    tracemalloc.start()
    try:
        network_forward(params, cfg, batch, mode=mode, rng=make_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inference_forward_keeps_no_bptt_cache():
    cfg = NetworkConfig(layer_units=(16, 24, 32), dropout_rates=(0.1, 0.1, 0.1), seed=3)
    params = init_params(cfg)
    steps, batch_size = 40, 64
    batch = make_rng(36).normal(size=(batch_size, steps, 1))
    gate_buffer = steps * batch_size * 4 * cfg.layer_units[0] * 8  # bytes, smallest layer
    assert _forward_peak_bytes(params, cfg, batch, "inference") < gate_buffer
    assert _forward_peak_bytes(params, cfg, batch, "train") > gate_buffer

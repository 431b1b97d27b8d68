from __future__ import annotations

import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from seqcast import lstm_core
from seqcast.lstm_core import (
    InvalidConfigError,
    LstmLayerParams,
    NetworkConfig,
    ShapeMismatchError,
    StaleCacheError,
    count_params,
    init_params,
    network_backward,
    network_forward,
    param_blocks,
    zeros_like_params,
)
from seqcast.rng import make_rng

from lstm_oracle import LstmState, gate, lstm_cell_forward
from lstm_oracle import network_backward as oracle_network_backward
from lstm_oracle import network_forward as oracle_network_forward


def zero_layer(hidden, inputs):
    return LstmLayerParams(w=np.zeros((4 * hidden, hidden + inputs)), b=np.zeros(4 * hidden))


def random_layer(hidden, inputs, seed, scale=0.5):
    rng = make_rng(seed)
    r = lambda *shape: rng.normal(scale=scale, size=shape)
    return LstmLayerParams(w=r(4 * hidden, hidden + inputs), b=r(4 * hidden))


def layer_forward(layer, sequence, return_sequences=True):
    """One layer through the kernel on a batch-major [B, T, in] or [T, in] sequence.

    Returns the hidden states in the input's layout and the layer's BPTT cache.
    """
    arr = np.asarray(sequence, dtype=np.float64)
    single = arr.ndim == 2
    x = (arr[np.newaxis] if single else arr).transpose(1, 2, 0)  # [T, in, B]
    T, _, B = x.shape
    # a one-layer frame without dropout: its layer stages x as it is
    cache = lstm_core._Frame((((layer.hidden_size, layer.input_size),), (False,), T, B)).layers[0]
    lstm_core._stage([(layer, cache)], x, 0, None, None)
    h = cache.z[1:, : layer.hidden_size]  # [T, hidden, B]
    out = h.transpose(2, 0, 1) if return_sequences else h[-1].T
    return (out[0] if single else out), cache


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
    seq_out, _ = layer_forward(layer, seq, return_sequences=True)
    last_out, _ = layer_forward(layer, seq, return_sequences=False)
    np.testing.assert_array_equal(seq_out[0], last_out)


def test_layer_zero_params_zero_outputs():
    layer = zero_layer(4, 1)
    out, _ = layer_forward(layer, make_rng(8).normal(size=(6, 1)))
    np.testing.assert_array_equal(out, 0.0)


def test_layer_matches_cell_composition():
    layer = random_layer(2, 1, seed=9)
    seq = make_rng(10).normal(size=(3, 1))
    out, _ = layer_forward(layer, seq, return_sequences=True)
    state = None
    for t in range(3):
        state, _ = lstm_cell_forward(layer, seq[t], prev=state)
        np.testing.assert_allclose(out[t], state.h, rtol=1e-12, atol=1e-15)


def test_gate_ranges_and_hidden_bound():
    layer = random_layer(4, 1, seed=11, scale=1.5)
    seq = make_rng(12).normal(size=(5, 20, 1)) * 2.0
    out, cache = layer_forward(layer, seq)
    f, i, tanh_c, o = np.split(cache.g, 4, axis=1)
    candidate = cache.c[:-1, 4:]  # c[t] = [c_{t-1} | c~_t]
    for arr in (f, i, o):
        assert np.all(arr > 0.0) and np.all(arr < 1.0)
    assert np.all(np.abs(candidate) < 1.0) and np.all(np.abs(tanh_c) < 1.0)
    assert np.all(np.abs(out) < 1.0)


def test_cell_state_growth_bound():
    layer = random_layer(3, 1, seed=13, scale=2.0)
    seq = make_rng(14).normal(size=(2, 30, 1)) * 3.0
    _, cache = layer_forward(layer, seq)
    cells = cache.c[:, :3]  # c[t] = [c_{t-1} | c~_t]
    prev = np.zeros_like(cells[0])
    for t in range(cells.shape[0]):
        assert np.all(np.abs(cells[t]) <= np.abs(prev) + 1.0 + 1e-12)
        prev = cells[t]


# ------------------------------------------------------------------- dropout


DROPOUT_CFG = NetworkConfig(layer_units=(6, 5, 4), dropout_rates=(0.3, 0.5, 0.25), seed=18)


def test_dropout_rate_zero_is_identity():
    cfg = NetworkConfig(layer_units=(3, 2), dropout_rates=(0.0, 0.0), seed=15)
    batch = make_rng(15).normal(size=(4, 6, 1))
    rng = make_rng(0)
    _, cache = network_forward(init_params(cfg), cfg, batch, mode="train", rng=rng)
    assert cache.frame.masks == [None, None]
    assert rng.random() == make_rng(0).random()  # no mask was drawn


def test_dropout_inference_identity():
    params = init_params(DROPOUT_CFG)
    undropped = NetworkConfig(layer_units=DROPOUT_CFG.layer_units, dropout_rates=(0.0,) * 3)
    batch = make_rng(16).normal(size=(5, 7, 1))
    pred, _ = network_forward(params, DROPOUT_CFG, batch, mode="inference")
    expected, _ = network_forward(params, undropped, batch, mode="inference")
    np.testing.assert_array_equal(pred, expected)


def test_dropout_train_frequency_and_scaling():
    params = init_params(DROPOUT_CFG)
    batch_size, steps = 400, 30
    batch = make_rng(17).normal(size=(batch_size, steps, 1))
    _, cache = network_forward(params, DROPOUT_CFG, batch, mode="train", rng=make_rng(17))
    masks = cache.frame.masks
    assert [m.shape for m in masks] == [(steps, batch_size, 6), (steps, batch_size, 5), (batch_size, 4)]
    for mask, rate in zip(masks, DROPOUT_CFG.dropout_rates):
        survivor = 1.0 / (1.0 - rate)
        assert set(np.unique(mask)) == {0.0, survivor}
        assert abs(np.mean(mask == 0.0) - rate) < 0.05
    # the head reads the last layer's output through its mask
    assert np.all(cache.final_hidden[masks[-1] == 0.0] == 0.0)


def test_dropout_bad_rate():
    for rate in (1.0, -0.1):
        with pytest.raises(InvalidConfigError):
            NetworkConfig(layer_units=(3,), dropout_rates=(rate,))


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


@pytest.mark.parametrize("unit", [4.7, 4.0, True, np.bool_(True), "4", None])
def test_config_refuses_units_that_are_not_integers(unit):
    with pytest.raises(InvalidConfigError, match="layer units must be integers"):
        NetworkConfig(layer_units=(unit,), dropout_rates=(0.0,))


def test_config_takes_numpy_integer_units_as_ints():
    cfg = NetworkConfig(layer_units=(np.int64(3), 2), dropout_rates=(0.0, 0.0))
    assert cfg.layer_units == (3, 2) and all(type(u) is int for u in cfg.layer_units)


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


def test_concurrent_inference_calls_match_sequential_ones():
    # more threads than cores, on different batches, share only the params,
    # which they only read; a short switch interval interleaves their steps
    cfg = NetworkConfig(layer_units=(32, 40), dropout_rates=(0.2, 0.3), seed=6)
    params = init_params(cfg)
    flat = params.flat.copy()
    batches = [make_rng(seed).normal(size=(64, 30, 1)) for seed in (21, 22, 23, 24)]
    expected = [network_forward(params, cfg, batch, mode="inference")[0] for batch in batches]
    start, results = threading.Barrier(len(batches)), [[] for _ in batches]

    def run(k):
        start.wait(timeout=60)
        for _ in range(5):
            results[k].append(network_forward(params, cfg, batches[k], mode="inference")[0])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, want in enumerate(expected):
        assert [pred.tobytes() for pred in results[k]] == [want.tobytes()] * 5
    assert params.flat.tobytes() == flat.tobytes()


def test_network_forward_single_layer_matches_manual_composition():
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=6)
    params = init_params(cfg)
    batch = make_rng(21).normal(size=(3, 5, 1))
    pred, _ = network_forward(params, cfg, batch, mode="inference")
    h_last, _ = layer_forward(params.layers[0], batch, return_sequences=False)
    manual = h_last @ params.dense.w + params.dense.b[0]
    np.testing.assert_allclose(pred[:, 0], manual, rtol=1e-12)


@pytest.mark.parametrize(
    "units, batch_size, steps, features",
    [
        ((3, 2), 2, 6, 1),
        ((3, 2), 2, 1, 1),
        ((5, 7, 2), 3, 4, 1),
        ((3, 2), 1, 6, 1),
        # uneven widths and several input rows: inference's state column offsets
        ((5, 7, 2, 4), 3, 5, 3),
        ((5, 7, 2, 4), 1, 5, 3),
        ((5, 7, 2, 4), 3, 1, 3),
        ((5, 7, 2, 4), 1, 1, 3),
    ],
)
def test_network_forward_train_with_zero_dropout_equals_inference(
    units, batch_size, steps, features
):
    cfg = NetworkConfig(
        layer_units=units, dropout_rates=(0.0,) * len(units), input_features=features, seed=8
    )
    params = init_params(cfg)
    batch = make_rng(22).normal(size=(batch_size, steps, features))
    train_pred, cache = network_forward(params, cfg, batch, mode="train")
    infer_pred, _ = network_forward(params, cfg, batch, mode="inference")
    np.testing.assert_array_equal(train_pred, infer_pred)
    assert cache is not None


def test_network_forward_shape_errors():
    cfg = NetworkConfig(layer_units=(2,), dropout_rates=(0.0,), seed=1)
    params = init_params(cfg)
    with pytest.raises(ShapeMismatchError):
        network_forward(params, cfg, np.zeros((2, 4, 3)), mode="inference")
    with pytest.raises(ShapeMismatchError, match="batch has zero timesteps"):
        network_forward(params, cfg, np.zeros((2, 0, 1)), mode="inference")
    for mode in ("inference", "train"):  # train mode's time blocks divided by B
        with pytest.raises(ShapeMismatchError, match="batch has zero windows"):
            network_forward(params, cfg, np.zeros((0, 4, 1)), mode=mode)


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
    assert cache.frame is None
    with pytest.raises(StaleCacheError, match="already used"):
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


@pytest.mark.parametrize("batch_size", [1, 5])
@pytest.mark.parametrize("steps", [1, 9])
def test_backward_matches_exact_oracle(batch_size, steps):
    params = init_params(ORACLE_CFG)
    params.flat[...] += make_rng(37).normal(scale=0.3, size=params.flat.size)
    batch = make_rng(38).normal(size=(batch_size, steps, 1))
    d_pred = make_rng(39).normal(size=(batch_size, 1))

    # same seed on both sides: the backward reuses the forward's dropout masks
    _, cache = network_forward(params, ORACLE_CFG, batch, mode="train", rng=make_rng(40))
    got = network_backward(params, ORACLE_CFG, cache, d_pred).flat
    want = oracle_network_backward(params, ORACLE_CFG, batch, d_pred, rng=make_rng(40)).flat
    assert np.abs(want).max() > 1e-2
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


def test_saturated_gates_are_exact_and_silent():
    layer = zero_layer(3, 1)
    for name, value in zip("fico", (1e3, -1e3, 1e3, 1e3)):
        gate(layer, name)[1][:] = value
    seq = make_rng(35).normal(size=(2, 4, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, cache = layer_forward(layer, seq)
    f, i, tanh_c, o = np.split(cache.g, 4, axis=1)
    candidate = cache.c[:-1, 3:]  # c[t] = [c_{t-1} | c~_t]
    np.testing.assert_array_equal(f, 1.0)
    np.testing.assert_array_equal(i, 0.0)
    np.testing.assert_array_equal(o, 1.0)
    np.testing.assert_array_equal(candidate, 1.0)
    np.testing.assert_array_equal(tanh_c, 0.0)
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


def test_inference_forward_keeps_one_state_column_one_c_and_one_gate_buffer():
    # the column [h_top; ...; h_0; x_t] (sum H + I rows), one [2H, B] c per layer
    # and one gate buffer of the widest layer, as float64 [rows, B] arrays
    cfg = NetworkConfig(layer_units=(16, 24, 32), dropout_rates=(0.1, 0.1, 0.1), seed=5)
    params = init_params(cfg)
    steps, batch_size = 40, 64
    batch = make_rng(38).normal(size=(batch_size, steps, 1))
    units = cfg.layer_units
    rows = sum(units) + cfg.input_features + 2 * sum(units) + 4 * max(units)
    # slack: NumPy's buffered iterator behind the broadcast bias add (512
    # float64s, 4 KiB, at the buffer size _infer sets) and 16 KiB of small
    # objects; the default 8192-element buffer (64 KiB), a per-layer z copy, a
    # second z or c slot, or a repeated bias each add more than 16 KiB
    slack = 4 * 1024 + 16 * 1024
    assert _forward_peak_bytes(params, cfg, batch, "inference") <= rows * batch_size * 8 + slack


def test_inference_leaves_the_callers_ufunc_buffer_size():
    # inference steps under a 512-element buffer; a buffered reduction rounds
    # by the buffer size, so the caller's must come back unchanged
    cfg = NetworkConfig(layer_units=(4, 3), dropout_rates=(0.0, 0.0), seed=6)
    batch = make_rng(39).normal(size=(5, 7, 1))
    with np.errstate():
        np.setbufsize(4096)
        network_forward(init_params(cfg), cfg, batch, mode="inference")
        assert np.getbufsize() == 4096
    network_forward(init_params(cfg), cfg, batch, mode="inference")
    assert np.getbufsize() == 8192


def test_inference_forward_memory_does_not_grow_with_steps():
    cfg = NetworkConfig(layer_units=(16, 24, 32), dropout_rates=(0.1, 0.1, 0.1), seed=4)
    params = init_params(cfg)
    batch_size = 64
    short, long = (make_rng(37).normal(size=(batch_size, steps, 1)) for steps in (10, 100))
    # one [hidden, B] row of the smallest layer: a hidden sequence would add 90 of them
    slack = 8 * cfg.layer_units[0] * batch_size
    short_peak = _forward_peak_bytes(params, cfg, short, "inference")
    assert _forward_peak_bytes(params, cfg, long, "inference") <= short_peak + slack


# -------------------------------------------------------------- frame pool


@pytest.fixture
def cold_pool(monkeypatch):
    """An empty frame pool of the test's own, so earlier tests cannot warm it."""
    pool: dict = {}
    monkeypatch.setattr(lstm_core, "_POOL", pool)
    return pool


@pytest.mark.parametrize("block", [1, 3, 14])
def test_gate_factor_blocks_leave_the_gradients_bitwise_unchanged(cold_pool, monkeypatch, block):
    # (8, 8) at T=20 and B=32 factors each layer in one 20-step block
    cfg = NetworkConfig(layer_units=(8, 8), dropout_rates=(0.2, 0.3), seed=52)
    params = init_params(cfg)
    batch = make_rng(53).normal(size=(32, 20, 1))
    assert lstm_core._block_steps(8, 20, 32) == 20
    whole = _step(params, cfg, batch, seed=54)[1]
    # a frame slices its blocks when it is built, so the patched size needs a cold pool
    monkeypatch.setattr(lstm_core, "_block_steps", lambda hid, T, B: block)
    monkeypatch.setattr(lstm_core, "_POOL", {})
    np.testing.assert_array_equal(_step(params, cfg, batch, seed=54)[1], whole)
    (frame,) = lstm_core._POOL.popitem()[1]
    assert [len(lc.blocks) for lc in frame.layers] == [-(-20 // block)] * 2


def _frame_buffers(frame):
    """Every buffer a frame holds: each view it keeps is a view of one of these."""
    layers = [a for lc in frame.layers for a in (lc.z, lc.g, lc.c, lc.bias, lc.fc_ic)]
    return layers + [m for m in frame.masks if m is not None] + [frame.work, frame.d_inputs]


def _poison(pool):
    """Fill every buffer of every pooled frame with NaN: a value read before it is written shows."""
    for frames in pool.values():
        for frame in frames:
            for buf in _frame_buffers(frame):
                buf.fill(np.nan)


def _step(params, cfg, batch, seed):
    pred, cache = network_forward(params, cfg, batch, mode="train", rng=make_rng(seed))
    d_pred = make_rng(seed + 1).normal(size=pred.shape)
    return pred, network_backward(params, cfg, cache, d_pred).flat


def _views(obj):
    """The arrays in obj, through tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _views(item)


def test_warm_pool_gives_bitwise_equal_gradients(cold_pool):
    params = init_params(ORACLE_CFG)
    batch = make_rng(40).normal(size=(3, 7, 1))
    runs = []
    for _ in range(3):
        runs.append(_step(params, ORACLE_CFG, batch, seed=41))
        assert cold_pool
        _poison(cold_pool)
    for pred, grads in runs[1:]:
        np.testing.assert_array_equal(pred, runs[0][0])
        np.testing.assert_array_equal(grads, runs[0][1])


def test_consumed_cache_keeps_no_buffers(cold_pool):
    params = init_params(ORACLE_CFG)
    batch = make_rng(42).normal(size=(3, 5, 1))
    _, cache = network_forward(params, ORACLE_CFG, batch, mode="train", rng=make_rng(43))
    frame = cache.frame
    network_backward(params, ORACLE_CFG, cache, np.ones((3, 1)))
    # no array left, so nothing the consumed cache holds can alias a later forward's
    assert (cache.frame, cache.final_hidden) == (None, None)

    _, nxt = network_forward(params, ORACLE_CFG, batch, mode="train", rng=make_rng(43))
    assert nxt is not cache and nxt.frame is frame  # a fresh handle on the recycled frame
    with pytest.raises(StaleCacheError, match="already used"):
        network_backward(params, ORACLE_CFG, cache, np.ones((3, 1)))


def test_live_forwards_hold_disjoint_frames_and_give_cold_pool_gradients(cold_pool, monkeypatch):
    cfg = NetworkConfig(layer_units=(8, 8), dropout_rates=(0.2, 0.3), seed=60)
    params = init_params(cfg)
    batches = [make_rng(61 + k).normal(size=(5, 6, 1)) for k in range(2)]
    expected = []
    for k, batch in enumerate(batches):
        monkeypatch.setattr(lstm_core, "_POOL", {})
        expected.append(_step(params, cfg, batch, seed=70 + 2 * k))
    monkeypatch.setattr(lstm_core, "_POOL", cold_pool)
    _step(params, cfg, batches[0], seed=70)
    _poison(cold_pool)  # one frame in the pool: the second forward builds its own

    live = [
        network_forward(params, cfg, batch, mode="train", rng=make_rng(70 + 2 * k))
        for k, batch in enumerate(batches)
    ]
    first, second = (_frame_buffers(cache.frame) for _, cache in live)
    assert not any(np.shares_memory(a, b) for a in first for b in second)
    for k in (1, 0):  # backward in the other order
        pred, cache = live[k]
        np.testing.assert_array_equal(pred, expected[k][0])
        d_pred = make_rng(71 + 2 * k).normal(size=pred.shape)
        grads = network_backward(params, cfg, cache, d_pred)
        np.testing.assert_array_equal(grads.flat, expected[k][1])


def test_every_cached_view_shares_memory_only_with_its_own_frame(cold_pool, monkeypatch):
    # uneven widths, a layer without dropout between two with it, and two factor blocks; under
    # a zero work gate the second stack's backward may get the worker, which factors the lower
    # layers beside the top layer's factors and loop, so their blocks lie apart in work; the
    # first's share it. A frame applies the gates when it is built, so the pool is cold
    monkeypatch.setattr(lstm_core, "_block_steps", lambda hid, T, B: 4)
    monkeypatch.setattr(lstm_core, "_THREADS_MIN_WORK", 0)
    for units in ((5, 7, 2), (50, 60, 56)):
        cfg = NetworkConfig(layer_units=units, dropout_rates=(0.3, 0.0, 0.2), seed=64)
        params = init_params(cfg)
        batch = make_rng(65).normal(size=(4, 6, 1))
        forward = lambda: network_forward(params, cfg, batch, mode="train", rng=make_rng(66))[1]
        frames = [forward().frame, forward().frame]  # both live at once
        for own, other in (frames, frames[::-1]):
            mine, theirs = _frame_buffers(own), _frame_buffers(other)
            views = [v for lc in own.layers for v in _views(list(vars(lc).values())) if v.size]
            assert len(views) > 200
            for view in views:
                assert any(np.shares_memory(view, buf) for buf in mine)
                assert not any(np.shares_memory(view, buf) for buf in theirs)
            top = list(_views(own.layers[-1].blocks)) + list(_views(own.layers[-1].loop))
            lower = [v for lc in own.layers[:-1] for v in _views(lc.blocks)]
            shared = any(np.shares_memory(a, b) for a in top for b in lower)
            assert own.forked == (min(units) >= lstm_core._THREADS_MIN_UNITS)
            assert shared == (not own.forked)


@pytest.mark.parametrize(
    "units,steps,batch_size,size",
    [
        ((50, 60, 80, 120), 100, 32, 2_176_000),  # G and Z of the top layer: (5*120 + 80)*T*B
        ((50, 60, 80, 120), 100, 14, 952_000),
        ((8, 8), 20, 32, 35_840),  # one 20-step factor block: 7*8*20*B
        # under the work gate, so no second factor region: G and Z, (5*50 + 50)*T*B
        ((50, 50), 20, 32, 192_000),
        ((50, 56), 31, 7, 85_064),
    ],
)
def test_the_backward_scratch_of_these_frames_keeps_its_size(units, steps, batch_size, size):
    # the lower layers' factor blocks fit beside the top layer's within the paper frames' work
    assert _frame(units, steps, batch_size).work.size == size


def _frame(units, steps, batch_size):
    sizes = tuple(zip(units, (1,) + units[:-1]))
    return lstm_core._Frame((sizes, (True,) * len(units), steps, batch_size))


PAPER = (50, 60, 80, 120)


@pytest.mark.parametrize(
    "units,steps,batch_size,piped,forked",
    [
        # the paper's lighter stage, layers 0-2, makes 81,400*B multiply-adds a step
        (PAPER, 100, 12, False, True),  # 976,800 < 10**6
        (PAPER, 100, 13, True, True),
        # the paper's backward makes 177,400*T*B: 39,028,000 at T=20, B=11
        (PAPER, 20, 11, False, False),
        (PAPER, 20, 12, False, True),
        # over both work gates (1,634,304 a step and 42,685,440), but a layer under 50 units
        ((56, 49), 10, 128, False, False),
        ((120,), 100, 32, False, True),  # one layer: no second stage
    ],
)
def test_each_worker_gate_of_a_frame_at_its_edge(units, steps, batch_size, piped, forked):
    frame = _frame(units, steps, batch_size)
    assert (frame.piped, frame.forked) == (piped, forked)


def test_mixed_shapes_on_one_pool_match_a_cold_pool(cold_pool, monkeypatch):
    # (8, 8): both layers ask for g, c and tanh_c of the same shape
    cfg = NetworkConfig(layer_units=(8, 8), dropout_rates=(0.3, 0.2), seed=44)
    params = init_params(cfg)
    cases = [(4, 6), (3, 6), (4, 1)]  # (batch, steps): full, short last batch, T = 1
    batches = {case: make_rng(45).normal(size=case + (1,)) for case in cases}
    expected = {}
    for case in cases:
        monkeypatch.setattr(lstm_core, "_POOL", {})
        expected[case] = _step(params, cfg, batches[case], seed=46)
    monkeypatch.setattr(lstm_core, "_POOL", cold_pool)

    # a forward whose cache is dropped without a backward takes buffers it never returns
    network_forward(params, cfg, batches[cases[0]], mode="train", rng=make_rng(47))
    for case in cases + cases[::-1]:
        pred, grads = _step(params, cfg, batches[case], seed=46)
        np.testing.assert_array_equal(pred, expected[case][0])
        np.testing.assert_array_equal(grads, expected[case][1])
        _poison(cold_pool)


def test_warm_step_allocates_under_half_the_first(cold_pool):
    cfg = NetworkConfig(layer_units=(16, 24), dropout_rates=(0.2, 0.2), seed=48)
    params = init_params(cfg)
    batch = make_rng(49).normal(size=(16, 30, 1))
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            _step(params, cfg, batch, seed=50)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] / 2


def test_warm_step_allocates_little_beyond_the_gradients(cold_pool):
    # a ufunc over a strided view allocates NumPy's iterator buffers: 64 KB
    # per operand at these sizes
    cfg = NetworkConfig(layer_units=(8, 8), dropout_rates=(0.0, 0.0), seed=51)
    params = init_params(cfg)
    batch = make_rng(52).normal(size=(32, 20, 1))
    _step(params, cfg, batch, seed=53)
    tracemalloc.start()
    try:
        _step(params, cfg, batch, seed=53)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= params.flat.nbytes + 16 * 1024


def test_warm_dropout_step_allocates_under_half_a_mask_beyond_the_gradients(cold_pool):
    # the masks come from the pool and scale the next layer's input as it is staged
    cfg = NetworkConfig(layer_units=(32, 32), dropout_rates=(0.2, 0.3), seed=54)
    params = init_params(cfg)
    steps, batch_size = 50, 64
    batch = make_rng(55).normal(size=(batch_size, steps, 1))
    _step(params, cfg, batch, seed=56)
    tracemalloc.start()
    try:
        _step(params, cfg, batch, seed=56)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mask = steps * batch_size * cfg.layer_units[0] * 8
    assert peak < params.flat.nbytes + mask // 2


# ------------------------------------------------------------ threads

def blas_env(monkeypatch, cpus, openblas=None, omp=None):
    """`cpus` usable cores, and the BLAS thread variables set as given."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)


@pytest.mark.parametrize(
    "cpus,openblas,omp,workers",
    [
        (2, None, None, 1),  # BLAS threads over every core already
        (2, "1", None, 2),
        (2, "2", None, 1),
        (2, "3", None, 1),
        (3, "2", None, 1),
        (2, None, "1", 2),
        (2, "1", "2", 2),  # OpenBLAS reads its own variable first
        (2, "abc", "1", 2),  # as in OpenBLAS, a non-numeric value is passed over
        (2, "0", None, 1),
        (2, "-1", None, 1),
        (2, "", None, 1),
        (2, None, "4,2", 1),
        (4, "1", None, 2),  # never more workers than were measured
        (64, "1", None, 2),
        (64, "16", None, 2),
    ],
)
def test_workers_are_the_cores_blas_leaves_free(monkeypatch, cpus, openblas, omp, workers):
    blas_env(monkeypatch, cpus, openblas, omp)
    with lstm_core._threads(True) as pool:  # a one-thread executor, or None
        assert (pool is not None) == (workers == 2)
    with lstm_core._threads(False) as pool:  # not asked for: none on any machine
        assert pool is None


@pytest.mark.parametrize(
    "units,windows,threaded",
    [
        ((50, 56), 1, False),
        ((50, 56), 120, False),
        ((50, 56), 121, True),
        ((8, 8), 121, False),  # under the width gate
        ((32, 32), 121, False),
        ((56, 49), 121, False),
    ],
)
def test_an_inference_call_of_one_chunk_starts_no_thread(monkeypatch, units, windows, threaded):
    blas_env(monkeypatch, 2, openblas="1")
    submitted, submit = [], ThreadPoolExecutor.submit

    def recording_submit(pool, *args):
        submitted.append(args)
        return submit(pool, *args)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", recording_submit)
    cfg = NetworkConfig(layer_units=units, dropout_rates=(0.0, 0.0), seed=76)
    batch = make_rng(75).normal(size=(windows, 6, 1))
    assert network_forward(init_params(cfg), cfg, batch, mode="inference")[0].shape == (windows, 1)
    assert len(submitted) == threaded


def test_a_backward_under_the_work_gate_starts_no_worker(cold_pool, monkeypatch):
    blas_env(monkeypatch, 2, openblas="1")
    # (50, 50) at T=20 and B=32: 4H(H+I) summed over the layers is 30,200, times T*B = 640
    refuse = lambda *args: pytest.fail("a thread was started")
    monkeypatch.setattr(ThreadPoolExecutor, "submit", refuse)
    cfg = NetworkConfig(layer_units=(50, 50), dropout_rates=(0.2, 0.0), seed=79)
    assert 30_200 * 640 < lstm_core._THREADS_MIN_WORK
    _step(init_params(cfg), cfg, make_rng(78).normal(size=(32, 20, 1)), seed=77)


WIDE_CASES = [
    ((50, 60, 80, 120), (0.2, 0.3, 0.4, 0.5), 32, 100),
    ((50, 60, 80, 120), (0.2, 0.3, 0.4, 0.5), 14, 100),  # the paper's short last batch
    ((50, 56), (0.3, 0.0), 7, 31),  # odd T, dropout on the lower layer only
]


@pytest.mark.parametrize(
    "units,rates,batch_size,steps",
    WIDE_CASES + [((120,), (0.5,), 32, 100)],
    ids=["paper", "paper-B14", "odd-T", "one-layer"],
)
def test_threaded_backward_gives_the_serial_gradients(
    cold_pool, monkeypatch, units, rates, batch_size, steps
):
    monkeypatch.setattr(lstm_core, "_THREADS_MIN_WORK", 0)  # the odd-T frame is small
    cfg = NetworkConfig(layer_units=units, dropout_rates=rates, seed=80)
    params = init_params(cfg)
    batch = make_rng(81).normal(size=(batch_size, steps, 1))
    threads, products, taken = [], lstm_core._products, threading.Condition()
    caller, grads = threading.get_ident(), {}
    parts, bptt, top_down = [], lstm_core._bptt, list(units[::-1])

    def recording_bptt(factored, lc=None, *args):
        widths = [f.f_last.shape[0] for f in factored]
        with taken:  # (thread, widths factored, whether a time loop follows)
            parts.append((threading.get_ident(), widths, lc is not None))
            taken.notify_all()
            # with a worker, a caller that took the top layer's first part waits for the other
            if cpus == 2 and len(units) > 1 and len(parts) == 1 and parts[0][0] == caller:
                assert taken.wait_for(lambda: len(parts) == 2, timeout=60)
        bptt(factored, lc, *args)

    def recording_products(*args):
        with taken:
            threads.append(threading.get_ident())
            taken.notify_all()
            # with a worker, the caller waits until it has taken this layer's other part
            if cpus == 2 and threads[-1] == caller:
                assert taken.wait_for(lambda: len(threads) % 2 == 0, timeout=60)
        products(*args)

    monkeypatch.setattr(lstm_core, "_products", recording_products)
    monkeypatch.setattr(lstm_core, "_bptt", recording_bptt)
    for cpus in (1, 2):
        blas_env(monkeypatch, cpus, openblas="1")
        threads.clear()
        parts.clear()
        grads[cpus] = _step(params, cfg, batch, seed=82)[1].tobytes()
        if cpus == 1:  # two parts a layer, in turn on this thread
            assert threads == [caller] * 2 * len(units)
        else:  # one part of each layer on one worker thread
            assert threads.count(caller) == len(units) and len(set(threads) - {caller}) == 1
        if cpus == 1 or len(units) == 1:  # each layer factors itself, then runs its loop
            assert parts == [(caller, [hid], True) for hid in top_down]
        else:  # the top layer's factors and loop beside every lower layer's factors, top down
            first = sorted(parts[:2], key=lambda part: part[2])
            assert first[0][1:] == (top_down[1:], False) and first[1][1:] == (top_down[:1], True)
            assert {first[0][0], first[1][0]} == {caller} | (set(threads) - {caller})
            assert parts[2:] == [(caller, [], True)] * (len(units) - 1)
    assert grads[1] == grads[2]


@pytest.mark.parametrize("cpus", [1, 2])
def test_backward_in_parts_matches_exact_oracle(cold_pool, monkeypatch, cpus):
    blas_env(monkeypatch, cpus, openblas="1")
    monkeypatch.setattr(lstm_core, "_THREADS_MIN_WORK", 0)
    cfg = NetworkConfig(layer_units=(50, 56), dropout_rates=(0.3, 0.2), seed=83)
    params = init_params(cfg)
    params.flat[...] += make_rng(84).normal(scale=0.1, size=params.flat.size)
    batch = make_rng(85).normal(size=(5, 9, 1))
    d_pred = make_rng(86).normal(size=(5, 1))

    _, cache = network_forward(params, cfg, batch, mode="train", rng=make_rng(87))
    assert [len(lc.products) for lc in cache.frame.layers] == [2, 2]
    got = network_backward(params, cfg, cache, d_pred).flat
    want = oracle_network_backward(params, cfg, batch, d_pred, rng=make_rng(87)).flat
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize(
    "part,error",
    [
        ("products", ShapeMismatchError("part 2")),
        ("products", MemoryError()),
        ("factors", MemoryError()),  # in the lower layer's factors, beside the top layer's loop
    ],
    ids=["error0", "error1", "factors"],
)
def test_a_worker_exception_is_raised_by_network_backward(cold_pool, monkeypatch, part, error):
    blas_env(monkeypatch, 2, openblas="1")
    monkeypatch.setattr(lstm_core, "_THREADS_MIN_WORK", 0)
    caller, raised_on, products = threading.get_ident(), [], lstm_core._products
    raised, factors, began = threading.Event(), lstm_core._gate_factors, threading.Event()

    def failing_products(*args):
        if threading.get_ident() != caller:
            raised_on.append(threading.get_ident())
            raised.set()
            raise error
        assert raised.wait(timeout=60)  # so that the worker takes the other part
        products(*args)

    def failing_factors(blocks, f_last):
        if threading.get_ident() != caller:  # the lower layer's, beside the top layer's part
            raised_on.append(threading.get_ident())
            raised.set()
            raise error
        began.set()
        assert raised.wait(timeout=60)  # so that the caller does not take the other part too
        factors(blocks, f_last)

    def late_submit(pool, fn, *args):
        # the worker starts once the caller has begun the top layer's part, so it takes the other
        return submit(pool, lambda *a: began.wait(timeout=60) and fn(*a), *args)

    cfg = NetworkConfig(layer_units=(50, 56), dropout_rates=(0.0, 0.0), seed=88)
    params = init_params(cfg)
    pred, cache = network_forward(params, cfg, make_rng(89).normal(size=(4, 6, 1)), mode="train")
    if part == "products":
        monkeypatch.setattr(lstm_core, "_products", failing_products)
    else:
        submit = ThreadPoolExecutor.submit
        monkeypatch.setattr(ThreadPoolExecutor, "submit", late_submit)
        monkeypatch.setattr(lstm_core, "_gate_factors", failing_factors)
    before = threading.active_count()
    with pytest.raises(type(error)) as info:
        network_backward(params, cfg, cache, np.ones_like(pred))
    assert info.value is error and len(raised_on) == 1
    assert threading.active_count() == before  # the worker has ended


def test_threaded_backwards_under_a_short_switch_interval_keep_their_gradients(
    cold_pool, monkeypatch
):
    # three training steps at once, each forward and backward with its worker: six threads
    # on two cores, switching often, so that a write into a row another thread owns, or a
    # block read before the stage below wrote it, would show
    monkeypatch.setattr(lstm_core, "_THREADS_MIN_WORK", 0)
    monkeypatch.setattr(lstm_core, "_PIPE_MIN_WORK", 0)
    cfg = NetworkConfig(layer_units=(50, 56), dropout_rates=(0.3, 0.2), seed=90)
    params = init_params(cfg)
    batches = [make_rng(91 + k).normal(size=(6, 9, 1)) for k in range(3)]
    blas_env(monkeypatch, 1, openblas="1")
    expected = [_step(params, cfg, batch, seed=95)[1].tobytes() for batch in batches]
    blas_env(monkeypatch, 2, openblas="1")
    matched = [[] for _ in batches]

    def steps(k):
        for _ in range(5):
            matched[k].append(_step(params, cfg, batches[k], seed=95)[1].tobytes() == expected[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=steps, args=(k,)) for k in range(len(batches))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert matched == [[True] * 5] * len(batches)


def _forward_bytes(params, cfg, batch, seed):
    """A train-mode forward's predictions, masks and every layer's z, g and c, as bytes,
    then the gradients of a backward on its cache. Of z[T] and c[T] only h and c_{T-1},
    the first halves, are written."""
    pred, cache = network_forward(params, cfg, batch, mode="train", rng=make_rng(seed))
    frame, T = cache.frame, batch.shape[1]
    cached = [m.tobytes() for m in frame.masks if m is not None]
    cached += [a.tobytes() for lc in frame.layers for a in (lc.z[:T], lc.h, lc.g, lc.c[:T])]
    cached += [lc.c[1:, : len(lc.c0)].tobytes() for lc in frame.layers]
    grads = network_backward(params, cfg, cache, make_rng(seed + 1).normal(size=pred.shape))
    return pred.tobytes(), cached, grads.flat.tobytes()


@pytest.mark.parametrize("units,rates,batch_size,steps", WIDE_CASES, ids=["paper", "paper-B14", "odd-T"])
def test_threaded_forward_gives_the_serial_bytes(
    cold_pool, monkeypatch, units, rates, batch_size, steps
):
    monkeypatch.setattr(lstm_core, "_PIPE_MIN_WORK", 0)  # the odd-T stack is light
    assert 31 % lstm_core._PIPE_STEPS  # odd-T's last block is short
    cfg = NetworkConfig(layer_units=units, dropout_rates=rates, seed=100)
    params = init_params(cfg)
    batch = make_rng(101).normal(size=(batch_size, steps, 1))
    stages, stage, taken = [], lstm_core._stage, threading.Condition()
    caller, runs = threading.get_ident(), {}

    def recording_stage(layers, *args):
        with taken:
            stages.append((threading.get_ident(), [layer.hidden_size for layer, _ in layers]))
            taken.notify_all()
            # with a worker, the caller waits until it has taken the other stage
            if cpus == 2 and stages[-1][0] == caller:
                assert taken.wait_for(lambda: len(stages) == 2, timeout=60)
        stage(layers, *args)

    monkeypatch.setattr(lstm_core, "_stage", recording_stage)
    for cpus in (1, 2):
        blas_env(monkeypatch, cpus, openblas="1")
        stages.clear()
        _poison(cold_pool)  # the frame the other run left: nothing the forward skips survives
        runs[cpus] = _forward_bytes(params, cfg, batch, seed=102)
        if cpus == 1:  # one stage of every layer, on this thread
            assert stages == [(caller, list(units))]
        else:  # cut where the heavier side's multiply-adds are fewest: 0-2 | 3 for the paper's
            cut = 3 if len(units) == 4 else 1
            assert sorted(layers for _, layers in stages) == [list(units[:cut]), list(units[cut:])]
            assert len({thread for thread, _ in stages}) == 2
    assert runs[1] == runs[2]


def test_each_block_of_the_stage_above_waits_for_the_stage_below(cold_pool, monkeypatch):
    blas_env(monkeypatch, 2, openblas="1")
    monkeypatch.setattr(lstm_core, "_PIPE_MIN_WORK", 0)
    cfg = NetworkConfig(layer_units=(50, 56), dropout_rates=(0.3, 0.0), seed=103)
    steps, n = lstm_core._PIPE_STEPS, 3
    events, lock, kernel = [], threading.Lock(), lstm_core._steps

    def recording_steps(w, *args):
        hid = w.shape[0] // 4
        if hid == 50:
            time.sleep(0.005)  # the stage below is slow: a stage above that ran ahead shows
        with lock:
            events.append(("begin", hid))
        kernel(w, *args)
        with lock:
            events.append(("end", hid))

    monkeypatch.setattr(lstm_core, "_steps", recording_steps)
    network_forward(init_params(cfg), cfg, make_rng(104).normal(size=(8, n * steps, 1)), "train", make_rng(105))
    ends = [k for k, event in enumerate(events) if event == ("end", 50)]
    begins = [k for k, event in enumerate(events) if event == ("begin", 56)]
    assert len(ends) == len(begins) == n
    assert all(end < begin for end, begin in zip(ends, begins))


@pytest.mark.parametrize("raising", [50, 56])
def test_an_exception_in_either_stage_is_raised_by_network_forward(cold_pool, monkeypatch, raising):
    blas_env(monkeypatch, 2, openblas="1")
    monkeypatch.setattr(lstm_core, "_PIPE_MIN_WORK", 0)
    error, kernel = MemoryError(), lstm_core._steps

    def failing_steps(w, *args):
        if w.shape[0] == 4 * raising:
            raise error
        kernel(w, *args)

    monkeypatch.setattr(lstm_core, "_steps", failing_steps)
    cfg = NetworkConfig(layer_units=(50, 56), dropout_rates=(0.3, 0.2), seed=106)
    params, batch, raised = init_params(cfg), make_rng(107).normal(size=(6, 13, 1)), []
    before = threading.active_count()

    def forward():
        try:
            network_forward(params, cfg, batch, mode="train", rng=make_rng(108))
        except MemoryError as exc:
            raised.append(exc)

    caller = threading.Thread(target=forward)
    caller.start()
    caller.join(timeout=60)  # a stage that waits for ever shows here
    assert not caller.is_alive()
    assert raised == [error] and raised[0] is error
    assert threading.active_count() == before  # the worker has ended


def test_a_forward_under_the_gate_or_of_one_layer_starts_no_worker(cold_pool, monkeypatch):
    blas_env(monkeypatch, 2, openblas="1")
    refuse = lambda *args: pytest.fail("a thread was started")
    monkeypatch.setattr(ThreadPoolExecutor, "submit", refuse)
    # (50, 50) at B=32: the lighter stage, layer 0, makes 4*50*51*32 multiply-adds a step
    assert 4 * 50 * 51 * 32 < lstm_core._PIPE_MIN_WORK
    for units in ((50, 50), (120,)):
        cfg = NetworkConfig(layer_units=units, dropout_rates=(0.2,) * len(units), seed=109)
        batch = make_rng(110).normal(size=(32, 100, 1))
        network_forward(init_params(cfg), cfg, batch, mode="train", rng=make_rng(111))

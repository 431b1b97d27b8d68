from __future__ import annotations

import math
import sys
import threading
import tracemalloc
import warnings

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
    cache = lstm_core._layer_forward(layer, x, None)
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
    assert cache.dropout_masks == [None, None]
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
    masks = cache.dropout_masks
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
    # slack: NumPy's buffered iterator behind the broadcast bias add (8192
    # float64s, 64 KiB) and 16 KiB of small objects; a per-layer z copy,
    # a second z or c slot, or a repeated bias each add more than 16 KiB
    slack = 64 * 1024 + 16 * 1024
    assert _forward_peak_bytes(params, cfg, batch, "inference") <= rows * batch_size * 8 + slack


def test_inference_forward_memory_does_not_grow_with_steps():
    cfg = NetworkConfig(layer_units=(16, 24, 32), dropout_rates=(0.1, 0.1, 0.1), seed=4)
    params = init_params(cfg)
    batch_size = 64
    short, long = (make_rng(37).normal(size=(batch_size, steps, 1)) for steps in (10, 100))
    # one [hidden, B] row of the smallest layer: a hidden sequence would add 90 of them
    slack = 8 * cfg.layer_units[0] * batch_size
    short_peak = _forward_peak_bytes(params, cfg, short, "inference")
    assert _forward_peak_bytes(params, cfg, long, "inference") <= short_peak + slack


# ------------------------------------------------------------- buffer pool


@pytest.fixture
def cold_pool(monkeypatch):
    """An empty buffer pool of the test's own, so earlier tests cannot warm it."""
    pool: dict = {}
    monkeypatch.setattr(lstm_core, "_POOL", pool)
    return pool


@pytest.mark.parametrize("block", [1, 3, 14])
def test_gate_factor_blocks_leave_the_gradients_bitwise_unchanged(monkeypatch, block):
    # (8, 8) at T=20 and B=32 factors each layer in one 20-step block
    cfg = NetworkConfig(layer_units=(8, 8), dropout_rates=(0.2, 0.3), seed=52)
    params = init_params(cfg)
    batch = make_rng(53).normal(size=(32, 20, 1))
    assert lstm_core._block_steps(8, 20, 32) == 20
    whole = _step(params, cfg, batch, seed=54)[1]
    monkeypatch.setattr(lstm_core, "_block_steps", lambda hid, T, B: block)
    np.testing.assert_array_equal(_step(params, cfg, batch, seed=54)[1], whole)


def _poison(pool):
    """Fill every pooled buffer with NaN: a value read before it is written shows."""
    for buffers in pool.values():
        for buf in buffers:
            buf.fill(np.nan)


def _step(params, cfg, batch, seed):
    pred, cache = network_forward(params, cfg, batch, mode="train", rng=make_rng(seed))
    d_pred = make_rng(seed + 1).normal(size=pred.shape)
    return pred, network_backward(params, cfg, cache, d_pred).flat


def _cache_buffers(cache):
    masks = [m for m in cache.dropout_masks if m is not None]
    return [a for lc in cache.layer_caches for a in (lc.z, lc.g, lc.c)] + masks


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
    consumed = _cache_buffers(cache)
    network_backward(params, ORACLE_CFG, cache, np.ones((3, 1)))
    # no array left, so nothing the consumed cache holds can alias a later forward's
    assert (cache.layer_caches, cache.dropout_masks, cache.final_hidden) == ([], [], None)

    _, nxt = network_forward(params, ORACLE_CFG, batch, mode="train", rng=make_rng(43))
    assert all(any(a is b for b in consumed) for a in _cache_buffers(nxt))  # recycled


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

"""Stacked LSTM with inverted dropout and a one-unit dense head.

Gate math over the concatenation z_t = [h_prev | x_t]:

    f_t = sigmoid(W_f z_t + b_f)        forget gate
    i_t = sigmoid(W_i z_t + b_i)        input gate
    c~_t = tanh(W_c z_t + b_c)          candidate cell state
    c_t = f_t * c_prev + i_t * c~_t
    o_t = sigmoid(W_o z_t + b_o)        output gate
    h_t = o_t * tanh(c_t)

The backward pass is exact backpropagation through time over these
equations; training.finite_diff_gradcheck validates it against central
finite differences. All arithmetic is float64.

Parameter layout, known only to this module: every trainable scalar lives
in one contiguous buffer, NetworkParams.flat. Each layer holds a packed
weight w [4*hidden, hidden + input] (rows W_f, W_i, W_c, W_o; columns
[h_prev | x_t]) and a packed bias b [4*hidden] in the same f, i, c, o row
order, so one GEMM per step computes all four gates. Layers follow each
other in flat (w then b), then the dense head's w and b. Every array is a
view into flat, gradients share the layout, and param_blocks names the
per-gate row views in flat order.

Layer stacking: every layer but the last feeds its full hidden sequence
to the next layer; the last layer emits only its final hidden state,
which the dense head maps to one scalar. Dropout (inverted: survivors
scaled by 1/(1-rate) at train time, identity at inference) is applied
to each layer's output, including the last hidden state before the head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import make_rng


class InvalidConfigError(ValueError):
    """Network configuration violates its invariants."""


class ShapeMismatchError(ValueError):
    """Array shapes inconsistent with the parameters or config."""


class EmptySequenceError(ValueError):
    """Forward pass needs at least one timestep."""


class BadRateError(ValueError):
    """Dropout rate outside [0, 1)."""


class StaleCacheError(ValueError):
    """Backward pass got a cache that does not match the forward call."""


DEFAULT_LAYER_UNITS = (50, 60, 80, 120)
DEFAULT_DROPOUT_RATES = (0.2, 0.3, 0.4, 0.5)

# sigmoid saturates to 0/1 long before +-500; the clamp only keeps exp finite
_SIGMOID_CLAMP = 500.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_SIGMOID_CLAMP, _SIGMOID_CLAMP)))


@dataclass(frozen=True)
class NetworkConfig:
    """Stack description: one (units, dropout rate) pair per layer."""

    layer_units: tuple[int, ...] = DEFAULT_LAYER_UNITS
    dropout_rates: tuple[float, ...] = DEFAULT_DROPOUT_RATES
    input_features: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_units", tuple(int(u) for u in self.layer_units))
        object.__setattr__(self, "dropout_rates", tuple(float(r) for r in self.dropout_rates))
        if not self.layer_units:
            raise InvalidConfigError("need at least one LSTM layer")
        if len(self.layer_units) != len(self.dropout_rates):
            raise InvalidConfigError(
                f"{len(self.layer_units)} layers but {len(self.dropout_rates)} dropout rates"
            )
        if any(u < 1 for u in self.layer_units):
            raise InvalidConfigError(f"layer units must be >= 1, got {self.layer_units}")
        if any(not 0.0 <= r < 1.0 for r in self.dropout_rates):
            raise InvalidConfigError(f"dropout rates must be in [0, 1), got {self.dropout_rates}")
        if self.input_features < 1:
            raise InvalidConfigError(f"input_features must be >= 1, got {self.input_features}")


@dataclass
class LstmLayerParams:
    """Packed gate weights [4*hidden, hidden + input] and biases [4*hidden].

    Rows are in gate order f, i, c, o; weight columns are [h_prev | x_t].
    """

    w: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.w.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w.shape[1] - self.hidden_size


@dataclass
class DenseParams:
    w: np.ndarray  # [hidden_last]
    b: np.ndarray  # [1]


@dataclass
class NetworkParams:
    """Every trainable scalar in one contiguous float64 buffer, `flat`.

    Each layer's packed `w` then `b`, then the dense head's `w` and `b`, are
    views into `flat` in that order, so flat order is param_blocks order.
    Gradient containers share this exact layout.
    """

    flat: np.ndarray
    layers: list[LstmLayerParams]
    dense: DenseParams


@dataclass
class LayerCache:
    """Time-major forward intermediates one layer needs for BPTT."""

    z: np.ndarray  # [T, B, hidden + input]
    f: np.ndarray  # [T, B, hidden]
    i: np.ndarray
    o: np.ndarray
    candidate: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


@dataclass
class NetworkCache:
    """Per-layer caches plus dropout masks; retained only for training."""

    batch_size: int
    seq_len: int
    layer_caches: list[LayerCache]
    dropout_masks: list[np.ndarray | None]  # mask on each layer's output, None = identity
    final_hidden: np.ndarray  # [B, hidden_last] after dropout; input to the dense head


def _bind(flat: np.ndarray, sizes: list[tuple[int, int]]) -> NetworkParams:
    """Carve per-layer (hidden, input) views and the dense head out of `flat`."""
    layers = []
    offset = 0
    for hid, in_size in sizes:
        n_w = 4 * hid * (hid + in_size)
        w = flat[offset : offset + n_w].reshape(4 * hid, hid + in_size)
        b = flat[offset + n_w : offset + n_w + 4 * hid]
        layers.append(LstmLayerParams(w=w, b=b))
        offset += n_w + 4 * hid
    hid_last = sizes[-1][0]
    dense = DenseParams(w=flat[offset : offset + hid_last], b=flat[offset + hid_last :])
    return NetworkParams(flat=flat, layers=layers, dense=dense)


def _layer_sizes(config: NetworkConfig) -> list[tuple[int, int]]:
    """(hidden, input) widths of each layer, bottom up."""
    inputs = (config.input_features,) + config.layer_units[:-1]
    return list(zip(config.layer_units, inputs))


def zeros_params(config: NetworkConfig) -> NetworkParams:
    return _bind(np.zeros(count_params(config), dtype=np.float64), _layer_sizes(config))


def zeros_like_params(params: NetworkParams) -> NetworkParams:
    sizes = [(layer.hidden_size, layer.input_size) for layer in params.layers]
    return _bind(np.zeros_like(params.flat), sizes)


def param_blocks(params: NetworkParams) -> list[tuple[str, np.ndarray]]:
    """Per-gate views of every parameter array, in flat order.

    This order is the contract shared by the gradient probes and the
    checkpoint layout: per layer w_f, w_i, w_c, w_o, b_f, b_i, b_c, b_o,
    then dense w and b. Concatenated, the blocks equal params.flat.
    """
    blocks: list[tuple[str, np.ndarray]] = []
    for idx, layer in enumerate(params.layers):
        hid = layer.hidden_size
        for kind, packed in (("w", layer.w), ("b", layer.b)):
            for k, gate in enumerate("fico"):
                blocks.append((f"layer{idx}.{kind}_{gate}", packed[k * hid : (k + 1) * hid]))
    blocks.append(("dense.w", params.dense.w))
    blocks.append(("dense.b", params.dense.b))
    return blocks


def count_params(config: NetworkConfig) -> int:
    """Trainable scalar count: 4*(in+hid+1)*hid per layer plus hid+1 for the head."""
    lstm = sum(4 * (in_size + hid + 1) * hid for hid, in_size in _layer_sizes(config))
    return lstm + config.layer_units[-1] + 1


def init_params(config: NetworkConfig) -> NetworkParams:
    """Glorot-uniform weights, zero biases except forget bias 1.0, seeded PCG64.

    Draw order is fixed (per layer: the f, i, c, o weight rows; dense last) so
    a seed pins every parameter bitwise.
    """
    rng = make_rng(config.seed)
    params = zeros_params(config)
    for layer in params.layers:
        hid = layer.hidden_size
        cols = layer.w.shape[1]
        limit = math.sqrt(6.0 / (cols + hid))  # fan_in = cols, fan_out = hid
        layer.w[...] = rng.uniform(-limit, limit, size=layer.w.shape)
        # forget bias 1.0 keeps early cell-state gradients alive
        layer.b[:hid] = 1.0
    limit = math.sqrt(6.0 / (params.dense.w.size + 1))
    params.dense.w[...] = rng.uniform(-limit, limit, size=params.dense.w.size)
    return params


def _layer_forward(params: LstmLayerParams, seq_tm: np.ndarray) -> LayerCache:
    """Run the recurrence over a time-major [T, B, in] sequence from zero state."""
    T, B, _ = seq_tm.shape
    hid = params.hidden_size
    w_zt = params.w.T  # [hidden + input, 4*hidden]

    z = np.empty((T, B, hid + params.input_size), dtype=np.float64)
    f = np.empty((T, B, hid), dtype=np.float64)
    i = np.empty((T, B, hid), dtype=np.float64)
    o = np.empty((T, B, hid), dtype=np.float64)
    candidate = np.empty((T, B, hid), dtype=np.float64)
    c = np.empty((T, B, hid), dtype=np.float64)
    tanh_c = np.empty((T, B, hid), dtype=np.float64)
    h = np.empty((T, B, hid), dtype=np.float64)

    h_prev = np.zeros((B, hid), dtype=np.float64)
    c_prev = np.zeros((B, hid), dtype=np.float64)
    for t in range(T):
        zt = z[t]
        zt[:, :hid] = h_prev
        zt[:, hid:] = seq_tm[t]
        a = zt @ w_zt + params.b
        f[t] = sigmoid(a[:, :hid])
        i[t] = sigmoid(a[:, hid : 2 * hid])
        candidate[t] = np.tanh(a[:, 2 * hid : 3 * hid])
        o[t] = sigmoid(a[:, 3 * hid :])
        c[t] = f[t] * c_prev + i[t] * candidate[t]
        tanh_c[t] = np.tanh(c[t])
        h[t] = o[t] * tanh_c[t]
        h_prev = h[t]
        c_prev = c[t]

    return LayerCache(z=z, f=f, i=i, o=o, candidate=candidate, c=c, tanh_c=tanh_c, h=h)


def lstm_layer_forward(
    params: LstmLayerParams, sequence, return_sequences: bool = True
) -> tuple[np.ndarray, LayerCache]:
    """Unroll one layer left to right from zero initial state.

    sequence is [T, in] or [B, T, in]; output is all hidden states when
    return_sequences is set, else the final hidden state only.
    """
    arr = np.asarray(sequence, dtype=np.float64)
    single = arr.ndim == 2
    if single:
        arr = arr[np.newaxis]
    if arr.ndim != 3 or arr.shape[2] != params.input_size:
        raise ShapeMismatchError(
            f"expected [B, T, {params.input_size}] sequence, got shape {arr.shape}"
        )
    if arr.shape[1] == 0:
        raise EmptySequenceError("sequence has zero timesteps")

    cache = _layer_forward(params, np.ascontiguousarray(arr.transpose(1, 0, 2)))
    if return_sequences:
        out = cache.h.transpose(1, 0, 2)
        return (out[0] if single else out), cache
    out = cache.h[-1]
    return (out[0] if single else out), cache


def dropout_apply(
    values, rate: float, mode: str = "train", rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: train mode zeroes with probability `rate` and scales
    survivors by 1/(1-rate); inference is the identity. Returns (output, mask)."""
    if not 0.0 <= rate < 1.0:
        raise BadRateError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "inference"):
        raise ValueError(f"mode must be 'train' or 'inference', got {mode!r}")
    arr = np.asarray(values, dtype=np.float64)
    if mode == "inference" or rate == 0.0:
        return arr, np.ones_like(arr)
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    mask = (rng.random(arr.shape) >= rate) / (1.0 - rate)
    return arr * mask, mask


def network_forward(
    params: NetworkParams,
    config: NetworkConfig,
    batch,
    mode: str = "inference",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, NetworkCache | None]:
    """Full stack on a [B, T, features] batch: one scalar prediction per sample.

    Train mode draws one dropout mask per layer (in layer order) from `rng`
    and returns the cache BPTT needs; inference returns (predictions, None)
    and is deterministic.
    """
    if mode not in ("train", "inference"):
        raise ValueError(f"mode must be 'train' or 'inference', got {mode!r}")
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != config.input_features:
        raise ShapeMismatchError(
            f"expected [B, T, {config.input_features}] batch, got shape {arr.shape}"
        )
    if arr.shape[1] == 0:
        raise EmptySequenceError("batch has zero timesteps")
    if len(params.layers) != len(config.layer_units):
        raise ShapeMismatchError(
            f"params have {len(params.layers)} layers, config names {len(config.layer_units)}"
        )
    train = mode == "train"
    if train and rng is None and any(r > 0.0 for r in config.dropout_rates):
        raise ValueError("train-mode forward with nonzero dropout needs an rng")

    B, T, _ = arr.shape
    x = np.ascontiguousarray(arr.transpose(1, 0, 2))  # time-major
    last = len(params.layers) - 1
    layer_caches: list[LayerCache] = []
    masks: list[np.ndarray | None] = []
    for idx, (layer, rate) in enumerate(zip(params.layers, config.dropout_rates)):
        cache = _layer_forward(layer, x)
        out = cache.h[-1] if idx == last else cache.h
        if train and rate > 0.0:
            out, mask = dropout_apply(out, rate, "train", rng)
        else:
            mask = None
        if train:
            layer_caches.append(cache)
        masks.append(mask)
        x = out

    final_hidden = x  # [B, hidden_last]
    predictions = (final_hidden @ params.dense.w + params.dense.b[0])[:, np.newaxis]
    if not train:
        return predictions, None
    net_cache = NetworkCache(
        batch_size=B,
        seq_len=T,
        layer_caches=layer_caches,
        dropout_masks=masks,
        final_hidden=final_hidden,
    )
    return predictions, net_cache


def _layer_backward(
    params: LstmLayerParams, cache: LayerCache, d_hidden: np.ndarray, grads: LstmLayerParams
) -> np.ndarray:
    """BPTT through one layer.

    d_hidden is [T, B, hidden]: the loss gradient flowing into each hidden
    output (zeros except the final step for a last-state-only consumer).
    Accumulates the layer's parameter gradients into the zeroed `grads` and
    returns the gradient w.r.t. the layer's input sequence.
    """
    T, B, hid = cache.h.shape
    in_size = params.input_size
    d_inputs = np.empty((T, B, in_size), dtype=np.float64)
    dh_next = np.zeros((B, hid), dtype=np.float64)
    dc_next = np.zeros((B, hid), dtype=np.float64)
    da = np.empty((B, 4 * hid), dtype=np.float64)

    for t in reversed(range(T)):
        f, i, o = cache.f[t], cache.i[t], cache.o[t]
        candidate, tanh_c = cache.candidate[t], cache.tanh_c[t]
        c_prev = cache.c[t - 1] if t > 0 else np.zeros((B, hid), dtype=np.float64)

        dh = d_hidden[t] + dh_next
        dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
        da[:, :hid] = dc * c_prev * f * (1.0 - f)
        da[:, hid : 2 * hid] = dc * candidate * i * (1.0 - i)
        da[:, 2 * hid : 3 * hid] = dc * i * (1.0 - candidate * candidate)
        da[:, 3 * hid :] = dh * tanh_c * o * (1.0 - o)

        grads.w += da.T @ cache.z[t]
        grads.b += da.sum(axis=0)
        dz = da @ params.w
        dh_next = dz[:, :hid]
        d_inputs[t] = dz[:, hid:]
        dc_next = dc * f

    return d_inputs


def network_backward(
    params: NetworkParams,
    config: NetworkConfig,
    cache: NetworkCache | None,
    d_predictions,
) -> NetworkParams:
    """Exact gradients of the batch loss w.r.t. every parameter.

    d_predictions is the loss gradient at the network output ([B, 1] or [B]),
    e.g. training.mse_grad; the cache must come from a train-mode forward on
    the same batch so the dropout masks are reused exactly.
    """
    if cache is None:
        raise StaleCacheError("backward needs the cache from a train-mode forward")
    if len(cache.layer_caches) != len(params.layers):
        raise StaleCacheError(
            f"cache has {len(cache.layer_caches)} layers, params have {len(params.layers)}"
        )
    d_pred = np.asarray(d_predictions, dtype=np.float64).reshape(-1)
    if d_pred.shape[0] != cache.batch_size:
        raise StaleCacheError(
            f"gradient batch {d_pred.shape[0]} does not match cache batch {cache.batch_size}"
        )

    grads = zeros_like_params(params)
    grads.dense.w[...] = cache.final_hidden.T @ d_pred
    grads.dense.b[0] = d_pred.sum()
    d_out = np.outer(d_pred, params.dense.w)  # [B, hidden_last]
    if cache.dropout_masks[-1] is not None:
        d_out = d_out * cache.dropout_masks[-1]

    n_layers = len(params.layers)
    d_seq: np.ndarray | None = None
    for idx in reversed(range(n_layers)):
        lc = cache.layer_caches[idx]
        if idx == n_layers - 1:
            d_hidden = np.zeros_like(lc.h)
            d_hidden[-1] = d_out
        else:
            d_hidden = d_seq
        d_inputs = _layer_backward(params.layers[idx], lc, d_hidden, grads.layers[idx])
        if idx > 0:
            mask = cache.dropout_masks[idx - 1]
            d_seq = d_inputs if mask is None else d_inputs * mask

    return grads

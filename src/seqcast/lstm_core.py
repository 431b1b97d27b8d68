"""Stacked LSTM with inverted dropout and a one-unit dense head.

Gate math over z_t = [h_prev | x_t]:

    f_t = sigmoid(W_f z_t + b_f)        forget gate
    i_t = sigmoid(W_i z_t + b_i)        input gate
    c~_t = tanh(W_c z_t + b_c)          candidate cell state
    c_t = f_t * c_prev + i_t * c~_t
    o_t = sigmoid(W_o z_t + b_o)        output gate
    h_t = o_t * tanh(c_t)

Backward is exact backpropagation through time over these equations, all in
float64; training.finite_diff_gradcheck checks it by central differences.

Parameter layout, known only to this module: every trainable scalar lives in
NetworkParams.flat. Each layer holds a packed weight w [4*hidden, hidden +
input] (rows W_f, W_i, W_c, W_o; columns [h_prev | x_t]) and bias b
[4*hidden] in the same row order, so one GEMM per step computes all four
gates. Layers follow each other in flat (w then b), then the dense head's w
and b. Every array is a view into flat, gradients share the layout, and
param_blocks names the per-gate row views in flat order.

Activation layout: feature-major, [T, features, B], so each gate of the step
GEMM w @ z_t -> [4*hidden, B] is a contiguous [hidden, B] row block and the
gate math runs as in-place ufuncs; _step is the one cell step of both modes.
A train-mode forward stages x into z [T+1, hidden+input, B] once per layer
(z[t] = [h_{t-1} | x_t]) and keeps g [T, 4*hidden, B] = [f, i, tanh c_t, o]
and c [T+1, 2*hidden, B] with c[t] = [c_{t-1} | c~_t]: 7*hidden+input floats
a step. As c[t] lines up with [f; i], the cell update is one multiply and one
add of its halves. Inference keeps no BPTT cache and no sequence: it steps
the whole stack a timestep at a time over one state column [h_top; ...; h_0;
x_t] whose rows [h_l; h_{l-1}] (h_{-1} = x_t) are layer l's z; with one c
per layer and one gate buffer, nothing it allocates has a T dimension. Its
biases are broadcast views, as a [4*hidden, B] copy outweighs the column at
B = 256; training repeats them, as at B = 32 a broadcast add is ~3x slower.

Backward first overwrites the spent cache, over time blocks, with the
gate-derivative factors that do not depend on the incoming gradient:
g[t] = [F, I, C, Bo] and c[t] = [f_{t+1} | A_t] (see _gate_factors). The
time loop then keeps only the recurrence, six NumPy calls a step: dh += the
gradient from above; dc_t = f_{t+1} dc_{t+1} + A_t dh_t (a multiply and an
add); dc copied beside itself; da_t = [dc; dc; dc; dh] * g[t]; dh = W_h^T da.
dW = G Z^T and dX = W_x^T G then take one GEMM each over gate-major copies
G [4*hidden, T*B] of da and Z [hidden+input, T*B] of z.

Numerics: the forward is bitwise that of the equations above. The backward
multiplies each gate gradient's factors in another order than left to right
(dc * ((1 - f) * (c_{t-1} * f)) for da_f): its gradients differ by rounding.

Buffers: a train-mode forward takes z, g, c and the dropout masks, and
backward its scratch, from a module-private pool of float64 buffers keyed by
shape. Once the cache is consumed, network_backward gives them back and
drops every array the cache held (a second backward raises
StaleCacheError), so a steady training step allocates little beyond the
gradients it returns. Recycled buffers are not cleared: the kernel writes
every element before it reads it. The pool keeps, per shape, as many
buffers as were live at once, for the life of the process (at the paper
config, B = 32, T = 100: about 85 MB, plus 37 MB for a short last batch of
14). Inference never uses it: concurrent inference calls share nothing but
the params, which they only read, so they may run on threads. Taking and
giving back are single list operations, so threads never share a buffer.

Layer stacking: every layer but the last feeds its hidden states to the
next; the last emits its final hidden state, which the dense head maps to
one scalar. Inverted dropout (survivors scaled by 1/(1-rate) in training,
identity at inference) follows each layer's output. network_forward draws
each mask from its rng, in place and in layer order: batch-major,
[T, B, hidden] per layer and [B, hidden] for the last state. The next layer
applies a mask as it stages its input into z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import make_rng


class InvalidConfigError(ValueError):
    """Network configuration violates its invariants."""


class ShapeMismatchError(ValueError):
    """Array shapes inconsistent with the parameters or config, or with no timestep."""


class StaleCacheError(ValueError):
    """Backward pass got a cache that does not match the forward call."""


DEFAULT_LAYER_UNITS = (50, 60, 80, 120)
DEFAULT_DROPOUT_RATES = (0.2, 0.3, 0.4, 0.5)


# Recycled BPTT buffers by shape (see the module docstring). A buffer in
# the pool belongs to no one: _take hands it to one caller, and only
# network_backward gives buffers back, once their cache is consumed.
_POOL: dict[tuple[int, ...], list[np.ndarray]] = {}


def _take(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 buffer of `shape`: a recycled one when the pool has it."""
    try:
        return _POOL[shape].pop()
    except (KeyError, IndexError):
        return np.empty(shape)


def _recycle(buffers) -> None:
    """Give buffers back to the pool; no reference to them may remain in use."""
    for buf in buffers:
        _POOL.setdefault(buf.shape, []).append(buf)


def _block_steps(hid: int, T: int, B: int) -> int:
    """Steps per _gate_factors block: as many as keep its 7 slabs within L2."""
    return max(1, min(T, (1 << 14) // (hid * B)))


def _sigmoid_(x: np.ndarray) -> None:
    """In place 1 / (1 + exp(-x)). exp overflows to inf below x = -709, which
    gives exactly 0; callers silence that overflow with np.errstate."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)


@dataclass(frozen=True)
class NetworkConfig:
    """Stack description: one (units, dropout rate) pair per layer."""

    layer_units: tuple[int, ...] = DEFAULT_LAYER_UNITS
    dropout_rates: tuple[float, ...] = DEFAULT_DROPOUT_RATES
    input_features: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        units = self.layer_units  # from a checkpoint file too: refused, never truncated
        if any(isinstance(u, bool) or not isinstance(u, (int, np.integer)) for u in units):
            raise InvalidConfigError(f"layer units must be integers, got {units}")
        object.__setattr__(self, "layer_units", tuple(int(u) for u in units))
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
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")


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
    """Feature-major forward intermediates one layer keeps for BPTT."""

    z: np.ndarray  # [T + 1, hidden + input, B]: z[t] = [h_{t-1} | x_t]
    g: np.ndarray  # [T, 4 * hidden, B]: f, i, tanh(c_t), o; gate gradients after backward
    c: np.ndarray  # [T + 1, 2 * hidden, B]: c[t] = [c_{t-1} | c~_t], c_{-1} = 0


@dataclass
class NetworkCache:
    """Per-layer caches plus dropout masks; retained only for training."""

    layer_caches: list[LayerCache]
    dropout_masks: list[np.ndarray | None]  # mask on each layer's output, None = identity
    final_hidden: np.ndarray | None  # [B, hidden_last] after dropout; input to the dense head
    consumed: bool = False  # set by network_backward, which recycles the buffers


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


def _param_sizes(params: NetworkParams) -> list[tuple[int, int]]:
    return [(layer.hidden_size, layer.input_size) for layer in params.layers]


def zeros_params(config: NetworkConfig) -> NetworkParams:
    return _bind(np.zeros(count_params(config), dtype=np.float64), _layer_sizes(config))


def zeros_like_params(params: NetworkParams) -> NetworkParams:
    return _bind(np.zeros_like(params.flat), _param_sizes(params))


def copy_params(params: NetworkParams) -> NetworkParams:
    """Same layout and values, in a buffer of its own."""
    return _bind(params.flat.copy(), _param_sizes(params))


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


def _step(w, bias, z_t, c_t, g_t, z_next, c_next, fc_ic) -> None:
    """One cell step from z_t = [h_prev | x_t] and c_t = [c_prev | -]: writes g_t =
    [f, i, tanh c_t, o], c~ into c_t, c_t into c_next[:hidden] and h_t into
    z_next[:hidden]. fc_ic [2*hidden, B], which may be c_next, takes [f c_prev | i c~]."""
    hid = len(c_t) // 2
    np.matmul(w, z_t, out=g_t)
    g_t += bias
    tc, o = g_t[2 * hid : 3 * hid], g_t[3 * hid :]
    _sigmoid_(g_t[: 2 * hid])  # f and i
    np.tanh(tc, out=c_t[hid:])  # c~ beside c_prev: c_t = [c_prev | c~]
    _sigmoid_(o)
    np.multiply(g_t[: 2 * hid], c_t, out=fc_ic)
    np.add(fc_ic[:hid], fc_ic[hid:], out=c_next[:hid])
    np.tanh(c_next[:hid], out=tc)  # tanh(c_t) over the spent c~ pre-activation
    np.multiply(o, tc, out=z_next[:hid])


def _layer_forward(params: LstmLayerParams, x: np.ndarray, mask: np.ndarray | None) -> LayerCache:
    """Train-mode recurrence over a feature-major [T, in, B] input from zero state.

    Stages x, times `mask` (its batch-major [T, B, in] dropout) if given, into
    pooled z and returns the BPTT cache; the hidden sequence is z[1:, :hidden].
    """
    T, _, B = x.shape
    hid = params.hidden_size
    z = _take((T + 1, hid + params.input_size, B))
    c = _take((T + 1, 2 * hid, B))
    g = _take((T, 4 * hid, B))
    z[0, :hid] = c[0, :hid] = 0.0
    if mask is None:
        z[:T, hid:] = x
    else:
        np.multiply(x, mask.transpose(0, 2, 1), out=z[:T, hid:])
    bias = np.repeat(params.b[:, np.newaxis], B, axis=1)  # a broadcast add is ~3x slower
    scratch = np.empty((2 * hid, B))  # fc_ic; c[t + 1] in its place is 2-3% slower
    with np.errstate(over="ignore"):
        for t in range(T):
            _step(params.w, bias, z[t], c[t], g[t], z[t + 1], c[t + 1], scratch)
    return LayerCache(z=z, g=g, c=c)


def _infer(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """The stack's final hidden state [hidden_last, B]. The state is one column
    [h_top; ...; h_0; x_t]: layer l steps in place on its rows [h_l; h_{l-1}] and one c."""
    T, inp, B = x.shape
    units = [layer.hidden_size for layer in params.layers]
    col = np.zeros((sum(units) + inp, B))
    gates = np.empty((4 * max(units), B))  # a prefix each
    stack, row = [], len(col) - inp  # row: where the layer's h starts, bottom up
    for layer, hid in zip(params.layers, units):
        row -= hid
        z, c = col[row : row + hid + layer.input_size], np.zeros((2 * hid, B))
        stack.append((layer.w, layer.b[:, np.newaxis], z, c, gates[: 4 * hid]))
    with np.errstate(over="ignore"):
        for t in range(T):
            col[-inp:] = x[t]  # staged once: only layer 0 reads it
            for w, bias, z, c, g in stack:
                _step(w, bias, z, c, g, z, c, c)  # h_l is overwritten after the GEMM reads it
    return col[: units[-1]]


def network_forward(
    params: NetworkParams,
    config: NetworkConfig,
    batch,
    mode: str,
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
        raise ShapeMismatchError("batch has zero timesteps")
    if len(params.layers) != len(config.layer_units):
        raise ShapeMismatchError(
            f"params have {len(params.layers)} layers, config names {len(config.layer_units)}"
        )
    x = arr.transpose(1, 2, 0)  # feature-major [T, features, B]
    if mode == "inference":
        return (_infer(params, x).T @ params.dense.w + params.dense.b[0])[:, np.newaxis], None
    if rng is None and any(r > 0.0 for r in config.dropout_rates):
        raise ValueError("train-mode forward with nonzero dropout needs an rng")

    B, T, _ = arr.shape
    layer_caches, masks, mask = [], [], None
    for layer, rate in zip(params.layers, config.dropout_rates):
        cache = _layer_forward(layer, x, mask)
        hid = layer.hidden_size
        x = cache.z[1:, :hid]  # the hidden sequence [T, hidden, B]
        mask = None
        if rate > 0.0:  # batch-major [T, B, hidden], or [B, hidden] on the last state
            mask = _take((B, hid) if layer is params.layers[-1] else (T, B, hid))
            rng.random(out=mask)
            np.greater_equal(mask, rate, out=mask)
            np.divide(mask, 1.0 - rate, out=mask)
        layer_caches.append(cache)
        masks.append(mask)

    final_hidden = x[-1].T if mask is None else x[-1].T * mask  # [B, hidden_last]
    predictions = (final_hidden @ params.dense.w + params.dense.b[0])[:, np.newaxis]
    return predictions, NetworkCache(layer_caches, masks, final_hidden)


def _gate_factors(g: np.ndarray, c: np.ndarray, work: np.ndarray, block: int) -> None:
    """Turn a layer's cache, g[t] = [f, i, tanh c, o] and c[t] = [c_{t-1} | c~], into
    g[t] = [F, I, C, Bo] and c[t] = [f_{t+1} | A] (f_T = 0): F = c_{t-1} f (1-f),
    I = c~ i (1-i), C = i (1-c~^2), Bo = tanh c o (1-o), A = o (1-tanh^2 c). Each
    block is gathered gate-major into `work`: over a strided view, NumPy buffers."""
    T, rows, B = g.shape
    hid = rows // 4
    for t0 in range(0, T, block):
        n = min(block, T - t0)
        gv = g[t0 : t0 + n].reshape(n, 4, hid, B).transpose(1, 0, 2, 3)
        cv = c[t0 : t0 + n].reshape(n, 2, hid, B).transpose(1, 0, 2, 3)
        s = work[: 7 * n * hid * B].reshape(7, n, hid, B)
        np.copyto(s[:4], gv)
        np.copyto(s[4:6], cv)
        f, i, tc, o, _, cand, a = s
        np.square(tc, out=a)
        np.subtract(1.0, a, out=a)
        a *= o
        tc *= o
        np.subtract(1.0, o, out=o)
        o *= tc  # Bo; tc's slot is free from here on
        np.square(cand, out=tc)
        np.subtract(1.0, tc, out=tc)
        tc *= i  # C
        np.copyto(cv[1], a)
        skip = 1 if t0 == 0 else 0  # f_0 is unused: c_{-1} is the zero state
        np.copyto(c[t0 + skip - 1 : t0 + n - 1, :hid], f[skip:])
        s[4:6] *= s[:2]
        np.subtract(1.0, s[:2], out=s[:2])
        s[:2] *= s[4:6]  # F, I
        np.copyto(gv, s[:4])
    c[T - 1, :hid] = 0.0


def _layer_backward(
    params: LstmLayerParams,
    cache: LayerCache,
    d_hidden: np.ndarray,
    grads: LstmLayerParams,
    work: np.ndarray,
    d_inputs: np.ndarray | None,
) -> np.ndarray | None:
    """BPTT through one layer, overwriting cache.g with the gate gradients.

    d_hidden is the loss gradient into the layer's hidden outputs: [T, hidden,
    B] from a whole-sequence consumer, or [hidden, B] into the final step.
    Writes the parameter gradients into `grads`; `work` is flat scratch sized
    by network_backward. Given `d_inputs`, flat scratch of input * T * B floats
    apart from `work`, returns the input gradient as a [T, in, B] view of it,
    else None. d_hidden may live in d_inputs: it is read before dX is written.
    """
    z, g, c = cache.z, cache.g, cache.c
    T, rows, B = g.shape
    width = z.shape[1]
    hid = params.hidden_size
    _gate_factors(g, c, work, _block_steps(hid, T, B))
    w_h = params.w[:, :hid].T  # [hidden, 4*hidden]: recurrent part of dz = w.T @ da
    sequence = d_hidden.ndim == 3
    # [dc, dc, dc, dh]: da_t = dcdh * g[t], and [dc | dh] lines up with c[t]
    dcdh = work[: 4 * hid * B].reshape(4 * hid, B)
    prod = work[4 * hid * B : 6 * hid * B].reshape(2 * hid, B)
    dc_gates, dc, dh = dcdh[: 2 * hid].reshape(2, hid, B), dcdh[2 * hid : 3 * hid], dcdh[3 * hid :]
    dc[...] = 0.0
    dh[...] = 0.0 if sequence else d_hidden

    for t in reversed(range(T)):
        gt = g[t]
        if sequence:
            dh += d_hidden[t]
        # dc_t = f_{t+1} dc_{t+1} + A_t dh_t
        np.multiply(dcdh[2 * hid :], c[t], out=prod)
        np.add(prod[:hid], prod[hid:], out=dc)
        np.copyto(dc_gates, dc)
        np.multiply(dcdh, gt, out=gt)  # da_t = [dc F, dc I, dc C, dh Bo]
        if t:
            np.matmul(w_h, gt, out=dh)

    # dW, db and dX over gate-major copies G of da and Z of z, one call each
    cols = T * B
    gm = work[: rows * cols].reshape(rows, cols)
    zm = work[rows * cols : (rows + width) * cols].reshape(width, cols)
    np.copyto(gm.reshape(rows, T, B), g.transpose(1, 0, 2))
    np.copyto(zm.reshape(width, T, B), z[:T].transpose(1, 0, 2))
    np.matmul(gm, zm.T, out=grads.w)
    np.sum(gm, axis=1, out=grads.b)
    if d_inputs is None:
        return None
    dx = d_inputs[: (width - hid) * cols].reshape(width - hid, cols)
    np.matmul(params.w[:, hid:].T, gm, out=dx)
    return dx.reshape(width - hid, T, B).transpose(1, 0, 2)


def network_backward(
    params: NetworkParams,
    config: NetworkConfig,
    cache: NetworkCache | None,
    d_predictions,
) -> NetworkParams:
    """Exact gradients of the batch loss w.r.t. every parameter.

    d_predictions is the loss gradient at the network output ([B, 1] or [B]),
    e.g. training.mse_grad; the cache must come from a train-mode forward on
    the same batch so the dropout masks are reused exactly. The cache is
    consumed: its buffers go back to the pool, it keeps no arrays, and a
    second backward on it raises StaleCacheError.
    """
    if cache is None:
        raise StaleCacheError("backward needs the cache from a train-mode forward")
    if cache.consumed:
        raise StaleCacheError("cache already used by a backward pass, which recycled its buffers")
    if len(cache.layer_caches) != len(params.layers):
        raise StaleCacheError(
            f"cache has {len(cache.layer_caches)} layers, params have {len(params.layers)}"
        )
    T, _, B = cache.layer_caches[0].g.shape
    d_pred = np.asarray(d_predictions, dtype=np.float64).reshape(-1)
    if d_pred.shape[0] != B:
        raise StaleCacheError(f"gradient batch {d_pred.shape[0]} does not match cache batch {B}")
    cache.consumed = True

    grads = zeros_like_params(params)
    grads.dense.w[...] = cache.final_hidden.T @ d_pred
    grads.dense.b[0] = d_pred.sum()
    d_out = np.outer(d_pred, params.dense.w)  # [B, hidden_last]
    if cache.dropout_masks[-1] is not None:
        d_out *= cache.dropout_masks[-1]

    d_hidden = d_out.T  # feature-major from here on
    sizes = _param_sizes(params)
    span = max(max((5 * h + i) * T, 7 * h * _block_steps(h, T, B)) for h, i in sizes)
    work = _take((span * B,))  # G and Z after the loop, or one _gate_factors block
    d_inputs = _take((max((inp for _, inp in sizes[1:]), default=0) * T * B,))
    for idx in reversed(range(len(params.layers))):
        d_hidden = _layer_backward(
            params.layers[idx],
            cache.layer_caches[idx],
            d_hidden,
            grads.layers[idx],
            work,
            d_inputs if idx else None,
        )
        mask = cache.dropout_masks[idx - 1] if idx else None
        if mask is not None:
            d_hidden *= mask.transpose(0, 2, 1)

    _recycle([work, d_inputs])
    _recycle(a for lc in cache.layer_caches for a in (lc.z, lc.g, lc.c))
    _recycle(m for m in cache.dropout_masks if m is not None)
    cache.layer_caches, cache.dropout_masks, cache.final_hidden = [], [], None
    return grads

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

Activation layout: the recurrence runs feature-major, [T, features, B].
Step t computes all four gates with one GEMM, w @ z_t -> [4*hidden, B], so
each gate is a contiguous [hidden, B] row block and the gate math runs as
in-place ufuncs on preallocated buffers. A train-mode forward keeps, per
layer, z [T+1, hidden+input, B] (z[t] = [h_{t-1} | x_t], so z[t+1, :hidden]
is h_t), the activated gates g [T, 4*hidden, B], the cell states
c [T+1, hidden, B] (c[0] = 0) and tanh(c_t). An inference forward keeps no
BPTT cache: two-deep rolling z and c buffers, one gate buffer, and only
the hidden sequence the next layer reads.

Backward keeps only the recurrent work in its time loop: the gate
gradients, written over the cached gates, and dh = W_h^T da. After the
loop it copies da and z into gate-major G [4*hidden, T*B] and
Z [hidden+input, T*B], and takes dW = G Z^T and dX = W_x^T G as one GEMM
each and db as the row sums of G.

Buffer lifetime: a train-mode forward takes z, g, c and tanh_c from a
module-private pool of float64 buffers keyed by shape, and backward takes
its scratch from it too: one flat buffer for the loop temporaries and
G and Z, and one for the input gradient. network_backward then gives the
cache's buffers and its scratch back to the pool and drops every array the
cache held, so a steady training step allocates almost nothing. The cache
is single use: a consumed cache keeps only batch_size, seq_len and the
consumed flag, and a second backward on it raises StaleCacheError.
Recycled buffers are not cleared, so the kernel writes every element
before it reads it. A forward whose cache is dropped without a backward
leaves its buffers to the garbage collector. Inference never uses the pool.

The pool keeps, per shape, as many buffers as were live at once, for the
life of the process: after training at the paper config (B = 32, T = 100)
about 80 MB for the full batches plus 35 MB for a short last batch of 14.
Taking and giving back are single list operations, so threads never share
a buffer.

Layer stacking: every layer but the last feeds its full hidden sequence
to the next layer; the last layer emits only its final hidden state,
which the dense head maps to one scalar. Dropout (inverted: survivors
scaled by 1/(1-rate) at train time, identity at inference) is applied
to each layer's output, including the last hidden state before the head.
network_forward draws each mask itself, from the rng it is given:
batch-major, [T, B, hidden] per layer and [B, hidden] for the last
state, in layer order. NetworkConfig has already checked the rates.
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
    """Feature-major forward intermediates one layer keeps for BPTT."""

    z: np.ndarray  # [T + 1, hidden + input, B]: z[t] = [h_{t-1} | x_t]
    g: np.ndarray  # [T, 4 * hidden, B]: gates f, i, c~, o; gate gradients after backward
    c: np.ndarray  # [T + 1, hidden, B]: c[t + 1] = c_t, c[0] = 0
    tanh_c: np.ndarray  # [T, hidden, B]


@dataclass
class NetworkCache:
    """Per-layer caches plus dropout masks; retained only for training."""

    batch_size: int
    seq_len: int
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


def _layer_forward(
    params: LstmLayerParams, x: np.ndarray, keep: bool, sequence: bool
) -> tuple[np.ndarray, LayerCache | None]:
    """Run the recurrence over a feature-major [T, in, B] input from zero state.

    Returns the hidden sequence [T, hidden, B] when `sequence` is set, else
    the final hidden state [hidden, B]; and the BPTT cache when `keep` is
    set, else None, with only rolling buffers allocated.
    """
    T, _, B = x.shape
    hid = params.hidden_size
    depth = T + 1 if keep else 2  # z and c slots; step t reads slot t, writes t + 1
    alloc = _take if keep else np.empty
    z = alloc((depth, hid + params.input_size, B))
    c = alloc((depth, hid, B))
    g = alloc((T if keep else 1, 4 * hid, B))
    tanh_c = alloc((len(g), hid, B))
    z[0, :hid] = 0.0
    c[0] = 0.0
    h = np.empty((T, hid, B)) if sequence and not keep else None
    bias = np.repeat(params.b[:, np.newaxis], B, axis=1)  # a broadcast add is ~3x slower
    ic = np.empty((hid, B))

    with np.errstate(over="ignore"):
        for t in range(T):
            now, nxt, k = t % depth, (t + 1) % depth, t % len(g)
            zt, gt, tc, h_t = z[now], g[k], tanh_c[k], z[nxt, :hid]
            zt[hid:] = x[t]
            np.matmul(params.w, zt, out=gt)
            gt += bias
            f, i, cand, o = gt[:hid], gt[hid : 2 * hid], gt[2 * hid : 3 * hid], gt[3 * hid :]
            _sigmoid_(gt[: 2 * hid])  # f and i
            np.tanh(cand, out=cand)
            _sigmoid_(o)
            np.multiply(f, c[now], out=c[nxt])
            np.multiply(i, cand, out=ic)
            c[nxt] += ic
            np.tanh(c[nxt], out=tc)
            np.multiply(o, tc, out=h_t)
            if h is not None:
                h[t] = h_t

    if keep:
        out = z[1:, :hid] if sequence else z[T, :hid]
        return out, LayerCache(z=z, g=g, c=c, tanh_c=tanh_c)
    return (h if sequence else z[T % 2, :hid]), None


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
    x = arr.transpose(1, 2, 0)  # feature-major [T, features, B]
    last = len(params.layers) - 1
    layer_caches: list[LayerCache] = []
    masks: list[np.ndarray | None] = []
    for idx, (layer, rate) in enumerate(zip(params.layers, config.dropout_rates)):
        h, cache = _layer_forward(layer, x, keep=train, sequence=idx != last)
        out = h.swapaxes(-1, -2)  # batch-major view: [T, B, hidden] or [B, hidden]
        mask = None
        if train and rate > 0.0:
            mask = (rng.random(out.shape) >= rate) / (1.0 - rate)
            out = out * mask
        if train:
            layer_caches.append(cache)
        masks.append(mask)
        x = out.swapaxes(-1, -2)

    final_hidden = out  # [B, hidden_last]
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
    params: LstmLayerParams,
    cache: LayerCache,
    d_hidden: np.ndarray,
    grads: LstmLayerParams,
    work: np.ndarray,
    d_inputs: np.ndarray | None,
) -> np.ndarray | None:
    """BPTT through one layer, overwriting cache.g with the gate gradients.

    d_hidden is the loss gradient flowing into the layer's hidden outputs:
    [T, hidden, B] for a whole-sequence consumer, or [hidden, B] into the
    final step only. Writes the layer's parameter gradients into `grads`.
    `work` is flat scratch of at least (5*hidden + input) * T * B floats.
    When `d_inputs`, flat scratch of at least input * T * B floats apart
    from `work`, is given, returns the gradient w.r.t. the input sequence
    as a [T, in, B] view of it; else None. d_hidden may live in d_inputs:
    the loop reads it before dX is written.
    """
    z, g, c, tanh_c = cache.z, cache.g, cache.c, cache.tanh_c
    T, rows, B = g.shape
    width = z.shape[1]
    hid = params.hidden_size
    w_h = params.w[:, :hid].T  # [hidden, 4*hidden]: recurrent part of dz = w.T @ da
    sequence = d_hidden.ndim == 3
    dh, dc, t1, t2, t3 = work[: 5 * hid * B].reshape(5, hid, B)
    dh[...] = 0.0 if sequence else d_hidden
    dc[...] = 0.0

    for t in reversed(range(T)):
        gt, tc = g[t], tanh_c[t]
        f, i, cand, o = gt[:hid], gt[hid : 2 * hid], gt[2 * hid : 3 * hid], gt[3 * hid :]
        if sequence:
            dh += d_hidden[t]
        # dc = dh * o * (1 - tanh_c^2) + dc_next
        np.multiply(tc, tc, out=t1)
        np.subtract(1.0, t1, out=t1)
        np.multiply(dh, o, out=t2)
        t2 *= t1
        dc += t2
        # da_o = dh * tanh_c * o * (1 - o)
        np.multiply(dh, tc, out=t1)
        t1 *= o
        np.subtract(1.0, o, out=o)
        o *= t1
        # da_f = dc * c_prev * f * (1 - f); da_i = dc * c~ * i * (1 - i);
        # da_c = dc * i * (1 - c~^2); then dc_next = dc * f
        np.multiply(dc, c[t], out=t1)
        t1 *= f
        np.multiply(dc, cand, out=t2)
        t2 *= i
        np.multiply(dc, i, out=t3)
        dc *= f
        np.subtract(1.0, f, out=f)
        f *= t1
        np.subtract(1.0, i, out=i)
        i *= t2
        np.multiply(cand, cand, out=cand)
        np.subtract(1.0, cand, out=cand)
        cand *= t3
        # gt now holds da_t
        if t:
            np.matmul(w_h, gt, out=dh)

    # Everything left is time-independent: one whole-layer product each over
    # gate-major copies G [4*hidden, T*B] of da and Z [hidden+input, T*B] of z.
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
    d_pred = np.asarray(d_predictions, dtype=np.float64).reshape(-1)
    if d_pred.shape[0] != cache.batch_size:
        raise StaleCacheError(
            f"gradient batch {d_pred.shape[0]} does not match cache batch {cache.batch_size}"
        )
    cache.consumed = True

    grads = zeros_like_params(params)
    grads.dense.w[...] = cache.final_hidden.T @ d_pred
    grads.dense.b[0] = d_pred.sum()
    d_out = np.outer(d_pred, params.dense.w)  # [B, hidden_last]
    if cache.dropout_masks[-1] is not None:
        d_out *= cache.dropout_masks[-1]

    d_hidden = d_out.T  # feature-major from here on
    sizes = _param_sizes(params)
    cells = cache.seq_len * cache.batch_size
    work = _take((max(5 * hid + inp for hid, inp in sizes) * cells,))
    d_inputs = _take((max((inp for _, inp in sizes[1:]), default=0) * cells,))
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
    _recycle(a for lc in cache.layer_caches for a in (lc.z, lc.g, lc.c, lc.tanh_c))
    cache.layer_caches, cache.dropout_masks, cache.final_hidden = [], [], None
    return grads

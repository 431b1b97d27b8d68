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
gate math runs as in-place ufuncs. _steps is the one recurrence kernel of both
modes: a cell step is 15 NumPy calls over views sliced before the loop, as at
small widths a step costs per call, not per FLOP. A train-mode forward stages x into
z [T+1, hidden+input, B] (z[t] = [h_{t-1} | x_t]) and keeps g [T, 4*hidden, B] = [f, i,
tanh c_t, o] and c [T+1, 2*hidden, B] with c[t] = [c_{t-1} | c~_t]: 7*hidden+input floats
a step. As c[t] lines up with [f; i], the cell update is one multiply and one add of its
halves. Inference keeps no BPTT cache and no sequence: it steps the whole stack a timestep at a
time over one state column [h_top; ...; h_0; x_t] whose rows [h_l; h_{l-1}]
(h_{-1} = x_t) are layer l's z; with one c per layer and one gate buffer,
nothing it allocates has a T dimension. Its biases are broadcast views, as a
[4*hidden, B] copy outweighs the column at inference's chunk size; training
tiles them into its frame, as at its batch sizes a broadcast add is slower.

Backward first overwrites the spent cache, over time blocks, with the
gate-derivative factors that do not depend on the incoming gradient:
g[t] = [F, I, C, Bo] and c[t] = [f_{t+1} | A_t] (see _gate_factors). The
time loop then keeps only the recurrence, six NumPy calls a step: dh += the
gradient from above; dc_t = f_{t+1} dc_{t+1} + A_t dh_t (a multiply and an
add); dc copied beside itself; da_t = [dc; dc; dc; dh] * g[t]; dh = W_h^T da.
dW = G Z^T and dX = W_x^T G then run as GEMMs over gate-major copies G [4*hidden, T*B]
of da and Z [hidden+input, T*B] of z. From 50 units up, a layer makes the copies, then dW
and db, in parts that write disjoint rows of the frame and of the gradients, dX in the first
product; below, one part does all. _fork runs such parts, and inference's chunks of
_INFER_CHUNK windows, on the caller and on the process's one kept worker thread, if _worker
gives one, each taking the next (a fork-join); dropout on dX follows the join. Given that
worker and two layers or more, the top layer's factors and loop form one part and every
lower layer's factors, top down, the other; the layers below then skip theirs. The parts
depend on the width alone and the chunks on B alone, so where they run changes no byte.

Numerics: the forward is bitwise that of the equations above. The backward
multiplies each gate gradient's factors in another order than left to right
(dc * ((1 - f) * (c_{t-1} * f)) for da_f): its gradients differ by rounding.

Buffers: a train-mode forward runs in a frame, one per (layer sizes, which dropout rates
are > 0, T, B), which it takes from a module-private pool or builds when the pool has none.
A frame holds every layer's z, g and c, its bias tile and fc_ic scratch, the dropout masks
and backward's scratch (work, and d_inputs for dX). Where the frame's backward may get the
worker, the lower layers' _gate_factors blocks lie in work past the top layer's
7*hidden*block*B floats, so the two parts share no scratch. It also holds every view of them
the kernels read, sliced once when it is built: _stage's blocks of cell steps, _gate_factors'
blocks, the BPTT loop's steps and the dX steps that feed the layer below, so a batch slices
nothing a batch before it sliced. network_forward returns a fresh NetworkCache handle on the frame;
network_backward detaches the frame and gives it back (a second backward on the handle
raises StaleCacheError), so a steady training step allocates little beyond the gradients it
returns. Recycled frames are not cleared: the kernels write every element before they read
it. The pool keeps, per key, as many frames as were live at once, with their view objects,
for the life of the process. Inference never uses it: concurrent inference calls and chunks
share nothing but the params, which they only read, so they may run on threads. Taking and
giving back are single list operations, so threads never share a frame.

Layer stacking: every layer but the last feeds its hidden states to the
next; the last emits its final hidden state, which the dense head maps to
one scalar. Inverted dropout (survivors scaled by 1/(1-rate) in training,
identity at inference) follows each layer's output. A train-mode network_forward first draws
every mask from its rng, in place and in layer order: batch-major, [T, B, hidden] per layer
and [B, hidden] for the last state; a layer applies the mask below as it stages its input into
z. _stage then runs layers by blocks of time: one stage of every layer over all T, or, given
the kept worker, two stages on two threads over _PIPE_STEPS-step blocks, cut where the
heavier side's sum of 4H(H+I) is least (layers 0-2 | 3 in the paper's stack), the stage above
stepping block k once the stage below has written it (a wavefront). Each cell step makes the
same NumPy calls on the same data, staging is elementwise and the masks are drawn first, so
neither the threads nor the blocks change a byte.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .rng import make_rng


class InvalidConfigError(ValueError):
    """Network configuration violates its invariants."""


class ShapeMismatchError(ValueError):
    """Array shapes inconsistent with the parameters or config, or with no window or timestep."""


class StaleCacheError(ValueError):
    """Backward pass got a cache that does not match the forward call."""


DEFAULT_LAYER_UNITS = (50, 60, 80, 120)
DEFAULT_DROPOUT_RATES = (0.2, 0.3, 0.4, 0.5)


# Training frames by (layer sizes, which dropout rates are > 0, T, B) (see the
# module docstring). A frame in the pool belongs to no one: network_forward hands
# it to one cache, and only network_backward gives it back, once that cache is consumed.
_POOL: dict[tuple, list[_Frame]] = {}


# 1.0, read-only: a ufunc converts a Python float operand each call, as slowly as it adds
_ONE = np.broadcast_to(1.0, ())

# One worker, the count measured (an affinity mask does not show a container's CPU quota),
# and none below 50 units, where a layer's work is mostly per-call overhead in the GIL. A frame
# applies both work gates: the backward's multiply-adds (4H(H+I)*T*B summed over layers) against
# what the worker costs, and a two-stage forward's lighter stage's (4H(H+I)*B a step).
_THREADS_MIN_UNITS, _THREADS_MIN_WORK = 50, 4 * 10**7
_PIPE_STEPS, _PIPE_MIN_WORK = 4, 10**6  # _PIPE_STEPS: the two-stage forward's time block

# Windows per inference chunk, on either thread: one size for both keeps the predictions
# bitwise equal on any BLAS kernel. Two chunks at once peak below one of twice the size, and
# 120 gave the predictions of 256-window chunks on the OpenBLAS kernels tried; 116 and 60 did not.
_INFER_CHUNK = 120


@functools.cache
def _worker():
    """The process's one worker, decided on the first call: a one-thread ThreadPoolExecutor if
    the usable cores are at least twice the BLAS threads that OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, names (neither: BLAS threads on every core); else None."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            affinity = getattr(os, "sched_getaffinity", None)  # not on macOS or Windows
            cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
            if cpus < 2 * blas:
                break
            # imported here, not at the top, where every start-up would pay for it
            from concurrent.futures import ThreadPoolExecutor
            return ThreadPoolExecutor(1)
    return None


if hasattr(os, "register_at_fork"):  # not on Windows: a forked child has no parent's thread
    os.register_at_fork(after_in_child=_worker.cache_clear)


def _fork(fn, parts, threaded) -> list:
    """[fn(*part) for part in parts]; if `threaded`, given the kept worker and two parts or
    more, the worker and the caller each take the next part no one has. Ends once the worker
    has, raising its exception. No part forks again: the worker would wait for itself."""
    todo, results = deque(enumerate(parts)), [None] * len(parts)

    def take() -> None:
        while True:
            try:
                k, part = todo.popleft()  # atomic: no part runs twice
            except IndexError:
                return
            results[k] = fn(*part)

    pool = _worker() if threaded and len(parts) > 1 else None
    future = None if pool is None else pool.submit(take)
    try:
        take()
    finally:
        if future is not None:
            future.result()
    return results


def _block_steps(hid: int, T: int, B: int) -> int:
    """Steps per _gate_factors block: as many as keep its 7 slabs within L2."""
    return max(1, min(T, (1 << 14) // (hid * B)))


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


class LayerCache:
    """One layer's part of a training frame: its BPTT cache z, g and c, the forward's
    bias tile and fc_ic scratch, and every view of them, of the dropout masks and of
    the frame's backward scratch that the kernels read, sliced once."""

    def __init__(self, hid, inp, T, B, run, work, factors, d_inputs, mask_in, bottom, top) -> None:
        width, rows, cols = hid + inp, 4 * hid, T * B
        self.z = z = np.empty((T + 1, width, B))  # z[t] = [h_{t-1} | x_t]
        self.g = g = np.empty((T, rows, B))  # f, i, tanh(c_t), o; gate gradients after backward
        self.c = c = np.empty((T + 1, 2 * hid, B))  # c[t] = [c_{t-1} | c~_t], c_{-1} = 0
        self.bias = np.empty((rows, B))  # a broadcast add is slower
        self.fc_ic = np.empty((2 * hid, B))  # c[t + 1] in its place is slower
        self.mask_in = mask_in  # [T, in, B]: the layer below's dropout, or None
        # forward: the zero state, the staged input, the hidden sequence and _steps' steps
        self.h0, self.c0, self.x, self.h = z[0, :hid], c[0, :hid], z[:T, hid:], z[1:, :hid]
        self.fc, self.ic = self.fc_ic[:hid], self.fc_ic[hid:]
        gates = (g[:, : 2 * hid], g[:, 2 * hid : 3 * hid], g[:, 3 * hid :])
        steps = list(zip(z[:T], g, *gates, c[:T], c[:T, hid:], c[1:, :hid], z[1:, :hid]))
        spans = [slice(t, t + run) for t in range(0, T, run)]  # all T, or _PIPE_STEPS a stage
        self.runs = [(s, self.x[s], steps[s]) for s in spans]  # _stage's (span, input, steps)
        # backward: _gate_factors' time blocks, each gathered gate-major into factors (in work)
        self.blocks, block = [], _block_steps(hid, T, B)
        for t0 in range(0, T, block):
            n, skip = min(block, T - t0), int(t0 == 0)  # f_0 is unused: c_{-1} is the zero state
            gv = g[t0 : t0 + n].reshape(n, 4, hid, B).transpose(1, 0, 2, 3)
            cv = c[t0 : t0 + n].reshape(n, 2, hid, B).transpose(1, 0, 2, 3)
            s = factors[: 7 * n * hid * B].reshape(7, n, hid, B)
            f, i, tc, o, _, cand, a = s
            f_dst, f_src = c[t0 + skip - 1 : t0 + n - 1, :hid], f[skip:]
            block_views = (gv, cv, s[:4], s[4:6], s[:2], i, tc, o, cand, a, cv[1], f_dst, f_src)
            self.blocks.append(block_views)
        self.f_last = c[T - 1, :hid]
        # the time loop: [dc, dc, dc, dh], so that da_t = dcdh * g[t] and [dc | dh] lines up
        # with c[t], and each step's (t, g[t], c[t], gradient from above)
        dcdh = work[: 4 * hid * B].reshape(4 * hid, B)
        prod = work[4 * hid * B : 6 * hid * B].reshape(2 * hid, B)
        dc_gates = dcdh[: 2 * hid].reshape(2, hid, B)
        dc, dcdh_tail, dh = dcdh[2 * hid : 3 * hid], dcdh[2 * hid :], dcdh[3 * hid :]
        self.loop = (dcdh, dcdh_tail, prod, prod[:hid], prod[hid:], dc_gates, dc, dh)
        above = [None] * T  # the top layer's gradient enters at its final step only
        if not top:  # the dX the layer above leaves in d_inputs
            above = d_inputs[: hid * cols].reshape(hid, T, B).transpose(1, 0, 2)[::-1]
        self.bptt = list(zip(range(T - 1, -1, -1), g[::-1], c[T - 1 :: -1], above))
        # gate-major copies G of da and Z of z, for dW = G Z^T and dX = W_x^T G
        self.gm = gm = work[: rows * cols].reshape(rows, cols)
        zm = work[rows * cols : (rows + width) * cols].reshape(width, cols)
        g_dst, g_src = gm.reshape(rows, T, B), g.transpose(1, 0, 2)
        z_dst, z_src = zm.reshape(width, T, B), z[:T].transpose(1, 0, 2)
        self.zm_t = zm.T
        dx = None if bottom else d_inputs[: inp * cols].reshape(inp, cols)
        self.dx_seq = None if bottom else dx.reshape(inp, T, B).transpose(1, 0, 2)
        # that work in parts for _fork, the first product with all of dX. From
        # _THREADS_MIN_UNITS up, G's copy splits so that its larger part equals the other and
        # Z's, as the first taker takes it; dW and db split to even the GEMMs at a multiple
        # of 8 rows, where one BLAS thread kept the whole GEMM's rounding on the kernels tried
        self.copies, self.products = [(g_dst, g_src), (z_dst, z_src)], [(slice(None), gm, dx)]
        if hid >= _THREADS_MIN_UNITS:
            a, r = max(0, rows - width) // 2, rows * hid // (16 * width) * 8
            self.copies = [(g_dst[a:], g_src[a:]), (g_dst[:a], g_src[:a]), (z_dst, z_src)]
            self.products = [(slice(r), gm[:r], dx), (slice(r, None), gm[r:], None)]


class _Frame:
    """Everything one train-mode forward and its BPTT use: per layer a LayerCache, the
    dropout masks, the backward's flat scratch `work` and dX buffer `d_inputs`."""

    def __init__(self, key) -> None:
        sizes, dropped, T, B = key
        blocks = [7 * h * _block_steps(h, T, B) for h, _ in sizes]  # floats a column, as span
        macs = [4 * h * (h + i) for h, i in sizes]  # per layer, step and window
        side = lambda cut: (sum(macs[:cut]), sum(macs[cut:]))  # a two-stage forward's stages
        self.cut = min(range(1, len(sizes)), key=lambda cut: max(side(cut)), default=1)
        # whether the frame gets the kept worker (a stack under the width gate never asks):
        wide = min(h for h, _ in sizes) >= _THREADS_MIN_UNITS and _worker() is not None
        self.piped = wide and min(side(self.cut)) * B >= _PIPE_MIN_WORK  # for the two stages,
        self.forked = wide and sum(macs) * T * B >= _THREADS_MIN_WORK  # for the backward, whose
        at = [blocks[-1] * self.forked] * (len(sizes) - 1) + [0]  # lower factors go past the top's
        span = max(max((5 * h + i) * T, a + n) for (h, i), a, n in zip(sizes, at, blocks))
        self.key = key
        self.work = np.empty(span * B)  # G and Z after the time loop, or _gate_factors blocks
        self.d_inputs = np.empty(max((i for _, i in sizes[1:]), default=0) * T * B)
        self.masks: list[np.ndarray | None] = []  # on each layer's output, None = identity
        self.layers: list[LayerCache] = []
        for idx, ((hid, inp), drop) in enumerate(zip(sizes, dropped)):
            below = self.masks[-1] if idx else None
            mask_in = None if below is None else below.transpose(0, 2, 1)
            top = idx == len(sizes) - 1
            scratch = (self.work, self.work[at[idx] * B :], self.d_inputs)  # factors from at[idx]
            run = _PIPE_STEPS if self.piped else T  # steps per block of _stage
            self.layers.append(LayerCache(hid, inp, T, B, run, *scratch, mask_in, not idx, top))
            # batch-major [T, B, hidden], or [B, hidden] on the last state
            self.masks.append(np.empty((B, hid) if top else (T, B, hid)) if drop else None)


@dataclass
class NetworkCache:
    """A train-mode forward's handle on its frame; retained only for training."""

    frame: _Frame | None  # None once network_backward has given it back to the pool
    final_hidden: np.ndarray | None  # [B, hidden_last] after dropout; input to the dense head


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


def _steps(w, bias, fc_ic, fc, ic, steps) -> None:
    """Cell steps over views sliced beforehand, (z_t, g_t, fi, tc, o, c_t, cand, c_new,
    h_new) each: from z_t = [h_prev | x_t] and c_t = [c_prev | cand], writes g_t = [fi; tc;
    o] = [f, i, tanh c_t, o], c~, c_t and h_t. fc_ic = [fc | ic], which may be c_t, takes
    [f c_prev | i c~]. A sigmoid's exp(-x) overflows below x = -709 to give exactly 0."""
    for z_t, g_t, fi, tc, o, c_t, cand, c_new, h_new in steps:
        np.matmul(w, z_t, g_t)
        np.add(g_t, bias, g_t)
        np.negative(fi, fi)  # sigmoid of f and i
        np.exp(fi, fi)
        np.add(fi, _ONE, fi)
        np.divide(_ONE, fi, fi)
        np.tanh(tc, cand)  # c~ beside c_prev: c_t = [c_prev | c~]
        np.negative(o, o)  # sigmoid of o
        np.exp(o, o)
        np.add(o, _ONE, o)
        np.divide(_ONE, o, o)
        np.multiply(fi, c_t, fc_ic)
        np.add(fc, ic, c_new)
        np.tanh(c_new, tc)  # tanh(c_t) over the spent c~ pre-activation
        np.multiply(o, tc, h_new)


def _stage(layers, x, after, ready) -> None:
    """Train-mode recurrence of `layers`, (params, LayerCache) pairs bottom up, over x, the
    first's [T, in, B] input, by the blocks of lc.runs: each layer stages a block, times
    lc.mask_in if given, into lc.z, then steps. A block first takes a word from queue `after`
    and stops on False; `ready` gets True a block, then False once this stage ends or raises."""
    try:
        with np.errstate(over="ignore"):  # per thread
            for layer, lc in layers:
                lc.h0[...] = lc.c0[...] = 0.0
                np.copyto(lc.bias, layer.b[:, np.newaxis])
            inputs = [x] + [lc.h for _, lc in layers[:-1]]  # [T, in, B] each
            for block in zip(*(lc.runs for _, lc in layers)):
                if after is not None and not after.get():
                    return  # _fork raises the stage below's exception
                for (layer, lc), src, (span, x_in, steps) in zip(layers, inputs, block):
                    if lc.mask_in is None:
                        x_in[...] = src[span]
                    else:
                        np.multiply(src[span], lc.mask_in[span], out=x_in)
                    _steps(layer.w, lc.bias, lc.fc_ic, lc.fc, lc.ic, steps)
                if ready is not None:
                    ready.put(True)
    finally:  # after the last block, or on an exception
        if ready is not None:
            ready.put(False)


def _infer(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Predictions [B] for a feature-major [T, in, B] chunk. The state is one column
    [h_top; ...; h_0; x_t]: layer l steps in place on its rows [h_l; h_{l-1}] and one c."""
    _, inp, B = x.shape
    units = [layer.hidden_size for layer in params.layers]
    col = np.zeros((sum(units) + inp, B))
    gates = np.empty((4 * max(units), B))  # a prefix each
    stack, row = [], len(col) - inp  # row: where the layer's h starts, bottom up
    for layer, hid in zip(params.layers, units):
        row -= hid
        z, c, g = col[row : row + hid + layer.input_size], np.zeros((2 * hid, B)), gates[: 4 * hid]
        # in place: h_l is overwritten after the GEMM reads it
        step = (z, g, g[: 2 * hid], g[2 * hid : 3 * hid], g[3 * hid :], c, c[hid:], c[:hid], z[:hid])
        stack.append((layer.w, layer.b[:, np.newaxis], c, c[:hid], c[hid:], (step,)))
    x_t = col[-inp:]  # staged once a step: only layer 0 reads it
    with np.errstate(over="ignore"):  # its exit leaves the caller's NumPy 2 context as it was
        size = np.setbufsize(512)  # per thread: the broadcast bias add's buffer, 4 KiB not 64
        try:
            for x_step in x:
                np.copyto(x_t, x_step)
                for layer in stack:
                    _steps(*layer)
        finally:
            np.setbufsize(size)  # NumPy 1's errstate does not restore it
    return col[: units[-1]].T @ params.dense.w + params.dense.b[0]


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
    and is deterministic, in chunks of _INFER_CHUNK windows that _fork runs.
    """
    if mode not in ("train", "inference"):
        raise ValueError(f"mode must be 'train' or 'inference', got {mode!r}")
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != config.input_features:
        raise ShapeMismatchError(
            f"expected [B, T, {config.input_features}] batch, got shape {arr.shape}"
        )
    if 0 in arr.shape[:2]:
        raise ShapeMismatchError(f"batch has zero {'windows' if len(arr) == 0 else 'timesteps'}")
    if len(params.layers) != len(config.layer_units):
        raise ShapeMismatchError(
            f"params have {len(params.layers)} layers, config names {len(config.layer_units)}"
        )
    B, T, _ = arr.shape
    x = arr.transpose(1, 2, 0)  # feature-major [T, features, B]
    if mode == "inference":
        chunks = [(params, x[..., lo : lo + _INFER_CHUNK]) for lo in range(0, B, _INFER_CHUNK)]
        wide = min(config.layer_units) >= _THREADS_MIN_UNITS
        return np.concatenate(_fork(_infer, chunks, wide))[:, np.newaxis], None
    if rng is None and any(r > 0.0 for r in config.dropout_rates):
        raise ValueError("train-mode forward with nonzero dropout needs an rng")

    rates = config.dropout_rates
    key = (tuple(_param_sizes(params)), tuple(r > 0.0 for r in rates), T, B)
    try:
        frame = _POOL[key].pop()
    except (KeyError, IndexError):
        frame = _Frame(key)
    for rate, mask in zip(rates, frame.masks):  # every mask first, in layer order
        if mask is not None:
            np.greater_equal(rng.random(out=mask), rate, out=mask)
            np.divide(mask, 1.0 - rate, out=mask)
    layers, cut = list(zip(params.layers, frame.layers)), frame.cut
    stages = [(layers, x, None, None)]
    if frame.piped:  # layers below the cut on one thread, the rest on the other
        from queue import SimpleQueue  # loaded only where a frame gets the worker
        ready, h = SimpleQueue(), frame.layers[cut - 1].h
        stages = [(layers[:cut], x, None, ready), (layers[cut:], h, ready, None)]
    _fork(_stage, stages, frame.piped)
    h_last = frame.layers[-1].h[-1].T  # [B, hidden_last]
    final_hidden = h_last if mask is None else h_last * mask
    predictions = (final_hidden @ params.dense.w + params.dense.b[0])[:, np.newaxis]
    return predictions, NetworkCache(frame, final_hidden)


def _gate_factors(blocks, f_last: np.ndarray) -> None:
    """Turn a layer's cache, g[t] = [f, i, tanh c, o] and c[t] = [c_{t-1} | c~], into
    g[t] = [F, I, C, Bo] and c[t] = [f_{t+1} | A] (f_T = 0): F = c_{t-1} f (1-f),
    I = c~ i (1-i), C = i (1-c~^2), Bo = tanh c o (1-o), A = o (1-tanh^2 c). Each
    block is gathered gate-major into the frame's work: over a strided view, NumPy
    buffers. `blocks` and `f_last` (c[T-1, :hidden]) are a LayerCache's views."""
    for gv, cv, gates, cells, fi, i, tc, o, cand, a, a_dst, f_dst, f_src in blocks:
        np.copyto(gates, gv)
        np.copyto(cells, cv)
        np.square(tc, out=a)
        np.subtract(_ONE, a, out=a)
        a *= o
        tc *= o
        np.subtract(_ONE, o, out=o)
        o *= tc  # Bo; tc's slot is free from here on
        np.square(cand, out=tc)
        np.subtract(_ONE, tc, out=tc)
        tc *= i  # C
        np.copyto(a_dst, a)
        np.copyto(f_dst, f_src)
        cells *= fi
        np.subtract(_ONE, fi, out=fi)
        fi *= cells  # F, I
        np.copyto(gv, gates)
    f_last[...] = 0.0


def _products(gm, zm_t, w_x, grads, rows, g_rows, dx) -> None:
    """dW = G Z^T and db on `rows` of the gradients, and dX = W_x^T G if dx is given."""
    np.matmul(g_rows, zm_t, out=grads.w[rows])
    np.sum(g_rows, axis=1, out=grads.b[rows])
    if dx is not None:
        np.matmul(w_x, gm, out=dx)


def _bptt(factored, lc=None, w_h=None, d_last=None) -> None:
    """_gate_factors on each LayerCache of `factored`, then, given lc, its BPTT time loop."""
    for f in factored:
        _gate_factors(f.blocks, f.f_last)
    if lc is None:
        return
    dcdh, dcdh_tail, prod, prod_c, prod_h, dc_gates, dc, dh = lc.loop
    dc[...] = 0.0
    dh[...] = 0.0 if d_last is None else d_last

    for t, gt, ct, dh_t in lc.bptt:
        if dh_t is not None:
            dh += dh_t
        # dc_t = f_{t+1} dc_{t+1} + A_t dh_t
        np.multiply(dcdh_tail, ct, prod)
        np.add(prod_c, prod_h, dc)
        np.copyto(dc_gates, dc)
        np.multiply(dcdh, gt, gt)  # da_t = [dc F, dc I, dc C, dh Bo]
        if t:
            np.matmul(w_h, gt, dh)


def _layer_backward(
    params: LstmLayerParams, lc: LayerCache, d_last, grads: LstmLayerParams, forked, factored, beside
) -> None:
    """BPTT through one layer, overwriting lc.g with the gate gradients.

    d_last is the loss gradient [hidden, B] into the top layer's final step; a
    lower layer (d_last None) reads its [T, hidden, B] gradient from the dX that
    the layer above left in the frame, which the time loop reads before dX
    overwrites it. Writes the parameter gradients into `grads` and, above the
    bottom layer, dX times the dropout of the layer below into lc.dx_seq. The time loop
    follows the factors of the LayerCaches in `factored` (lc, or none if made already). Given
    `forked` and the kept worker, the worker makes those of `beside` meanwhile, then takes
    parts of lc.copies, then of lc.products, beside this thread.
    """
    hid = params.hidden_size
    w_h = params.w[:, :hid].T  # [hidden, 4*hidden]: recurrent part of dz = w.T @ da
    _fork(_bptt, [(factored, lc, w_h, d_last)] + [(beside,)] * bool(beside), forked)
    # dW, db and dX over gate-major copies G of da and Z of z, part by part
    _fork(np.copyto, lc.copies, forked)
    w_x = params.w[:, hid:].T
    _fork(_products, [(lc.gm, lc.zm_t, w_x, grads, *part) for part in lc.products], forked)
    if lc.mask_in is not None:  # here: on two threads, the two ufuncs' buffers add up
        lc.dx_seq *= lc.mask_in


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
    consumed: its frame goes back to the pool, it keeps no arrays, and a
    second backward on it raises StaleCacheError.
    """
    if cache is None:
        raise StaleCacheError("backward needs the cache from a train-mode forward")
    frame = cache.frame
    if frame is None:
        raise StaleCacheError("cache already used by a backward pass, which gave back its frame")
    if len(frame.layers) != len(params.layers):
        raise StaleCacheError(
            f"cache has {len(frame.layers)} layers, params have {len(params.layers)}"
        )
    B = frame.key[-1]
    d_pred = np.asarray(d_predictions, dtype=np.float64).reshape(-1)
    if d_pred.shape[0] != B:
        raise StaleCacheError(f"gradient batch {d_pred.shape[0]} does not match cache batch {B}")
    cache.frame = None

    grads = zeros_like_params(params)
    grads.dense.w[...] = cache.final_hidden.T @ d_pred
    grads.dense.b[0] = d_pred.sum()
    d_out = np.outer(d_pred, params.dense.w)  # [B, hidden_last]
    if frame.masks[-1] is not None:
        d_out *= frame.masks[-1]
    d_last = d_out.T  # feature-major from here on
    # given the worker, it makes every lower layer's factors while the top layer's loop runs
    lower = frame.layers[-2::-1] if frame.forked else []
    for layer, lc, lg in zip(params.layers[::-1], frame.layers[::-1], grads.layers[::-1]):
        factored, beside = ([lc], lower) if d_last is not None else ([] if lower else [lc], [])
        _layer_backward(layer, lc, d_last, lg, frame.forked, factored, beside)
        d_last = None

    cache.final_hidden = None
    _POOL.setdefault(frame.key, []).append(frame)
    return grads

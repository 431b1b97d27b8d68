"""Per-gate reference for one LSTM timestep and for the stacked network,
forward and backward: the oracle the kernel tests compare against.

It reads each gate's rows of the packed weight and bias separately and runs
four small batch-major GEMMs per step, where seqcast.lstm_core runs one
packed feature-major GEMM per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seqcast.lstm_core import (
    LstmLayerParams,
    NetworkConfig,
    NetworkParams,
    ShapeMismatchError,
    zeros_like_params,
)

GATES = "fico"
# sigmoid saturates to 0/1 long before +-500; the clamp only keeps exp finite
_SIGMOID_CLAMP = 500.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_SIGMOID_CLAMP, _SIGMOID_CLAMP)))


@dataclass(frozen=True)
class LstmState:
    h: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class GateRecord:
    f: np.ndarray
    i: np.ndarray
    o: np.ndarray
    candidate: np.ndarray


def gate(params: LstmLayerParams, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(weight rows, bias rows) of one gate: views into the packed arrays."""
    k, hid = GATES.index(name), params.hidden_size
    return params.w[k * hid : (k + 1) * hid], params.b[k * hid : (k + 1) * hid]


def lstm_cell_forward(
    params: LstmLayerParams, x_t, prev: LstmState | None = None
) -> tuple[LstmState, GateRecord]:
    """One timestep of the gate equations. Accepts a vector or a [B, in] batch."""
    x = np.asarray(x_t, dtype=np.float64)
    single = x.ndim == 1
    x2 = x[np.newaxis, :] if single else x
    if x2.ndim != 2 or x2.shape[1] != params.input_size:
        raise ShapeMismatchError(
            f"expected input width {params.input_size}, got shape {x.shape}"
        )
    hid = params.hidden_size
    if prev is None:
        h_prev = np.zeros((x2.shape[0], hid), dtype=np.float64)
        c_prev = np.zeros((x2.shape[0], hid), dtype=np.float64)
    else:
        h_prev = np.atleast_2d(np.asarray(prev.h, dtype=np.float64))
        c_prev = np.atleast_2d(np.asarray(prev.c, dtype=np.float64))
        if h_prev.shape != (x2.shape[0], hid) or c_prev.shape != (x2.shape[0], hid):
            raise ShapeMismatchError(
                f"state shape {h_prev.shape}/{c_prev.shape} does not match batch {x2.shape[0]} x {hid}"
            )

    z = np.concatenate([h_prev, x2], axis=1)
    pre = {}
    for name in GATES:
        w, b = gate(params, name)
        pre[name] = z @ w.T + b
    f = sigmoid(pre["f"])
    i = sigmoid(pre["i"])
    candidate = np.tanh(pre["c"])
    o = sigmoid(pre["o"])
    c = f * c_prev + i * candidate
    h = o * np.tanh(c)

    if single:
        h, c, f, i, o, candidate = (a[0] for a in (h, c, f, i, o, candidate))
    return LstmState(h=h, c=c), GateRecord(f=f, i=i, o=o, candidate=candidate)


def network_forward(params: NetworkParams, config: NetworkConfig, batch, rng=None) -> np.ndarray:
    """The stacked network from lstm_cell_forward, one timestep at a time.

    With an rng, each layer's output gets an inverted-dropout mask drawn in
    layer order: [T, B, hidden] for a sequence, [B, hidden] for the last
    layer's final state. Returns the [B] predictions.
    """
    x = np.asarray(batch, dtype=np.float64)
    steps = [x[:, t] for t in range(x.shape[1])]
    last = len(params.layers) - 1
    for idx, (layer, rate) in enumerate(zip(params.layers, config.dropout_rates)):
        state, hidden = None, []
        for x_t in steps:
            state, _ = lstm_cell_forward(layer, x_t, prev=state)
            hidden.append(state.h)
        out = hidden[-1] if idx == last else np.stack(hidden)
        if rng is not None and rate > 0.0:
            out = out * ((rng.random(out.shape) >= rate) / (1.0 - rate))
        steps = list(out)
    return out @ params.dense.w + params.dense.b[0]


def network_backward(
    params: NetworkParams, config: NetworkConfig, batch, d_predictions, rng=None
) -> NetworkParams:
    """Exact BPTT through the stack of network_forward, per gate and per step.

    Draws the same dropout masks as network_forward for the same rng, and
    multiplies each gate gradient's factors left to right, e.g.
    da_f = ((dc * c_prev) * f) * (1 - f). Returns the gradient of
    sum(d_predictions * predictions) in params' layout.
    """
    grads = zeros_like_params(params)
    x = np.asarray(batch, dtype=np.float64)
    steps = [x[:, t] for t in range(x.shape[1])]
    last = len(params.layers) - 1
    tapes, masks = [], []
    for idx, (layer, rate) in enumerate(zip(params.layers, config.dropout_rates)):
        state, tape = None, []
        for x_t in steps:
            prev = state
            state, gates = lstm_cell_forward(layer, x_t, prev=prev)
            tape.append((x_t, prev, state, gates))
        out = state.h if idx == last else np.stack([s.h for _, _, s, _ in tape])
        mask = None
        if rng is not None and rate > 0.0:
            mask = (rng.random(out.shape) >= rate) / (1.0 - rate)
            out = out * mask
        tapes.append(tape)
        masks.append(mask)
        steps = list(out)

    d_pred = np.asarray(d_predictions, dtype=np.float64).reshape(-1)
    grads.dense.w[...] = out.T @ d_pred
    grads.dense.b[0] = d_pred.sum()
    d_out = np.outer(d_pred, params.dense.w)
    for idx in reversed(range(len(params.layers))):
        if masks[idx] is not None:
            d_out = d_out * masks[idx]
        layer, layer_grads, tape = params.layers[idx], grads.layers[idx], tapes[idx]
        hid = layer.hidden_size
        d_hidden = np.zeros((len(tape),) + tape[0][2].h.shape)
        if idx == last:
            d_hidden[-1] = d_out
        else:
            d_hidden[...] = d_out
        d_x = []
        dh_next = np.zeros_like(d_hidden[0])
        dc_next = np.zeros_like(d_hidden[0])
        for t in reversed(range(len(tape))):
            x_t, prev, state, gates = tape[t]
            f, i, o, cand = gates.f, gates.i, gates.o, gates.candidate
            h_prev = np.zeros_like(state.h) if prev is None else prev.h
            c_prev = np.zeros_like(state.c) if prev is None else prev.c
            tanh_c = np.tanh(state.c)
            dh = dh_next + d_hidden[t]
            dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
            da = {
                "f": dc * c_prev * f * (1.0 - f),
                "i": dc * cand * i * (1.0 - i),
                "c": dc * i * (1.0 - cand * cand),
                "o": dh * tanh_c * o * (1.0 - o),
            }
            dc_next = dc * f
            z = np.concatenate([h_prev, x_t], axis=1)
            dz = np.zeros_like(z)
            for name in GATES:
                w, _ = gate(layer, name)
                gw, gb = gate(layer_grads, name)
                gw += da[name].T @ z
                gb += da[name].sum(axis=0)
                dz += da[name] @ w
            dh_next = dz[:, :hid]
            d_x.append(dz[:, hid:])
        d_out = np.stack(d_x[::-1])
    return grads

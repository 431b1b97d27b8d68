"""Per-gate reference for one LSTM timestep and for the stacked network, the
oracle the kernel tests compare against.

It reads each gate's rows of the packed weight and bias separately and runs
four small batch-major GEMMs per step, where seqcast.lstm_core runs one
packed feature-major GEMM per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seqcast.lstm_core import LstmLayerParams, NetworkConfig, NetworkParams, ShapeMismatchError

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

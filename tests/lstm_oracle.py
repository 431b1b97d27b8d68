"""Per-gate reference for one LSTM timestep, the oracle the layer tests compare against.

It reads each gate's rows of the packed weight and bias separately and runs
four small GEMMs, where seqcast.lstm_core runs one packed GEMM per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seqcast.lstm_core import LstmLayerParams, ShapeMismatchError, sigmoid

GATES = "fico"


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

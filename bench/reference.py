"""Float64 reference forward pass for the stacked LSTM.

Written from the gate equations in seqcast.lstm_core's module docstring:
per gate, per window and per timestep, with no packed weights and no
batching. It reads the weights from a checkpoint document (the versioned
JSON layout seqcast.checkpoint writes), not from the program's in-memory
parameter objects, so it keeps working when their layout changes.
"""

from __future__ import annotations

import numpy as np

_GATES = ("f", "i", "c", "o")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def predict(doc: dict, inputs: np.ndarray) -> np.ndarray:
    """Scaled predictions, one per window of `inputs` ([N, T, features])."""
    layers = [
        {name: np.asarray(block, dtype=np.float64) for name, block in layer.items()}
        for layer in doc["params"]["layers"]
    ]
    dense_w = np.asarray(doc["params"]["dense"]["w"], dtype=np.float64)
    dense_b = float(doc["params"]["dense"]["b"][0])
    out = []
    for window in np.asarray(inputs, dtype=np.float64):
        seq = list(window)
        for layer in layers:
            hidden = layer["b_f"].size
            h = np.zeros(hidden)
            c = np.zeros(hidden)
            states = []
            for x in seq:
                z = np.concatenate([h, x])
                pre = {g: layer[f"w_{g}"] @ z + layer[f"b_{g}"] for g in _GATES}
                c = _sigmoid(pre["f"]) * c + _sigmoid(pre["i"]) * np.tanh(pre["c"])
                h = _sigmoid(pre["o"]) * np.tanh(c)
                states.append(h)
            seq = states
        out.append(float(dense_w @ seq[-1]) + dense_b)
    return np.array(out)

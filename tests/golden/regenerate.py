"""The golden tiny pipeline: a seeded three-symbol ingest, sweep and gradcheck, each
run through seqcast.cli.main, and the digest of what they computed.

    PYTHONPATH=src python tests/golden/regenerate.py

rewrites tiny_pipeline.json beside this script. tests/test_golden.py holds a fresh
run to that file at a relative tolerance of 1e-9: six orders above the drift between
OpenBLAS kernels, far below what a changed window, init or dropout draw moves.
Regenerate it only in a change that moves training trajectories on purpose, and
say so in that change's notes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from seqcast.checkpoint import load_checkpoint
from seqcast.cli import main

GOLDEN = Path(__file__).with_name("tiny_pipeline.json")
SYMBOLS = ("VNQ", "VGT", "VDE")
FLAGS = [
    "--units", "8,8", "--dropout", "0.2,0.3", "--window", "20", "--epochs", "1",
    "--seed", "7", "--symbols", ",".join(SYMBOLS),
]
ENTRIES = 3  # seeded entries pinned per parameter vector


def _run(argv: list[str]) -> str:
    """main(argv)'s stdout; a nonzero exit is an error."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"seqcast {' '.join(argv)} exited {code}")
    return out.getvalue()


def _digest(values: np.ndarray, rng: np.random.Generator) -> dict:
    """A parameter vector's sum, sum of squares and a few seeded entries."""
    picks = sorted(rng.choice(values.size, size=min(ENTRIES, values.size), replace=False))
    return {
        "sum": float(values.sum()),
        "sum_of_squares": float(values @ values),
        "entries": [[int(k), float(values[k])] for k in picks],
    }


def _predictions(path: Path) -> dict:
    """The first and last rows of a predictions CSV: date, actual, predicted."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    return {end: [row[0], float(row[1]), float(row[2])] for end, row in (("first", rows[0]), ("last", rows[-1]))}


def record(workdir: Path) -> dict:
    """Run the pipeline into `workdir` and digest its outputs."""
    out = str(workdir)
    _run(FLAGS + ["--out-dir", out, "ingest"])
    _run(FLAGS + ["--out-dir", out, "sweep"])
    gradcheck = _run(FLAGS + ["gradcheck"]).split()[0]  # max_relative_error=<value>
    (sweep,) = workdir.glob("sweep-*.json")
    summary = json.loads(sweep.read_text(encoding="utf-8"))
    doc = {
        "flags": FLAGS,
        "gradcheck_max_relative_error": float(gradcheck.removeprefix("max_relative_error=")),
        "mean_r_squared": summary["mean_r_squared"],
        "failures": summary["failures"],
        "symbols": {},
    }
    rng = np.random.default_rng(0)
    for symbol in SYMBOLS:
        cleaned = (workdir / f"{symbol}-cleaned.csv").read_bytes()
        (ckpt,) = workdir.glob(f"{symbol}-*.ckpt.json")
        params = load_checkpoint(ckpt).params
        vectors = {}
        for idx, layer in enumerate(params.layers):
            vectors[f"layer{idx}.w"], vectors[f"layer{idx}.b"] = layer.w.ravel(), layer.b
        vectors["dense.w"], vectors["dense.b"] = params.dense.w, params.dense.b
        (metrics,) = workdir.glob(f"{symbol}-*.metrics.json")
        (predictions,) = workdir.glob(f"{symbol}-*.predictions.csv")
        doc["symbols"][symbol] = {
            "cleaned_sha256": hashlib.sha256(cleaned).hexdigest(),
            "metrics": json.loads(metrics.read_text(encoding="utf-8")),
            "params": {name: _digest(v, rng) for name, v in vectors.items()},
            "predictions": _predictions(predictions),
        }
    return doc


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = record(Path(tmp))
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)

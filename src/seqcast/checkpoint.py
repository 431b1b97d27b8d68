"""Versioned JSON model checkpoints.

Layout (version 1): format marker, network config, scaler params, seed,
window, symbol, and every parameter block under its param_blocks name, in
param_blocks order, which is also NetworkParams.flat order. Floats are serialized with repr, so
save -> load -> save is byte-identical and values survive exactly.
Non-finite values are refused on save and on load, and every block is
checked against the shape the stored config implies on load.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .lstm_core import NetworkConfig, NetworkParams, param_blocks, zeros_params
from .preprocess import ScalerParams

FORMAT_NAME = "seqcast-checkpoint"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint is unreadable or unwritable, not a well-formed v1 model, or not the run's."""


@dataclass(frozen=True)
class Checkpoint:
    params: NetworkParams
    config: NetworkConfig
    scaler: ScalerParams
    seed: int
    window: int
    symbol: str


def _slot(tree: dict, name: str) -> tuple[dict, str]:
    """The dict in the "params" tree that holds block `name`, and its key there."""
    group, key = name.split(".")
    if group == "dense":
        return tree["dense"], key
    return tree["layers"][int(group.removeprefix("layer"))], key


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    tree: dict = {"layers": [{} for _ in ckpt.params.layers], "dense": {}}
    for name, arr in param_blocks(ckpt.params):
        slot, key = _slot(tree, name)
        slot[key] = arr.tolist()
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "symbol": ckpt.symbol,
        "seed": ckpt.seed,
        "window": ckpt.window,
        "scaler": asdict(ckpt.scaler),
        "config": asdict(ckpt.config),
        "params": tree,
    }
    try:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise CheckpointError(f"refusing to write a non-finite model: {exc}") from exc
    return (text + "\n").encode("utf-8")


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_bytes(checkpoint_bytes(ckpt))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a v1 checkpoint; any defect raises CheckpointError naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    except OSError as exc:  # a directory, no permission
        raise CheckpointError(f"{path}: cannot read a checkpoint: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise CheckpointError(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise CheckpointError(f"not a {FORMAT_NAME} file: {path}")
    if doc.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {doc.get('version')}")

    def read(key: str, build=lambda value: value):
        try:
            return build(doc[key])
        except CheckpointError:
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: missing or malformed {key!r}: {exc!r}") from exc

    def from_fields(cls):
        return lambda values: cls(*(values[f.name] for f in fields(cls)))

    def build_params(tree: dict) -> NetworkParams:
        stored, named = len(tree["layers"]), len(config.layer_units)
        if stored != named:
            raise CheckpointError(f"{path}: {stored} stored layers, config names {named}")
        params = zeros_params(config)
        for name, arr in param_blocks(params):
            slot, key = _slot(tree, name)
            block = np.array(slot.get(key), dtype=np.float64)
            if block.shape != arr.shape:
                raise CheckpointError(f"{path}: block {name} is not a float array of {arr.shape}")
            if not np.isfinite(block).all():
                raise CheckpointError(f"{path}: block {name} holds a non-finite value")
            arr[...] = block
        return params

    config = read("config", from_fields(NetworkConfig))
    return Checkpoint(
        params=read("params", build_params),
        config=config,
        scaler=read("scaler", from_fields(ScalerParams)),
        seed=read("seed"),
        window=read("window"),
        symbol=read("symbol"),
    )

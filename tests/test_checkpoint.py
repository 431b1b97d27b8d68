from __future__ import annotations

import json

import numpy as np
import pytest

from seqcast.checkpoint import (
    Checkpoint,
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from seqcast.lstm_core import NetworkConfig, init_params, param_blocks
from seqcast.preprocess import ScalerParams


def make_checkpoint(seed=5):
    cfg = NetworkConfig(layer_units=(4, 3), dropout_rates=(0.2, 0.3), seed=seed)
    return Checkpoint(
        params=init_params(cfg),
        config=cfg,
        scaler=ScalerParams(min_value=12.5, max_value=99.875),
        seed=seed,
        window=10,
        symbol="VNQ",
    )


def test_roundtrip_exact(tmp_path):
    ckpt = make_checkpoint()
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert loaded.scaler == ckpt.scaler
    assert loaded.seed == ckpt.seed
    assert loaded.window == ckpt.window
    assert loaded.symbol == ckpt.symbol
    for (name_a, a), (_, b) in zip(param_blocks(ckpt.params), param_blocks(loaded.params)):
        np.testing.assert_array_equal(a, b), name_a
        assert b.dtype == np.float64


def test_serialization_deterministic(tmp_path):
    a = checkpoint_bytes(make_checkpoint())
    b = checkpoint_bytes(make_checkpoint())
    assert a == b
    # save -> load -> save is byte-identical too
    path = tmp_path / "model.ckpt.json"
    path.write_bytes(a)
    assert checkpoint_bytes(load_checkpoint(path)) == a


def test_rejects_wrong_format_or_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError):
        load_checkpoint(path)
    doc = json.loads(checkpoint_bytes(make_checkpoint()).decode())
    doc["version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_checkpoint(path)


# Each edit damages the "params" tree of a saved checkpoint in one place.
BLOCK_EDITS = {
    "row-for-matrix": lambda p: p["layers"][0].update(w_i=p["layers"][0]["w_i"][0]),
    "long-bias": lambda p: p["layers"][1]["b_o"].append(0.5),
    "nested-dense": lambda p: p["dense"].update(w=[p["dense"]["w"]]),
    "missing-block": lambda p: p["layers"][0].pop("b_c"),
    "missing-layer": lambda p: p["layers"].pop(),
}


@pytest.mark.parametrize("edit", BLOCK_EDITS.values(), ids=BLOCK_EDITS.keys())
def test_rejects_block_shape_mismatch(tmp_path, edit):
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, make_checkpoint())
    doc = json.loads(path.read_text())
    edit(doc["params"])
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_refuses_to_write_non_finite_params(tmp_path):
    ckpt = make_checkpoint()
    ckpt.params.flat[3] = np.nan
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "model.ckpt.json", ckpt)
    assert not (tmp_path / "model.ckpt.json").exists()


def test_save_creates_the_directory(tmp_path):
    path = tmp_path / "not" / "yet" / "model.ckpt.json"
    save_checkpoint(path, make_checkpoint())
    assert checkpoint_bytes(load_checkpoint(path)) == path.read_bytes()
    assert path.read_bytes() == checkpoint_bytes(make_checkpoint())


def test_config_and_scaler_are_stored_under_their_field_names(tmp_path):
    _, doc = _saved_doc(tmp_path)
    assert doc["config"] == {
        "layer_units": [4, 3],
        "dropout_rates": [0.2, 0.3],
        "input_features": 1,
        "seed": 5,
    }
    assert doc["scaler"] == {"min_value": 12.5, "max_value": 99.875}


@pytest.mark.parametrize(
    "key, field", [("config", "input_features"), ("config", "seed"), ("scaler", "max_value")]
)
def test_missing_field_is_named_with_the_file(tmp_path, key, field):
    path, doc = _saved_doc(tmp_path)
    del doc[key][field]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=f"{path}.*'{key}'.*'{field}'"):
        load_checkpoint(path)


def _saved_doc(tmp_path):
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, make_checkpoint())
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("key", ["config", "params", "scaler", "seed", "window", "symbol"])
def test_missing_key_is_named_with_the_file(tmp_path, key):
    path, doc = _saved_doc(tmp_path)
    del doc[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=f"{path}.*'{key}'"):
        load_checkpoint(path)


MALFORMED = {
    "config": lambda d: d["config"].update(layer_units="four"),
    "params": lambda d: d["params"].update(layers=5),
    "scaler": lambda d: d["scaler"].update(min_value=200.0),
}


@pytest.mark.parametrize("key", MALFORMED)
def test_malformed_key_is_named_with_the_file(tmp_path, key):
    path, doc = _saved_doc(tmp_path)
    MALFORMED[key](doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=f"{path}.*'{key}'"):
        load_checkpoint(path)


def test_missing_path_and_directory_are_refused_by_name(tmp_path):
    missing = tmp_path / "missing.ckpt.json"
    with pytest.raises(CheckpointError) as excinfo:
        load_checkpoint(missing)
    assert str(excinfo.value) == f"checkpoint not found: {missing}"
    with pytest.raises(CheckpointError) as excinfo:
        load_checkpoint(tmp_path)  # a directory
    assert str(excinfo.value).startswith(f"{tmp_path}: cannot read a checkpoint: ")


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '"seqcast-checkpoint"'])
def test_non_checkpoint_json_names_the_file(tmp_path, text):
    path = tmp_path / "model.ckpt.json"
    path.write_text(text)
    with pytest.raises(CheckpointError, match=str(path)):
        load_checkpoint(path)

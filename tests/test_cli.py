from __future__ import annotations

import json
import math

import pytest

from seqcast.cli import DATA_DIR_ENV, main

TINY = ["--units", "4", "--window", "5", "--epochs", "1"]


@pytest.fixture
def vnq_checkpoint(tmp_path, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    assert main(TINY + ["--symbols", "VNQ", "--out-dir", str(tmp_path), "train"]) == 0
    (path,) = tmp_path.glob("VNQ-*.ckpt.json")
    return path


def test_evaluate_scores_the_checkpoint_symbol(tmp_path, vnq_checkpoint):
    argv = TINY + ["--symbols", "VNQ", "--out-dir", str(tmp_path)]
    assert main(argv + ["evaluate", "--checkpoint", str(vnq_checkpoint)]) == 0
    assert len(list(tmp_path.glob("VNQ-*.metrics.json"))) == 1


def test_evaluate_refuses_checkpoint_of_another_symbol(tmp_path, vnq_checkpoint, capsys):
    argv = TINY + ["--symbols", "VGT", "--out-dir", str(tmp_path)]
    assert main(argv + ["evaluate", "--checkpoint", str(vnq_checkpoint)]) == 1
    assert "VNQ" in capsys.readouterr().err
    assert not list(tmp_path.glob("VGT-*"))


def _log_lines(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_log_out_keeps_every_symbol(tmp_path, monkeypatch, command):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    log = tmp_path / "log.jsonl"
    log.write_text("stale line from an earlier run\n", encoding="utf-8")
    argv = TINY + ["--symbols", "VNQ,VGT", "--out-dir", str(tmp_path), "--log-out", str(log)]
    assert main(argv + [command]) == 0
    lines = _log_lines(log)
    assert [(line["symbol"], line["epoch"]) for line in lines] == [("VNQ", 1), ("VGT", 1)]
    assert all(math.isfinite(line["loss"]) for line in lines)

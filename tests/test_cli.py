from __future__ import annotations

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

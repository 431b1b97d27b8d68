from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqcast
import seqcast.cli as cli_module
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


def test_sweep_parses_each_symbol_once(tmp_path, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    parsed = []
    original = cli_module.parse_csv

    def counting(text, symbol=""):
        parsed.append(symbol)
        return original(text, symbol)

    monkeypatch.setattr(cli_module, "parse_csv", counting)
    assert main(TINY + ["--symbols", "VNQ,VGT", "--out-dir", str(tmp_path), "sweep"]) == 0
    assert parsed == ["VNQ", "VGT"]


def test_data_file_refuses_several_symbols(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    data.write_text("date,close\n2020-01-02,1.0\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = TINY + ["--symbols", "VNQ,VGT", "--data", str(data), "--out-dir", str(out)]
    assert main(argv + ["train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2 symbols" in err
    assert not out.exists()


def test_module_runs_gradcheck_without_installing():
    src = str(Path(seqcast.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["--units", "4", "gradcheck", "--probes", "20", "--tolerance", "1e-3"]
    done = subprocess.run(
        [sys.executable, "-m", "seqcast", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("max_relative_error=")

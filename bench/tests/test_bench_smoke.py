"""Smoke test of the benchmark: each workload runs once at toy size, in both
modes, and prints every metric BENCHMARK.json names, with its unit."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The end-to-end names each workload also prints under the names its users know.
ALIASES = {
    "train-paper": ("train_samples_per_s", "train_step_ms_p50", "train_step_ms_tail"),
    "evaluate-paper": ("eval_windows_per_s",),
    "pipeline-tiny": ("pipeline_symbol_s_p50",),
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5"]
        + ["--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert f"\n{name} = " in done.stdout
    if not trace:
        for name in ALIASES[workload] + ("failed_frac",):
            assert f"\n{name} = " in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

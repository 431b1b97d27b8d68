"""tests/manifest.py gives one manifest on every run, so a diff of two shows only outputs."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from manifest import COMMANDS, record
from test_lstm_core import force_worker

# the cases of 50 units and up, where a frame or an inference call may get the kept worker:
# the two-stage forward, the backward's parts and overlapped factors, inference's chunks
WORKER_CASES = ("train-wide", "evaluate-wide", "train-wide-short", "train-paper-short")


def test_the_manifest_repeats_itself(tmp_path):
    # the second run finds the first's warm state in the process; a clock value left
    # unmasked, in stdout or in a file, would differ between the two
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        runs.append(record(tmp_path / name))
    assert runs[0] == runs[1]
    assert [(c["name"], c["exit"], c["stderr"]) for c in runs[0]] == [
        (name, 0, []) for name, _ in COMMANDS
    ]
    assert all(c["files"] for c in runs[0] if c["name"] != "gradcheck")


def test_the_worker_changes_no_byte_of_the_wide_and_paper_cases(tmp_path, monkeypatch):
    # the parts of every threaded path depend on the widths alone, not on the worker
    commands = [command for command in COMMANDS if command[0] in WORKER_CASES]
    submitted, submit = [], ThreadPoolExecutor.submit

    def recording_submit(pool, *args):
        submitted.append(args)
        return submit(pool, *args)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", recording_submit)
    runs, parts = {}, {}
    for on in (False, True):
        force_worker(monkeypatch, on)
        submitted.clear()
        (tmp_path / str(on)).mkdir()
        runs[on], parts[on] = record(tmp_path / str(on), commands), len(submitted)
    assert runs[False] == runs[True]
    assert [(c["name"], c["exit"]) for c in runs[True]] == [(name, 0) for name in WORKER_CASES]
    assert parts[False] == 0 < parts[True]

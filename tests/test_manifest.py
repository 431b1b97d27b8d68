"""tests/manifest.py gives one manifest on every run, so a diff of two shows only outputs."""

from __future__ import annotations

from manifest import COMMANDS, record


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

"""A manifest of what the program writes, for comparing two checkouts byte for byte.

    PYTHONPATH=src python tests/manifest.py OUT

runs a fixed set of commands through seqcast.cli.main in a scratch directory and
writes OUT, a JSON list holding, per command, its arguments, exit code, stdout and
stderr, and the sha256 of every file it wrote or rewrote. Wall-clock `seconds`
values are masked in stdout and in the files before they are hashed, so a tree
gives the same manifest on every run on one machine. Run it in two checkouts and
diff the two files: the diff is every output that differs between them. Trained
bytes depend on the BLAS kernel and thread count, so compare on one machine under
one environment.
"""

from __future__ import annotations

import codecs
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import seqcast
from seqcast.cli import main

NINE = "VCR,VDE,VFH,VGT,VHT,VIS,VNQ,VOX,VPU"
FIXTURES = Path(seqcast.__file__).parent / "fixtures"
# VNQ's fixture with other line endings and with a byte-order mark, each under <dir>/VNQ.csv
COPIES = {
    "crlf": lambda raw: raw.replace(b"\n", b"\r\n"),
    "cr": lambda raw: raw.replace(b"\n", b"\r"),
    "bom": lambda raw: codecs.BOM_UTF8 + raw,
}
TINY = ["--units", "4", "--window", "10", "--epochs", "1", "--symbols", "VNQ"]
# wide enough that, given a spare core, the backward and inference run on a worker thread too
WIDE = ["--units", "50,50", "--window", "100", "--epochs", "1", "--symbols", "VNQ"]
# under both work gates: its frames keep no second factor region for a worker that never comes
WIDE_SHORT = ["--units", "50,50", "--window", "20", "--end", "2013-12-31", "--epochs", "1"]
# the paper stack: given a spare core, its training forward runs as two stages on two threads
PAPER_SHORT = ["--window", "20", "--end", "2013-12-31", "--epochs", "1", "--symbols", "VNQ"]
COMMANDS = [
    ("ingest", ["--symbols", NINE, "--out-dir", "ingest", "ingest"]),
    ("ingest-adj", ["--use-adj-close", "--symbols", NINE, "--out-dir", "ingest-adj", "ingest"]),
    *((f"ingest-{copy}", ["--data", copy, "--out-dir", f"ingest-{copy}", "ingest"]) for copy in COPIES),
    (
        "sweep",
        ["--units", "8,8", "--window", "20", "--epochs", "1", "--symbols", NINE]
        + ["--log-out", "sweep/log.jsonl", "--out-dir", "sweep", "sweep"],
    ),
    ("train", TINY + ["--out-dir", "units4", "train"]),
    ("evaluate", TINY + ["--out-dir", "units4", "evaluate"]),
    ("train-wide", WIDE + ["--out-dir", "units50", "train"]),
    ("evaluate-wide", WIDE + ["--out-dir", "units50", "evaluate"]),
    ("train-wide-short", WIDE_SHORT + ["--symbols", "VNQ", "--out-dir", "wide-short", "train"]),
    ("train-paper-short", PAPER_SHORT + ["--out-dir", "paper", "train"]),
    ("gradcheck", ["gradcheck", "--probes", "200"]),
]
# `seconds=0.012` in the epoch lines, `"seconds": 0.0123` in the --log-out JSON lines
_SECONDS = re.compile(r'(seconds"?(?:=|: ))[-+.0-9eE]+')


def _mask(text: str) -> str:
    return _SECONDS.sub(r"\1*", text)


def _hashes(root: Path) -> dict[str, str]:
    """Every file under `root`, by its relative path, to the sha256 of its masked text."""
    hashes = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        masked = _mask(path.read_bytes().decode("latin-1")).encode("latin-1")  # byte for byte
        hashes[path.relative_to(root).as_posix()] = hashlib.sha256(masked).hexdigest()
    return hashes


def record(workdir: Path) -> list[dict]:
    """Run COMMANDS in `workdir`, an empty directory, and describe each one."""
    raw = (FIXTURES / "VNQ.csv").read_bytes()
    for name, convert in COPIES.items():
        (workdir / name).mkdir()
        (workdir / name / "VNQ.csv").write_bytes(convert(raw))
    manifest = []
    cwd = os.getcwd()
    os.chdir(workdir)  # relative paths: the output names and stdout hold no scratch path
    try:
        for name, argv in COMMANDS:
            before = _hashes(workdir)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            after = _hashes(workdir)
            manifest.append({
                "name": name,
                "argv": argv,
                "exit": code,
                "stdout": _mask(out.getvalue()).splitlines(),
                "stderr": _mask(err.getvalue()).splitlines(),
                "files": {p: h for p, h in after.items() if before.get(p) != h},
            })
    finally:
        os.chdir(cwd)
    return manifest


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT")
    with tempfile.TemporaryDirectory() as tmp:
        doc = record(Path(tmp))
    Path(sys.argv[1]).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

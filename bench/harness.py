"""Closed-loop measurement, the traced run, and the result record.

A measured run (`--trace 0`) reports the end-to-end metrics with tracing
off. A traced run (`--trace 1`) times the same operations without and then
with the tracer, and reports the per-layer metrics. Both check every
operation's outputs; the last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads
from yardstick import Yardstick

# Times are scaled to the yardstick's nominal speed (see yardstick.py).
END_TO_END = (
    ("norm_op_ms_p50", "ms"),
    ("norm_op_ms_tail", "ms"),
    ("norm_items_per_s", "1/s"),
    ("peak_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples a reported tail percentile must leave above it


class PeakMemory:
    """tracemalloc peak, in MB, of the allocations made inside the block."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """(p, value, samples beyond) for the highest whole percentile that leaves
    at least TAIL_BEYOND samples above it; the median when none does."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 50, statistics.median(ordered), n // 2


def _attempt(workload, scope=contextlib.nullcontext) -> tuple[float, int, list[str]]:
    """One operation inside `scope`, then its check: (seconds, items, problems)."""
    error = None
    with scope():
        start = time.perf_counter()
        try:
            items = workload.run_op()
        except Exception as exc:  # a failed operation is counted, not fatal
            items, error = 0, exc
        elapsed = time.perf_counter() - start
    try:
        problems = workload.check()
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        problems.insert(0, f"operation raised {error!r}")
    return elapsed, items, _report(problems)


def _report(problems: list[str]) -> list[str]:
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return problems


@dataclass
class Loop:
    times: list[float] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0

    def p50_ms(self) -> float:
        return statistics.median(self.times) * 1e3


def closed_loop(workload, seconds: float, scope=contextlib.nullcontext, yardstick=None) -> Loop:
    """Operations back to back for `seconds`, at least one, with the
    yardstick's samples (if given) between them."""
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, items, problems = _attempt(workload, scope)
        loop.attempted += 1
        loop.failed += bool(problems)
        loop.times.append(elapsed)
        if not problems:
            loop.items += items
        if yardstick is not None:
            yardstick.keep_up(sum(loop.times))
        if time.perf_counter() >= deadline:
            return loop


def _git_rev(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when numpy bundles one."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(seed: int, root: Path, blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "blas_threads_reported": _openblas_threads(),
        "git_rev": _git_rev(root),
        "src_sha256": _src_sha256(root),
        "seed": seed,
    }


def measured_run(workload, seconds: float, import_s: float) -> tuple:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    problems = _report(workload.verify_once())
    yardstick = Yardstick(workload.yardstick)
    nominal = yardstick.nominal_ms
    loop = closed_loop(workload, seconds, yardstick=yardstick)
    # After the timed loop, so that tracemalloc's bookkeeping cannot touch it.
    peak = PeakMemory()
    _, _, peak_problems = _attempt(workload, lambda: peak)

    op_ms = [t * 1e3 for t in loop.times]
    pct, tail, beyond = tail_percentile(op_ms)
    raw = {
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": tail,
        "items_per_s": loop.items / sum(loop.times),
        "setup_s": import_s + statistics.median(setups),
    }
    # Each statistic over the yardstick's same statistic (see yardstick.py).
    y_p50, y_tail, y_mean = (
        yardstick.percentile_ms(50),
        yardstick.percentile_ms(pct),
        yardstick.mean_ms(),
    )
    metrics = {
        "norm_op_ms_p50": raw["op_ms_p50"] * nominal / y_p50,
        "norm_op_ms_tail": raw["op_ms_tail"] * nominal / y_tail,
        "norm_items_per_s": raw["items_per_s"] * y_mean / nominal,
        "peak_mb": peak.mb,
        "setup_s": raw["setup_s"] * nominal / y_p50,
    }
    attempted = loop.attempted + 2  # the once-per-run checks and the peak-memory operation
    failed = loop.failed + bool(problems) + bool(peak_problems)
    notes = [
        f"op_ms_tail is p{pct} of {len(op_ms)} operations ({beyond} beyond it)",
        f"setup_s is import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups "
        + ", ".join(f"{s:.4f}" for s in setups)
        + ", scaled like the median",
        f"{workload.yardstick} yardstick over {len(yardstick.samples)} samples: "
        f"median {y_p50:.4f} ms, p{pct} {y_tail:.4f} ms, mean {y_mean:.4f} ms; nominal {nominal:g} ms",
        "unscaled: " + ", ".join(f"{name} = {value:.6g}" for name, value in raw.items()),
        f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} attempted)",
    ]
    for alias, (source, scale, unit) in workload.aliases.items():
        notes.append(f"{alias} = {metrics[source] * scale:.6g} {unit}")
    return metrics, attempted, failed, notes, {"timed": loop.times, "yardstick": yardstick.samples}


def traced_run(workload, seconds: float, spans_path: Path) -> tuple:
    workload.setup()
    problems = _report(workload.verify_once())
    # Each half has its own yardstick, so that a change of host speed between
    # the halves does not read as tracing overhead.
    plain_y, traced_y = Yardstick(workload.yardstick), Yardstick(workload.yardstick)
    plain = closed_loop(workload, seconds / 2, yardstick=plain_y)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = closed_loop(workload, seconds / 2, tracer.operation, yardstick=traced_y)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    probe = PeakMemory()
    with probe:
        workload.forward_probe()
    metrics = tracing.layer_metrics(
        tracer,
        workload.shapes(),
        forward_peak_mb=probe.mb,
        overhead_frac=(traced.p50_ms() / traced_y.percentile_ms(50))
        / (plain.p50_ms() / plain_y.percentile_ms(50))
        - 1.0,
    )
    attempted = plain.attempted + traced.attempted + 1
    failed = plain.failed + traced.failed + bool(problems)
    notes = [
        f"traced {traced.attempted} operations after {plain.attempted} untraced; "
        f"{len(tracer.spans)} spans in {spans_path.name}",
    ]
    return metrics, attempted, failed, notes, {"untraced": plain.times, "traced": traced.times}


def run(args, import_s: float, root: Path, blas_threads: int) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.toy, out_dir)
    env = environment(args.seed, root, blas_threads)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, attempted, failed, notes, op_seconds = traced_run(
            workload, args.seconds, out_dir / f"{stem}-spans.jsonl"
        )
        units = tracing.PER_LAYER
    else:
        metrics, attempted, failed, notes, op_seconds = measured_run(workload, args.seconds, import_s)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "notes": notes,
        "op_seconds": op_seconds,
        **result,
    }
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}, seed {args.seed}; items are {workload.item}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0

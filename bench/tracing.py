"""Outside-in tracing of seqcast's layers, and the per-layer metrics it yields.

The tracer wraps the public functions of each module of src/seqcast at every
name the package binds them to: `training` calls `network_forward` through
its own module global, `cli` calls `load_series` through its own, and the
benchmark calls through the module attributes. Each call becomes a span
(name, start, end, parent span, operation id) kept in memory, and work is
counted at the same boundaries. The wrappers go in for the traced run only;
`uninstall` puts the original functions back. Nothing in src/ knows about it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = (
    "market_data",
    "preprocess",
    "lstm_core",
    "training",
    "evaluate",
    "checkpoint",
    "chart",
    "cli",
)

# Evaluated three times per timestep per layer inside the recurrence: a span
# there would time the kernel's inner loop, not a call into the layer.
UNTRACED = frozenset({"lstm_core.sigmoid"})

# The traced run prints these, in this order, with these units.
PER_LAYER = (
    ("lstm_core.network_forward.train.ms_p50", "ms"),
    ("lstm_core.network_forward.inference.ms_p50", "ms"),
    ("lstm_core.network_backward.ms_p50", "ms"),
    ("lstm_core.step_gflop", "GFLOP"),
    ("lstm_core.window_gflop", "GFLOP"),
    ("lstm_core.op_gflop", "GFLOP"),
    ("lstm_core.gemm_rate_gflops", "GFLOP/s"),
    ("lstm_core.gemm_floor_ms", "ms"),
    ("lstm_core.achieved_gflops", "GFLOP/s"),
    ("lstm_core.cache_mb", "MB"),
    ("lstm_core.forward_peak_mb", "MB"),
    ("lstm_core.self_ms", "ms"),
    ("training.adam_step.ms_p50", "ms"),
    ("training.adam_step.calls", "count"),
    ("training.step_other_ms_p50", "ms"),
    ("training.self_ms", "ms"),
    ("evaluate.predict_series.ms", "ms"),
    ("evaluate.compute_metrics.ms", "ms"),
    ("evaluate.windows", "count"),
    ("evaluate.self_ms", "ms"),
    ("market_data.parse_csv.ms", "ms"),
    ("market_data.parse_csv.calls", "count"),
    ("market_data.rows_parsed", "count"),
    ("market_data.sma.ms", "ms"),
    ("market_data.drop_missing.ms", "ms"),
    ("market_data.self_ms", "ms"),
    ("cli.load_series.calls", "count"),
    ("cli.load_series.distinct_ratio", "ratio"),
    ("cli.self_ms", "ms"),
    ("preprocess.make_windows.ms", "ms"),
    ("preprocess.bridge_test_windows.ms", "ms"),
    ("preprocess.self_ms", "ms"),
    ("checkpoint.save_checkpoint.ms", "ms"),
    ("checkpoint.bytes_written", "bytes"),
    ("checkpoint.self_ms", "ms"),
    ("chart.render_price_chart.ms", "ms"),
    ("chart.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)

# The steps of a training step that are not "other" time.
_STEP_CORE = frozenset(
    {"lstm_core.network_forward.train", "lstm_core.network_backward", "training.adam_step"}
)
_FLOAT64_BYTES = 8


def lstm_gemms(config, batch: int, steps: int, backward: bool = False) -> Counter:
    """(m, k, n) -> count of the LSTM GEMMs in one forward or one backward pass.

    Forward, per layer and timestep: the gate pre-activations
    [B, H+I] @ [H+I, 4H]. Backward: the weight gradient [4H, B] @ [B, H+I]
    and the input/recurrent gradient [B, 4H] @ [4H, H+I]. The dense head
    is a matrix-vector product and is left out.
    """
    shapes: Counter = Counter()
    inputs = config.input_features
    for hidden in config.layer_units:
        width = hidden + inputs
        if backward:
            shapes[(4 * hidden, batch, width)] += steps
            shapes[(batch, 4 * hidden, width)] += steps
        else:
            shapes[(batch, width, 4 * hidden)] += steps
        inputs = hidden
    return shapes


def gflop(shapes: Counter) -> float:
    return sum(2 * m * k * n * calls for (m, k, n), calls in shapes.items()) / 1e9


def cache_mb(config, batch: int, steps: int) -> float:
    """Size of the eight per-layer BPTT cache arrays one forward call fills.

    Per layer: z is [T, B, H+I]; f, i, o, candidate, c, tanh_c and h are
    [T, B, H] each.
    """
    inputs, floats = config.input_features, 0
    for hidden in config.layer_units:
        floats += steps * batch * (8 * hidden + inputs)
        inputs = hidden
    return floats * _FLOAT64_BYTES / 1e6


def gemm_seconds(shape: tuple[int, int, int], min_seconds: float = 0.005) -> float:
    """Fastest measured time of one float64 `a @ b` at this shape."""
    m, k, n = shape
    rng = np.random.default_rng(0)
    a, b = rng.random((m, k)), rng.random((k, n))
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            a @ b
        if time.perf_counter() - start >= min_seconds:
            break
        reps *= 2
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(reps):
            a @ b
        best = min(best, (time.perf_counter() - start) / reps)
    return best


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    op: int
    parent: int | None
    start: int = 0  # perf_counter_ns
    end: int = 0


# Hooks mirror the signature of the function they watch, after (tracer, result).
def _forward_mode(params, config, batch, mode="inference", rng=None):
    return mode


def _on_forward(tracer, result, params, config, batch, mode="inference", rng=None):
    rows, steps = np.shape(batch)[:2]
    tracer.gemms[tracer.op] += lstm_gemms(config, rows, steps)
    tracer.forward_shapes.add((config, rows, steps))
    if mode == "train":
        tracer.last_train = (config, rows, steps)


def _on_backward(tracer, result, params, config, cache, d_predictions):
    tracer.gemms[tracer.op] += lstm_gemms(*tracer.last_train, backward=True)


def _on_parse_csv(tracer, result, text, symbol=""):
    tracer.counts[(tracer.op, "market_data.rows_parsed")] += len(result)


def _on_predict_series(tracer, result, *args, **kwargs):
    tracer.counts[(tracer.op, "evaluate.windows")] += result[0].n


def _on_save_checkpoint(tracer, result, path, ckpt):
    tracer.counts[(tracer.op, "checkpoint.bytes_written")] += os.path.getsize(path)


def _on_load_series(tracer, result, cfg, symbol):
    sweep = tracer.enclosing("cli.cmd_sweep")
    if sweep is not None:
        tracer.sweep_loads[(tracer.op, sweep)].append(symbol)


_LABELS = {"lstm_core.network_forward": _forward_mode}
_HOOKS = {
    "lstm_core.network_forward": _on_forward,
    "lstm_core.network_backward": _on_backward,
    "market_data.parse_csv": _on_parse_csv,
    "evaluate.predict_series": _on_predict_series,
    "checkpoint.save_checkpoint": _on_save_checkpoint,
    "cli.load_series": _on_load_series,
}


class Tracer:
    """Spans and counters for the operations run inside `operation()`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops = 0
        self.op: int | None = None  # None: calls pass straight through
        self.counts: Counter = Counter()  # (op, counter) -> amount
        self.gemms: defaultdict[int, Counter] = defaultdict(Counter)  # op -> GEMM shapes
        self.forward_shapes: set = set()  # (config, batch, steps) of forward calls
        self.sweep_loads: defaultdict[tuple, list] = defaultdict(list)  # (op, sweep span) -> symbols
        self.last_train = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"seqcast.{layer}")
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in UNTRACED
                ):
                    continue
                originals[id(fn)] = (fn, self._wrap(fn, name, layer))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "seqcast" and not mod_name.startswith("seqcast."):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _enter(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self.op, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def enclosing(self, name: str) -> int | None:
        """Index of the innermost open span called `name`, if any."""
        for idx in reversed(self._stack):
            if self.spans[idx].name == name:
                return idx
        return None

    @contextmanager
    def operation(self):
        """Trace one benchmark operation under a root span."""
        self.op = self.ops
        self.ops += 1
        span = self._enter("bench.op", "bench")
        try:
            yield
        finally:
            self._exit(span)
            self.op = None

    def _wrap(self, fn, name: str, layer: str):
        label, hook = _LABELS.get(name), _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            full = name if label is None else f"{name}.{label(*args, **kwargs)}"
            span = tracer._enter(full, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if hook is not None:
                hook(tracer, result, *args, **kwargs)
            return result

        return traced

    def write_spans(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0
        with open(path, "w", encoding="utf-8") as out:
            for idx, s in enumerate(self.spans):
                record = {
                    "id": idx,
                    "op": s.op,
                    "parent": s.parent,
                    "name": s.name,
                    "start_ns": s.start - origin,
                    "end_ns": s.end - origin,
                }
                out.write(json.dumps(record) + "\n")


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _step_other_ms(spans: list[Span], dur: list[float], children) -> list[float]:
    """Per training step: its time minus forward, backward and Adam.

    A step runs from the end of the previous Adam step (or the start of the
    enclosing span, a benchmark operation or a `training.train` call) to the
    end of its own Adam step.
    """
    steps = []
    for parent in {s.parent for s in spans if s.name == "training.adam_step"}:
        begin = spans[parent].start
        for idx in children[parent]:
            if spans[idx].name != "training.adam_step":
                continue
            end = spans[idx].end
            core = sum(
                dur[k]
                for k in children[parent]
                if spans[k].name in _STEP_CORE and begin <= spans[k].start and spans[k].end <= end
            )
            steps.append((end - begin) / 1e6 - core)
            begin = end
    return steps


def _sweep_distinct_ratios(tracer: Tracer) -> list[float]:
    """Per operation: distinct symbols over load_series calls inside cmd_sweep."""
    ratios = []
    for op in range(tracer.ops):
        loads = [syms for (o, _), syms in tracer.sweep_loads.items() if o == op]
        calls = sum(len(syms) for syms in loads)
        ratios.append(sum(len(set(syms)) for syms in loads) / calls if calls else 0.0)
    return ratios


def layer_metrics(
    tracer: Tracer,
    shapes: tuple,
    forward_peak_mb: float,
    overhead_frac: float,
) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced operations.

    `*.ms_p50` is the median over calls; `*.ms`, `*.calls` and the counters
    are per operation, as the median over operations (0 where the workload's
    operation never calls the function; those calls are then in set-up).
    `shapes` is the workload's (network config, window, training batch).
    """
    spans, ops = tracer.spans, range(tracer.ops)
    dur = [(s.end - s.start) / 1e6 for s in spans]
    children: defaultdict[int, list[int]] = defaultdict(list)
    child_ms = [0.0] * len(spans)
    for idx, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(idx)
            child_ms[s.parent] += dur[idx]

    per_op: defaultdict[tuple, float] = defaultdict(float)
    per_call: defaultdict[str, list[float]] = defaultdict(list)
    for idx, s in enumerate(spans):
        per_op[(s.op, f"{s.layer}.self_ms")] += dur[idx] - child_ms[idx]
        per_op[(s.op, f"{s.name}.ms")] += dur[idx]
        per_op[(s.op, f"{s.name}.calls")] += 1
        per_call[s.name].append(dur[idx])
    for key, amount in tracer.counts.items():
        per_op[key] += amount

    def op_median(key: str) -> float:
        return _p50([per_op.get((op, key), 0.0) for op in ops])

    distinct = {shape for op in ops for shape in tracer.gemms[op]}
    floor_s = {shape: gemm_seconds(shape) for shape in distinct}
    op_gflop = _p50([gflop(tracer.gemms[op]) for op in ops])
    floor_ms = _p50(
        [sum(floor_s[sh] * calls for sh, calls in tracer.gemms[op].items()) * 1e3 for op in ops]
    )
    lstm_ms = sum(
        op_median(f"{name}.ms")
        for name in (
            "lstm_core.network_forward.train",
            "lstm_core.network_forward.inference",
            "lstm_core.network_backward",
        )
    )

    config, window, batch = shapes
    step = lstm_gemms(config, batch, window) + lstm_gemms(config, batch, window, backward=True)
    largest = max(tracer.forward_shapes, key=lambda s: s[1] * s[2], default=None)

    metrics = {
        "lstm_core.network_forward.train.ms_p50": _p50(per_call["lstm_core.network_forward.train"]),
        "lstm_core.network_forward.inference.ms_p50": _p50(
            per_call["lstm_core.network_forward.inference"]
        ),
        "lstm_core.network_backward.ms_p50": _p50(per_call["lstm_core.network_backward"]),
        "lstm_core.step_gflop": gflop(step),
        "lstm_core.window_gflop": gflop(lstm_gemms(config, 1, window)),
        "lstm_core.op_gflop": op_gflop,
        "lstm_core.gemm_rate_gflops": op_gflop / (floor_ms / 1e3) if floor_ms else 0.0,
        "lstm_core.gemm_floor_ms": floor_ms,
        "lstm_core.achieved_gflops": op_gflop / (lstm_ms / 1e3) if lstm_ms else 0.0,
        "lstm_core.cache_mb": cache_mb(*largest) if largest else 0.0,
        "lstm_core.forward_peak_mb": forward_peak_mb,
        "training.adam_step.ms_p50": _p50(per_call["training.adam_step"]),
        "training.step_other_ms_p50": _p50(_step_other_ms(spans, dur, children)),
        "cli.load_series.distinct_ratio": _p50(_sweep_distinct_ratios(tracer)),
        "trace.overhead_frac": overhead_frac,
    }
    # The rest are per-operation sums of span times, call counts and counters.
    for name, _ in PER_LAYER:
        if name not in metrics:
            metrics[name] = op_median(name)
    return {name: metrics[name] for name, _ in PER_LAYER}

"""Mutation checks: one-line changes to src/seqcast that the tests must catch.

    python tests/mutants.py

copies src/, tests/ and pyproject.toml to a temporary directory, and for each mutant
in MUTANTS writes its one change into the copy, runs the mutant's tests there with
`pytest -x`, prints KILLED with the first failing test or SURVIVED, and restores
the file. It ends with one summary line, and exits 1 if a mutant survived. A
mutant that outlives its time limit counts as killed, and says so. It uses the
standard library and pytest only; a full run takes a couple of minutes.

Each mutant's old text must occur exactly once in its file, which
tests/test_mutants.py checks in tier-1 without running any mutant: a change that
moves the code must update the list here, not drop a mutant silently.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIME_LIMIT = 300  # seconds a mutant's tests may take


class Mutant(NamedTuple):
    file: str  # under src/seqcast
    old: str  # occurs exactly once in the file
    new: str
    label: str
    tests: tuple[str, ...]  # pytest arguments: files or node ids


CORE, EVAL, TRAIN = "tests/test_lstm_core.py", "tests/test_evaluate.py", "tests/test_training.py"
MANIFEST = "tests/test_manifest.py"
MARKET, PREP, CLI = "tests/test_market_data.py", "tests/test_preprocess.py", "tests/test_cli.py"
GOLDEN = ("tests/test_golden.py",)
ORACLE = (
    f"{CORE}::test_forward_matches_oracle_in_both_modes",
    f"{CORE}::test_backward_matches_exact_oracle",
)

# network_forward's dropout draw and its stages, for a mutant that swaps the two
DRAW = """    for rate, mask in zip(rates, frame.masks):  # every mask first, in layer order
        if mask is not None:
            np.greater_equal(rng.random(out=mask), rate, out=mask)
            np.divide(mask, 1.0 - rate, out=mask)
"""
STAGES = """    layers, cut = list(zip(params.layers, frame.layers)), frame.cut
    stages = [(layers, x, None, None)]
    if frame.piped:  # layers below the cut on one thread, the rest on the other
        from queue import SimpleQueue  # loaded only where a frame gets the worker
        ready, h = SimpleQueue(), frame.layers[cut - 1].h
        stages = [(layers[:cut], x, None, ready), (layers[cut:], h, ready, None)]
    _fork(_stage, stages, frame.piped)
"""

# _layer_backward's time loop, beside the lower layers' factors, and the top layer's copies
LOOP = "    _fork(_bptt, [(factored, lc, w_h, d_last)] + [(beside,)] * bool(beside), forked)\n"
COPIES = """    # dW, db and dX over gate-major copies G of da and Z of z, part by part
    _fork(np.copyto, lc.copies, forked)
"""

MUTANTS = [
    # lstm_core: the fork-join and its gate
    Mutant(
        "lstm_core.py", "future.result()", "future.done()",
        "_fork drops the worker's exception",
        (f"{CORE}::test_a_worker_exception_is_raised_by_network_backward",
         f"{EVAL}::test_a_worker_exception_is_raised_by_predict_series"),
    ),
    Mutant(
        "lstm_core.py", "threaded and len(parts) > 1", "threaded and len(parts) > 0",
        "_fork starts its worker for one part",
        (f"{CORE}::test_an_inference_call_of_one_chunk_starts_no_thread",),
    ),
    Mutant(
        "lstm_core.py", "results[k] = fn(*part)", "results[k - 1] = fn(*part)",
        "_fork returns its results out of part order",
        (f"{EVAL}::test_predict_series_persistence_stub",),
    ),
    Mutant(
        "lstm_core.py", "= 50, 4 * 10**7", "= 50, 4 * 10**6",
        "the backward's work gate a tenth as high",
        (f"{CORE}::test_each_worker_gate_of_a_frame_at_its_edge",),
    ),
    Mutant(
        "lstm_core.py",
        "wide = min(h for h, _ in sizes) >= _THREADS_MIN_UNITS",
        "wide = max(h for h, _ in sizes) >= _THREADS_MIN_UNITS",
        "the frame's width gate reads the widest layer",
        (f"{CORE}::test_each_worker_gate_of_a_frame_at_its_edge",),
    ),
    Mutant(
        "lstm_core.py", "if cpus < 2 * blas:", "if cpus < blas:",
        "a worker where BLAS threads fill every core",
        (f"{CORE}::test_workers_are_the_cores_blas_leaves_free",),
    ),
    # lstm_core: the kept worker
    Mutant(
        "lstm_core.py", "@functools.cache\n", "@functools.lru_cache(maxsize=0)\n",
        "the worker decided, and an executor built, on every call",
        (f"{CORE}::test_a_training_run_and_its_predictions_start_one_thread_at_most",),
    ),
    Mutant(
        "lstm_core.py", "    os.register_at_fork(after_in_child=_worker.cache_clear)\n", "    pass\n",
        "a forked child keeps its parent's executor, whose thread it does not have",
        (f"{CORE}::test_a_forked_child_decides_its_own_worker",),
    ),
    Mutant(
        "lstm_core.py",
        "        if hid >= _THREADS_MIN_UNITS:\n",
        "        if hid >= _THREADS_MIN_UNITS and _worker() is not None:\n",
        "a layer's backward parts, and so its GEMMs, depend on whether the worker runs",
        (f"{MANIFEST}::test_the_worker_changes_no_byte_of_the_wide_and_paper_cases",),
    ),
    # lstm_core: the lower layers' factors beside the top layer's loop
    Mutant(
        "lstm_core.py",
        "at = [blocks[-1] * self.forked] * (len(sizes) - 1) + [0]",
        "at = [0] * len(sizes)",
        "the lower layers' factor blocks at the top layer's offset 0 in work",
        (f"{CORE}::test_every_cached_view_shares_memory_only_with_its_own_frame",),
    ),
    Mutant(
        "lstm_core.py", "at = [blocks[-1] * self.forked]", "at = [blocks[-1] * wide]",
        "a second factor region for a frame under the backward's work gate",
        (f"{CORE}::test_the_backward_scratch_of_these_frames_keeps_its_size",),
    ),
    Mutant(
        "lstm_core.py", LOOP + COPIES, COPIES + LOOP,
        "a layer's copies made before its time loop and, on top, the lower factors' join",
        (f"{CORE}::test_backward_in_parts_matches_exact_oracle",),
    ),
    # lstm_core: the two-stage forward
    Mutant(
        "lstm_core.py", "self.cut = min(range(1, len(sizes)),", "self.cut = min(range(1, len(sizes) - 1),",
        "the forward's cut one layer lower in the paper stack",
        (f"{CORE}::test_threaded_forward_gives_the_serial_bytes",),
    ),
    Mutant(
        "lstm_core.py", "if after is not None and not after.get():", "if after is not None and not after:",
        "the stage above does not wait for its block",
        (f"{CORE}::test_each_block_of_the_stage_above_waits_for_the_stage_below",),
    ),
    Mutant(
        "lstm_core.py", DRAW + STAGES, STAGES + DRAW,
        "a layer steps before its mask is drawn",
        ORACLE,
    ),
    Mutant(
        "lstm_core.py", "_INFER_CHUNK = 120", "_INFER_CHUNK = 128",
        "inference chunks of 128 windows",
        (f"{EVAL}::test_predict_series_persistence_stub",),
    ),
    Mutant(
        "lstm_core.py", "if 0 in arr.shape[:2]:", "if 0 in arr.shape[1:2]:",
        "an empty batch is not refused",
        (f"{CORE}::test_network_forward_shape_errors",),
    ),
    # lstm_core: the numerics
    Mutant(
        "lstm_core.py", "np.add(fi, _ONE, fi)", "np.subtract(fi, _ONE, fi)",
        "sigmoid of the f and i gates is wrong",
        ORACLE,
    ),
    Mutant(
        "lstm_core.py", "np.divide(mask, 1.0 - rate, out=mask)", "np.multiply(mask, 1.0, out=mask)",
        "dropout is not inverted",
        (f"{CORE}::test_dropout_train_frequency_and_scaling",),
    ),
    Mutant(
        "lstm_core.py", "lc.dx_seq *= lc.mask_in", "lc.dx_seq *= 1.0",
        "dX skips the dropout of the layer below",
        ORACLE,
    ),
    Mutant(
        "lstm_core.py",
        "        if t:\n            np.matmul(w_h, gt, dh)",
        "        if t > 1:\n            np.matmul(w_h, gt, dh)",
        "BPTT drops the recurrent gradient into step 0",
        ORACLE,
    ),
    Mutant(
        "lstm_core.py", "        layer.b[:hid] = 1.0\n", "        layer.b[:hid] = 0.0\n",
        "forget bias initialised to 0",
        (f"{CORE}::test_init_bias_rule",),
    ),
    Mutant(
        "lstm_core.py", "    cache.frame = None\n", "    cache.frame = frame\n",
        "a cache survives its backward",
        (CORE,),
    ),
    # training
    Mutant(
        "training.py",
        "squared_sum += mse_loss(pset) * len(idx)",
        "squared_sum += mse_loss(pset) * batch_size",
        "the epoch loss weights the short last batch by the batch size",
        (f"{TRAIN}::test_epoch_loss_weights_the_short_last_batch_by_its_size",),
    ),
    Mutant(
        "training.py", "np.divide(v, bc2, out=denom)", "np.divide(v, bc1, out=denom)",
        "Adam corrects v by beta1's bias",
        (TRAIN,),
    ),
    Mutant(
        "training.py", "order = rng.permutation(n)", "order = np.arange(n)",
        "training never shuffles",
        GOLDEN,
    ),
    Mutant(
        "training.py", "return float(np.max(errors))", "return float(max(errors))",
        "gradcheck's max passes over a NaN",
        (f"{TRAIN}::test_gradcheck_reports_nan_when_only_a_later_probe_is_not_finite",),
    ),
    Mutant(
        "training.py",
        "return (2.0 / p.n) * (p.y_hat - p.y)",
        "return (1.0 / p.n) * (p.y_hat - p.y)",
        "the MSE gradient is halved",
        (f"{TRAIN}::test_mse_grad_hand_cases",),
    ),
    # evaluate
    Mutant(
        "evaluate.py",
        "keep = np.abs(p.y) >= _MAPE_THRESHOLD",
        "keep = np.abs(p.y) > _MAPE_THRESHOLD",
        "MAPE drops an actual exactly at its threshold",
        (f"{EVAL}::test_mape_keeps_an_actual_exactly_at_its_threshold",),
    ),
    Mutant(
        "evaluate.py", "total = p.y - p.y.mean()", "total = p.y - p.y_hat.mean()",
        "R² centres the actuals on the predictions' mean",
        (EVAL,),
    ),
    Mutant(
        "evaluate.py", "scaled_pred[:, 0]", "scaled_pred[::-1, 0]",
        "predictions are paired with the wrong days",
        (f"{EVAL}::test_predict_series_persistence_stub",),
    ),
    # preprocess
    Mutant(
        "preprocess.py", "arr[window:].copy()", "arr[window - 1 : -1].copy()",
        "the target is the window's last input",
        (PREP,),
    ),
    Mutant(
        "preprocess.py", "if tail.size != window:", "if tail.size < window:",
        "a train tail longer than the window is accepted",
        (PREP,),
    ),
    Mutant(
        "preprocess.py", "return (arr - params.min_value) / (params.max_value - params.min_value)",
        "return (arr - params.min_value) / params.max_value",
        "min-max scaling divides by the maximum",
        (PREP,),
    ),
    # market_data
    Mutant(
        "market_data.py", "series.adj_close if adjusted else series.close",
        "series.close if adjusted else series.close",
        "an adjusted run drops rows by the close",
        (MARKET,),
    ),
    Mutant(
        "market_data.py",
        "cut = math.floor(ratio * len(series))",
        "cut = math.ceil(ratio * len(series))",
        "the split rounds the train share up",
        (MARKET,),
    ),
    Mutant(
        "market_data.py",
        'order = np.argsort(day_array, kind="stable")',
        "order = np.arange(len(day_array))",
        "parsed rows stay in file order",
        (MARKET,),
    ),
    Mutant(
        "market_data.py",
        "next(islice(ahead, n - 1, None), None)",
        "next(islice(ahead, n, None), None)",
        "moving averages of n + 1 values",
        (MARKET,),
    ),
    Mutant(
        "market_data.py", "return value if math.isfinite(value) else math.nan", "return value",
        "an infinite price cell is kept",
        (MARKET,),
    ),
    # checkpoint
    Mutant(
        "checkpoint.py",
        'if doc.get("version") != FORMAT_VERSION:',
        'if doc.get("version") is None:',
        "a checkpoint of another version loads",
        ("tests/test_checkpoint.py",),
    ),
    Mutant(
        "checkpoint.py", "if not np.isfinite(block).all():", "if not np.isfinite(block).any():",
        "a checkpoint with a NaN among finite values loads",
        ("tests/test_checkpoint.py", CLI),
    ),
    # chart
    Mutant(
        "chart.py", "{escape(title, quote=False)}", "{title}",
        "the chart title is not escaped",
        ("tests/test_chart.py",),
    ),
    Mutant(
        "chart.py", "_MARGIN_TOP + plot_h * (1.0 - (v - lo) / (hi - lo))",
        "_MARGIN_TOP + plot_h * (v - lo) / (hi - lo)",
        "the chart is drawn upside down",
        ("tests/test_chart.py",),
    ),
    # cli
    Mutant(
        "cli.py",
        'r["r_squared"] for r in rows) / len(rows)',
        'r["r_squared"] for r in rows) / len(cfg.symbols)',
        "the sweep's mean R² counts failed symbols",
        (f"{CLI}::test_sweep_mean_is_over_the_scored_symbols_only",),
    ),
    Mutant(
        "cli.py", "    scaler = fit_scaler(train_close)\n",
        "    scaler = fit_scaler(np.append(train_close, split.test.closes(cfg.use_adj_close)))\n",
        "the scaler is fit on train and test",
        GOLDEN,
    ),
    Mutant(
        "cli.py", "bridge_test_windows(scaled_train[-cfg.window :], scaled_test",
        "bridge_test_windows(scaled_test[: cfg.window], scaled_test",
        "the test windows are bridged from the test head",
        GOLDEN,
    ),
    Mutant(
        "cli.py", '    del doc["out_dir"]\n', '    del doc["out_dir"], doc["seed"]\n',
        "the config hash leaves out the seed",
        (f"{CLI}::test_default_config_hash_is_pinned",),
    ),
    Mutant(
        "cli.py", "    return 1 if failures else 0\n", "    return 0\n",
        "a sweep with a failed symbol exits 0",
        (CLI,),
    ),
    # rng, the package and its entry point
    Mutant(
        "rng.py", "np.random.PCG64(seed)", "np.random.PCG64(seed + 1)",
        "a seed draws another stream",
        GOLDEN,
    ),
    Mutant(
        "__init__.py", '__version__ = "0.1.0"', '__version__ = "0.1.1"',
        "the package states a version pyproject.toml does not",
        ("tests/test_src_surface.py::test_the_package_states_the_version_pyproject_declares",),
    ),
    Mutant(
        "__main__.py", 'if __name__ == "__main__":', 'if __name__ == "seqcast.__main__":',
        "`python -m seqcast` runs nothing",
        (f"{CLI}::test_module_runs_gradcheck_without_installing",),
    ),
]

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run(mutant: Mutant, copy: Path) -> tuple[bool, str]:
    """(killed, detail): the mutant's tests run in `copy` with its change applied."""
    path = copy / "src" / "seqcast" / mutant.file
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(mutant.old, mutant.new, 1), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
    try:
        done = subprocess.run(
            argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIME_LIMIT
        )
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIME_LIMIT} s"
    finally:
        path.write_text(original, encoding="utf-8")
    if done.returncode == 0:
        return False, ""
    if done.returncode != 1:  # a usage error or no test collected: no test failed
        raise SystemExit(f"{mutant.label}: pytest exited {done.returncode}\n{done.stdout[-2000:]}")
    first = _FAILED.search(done.stdout)
    return True, first.group(1) if first else "a test failed"


def main() -> int:
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        for mutant in MUTANTS:
            killed, detail = run(mutant, copy)
            survived += not killed
            print(f"{'KILLED' if killed else 'SURVIVED':<9}{mutant.file}: {mutant.label}", end="")
            print(f" ({detail})" if detail else "", flush=True)
    print(f"{len(MUTANTS)} mutants: {len(MUTANTS) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

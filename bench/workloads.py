"""The benchmark's three workloads.

Each runs as a closed loop with one client: an operation starts when the
previous one has ended. The seed drives init_params and the shuffle/dropout
generator; the program sees only the config and the bundled fixtures, which
are all 2,863 rows long, so cost does not depend on the symbol.

A workload offers:

- setup(): fixture load, init_params/init_adam and a warm-up operation;
- run_op(): one timed operation, returning how many items it processed;
- check(): problems with the last operation's outputs (untimed);
- verify_once(): untimed checks made once per run;
- forward_probe(): one network_forward call made the way the workload makes it;
- shapes(): (network config, window, training batch) for the FLOP counts;
- yardstick: the kind of yardstick.Yardstick its times are scaled by.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import tempfile
from dataclasses import fields, is_dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np
from seqcast import checkpoint, cli, evaluate, lstm_core, market_data, preprocess, training
from seqcast.rng import make_rng

import reference

SYMBOL = "VNQ"
TRAIN_BATCH = 32
PREDICT_BATCH = 256  # evaluate.predict_series' default chunk
# A correct BPTT gives relative errors near 1e-5 at the paper architecture
# (max 3.5e-5 over seeds 0-19); a wrong gradient gives errors of order 1.
GRADCHECK_TOLERANCE = 1e-3
GRADCHECK_STEPS = 10
GRADCHECK_PROBES = 30
# Program and reference sum in different orders; float64 agrees to ~1e-14.
REFERENCE_RTOL = 1e-9
REFERENCE_SAMPLES = 8


def _arrays(obj):
    """Every numpy array reachable through dataclass fields, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


def _network(toy: bool) -> tuple[tuple[int, ...], tuple[float, ...], int]:
    """(layer units, dropout rates, window): the paper's, or a toy stack."""
    if toy:
        return (4, 4), (0.2, 0.3), 10
    return lstm_core.DEFAULT_LAYER_UNITS, lstm_core.DEFAULT_DROPOUT_RATES, 100


def _split(cfg: cli.RunConfig) -> market_data.SplitResult:
    cleaned, _ = market_data.drop_missing(cli.load_series(cfg, SYMBOL))
    return market_data.chronological_split(cleaned, cfg.split_ratio)


class TrainPaper:
    """Repeated forward(train) -> mse_grad -> backward -> Adam steps on VNQ."""

    name = "train-paper"
    item = "samples"
    yardstick = "gemm"
    aliases = {
        "train_samples_per_s": ("norm_items_per_s", 1.0, "1/s"),
        "train_step_ms_p50": ("norm_op_ms_p50", 1.0, "ms"),
        "train_step_ms_tail": ("norm_op_ms_tail", 1.0, "ms"),
    }

    def __init__(self, seed: int, toy: bool, workdir: Path) -> None:
        self.seed = seed
        self.units, self.rates, self.window = _network(toy)
        self.batch = 8 if toy else TRAIN_BATCH

    def setup(self) -> None:
        split = _split(cli.RunConfig(symbols=(SYMBOL,), window=self.window))
        train_close = split.train.closes()
        scaler = preprocess.fit_scaler(train_close)
        self.data = preprocess.make_windows(preprocess.transform(scaler, train_close), self.window)
        self.net = lstm_core.NetworkConfig(
            layer_units=self.units, dropout_rates=self.rates, seed=self.seed
        )
        self.params = lstm_core.init_params(self.net)
        self.adam = training.init_adam(self.params)
        self.rng = make_rng(self.seed)
        self.order = np.empty(0, dtype=np.int64)
        self.run_op()

    def _next_batch(self) -> np.ndarray:
        # Epoch shuffles come from the generator that also draws the dropout
        # masks, as in training.train; the short last batch of an epoch is
        # skipped so that every step does the same work.
        if self.order.size < self.batch:
            self.order = self.rng.permutation(self.data.n_samples)
        idx, self.order = self.order[: self.batch], self.order[self.batch :]
        return idx

    def run_op(self) -> int:
        idx = self._next_batch()
        pred, cache = lstm_core.network_forward(
            self.params, self.net, self.data.inputs[idx], mode="train", rng=self.rng
        )
        pset = training.PredictionSet(y=self.data.targets[idx], y_hat=pred[:, 0])
        self.loss = training.mse_loss(pset)
        grads = lstm_core.network_backward(self.params, self.net, cache, training.mse_grad(pset))
        self.params, self.adam = training.adam_step(self.adam, self.params, grads)
        return len(idx)

    def check(self) -> list[str]:
        problems = []
        if not math.isfinite(self.loss):
            problems.append(f"non-finite loss {self.loss}")
        if not all(np.isfinite(a).all() for a in _arrays(self.params)):
            problems.append("non-finite parameter after the Adam step")
        return problems

    def verify_once(self) -> list[str]:
        params = lstm_core.init_params(self.net)
        idx = make_rng(self.seed).choice(self.data.n_samples, size=2, replace=False)
        err = training.finite_diff_gradcheck(
            params,
            self.net,
            self.data.inputs[idx, -GRADCHECK_STEPS:],
            self.data.targets[idx],
            probe_count=GRADCHECK_PROBES,
            seed=self.seed,
        )
        if err < GRADCHECK_TOLERANCE:
            return []
        return [f"gradcheck max relative error {err:.3e} >= {GRADCHECK_TOLERANCE:g}"]

    def forward_probe(self) -> None:
        lstm_core.network_forward(
            self.params, self.net, self.data.inputs[: self.batch], mode="train", rng=make_rng(0)
        )

    def shapes(self) -> tuple:
        return self.net, self.window, self.batch


class EvaluatePaper:
    """Repeated predict_series over VNQ's bridged test windows, then compute_metrics."""

    name = "evaluate-paper"
    item = "windows"
    yardstick = "gemm"
    aliases = {"eval_windows_per_s": ("norm_items_per_s", 1.0, "1/s")}

    def __init__(self, seed: int, toy: bool, workdir: Path) -> None:
        self.seed = seed
        self.units, self.rates, self.window = _network(toy)

    def setup(self) -> None:
        split = _split(cli.RunConfig(symbols=(SYMBOL,), window=self.window))
        self.scaler = preprocess.fit_scaler(split.train.closes())
        scaled_train = preprocess.transform(self.scaler, split.train.closes())
        scaled_test = preprocess.transform(self.scaler, split.test.closes())
        self.windows = preprocess.bridge_test_windows(
            scaled_train[-self.window :], scaled_test, self.window, dates=split.test.dates()
        )
        # Untrained weights cost the same to run as trained ones.
        self.net = lstm_core.NetworkConfig(
            layer_units=self.units, dropout_rates=self.rates, seed=self.seed
        )
        self.params = lstm_core.init_params(self.net)
        self.run_op()

    def run_op(self) -> int:
        self.pset, _ = evaluate.predict_series(self.params, self.net, self.scaler, self.windows)
        self.report = evaluate.compute_metrics(self.pset)
        return self.pset.n

    def verify_once(self) -> list[str]:
        """Reference predictions, in price units, for a seeded sample of windows."""
        ckpt = checkpoint.Checkpoint(
            params=self.params,
            config=self.net,
            scaler=self.scaler,
            seed=self.seed,
            window=self.window,
            symbol=SYMBOL,
        )
        doc = json.loads(checkpoint.checkpoint_bytes(ckpt))
        n = self.windows.n_samples
        sample = make_rng(self.seed).choice(n, size=min(REFERENCE_SAMPLES, n), replace=False)
        self.sample = sorted(set(sample.tolist()) | {n - 1})
        lo, hi = doc["scaler"]["min_value"], doc["scaler"]["max_value"]
        self.price_range = hi - lo
        scaled = reference.predict(doc, self.windows.inputs[self.sample])
        self.expected = scaled * self.price_range + lo
        return []

    def check(self) -> list[str]:
        y_hat = self.pset.y_hat
        problems = []
        if y_hat.shape != (self.windows.n_samples,) or not np.isfinite(y_hat).all():
            problems.append(f"predictions not finite or wrong shape {y_hat.shape}")
        values = [getattr(self.report, f.name) for f in fields(self.report)]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite metric in {self.report}")
        if not np.allclose(
            y_hat[self.sample],
            self.expected,
            rtol=REFERENCE_RTOL,
            atol=REFERENCE_RTOL * self.price_range,
        ):
            worst = np.max(np.abs(y_hat[self.sample] - self.expected))
            problems.append(f"predictions differ from the reference forward by {worst:.3e}")
        return problems

    def forward_probe(self) -> None:
        lstm_core.network_forward(
            self.params, self.net, self.windows.inputs[:PREDICT_BATCH], mode="inference"
        )

    def shapes(self) -> tuple:
        return self.net, self.window, TRAIN_BATCH


class PipelineTiny:
    """cmd_ingest then cmd_sweep into a fresh out-dir, one fixture symbol per
    operation, taking the nine symbols in turn.

    The config is the CLI's `--units 8,8 --window 20 --epochs 1`, which also
    resets dropout to zero. The sweep handles symbols one after another, so
    a symbol costs the same alone as inside a nine-symbol call. A
    nine-symbol operation takes about 5 s, and on a shared host its time
    varies by up to 2x within a run, so half a minute holds too few of them
    for a steady median; one symbol per operation gives about fifty.
    """

    name = "pipeline-tiny"
    item = "symbols"
    yardstick = "overhead"
    aliases = {"pipeline_symbol_s_p50": ("norm_op_ms_p50", 1e-3, "s")}

    def __init__(self, seed: int, toy: bool, workdir: Path) -> None:
        self.seed = seed
        self.units = (4,) if toy else (8, 8)
        self.window = 10 if toy else 20
        self.symbol_count = 2 if toy else None
        self.workdir = workdir
        self.out: Path | None = None

    def setup(self) -> None:
        fixtures = resources.files("seqcast").joinpath("fixtures")
        symbols = sorted(p.name[: -len(".csv")] for p in fixtures.iterdir() if p.name.endswith(".csv"))
        self.symbols = tuple(symbols[: self.symbol_count])
        self.turn = 0
        self.cfg = cli.RunConfig(
            symbols=self.symbols[:1],
            layer_units=self.units,
            dropout_rates=(0.0,) * len(self.units),
            window=self.window,
            epochs=1,
            seed=self.seed,
        )
        self.run_op()
        self._clean()

    def _pipeline(self, cfg: cli.RunConfig) -> int:
        self.codes = None
        self.out = Path(tempfile.mkdtemp(prefix="pipeline-", dir=self.workdir))
        self.last_cfg = cfg = replace(cfg, out_dir=str(self.out))
        sink = io.StringIO()
        self.codes = (cli.cmd_ingest(cfg, stdout=sink), cli.cmd_sweep(cfg, stdout=sink))
        return len(cfg.symbols)

    def run_op(self) -> int:
        symbol = self.symbols[self.turn % len(self.symbols)]
        self.turn += 1
        return self._pipeline(replace(self.cfg, symbols=(symbol,)))

    def check(self) -> list[str]:
        if self.out is None:
            return ["no operation ran"]
        try:
            return self._problems(self.last_cfg, self.out)
        finally:
            self._clean()

    def _clean(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out = None

    def _problems(self, cfg: cli.RunConfig, out: Path) -> list[str]:
        problems = []
        if self.codes != (0, 0):
            problems.append(f"ingest/sweep returned {self.codes}")
        sweeps = list(out.glob("sweep-*.json"))
        if len(sweeps) != 1:
            problems.append(f"{len(sweeps)} sweep summaries")
        else:
            doc = json.loads(sweeps[0].read_text(encoding="utf-8"))
            reported = sorted(r["symbol"] for r in doc["reports"])
            if reported != sorted(cfg.symbols) or doc["failures"]:
                problems.append(f"sweep reports {reported}, failures {doc['failures']}")
        missing = [s for s in cfg.symbols if not (out / f"{s}-cleaned.csv").is_file()]
        if missing:
            problems.append(f"no cleaned CSV for {missing}")
        ckpts = sorted(out.glob("*.ckpt.json"))
        if len(ckpts) != len(cfg.symbols):
            problems.append(f"{len(ckpts)} checkpoints for {len(cfg.symbols)} symbols")
        for path in ckpts:
            if checkpoint.checkpoint_bytes(checkpoint.load_checkpoint(path)) != path.read_bytes():
                problems.append(f"{path.name} does not reload to identical bytes")
        return problems

    def verify_once(self) -> list[str]:
        return []

    def forward_probe(self) -> None:
        batch = make_rng(self.seed).random((PREDICT_BATCH, self.window, 1))
        net = self.cfg.network_config()
        lstm_core.network_forward(lstm_core.init_params(net), net, batch, mode="inference")

    def shapes(self) -> tuple:
        return self.cfg.network_config(), self.window, TRAIN_BATCH


WORKLOADS = {w.name: w for w in (TrainPaper, EvaluatePaper, PipelineTiny)}

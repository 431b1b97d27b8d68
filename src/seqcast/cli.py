"""Batch CLI: ingest -> train -> evaluate -> sweep, plus a gradcheck diagnostic.

A run is described by a JSON config file; command-line flags override file
values, and every output filename embeds the symbol plus a hash of the
resolved config so runs cannot mix. Re-running a command with the same
config and seed rewrites identical outputs (modulo wall-clock fields in the
training log).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from datetime import date
from importlib import resources
from pathlib import Path

import numpy as np

from .chart import render_price_chart
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .evaluate import compute_metrics, predict_series, report_as_dict
from .lstm_core import (
    DEFAULT_DROPOUT_RATES,
    DEFAULT_LAYER_UNITS,
    NetworkConfig,
    init_params,
    network_forward,
)
from .market_data import (
    PriceSeries,
    chronological_split,
    drop_missing,
    fetch_remote,
    parse_csv,
    sma,
)
from .preprocess import bridge_test_windows, fit_scaler, make_windows, transform
from .rng import make_rng
from .training import EpochLog, TrainConfig, finite_diff_gradcheck, train

DATA_DIR_ENV = "SEQCAST_DATA_DIR"
SMA_WINDOWS = (100, 200)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; serializable, hashable, overridable by flags."""

    symbols: tuple[str, ...] = ("VNQ",)
    data_path: str | None = None  # explicit CSV file; bypasses fixtures/endpoint
    endpoint: str | None = None  # HTTP template with {symbol}/{start}/{end}
    start: str = "2012-01-01"
    end: str = "2022-12-21"
    split_ratio: float = 0.8
    window: int = 100
    use_adj_close: bool = False
    layer_units: tuple[int, ...] = DEFAULT_LAYER_UNITS
    dropout_rates: tuple[float, ...] = DEFAULT_DROPOUT_RATES
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    clip_norm: float | None = None
    seed: int = 42
    out_dir: str = "runs"
    mape_threshold: float = 1e-8

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "layer_units", tuple(int(u) for u in self.layer_units))
        object.__setattr__(self, "dropout_rates", tuple(float(r) for r in self.dropout_rates))

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(
            layer_units=self.layer_units,
            dropout_rates=self.dropout_rates,
            input_features=1,
            seed=self.seed,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            shuffle_seed=self.seed,
            clip_norm=self.clip_norm,
        )


def config_to_dict(cfg: RunConfig) -> dict:
    doc = asdict(cfg)
    doc["symbols"] = list(cfg.symbols)
    doc["layer_units"] = list(cfg.layer_units)
    doc["dropout_rates"] = list(cfg.dropout_rates)
    return doc


def config_from_dict(doc: dict) -> RunConfig:
    known = {f for f in RunConfig.__dataclass_fields__}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**doc)


def load_config_file(path: str | Path) -> RunConfig:
    return config_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def dump_config(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]


def _fixture_text(symbol: str) -> str:
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        return (Path(env_dir) / f"{symbol}.csv").read_text(encoding="utf-8")
    ref = resources.files("seqcast").joinpath(f"fixtures/{symbol}.csv")
    return ref.read_text(encoding="utf-8")


def load_series(cfg: RunConfig, symbol: str) -> PriceSeries:
    """Resolve data: explicit file > remote endpoint > bundled/env fixtures."""
    if cfg.data_path:
        text = Path(cfg.data_path).read_text(encoding="utf-8")
    elif cfg.endpoint:
        text = fetch_remote(cfg.endpoint, symbol, cfg.start, cfg.end)
    else:
        text = _fixture_text(symbol)
    series = parse_csv(text, symbol)
    lo, hi = date.fromisoformat(cfg.start), date.fromisoformat(cfg.end)
    bars = tuple(b for b in series.bars if lo <= b.date <= hi)
    return PriceSeries(symbol=symbol, bars=bars)


def _out_path(cfg: RunConfig, symbol: str, suffix: str) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{symbol}-{config_hash(cfg)}{suffix}"


def cmd_ingest(cfg: RunConfig, stdout=sys.stdout) -> int:
    """Clean each symbol and write date,close,sma100,sma200 CSVs."""
    for symbol in cfg.symbols:
        series = load_series(cfg, symbol)
        cleaned, dropped = drop_missing(series)
        closes = cleaned.closes(adjusted=cfg.use_adj_close)
        columns = {}
        for n in SMA_WINDOWS:
            values = sma(closes, n) if len(cleaned) >= n else np.empty(0)
            # first n-1 rows have no defined average: empty cells, never zeros
            columns[n] = [""] * (len(cleaned) - len(values)) + [repr(v) for v in values]
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{symbol}-cleaned.csv"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["date", "close"] + [f"sma{n}" for n in SMA_WINDOWS])
        for k, bar in enumerate(cleaned.bars):
            writer.writerow(
                [bar.date.isoformat(), repr(float(closes[k]))]
                + [columns[n][k] for n in SMA_WINDOWS]
            )
        path.write_text(buf.getvalue(), encoding="utf-8")
        print(
            f"symbol={symbol} rows_kept={len(cleaned)} rows_dropped={dropped} wrote={path}",
            file=stdout,
        )
    return 0


def _open_log(log_out: str | None):
    """The --log-out JSONL file, truncated once per command; a null context without one."""
    return open(log_out, "w", encoding="utf-8") if log_out else contextlib.nullcontext()


def _train_one(
    cfg: RunConfig, symbol: str, stdout, log_file
) -> tuple[Checkpoint, list[EpochLog]]:
    series = load_series(cfg, symbol)
    cleaned, dropped = drop_missing(series)
    split = chronological_split(cleaned, cfg.split_ratio)
    train_close = split.train.closes(adjusted=cfg.use_adj_close)
    scaler = fit_scaler(train_close)
    dataset = make_windows(transform(scaler, train_close), cfg.window)
    net_cfg = cfg.network_config()
    params = init_params(net_cfg)

    def progress(log: EpochLog) -> None:
        print(
            f"epoch={log.epoch} loss={log.loss:.8f} seconds={log.seconds:.3f}",
            file=stdout,
            flush=True,
        )
        if log_file is not None:
            record = {"epoch": log.epoch, "loss": log.loss, "seconds": log.seconds}
            log_file.write(json.dumps({"symbol": symbol, **record}) + "\n")
            log_file.flush()

    params, logs = train(params, net_cfg, dataset, cfg.train_config(), progress=progress)
    ckpt = Checkpoint(
        params=params,
        config=net_cfg,
        scaler=scaler,
        seed=cfg.seed,
        window=cfg.window,
        symbol=symbol,
    )
    return ckpt, logs


def cmd_train(cfg: RunConfig, stdout=sys.stdout, log_out: str | None = None) -> int:
    with _open_log(log_out) as log_file:
        for symbol in cfg.symbols:
            ckpt, _ = _train_one(cfg, symbol, stdout, log_file)
            path = _out_path(cfg, symbol, ".ckpt.json")
            save_checkpoint(path, ckpt)
            print(f"symbol={symbol} checkpoint={path}", file=stdout)
    return 0


def _evaluate_one(cfg: RunConfig, symbol: str, ckpt: Checkpoint, stdout) -> dict:
    if ckpt.window != cfg.window:
        raise CheckpointError(
            f"checkpoint window {ckpt.window} does not match config window {cfg.window}"
        )
    if ckpt.symbol != symbol:
        raise CheckpointError(
            f"checkpoint was trained on {ckpt.symbol}, refusing to score {symbol} with it"
        )
    series = load_series(cfg, symbol)
    cleaned, _ = drop_missing(series)
    split = chronological_split(cleaned, cfg.split_ratio)
    scaled_train = transform(ckpt.scaler, split.train.closes(adjusted=cfg.use_adj_close))
    scaled_test = transform(ckpt.scaler, split.test.closes(adjusted=cfg.use_adj_close))
    windows = bridge_test_windows(
        scaled_train[-cfg.window :], scaled_test, cfg.window, dates=split.test.dates()
    )
    pset, dates = predict_series(ckpt.params, ckpt.config, ckpt.scaler, windows)
    report = compute_metrics(pset, mape_threshold=cfg.mape_threshold)
    doc = report_as_dict(report, symbol=symbol, window=cfg.window, config_hash=config_hash(cfg))

    metrics_path = _out_path(cfg, symbol, ".metrics.json")
    metrics_path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    pred_path = _out_path(cfg, symbol, ".predictions.csv")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["date", "actual", "predicted"])
    labels = dates if dates is not None else range(pset.n)
    for label, actual, predicted in zip(labels, pset.y, pset.y_hat):
        writer.writerow([str(label), repr(float(actual)), repr(float(predicted))])
    pred_path.write_text(buf.getvalue(), encoding="utf-8")

    chart_path = _out_path(cfg, symbol, ".svg")
    chart_path.write_text(
        render_price_chart(dates, pset.y, pset.y_hat, title=f"{symbol} actual vs predicted"),
        encoding="utf-8",
    )
    print(
        f"symbol={symbol} r_squared={report.r_squared:.4f} rmse={report.rmse:.4f} "
        f"metrics={metrics_path}",
        file=stdout,
    )
    return doc


def cmd_evaluate(cfg: RunConfig, checkpoint_path: str | None = None, stdout=sys.stdout) -> int:
    for symbol in cfg.symbols:
        path = Path(checkpoint_path) if checkpoint_path else _out_path(cfg, symbol, ".ckpt.json")
        if not path.exists():
            print(f"error: checkpoint not found: {path}", file=sys.stderr)
            return 1
        ckpt = load_checkpoint(path)
        _evaluate_one(cfg, symbol, ckpt, stdout)
    return 0


def cmd_sweep(cfg: RunConfig, stdout=sys.stdout, log_out: str | None = None) -> int:
    """Train and evaluate every symbol independently; report the metric grid."""
    rows: list[dict] = []
    failures: dict[str, str] = {}
    with _open_log(log_out) as log_file:
        for symbol in cfg.symbols:
            try:
                ckpt, _ = _train_one(cfg, symbol, stdout, log_file)
                save_checkpoint(_out_path(cfg, symbol, ".ckpt.json"), ckpt)
                rows.append(_evaluate_one(cfg, symbol, ckpt, stdout))
            except Exception as exc:  # isolate per-symbol failures
                failures[symbol] = str(exc)
                print(f"symbol={symbol} FAILED: {exc}", file=sys.stderr)

    header = f"{'symbol':<8}{'rmse':>12}{'mae':>12}{'r_squared':>12}{'mape':>12}{'evs':>12}"
    print(header, file=stdout)
    for row in rows:
        print(
            f"{row['symbol']:<8}{row['rmse']:>12.4f}{row['mae']:>12.4f}"
            f"{row['r_squared']:>12.4f}{row['mape']:>12.4f}{row['explained_variance']:>12.4f}",
            file=stdout,
        )
    for symbol in failures:
        print(f"{symbol:<8}{'FAILED':>12}", file=stdout)
    if rows:
        mean_r2 = sum(r["r_squared"] for r in rows) / len(rows)
        print(f"{'mean':<8}{'':>36}{mean_r2:>12.4f}", file=stdout)
        summary = {
            "mean_r_squared": mean_r2,
            "reports": rows,
            "failures": failures,
        }
        sweep_path = Path(cfg.out_dir) / f"sweep-{config_hash(cfg)}.json"
        sweep_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        print(f"sweep={sweep_path}", file=stdout)
    return 1 if failures else 0


def cmd_gradcheck(
    cfg: RunConfig,
    probes: int = 50,
    step: float = 1e-5,
    batch_size: int = 2,
    timesteps: int = 5,
    tolerance: float | None = None,
    stdout=sys.stdout,
) -> int:
    """Finite-difference audit of the BPTT gradients at the configured architecture."""
    net_cfg = cfg.network_config()
    params = init_params(net_cfg)
    rng = make_rng(cfg.seed)
    x = rng.normal(size=(batch_size, timesteps, 1))
    pred, _ = network_forward(params, net_cfg, x, mode="inference")
    y = pred[:, 0] + 0.1 * rng.standard_normal(batch_size)
    err = finite_diff_gradcheck(
        params, net_cfg, x, y, probe_count=probes, step=step, seed=cfg.seed
    )
    print(f"max_relative_error={err:.3e} probes={probes} step={step:g}", file=stdout)
    if tolerance is not None and err >= tolerance:
        print(f"error: gradient check failed tolerance {tolerance:g}", file=sys.stderr)
        return 1
    return 0


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="seqcast", description="close-price forecasting pipeline"
    )
    parser.add_argument("--config", help="JSON run config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out-dir")
    parser.add_argument("--endpoint", help="HTTP CSV template with {symbol}/{start}/{end}")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--window", type=int)
    parser.add_argument(
        "--log-out", help="also write every symbol's training log to one JSON-lines file"
    )
    parser.add_argument("--symbols", help="comma-separated tickers")
    parser.add_argument("--data", help="explicit CSV file (single-symbol runs)")
    parser.add_argument("--start")
    parser.add_argument("--end")
    parser.add_argument("--split-ratio", type=float)
    parser.add_argument(
        "--units",
        help="comma-separated LSTM layer sizes (dropout resets to 0 unless --dropout given)",
    )
    parser.add_argument("--dropout", help="comma-separated dropout rates")
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--learning-rate", type=float)
    parser.add_argument("--use-adj-close", action="store_true", default=None)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", help="clean data and emit close/sma100/sma200 CSV")
    sub.add_parser("train", help="train and write a checkpoint")
    eval_parser = sub.add_parser("evaluate", help="metrics, predictions CSV, and chart")
    eval_parser.add_argument("--checkpoint", help="checkpoint path (default: derived from config)")
    sub.add_parser("sweep", help="train + evaluate every symbol and tabulate")
    grad_parser = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    grad_parser.add_argument("--probes", type=int, default=50)
    grad_parser.add_argument("--step", type=float, default=1e-5)
    grad_parser.add_argument("--batch-size-check", type=int, default=2)
    grad_parser.add_argument("--timesteps", type=int, default=5)
    grad_parser.add_argument("--tolerance", type=float)
    return parser.parse_args(argv)


def build_run_config(args) -> RunConfig:
    cfg = load_config_file(args.config) if args.config else RunConfig()
    overrides: dict = {}
    if args.symbols is not None:
        overrides["symbols"] = tuple(s.strip() for s in args.symbols.split(",") if s.strip())
    if args.data is not None:
        overrides["data_path"] = args.data
    if args.endpoint is not None:
        overrides["endpoint"] = args.endpoint
    if args.start is not None:
        overrides["start"] = args.start
    if args.end is not None:
        overrides["end"] = args.end
    if args.split_ratio is not None:
        overrides["split_ratio"] = args.split_ratio
    if args.window is not None:
        overrides["window"] = args.window
    if getattr(args, "units", None) is not None:
        overrides["layer_units"] = tuple(int(u) for u in args.units.split(","))
    if args.dropout is not None:
        overrides["dropout_rates"] = tuple(float(r) for r in args.dropout.split(","))
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if args.learning_rate is not None:
        overrides["learning_rate"] = args.learning_rate
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.use_adj_close is not None:
        overrides["use_adj_close"] = args.use_adj_close
    if overrides:
        cfg = replace(cfg, **overrides)
    if "layer_units" in overrides and "dropout_rates" not in overrides:
        # keep the config valid when only the stack size changes
        if len(cfg.layer_units) != len(cfg.dropout_rates):
            cfg = replace(cfg, dropout_rates=(0.0,) * len(cfg.layer_units))
    return cfg


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    try:
        cfg = build_run_config(args)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "train":
            return cmd_train(cfg, log_out=args.log_out)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, checkpoint_path=args.checkpoint)
        if args.command == "sweep":
            return cmd_sweep(cfg, log_out=args.log_out)
        if args.command == "gradcheck":
            return cmd_gradcheck(
                cfg,
                probes=args.probes,
                step=args.step,
                batch_size=args.batch_size_check,
                timesteps=args.timesteps,
                tolerance=args.tolerance,
            )
        raise AssertionError(f"unhandled command {args.command}")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

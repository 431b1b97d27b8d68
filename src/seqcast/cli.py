"""Batch CLI: ingest -> train -> evaluate -> sweep, plus a gradcheck diagnostic.

Every run setting is a RunConfig field, and every field has a flag. A JSON
config file (`--config`) is another way to set those flags: its keys are field
names, and a flag given beside it wins. The program reads local files only: a
symbol's prices come from the `--data` CSV file or `<SYMBOL>.csv` in the
`--data` directory, and without `--data` from the package's bundled
`fixtures/`. Every output filename but the sweep summary's `sweep-<hash>.json`
embeds the symbol; all but ingest's `<symbol>-cleaned.csv` embed a hash of the
resolved config, so training runs cannot mix. The hash covers the data path
(`data/` and `./data` hash as `data`) but not the out-dir, which every output
lives in already. The out-dir is created by the first file written. Re-running
a command with the same config and seed at the same BLAS thread count rewrites
identical outputs (modulo wall-clock fields in the training log); another
thread count can round a trained model's GEMMs differently.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import date
from importlib import resources
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .chart import render_price_chart
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .evaluate import compute_metrics, predict_series
from .lstm_core import (
    DEFAULT_DROPOUT_RATES,
    DEFAULT_LAYER_UNITS,
    NetworkConfig,
    init_params,
    network_forward,
)
from .market_data import (
    BadRatioError,
    EmptySeriesError,
    InvalidWindowError,
    PriceSeries,
    SplitResult,
    chronological_split,
    drop_missing,
    parse_csv,
    sma,
)
from .preprocess import bridge_test_windows, fit_scaler, make_windows, transform
from .rng import make_rng
from .training import GRADCHECK_STEP, EpochLog, finite_diff_gradcheck, train

SMA_WINDOWS = (100, 200)


class RunConfigError(ValueError):
    """A run configuration no run can use: a value of a wrong type, or contradicting fields."""


class NonFiniteMetricError(ArithmeticError):
    """A metric came out NaN or infinite, which JSON cannot hold: predictions overflowed."""


def _declared(value, hint):
    """`value` as `hint`, a RunConfig field's type: a list becomes a tuple and an
    int a float. TypeError for any other value, a bool where a number belongs too."""
    if get_origin(hint) is tuple:  # tuple[T, ...]
        if isinstance(value, (list, tuple)):
            return tuple(_declared(v, get_args(hint)[0]) for v in value)
    elif get_origin(hint) is UnionType:  # T | None
        return None if value is None else _declared(value, get_args(hint)[0])
    elif hint is float and type(value) is int:  # not a bool
        return float(value)
    elif isinstance(value, hint) and (hint is bool) == isinstance(value, bool):
        return value
    raise TypeError(value)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; serializable, hashable, overridable by flags."""

    symbols: tuple[str, ...] = ("VNQ",)
    data_path: str | None = None  # CSV file, or directory of <SYMBOL>.csv
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
    seed: int = 42
    out_dir: str = "runs"  # not hashed: every output lives in it

    def __post_init__(self) -> None:
        if isinstance(self.symbols, str):
            raise RunConfigError(f"symbols must be a list of tickers, not {self.symbols!r}")
        for f in fields(self):  # a config file's JSON values included
            value = getattr(self, f.name)
            try:
                object.__setattr__(self, f.name, _declared(value, _FIELD_TYPES[f.name]))
            except TypeError:
                raise RunConfigError(f"{f.name} must be {f.type}, got {value!r}") from None
        for name in ("data_path", "out_dir"):  # "" would mean the fixtures or the working dir
            if getattr(self, name) == "":
                raise RunConfigError(f"{name} must not be empty")
        if not self.symbols:
            raise RunConfigError("no symbols to run")
        for s in self.symbols:  # names files: <dir>/<s>.csv in, <out-dir>/<s>-* out
            if s in ("", ".", "..") or "/" in s or "\\" in s:
                raise RunConfigError(f"symbol {s!r} is not a plain name")
        repeated = sorted({s for s in self.symbols if self.symbols.count(s) > 1})
        if repeated:
            raise RunConfigError(f"symbols repeated: {', '.join(repeated)}")
        if self.data_path:  # one spelling per path, so one config hash
            object.__setattr__(self, "data_path", str(Path(self.data_path)))
        if self.data_path and len(self.symbols) > 1 and Path(self.data_path).is_file():
            raise RunConfigError(
                f"data file {self.data_path} holds one series; got {len(self.symbols)} symbols"
            )
        for name in ("start", "end"):
            try:
                date.fromisoformat(getattr(self, name))
            except ValueError as exc:
                raise RunConfigError(f"{name} {getattr(self, name)!r}: {exc}") from None
        # the checks make_windows and chronological_split would make per symbol
        if self.window < 1:
            raise InvalidWindowError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.split_ratio < 1.0:
            raise BadRatioError(f"ratio must be in (0, 1), got {self.split_ratio}")
        # refuse a network or training setting that no symbol could train with
        self.network_config()
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise RunConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.learning_rate < math.inf:  # also refuses NaN
            raise RunConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(
            layer_units=self.layer_units,
            dropout_rates=self.dropout_rates,
            input_features=1,
            seed=self.seed,
        )


_FIELD_TYPES = get_type_hints(RunConfig)  # the annotations, evaluated once


def load_config_file(path: str | Path) -> RunConfig:
    """The RunConfig a JSON object file holds; any key it does not name keeps its default."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise RunConfigError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(doc, dict):
        raise RunConfigError(f"{path}: not a JSON object: {type(doc).__name__}")
    unknown = set(doc) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise RunConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**doc)


def config_hash(cfg: RunConfig) -> str:
    """The run's name: a hash of every field but out_dir."""
    doc = asdict(cfg)
    del doc["out_dir"]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]


def load_series(cfg: RunConfig, symbol: str) -> PriceSeries:
    """The symbol's rows from start to end, from --data or the bundled fixtures."""
    source = Path(cfg.data_path) if cfg.data_path else resources.files("seqcast") / "fixtures"
    if source.is_dir():
        source = source / f"{symbol}.csv"
    # utf-8-sig drops the byte-order mark Excel's "CSV UTF-8" starts a file with; given
    # a view of the bytes, it decodes those past the mark without copying them
    text = codecs.decode(memoryview(source.read_bytes()), "utf-8-sig")
    if "\r" in text:  # universal newlines, as a file read in text mode has them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    series = parse_csv(text, symbol)
    lo = np.datetime64(date.fromisoformat(cfg.start))
    hi = np.datetime64(date.fromisoformat(cfg.end))
    return series[(series.days >= lo) & (series.days <= hi)]


def _clean_series(cfg: RunConfig, symbol: str) -> tuple[PriceSeries, int]:
    """The symbol's rows that have a value in the run's channel, and how many were dropped."""
    cleaned, dropped = drop_missing(load_series(cfg, symbol), adjusted=cfg.use_adj_close)
    if len(cleaned) == 0:
        channel = "an adjusted close" if cfg.use_adj_close else "a close"
        raise EmptySeriesError(
            f"{symbol}: no row from {cfg.start} to {cfg.end} has {channel} value"
        )
    return cleaned, dropped


def _out_path(cfg: RunConfig, stem: str, suffix: str) -> Path:
    return Path(cfg.out_dir) / f"{stem}-{config_hash(cfg)}{suffix}"


def _create(path: Path):
    """One output file, open for writing text; its directory is created first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8")


def _write(path: Path, text: str) -> None:
    with _create(path) as out:
        out.write(text)


def _write_csv(path: Path, header: list[str], days: np.ndarray, *columns: np.ndarray) -> None:
    """A datetime64 column and float columns, a NaN (v != v) as an empty cell, as csv.writer
    would write them: no cell holds a comma, quote or line break. Rows are formatted 64 at a
    time, so the text is never held whole, from tolist()'s Python floats and str dates."""
    with _create(path) as out:
        out.write(",".join(header) + "\n")
        for lo in range(0, len(days), 64):
            cells = [["" if v != v else repr(v) for v in c[lo : lo + 64].tolist()] for c in columns]
            dates = days[lo : lo + 64].astype(str).tolist()
            out.writelines(",".join(row) + "\n" for row in zip(dates, *cells))


def cmd_ingest(cfg: RunConfig, stdout=None) -> int:
    """Clean each symbol and write date,close,sma100,sma200 CSVs. An adjusted run
    writes date,close,adj_close,sma100,sma200, averaging the adjusted closes, so
    its file reads back under either channel."""
    channels = ("close", "adj_close") if cfg.use_adj_close else ("close",)
    for symbol in cfg.symbols:
        cleaned, dropped = _clean_series(cfg, symbol)
        closes = cleaned.closes(adjusted=cfg.use_adj_close)
        # a kept row may lack the other channel, and the first n-1 rows have no
        # defined average: NaN, so an empty cell that reads back as missing
        columns = [getattr(cleaned, ch) for ch in channels]
        for values in sma(closes, *SMA_WINDOWS):
            columns.append(np.concatenate([np.full(len(cleaned) - len(values), np.nan), values]))
        path = Path(cfg.out_dir) / f"{symbol}-cleaned.csv"
        header = ["date", *channels, *(f"sma{n}" for n in SMA_WINDOWS)]
        _write_csv(path, header, cleaned.days, *columns)
        print(
            f"symbol={symbol} rows_kept={len(cleaned)} rows_dropped={dropped} wrote={path}",
            file=stdout,
        )
    return 0


def _open_log(log_out: str | None):
    """The --log-out JSONL file, truncated once per command; a null context without one."""
    return _create(Path(log_out)) if log_out else contextlib.nullcontext()


def _load_split(cfg: RunConfig, symbol: str) -> SplitResult:
    """The symbol's cleaned series, split chronologically into train and test."""
    cleaned, _ = _clean_series(cfg, symbol)
    return chronological_split(cleaned, cfg.split_ratio)


def _train_one(cfg: RunConfig, symbol: str, split: SplitResult, stdout, log_file) -> Checkpoint:
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
            log_file.write(json.dumps({"symbol": symbol, **asdict(log)}) + "\n")
            log_file.flush()

    params = train(
        params, net_cfg, dataset, epochs=cfg.epochs, batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate, progress=progress,
    )
    return Checkpoint(
        params=params,
        config=net_cfg,
        scaler=scaler,
        seed=cfg.seed,
        window=cfg.window,
        symbol=symbol,
    )


def cmd_train(cfg: RunConfig, stdout=None, log_out: str | None = None) -> int:
    with _open_log(log_out) as log_file:
        for symbol in cfg.symbols:
            ckpt = _train_one(cfg, symbol, _load_split(cfg, symbol), stdout, log_file)
            path = _out_path(cfg, symbol, ".ckpt.json")
            save_checkpoint(path, ckpt)
            print(f"symbol={symbol} checkpoint={path}", file=stdout)
    return 0


def _evaluate_one(
    cfg: RunConfig, symbol: str, ckpt: Checkpoint, split: SplitResult, stdout
) -> dict:
    run = {"config": cfg.network_config(), "window": cfg.window, "symbol": symbol}
    differ = [f"{k} {getattr(ckpt, k)} (run: {v})" for k, v in run.items() if getattr(ckpt, k) != v]
    if differ:
        raise CheckpointError(f"checkpoint does not match the run: {'; '.join(differ)}")
    scaled_train = transform(ckpt.scaler, split.train.closes(adjusted=cfg.use_adj_close))
    scaled_test = transform(ckpt.scaler, split.test.closes(adjusted=cfg.use_adj_close))
    windows = bridge_test_windows(scaled_train[-cfg.window :], scaled_test, cfg.window)
    pset, _ = predict_series(ckpt.params, ckpt.config, ckpt.scaler, windows)
    report = compute_metrics(pset)
    bad = [f"{k}={v}" for k, v in asdict(report).items() if not math.isfinite(v)]
    if bad:  # refused before any output of the symbol is written
        raise NonFiniteMetricError(f"{symbol}: metrics not finite: {', '.join(bad)}")
    doc = dict(symbol=symbol, window=cfg.window, config_hash=config_hash(cfg), **asdict(report))

    metrics_path = _out_path(cfg, symbol, ".metrics.json")
    _write(metrics_path, json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")

    predictions = _out_path(cfg, symbol, ".predictions.csv")
    _write_csv(predictions, ["date", "actual", "predicted"], split.test.days, pset.y, pset.y_hat)

    title = f"{symbol} actual vs predicted"
    chart = render_price_chart(split.test.days, pset.y, pset.y_hat, title)
    _write(_out_path(cfg, symbol, ".svg"), chart)
    print(
        f"symbol={symbol} r_squared={report.r_squared:.4f} rmse={report.rmse:.4f} "
        f"metrics={metrics_path}",
        file=stdout,
    )
    return doc


def cmd_evaluate(cfg: RunConfig, checkpoint_path: str | None = None, stdout=None) -> int:
    if checkpoint_path and len(cfg.symbols) > 1:
        n = len(cfg.symbols)
        raise RunConfigError(f"--checkpoint {checkpoint_path} holds one model; got {n} symbols")
    for symbol in cfg.symbols:
        path = Path(checkpoint_path) if checkpoint_path else _out_path(cfg, symbol, ".ckpt.json")
        ckpt = load_checkpoint(path)
        _evaluate_one(cfg, symbol, ckpt, _load_split(cfg, symbol), stdout)
    return 0


def cmd_sweep(cfg: RunConfig, stdout=None, log_out: str | None = None) -> int:
    """Train and evaluate every symbol independently; report the metric grid."""
    rows: list[dict] = []
    failures: dict[str, str] = {}
    with _open_log(log_out) as log_file:
        for symbol in cfg.symbols:
            try:
                split = _load_split(cfg, symbol)
                ckpt = _train_one(cfg, symbol, split, stdout, log_file)
                save_checkpoint(_out_path(cfg, symbol, ".ckpt.json"), ckpt)
                rows.append(_evaluate_one(cfg, symbol, ckpt, split, stdout))
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
    mean_r2 = sum(r["r_squared"] for r in rows) / len(rows) if rows else None
    if rows:
        print(f"{'mean':<8}{'':>36}{mean_r2:>12.4f}", file=stdout)
    summary = {"mean_r_squared": mean_r2, "reports": rows, "failures": failures}
    sweep_path = _out_path(cfg, "sweep", ".json")
    _write(sweep_path, json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n")
    print(f"sweep={sweep_path}", file=stdout)
    return 1 if failures else 0


def cmd_gradcheck(cfg: RunConfig, probes: int, tolerance: float | None, stdout=None) -> int:
    """Finite-difference audit of the BPTT gradients on 2 random series of 5 steps."""
    net_cfg = cfg.network_config()
    params = init_params(net_cfg)
    rng = make_rng(cfg.seed)
    x = rng.normal(size=(2, 5, 1))
    pred, _ = network_forward(params, net_cfg, x, mode="inference")
    y = pred[:, 0] + 0.1 * rng.standard_normal(2)
    err = finite_diff_gradcheck(params, net_cfg, x, y, probe_count=probes, seed=cfg.seed)
    print(f"max_relative_error={err:.3e} probes={probes} step={GRADCHECK_STEP:g}", file=stdout)
    if tolerance is not None and err >= tolerance:
        print(f"error: gradient check failed tolerance {tolerance:g}", file=sys.stderr)
        return 1
    return 0


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(u) for u in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(r) for r in text.split(","))


def _symbols(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


# Each value flag once: flag, the RunConfig field it sets, the parser that
# build_run_config applies to its text, and its help.
_VALUE_FLAGS = (
    ("--symbols", "symbols", _symbols, "comma-separated tickers"),
    (
        "--data",
        "data_path",
        str,
        "local CSV file (one symbol) or directory of <SYMBOL>.csv files, the bundled "
        "fixtures by default; part of the config hash",
    ),
    ("--start", "start", str, "first date, YYYY-MM-DD"),
    ("--end", "end", str, "last date, YYYY-MM-DD"),
    ("--split-ratio", "split_ratio", float, "share of the series used for training"),
    ("--window", "window", int, "input days per sample"),
    (
        "--units",
        "layer_units",
        _ints,
        "comma-separated LSTM layer sizes "
        "(dropout resets to 0 when the layer count changes, unless --dropout given)",
    ),
    ("--dropout", "dropout_rates", _floats, "comma-separated dropout rates"),
    ("--epochs", "epochs", int, "training epochs"),
    ("--batch-size", "batch_size", int, "training batch size"),
    ("--learning-rate", "learning_rate", float, "Adam learning rate"),
    ("--seed", "seed", int, "seed of the weights, shuffles and dropout masks"),
    ("--out-dir", "out_dir", str, "directory for every output file; not in the config hash"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="seqcast", description="close-price forecasting pipeline"
    )
    parser.add_argument("--config", help="JSON run config file")
    parser.add_argument(
        "--log-out", help="also write every symbol's training log to one JSON-lines file"
    )
    for flag, field, _, help_text in _VALUE_FLAGS:
        parser.add_argument(flag, dest=field, help=help_text)
    parser.add_argument("--use-adj-close", action="store_true", default=None)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", help="clean data and emit close/sma100/sma200 CSV")
    sub.add_parser("train", help="train and write a checkpoint")
    eval_parser = sub.add_parser(
        "evaluate",
        help="metrics, predictions CSV, and chart; inference uses the cores BLAS "
        "leaves free (OPENBLAS_NUM_THREADS=1 frees them)",
    )
    eval_parser.add_argument("--checkpoint", help="checkpoint path (default: derived from config)")
    sub.add_parser(
        "sweep",
        help="train + evaluate every symbol and tabulate; inference uses the cores "
        "BLAS leaves free (OPENBLAS_NUM_THREADS=1 frees them)",
    )
    grad_parser = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    grad_parser.add_argument("--probes", type=int, default=50)
    grad_parser.add_argument("--tolerance", type=float)
    return parser.parse_args(argv)


def build_run_config(args) -> RunConfig:
    """The --config file's values, or the defaults, overridden by the given flags."""
    cfg = load_config_file(args.config) if args.config else RunConfig()
    overrides: dict = {}
    for flag, field, parse, _ in _VALUE_FLAGS:
        text = getattr(args, field)
        if text is not None:
            try:
                overrides[field] = parse(text)
            except ValueError as exc:
                raise ValueError(f"{flag} {text}: {exc}") from None
    if args.use_adj_close is not None:
        overrides["use_adj_close"] = args.use_adj_close
    units = overrides.get("layer_units")
    if units is not None and "dropout_rates" not in overrides:
        # keep the config valid when only the stack size changes
        if len(units) != len(cfg.dropout_rates):
            overrides["dropout_rates"] = (0.0,) * len(units)
    return replace(cfg, **overrides)


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
            return cmd_gradcheck(cfg, probes=args.probes, tolerance=args.tolerance)
        raise AssertionError(f"unhandled command {args.command}")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

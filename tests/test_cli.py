from __future__ import annotations

import codecs
import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import seqcast
import seqcast.cli as cli_module
from seqcast.checkpoint import load_checkpoint
from seqcast.cli import main
from seqcast.market_data import drop_missing, parse_csv

TINY = ["--units", "4", "--window", "5", "--epochs", "1"]
FIXTURES = Path(seqcast.__file__).parent / "fixtures"


@pytest.fixture
def vnq_checkpoint(tmp_path):
    assert main(TINY + ["--symbols", "VNQ", "--out-dir", str(tmp_path), "train"]) == 0
    (path,) = tmp_path.glob("VNQ-*.ckpt.json")
    return path


def test_evaluate_scores_the_checkpoint_symbol(tmp_path, vnq_checkpoint):
    argv = TINY + ["--symbols", "VNQ", "--out-dir", str(tmp_path)]
    assert main(argv + ["evaluate", "--checkpoint", str(vnq_checkpoint)]) == 0
    (metrics,) = tmp_path.glob("VNQ-*.metrics.json")
    doc = json.loads(metrics.read_text(encoding="utf-8"))
    assert set(doc) == {
        "symbol",
        "window",
        "config_hash",
        "rmse",
        "mae",
        "r_squared",
        "mape",
        "explained_variance",
        "mape_excluded_count",
    }
    assert (doc["symbol"], doc["window"]) == ("VNQ", 5)
    assert metrics.name == f"VNQ-{doc['config_hash']}.metrics.json"


def test_evaluate_refuses_checkpoint_of_another_symbol(tmp_path, vnq_checkpoint, capsys):
    argv = TINY + ["--symbols", "VGT", "--out-dir", str(tmp_path)]
    assert main(argv + ["evaluate", "--checkpoint", str(vnq_checkpoint)]) == 1
    assert "VNQ" in capsys.readouterr().err
    assert not list(tmp_path.glob("VGT-*"))


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--units", "8,8", "--dropout", "0.1,0.1", "--seed", "7", "--window", "5"], ["config"]),
        (["--units", "4", "--window", "6"], ["window"]),
        (["--units", "4,4", "--window", "6", "--symbols", "VGT"], ["config", "window", "symbol"]),
    ],
)
def test_evaluate_refuses_a_checkpoint_the_run_does_not_describe(
    tmp_path, vnq_checkpoint, capsys, flags, named
):
    out = tmp_path / "out"
    argv = ["--symbols", "VNQ", *flags, "--epochs", "1", "--out-dir", str(out)]
    assert main(argv + ["evaluate", "--checkpoint", str(vnq_checkpoint)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: checkpoint does not match")
    fields = ("config", "window", "symbol")
    assert [f for f in fields if f" {f} " in captured.err] == named
    assert not out.exists()


def test_evaluate_refuses_one_checkpoint_for_several_symbols(tmp_path, vnq_checkpoint, capsys):
    out = tmp_path / "out"
    argv = TINY + ["--symbols", "VNQ,VDE", "--out-dir", str(out)]
    assert main(argv + ["evaluate", "--checkpoint", str(vnq_checkpoint)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--checkpoint" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, named",
    [('{"format":"seqcast-checkpoint","version":1}', "'config'"), ("not json", "not a JSON")],
)
def test_evaluate_reports_a_broken_checkpoint_by_name(tmp_path, capsys, text, named):
    ckpt = tmp_path / "broken.ckpt.json"
    ckpt.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = TINY + ["--symbols", "VNQ", "--out-dir", str(out)]
    assert main(argv + ["evaluate", "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt) in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("units", [[4.7], [4.0], [True], ["4"]])
def test_evaluate_refuses_a_checkpoint_whose_units_are_not_integers(
    tmp_path, vnq_checkpoint, capsys, units
):
    doc = json.loads(vnq_checkpoint.read_text(encoding="utf-8"))
    doc["config"]["layer_units"] = units
    edited = tmp_path / "edited.ckpt.json"
    edited.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    argv = TINY + ["--symbols", "VNQ", "--out-dir", str(out)]
    assert main(argv + ["evaluate", "--checkpoint", str(edited)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(edited) in err and "'config'" in err
    assert "layer units must be integers" in err
    assert not out.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize(
    "where, named",
    [
        (("params", "dense", "b", 0), "block dense.b holds a non-finite value"),
        (("params", "layers", 0, "b_i", 0), "block layer0.b_i holds a non-finite value"),
        (("scaler", "min_value"), "'scaler'"),
        (("scaler", "max_value"), "'scaler'"),
    ],
)
def test_evaluate_refuses_a_checkpoint_holding_a_non_finite_value(
    tmp_path, vnq_checkpoint, capsys, token, where, named
):
    # json.loads reads NaN, Infinity and -Infinity, and 1e999 as inf
    doc = json.loads(vnq_checkpoint.read_text(encoding="utf-8"))
    *keys, last = where
    slot = doc
    for key in keys:
        slot = slot[key]
    slot[last] = "TOKEN"
    edited = tmp_path / "edited.ckpt.json"
    edited.write_text(json.dumps(doc).replace('"TOKEN"', token), encoding="utf-8")
    out = tmp_path / "out"
    argv = TINY + ["--symbols", "VNQ", "--out-dir", str(out)]
    assert main(argv + ["evaluate", "--checkpoint", str(edited)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert str(edited) in captured.err and named in captured.err and "finite" in captured.err
    assert not out.exists()


def _edit_dense(doc, value):
    """A checkpoint document whose dense head's weights and bias all hold `value`."""
    dense = doc["params"]["dense"]
    dense["w"] = [value] * len(dense["w"])
    dense["b"] = [value]
    return doc


# The CLI warns on an overflow, as Python does by default, where the suite raises
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_refuses_a_finite_checkpoint_whose_metrics_are_not_finite(
    tmp_path, vnq_checkpoint, capsys
):
    # finite weights of 1e308 overflow the predictions to inf: rmse inf, evs NaN
    doc = _edit_dense(json.loads(vnq_checkpoint.read_text(encoding="utf-8")), 1e308)
    edited = tmp_path / "edited.ckpt.json"
    edited.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    argv = TINY + ["--symbols", "VNQ", "--out-dir", str(out)]
    assert main(argv + ["evaluate", "--checkpoint", str(edited)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: VNQ: metrics not finite: rmse=inf, ")
    assert "explained_variance=nan" in captured.err
    assert not out.exists()  # no metrics JSON, predictions or chart


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_lists_a_symbol_whose_metrics_are_not_finite_as_a_failure(
    tmp_path, monkeypatch, capsys
):
    trained, original = [], cli_module.train

    def overflowing(params, *args, **kwargs):  # VNQ's head is edited, VGT's is not
        params = original(params, *args, **kwargs)
        if not trained:
            params.dense.w[...] = 1e308
            params.dense.b[...] = 1e308
        trained.append(params)
        return params

    monkeypatch.setattr(cli_module, "train", overflowing)
    out = tmp_path / "out"
    argv = TINY + ["--symbols", "VNQ,VGT", "--out-dir", str(out), "sweep"]
    assert main(argv) == 1
    summary_path = out / f"sweep-{cli_module.config_hash(_resolve(argv))}.json"
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert [row["symbol"] for row in summary["reports"]] == ["VGT"]
    assert list(summary["failures"]) == ["VNQ"]
    assert summary["failures"]["VNQ"].startswith("VNQ: metrics not finite: rmse=inf, ")
    assert capsys.readouterr().err.startswith("symbol=VNQ FAILED: VNQ: metrics not finite: ")
    assert [p.name.split("-")[0] for p in out.glob("*.metrics.json")] == ["VGT"]


def _log_lines(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_log_out_keeps_every_symbol(tmp_path, command):
    log = tmp_path / "log.jsonl"
    log.write_text("stale line from an earlier run\n", encoding="utf-8")
    argv = TINY + ["--symbols", "VNQ,VGT", "--out-dir", str(tmp_path), "--log-out", str(log)]
    assert main(argv + [command]) == 0
    lines = _log_lines(log)
    assert [(line["symbol"], line["epoch"]) for line in lines] == [("VNQ", 1), ("VGT", 1)]
    assert all(math.isfinite(line["loss"]) for line in lines)


def _peak_bytes(run) -> int:
    """tracemalloc's peak over a second call of `run`; the first fills lazy caches."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


VNQ_TEXT = len((FIXTURES / "VNQ.csv").read_text(encoding="utf-8"))


def test_load_series_holds_little_more_than_its_text():
    # read_text holds the file's bytes and its str at once, then the parse adds
    # 8 bytes a cell: 2.4x the text, against 7.7x through io.StringIO and lists
    peak = _peak_bytes(lambda: cli_module.load_series(cli_module.RunConfig(), "VNQ"))
    assert peak < 3.0 * VNQ_TEXT


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
def test_a_csv_with_other_line_endings_ingests_as_the_plain_file(tmp_path, ending):
    # read as a text-mode file reads, with universal newlines; a bare \r is a classic Mac file's
    data = tmp_path / "data"
    data.mkdir()
    (data / "VNQ.csv").write_bytes((FIXTURES / "VNQ.csv").read_bytes().replace(b"\n", ending))
    for source, out in ((data, "out-other"), (FIXTURES, "out-plain")):
        argv = ["--symbols", "VNQ", "--data", str(source), "--out-dir", str(tmp_path / out)]
        assert main(argv + ["ingest"]) == 0
    cleaned = [tmp_path / out / "VNQ-cleaned.csv" for out in ("out-other", "out-plain")]
    assert cleaned[0].read_bytes() == cleaned[1].read_bytes()


def test_a_csv_that_starts_with_a_byte_order_mark_ingests_as_the_plain_file(tmp_path):
    # Excel's "CSV UTF-8" starts the file with one
    data = tmp_path / "bom"
    data.mkdir()
    (data / "VNQ.csv").write_bytes(codecs.BOM_UTF8 + (FIXTURES / "VNQ.csv").read_bytes())
    for source, out in ((data, "out-bom"), (FIXTURES, "out-plain")):
        argv = ["--symbols", "VNQ", "--data", str(source), "--out-dir", str(tmp_path / out)]
        assert main(argv + ["ingest"]) == 0
    cleaned = [tmp_path / out / "VNQ-cleaned.csv" for out in ("out-bom", "out-plain")]
    assert cleaned[0].read_bytes() == cleaned[1].read_bytes()
    # skipped before decoding, so the str keeps one byte a character and no copy of the
    # bytes past the mark is made: 2.4x the text, as for the plain file, where the
    # utf-8-sig codec's copy took 3.0x and a str that holds U+FEFF 4.0x
    cfg = cli_module.RunConfig(data_path=str(data))
    assert _peak_bytes(lambda: cli_module.load_series(cfg, "VNQ")) < 3.0 * VNQ_TEXT


def _csv_writer_text(header, days, *columns) -> str:
    """The file csv.writer writes from date.isoformat() and repr(), NaN as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for k, day in enumerate(days.tolist()):
        cells = ("" if math.isnan(c[k]) else repr(float(c[k])) for c in columns)
        writer.writerow([day.isoformat(), *cells])
    return buf.getvalue()


@pytest.mark.parametrize("rows", [1, 2, 65])  # 65 rows cross the 64-row block
def test_write_csv_writes_the_bytes_csv_writer_does(tmp_path, rows):
    first = [np.datetime64("0001-01-01") + k for k in range(rows // 2)]
    last = [np.datetime64("9999-12-31") - k for k in reversed(range(rows - rows // 2))]
    days = np.array(first + last, dtype="datetime64[D]")
    values = [math.nan, -0.0, 5e-324, 1e22, 0.1 + 0.2, -1.5, 2863.25, -1e-7, 1.7e308]
    cycle = [np.array([values[(k + shift) % len(values)] for k in range(rows)]) for shift in (0, 4)]
    columns = [*cycle, np.full(rows, math.nan)]
    path = tmp_path / "out.csv"
    header = ["date", "close", "sma100", "sma200"]
    cli_module._write_csv(path, header, days, *columns)
    assert path.read_bytes() == _csv_writer_text(header, days, *columns).encode("utf-8")


@pytest.mark.parametrize("adjusted", [False, True])
def test_ingest_streams_its_csv(tmp_path, monkeypatch, adjusted):
    cfg = cli_module.RunConfig(symbols=("VNQ",), use_adj_close=adjusted, out_dir=str(tmp_path))

    def ingest():
        cli_module.cmd_ingest(cfg, stdout=io.StringIO())

    # the parse sets the peak: 2.4x the text, against 7.7x (8.7x adjusted) before
    assert _peak_bytes(ingest) < 3.0 * VNQ_TEXT
    # the writer alone: about 98 bytes a row, against 400 (480 adjusted) when it
    # held the file's text and a repr string per cell
    cleaned, dropped = cli_module._clean_series(cfg, "VNQ")
    monkeypatch.setattr(cli_module, "_clean_series", lambda cfg, symbol: (cleaned, dropped))
    assert _peak_bytes(ingest) < 120 * len(cleaned)


def test_no_command_writes_into_a_dataset_inputs(tmp_path, monkeypatch):
    # the windows are read-only views: a write into the scaled series under them
    # would change them unseen
    made = []
    for name in ("make_windows", "bridge_test_windows"):

        def recording(*args, _original=getattr(cli_module, name), **kwargs):
            ds = _original(*args, **kwargs)
            made.append((ds, ds.inputs.copy()))
            return ds

        monkeypatch.setattr(cli_module, name, recording)
    argv = ["--units", "4", "--dropout", "0.3", "--window", "5", "--epochs", "2"]
    assert main(argv + ["--symbols", "VNQ", "--out-dir", str(tmp_path), "sweep"]) == 0
    assert len(made) == 2
    for ds, before in made:
        assert not ds.inputs.flags.writeable
        np.testing.assert_array_equal(ds.inputs, before)


def test_sweep_parses_each_symbol_once(tmp_path, monkeypatch):
    parsed = []
    original = cli_module.parse_csv

    def counting(text, symbol=""):
        parsed.append(symbol)
        return original(text, symbol)

    monkeypatch.setattr(cli_module, "parse_csv", counting)
    assert main(TINY + ["--symbols", "VNQ,VGT", "--out-dir", str(tmp_path), "sweep"]) == 0
    assert parsed == ["VNQ", "VGT"]


def test_evaluate_without_a_checkpoint_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.ckpt.json"
    argv = TINY + ["--symbols", "VNQ", "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["evaluate", "--checkpoint", str(missing)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: checkpoint not found: {missing}\n")


def test_evaluate_refuses_a_directory_as_its_checkpoint(tmp_path, capsys):
    out = tmp_path / "out"
    argv = TINY + ["--symbols", "VNQ", "--out-dir", str(out)]
    assert main(argv + ["evaluate", "--checkpoint", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {tmp_path}: cannot read a checkpoint: ")
    assert not out.exists()


def test_evaluate_without_its_default_checkpoint_leaves_no_out_dir(tmp_path, capsys):
    out = tmp_path / "missing"
    argv = TINY + ["--symbols", "VNQ", "--out-dir", str(out)]
    assert main(argv + ["evaluate"]) == 1
    cfg = _resolve(argv + ["evaluate"])
    missing = out / f"VNQ-{cli_module.config_hash(cfg)}.ckpt.json"
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: checkpoint not found: {missing}\n")
    assert not out.exists()


def test_too_large_window_fails_the_symbol_with_one_line(tmp_path, capsys):
    argv = ["--units", "4", "--window", "5000", "--epochs", "1", "--symbols", "VNQ"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--out-dir", str(tmp_path), "sweep"]) == 1
    assert caught == []
    message = "series of length 2290 yields no samples at window 5000"
    assert capsys.readouterr().err == f"symbol=VNQ FAILED: {message}\n"


def test_sweep_in_which_every_symbol_fails_still_writes_its_summary(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["--units", "4", "--window", "5000", "--epochs", "1", "--symbols", "VNQ"]
    argv += ["--out-dir", str(out), "sweep"]
    assert main(argv) == 1
    summary = out / f"sweep-{cli_module.config_hash(_resolve(argv))}.json"
    message = "series of length 2290 yields no samples at window 5000"
    assert json.loads(summary.read_text(encoding="utf-8")) == {
        "mean_r_squared": None,
        "reports": [],
        "failures": {"VNQ": message},
    }
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"{'VNQ':<8}{'FAILED':>12}", f"sweep={summary}"]  # no mean row


def test_log_out_creates_its_directory(tmp_path):
    log = tmp_path / "logs" / "nested" / "log.jsonl"
    argv = TINY + ["--symbols", "VNQ", "--out-dir", str(tmp_path), "--log-out", str(log)]
    assert main(argv + ["train"]) == 0
    assert [(line["symbol"], line["epoch"]) for line in _log_lines(log)] == [("VNQ", 1)]


def test_non_finite_prices_are_dropped_as_missing(tmp_path, capsys):
    lines = (FIXTURES / "VNQ.csv").read_text(encoding="utf-8").splitlines()
    close = lines[0].split(",").index("Close")
    for row, cell in zip((10, 500, 1500), ("inf", "-inf", "1e999")):
        cells = lines[row].split(",")
        cells[close] = cell
        lines[row] = ",".join(cells)
    data = tmp_path / "data"
    data.mkdir()
    (data / "VNQ.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = TINY + ["--symbols", "VNQ", "--data", str(data), "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["ingest"]) == 0
    assert capsys.readouterr().out.split()[1:3] == [f"rows_kept={len(lines) - 4}", "rows_dropped=3"]
    assert main(argv + ["sweep"]) == 0


def test_data_dir_holds_one_csv_per_symbol(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "VNQ.csv").write_text(
        "Date,Close\n2020-01-03,11.25\n2020-01-02,10.5\n2020-01-06,\n2011-12-30,9.0\n",
        encoding="utf-8",
    )
    (data / "VGT.csv").write_text("date,close\n2021-03-01,200.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--symbols", "VNQ,VGT", "--data", str(data), "--out-dir", str(out), "ingest"]) == 0
    kept = [line.split()[1:3] for line in capsys.readouterr().out.splitlines()]
    assert kept == [["rows_kept=2", "rows_dropped=1"], ["rows_kept=1", "rows_dropped=0"]]
    cleaned = {s: (out / f"{s}-cleaned.csv").read_text(encoding="utf-8") for s in ("VNQ", "VGT")}
    header = "date,close,sma100,sma200\n"
    assert cleaned["VNQ"] == header + "2020-01-02,10.5,,\n2020-01-03,11.25,,\n"
    assert cleaned["VGT"] == header + "2021-03-01,200.0,,\n"


def test_data_file_refuses_several_symbols(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    data.write_text("date,close\n2020-01-02,1.0\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = TINY + ["--symbols", "VNQ,VGT", "--data", str(data), "--out-dir", str(out)]
    assert main(argv + ["train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2 symbols" in err
    assert not out.exists()


def _fixture_copies(tmp_path, names) -> Path:
    """A data directory holding VNQ's fixture under each of the given symbols."""
    data = tmp_path / "data"
    data.mkdir()
    for name in names:
        (data / f"{name}.csv").write_bytes((FIXTURES / "VNQ.csv").read_bytes())
    return data


def test_sweep_reads_each_symbol_from_the_data_dir(tmp_path):
    data = _fixture_copies(tmp_path, ["VNQ", "ABC"])
    out = tmp_path / "out"
    argv = TINY + ["--symbols", "ABC,VNQ", "--data", str(data), "--out-dir", str(out), "sweep"]
    assert main(argv) == 0
    (sweep,) = out.glob("sweep-*.json")
    abc, vnq = json.loads(sweep.read_text(encoding="utf-8"))["reports"]
    assert (abc.pop("symbol"), vnq.pop("symbol")) == ("ABC", "VNQ")
    assert abc == vnq  # the same prices, seed and config hash
    assert vnq["config_hash"] != cli_module.config_hash(_resolve(TINY + ["sweep"]))


def test_a_symbol_missing_from_the_data_dir_fails_by_its_path(tmp_path, capsys):
    data = _fixture_copies(tmp_path, ["VNQ"])
    out = tmp_path / "out"
    argv = TINY + ["--symbols", "VGT,VNQ", "--data", str(data), "--out-dir", str(out), "sweep"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("symbol=VGT FAILED: ")
    assert str(data / "VGT.csv") in err[0]
    assert [p.name.split("-")[0] for p in out.glob("*.metrics.json")] == ["VNQ"]


def test_evaluate_without_the_data_dir_of_its_training_is_refused(tmp_path, capsys):
    data = _fixture_copies(tmp_path, ["VNQ"])
    argv = TINY + ["--symbols", "VNQ", "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["--data", str(data), "train"]) == 0
    capsys.readouterr()
    assert main(argv + ["evaluate"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: checkpoint not found: ")
    assert not list(tmp_path.rglob("*.metrics.json"))


def test_data_spelled_three_ways_names_one_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _fixture_copies(tmp_path, ["VNQ"])
    argv = TINY + ["--symbols", "VNQ", "--out-dir", "out"]
    assert main(argv + ["--data", "data", "train"]) == 0
    for spelling in ("data/", "./data"):
        assert main(argv + ["--data", spelling, "evaluate"]) == 0
    assert capsys.readouterr().err == ""
    (ckpt,) = Path("out").glob("VNQ-*.ckpt.json")
    (metrics,) = Path("out").glob("VNQ-*.metrics.json")
    assert metrics.name == ckpt.name.replace(".ckpt.json", ".metrics.json")


def test_out_dir_spelled_two_ways_names_one_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = TINY + ["--symbols", "VNQ"]
    assert main(argv + ["--out-dir", "o/", "train"]) == 0
    assert main(argv + ["--out-dir", "./o", "evaluate"]) == 0
    assert capsys.readouterr().err == ""
    (ckpt,) = Path("o").glob("VNQ-*.ckpt.json")
    (metrics,) = Path("o").glob("VNQ-*.metrics.json")
    assert metrics.name == ckpt.name.replace(".ckpt.json", ".metrics.json")


def test_an_absolute_out_dir_finds_a_run_trained_under_a_relative_one(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    argv = TINY + ["--symbols", "VNQ"]
    assert main(argv + ["--out-dir", "o", "train"]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "o"), "evaluate"]) == 0
    assert capsys.readouterr().err == ""
    (ckpt,) = Path("o").glob("VNQ-*.ckpt.json")
    (metrics,) = Path("o").glob("VNQ-*.metrics.json")
    assert metrics.name == ckpt.name.replace(".ckpt.json", ".metrics.json")


@pytest.mark.parametrize(
    "symbols",
    [
        ["--symbols", "../esc2/Y"],
        ["--symbols", "..,VNQ"],
        ["--symbols", "a\\b"],
        ["--config", "empty-symbol.json"],  # only a config file can name an empty symbol
    ],
)
def test_a_symbol_that_is_not_a_plain_name_is_refused(tmp_path, monkeypatch, capsys, symbols):
    monkeypatch.chdir(tmp_path)
    Path("esc").mkdir()
    Path("esc/X.csv").write_text("date,close\n2020-01-02,1.0\n", encoding="utf-8")
    Path("empty-symbol.json").write_text(json.dumps({"symbols": [""]}), encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    assert main(symbols + ["--data", "esc", "--out-dir", "o6", "ingest"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: symbol ") and captured.err.count("\n") == 1
    assert "is not a plain name" in captured.err
    assert sorted(tmp_path.rglob("*")) == before


def test_gradcheck_refuses_zero_probes(capsys):
    assert main(["--units", "4", "gradcheck", "--probes", "0", "--tolerance", "1e-3"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: probes must be >= 1, got 0\n")


def test_gradcheck_past_its_tolerance_fails(capsys):
    assert main(["--units", "4", "gradcheck", "--probes", "5", "--tolerance", "1e-30"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("max_relative_error=")
    assert captured.err == "error: gradient check failed tolerance 1e-30\n"


def test_module_runs_gradcheck_without_installing():
    src = Path(seqcast.__file__).parents[1]  # `-m` looks in the working directory first
    argv = ["--units", "4", "gradcheck", "--probes", "20", "--tolerance", "1e-3"]
    done = subprocess.run(
        [sys.executable, "-m", "seqcast", *argv],
        cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("max_relative_error=")


def test_the_cli_imports_no_network_module():
    src = Path(seqcast.__file__).parents[1]
    probe = (
        "import sys, seqcast.cli; "
        "print(sorted(m for m in ('socket', 'ssl', 'http.client', 'urllib.request') "
        "if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# ------------------------------------------------------ run-config resolution


def _resolve(argv):
    return cli_module.build_run_config(cli_module._parse_args(argv))


def test_default_config_hash_is_pinned():
    assert cli_module.config_hash(cli_module.RunConfig()) == "db0f663d"


def test_config_hash_covers_the_data_path_but_not_the_out_dir():
    base = cli_module.RunConfig(data_path="d")
    moved = cli_module.RunConfig(data_path="d", out_dir="/elsewhere/o")
    other_data = cli_module.RunConfig(data_path="e")
    assert cli_module.config_hash(moved) == cli_module.config_hash(base)
    assert cli_module.config_hash(other_data) != cli_module.config_hash(base)


def test_the_endpoint_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_module._parse_args(["--endpoint=http://h/{symbol}/{start}/{end}", "ingest"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --endpoint" in capsys.readouterr().err
    assert {f.name for f in cli_module.fields(cli_module.RunConfig)}.isdisjoint(
        {"endpoint", "mape_threshold", "clip_norm"}
    )


def test_every_run_config_field_has_a_flag():
    flagged = {field for _, field, _, _ in cli_module._VALUE_FLAGS} | {"use_adj_close"}
    assert {f.name for f in cli_module.fields(cli_module.RunConfig)} == flagged


def test_every_flag_resolves_into_the_run_config():
    argv = [
        "--symbols", " VNQ ,",
        "--start", "2013-01-01",
        "--end", "2020-06-30",
        "--split-ratio", "0.7",
        "--window", "30",
        "--units", "4,3",
        "--dropout", "0.1,0.25",
        "--epochs", "3",
        "--batch-size", "16",
        "--learning-rate", "0.01",
        "--seed", "7",
        "--out-dir", "elsewhere",
        "--use-adj-close",
        "train",
    ]
    fields = dict(
        symbols=("VNQ",),
        start="2013-01-01",
        end="2020-06-30",
        split_ratio=0.7,
        window=30,
        use_adj_close=True,
        layer_units=(4, 3),
        dropout_rates=(0.1, 0.25),
        epochs=3,
        batch_size=16,
        learning_rate=0.01,
        seed=7,
        out_dir="elsewhere",
    )
    assert _resolve(["--data", "prices.csv"] + argv) == cli_module.RunConfig(
        data_path="prices.csv", **fields
    )


def test_a_json_integer_sets_a_float_field_as_its_flag_does(tmp_path):
    path = tmp_path / "run.json"
    doc = {"learning_rate": 1, "dropout_rates": [0, 0, 0, 0]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    from_file = _resolve(["--config", str(path), "train"])
    from_flags = _resolve(["--learning-rate", "1", "--dropout", "0,0,0,0", "train"])
    assert from_file == from_flags and type(from_file.learning_rate) is float
    assert cli_module.config_hash(from_file) == cli_module.config_hash(from_flags)


def test_flags_override_the_config_file(tmp_path):
    path = tmp_path / "run.json"
    doc = {"window": 30, "epochs": 5, "seed": 3, "symbols": ["VGT", "VDE"]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = _resolve(["--config", str(path), "--epochs", "2", "--symbols", "VNQ", "train"])
    assert (cfg.window, cfg.epochs, cfg.seed, cfg.symbols) == (30, 2, 3, ("VNQ",))


def test_units_alone_resets_dropout_to_zeros():
    cfg = _resolve(["--units", "4,4", "train"])
    assert (cfg.layer_units, cfg.dropout_rates) == ((4, 4), (0.0, 0.0))
    cfg = _resolve(["--units", "4,4", "--dropout", "0.1,0.2", "train"])
    assert cfg.dropout_rates == (0.1, 0.2)


def test_bad_flag_value_is_an_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--units", "4,x", "--out-dir", str(out), "train"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# --------------------------------------------------------------------- ingest


def test_ingest_writes_closes_and_moving_averages(tmp_path):
    assert main(["--symbols", "VNQ", "--out-dir", str(tmp_path), "ingest"]) == 0
    lines = (tmp_path / "VNQ-cleaned.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "date,close,sma100,sma200"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2863
    assert all(len(row) == 4 and float(row[1]) > 0 for row in rows)
    sma100 = [row[2] for row in rows]
    sma200 = [row[3] for row in rows]
    assert sma100[:99] == [""] * 99 and all(sma100[99:])
    assert sma200[:199] == [""] * 199 and all(sma200[199:])
    # every non-empty cell is a plain number
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:] if cell)


def _close_only_file(tmp_path) -> Path:
    """VNQ's fixture reduced to its Date and Close columns."""
    fixture = (FIXTURES / "VNQ.csv").read_text(encoding="utf-8")
    rows = [line.split(",") for line in fixture.splitlines()]
    data = tmp_path / "close-only.csv"
    data.write_text("".join(f"{row[0]},{row[4]}\n" for row in rows), encoding="utf-8")
    return data


def test_close_only_file_sweeps(tmp_path):
    out = tmp_path / "out"
    argv = TINY + ["--symbols", "VNQ", "--data", str(_close_only_file(tmp_path))]
    assert main(argv + ["--out-dir", str(out), "sweep"]) == 0
    (sweep,) = out.glob("sweep-*.json")
    doc = json.loads(sweep.read_text(encoding="utf-8"))
    assert [r["symbol"] for r in doc["reports"]] == ["VNQ"] and doc["failures"] == {}


@pytest.mark.parametrize("channel", ["close", "adjusted close"])
def test_ingest_refuses_a_channel_with_no_values(tmp_path, capsys, channel):
    data = tmp_path / "prices.csv"
    if channel == "close":
        rows = "Date,Close,Adj Close\n2020-01-02,,1.0\n2020-01-03,n/a,1.1\n"
        data.write_text(rows, encoding="utf-8")
        flags = []
    else:
        data = _close_only_file(tmp_path)
        flags = ["--use-adj-close"]
    out = tmp_path / "out"
    argv = ["--symbols", "VNQ", "--data", str(data), "--out-dir", str(out), *flags, "ingest"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    expected = f"has {'an' if flags else 'a'} {channel} value"
    assert err.startswith("error: VNQ: no row from 2012-01-01 to 2022-12-21 " + expected)
    assert not list(tmp_path.rglob("*-cleaned.csv"))


def test_adjusted_ingest_trains_on_the_values_of_its_source(tmp_path):
    # VNQ's fixture with adjusted closes of their own, some closes and adjusted closes missing
    lines = (FIXTURES / "VNQ.csv").read_text(encoding="utf-8").splitlines()[1:]
    rows = ["Date,Close,Adj Close"]
    for k, cells in enumerate(line.split(",") for line in lines):
        close = "" if k % 50 == 7 else cells[4]
        adjusted = "" if k % 70 == 3 else repr(0.9 * float(cells[5]))
        rows.append(f"{cells[0]},{close},{adjusted}")
    source = tmp_path / "prices.csv"
    source.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = ["--use-adj-close", "--units", "4", "--window", "10", "--epochs", "1"]
    argv += ["--symbols", "VNQ"]
    assert main(argv + ["--data", str(source), "--out-dir", str(tmp_path / "o"), "ingest"]) == 0
    cleaned = tmp_path / "o" / "VNQ-cleaned.csv"
    text = cleaned.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "date,close,adj_close,sma100,sma200"
    kept, _ = drop_missing(parse_csv(source.read_text(encoding="utf-8")), adjusted=True)
    back = parse_csv(text)
    np.testing.assert_array_equal(back.days, kept.days)
    np.testing.assert_array_equal(back.close, kept.close)  # NaN where the close is missing
    np.testing.assert_array_equal(back.adj_close, kept.adj_close)
    ckpts = []
    for data in (source, cleaned):
        out = tmp_path / f"from-{data.stem}"
        assert main(argv + ["--data", str(data), "--out-dir", str(out), "train"]) == 0
        (path,) = out.glob("VNQ-*.ckpt.json")
        ckpts.append(load_checkpoint(path))
    assert ckpts[0].scaler == ckpts[1].scaler
    np.testing.assert_array_equal(ckpts[0].params.flat, ckpts[1].params.flat)


# ------------------------------------------------------------------ refusals


def test_sweep_without_symbols_is_refused(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--symbols", ",", "--out-dir", str(out), "sweep"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "no symbols" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "text, problem",
    [
        ("5", "not a JSON object: int"),
        ('["window"]', "not a JSON object: list"),
        ('{"window": 20\n', "not a JSON file: Expecting ',' delimiter: line 2 column 1 (char 14)"),
    ],
)
def test_config_file_that_is_not_a_json_object_is_refused(tmp_path, capsys, text, problem):
    path = tmp_path / "c.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--symbols", "VNQ", "--out-dir", str(out), "ingest"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: {problem}\n")
    assert not out.exists()


def test_config_file_with_an_unknown_key_is_refused(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"windw": 20}', encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--symbols", "VNQ", "--out-dir", str(out), "ingest"]) == 1
    assert capsys.readouterr().err == "error: unknown config keys: ['windw']\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"endpoint": "http://127.0.0.1:9/{symbol}/{start}/{end}"},
        {"mape_threshold": 1e-8},
        {"clip_norm": 0.5},
    ],
)
def test_config_file_naming_a_removed_setting_is_refused(tmp_path, capsys, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    (key,) = doc
    with pytest.raises(cli_module.RunConfigError, match=f"unknown config keys: \\['{key}'\\]"):
        cli_module.load_config_file(path)
    out = tmp_path / "out"
    argv = TINY + ["--config", str(path), "--symbols", "VNQ", "--out-dir", str(out), "sweep"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: unknown config keys: [{key!r}]\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, declared",
    [
        ("use_adj_close", "no", "bool"),
        ("layer_units", [4.7], "tuple[int, ...]"),
        ("epochs", True, "int"),
        ("epochs", 1.5, "int"),
        ("window", 10.5, "int"),
        ("batch_size", "32", "int"),
        ("seed", 1.5, "int"),
        ("data_path", 5, "str | None"),
        ("dropout_rates", [False], "tuple[float, ...]"),
        ("learning_rate", "0.01", "float"),
        ("symbols", ["VNQ", 5], "tuple[str, ...]"),
        ("out_dir", 5, "str"),
    ],
)
def test_config_file_value_of_the_wrong_type_is_refused(
    tmp_path, monkeypatch, capsys, key, value, declared
):
    monkeypatch.chdir(tmp_path)
    tiny = dict(symbols=["VNQ"], layer_units=[4], dropout_rates=[0.0], window=5, epochs=1)
    Path("c.json").write_text(json.dumps({**tiny, "out_dir": "out", key: value}), encoding="utf-8")
    assert main(["--config", "c.json", "sweep"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {key} must be {declared}, got {value!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("field, flag", [("data_path", "--data"), ("out_dir", "--out-dir")])
def test_an_empty_path_is_refused_before_any_symbol(tmp_path, monkeypatch, capsys, field, flag):
    # --data "$DIR" with DIR unset read the bundled fixtures; --out-dir "" wrote here
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text(json.dumps({field: ""}), encoding="utf-8")
    for given in ([flag, ""], ["--config", "c.json"]):
        assert main(TINY + ["--symbols", "VNQ", *given, "sweep"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {field} must not be empty\n")
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_config_file_with_a_string_of_symbols_is_refused(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"symbols": "VNQ"}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(TINY + ["--config", str(path), "--out-dir", str(out), "sweep"]) == 1
    assert capsys.readouterr().err.startswith("error: symbols must be a list of tickers")
    assert not out.exists()


@pytest.mark.parametrize("rate", ["-0.001", "0", "nan", "inf", "1e309"])
def test_train_refuses_a_learning_rate_that_is_not_positive(tmp_path, capsys, rate):
    out = tmp_path / "out"
    argv = TINY + ["--learning-rate", rate, "--symbols", "VNQ", "--out-dir", str(out)]
    assert main(argv + ["train"]) == 1
    assert capsys.readouterr().err.startswith("error: learning_rate must be positive")
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "sweep"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--dropout", "0.1", "--symbols", "VNQ,VGT"], "4 layers but 1 dropout rates"),
        (TINY + ["--symbols", "VNQ,VGT,VNQ"], "symbols repeated: VNQ"),
        (TINY + ["--window", "0", "--symbols", "VNQ,VGT"], "window must be >= 1, got 0"),
        (
            TINY + ["--split-ratio", "1.5", "--symbols", "VNQ,VGT"],
            "ratio must be in (0, 1), got 1.5",
        ),
        (
            TINY + ["--start", "2012-13-01", "--symbols", "VNQ,VGT"],
            "start '2012-13-01': month must be in 1..12",
        ),
        (
            TINY + ["--end", "2022-12-32", "--symbols", "VNQ,VGT"],
            "end '2022-12-32': day is out of range for month",
        ),
        (TINY + ["--seed", "-1", "--symbols", "VNQ,VGT"], "seed must be >= 0, got -1"),
        (TINY + ["--epochs", "0", "--symbols", "VNQ,VGT"], "epochs must be >= 1, got 0"),
        (TINY + ["--batch-size", "0", "--symbols", "VNQ,VGT"], "batch_size must be >= 1, got 0"),
    ],
)
def test_a_config_no_symbol_can_run_is_refused_before_any_symbol(
    tmp_path, capsys, flags, message, command
):
    out = tmp_path / "out"
    assert main(flags + ["--out-dir", str(out), command]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()

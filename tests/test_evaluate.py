from __future__ import annotations

import math
import threading
from dataclasses import asdict
from datetime import date

import numpy as np
import pytest

from seqcast import lstm_core
from seqcast.evaluate import (
    AllExcludedError,
    ZeroVarianceError,
    compute_metrics,
    explained_variance,
    mae,
    mape,
    predict_series,
    r_squared,
    rmse,
)
from seqcast.lstm_core import NetworkConfig, ShapeMismatchError, init_params, network_forward
from seqcast.preprocess import bridge_test_windows, fit_scaler, inverse_transform, transform
from seqcast.rng import make_rng
from seqcast.training import PredictionSet, mse_loss

from test_lstm_core import blas_env, force_worker, fresh_worker  # noqa: F401 (a fixture)


def pset(y, y_hat):
    return PredictionSet(y=y, y_hat=y_hat)


# -------------------------------------------------------------- hand oracles


def test_rmse_hand_cases():
    assert rmse(pset([1.0, 2.0], [1.0, 2.0])) == 0.0
    assert abs(rmse(pset([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])) - math.sqrt(2.0 / 3.0)) < 1e-12


def test_mae_hand_cases():
    assert mae(pset([1.0, 2.0], [1.0, 2.0])) == 0.0
    assert abs(mae(pset([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])) - 2.0 / 3.0) < 1e-12


def test_equal_magnitude_errors_make_mae_equal_rmse():
    p = pset([1.0, 2.0, 3.0], [1.5, 1.5, 3.5])
    assert abs(mae(p) - rmse(p)) < 1e-12
    assert abs(mae(p) - 0.5) < 1e-12


def test_r_squared_hand_cases():
    assert r_squared(pset([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])) == 1.0
    # predicting the mean everywhere scores exactly zero
    assert abs(r_squared(pset([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])) - 0.0) < 1e-12


def test_r_squared_errors():
    with pytest.raises(ZeroVarianceError):
        r_squared(pset([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]))
    with pytest.raises(ZeroVarianceError):
        r_squared(pset([5.0], [1.0]))


def test_mape_hand_case():
    value, excluded = mape(pset([100.0, 200.0], [110.0, 180.0]))
    assert abs(value - 0.10) < 1e-12
    assert excluded == 0


def test_mape_perfect_is_zero():
    value, excluded = mape(pset([3.0, 4.0], [3.0, 4.0]))
    assert value == 0.0
    assert excluded == 0


def test_mape_excludes_near_zero_actuals():
    value, excluded = mape(pset([0.0, 100.0], [50.0, 110.0]))
    assert excluded == 1
    assert abs(value - 0.10) < 1e-12
    assert value < 1e6  # never the astronomical failure mode


def test_mape_all_excluded():
    with pytest.raises(AllExcludedError):
        mape(pset([0.0, 1e-12], [1.0, 2.0]))


def test_explained_variance_hand_cases():
    assert explained_variance(pset([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])) == 1.0
    # constant bias leaves EVS at 1 while r_squared drops below 1
    biased = pset([1.0, 2.0, 3.0], [6.0, 7.0, 8.0])
    assert abs(explained_variance(biased) - 1.0) < 1e-12
    assert r_squared(biased) < 1.0


def test_explained_variance_errors():
    with pytest.raises(ZeroVarianceError):
        explained_variance(pset([2.0, 2.0], [1.0, 3.0]))


# ----------------------------------------------------------------- properties


def random_pairs(rng, n):
    y = rng.normal(loc=50.0, scale=10.0, size=n)
    y_hat = y + rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
    return pset(y, y_hat)


def test_metric_properties_on_random_vectors():
    rng = make_rng(101)
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        p = random_pairs(rng, n)
        assert rmse(p) >= mae(p) - 1e-12
        assert explained_variance(p) >= r_squared(p) - 1e-12
        assert r_squared(p) <= 1.0
        assert abs(rmse(p) ** 2 - mse_loss(p)) <= 1e-12 * max(1.0, mse_loss(p))


def test_metrics_permutation_invariant():
    rng = make_rng(102)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        p = random_pairs(rng, n)
        perm = rng.permutation(n)
        q = pset(p.y[perm], p.y_hat[perm])
        for metric in (rmse, mae, r_squared, explained_variance):
            a, b = metric(p), metric(q)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        (ma, ea), (mb, eb) = mape(p), mape(q)
        assert abs(ma - mb) <= 1e-12 and ea == eb


def test_mape_scale_invariant():
    rng = make_rng(103)
    for _ in range(100):
        p = random_pairs(rng, 20)
        k = float(rng.uniform(0.5, 2.0))
        scaled = pset(k * p.y, k * p.y_hat)
        a, _ = mape(p)
        b, _ = mape(scaled)
        assert abs(a - b) <= 1e-12


def test_evs_exceeds_r2_by_mean_residual_term():
    rng = make_rng(104)
    p = random_pairs(rng, 50)
    residual = p.y - p.y_hat
    gap = explained_variance(p) - r_squared(p)
    expected = float(np.mean(residual)) ** 2 / float(np.var(p.y))
    assert abs(gap - expected) < 1e-12


def test_compute_metrics_guards_mape_at_its_default_threshold():
    # 1e-9 falls below mape's 1e-8 default and is excluded; 1e-7 is kept
    report = compute_metrics(pset([1e-9, 1e-7, 100.0], [5.0, 1.1e-7, 110.0]))
    assert report.mape_excluded_count == 1
    assert abs(report.mape - 0.10) < 1e-9
    assert (report.mape, report.mape_excluded_count) == mape(
        pset([1e-9, 1e-7, 100.0], [5.0, 1.1e-7, 110.0])
    )


def test_mape_keeps_an_actual_exactly_at_its_threshold():
    # the guard excludes actuals below 1e-8, not at it: this pair's ratio is 0.5
    value, excluded = mape(pset([1e-8, 100.0], [1.5e-8, 110.0]))
    assert excluded == 0
    assert abs(value - (0.5 + 0.1) / 2) < 1e-12
    assert compute_metrics(pset([1e-8, 100.0], [1.5e-8, 110.0])).mape_excluded_count == 0


def test_compute_metrics_report_fields():
    p = random_pairs(make_rng(105), 25)
    report = compute_metrics(p)
    assert report.rmse >= report.mae >= 0.0
    assert report.r_squared <= report.explained_variance + 1e-12
    assert report.mape_excluded_count == 0
    assert set(asdict(report)) == {
        "rmse",
        "mae",
        "r_squared",
        "mape",
        "explained_variance",
        "mape_excluded_count",
    }


# ------------------------------------------------------------- predict_series


def test_predict_series_count_contract():
    rng = make_rng(106)
    prices = np.cumsum(rng.normal(size=60)) + 50.0
    scaler = fit_scaler(prices[:40])
    scaled = transform(scaler, prices)
    days = [date.fromordinal(738155 + k) for k in range(20)]
    windows = bridge_test_windows(scaled[30:40], scaled[40:], 10, dates=days)
    cfg = NetworkConfig(layer_units=(3,), dropout_rates=(0.0,), seed=2)
    params = init_params(cfg)
    pset_out, dates_out = predict_series(params, cfg, scaler, windows)
    assert pset_out.n == 20
    assert dates_out == tuple(days)
    np.testing.assert_allclose(pset_out.y, prices[40:], rtol=1e-12)


def test_predict_series_persistence_stub(monkeypatch):
    # stub model: scaled prediction = last input value -> unscaled prediction
    # equals the previous day's close
    batch_sizes = []

    def stub_infer(params, x):  # a feature-major [T, 1, B] chunk
        batch_sizes.append(x.shape[2])
        return x[-1, 0].copy()

    monkeypatch.setattr(lstm_core, "_infer", stub_infer)
    rng = make_rng(107)
    prices = np.cumsum(rng.normal(size=600)) + 100.0
    scaler = fit_scaler(prices[:30])
    scaled = transform(scaler, prices)
    windows = bridge_test_windows(scaled[25:30], scaled[30:], 5)
    cfg = NetworkConfig(layer_units=(3,), dropout_rates=(0.0,), seed=3)
    params = init_params(cfg)
    pset_out, _ = predict_series(params, cfg, scaler, windows)
    # 570 windows run as four full chunks and a short one, concatenated in order
    assert batch_sizes == [120, 120, 120, 120, 90]
    np.testing.assert_array_equal(pset_out.y_hat, inverse_transform(scaler, scaled[29:-1]))
    np.testing.assert_allclose(pset_out.y_hat, prices[29:-1], rtol=1e-12)

    # r_squared then equals the independently computed persistence baseline
    actual = prices[30:]
    persistence = prices[29:-1]
    ss_res = float(np.sum((actual - persistence) ** 2))
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    assert abs(r_squared(pset_out) - (1.0 - ss_res / ss_tot)) < 1e-9


# ------------------------------------------------- predict_series on threads


def series_windows(seed, n_windows, steps):
    rng = make_rng(seed)
    prices = np.cumsum(rng.normal(size=steps + n_windows)) + 100.0
    scaler = fit_scaler(prices[:steps])
    scaled = transform(scaler, prices)
    return scaler, bridge_test_windows(scaled[:steps], scaled[steps:], steps)


@pytest.mark.parametrize(
    "units,cpus,openblas,pooled",
    [
        ((50, 56), 2, "1", True),
        ((50, 56), 64, "1", True),
        ((8, 8), 2, "1", False),
        ((32, 40), 2, "1", False),
        ((50, 56), 2, None, False),
        ((50, 56), 2, "2", False),
    ],
    ids=["2-cpus", "64-cpus", "8-units", "32-units", "blas-unset", "blas-on-both-cores"],
)
def test_predictions_equal_the_serial_chunks(
    monkeypatch, fresh_worker, units, cpus, openblas, pooled
):
    blas_env(monkeypatch, cpus, openblas)  # lstm_core's own decision, made afresh
    caller, threads, sizes, infer = threading.get_ident(), [], [], lstm_core._infer
    worker_took = threading.Event()

    def recording_infer(params, x):
        threads.append(threading.get_ident())  # list.append holds the GIL
        sizes.append(x.shape[2])
        if threads[-1] != caller:
            worker_took.set()
        elif pooled:  # so that the worker takes a chunk
            assert worker_took.wait(timeout=60)
        return infer(params, x)

    monkeypatch.setattr(lstm_core, "_infer", recording_infer)
    scaler, windows = series_windows(108, 601, 30)
    cfg = NetworkConfig(layer_units=units, dropout_rates=(0.0, 0.0), seed=4)
    params = init_params(cfg)
    pset_out, _ = predict_series(params, cfg, scaler, windows)

    # 601 windows run as five chunks of 120 and one of 1, pooled or not
    assert sorted(sizes) == [1] + [120] * 5
    if pooled:  # on this thread and one worker thread
        assert caller in threads and len(set(threads)) == 2
    else:
        assert threads == [caller] * 6
    serial = [
        network_forward(params, cfg, windows.inputs[lo : lo + 120], mode="inference")[0][:, 0]
        for lo in range(0, windows.n_samples, 120)
    ]
    assert pset_out.y_hat.tobytes() == inverse_transform(scaler, np.concatenate(serial)).tobytes()
    # other chunk sizes differ at most by rounding, which depends on the BLAS kernel
    whole = infer(params, windows.inputs.transpose(1, 2, 0))  # one 601-window chunk
    np.testing.assert_allclose(pset_out.y_hat, inverse_transform(scaler, whole), rtol=1e-12)


@pytest.mark.parametrize("error", [ShapeMismatchError("chunk 2"), MemoryError()])
def test_a_worker_exception_is_raised_by_predict_series(monkeypatch, error):
    force_worker(monkeypatch)
    caller, raised_on, raised = threading.get_ident(), [], threading.Event()

    def failing_infer(params, x):
        if threading.get_ident() != caller:
            raised_on.append(threading.get_ident())
            raised.set()
            raise error
        assert raised.wait(timeout=60)  # so that the worker takes a chunk
        return np.zeros(x.shape[2])

    monkeypatch.setattr(lstm_core, "_infer", failing_infer)
    scaler, windows = series_windows(110, 601, 30)
    cfg = NetworkConfig(layer_units=(50, 56), dropout_rates=(0.0, 0.0), seed=4)
    before = threading.active_count()
    with pytest.raises(type(error)) as info:
        predict_series(init_params(cfg), cfg, scaler, windows)
    assert info.value is error and len(raised_on) == 1
    assert threading.active_count() <= before + 1  # no thread beyond the kept worker

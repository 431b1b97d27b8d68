from __future__ import annotations

from datetime import date

import numpy as np
import pytest

from seqcast.market_data import InvalidWindowError
from seqcast.preprocess import (
    DegenerateRangeError,
    bridge_test_windows,
    fit_scaler,
    inverse_transform,
    make_windows,
    transform,
)
from seqcast.rng import make_rng


# --------------------------------------------------------------------- scaler


def test_fit_scaler_extrema():
    params = fit_scaler([0.0, 10.0, 5.0])
    assert params.min_value == 0.0
    assert params.max_value == 10.0


def test_fit_scaler_degenerate():
    with pytest.raises(DegenerateRangeError):
        fit_scaler([7.0, 7.0, 7.0])


def test_fit_scaler_too_few():
    with pytest.raises(DegenerateRangeError, match="need at least 2 values to fit a scaler"):
        fit_scaler([3.0])


def test_transform_maps_extrema_and_preserves_outliers():
    params = fit_scaler([0.0, 10.0])
    out = transform(params, [10.0, 15.0, 0.0])
    np.testing.assert_allclose(out, [1.0, 1.5, 0.0])


def test_inverse_transform_hand_cases():
    params = fit_scaler([2.0, 4.0])
    assert inverse_transform(params, 0.0) == 2.0
    assert inverse_transform(params, 1.0) == 4.0
    assert inverse_transform(params, 0.5) == 3.0


def test_roundtrip_identity():
    params = fit_scaler([1.0, 9.0])
    assert abs(float(inverse_transform(params, transform(params, 7.3))) - 7.3) < 1e-12


def test_roundtrip_property_over_wide_range():
    rng = make_rng(21)
    for _ in range(50):
        base = rng.random(20) * 100.0 + 1.0
        params = fit_scaler(base)
        values = rng.uniform(params.min_value, 10.0 * params.max_value, size=100)
        back = inverse_transform(params, transform(params, values))
        np.testing.assert_allclose(back, values, rtol=1e-12)


def test_scaler_never_sees_test_values():
    rng = make_rng(22)
    train = rng.random(50) * 10.0
    params = fit_scaler(train)
    for _ in range(10):
        test = rng.random(30) * 1000.0 - 500.0  # arbitrary test content
        del test  # fitting ignores it by construction
        assert fit_scaler(train) == params


# -------------------------------------------------------------- make_windows


def brute_force_windows(values, window):
    inputs, targets = [], []
    for i in range(len(values) - window):
        inputs.append([[v] for v in values[i : i + window]])
        targets.append(values[i + window])
    return np.array(inputs, dtype=float).reshape(-1, window, 1), np.array(targets)


def test_make_windows_matches_enumeration():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    ds = make_windows(values, 3)
    exp_inputs, exp_targets = brute_force_windows(values, 3)
    assert ds.n_samples == 2
    np.testing.assert_array_equal(ds.inputs, exp_inputs)
    np.testing.assert_array_equal(ds.targets, exp_targets)


def test_make_windows_random_vs_enumeration():
    rng = make_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        window = int(rng.integers(1, n))
        values = rng.random(n)
        ds = make_windows(values, window)
        exp_inputs, exp_targets = brute_force_windows(values, window)
        np.testing.assert_array_equal(ds.inputs, exp_inputs)
        np.testing.assert_array_equal(ds.targets, exp_targets)


def test_make_windows_count_formula():
    ds = make_windows(np.arange(103.0), 100)
    assert ds.n_samples == 3


def test_make_windows_zero_samples_raises():
    message = "^series of length 3 yields no samples at window 3$"
    with pytest.raises(InvalidWindowError, match=message):
        make_windows([1.0, 2.0, 3.0], 3)


def test_make_windows_invalid_window():
    with pytest.raises(InvalidWindowError):
        make_windows([1.0, 2.0], 0)


def test_make_windows_shift_property():
    rng = make_rng(33)
    values = rng.random(30)
    ds = make_windows(values, 7)
    for i in range(ds.n_samples - 1):
        np.testing.assert_array_equal(ds.inputs[i, 1:, 0], ds.inputs[i + 1, :-1, 0])


# ------------------------------------------------------- bridge_test_windows


def test_bridge_hand_case():
    a, b, c, d, e = 1.0, 2.0, 3.0, 4.0, 5.0
    ds = bridge_test_windows([a, b, c], [d, e], 3)
    assert ds.n_samples == 2
    np.testing.assert_array_equal(ds.inputs[0, :, 0], [a, b, c])
    np.testing.assert_array_equal(ds.inputs[1, :, 0], [b, c, d])
    np.testing.assert_array_equal(ds.targets, [d, e])


def test_bridge_empty_test():
    ds = bridge_test_windows([1.0, 2.0, 3.0], [], 3)
    assert ds.n_samples == 0


def test_bridge_sample_count_equals_test_length():
    rng = make_rng(41)
    tail = rng.random(5)
    test = rng.random(20)
    days = [date.fromordinal(738155 + k) for k in range(20)]
    ds = bridge_test_windows(tail, test, 5, dates=days)
    assert ds.n_samples == 20
    assert ds.target_dates == tuple(days)
    np.testing.assert_array_equal(ds.targets, test)


def test_bridge_tail_too_short():
    with pytest.raises(InvalidWindowError, match="train tail has 2 values, need exactly 3"):
        bridge_test_windows([1.0, 2.0], [3.0], 3)


def test_bridge_tail_too_long():
    # a longer tail would add windows that end before the first test value
    with pytest.raises(InvalidWindowError, match="train tail has 4 values, need exactly 3"):
        bridge_test_windows([0.0, 1.0, 2.0, 3.0], [4.0], 3)


# ------------------------------------------------------------- footprint


def test_make_windows_inputs_are_a_read_only_view_of_the_series():
    values = make_rng(43).random(50)
    ds = make_windows(values, 7)
    assert np.shares_memory(ds.inputs, values)
    assert not ds.inputs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ds.inputs[0, 0, 0] = 1.0


def test_bridge_inputs_are_a_read_only_view_of_the_bridged_series():
    rng = make_rng(44)
    ds = bridge_test_windows(rng.random(7), rng.random(20), 7)
    # window i+1 starts one value after window i: only views of one series overlap
    assert np.shares_memory(ds.inputs[:-1], ds.inputs[1:])
    assert not ds.inputs.flags.writeable

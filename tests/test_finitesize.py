"""Truncation deviation D_N, cumulative C_N, and onset analysis."""

import math

import numpy as np
import pytest

from defectlattice import (
    DeviationSeries,
    InsufficientDataError,
    InvalidComparisonError,
    TimeGrid,
    deviation,
    onset_time,
)
from defectlattice.finitesize import _running_mean

GRID = TimeGrid.uniform(4.0, 401)


def test_zero_at_start_and_bounds():
    ser = deviation(1.0, 10, GRID)
    assert ser.d_values[0] == 0.0
    assert np.all(ser.d_values >= 0.0)
    assert np.all(ser.d_values <= 1.0)


def test_identical_systems_vanish():
    ser = deviation(0.7, 10, GRID, n_ref=10)
    assert np.max(ser.d_values) < 1e-12


def test_mismatched_specs_rejected():
    with pytest.raises(InvalidComparisonError):
        deviation(1.0, 20, GRID, n_ref=10)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the published small-deviation claim is inconsistent with the overlap definition; D_10 at delta=1 "
    "reaches ~7e-3 by tau=4 because the reference chain's ballistic front "
    "carries weight past site 9 from tau ~ 2.5 on",
)
def test_d10_below_1e4_through_tau4():
    ser = deviation(1.0, 10, GRID)
    assert np.max(ser.d_values) < 1e-4


def test_cumulative_of_zero_and_constant():
    tau = TimeGrid.uniform(2.0, 21).tau
    assert np.allclose(_running_mean(tau, np.zeros(21))[1:], 0.0)
    c = _running_mean(tau, np.full(21, 0.37))
    assert np.isnan(c[0])
    assert np.allclose(c[1:], 0.37, atol=1e-14)


def test_cumulative_requires_two_points():
    with pytest.raises(InsufficientDataError):
        deviation(1.0, 10, TimeGrid(np.array([0.0])))
    with pytest.raises(InsufficientDataError):
        deviation(1.0, 10, TimeGrid(np.array([1.0, 2.0])))


def test_cumulative_bounded_by_running_max():
    for delta in (0.474, 1.0, 4.17):
        ser = deviation(delta, 10, TimeGrid.uniform(4.0, 400))
        running_max = np.maximum.accumulate(ser.d_values)
        ok = ser.c_values[1:] <= running_max[1:] + 1e-15
        assert ok.all()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="C_10(4) computed from the "
    "stated definitions lands at 1.1e-4 (delta=0.474), 4.2e-4 (1.0), "
    "5.2e-4 (4.17), above the published 1e-6..1e-5 range even with a "
    "decade of slack on each side",
)
def test_c10_band_matches_published_range():
    for delta in (0.474, 1.0, 4.17):
        ser = deviation(delta, 10, TimeGrid.uniform(4.0, 400))
        assert 1e-7 <= ser.c_values[-1] <= 1e-4


def test_c10_frozen_values():
    # honest record of what the definitions produce (400-point trapezoid,
    # 600-site reference)
    expected = {0.474: 1.149e-4, 1.0: 4.191e-4, 4.17: 5.212e-4}
    for delta, val in expected.items():
        ser = deviation(delta, 10, TimeGrid.uniform(4.0, 400))
        assert ser.c_values[-1] == pytest.approx(val, rel=2e-3)


def test_monotone_refinement_past_light_cone():
    # at tau = 4 the front spans 2*tau = 8 sites; for N >= 10 growing N
    # can only reduce the deviation
    grid = TimeGrid(np.array([0.0, 4.0]))
    d_at_4 = []
    for n in (10, 20, 40):
        ser = deviation(1.0, n, grid)
        d_at_4.append(ser.d_values[-1])
    assert d_at_4[0] >= d_at_4[1] - 1e-12
    assert d_at_4[1] >= d_at_4[2] - 1e-12


def test_reference_size_stability():
    grid = TimeGrid.uniform(4.0, 81)
    a = deviation(1.0, 10, grid)
    b = deviation(1.0, 10, grid, n_ref=1200)
    # both references are cut to the same light cone
    assert np.array_equal(a.d_values, b.d_values)


def test_small_deviation_keeps_its_digits():
    # to leading order D_10 = (tau^10 * delta / 10!)^2, from the one path
    # that reaches site 10; 1 - |overlap|^2 cancels it to rounding noise
    for delta in (0.474, 1.0, 4.17):
        ser = deviation(delta, 10, TimeGrid(np.array([0.0, 0.125, 0.25])))
        lead = (0.25 ** 10 * delta / math.factorial(10)) ** 2
        assert ser.d_values[2] == pytest.approx(lead, rel=0.05, abs=0.0)


def test_onset_absent_when_flat():
    grid = TimeGrid.uniform(2.0, 21)
    ser = DeviationSeries(grid, np.zeros(21), np.zeros(21))
    assert onset_time(ser, 1e-6) is None


def test_onset_interpolates():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    ser = DeviationSeries(grid, np.array([0.0, 0.0, 1.0]), np.zeros(3))
    assert onset_time(ser, 0.5) == pytest.approx(1.5)


def test_onset_at_the_first_sample():
    grid = TimeGrid(np.array([0.5, 1.0, 2.0]))
    ser = DeviationSeries(grid, np.array([1.0, 2.0, 3.0]), np.zeros(3))
    assert onset_time(ser, 0.5) == 0.5


def _onset(delta, n, tau_max=12.0, points=4801, thr=1e-6):
    grid = TimeGrid.uniform(tau_max, points)
    ser = deviation(delta, n, grid)
    return onset_time(ser, thr)


def test_onset_scales_linearly_with_size():
    # the ballistic front makes the onset grow linearly in N (the module's
    # stated resolution of the ambiguous published phrasing): a straight
    # line through the four points fits to a few percent
    sizes = np.array([5, 10, 15, 20])
    onsets = np.array([_onset(1.0, int(n)) for n in sizes])
    coef = np.polyfit(sizes, onsets, 1)
    resid = onsets - np.polyval(coef, sizes)
    assert coef[0] > 0
    assert np.max(np.abs(resid)) < 0.05 * onsets.max()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="at threshold 1e-6 the "
    "measured ratio onset(20)/onset(10) is 2.73 (detection happens in the "
    "super-ballistic tail, so the line has a negative intercept)",
)
def test_onset_ratio_is_two():
    ratio = _onset(1.0, 20) / _onset(1.0, 10)
    assert ratio == pytest.approx(2.0, rel=0.15)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the strong defect emits its "
    "escaping burst early, so onset(delta=4.17) = 2.15 precedes "
    "onset(delta=1) = 2.37 at N=10, threshold 1e-6",
)
def test_onset_later_for_strong_defect():
    assert _onset(4.17, 10, tau_max=4.0, points=2001) > _onset(1.0, 10, tau_max=4.0, points=2001)

"""Bessel implementation vs an independent power-series oracle."""

import math

import numpy as np
import pytest

from defectlattice import InvalidSpecError, bessel_j, bessel_j_array


from helpers import J1_FIRST_ZERO, series_j


def test_zero_argument():
    assert bessel_j(0, 0.0) == 1.0
    for l in (1, 2, 7, -3):
        assert bessel_j(l, 0.0) == 0.0


@pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 10, 25])
@pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 2.0, 4.0, 8.0])
def test_matches_series(l, x):
    ref = series_j(l, x)
    got = bessel_j(l, x)
    assert got == pytest.approx(ref, rel=5e-12, abs=5e-13)


@pytest.mark.parametrize("x", [1e-300, 1e-100, 1e-9, 2e-8])
def test_tiny_arguments_match_series(x):
    # the downward recurrence grows by 2l/x per order and overflowed to nan
    # below x ~ 1e-50
    ref = [series_j(l, x) for l in range(6)]
    assert bessel_j_array(5, x) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_twelve_digit_accuracy_sample():
    # mid-scale value with a non-tiny magnitude: demand 12 significant digits
    ref = series_j(4, 7.0)
    assert abs(bessel_j(4, 7.0) - ref) < abs(ref) * 1e-12


def test_parity_identity():
    assert bessel_j(-3, 2.0) == -bessel_j(3, 2.0)
    assert bessel_j(-4, 2.7) == bessel_j(4, 2.7)


def test_first_j1_zero():
    # bisection oracle pins the zero; the implementation must vanish there
    assert J1_FIRST_ZERO == pytest.approx(3.8317059702075123, abs=1e-10)
    assert abs(bessel_j(1, J1_FIRST_ZERO)) < 1e-12


@pytest.mark.parametrize("x", [1.0, 10.0, 100.0, 1000.0])
def test_squared_sum_rule(x):
    # J_0^2 + 2 sum_{l>=1} J_l^2 = 1 holds at any argument and is
    # independent of the normalization used inside Miller's recurrence
    l_max = int(x + 40 + 3 * math.sqrt(x))
    js = bessel_j_array(l_max, x)
    total = js[0] ** 2 + 2.0 * float(np.sum(js[1:] ** 2))
    assert total == pytest.approx(1.0, abs=5e-13)


def test_array_consistent_with_scalar():
    # scalar calls re-run the recurrence with their own start order, so
    # agreement is at rounding level rather than bitwise
    js = bessel_j_array(12, 3.3)
    for l in range(13):
        assert js[l] == pytest.approx(bessel_j(l, 3.3), rel=1e-13, abs=1e-15)


def test_random_orders_match_series(rng):
    for _ in range(40):
        l = int(rng.integers(0, 30))
        x = float(rng.uniform(0.0, 8.0))
        assert bessel_j(l, x) == pytest.approx(series_j(l, x), rel=1e-11, abs=1e-12)


def test_domain_errors():
    with pytest.raises(InvalidSpecError):
        bessel_j(0, -1.0)
    with pytest.raises(InvalidSpecError):
        bessel_j(0, 1.0e4)
    with pytest.raises(InvalidSpecError):
        bessel_j_array(-1, 1.0)

"""Ricker index landscapes and array geometry."""

import dataclasses
import math

import numpy as np
import pytest

from defectlattice import GeometryError, InvalidSpecError, preset
from defectlattice.eme import (
    RickerParams,
    TransverseGrid,
    WaveguideGeometry,
    array_profile,
    ricker_profile,
)
from defectlattice.experiments import DEFAULT_EME_CONFIG

P = RickerParams(3e-3, 4.0, 4.0, 1.457)


def test_params_validation():
    with pytest.raises(InvalidSpecError):
        RickerParams(0.0, 4.0, 4.0, 1.457)
    with pytest.raises(InvalidSpecError):
        RickerParams(1e-3, -1.0, 4.0, 1.457)


@pytest.mark.parametrize("field", ["delta_n", "sigma_x", "sigma_y", "n0"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
def test_params_must_be_finite_and_positive(field, value):
    with pytest.raises(InvalidSpecError, match=f"{field} must be finite and > 0, got {value}"):
        dataclasses.replace(P, **{field: value})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
def test_profile_n0_must_be_finite_and_positive(value):
    prof = ricker_profile(P, TransverseGrid.centered(40.0, 40.0, 1.0, 1.0))
    assert (prof.grid.nx, prof.grid.ny) == (41, 41)
    with pytest.raises(InvalidSpecError, match=f"n0 must be finite and > 0, got {value}"):
        dataclasses.replace(prof, n0=value)


def test_profile_landmarks():
    g = TransverseGrid.centered(40.0, 40.0, 0.25, 0.25)
    prof = ricker_profile(P, g)
    iy0 = g.ny // 2
    ix0 = g.nx // 2
    # peak value n0 + dn at the center
    assert prof.n[iy0, ix0] == pytest.approx(P.n0 + P.delta_n, rel=1e-12)
    # the x-direction minimum sits exactly at sigma_x with depth dn*e^-2
    ix_sig = ix0 + int(round(P.sigma_x / g.dx))
    assert g.x[ix_sig] == pytest.approx(P.sigma_x)
    assert prof.n[iy0, ix_sig] == pytest.approx(P.n0 - P.delta_n * math.exp(-2.0), rel=1e-12)
    row = prof.n[iy0, ix0:]
    assert np.argmin(row) == ix_sig - ix0
    # far away the profile returns to the substrate
    assert prof.n[iy0, -1] == pytest.approx(P.n0, abs=1e-12)
    # global dip never undershoots the ring minimum
    assert prof.n.min() >= P.n0 - P.delta_n * math.exp(-2.0) - 1e-9


def test_geometry_spacings():
    geom = WaveguideGeometry.from_spacings(10, 27.1, 27.1)
    gaps = np.diff(geom.centers)
    assert np.allclose(gaps, 27.1)
    geom = WaveguideGeometry.from_spacings(10, 19.6, 27.1)
    gaps = np.diff(geom.centers)
    assert gaps[0] == pytest.approx(19.6)
    assert np.allclose(gaps[1:], 27.1)
    assert np.mean([geom.centers[0], geom.centers[-1]]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidSpecError):
        WaveguideGeometry((0.0, -1.0))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_geometry_must_be_finite(value):
    with pytest.raises(InvalidSpecError, match=f"centers must be finite, got \\(0.0, {value}\\)"):
        WaveguideGeometry((0.0, value))
    with pytest.raises(InvalidSpecError, match=f"^d0 must be finite and > 0, got {value}$"):
        WaveguideGeometry.from_spacings(3, value, 27.1)
    with pytest.raises(InvalidSpecError, match=f"^d must be finite and > 0, got {value}$"):
        WaveguideGeometry.from_spacings(3, 27.1, value)


@pytest.mark.parametrize("n_guides", [2, 3, 10])
def test_uniform_spacings_are_exactly_antisymmetric(n_guides):
    c = np.array(WaveguideGeometry.from_spacings(n_guides, 27.1, 27.1).centers)
    assert np.array_equal(c, -c[::-1])


@pytest.mark.parametrize("step", [0.3, 0.4, 0.5, 0.6, 0.8, 1.25])
def test_a2_profile_equals_its_x_flip(step):
    # the mode solver splits x and y parities only for an exactly symmetric map
    exp = preset("A2")
    config = dataclasses.replace(DEFAULT_EME_CONFIG, step=step)
    geom = WaveguideGeometry.from_spacings(exp.n_sites, exp.d0, exp.d)
    prof = array_profile(config.ricker(), geom, config.grid_for(geom))
    assert np.array_equal(prof.n, prof.n[:, ::-1])
    assert np.array_equal(prof.n, prof.n[::-1, :])


def test_single_guide_array_equals_ricker():
    g = TransverseGrid.centered(40.0, 40.0, 0.5, 0.5)
    single = ricker_profile(P, g)
    arr = array_profile(P, WaveguideGeometry((0.0,)), g)
    assert np.allclose(arr.n, single.n, atol=1e-15)


def test_array_superposition_adds_increments():
    g = TransverseGrid.centered(80.0, 40.0, 0.5, 0.5)
    geom = WaveguideGeometry((-13.55, 13.55))
    arr = array_profile(P, geom, g)
    a = ricker_profile(P, g, (-13.55, 0.0)).n - P.n0
    b = ricker_profile(P, g, (13.55, 0.0)).n - P.n0
    assert np.allclose(arr.n, a + b + P.n0, atol=1e-15)


def test_margin_violation():
    g = TransverseGrid.centered(30.0, 30.0, 0.5, 0.5)
    geom = WaveguideGeometry((-13.55, 13.55))  # 1.45 um from edge < 3*sigma
    with pytest.raises(GeometryError):
        array_profile(P, geom, g)

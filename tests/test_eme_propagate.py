"""Beam launch, EME propagation, intensity extraction, fidelity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from defectlattice import DegenerateInputError, InvalidSpecError
from defectlattice.eme import (
    Field,
    RickerParams,
    TransverseGrid,
    WaveguideGeometry,
    array_profile,
    extract_intensities,
    gaussian_input,
    inner,
    mode_fidelity,
    modal_coefficients,
    propagate_eme,
    ricker_profile,
    shift_mode,
    solve_modes,
)
from defectlattice.eme.propagate import _guide_intensities, _modal_amplitudes

LAM = 0.633
N0 = 1.457
DESK = RickerParams(3e-3, 4.0, 4.0, N0)


@pytest.fixture(scope="module")
def pair_system():
    grid = TransverseGrid.centered(27.1 + 80.0, 80.0, 0.5, 0.5)
    geom = WaveguideGeometry((-13.55, 13.55))
    modes = solve_modes(array_profile(DESK, geom, grid), LAM, 2)
    phi = solve_modes(ricker_profile(DESK, grid), LAM, 1).modes[0]
    return grid, geom, modes, phi


def test_gaussian_input_basics(pair_system):
    grid, geom, _, _ = pair_system
    f = gaussian_input(geom, 3.0, 3.0, grid)
    assert f.norm() == pytest.approx(1.0, rel=1e-12)
    iy, ix = np.unravel_index(np.argmax(f.values), f.values.shape)
    assert grid.x[ix] == pytest.approx(geom.centers[0], abs=grid.dx)
    assert grid.y[iy] == pytest.approx(0.0, abs=grid.dy)


def test_gaussian_matched_overlap(pair_system):
    grid, geom, _, phi = pair_system
    X, Y = grid.mesh()
    I = phi.values ** 2
    m2x = float(np.sum(I * X ** 2) * grid.cell_area)
    m2y = float(np.sum(I * Y ** 2) * grid.cell_area)
    g = gaussian_input(geom, np.sqrt(2 * m2x), np.sqrt(2 * m2y), grid)
    phi0 = shift_mode(phi, geom.centers[0])
    ov = float(np.sum(g.values * phi0.values) * grid.cell_area)
    assert ov > 0.9


def test_propagation_projects_at_zero(pair_system):
    grid, geom, modes, phi = pair_system
    inp = gaussian_input(geom, 3.0, 3.0, grid)
    a = modal_coefficients(modes, inp)
    out = propagate_eme(modes, inp, [0.0])[0]
    recon = sum(
        a[k] * modes.modes[k].values for k in range(modes.n_modes)
    )
    assert np.allclose(out.values, recon, atol=1e-12)


def test_modal_power_conserved(pair_system):
    grid, geom, modes, _ = pair_system
    inp = gaussian_input(geom, 3.0, 3.0, grid)
    a0 = np.sum(np.abs(modal_coefficients(modes, inp)) ** 2)
    for z in (0.0, 3.7, 11.0):
        out = propagate_eme(modes, inp, [z])[0]
        a = modal_coefficients(modes, Field(grid, out.values))
        assert np.sum(np.abs(a) ** 2) == pytest.approx(a0, rel=1e-10)


def test_extraction_localizes(pair_system):
    grid, geom, _, phi = pair_system
    # field = localized mode on guide 1: all weight lands on guide 1
    f = shift_mode(phi, geom.centers[1])
    c2 = extract_intensities(Field(grid, f.values), phi, geom)
    assert c2.sum() == pytest.approx(1.0, abs=1e-15)
    assert c2[1] > 1.0 - 1e-3
    assert c2[0] < 1e-3


def test_extraction_variants(pair_system):
    grid, geom, modes, phi = pair_system
    inp = gaussian_input(geom, 3.0, 3.0, grid)
    out = propagate_eme(modes, inp, [5.0])[0]
    printed = extract_intensities(out, phi, geom)
    coherent = extract_intensities(out, phi, geom, coherent=True)
    assert printed.sum() == pytest.approx(1.0, abs=1e-15)
    assert coherent.sum() == pytest.approx(1.0, abs=1e-15)
    # both normalized readouts agree on which guide is brighter
    assert (printed[0] > printed[1]) == (coherent[0] > coherent[1])


# function -> (call on a field from another grid, its message)
_OTHER_GRID = {
    "inner": (lambda phi, modes, geom, other: inner(phi, other), "fields live on different grids"),
    "modal_coefficients": (lambda phi, modes, geom, other: modal_coefficients(modes, other),
                           "input field and modes live on different grids"),
    "extract_intensities": (lambda phi, modes, geom, other: extract_intensities(other, phi, geom),
                            "field and localized mode live on different grids"),
    "mode_fidelity": (lambda phi, modes, geom, other: mode_fidelity(phi, other),
                      "fields live on different grids"),
}


@pytest.mark.parametrize("name", _OTHER_GRID)
def test_operands_must_share_a_grid(pair_system, name):
    _, geom, modes, phi = pair_system
    other = Field(TransverseGrid.centered(10.0, 10.0, 0.5, 0.5), np.ones((21, 21)))
    call, message = _OTHER_GRID[name]
    with pytest.raises(InvalidSpecError, match=f"^{message}$"):
        call(phi, modes, geom, other)


def test_extraction_rejects_zero_field(pair_system):
    grid, geom, _, phi = pair_system
    with pytest.raises(DegenerateInputError):
        extract_intensities(Field(grid, np.zeros((grid.ny, grid.nx))), phi, geom)


@pytest.mark.parametrize("coherent", [False, True])
def test_modal_readout_matches_field_readout(pair_system, coherent):
    grid, geom, modes, phi = pair_system
    inp = gaussian_input(geom, 3.0, 3.0, grid)
    zs = np.array([0.0, 3.7, 11.0, 23.5])  # phases past 1e6 rad from z = 11 cm
    stack = np.stack([m.values for m in modes.modes])
    u = _modal_amplitudes(modes, modal_coefficients(modes, inp), zs)
    modal = _guide_intensities(u, stack, phi, geom, coherent)
    fields = np.array(
        [extract_intensities(f, phi, geom, coherent) for f in propagate_eme(modes, inp, zs)]
    )
    assert np.max(np.abs(modal - fields)) < 1e-12
    with pytest.raises(DegenerateInputError):
        _guide_intensities(np.zeros((2, modes.n_modes)), stack, phi, geom, coherent)


def test_fidelity_examples(pair_system):
    grid, _, modes, _ = pair_system
    a, b = modes.modes
    assert mode_fidelity(a, a) == pytest.approx(1.0, rel=1e-12)
    assert mode_fidelity(a, b) < 1e-8  # orthogonal eigenmodes
    with pytest.raises(DegenerateInputError):
        mode_fidelity(a, Field(grid, np.zeros((grid.ny, grid.nx))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    nx=st.integers(8, 24),
    step=st.sampled_from([0.25, 0.3, 0.5, 1.0, 1.25]),
    x0=st.floats(-20.0, 20.0),
    nodes=st.integers(-30, 30),
    offset=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
    data=st.data(),
)
@example(nx=8, step=0.5, x0=-1.75, nodes=0, offset=0.0, data=None)  # no shift
@example(nx=8, step=0.5, x0=-1.75, nodes=7, offset=0.0, data=None)  # onto the last node
@example(nx=8, step=0.5, x0=-1.75, nodes=-7, offset=0.0, data=None)  # onto the first node
@example(nx=8, step=0.5, x0=-1.75, nodes=8, offset=1e-12, data=None)  # just past the right end
@example(nx=8, step=0.3, x0=-1.05, nodes=-3, offset=0.123, data=None)
def test_shift_mode_is_rowwise_interp(nx, step, x0, nodes, offset, data):
    # on nodes, off nodes, negative, and past both edges
    grid = TransverseGrid(nx, 8, step, 1.0, x0, 0.0)
    elements = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    values = (np.random.default_rng(nx).normal(size=(grid.ny, nx)) if data is None
              else data.draw(arrays(float, (grid.ny, nx), elements=elements)))
    dx = nodes * step + offset * step
    x = grid.x
    want = np.array([np.interp(x - dx, x, row, left=0.0, right=0.0) for row in values])
    got = shift_mode(Field(grid, values), dx).values
    assert np.array_equal(got, want)

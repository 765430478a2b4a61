"""Index inversion and Ricker fitting on synthetic modes."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import defectlattice
from defectlattice import (
    DegenerateInputError,
    FitFailureError,
    InvalidSpecError,
    SigmaExtractionError,
)
from defectlattice.eme import (
    Field,
    ModeSet,
    RickerParams,
    TransverseGrid,
    fit_ricker,
    implied_n_eff,
    reconstruct_index,
    ricker_profile,
    solve_modes,
)

LAM = 0.633
N0 = 1.457
TRUE = RickerParams(3e-3, 4.0, 4.0, N0)
GRID = TransverseGrid.centered(72.0, 72.0, 0.25, 0.25)


@pytest.fixture(scope="module")
def synthetic():
    ms = solve_modes(ricker_profile(TRUE, GRID), LAM, 1)
    return ms.modes[0], float(ms.n_eff[0])


def test_roundtrip_is_exact_on_mask(synthetic):
    mode, n_eff = synthetic
    rec = reconstruct_index(mode, n_eff, LAM, intensity_floor=0.01)
    truth = ricker_profile(TRUE, GRID).n
    err = np.nanmax(np.abs(np.where(rec.mask, rec.n - truth, np.nan)))
    assert err < 1e-9  # same stencil both ways: eigensolver accuracy
    assert rec.negative_count == 0


def test_peak_value_within_one_percent(synthetic):
    mode, n_eff = synthetic
    rec = reconstruct_index(mode, n_eff, LAM)
    peak = np.nanmax(rec.n)
    assert peak == pytest.approx(N0 + TRUE.delta_n, rel=1e-2)


def test_full_floor_masks_everything(synthetic):
    mode, n_eff = synthetic
    rec = reconstruct_index(mode, n_eff, LAM, intensity_floor=1.0)
    assert not rec.mask.any()
    assert np.isnan(rec.n).all()


def test_floor_validation(synthetic):
    mode, n_eff = synthetic
    with pytest.raises(InvalidSpecError):
        reconstruct_index(mode, n_eff, LAM, intensity_floor=0.0)


def test_implied_n_eff_matches_solver(synthetic):
    mode, n_eff = synthetic
    est = implied_n_eff(mode, LAM, N0)
    assert est == pytest.approx(n_eff, abs=2e-5)


def camera_image(mode_values: np.ndarray) -> tuple[TransverseGrid, np.ndarray]:
    """Resample the fine synthetic mode like a camera: 1 um pixels, 40 um field.

    The fine 0.25 um solver grid oversamples the pixel-level inversion;
    at camera sampling the discrete Laplacian of 1%-noise stays small
    against the index dip and the published-style noise robustness holds.
    """
    g1 = TransverseGrid.centered(40.0, 40.0, 1.0, 1.0)
    vals = mode_values[64:-64:4, 64:-64:4]
    assert vals.shape == (g1.ny, g1.nx)
    return g1, vals


def test_noisy_minima_localization(synthetic, rng):
    # 1% additive noise, 20 seeds: the sigma estimate from the masked
    # reconstruction stays within 10% of the true width (median over seeds)
    from defectlattice.eme.reconstruct import _minima_distance

    mode, n_eff = synthetic
    g1, clean = camera_image(mode.values)
    peak = clean.max()
    estimates = []
    for _ in range(20):
        noisy = np.clip(clean + rng.normal(0.0, 0.01 * peak, clean.shape), 0.0, None)
        rec = reconstruct_index(Field(g1, noisy), n_eff, LAM, intensity_floor=0.05)
        iy, ix = np.unravel_index(int(np.argmax(noisy)), noisy.shape)
        try:
            estimates.append(_minima_distance(g1.x, rec.n[iy, :], ix))
        except SigmaExtractionError:
            continue
    assert len(estimates) >= 15
    assert np.median(estimates) == pytest.approx(TRUE.sigma_x, rel=0.10)


def test_fit_recovers_parameters(synthetic):
    mode, _ = synthetic
    params, fidelity = fit_ricker(mode, LAM, N0)
    assert params.delta_n == pytest.approx(TRUE.delta_n, rel=0.02)
    assert params.sigma_x == pytest.approx(TRUE.sigma_x, rel=0.02)
    assert params.sigma_y == pytest.approx(TRUE.sigma_y, rel=0.02)
    assert fidelity > 0.999


def test_fit_residual_pointwise(synthetic):
    # regenerate the fitted mode and compare against the input image
    mode, _ = synthetic
    params, _ = fit_ricker(mode, LAM, N0)
    refit = solve_modes(ricker_profile(params, GRID), LAM, 1).modes[0]
    resid = np.max(np.abs(refit.values - mode.values)) / mode.values.max()
    assert resid < 2.4e-4  # quoted reconstruction-quality bound


# every raise of the inversion and the fit, each on a small hand-made image
SMALL = TransverseGrid.centered(24.0, 24.0, 1.0, 1.0)
X, Y = np.meshgrid(SMALL.x, SMALL.y)


def _spot(width2):
    return np.exp(-(X ** 2 + Y ** 2) / width2)


@pytest.mark.parametrize(
    "call",
    [lambda f: reconstruct_index(f, N0, LAM), lambda f: implied_n_eff(f, LAM, N0)],
    ids=["reconstruct_index", "implied_n_eff"],
)
def test_zero_mode_is_degenerate(call):
    with pytest.raises(DegenerateInputError, match="^mode is identically zero$"):
        call(Field(SMALL, np.zeros_like(X)))


def test_flat_mode_has_no_dim_ring():
    with pytest.raises(SigmaExtractionError, match="^no dim ring available to anchor n_eff$"):
        implied_n_eff(Field(SMALL, np.ones_like(X)), LAM, N0)


def test_concave_dim_ring_anchors_no_n_eff():
    # a bright core on a concave dome that holds the dim ring: there
    # -lap(psi)/psi / k0^2 = n0^2 - n_eff^2 is positive, and above this n0^2
    psi = 3.0 * _spot(2.0) + 0.02 * (1.0 - (X ** 2 + Y ** 2) / 18.0 ** 2)
    with pytest.raises(FitFailureError, match=r"^anchored n_eff\^2 came out non-positive$"):
        implied_n_eff(Field(SMALL, psi), LAM, 1e-3)


def test_cut_rising_on_both_sides_has_no_minimum():
    from defectlattice.eme.reconstruct import _minima_distance

    x = np.arange(-5.0, 6.0)
    with pytest.raises(SigmaExtractionError,
                       match="^no interior index minima found along axis cut$"):
        _minima_distance(x, x ** 2, 5)


def test_refinement_window_of_few_finite_samples_keeps_the_sample():
    from defectlattice.eme.reconstruct import _refine_minimum

    x = np.arange(-5.0, 6.0)
    cut = np.full(x.size, np.nan)
    cut[4:7] = [1.0, 0.5, 1.0]  # three finite samples, too few for the spline
    assert _refine_minimum(x, cut, 5) == 0.0


def test_fit_refuses_a_peak_on_the_boundary():
    # brightest in the last column, where the Laplacian and so the mask are undefined
    psi = np.exp((X - SMALL.x[-1]) / 2.0)
    with pytest.raises(SigmaExtractionError, match="^mode peak is masked in the reconstruction$"):
        fit_ricker(Field(SMALL, psi), LAM, N0)


def test_fit_refuses_a_dip_at_the_peak():
    # the brightest 3x3 box sits on a pixel darker than its neighbours: a
    # positive Laplacian there reconstructs an index below n0
    psi = _spot(18.0)
    psi[SMALL.ny // 2, SMALL.nx // 2] *= 0.5
    with pytest.raises(FitFailureError,
                       match=r"^reconstructed peak contrast -\d\.\d{3}e-\d\d is not positive$"):
        fit_ricker(Field(SMALL, psi), LAM, N0)


def test_fit_of_four_guides_stays_below_half_fidelity():
    # one fitted guide holds about a quarter of the power of four equal spots
    grid = TransverseGrid.centered(32.0, 32.0, 1.0, 1.0)
    x, y = np.meshgrid(grid.x, grid.y)
    psi = sum(np.exp(-((x - a) ** 2 + (y - b) ** 2) / 8.0) for a in (-7, 7) for b in (-7, 7))
    with pytest.raises(FitFailureError, match=r"^fit fidelity 0\.\d{3} below 0\.5$"):
        fit_ricker(Field(grid, psi), LAM, N0)


def test_candidate_binding_no_mode_scores_zero(synthetic, monkeypatch):
    # every candidate binds nothing, so each scores fidelity 0 and the fit fails
    import defectlattice.eme.reconstruct as reconstruct_module

    solved = []

    def no_mode(profile, wavelength, n_modes, check_edges=True):
        solved.append(n_modes)
        return ModeSet(profile.grid, (), np.empty(0), wavelength, n_modes)

    monkeypatch.setattr(reconstruct_module, "solve_modes", no_mode)
    mode, _ = synthetic
    with pytest.raises(FitFailureError, match=r"^fit fidelity 0\.000 below 0\.5$"):
        fit_ricker(mode, LAM, N0)
    assert set(solved) == {1}  # k = 1 candidates, at least one


_LAZY_IMPORTS_SCRIPT = """
import sys
from defectlattice.cli import main
from defectlattice.eme import RickerParams, TransverseGrid, fit_ricker, ricker_profile, solve_modes

def loaded():
    return [name in sys.modules for name in ("scipy.interpolate", "scipy.optimize")]

assert main(["closed-form", "--delta", "1", "--steps", "11", "--out", sys.argv[1]]) == 0
print(loaded())
grid = TransverseGrid.centered(60.0, 60.0, 0.5, 0.5)
ms = solve_modes(ricker_profile(RickerParams(3e-3, 4.0, 4.0, 1.457), grid), 0.633, 1,
                 check_edges=False)
fit_ricker(ms.modes[0], 0.633, 1.457)
print(loaded())
"""


def test_fit_modules_load_only_when_a_fit_runs(tmp_path):
    # a fresh interpreter, so modules other tests imported do not count
    src = str(pathlib.Path(defectlattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORTS_SCRIPT, str(tmp_path / "c0.csv")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[False, False]", "[True, True]"]

"""Index-profile recovery from a single-guide mode image, and the Ricker fit.

The scalar-Helmholtz relation inverts pointwise,

    n(x, y) = sqrt( (k^2 psi - lap psi) / (k0^2 psi) ),

but the division by psi amplifies noise wherever the intensity is low, so
the inversion is only evaluated where psi exceeds a floor fraction of its
peak (masked elsewhere).  Because the same 5-point stencil is used here
and in the mode solver, a noise-free synthetic mode reproduces its source
profile on the mask to eigensolver accuracy.

The fit mirrors the reconstruction workflow: widths sigma_x, sigma_y are
the distances between the index minima and the central maximum (coarse
search on 3-point-moving-average axis cuts, sub-grid refinement on a
cubic spline through the raw cut -- the minima locations do not depend on
the assumed n_eff, which only offsets n^2 by a constant), then the peak
contrast is fit by maximizing the fidelity between the measured mode and
the candidate profile's fundamental mode with Brent's bounded method
(parabolic steps, golden-section fallback) on 0.3 to 3 times the
reconstructed contrast.  For a measured image no eigenvalue is available,
so n_eff is anchored by requiring the dimmest retained ring of the image,
where the guide's index increment has already decayed, to reconstruct to
the substrate n0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    DegenerateInputError,
    FitFailureError,
    InvalidSpecError,
    SigmaExtractionError,
    _real,
    _real_array,
)
from .grid import Field, TransverseGrid
from .modes import _wavenumber, solve_modes
from .profile import RickerParams, ricker_profile
from .propagate import mode_fidelity

#: default inversion mask: keep points with psi > 5% of the peak
DEFAULT_FLOOR = 0.05

#: Brent-search tolerance on the fitted contrast, relative to its estimate
_FIT_REL_TOL = 1e-4

#: half-width (in samples) of the raw-cut window used for sub-grid
#: refinement of a minimum located on the smoothed cut
_REFINE_HALF = 4


@dataclass(frozen=True)
class ReconstructedIndex:
    """Masked index map: values are NaN outside the retained region.

    ``negative_count`` reports unmasked points whose inversion radicand
    came out negative (they are returned masked).
    """

    grid: TransverseGrid
    n: np.ndarray
    mask: np.ndarray
    negative_count: int


def _laplacian(psi: np.ndarray, grid: TransverseGrid) -> np.ndarray:
    """5-point Laplacian; NaN on the boundary ring where it is undefined."""
    lap = np.full_like(psi, np.nan)
    lap[1:-1, 1:-1] = (
        (psi[1:-1, 2:] - 2.0 * psi[1:-1, 1:-1] + psi[1:-1, :-2]) / grid.dx ** 2
        + (psi[2:, 1:-1] - 2.0 * psi[1:-1, 1:-1] + psi[:-2, 1:-1]) / grid.dy ** 2
    )
    return lap


def reconstruct_index(
    mode: Field,
    n_eff: float,
    wavelength: float,
    intensity_floor: float = DEFAULT_FLOOR,
) -> ReconstructedIndex:
    """Invert the eigenmode relation for n(x, y) where the mode is bright (n_eff finite, > 0)."""
    n_eff = _real(n_eff, "n_eff", "> 0")
    if _real(intensity_floor, "intensity_floor", "> 0") > 1.0:
        raise InvalidSpecError(f"intensity_floor must be <= 1, got {intensity_floor}")
    psi = _real_array(mode.values, "mode", ">= 0")  # a flat wavefront: no phase to follow
    peak = float(psi.max())
    if peak <= 0.0:
        raise DegenerateInputError("mode is identically zero")
    g = mode.grid
    k0 = _wavenumber(wavelength)
    k2 = (k0 * n_eff) ** 2

    lap = _laplacian(psi, g)
    mask = psi > intensity_floor * peak
    mask[0, :] = mask[-1, :] = False  # stencil undefined on the boundary ring
    mask[:, 0] = mask[:, -1] = False

    with np.errstate(invalid="ignore", divide="ignore"):
        radicand = np.where(mask, (k2 * psi - lap) / (k0 ** 2 * psi), np.nan)
    negative = mask & (radicand < 0.0)
    mask = mask & ~negative
    n = np.where(mask, np.sqrt(np.where(mask, radicand, 1.0)), np.nan)
    return ReconstructedIndex(g, n, mask, int(np.count_nonzero(negative)))


def _box3(v: np.ndarray) -> np.ndarray:
    """3x3 box average with edge replication."""
    p = np.pad(v, 1, mode="edge")
    return (
        p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:]
        + p[1:-1, :-2] + p[1:-1, 1:-1] + p[1:-1, 2:]
        + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]
    ) / 9.0


def implied_n_eff(mode: Field, wavelength: float, n0: float) -> float:
    """Effective index inferred by anchoring the image's dim ring to n0.

    Deep in the substrate the mode decays with -lap(psi)/psi / k0^2
    = n0^2 - n_eff^2 pointwise.  The anchor ring is taken at 1..3% of the
    peak -- far enough out that the guide's index increment (including
    the Ricker's negative lobe) has died off -- on a twice box-smoothed
    copy of the image, which keeps the Laplacian usable under pixel
    noise while biasing the anchor only at the 1e-5 level.  n0 must be finite and > 0.
    """
    n0 = _real(n0, "n0", "> 0")
    psi = _real_array(mode.values, "mode", ">= 0")
    if not psi.any():
        raise DegenerateInputError("mode is identically zero")
    g = mode.grid
    k0 = _wavenumber(wavelength)
    smooth = _box3(_box3(psi))
    lap = _laplacian(smooth, g)
    s_peak = float(smooth.max())
    ring = (smooth > 0.01 * s_peak) & (smooth < 0.03 * s_peak)
    ring[0, :] = ring[-1, :] = False
    ring[:, 0] = ring[:, -1] = False
    if not ring.any():
        raise SigmaExtractionError("no dim ring available to anchor n_eff")
    with np.errstate(invalid="ignore", divide="ignore"):
        m = -lap[ring] / smooth[ring] / k0 ** 2
    n_eff_sq = n0 ** 2 - float(np.median(m))
    if n_eff_sq <= 0:
        raise FitFailureError("anchored n_eff^2 came out non-positive")
    return float(np.sqrt(n_eff_sq))


def _smooth3(v: np.ndarray) -> np.ndarray:
    """3-point moving average; NaNs propagate (masked stays masked)."""
    out = v.copy()
    out[1:-1] = (v[:-2] + v[1:-1] + v[2:]) / 3.0
    return out


def _refine_minimum(coord: np.ndarray, cut: np.ndarray, idx: int) -> float:
    """Sub-grid minimum near sample idx via a cubic spline on the raw cut."""
    lo = max(idx - _REFINE_HALF, 0)
    hi = min(idx + _REFINE_HALF + 1, cut.size)
    window_x = coord[lo:hi]
    window_v = cut[lo:hi]
    ok = np.isfinite(window_v)
    if ok.sum() < 4:
        return float(coord[idx])
    # imported here, not at the top: they take ~0.3 s to load and only a fit uses them
    from scipy.interpolate import CubicSpline
    from scipy.optimize import minimize_scalar
    spline = CubicSpline(window_x[ok], window_v[ok])
    res = minimize_scalar(
        spline, bounds=(float(window_x[ok][0]), float(window_x[ok][-1])), method="bounded"
    )
    return float(res.x)


def _minima_distance(coord: np.ndarray, raw_cut: np.ndarray, center_idx: int) -> float:
    """Average distance from the center to the first minimum on each side.

    The walk runs on the 3-point-smoothed cut; the located minimum is then
    refined on the raw samples.  If the mask truncates a side before a
    clean interior minimum appears but the smoothed cut was descending
    monotonically into the edge (a dip cut off by the intensity floor,
    common under noise), the edge sample is accepted for that side.
    Sides without any usable minimum are skipped; if both fail, a
    SigmaExtractionError is raised.
    """
    smooth = _smooth3(raw_cut)
    dists = []
    for step in (+1, -1):
        i = center_idx
        found = None
        prev = []
        while True:
            j = i + step
            if j <= 0 or j >= smooth.size - 1 or not np.isfinite(smooth[j]):
                # truncated side: accept the edge if we were descending
                if len(prev) >= 3 and prev[-1] < prev[-2] < prev[-3]:
                    found = _refine_minimum(coord, raw_cut, i)
                break
            trio = smooth[j - 1], smooth[j], smooth[j + 1]
            if all(np.isfinite(trio)) and trio[1] < trio[0] and trio[1] <= trio[2]:
                found = _refine_minimum(coord, raw_cut, j)
                break
            prev.append(smooth[j])
            i = j
        if found is not None:
            dists.append(abs(found - coord[center_idx]))
    if not dists:
        raise SigmaExtractionError("no interior index minima found along axis cut")
    return float(np.mean(dists))


def fit_ricker(
    measured_mode: Field,
    wavelength: float,
    n0: float,
    intensity_floor: float = DEFAULT_FLOOR,
) -> tuple[RickerParams, float]:
    """Recover (delta_n, sigma_x, sigma_y) of the guide behind a mode image.

    Returns the best-fit parameters and the achieved mode fidelity.
    Raises SigmaExtractionError when the reconstruction shows no interior
    minima and FitFailureError when the final fidelity is below 0.5.
    """
    _real_array(measured_mode.values, "measured_mode", ">= 0")  # names a bad pixel
    mode = measured_mode.normalized()
    n_eff = implied_n_eff(mode, wavelength, n0)
    rec = reconstruct_index(mode, n_eff, wavelength, intensity_floor)

    # cut axes pass through the mode's central maximum; under pixel noise
    # the image peak is far more stable than the reconstruction's argmax
    # (the inversion amplifies noise hardest near the mask edge)
    iy, ix = np.unravel_index(int(np.argmax(_box3(mode.values))), mode.values.shape)
    if not rec.mask[iy, ix]:
        raise SigmaExtractionError("mode peak is masked in the reconstruction")
    g = mode.grid
    sigma_x = _minima_distance(g.x, rec.n[iy, :], ix)
    sigma_y = _minima_distance(g.y, rec.n[:, ix], iy)

    dn_est = float(rec.n[iy, ix] - n0)
    if not dn_est > 0:
        raise FitFailureError(f"reconstructed peak contrast {dn_est:.3e} is not positive")

    center = (float(g.x[ix]), float(g.y[iy]))

    def fidelity_of(dn: float) -> float:
        # candidates probed during bracketing may be weak enough that
        # their tails touch the domain edge; skip the boundary guard (the
        # clipped tail is negligible where the measured mode is bright)
        params = RickerParams(dn, sigma_x, sigma_y, n0)
        cand = solve_modes(ricker_profile(params, g, center), wavelength, 1, check_edges=False)
        if cand.n_modes == 0:
            return 0.0
        return mode_fidelity(cand.modes[0], mode)

    from scipy.optimize import minimize_scalar
    # wide bracket: under noise the reconstructed peak can be off by tens
    # of percent, and fidelity is unimodal in the contrast anyway
    res = minimize_scalar(
        lambda dn: -fidelity_of(dn),
        bounds=(0.3 * dn_est, 3.0 * dn_est),
        method="bounded",
        options={"xatol": _FIT_REL_TOL * dn_est},
    )
    best_dn, best_fid = float(res.x), -float(res.fun)
    if best_fid < 0.5:
        raise FitFailureError(f"fit fidelity {best_fid:.3f} below 0.5")
    return RickerParams(best_dn, sigma_x, sigma_y, n0), best_fid

"""Beam launch, eigenmode-expansion propagation, and per-guide intensity readout.

Propagation keeps modal amplitudes u_k(z) = a_k exp(i (2 pi / lambda) n_eff_k z)
and builds fields only on demand.  The readout works on the amplitudes too:
with phi_i the localized mode shifted to guide i and psi_k the basis fields,
the coherent form is |sum_k u_k <phi_i|psi_k>|^2 and the printed form is
Re(u^H Q_i u), Q_i[k, k'] = sum phi_i^2 conj(psi_k) psi_k' dA, each built once.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateInputError, InvalidSpecError, _real
from .grid import Field, TransverseGrid, inner
from .modes import ModeSet
from .profile import WaveguideGeometry

#: micrometers per centimeter; propagation distances are quoted in cm,
#: transverse quantities and wavelengths in um
UM_PER_CM = 1.0e4


def gaussian_input(
    geom: WaveguideGeometry, waist_x: float, waist_y: float, grid: TransverseGrid
) -> Field:
    """Unit-norm Gaussian amplitude exp(-x'^2/wx^2 - y^2/wy^2) on guide 0."""
    waist_x, waist_y = _real(waist_x, "waist_x", "> 0"), _real(waist_y, "waist_y", "> 0")
    X, Y = grid.mesh()
    x_c = geom.centers[0]
    vals = np.exp(-((X - x_c) ** 2) / waist_x ** 2 - Y ** 2 / waist_y ** 2)
    return Field(grid, vals).normalized()


def modal_coefficients(modes: ModeSet, field: Field) -> np.ndarray:
    """a_k = <psi_k | field> on the shared grid."""
    if field.grid != modes.grid:
        raise InvalidSpecError("input field and modes live on different grids")
    return np.array([inner(m, field) for m in modes.modes])


def _modal_amplitudes(modes: ModeSet, a: np.ndarray, z_cm: np.ndarray) -> np.ndarray:
    """u[t, k] = a_k exp(i (2 pi / lambda) n_eff_k z_t), z in cm."""
    k_prop = 2.0 * np.pi / modes.wavelength * modes.n_eff  # 1/um
    return a * np.exp(1j * np.outer(z_cm * UM_PER_CM, k_prop))


def propagate_eme(modes: ModeSet, input_field: Field, z_list_cm) -> list[Field]:
    """field(z) = sum_k a_k psi_k exp(i (2 pi / lambda) n_eff_k z).

    Power in the modal subspace, sum |a_k|^2, is conserved exactly (the
    evolution is a pure phase per mode).  Every z must be finite and >= 0.
    """
    z_arr = np.atleast_1d(np.asarray(z_list_cm, dtype=float))
    bad = z_arr[~(np.isfinite(z_arr) & (z_arr >= 0))]
    if bad.size:
        raise InvalidSpecError(f"z must be finite and >= 0, got {bad[0]}")
    u = _modal_amplitudes(modes, modal_coefficients(modes, input_field), z_arr)
    stack = np.stack([m.values for m in modes.modes])
    return [Field(modes.grid, np.tensordot(row, stack, axes=(0, 0))) for row in u]


def shift_mode(mode: Field, dx_um: float) -> Field:
    """Mode displaced by dx_um along x (linear interpolation, zero outside).

    Guide spacings are generally not integer multiples of the grid step,
    so localized basis modes are re-sampled rather than index-shifted.
    """
    dx_um = _real(dx_um, "dx_um")
    g = mode.grid
    x = g.x
    out = np.empty_like(mode.values)
    for j in range(g.ny):
        out[j] = np.interp(x - dx_um, x, mode.values[j], left=0.0, right=0.0)
    return Field(g, out)


def _guide_intensities(
    u: np.ndarray, basis: np.ndarray, localized_mode: Field, geom: WaveguideGeometry, coherent: bool
) -> np.ndarray:
    """Normalized per-guide intensities (T, G) of the fields u @ basis.

    u holds modal amplitudes (T, K) over K basis fields (K, ny, nx) on the
    localized mode's grid.  Raises DegenerateInputError for a row with no
    overlap with any guide.
    """
    phi0 = localized_mode.normalized()
    # the localized mode is solved centered at x = 0; shift to each guide
    phi = np.stack([shift_mode(phi0, c).values.ravel() for c in geom.centers])
    psi = basis.reshape(len(basis), -1)
    area = localized_mode.grid.cell_area
    if coherent:
        raw = np.abs(u @ ((np.conj(phi) @ psi.T) * area).T) ** 2
    else:
        w = np.abs(phi) ** 2 * area
        # Q[i, k, k'], one k at a time: no (K^2, P) temporary
        Q = np.stack([(w * np.conj(p)) @ psi.T for p in psi], axis=1)
        raw = np.einsum("tk,gkl,tl->tg", np.conj(u), Q, u).real
    total = raw.sum(axis=1, keepdims=True)
    if np.any(total == 0.0):
        raise DegenerateInputError("field has no overlap with any guide")
    return raw / total


def extract_intensities(
    field: Field,
    localized_mode: Field,
    geom: WaveguideGeometry,
    coherent: bool = False,
) -> np.ndarray:
    """Per-guide |c_i|^2 from overlaps with the localized mode, normalized to 1.

    Default form integrates the product of intensities,
    |c_i|^2 = sum |field * phi_i|^2 dx dy  (phi_i the localized mode
    shifted to guide i); ``coherent=True`` switches to the standard
    coherent overlap |<phi_i|field>|^2.  Both are normalized so the
    result sums to exactly 1.
    """
    if field.grid != localized_mode.grid:
        raise InvalidSpecError("field and localized mode live on different grids")
    return _guide_intensities(
        np.ones((1, 1)), field.values[None], localized_mode, geom, coherent
    )[0]


def mode_fidelity(a: Field, b: Field) -> float:
    """|<a|b>|^2 / (<a|a> <b|b>), in [0, 1]."""
    if a.grid != b.grid:
        raise InvalidSpecError("fields live on different grids")
    na = np.sum(np.abs(a.values) ** 2) * a.grid.cell_area
    nb = np.sum(np.abs(b.values) ** 2) * b.grid.cell_area
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("fidelity of a zero field is undefined")
    return float(abs(inner(a, b)) ** 2 / (na * nb))

"""Array presets, the three-way model comparison, and RMS figures of merit.

The three waveguide-array sets cover the three coupling regimes on ten
guides each.  ``compare_models`` runs, on a shared dimensionless time
grid, the reconciled closed form for the edge site, the ten-site
coupled-mode propagation, and (optionally) the full eigenmode-expansion
pipeline on the preset geometry, together with effective decay rates and
pairwise RMS errors.

The published RMS columns compare models against lab measurements that
are not available here, so all RMS values are model-vs-model; the
published magnitudes serve only as scale anchors in tests.  For the EME
leg, the lattice parameters (beta, delta) are re-fitted from the computed
supermode splittings of two-guide systems at the preset gaps before the
time axes are aligned, mirroring how the lattice parameters were fitted
to measured evolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import InvalidSpecError, _real
from .lattice import (
    LatticeSpec,
    TimeGrid,
    build_hamiltonian,
    effective_decay_rate,
    initial_state,
    propagate,
    site_probabilities,
)
from .survival import c0_closed_form
from .eme.grid import TransverseGrid
from .eme.modes import solve_modes
from .eme.profile import RickerParams, WaveguideGeometry, array_profile, ricker_profile
from .eme.propagate import (
    UM_PER_CM,
    _guide_intensities,
    _modal_amplitudes,
    gaussian_input,
    modal_coefficients,
)


@dataclass(frozen=True)
class ExperimentPreset:
    """One waveguide-array set: geometry (um) and fitted couplings (1/cm).

    Every set has ten guides and the time range tau <= 4, so ``n_sites``
    and ``tau_max`` are class constants, not constructor arguments.
    """

    label: str
    d0: float
    d: float
    beta0: float
    beta: float
    delta: float
    n_sites: ClassVar[int] = 10
    tau_max: ClassVar[float] = 4.0

    def __post_init__(self):
        for name in ("d0", "d", "beta0", "beta", "delta"):
            object.__setattr__(self, name, _real(getattr(self, name), name, "> 0"))
        if abs(self.delta - self.beta0 / self.beta) > 0.02 * self.delta:
            raise InvalidSpecError(
                f"{self.label}: delta={self.delta} is not beta0/beta within 2%"
            )


_PRESETS = {
    "A1": ExperimentPreset("A1", d0=31.2, d=27.1, beta0=0.090, beta=0.190, delta=0.474),
    "A2": ExperimentPreset("A2", d0=27.1, d=27.1, beta0=0.214, beta=0.214, delta=1.0),
    "A3": ExperimentPreset("A3", d0=19.6, d=27.1, beta0=0.800, beta=0.192, delta=4.17),
}


def preset(label: str) -> ExperimentPreset:
    try:
        return _PRESETS[label]
    except KeyError:
        raise InvalidSpecError(
            f"unknown preset {label!r}; choose from {sorted(_PRESETS)}"
        ) from None


def preset_labels() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def rms_error(a, b) -> float:
    """Root mean square difference between two equal-length series."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise InvalidSpecError(f"series shapes differ or empty: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


# ---------------------------------------------------------------------------
# EME leg configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmeConfig:
    """Optical constants and discretization for the EME leg.

    The probe wavelength, substrate index and write-induced contrast are
    not part of the lattice presets; these defaults put the two-guide
    coupling at the 27.1 um bulk gap near 0.07/cm with a transverse decay
    constant kappa ~ 0.19/um, which reproduces the presets' delta ratios
    to within a few percent.  All of them are explicit knobs.
    """

    wavelength: float = 0.633
    n0: float = 1.457
    delta_n: float = 1.9e-3
    sigma_x: float = 4.0
    sigma_y: float = 4.0
    step: float = 0.5
    margin: float = 78.0

    def ricker(self) -> RickerParams:
        return RickerParams(self.delta_n, self.sigma_x, self.sigma_y, self.n0)

    def grid_for(self, geom: WaveguideGeometry) -> TransverseGrid:
        width = (geom.centers[-1] - geom.centers[0]) + 2.0 * self.margin
        height = 2.0 * self.margin
        return TransverseGrid.centered(width, height, self.step, self.step)


DEFAULT_EME_CONFIG = EmeConfig()


@lru_cache(maxsize=16)
def pair_splitting_beta(gap_um: float, config: EmeConfig = DEFAULT_EME_CONFIG) -> float:
    """Coupling (1/cm) from the supermode splitting of two guides at gap_um.

    beta = pi * (n_eff+ - n_eff-) / lambda, converted from 1/um to 1/cm.
    Raises InvalidSpecError unless beta is finite and > 0: the EME time
    axis is tau / beta.  Cached: the same calibration is shared by every
    preset at the same gap.
    """
    geom = WaveguideGeometry.from_spacings(2, gap_um, gap_um)
    profile = array_profile(config.ricker(), geom, config.grid_for(geom))
    ms = solve_modes(profile, config.wavelength, 2)
    if ms.n_modes < 2:
        raise InvalidSpecError(f"two-guide system at gap {gap_um} um has < 2 bound modes")
    beta = float(np.pi * (ms.n_eff[0] - ms.n_eff[1]) / config.wavelength * UM_PER_CM)
    if not (math.isfinite(beta) and beta > 0.0):
        raise InvalidSpecError(
            f"two-guide supermode splitting at gap {gap_um} um gives coupling {beta:g}/cm; "
            "the guides do not couple at this configuration"
        )
    return beta


@dataclass(frozen=True)
class EmeRun:
    """EME leg output: per-guide |c_i|^2 on the tau grid plus calibration."""

    tau: np.ndarray
    site_probs: np.ndarray  # (time, guide)
    beta_fit: float  # 1/cm, bulk-gap supermode splitting
    beta0_fit: float  # 1/cm, first-gap supermode splitting
    delta_fit: float
    mode_count: int

    def calibration(self) -> dict:
        """The calibration keys of the JSON outputs."""
        return {
            "beta_per_cm": self.beta_fit,
            "beta0_per_cm": self.beta0_fit,
            "delta_fit": self.delta_fit,
            "mode_count": self.mode_count,
        }


def run_eme(
    exp: ExperimentPreset,
    grid: TimeGrid,
    config: EmeConfig = DEFAULT_EME_CONFIG,
    coherent: bool = False,
) -> EmeRun:
    """Full EME pipeline for a preset geometry on the given tau grid."""
    beta_fit = pair_splitting_beta(exp.d, config)
    beta0_fit = (
        beta_fit if exp.d0 == exp.d else pair_splitting_beta(exp.d0, config)
    )
    geom = WaveguideGeometry.from_spacings(exp.n_sites, exp.d0, exp.d)
    tgrid = config.grid_for(geom)
    profile = array_profile(config.ricker(), geom, tgrid)
    modes = solve_modes(profile, config.wavelength, exp.n_sites)

    single = solve_modes(ricker_profile(config.ricker(), tgrid), config.wavelength, 1)
    if single.n_modes < 1:
        raise InvalidSpecError("isolated guide binds no mode at this configuration")
    phi = single.modes[0]
    # launch waist matched to the isolated mode's second moments
    I = phi.values ** 2
    X, Y = tgrid.mesh()
    area = tgrid.cell_area
    m2x = float(np.sum(I * X ** 2) * area)
    m2y = float(np.sum(I * Y ** 2) * area)
    inp = gaussian_input(geom, math.sqrt(2.0 * m2x), math.sqrt(2.0 * m2y), tgrid)

    u = _modal_amplitudes(modes, modal_coefficients(modes, inp), grid.tau / beta_fit)
    stack = np.stack([m.values for m in modes.modes])
    probs = _guide_intensities(u, stack, phi, geom, coherent)
    return EmeRun(grid.tau, probs, beta_fit, beta0_fit, beta0_fit / beta_fit, modes.n_modes)


# ---------------------------------------------------------------------------
# three-way comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """Traces, decay rates and pairwise RMS errors for one preset."""

    label: str
    tau: np.ndarray
    closed_form_prob0: np.ndarray
    closed_form_gamma_eff: np.ndarray
    coupled_probs: np.ndarray  # (time, site)
    coupled_gamma_eff: np.ndarray
    eme: EmeRun | None
    eme_gamma_eff: np.ndarray | None
    rms: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def arr(x):
            if x is None:
                return None
            return [None if (isinstance(v, float) and math.isnan(v)) else v for v in np.asarray(x).tolist()]

        def arr2(x):
            return None if x is None else [arr(row) for row in np.asarray(x)]

        out = {
            "preset": self.label,
            "tau": arr(self.tau),
            "models": {
                "closed_form": {
                    "site0_prob": arr(self.closed_form_prob0),
                    "gamma_eff": arr(self.closed_form_gamma_eff),
                },
                "coupled_mode": {
                    "site_probs": arr2(self.coupled_probs),
                    "gamma_eff": arr(self.coupled_gamma_eff),
                },
                "eme": None,
            },
            "rms": self.rms,
            "eme_calibration": None,
        }
        if self.eme is not None:
            out["models"]["eme"] = {
                "site_probs": arr2(self.eme.site_probs),
                "gamma_eff": arr(self.eme_gamma_eff),
            }
            out["eme_calibration"] = self.eme.calibration()
        return out


def compare_models(
    exp: ExperimentPreset,
    grid: TimeGrid,
    eme_config: EmeConfig = DEFAULT_EME_CONFIG,
    include_eme: bool = True,
) -> ComparisonReport:
    """Closed form vs coupled-mode vs (optionally) EME on a shared grid."""
    if grid.tau[-1] > exp.tau_max + 1e-12:
        raise InvalidSpecError(f"grid exceeds preset tau range [0, {exp.tau_max}]")

    cf = np.array([abs(c0_closed_form(exp.delta, t)) ** 2 for t in grid.tau])
    cf_rate = effective_decay_rate(cf, grid)

    # coupled-mode leg runs dimensionless (beta = 1, time axis already tau)
    trace = propagate(
        build_hamiltonian(LatticeSpec(n_sites=exp.n_sites, delta=exp.delta)),
        initial_state(exp.n_sites),
        grid,
    )
    cm = site_probabilities(trace)
    cm_rate = effective_decay_rate(cm[:, 0], grid)

    eme_run = None
    eme_rate = None
    if include_eme:
        eme_run = run_eme(exp, grid, eme_config)
        eme_rate = effective_decay_rate(eme_run.site_probs[:, 0], grid)

    rms = {
        "closed_form_vs_coupled_mode": {
            "site0": rms_error(cf, cm[:, 0]),
            "all_sites": None,
        }
    }
    if eme_run is not None:
        rms["closed_form_vs_eme"] = {
            "site0": rms_error(cf, eme_run.site_probs[:, 0]),
            "all_sites": None,
        }
        rms["coupled_mode_vs_eme"] = {
            "site0": rms_error(cm[:, 0], eme_run.site_probs[:, 0]),
            "all_sites": float(
                np.sqrt(np.mean((cm - eme_run.site_probs) ** 2))
            ),
        }
    return ComparisonReport(
        exp.label, grid.tau, cf, cf_rate, cm, cm_rate, eme_run, eme_rate, rms
    )

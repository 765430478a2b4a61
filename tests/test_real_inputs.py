"""Every real-valued scalar input goes through one check, errors._real.

Each site rejects a string, None, NaN, +-inf and arrays (a 1-element and a
0-d one) with InvalidSpecError naming the parameter, and so does each
number outside the site's range.
"""

import math
import re

import numpy as np
import pytest

from defectlattice import (
    DeviationSeries,
    ExperimentPreset,
    InvalidSpecError,
    LatticeSpec,
    TimeGrid,
    bessel_j_array,
    bound_state_energies,
    c0_closed_form,
    c0_contour,
    c0_critical,
    onset_time,
    regime_params,
    s_greater,
    s_less,
    survival_series,
)
from defectlattice.eme import (
    Field,
    IndexProfile,
    RickerParams,
    TransverseGrid,
    WaveguideGeometry,
    gaussian_input,
    helmholtz_matrix,
    implied_n_eff,
    reconstruct_index,
    shift_mode,
)

GRID = TransverseGrid(8, 8, 1.0, 1.0, -3.5, -3.5)
MODE = Field(GRID, np.ones((8, 8)))
PROFILE = IndexProfile(GRID, np.full((8, 8), 1.457), 1.457)
GEOM = WaveguideGeometry((0.0,))
SERIES = DeviationSeries(TimeGrid.uniform(1.0, 3), np.zeros(3), np.zeros(3))
GRID_ARGS = {"nx": 8, "ny": 8, "dx": 1.0, "dy": 1.0, "x0": 0.0, "y0": 0.0}
PRESET_ARGS = {"d0": 27.1, "d": 27.1, "beta0": 0.2, "beta": 0.2, "delta": 1.0}
RICKER_ARGS = {"delta_n": 3e-3, "sigma_x": 4.0, "sigma_y": 4.0, "n0": 1.457}
CENTERED_ARGS = {"width": 10.0, "height": 10.0, "dx": 1.0, "dy": 1.0}


def _with(call, defaults, name):
    return lambda v: call(**{**defaults, name: v})


# site id -> (call with the bad value, parameter name, numbers out of range)
SITES = {
    "bessel_j_array.x": (lambda v: bessel_j_array(3, v), "x", (-1.0,)),
    "regime_params.delta": (regime_params, "delta", (0.0, 1e160)),
    "survival_series.delta": (lambda v: survival_series(v, 1.0), "delta", (0.0,)),
    "c0_contour.delta": (lambda v: c0_contour(v, 1.0), "delta", (0.0,)),
    "bound_state_energies.delta": (bound_state_energies, "delta", (0.0,)),
    "c0_critical.tau": (c0_critical, "tau", (-1.0,)),
    "s_less.tau": (lambda v: s_less(v, 0.5), "tau", (-1.0,)),
    "s_greater.tau": (lambda v: s_greater(v, 2.0), "tau", (-1.0,)),
    "survival_series.tau": (lambda v: survival_series(0.5, v), "tau", (-1.0,)),
    "c0_closed_form.tau": (lambda v: c0_closed_form(1.5, v), "tau", (-1.0,)),
    "c0_contour.tau": (lambda v: c0_contour(0.5, v), "tau", (-1.0,)),
    "s_less.gamma": (lambda v: s_less(1.0, v), "gamma", (0.0, 1.5)),
    "s_greater.gamma": (lambda v: s_greater(1.0, v), "gamma", (0.0,)),
    "LatticeSpec.delta": (lambda v: LatticeSpec(10, v), "delta", (0.0,)),
    "TimeGrid.uniform.tau_max": (lambda v: TimeGrid.uniform(v, 10), "tau_max", (0.0,)),
    "onset_time.threshold": (lambda v: onset_time(SERIES, v), "threshold", (0.0,)),
    **{
        f"TransverseGrid.{name}": (_with(TransverseGrid, GRID_ARGS, name), name, out)
        for name, out in (("dx", (0.0,)), ("dy", (0.0,)), ("x0", ()), ("y0", ()))
    },
    **{
        f"TransverseGrid.centered.{name}": (_with(TransverseGrid.centered, CENTERED_ARGS, name),
                                            name, (0.0,))
        for name in CENTERED_ARGS
    },
    **{
        f"RickerParams.{name}": (_with(RickerParams, RICKER_ARGS, name), name, (0.0,))
        for name in RICKER_ARGS
    },
    "IndexProfile.n0": (lambda v: IndexProfile(GRID, PROFILE.n, v), "n0", (0.0,)),
    "from_spacings.d0": (lambda v: WaveguideGeometry.from_spacings(3, v, 27.1), "d0", (0.0,)),
    "from_spacings.d": (lambda v: WaveguideGeometry.from_spacings(3, 27.1, v), "d", (0.0,)),
    "gaussian_input.waist_x": (lambda v: gaussian_input(GEOM, v, 3.0, GRID), "waist_x", (0.0,)),
    "gaussian_input.waist_y": (lambda v: gaussian_input(GEOM, 3.0, v, GRID), "waist_y", (0.0,)),
    "shift_mode.dx_um": (lambda v: shift_mode(MODE, v), "dx_um", ()),
    "helmholtz_matrix.wavelength": (lambda v: helmholtz_matrix(PROFILE, v), "wavelength", (0.0,)),
    "reconstruct_index.n_eff": (lambda v: reconstruct_index(MODE, v, 0.633), "n_eff", (0.0,)),
    "reconstruct_index.intensity_floor": (
        lambda v: reconstruct_index(MODE, 1.457, 0.633, v), "intensity_floor", (0.0, 1.5)
    ),
    "implied_n_eff.n0": (lambda v: implied_n_eff(MODE, 0.633, v), "n0", (0.0,)),
    **{
        f"ExperimentPreset.{name}": (_with(ExperimentPreset, {"label": "X", **PRESET_ARGS}, name),
                                     name, (0.0, -1.0))
        for name in PRESET_ARGS
    },
}

# in range at every site, so only the type rejects the string and the arrays
BAD = {"str": "0.5", "None": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
       "array1": np.array([0.5]), "array0": np.array(0.5)}

CASES = [
    pytest.param(site, value, id=f"{site}-{label}")
    for site, (_, _, out) in SITES.items()
    for label, value in [*BAD.items(), *((repr(v), v) for v in out)]
]


@pytest.mark.parametrize("site, value", CASES)
def test_real_input_rejected(site, value):
    call, name, _ = SITES[site]
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(name)} must "):
        call(value)


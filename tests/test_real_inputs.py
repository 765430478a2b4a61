"""Every real-valued input goes through one check: errors._real for a scalar,
errors._real_array for an array.

Each scalar site rejects a string, None, NaN, +-inf, an int past the float
range and arrays (a 1-element and a 0-d one) with InvalidSpecError naming
the parameter, and so does each number outside the site's range.  Each
array site rejects a string array and an array with a None or complex
entry naming the parameter, and an array with
a NaN, +-inf or out-of-range entry naming the parameter, the entry's index
and its value.  The tau of the c0 evaluators and the x of bessel_j_array
take a scalar or a 1-D array: they reject a 2-D array in place of the
1-element one, and check a 1-D array's entries as an array site does.
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
    TridiagonalOperator,
    bessel_j_array,
    bound_state_energies,
    c0_closed_form,
    c0_contour,
    c0_critical,
    effective_decay_rate,
    onset_time,
    regime_params,
    rms_error,
    s_greater,
    s_less,
    survival_series,
)
from defectlattice.eme import (
    Field,
    IndexProfile,
    ModeSet,
    RickerParams,
    TransverseGrid,
    WaveguideGeometry,
    fit_ricker,
    gaussian_input,
    helmholtz_matrix,
    implied_n_eff,
    propagate_eme,
    reconstruct_index,
    shift_mode,
)

GRID = TransverseGrid(8, 8, 1.0, 1.0, -3.5, -3.5)
MODE = Field(GRID, np.ones((8, 8)))
PROFILE = IndexProfile(GRID, np.full((8, 8), 1.457), 1.457)
GEOM = WaveguideGeometry((0.0,))
MODES = ModeSet(GRID, (MODE,), np.array([1.457]), 0.633, 1)
SERIES = DeviationSeries(TimeGrid.uniform(1.0, 3), np.zeros(3), np.zeros(3))
GRID_ARGS = {"nx": 8, "ny": 8, "dx": 1.0, "dy": 1.0, "x0": 0.0, "y0": 0.0}
PRESET_ARGS = {"d0": 27.1, "d": 27.1, "beta0": 0.2, "beta": 0.2, "delta": 1.0}
RICKER_ARGS = {"delta_n": 3e-3, "sigma_x": 4.0, "sigma_y": 4.0, "n0": 1.457}
CENTERED_ARGS = {"width": 10.0, "height": 10.0, "dx": 1.0, "dy": 1.0}


def _with(call, defaults, name):
    return lambda v: call(**{**defaults, name: v})


# delta out of range: 0 fails _real's bound; 1e160 and 1e154, whose 2 delta^2
# overflows, fail the survival module's own check after _real
DELTA_OUT = (0.0, 1e160, 1e154)

# site id -> (call with the bad value, parameter name, numbers out of range)
SITES = {
    "bessel_j_array.x": (lambda v: bessel_j_array(3, v), "x", (-1.0,)),
    "regime_params.delta": (regime_params, "delta", DELTA_OUT),
    "survival_series.delta": (lambda v: survival_series(v, 1.0), "delta", DELTA_OUT),
    "c0_closed_form.delta": (lambda v: c0_closed_form(v, 1.0), "delta", DELTA_OUT),
    "c0_contour.delta": (lambda v: c0_contour(v, 1.0), "delta", DELTA_OUT),
    "bound_state_energies.delta": (bound_state_energies, "delta", DELTA_OUT),
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

# in range at every site, so only the type rejects the string and the arrays; an
# int past the float range converts to inf, which is not finite
BAD = {"str": "0.5", "None": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
       "array1": np.array([0.5]), "array0": np.array(0.5), "int_past_float": 10 ** 400}

# sites that also take a 1-D array (ARRAY_SITES checks its entries): there a
# 1-element array is valid, so the array1 case passes a 1-element 2-D one
VECTOR_SITES = {"bessel_j_array.x", "c0_critical.tau", "s_less.tau", "s_greater.tau",
                "survival_series.tau", "c0_closed_form.tau", "c0_contour.tau"}

CASES = [
    pytest.param(site, np.array([[0.5]]) if site in VECTOR_SITES and label == "array1" else value,
                 id=f"{site}-{label}")
    for site, (_, _, out) in SITES.items()
    for label, value in [*BAD.items(), *((repr(v), v) for v in out)]
]


@pytest.mark.parametrize("site, value", CASES)
def test_real_input_rejected(site, value):
    call, name, out = SITES[site]
    bound = "> 0" if 0.0 in out else ">= 0" if out else ""
    # 1e160, 1e154 and 1.5 fail a check of the site's own after _real, in a message of its own
    own = isinstance(value, float) and value in (1e160, 1e154, 1.5)
    must = ".+" if own else re.escape(f"be finite{bound and ' and ' + bound}")
    got = str(value)
    if site in VECTOR_SITES and np.ndim(value) > 1:
        must, got = re.escape("be a real number or a 1-D array"), f"shape {value.shape}"
    with pytest.raises(InvalidSpecError,
                       match=f"^{re.escape(name)} must {must}, got {re.escape(got)}$"):
        call(value)


# site id -> (call with the bad array, parameter name, bound, a valid array, index of the bad entry)
ARRAY_SITES = {
    "TimeGrid.tau": (TimeGrid, "tau", ">= 0", np.array([0.0, 1.0, 2.0]), (1,)),
    "TridiagonalOperator.off_diagonal": (TridiagonalOperator, "off_diagonal", "", np.ones(3), (1,)),
    "IndexProfile.n": (lambda v: IndexProfile(GRID, v, 1.457), "n", "", PROFILE.n, (2, 3)),
    "WaveguideGeometry.centers": (WaveguideGeometry, "centers", "", np.array([0.0, 30.0, 60.0]),
                                  (1,)),
    "propagate_eme.z": (lambda v: propagate_eme(MODES, MODE, v), "z", ">= 0", np.array([0.0, 1.0]),
                        (1,)),
    "reconstruct_index.mode": (lambda v: reconstruct_index(Field(GRID, v), 1.457, 0.633), "mode",
                               ">= 0", MODE.values, (2, 3)),
    "implied_n_eff.mode": (lambda v: implied_n_eff(Field(GRID, v), 0.633, 1.457), "mode", ">= 0",
                           MODE.values, (2, 3)),
    "fit_ricker.measured_mode": (lambda v: fit_ricker(Field(GRID, v), 0.633, 1.457),
                                 "measured_mode", ">= 0", MODE.values, (2, 3)),
    "effective_decay_rate.prob0": (lambda v: effective_decay_rate(v, TimeGrid.uniform(1.0, 3)),
                                   "prob0", "", np.array([1.0, 0.5, 0.25]), (1,)),
    "rms_error.a": (lambda v: rms_error(v, np.zeros(3)), "a", "", np.zeros(3), (1,)),
    "rms_error.b": (lambda v: rms_error(np.zeros(3), v), "b", "", np.zeros(3), (1,)),
    **{
        f"{site}[]": (SITES[site][0], SITES[site][1], ">= 0", np.array([0.0, 1.0, 2.0, 3.0]), (2,))
        for site in sorted(VECTOR_SITES)
    },
}

# label -> (dtype of the bad array, its bad entry); the string array holds only strings,
# and "ragged" is a nested list of the valid entries and one more row of another length
BAD_ARRAYS = {"str": (str, None), "None": (object, None), "complex": (complex, 1j),
              "nan": (float, math.nan), "inf": (float, math.inf), "-inf": (float, -math.inf),
              "-1.0": (float, -1.0), "ragged": (list, None)}

ARRAY_CASES = [
    pytest.param(site, label, id=f"{site}-{label}")
    for site, (_, _, bound, _, _) in ARRAY_SITES.items()
    for label in BAD_ARRAYS
    if bound or label != "-1.0"
]


@pytest.mark.parametrize("site, label", ARRAY_CASES)
def test_real_array_input_rejected(site, label):
    call, name, bound, valid, at = ARRAY_SITES[site]
    dtype, entry = BAD_ARRAYS[label]
    if dtype is list:
        values = [valid.ravel().tolist(), [0.0]]
        message = f"{name} must be an array of real numbers, got a ragged sequence"
        if valid is MODE.values:  # the mode sites build a Field first, which refuses it
            message = "field values must be an array, got a ragged sequence"
        with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
            call(values)
        return
    values = valid.astype(dtype)
    if dtype is not str:
        values[at] = entry
    if dtype is float:
        index = ", ".join(map(str, at))
        message = f"{name}[{index}] must be finite{bound and ' and ' + bound}, got {entry}"
    else:  # a wrong type: the dtype is named, not the entry
        message = f"{name} must be an array of real numbers, got dtype {values.dtype}"
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        call(values)

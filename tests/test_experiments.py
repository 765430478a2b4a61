"""Presets, RMS figures, and the three-way comparison."""

import json

import numpy as np
import pytest

import defectlattice.eme.modes as modes_module
from defectlattice import (
    InvalidSpecError,
    LatticeSpec,
    TimeGrid,
    build_hamiltonian,
    compare_models,
    effective_decay_rate,
    initial_state,
    preset,
    preset_labels,
    propagate,
    rms_error,
    run_eme,
    site_probabilities,
)
from defectlattice import experiments
from defectlattice.eme import WaveguideGeometry, array_profile, ricker_profile, solve_modes
from defectlattice.experiments import EmeConfig, ExperimentPreset, pair_splitting_beta


def test_preset_values_exact():
    a1 = preset("A1")
    assert (a1.d0, a1.d, a1.beta0, a1.beta, a1.delta) == (31.2, 27.1, 0.090, 0.190, 0.474)
    a2 = preset("A2")
    assert (a2.d0, a2.d, a2.beta0, a2.beta, a2.delta) == (27.1, 27.1, 0.214, 0.214, 1.0)
    a3 = preset("A3")
    assert (a3.d0, a3.d, a3.beta0, a3.beta, a3.delta) == (19.6, 27.1, 0.800, 0.192, 4.17)
    for exp in (a1, a2, a3):
        assert exp.n_sites == 10
        assert exp.tau_max == 4.0
    assert preset_labels() == ("A1", "A2", "A3")


def test_unknown_preset():
    with pytest.raises(InvalidSpecError):
        preset("A4")


def test_zero_coupling_raises():
    # guides this tight give a supermode splitting that rounds to 0
    with pytest.raises(InvalidSpecError, match="do not couple"):
        pair_splitting_beta(27.1, EmeConfig(delta_n=1.05, step=2.0))


# a contrast this weak on a grid this coarse binds no mode, and each solve stays cheap
UNBOUND = EmeConfig(delta_n=1e-6, step=4.0)


def test_unbound_pair_raises():
    with pytest.raises(InvalidSpecError, match="two-guide system at gap 27.1 um has < 2 bound"):
        pair_splitting_beta(27.1, UNBOUND)


def test_unbound_isolated_guide_raises():
    with pytest.raises(InvalidSpecError, match="isolated guide binds no mode"):
        run_eme(preset("A1"), TimeGrid.uniform(1.0, 5), UNBOUND)


def test_preset_consistency_enforced():
    with pytest.raises(InvalidSpecError):
        ExperimentPreset("bad", d0=30.0, d=27.1, beta0=0.5, beta=0.2, delta=1.0)


def test_rms_error_examples(rng):
    a = rng.normal(size=25)
    assert rms_error(a, a) == 0.0
    assert rms_error(a, a + 0.05) == pytest.approx(0.05, rel=1e-12)
    with pytest.raises(InvalidSpecError):
        rms_error(a, a[:-1])


def test_compare_models_without_eme():
    report = compare_models(preset("A2"), TimeGrid.uniform(4.0, 401), include_eme=False)
    assert report.eme is None
    # a 10-site chain is indistinguishable from the semi-infinite closed
    # form at the edge site until the reflection returns
    assert report.rms["closed_form_vs_coupled_mode"]["site0"] < 1e-3
    # round trip through JSON keeps the shape
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["models"]["eme"] is None
    assert payload["models"]["coupled_mode"]["gamma_eff"][0] is None  # tau = 0
    assert len(payload["tau"]) == 401


def test_compare_grid_must_stay_in_range():
    with pytest.raises(InvalidSpecError):
        compare_models(preset("A2"), TimeGrid.uniform(5.0, 11), include_eme=False)


def _coupled_probs(delta: float, grid: TimeGrid, n: int = 10) -> np.ndarray:
    tr = propagate(build_hamiltonian(LatticeSpec(n, delta=delta)), initial_state(n), grid)
    return site_probabilities(tr)


def test_a3_survival_minima_landmarks():
    grid = TimeGrid.uniform(4.0, 4001)
    p0 = _coupled_probs(4.17, grid)[:, 0]
    mins = [
        float(grid.tau[i])
        for i in range(1, len(grid) - 1)
        if p0[i] < p0[i - 1] and p0[i] < p0[i + 1]
    ]
    assert abs(mins[0] - 0.38) <= 0.05
    assert abs(mins[-1] - 3.29) <= 0.05


def test_a1_rate_flattens_late():
    grid = TimeGrid.uniform(4.0, 801)
    p0 = _coupled_probs(0.474, grid)[:, 0]
    rate = effective_decay_rate(p0, grid)
    late = rate[(grid.tau >= 2.0)]
    early = rate[(grid.tau > 0.0) & (grid.tau < 0.5)]
    late_mean = float(np.mean(late))
    assert np.std(late) / late_mean < 0.25
    # short times deviate strongly from the late plateau
    assert np.max(np.abs(early - late_mean)) > 0.25 * late_mean


@pytest.fixture(scope="module")
def a1_eme():
    return run_eme(preset("A1"), TimeGrid.uniform(4.0, 17))


def test_a1_eme_matches_refitted_coupled_mode(a1_eme):
    # EME traces vs the ten-site chain built from the splitting-fitted
    # couplings: per-site RMS at the published error scale
    run = a1_eme
    grid = TimeGrid(run.tau)
    cm = _coupled_probs(run.delta_fit, grid)
    rms_per_site = np.sqrt(np.mean((run.site_probs - cm) ** 2, axis=0))
    assert run.mode_count == 10
    assert float(np.max(rms_per_site)) < 0.06


def test_a1_eme_calibration_regime(a1_eme):
    # the first gap is wider than the bulk gap, so the fitted defect
    # coupling must land clearly sub-critical, near the preset ratio
    # (the exponential gap-coupling model is only ~10% accurate)
    assert a1_eme.beta0_fit < a1_eme.beta_fit
    assert a1_eme.delta_fit == pytest.approx(preset("A1").delta, rel=0.15)


def test_compare_models_with_eme_report():
    # full three-way report on A2: ten samples on (0, 4], RMS at the
    # published error scale, calibration block filled in
    grid = TimeGrid(np.linspace(0.4, 4.0, 10))
    report = compare_models(preset("A2"), grid)
    assert report.eme is not None
    assert report.rms["closed_form_vs_eme"]["site0"] < 0.06
    assert report.rms["coupled_mode_vs_eme"]["all_sites"] < 0.06
    payload = report.to_json_dict()
    cal = payload["eme_calibration"]
    assert cal["mode_count"] == 10
    assert cal["delta_fit"] == pytest.approx(1.0, abs=1e-6)
    assert len(payload["models"]["eme"]["site_probs"]) == 10


def test_a3_eme_contrast_ordering():
    # near the late oscillation minimum the full-field survival floor sits
    # above the single-band one (localized-mode readout cross-talk): the
    # comparison runs at the fitted lattice ratio so both models share the
    # oscillation phase
    from defectlattice import c0_closed_form

    exp = preset("A3")
    window = TimeGrid(np.linspace(3.0, 3.6, 25))
    run = run_eme(exp, window)
    eme_min = float(np.min(run.site_probs[:, 0]))
    fine = np.linspace(3.0, 3.6, 1201)
    cf_min = min(abs(c0_closed_form(run.delta_fit, float(t))) ** 2 for t in fine)
    assert run.delta_fit > np.sqrt(2.0)  # bound-state regime reproduced
    assert cf_min < eme_min


# Solver pins at step 1.25, recorded with the far-shift array solve, the
# five-factorization pair calibration and the full-grid isolated guide
COARSE = EmeConfig(step=1.25)
PINNED_ARRAY_N_EFF = {
    "A1": (
        1.4571387546067511, 1.4571386115276337, 1.4571383993957279,
        1.4571380991965883, 1.457137838732014, 1.4571376602165642,
        1.4571373896415722, 1.4571371261210269, 1.4571368792235182,
        1.4571367265100759,
    ),
    "A2": (
        1.457138762387011, 1.4571386408732447, 1.4571384533642897,
        1.4571381786825506, 1.4571378970992752, 1.4571375943439981,
        1.457137293373321, 1.4571370581291876, 1.457136848485845,
        1.4571367183253052,
    ),
    "A3": (
        1.4571404334012257, 1.457138740554747, 1.4571385586912686,
        1.457138269683927, 1.4571379336400676, 1.4571375673140756,
        1.4571372113267502, 1.457136931832491, 1.457136740711505,
        1.4571348045375139,
    ),
}
PINNED_BETA = {19.6: 0.2739779487065596, 27.1: 0.05280765707266888, 31.2: 0.021891820065467037}


@pytest.mark.parametrize("gap", sorted(PINNED_BETA))
def test_pair_calibration_pins(gap):
    assert pair_splitting_beta(gap, COARSE) == pytest.approx(PINNED_BETA[gap], rel=0, abs=1e-12)


@pytest.mark.parametrize("gap", [27.1, 31.2])  # the A2 bulk gap and the A1 first gap
def test_pair_calibration_grid_error(gap):
    # successive differences at steps 1.0, 0.75 and 0.5 shrink by 1.4 for an
    # error of order h^2 (1.0 for h, 1.95 for h^3); the Richardson limit of
    # steps 1.0 and 0.5 puts the default-step coupling 3.8% and 4.5% low
    beta = {h: pair_splitting_beta(gap, EmeConfig(step=h)) for h in (1.0, 0.75, 0.5)}
    assert 1.2 < (beta[0.75] - beta[1.0]) / (beta[0.5] - beta[0.75]) < 1.6
    limit = (4.0 * beta[0.5] - beta[1.0]) / 3.0
    assert 0.03 < 1.0 - beta[0.5] / limit < 0.06


@pytest.mark.parametrize("gap", sorted(PINNED_BETA))
def test_pair_calibration_solves_the_odd_sector_in_band(gap, monkeypatch):
    # two factorizations, no count: the x-even top at the far shift, then the
    # x-odd top at the x-even top's k0^2 n_eff^2, where one Lanczos pass of
    # three vectors certifies it
    factored, runs = [], []
    real_splu, real_eigsh = modes_module.splu, modes_module.eigsh

    def splu(*args, **kw):
        factored.append(args[0].shape[0])
        return real_splu(*args, **kw)

    def eigsh(*args, **kw):
        runs.append((kw["sigma"], kw["ncv"]))
        return real_eigsh(*args, **kw)

    monkeypatch.setattr(modes_module, "splu", splu)
    monkeypatch.setattr(modes_module, "eigsh", eigsh)
    beta = pair_splitting_beta.__wrapped__(gap, COARSE)  # past the cache
    monkeypatch.undo()
    assert beta == pair_splitting_beta(gap, COARSE)  # a cold cache factors again
    geom = WaveguideGeometry.from_spacings(2, gap, gap)
    profile = array_profile(COARSE.ricker(), geom, COARSE.grid_for(geom))
    n_even = solve_modes(profile, COARSE.wavelength, 1).n_eff[0]
    assert len(factored) == 2
    (_, even_ncv), (odd_sigma, odd_ncv) = runs
    assert even_ncv == 20
    assert odd_sigma == (2.0 * np.pi / COARSE.wavelength) ** 2 * float(n_even) ** 2
    assert odd_ncv == 3


@pytest.mark.parametrize("label", ["A1", "A2", "A3"])  # nx 324, 321 and 315 at this step
def test_array_solve_pins(label, monkeypatch):
    # the array n_eff that run_eme solves for, and the isolated mode it reads
    # out with: solved on the central square, whose samples are the array
    # grid's own, and zero-padded back
    solved = {"solve_modes": [], "_solve_modes": []}

    def spy(name, solve):
        def recorded(*args, **kw):
            solved[name].append(solve(*args, **kw))
            return solved[name][-1]

        return recorded

    exp = preset(label)
    for gap in (exp.d, exp.d0):  # cached, so that the spies see only the array and window solves
        pair_splitting_beta(gap, COARSE)
    for name in solved:
        monkeypatch.setattr(experiments, name, spy(name, getattr(experiments, name)))
    run_eme(exp, TimeGrid.uniform(4.0, 4), COARSE)
    array, = (ms for ms in solved["_solve_modes"] if ms.n_requested == exp.n_sites)
    np.testing.assert_allclose(array.n_eff, PINNED_ARRAY_N_EFF[label], rtol=0, atol=1e-12)

    tgrid = array.grid
    window, = (ms.grid for ms in solved["solve_modes"])
    cut = (tgrid.nx - window.nx) // 2
    assert window.nx in (tgrid.ny, tgrid.ny + 1) and window.nx % 2 == tgrid.nx % 2
    assert np.array_equal(window.x, tgrid.x[cut:tgrid.nx - cut])
    assert np.array_equal(window.y, tgrid.y)
    n_eff, padded = experiments._isolated_mode(COARSE, tgrid)
    full = solve_modes(ricker_profile(COARSE.ricker(), tgrid), COARSE.wavelength, 1)
    assert n_eff == full.n_eff[0]
    peak = np.max(full.modes[0].values)
    assert np.max(np.abs(padded.values - full.modes[0].values)) < 1e-7 * peak

"""Closed forms, contour integral, and bound states vs the propagation oracle."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defectlattice import (
    InvalidSpecError,
    LatticeSpec,
    QuadratureError,
    SeriesDivergenceError,
    TimeGrid,
    bound_state_energies,
    build_hamiltonian,
    c0_closed_form,
    c0_contour,
    c0_critical,
    initial_state,
    propagate,
    regime_params,
    s_greater,
    s_less,
    survival_series,
)
from defectlattice import survival
from helpers import J1_FIRST_ZERO, propagation_c0, series_j


# ------------------------------------------------------------- regime params

def test_regime_params_examples():
    # delta = sqrt(2): amplitude vanishes identically
    assert regime_params(math.sqrt(2.0)).amp == pytest.approx(0.0, abs=1e-12)

    # frozen values recomputed from the printed definitions
    p = regime_params(0.474)
    assert p.gamma == pytest.approx(0.8805248434882459, rel=1e-12)
    assert p.amp == pytest.approx(2.289783367985513, rel=1e-12)
    assert p.omega == pytest.approx(0.25516145474094076, rel=1e-12)
    assert p.regime == "sub_critical"
    # four-significant-digit agreement with the quoted rounded values
    assert p.gamma == pytest.approx(0.8807, abs=5e-4)
    assert p.amp == pytest.approx(2.290, abs=5e-4)
    assert p.omega == pytest.approx(0.2551, abs=5e-4)

    p = regime_params(4.17)
    assert p.gamma == pytest.approx(4.04832063947509, rel=1e-12)
    assert p.amp == pytest.approx(0.9389830922148528, rel=1e-12)
    assert p.omega == pytest.approx(4.295336646618649, rel=1e-12)
    assert p.regime == "super_critical"
    assert p.gamma == pytest.approx(4.0483, abs=5e-4)
    assert p.amp == pytest.approx(0.9390, abs=5e-4)
    assert p.omega == pytest.approx(4.2954, abs=5e-4)


def test_regime_params_critical_and_errors():
    p = regime_params(1.0)
    assert p.gamma == 0.0
    assert p.amp is None and p.omega is None
    assert p.regime == "critical"
    with pytest.raises(InvalidSpecError):
        regime_params(0.0)
    with pytest.raises(InvalidSpecError):
        regime_params(-2.0)


# ------------------------------------------------------------ critical branch

def test_c0_critical_values():
    assert c0_critical(0.0) == 1.0
    assert abs(c0_critical(J1_FIRST_ZERO / 2.0)) < 1e-12
    assert c0_critical(2.0) == pytest.approx(series_j(1, 4.0) / 2.0, rel=1e-11)


def test_c0_critical_matches_chain():
    taus = np.linspace(0.0, 4.0, 41)
    oracle = propagation_c0(1.0, taus)
    for t, c in zip(taus, oracle):
        assert abs(c0_critical(float(t)) - c) < 1e-6


# ------------------------------------------------------------------- s_less

def test_s_less_literal_at_zero():
    # literal reading at tau=0: 2 - (1 + 1/gamma^2)/2; gamma^2 = 0.75 -> 5/6
    gamma = math.sqrt(0.75)
    assert s_less(0.0, gamma, variant="printed") == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_s_less_reconciled_pinned_against_oracle():
    # reconciled branch total vs 600-site propagation at delta = 0.474, tau = 1
    p = regime_params(0.474)
    total = p.amp / 2.0 * math.exp(-p.omega * 1.0) + s_less(1.0, p.gamma, variant="reconciled")
    oracle = propagation_c0(0.474, [1.0])[0]
    assert total == pytest.approx(float(oracle.real), abs=1e-10)
    assert total == pytest.approx(0.8983806923213702, abs=1e-10)  # frozen


def test_s_less_truncation_insensitive(monkeypatch):
    # tightening the term bound by three decades must not move the result
    cases = [(tau, gamma) for gamma in (0.5, 0.7, 0.88) for tau in (0.5, 2.0, 4.0)]
    default = [s_less(tau, gamma, variant="printed") for tau, gamma in cases]
    monkeypatch.setattr(survival, "_TERM_BOUND", 1e-15)
    for (tau, gamma), a in zip(cases, default):
        assert a == pytest.approx(s_less(tau, gamma, variant="printed"), abs=5e-11)


def test_s_less_divergence_for_tiny_gamma():
    # the order cap exceeds tau / gamma = 4e6, past the 10^6 limit: raises before any sum
    start = time.perf_counter()
    with pytest.raises(SeriesDivergenceError, match="orders"):
        s_less(4000.0, 1e-3)
    assert time.perf_counter() - start < 1.0


def test_s_less_domain():
    with pytest.raises(InvalidSpecError):
        s_less(1.0, 1.2)
    with pytest.raises(InvalidSpecError):
        s_less(1.0, 0.5, variant="nonsense")


# ----------------------------------------------------------------- s_greater

@pytest.mark.parametrize("delta", [1.5, 2.0, 4.17])
@pytest.mark.parametrize("variant", ["printed", "reconciled"])
def test_s_greater_zero_identity(delta, variant):
    # A + S_>(0) = 1 holds analytically in both variants
    p = regime_params(delta)
    s0 = s_greater(0.0, p.gamma, variant=variant)
    assert s0 == pytest.approx(1.0 / p.gamma ** 2, rel=1e-12)
    assert p.amp + s0 == pytest.approx(1.0, rel=1e-12)


def test_s_greater_reconciled_matches_oracle():
    p = regime_params(4.17)
    oracle = propagation_c0(4.17, [1.0])[0]
    total = p.amp * math.cos(p.omega * 1.0) + s_greater(1.0, p.gamma, variant="reconciled")
    assert total == pytest.approx(float(oracle.real), abs=1e-6)


def test_s_greater_printed_deviates_from_oracle():
    # the literal weight exponent resums with growing weights and misses
    # the oracle by O(1); kept as the documented transcription failure
    p = regime_params(4.17)
    oracle = propagation_c0(4.17, [1.0])[0]
    total = p.amp * math.cos(p.omega * 1.0) + s_greater(1.0, p.gamma, variant="printed")
    assert abs(total - oracle.real) > 0.1


def test_s_greater_large_gamma_bounded():
    p = regime_params(50.0)
    for tau in np.linspace(0.0, 4.0, 17):
        val = s_greater(float(tau), p.gamma, variant="reconciled")
        assert abs(val) <= 2.0


def test_s_greater_domain():
    with pytest.raises(InvalidSpecError):
        s_greater(1.0, 0.0)
    with pytest.raises(InvalidSpecError):
        s_greater(-1.0, 2.0)


# ------------------------------------------------------------- c0_closed_form

@pytest.mark.parametrize("delta", [0.1, 0.474, 2.0, 4.17])
def test_initial_condition_reconciled(delta):
    assert abs(c0_closed_form(delta, 0.0)) == pytest.approx(1.0, abs=1e-10)


def test_closed_form_matches_oracle_both_regimes():
    taus = np.linspace(0.0, 4.0, 81)
    for delta in (0.474, 4.17):
        oracle = propagation_c0(delta, taus)
        vals = np.array([c0_closed_form(delta, float(t)) for t in taus])
        assert np.max(np.abs(np.abs(vals) - np.abs(oracle))) < 1e-6


def test_closed_form_printed_failures():
    # literal sub-critical branch: c0(0) = 2 instead of 1 ...
    assert c0_closed_form(0.5, 0.0, mode="printed").real == pytest.approx(2.0, rel=1e-12)
    # ... and the decoupled limit picks up a spurious + J0(2 tau)
    for tau in (0.5, 1.0, 2.0):
        lit = c0_closed_form(1e-3, tau, mode="printed").real
        assert lit == pytest.approx(1.0 + series_j(0, 2.0 * tau), abs=1e-4)


def test_closed_form_routes_near_critical():
    assert c0_closed_form(1.0 + 1e-9, 2.0).real == pytest.approx(c0_critical(2.0), rel=1e-12)
    assert c0_closed_form(1.0 - 1e-9, 2.0).real == pytest.approx(c0_critical(2.0), rel=1e-12)


def test_closed_form_bounded(rng):
    for _ in range(12):
        delta = float(rng.uniform(0.05, 5.0))
        tau = float(rng.uniform(0.0, 4.0))
        assert abs(c0_closed_form(delta, tau)) <= 1.0 + 1e-9


def test_survival_series_agrees_with_closed_form(rng):
    for _ in range(10):
        delta = float(rng.uniform(0.1, 4.5))
        tau = float(rng.uniform(0.0, 4.0))
        if abs(delta - 1.0) < 1e-3:
            continue
        assert survival_series(delta, tau) == pytest.approx(
            c0_closed_form(delta, tau).real, abs=5e-9
        )


# ------------------------------------------------------------------ contour

@pytest.mark.parametrize("delta", [0.1, 0.474, 2.0, 4.17])
def test_contour_initial_condition(delta):
    assert abs(c0_contour(delta, 0.0)) == pytest.approx(1.0, abs=1e-10)


def test_contour_matches_oracle_subcritical():
    taus = [0.5, 1.0, 2.0, 4.0]
    oracle = propagation_c0(0.474, taus)
    for t, c in zip(taus, oracle):
        assert abs(abs(c0_contour(0.474, t)) - abs(c)) < 1e-6


def test_contour_matches_oracle_supercritical():
    taus = [0.5, 1.0, 2.0, 4.0]
    oracle = propagation_c0(4.17, taus)
    for t, c in zip(taus, oracle):
        assert abs(abs(c0_contour(4.17, t)) - abs(c)) < 1e-6


def test_contour_printed_poles_fail_above_critical():
    # documented discrepancy: the literal pole pair produces runaway cosh
    # terms for delta > 1 (off by ~1e6 at tau = 4)
    oracle = propagation_c0(4.17, [4.0])[0]
    lit = c0_contour(4.17, 4.0, pole_convention="printed")
    assert abs(lit - oracle) > 1.0e3
    # ... while below critical the printed form is already exact
    oracle = propagation_c0(0.474, [2.0])[0]
    lit = c0_contour(0.474, 2.0, pole_convention="printed")
    assert abs(abs(lit) - abs(oracle)) < 1e-6


def test_contour_domain_errors():
    with pytest.raises(InvalidSpecError):
        c0_contour(0.5, -1.0)
    with pytest.raises(InvalidSpecError):
        c0_contour(0.0, 1.0)
    with pytest.raises(InvalidSpecError):
        c0_contour(0.5, 1.0, pole_convention="bogus")


def test_contour_stops_doubling_at_its_node_cap():
    # past tau ~ 1.048e6 the quadrature gives up at 2^22 points instead of doubling on
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="did not converge with 4194304 points"):
        c0_contour(0.5, 1e7)
    assert time.perf_counter() - start < 3.0


# every evaluator shares one delta check and one tau check: nan, inf and
# negative tau, and delta <= 0, nan, inf or with 2 delta^2 past the float
# range raise InvalidSpecError before any series or quadrature runs
_EVALUATORS = {
    "closed_form": c0_closed_form,
    "series": survival_series,
    "contour": c0_contour,
}


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", sorted(_EVALUATORS))
def test_invalid_tau_raises(name, tau):
    with pytest.raises(InvalidSpecError, match="tau"):
        _EVALUATORS[name](0.5, tau)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
def test_invalid_tau_raises_in_branches(tau):
    for call in (lambda: c0_critical(tau), lambda: s_less(tau, 0.5), lambda: s_greater(tau, 2.0)):
        with pytest.raises(InvalidSpecError, match="tau"):
            call()


@pytest.mark.parametrize("delta", [0.0, math.nan, math.inf, 1e160, 1e154])
@pytest.mark.parametrize("name", sorted(_EVALUATORS) + ["regime", "bound_states"])
def test_invalid_delta_raises(name, delta):
    fn = {"regime": regime_params, "bound_states": bound_state_energies}.get(name)
    with pytest.raises(InvalidSpecError, match="delta"):
        fn(delta) if fn else _EVALUATORS[name](delta, 1.0)


# the unit circle stays clear of the poles as they merge into the origin at
# delta = 1, so these inputs need no separate branch
@pytest.mark.parametrize(
    "delta, tau",
    [(1.0, 1.0), (1.0 + 1e-9, 1.0), (0.99, 4.0), (0.999, 0.5), (0.999998, 0.01)],
)
def test_contour_near_critical_matches_chain(delta, tau):
    oracle = propagation_c0(delta, [tau])[0]
    assert abs(c0_contour(delta, tau) - oracle) < 1e-10


# delta -> 0 and delta -> sqrt(2) put a pole pair next to the unit circle
_CONTOUR_DELTAS = (
    0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.001, 1.3, 1.41,
    1.4142, 1.41421356, math.sqrt(2.0), 1.42, 1.5, 4.17, 6.0,
)


@pytest.mark.parametrize("delta", _CONTOUR_DELTAS)
def test_contour_matches_chain_to_tau_50(delta):
    taus = [0.0, 0.7, 4.0, 10.0, 20.0, 50.0]
    oracle = propagation_c0(delta, taus)
    for t, c in zip(taus, oracle):
        assert abs(c0_contour(delta, t) - c) < 1e-10, t


# ------------------------------------------------------- frozen values, domain

_TAUS = (0.0, 0.7, 2.0, 4.0)

# values of the per-order loops and the lgamma double sum these series
# replaced, at _TAUS
_S_LESS_FROZEN = {
    (0.5, "printed"): [-0.5, 0.5209048152750215, -0.371839663766818, 0.19398713622186592],
    (0.5, "reconciled"): [-1.5, -0.04595030509926723, 0.025310146097029307, 0.022336329084312045],
    (0.88, "printed"): [0.8543388429752066, 0.5568002446480377, -0.39230178999519877, 0.17446311187372188],
    (0.88, "reconciled"): [-0.14566115702479343, -0.010054875726251078, 0.004848019868648523, 0.002812304736168003],
}
_S_GREATER_FROZEN = {
    (0.5, "printed"): [4.0, 2.113595721736039, -1.8112379851444371, 0.7382160798200179],
    (0.5, "reconciled"): [4.0, 0.1859417131869276, 0.6764754922149256, -2.397176631370769],
    (0.88, "printed"): [1.2913223140495869, 0.6867760359646564, -0.5521156455264544, 0.20210886205736706],
    (0.88, "reconciled"): [1.2913223140495869, 0.6582953841963848, -0.5409873727394813, 0.13004984295595756],
    (1.5, "printed"): [0.4444444444444444, 0.4865859371633612, -0.25293612161806234, 0.5792300638559835],
    (1.5, "reconciled"): [0.4444444444444444, 0.30214744198741894, -0.1151450943171996, 0.07211881708906205],
    # at tau = 4 the double sum returned 0.2631154333367679, 2.3e-9 (8.6e-9
    # relative) off the 50-digit mpmath value pinned here
    (4.05, "printed"): [0.060966316110349084, 1.48566230144643, 0.21604682608114717, 0.2631154310662948],
    (4.05, "reconciled"): [0.060966316110349084, 0.046398474726564665, -0.004337461840815016, 0.004432915505000967],
}
# survival_series at delta = sqrt(1 - gamma^2) ("sub") and sqrt(1 + gamma^2) ("super")
_SERIES_FROZEN = {
    (0.5, "sub"): [1.0, 0.8288940676786208, 0.14977781701666162, 0.028533209525997295],
    (0.5, "super"): [1.0, 0.7206798801354046, -0.17451106417478648, 0.12003795586816478],
    (0.88, "sub"): [1.0, 0.9474038689259002, 0.6909387689920997, 0.4136846758089646],
    (0.88, "super"): [1.0, 0.6120717501822163, -0.3578825758351286, 0.19119846256156386],
    (1.5, "super"): [1.0, 0.33220479226616706, -0.32072471485194065, -0.33129000910128614],
    (4.05, "super"): [1.0, -0.8842481126146317, -0.6374093967964254, -0.08099970652586438],
}


@pytest.mark.parametrize("key", sorted(_S_LESS_FROZEN))
def test_s_less_frozen(key):
    gamma, variant = key
    for tau, want in zip(_TAUS, _S_LESS_FROZEN[key]):
        assert s_less(tau, gamma, variant=variant) == pytest.approx(want, abs=1e-11)


@pytest.mark.parametrize("key", sorted(_S_GREATER_FROZEN))
def test_s_greater_frozen(key):
    gamma, variant = key
    # the printed variant's growing weights make its values, and the old
    # double sum's rounding error, large: pinned relative there
    tols = {"rel": 5e-9, "abs": 0.0} if variant == "printed" else {"abs": 1e-11}
    for tau, want in zip(_TAUS, _S_GREATER_FROZEN[key]):
        assert s_greater(tau, gamma, variant=variant) == pytest.approx(want, **tols)


@pytest.mark.parametrize("key", sorted(_SERIES_FROZEN))
def test_survival_series_frozen(key):
    gamma, side = key
    delta = math.sqrt(1.0 - gamma * gamma if side == "sub" else 1.0 + gamma * gamma)
    for tau, want in zip(_TAUS, _SERIES_FROZEN[key]):
        assert survival_series(delta, tau) == pytest.approx(want, abs=1e-11)


@pytest.mark.parametrize(
    "fn, delta, tau, kwargs, err, match",
    [
        (c0_closed_form, 1.00001, 30.0, {}, SeriesDivergenceError, "overflows"),
        (c0_closed_form, 0.99, 4.0, {}, SeriesDivergenceError, r"~13\.\d digits.*c0_contour"),
        (survival_series, 6.0, 4.0, {}, SeriesDivergenceError, r"cancellation.*c0_contour"),
        # the printed pole's residue exp(tau (gamma - 1/gamma)) overflows
        (c0_contour, 6.0, 200.0, {"pole_convention": "printed"}, QuadratureError, "overflows"),
        # just past the closed form's delta = 1 window
        (c0_closed_form, 1.0 + 5e-7, 10.0, {}, SeriesDivergenceError, "overflows"),
    ],
)
def test_ill_conditioned_inputs_raise_quickly(fn, delta, tau, kwargs, err, match):
    t0 = time.perf_counter()
    with pytest.raises(err, match=match):
        fn(delta, tau, **kwargs)
    assert time.perf_counter() - t0 < 1.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(delta=st.floats(0.0, 6.0, exclude_min=True), tau=st.floats(0.0, 20.0))
@example(delta=0.97, tau=4.0)  # guard threshold of the sub-critical closed form
@example(delta=1.0 + 4e-9, tau=10.0)  # closed form returns the delta = 1 branch
@example(delta=1.0 + 5e-7, tau=10.0)  # closed form raises
@example(delta=6.0, tau=4.0)  # survival_series cancels
@example(delta=1.0, tau=1e-275)  # the Bessel recurrence overflowed to nan
def test_evaluators_match_chain_or_raise(delta, tau):
    oracle = propagation_c0(delta, [tau], n_sites=300)[0]
    assert abs(c0_contour(delta, tau) - oracle) < 1e-10  # never raises
    for fn in (c0_closed_form, survival_series):
        try:
            val = fn(delta, tau)
        except (SeriesDivergenceError, InvalidSpecError):
            continue
        assert abs(val - oracle) < 1e-8, fn.__name__


# --------------------------------------------------------------- bound states

def test_bound_states_a3():
    assert bound_state_energies(4.17) == pytest.approx(
        (4.295336646618649, -4.295336646618649), rel=1e-12
    )
    # dense 2000-site spectrum: exactly two eigenvalues outside the band
    w, _ = build_hamiltonian(LatticeSpec(2000, delta=4.17)).eigensystem()
    outside = np.sort(w[np.abs(w) > 2.0])
    assert outside.size == 2
    assert outside == pytest.approx([-4.295336646618649, 4.295336646618649], abs=1e-6)


def test_bound_states_absent_below_threshold():
    assert bound_state_energies(1.2) is None
    w, _ = build_hamiltonian(LatticeSpec(2000, delta=1.2)).eigensystem()
    assert np.max(np.abs(w)) - 2.0 < 1e-4  # band-edge gap closes
    assert bound_state_energies(math.sqrt(2.0)) is None
    assert bound_state_energies(0.5) is None


def test_oscillation_period_matches_pi_over_omega():
    taus = np.linspace(0.0, 4.0, 4001)
    p0 = np.abs(propagation_c0(4.17, taus)) ** 2
    peaks = [
        taus[i]
        for i in range(1, len(taus) - 1)
        if p0[i] > p0[i - 1] and p0[i] > p0[i + 1]
    ]
    spacing = float(np.mean(np.diff(peaks)))
    omega = regime_params(4.17).omega
    assert spacing == pytest.approx(math.pi / omega, rel=0.02)


def test_zeno_limit_slope():
    # delta = 0.1: ln|c0|^2 decays with slope -2*Omega over tau in [5, 20]
    taus = np.linspace(5.0, 20.0, 151)
    grid = TimeGrid(taus)
    tr = propagate(build_hamiltonian(LatticeSpec(2000, delta=0.1)), initial_state(2000), grid)
    lnp = np.log(np.abs(tr.amplitudes[:, 0]) ** 2)
    slope = float(np.polyfit(taus, lnp, 1)[0])
    omega = regime_params(0.1).omega
    assert slope == pytest.approx(-2.0 * omega, rel=0.05)

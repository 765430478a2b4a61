"""Chain construction and exact propagation."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import defectlattice.lattice as lattice_module
from defectlattice import (
    AmplitudeTrace,
    InvalidSpecError,
    LatticeSpec,
    TimeGrid,
    TridiagonalOperator,
    build_hamiltonian,
    effective_decay_rate,
    initial_state,
    propagate,
    site_probabilities,
)
from defectlattice.bessel import _tail_order
from defectlattice.eme import (
    RickerParams,
    TransverseGrid,
    WaveguideGeometry,
    ricker_profile,
    solve_modes,
)
from defectlattice.finitesize import deviation
from defectlattice.lattice import _CONE_BOUND
from helpers import J1_FIRST_ZERO, series_j

SMALL_PROFILE = ricker_profile(
    RickerParams(3e-3, 4.0, 4.0, 1.457), TransverseGrid.centered(24.0, 24.0, 1.0, 1.0)
)


def test_build_hamiltonian_examples():
    op = build_hamiltonian(LatticeSpec(3, delta=0.5))
    assert op.n_sites == 3
    assert op.off_diagonal.tolist() == [0.5, 1.0]

    op = build_hamiltonian(LatticeSpec(2, delta=1.0))
    assert op.off_diagonal.tolist() == [1.0]


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        LatticeSpec(1)
    with pytest.raises(InvalidSpecError):
        LatticeSpec(5, delta=-0.1)
    with pytest.raises(InvalidSpecError, match="delta"):
        LatticeSpec(5, delta=float("inf"))


def test_grid_validation():
    with pytest.raises(InvalidSpecError):
        TimeGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(InvalidSpecError):
        TimeGrid(np.array([]))
    for tau_max in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidSpecError, match="tau_max"):
            TimeGrid.uniform(tau_max, 5)


@pytest.mark.parametrize(
    "call, name, minimum",
    [
        (lambda n: TimeGrid.uniform(4.0, n), "n_points", 1),
        (lambda n: build_hamiltonian(LatticeSpec(n)), "n_sites", 2),
        (lambda n: deviation(1.0, n, TimeGrid.uniform(1.0, 5)), "n_trunc", 2),
        (initial_state, "n_sites", 1),
        (lambda n: WaveguideGeometry.from_spacings(n, 27.1, 27.1), "n_guides", 1),
        (lambda n: solve_modes(SMALL_PROFILE, 0.633, n, check_edges=False), "n_modes", 1),
        (lambda n: TransverseGrid(n, 10, 1.0, 1.0, 0.0, 0.0), "nx", 8),
    ],
    ids=["time-grid", "lattice-spec", "deviation", "initial-state", "geometry", "solve-modes",
         "transverse-grid"],
)
def test_counts_must_be_integral(call, name, minimum):
    for bad in (minimum + 0.5, minimum - 1, np.nan, "10"):
        with pytest.raises(InvalidSpecError, match=name):
            call(bad)
    # integral values of any type are counts
    call(float(minimum + 1))
    call(np.int64(minimum + 1))


def test_eigensolver_failure_names_the_size(monkeypatch):
    def fail(*args, **kw):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(lattice_module, "eigh_tridiagonal", fail)
    with pytest.raises(InvalidSpecError,
                       match="^tridiagonal eigensolver failed for size 5: did not converge$"):
        TridiagonalOperator(np.ones(4)).eigensystem()


def test_operator_bonds_must_be_1d():
    with pytest.raises(InvalidSpecError, match="off_diagonal bonds must be a 1-d array"):
        TridiagonalOperator([[1.0, 1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_state_must_be_finite(bad):
    state = initial_state(6)
    state[3] = bad
    with pytest.raises(InvalidSpecError, match="state0 must be finite"):
        propagate(build_hamiltonian(LatticeSpec(6)), state, TimeGrid.uniform(1.0, 5))


def test_trace_rejects_nan_rows():
    with pytest.raises(InvalidSpecError, match="row norm"):
        AmplitudeTrace(TimeGrid.uniform(1.0, 2), np.full((2, 3), np.nan, dtype=complex))


@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 1, 1)])
def test_trace_shape_must_match_the_grid(shape):
    message = f"amplitudes shape {shape} does not match grid length 2"
    with pytest.raises(InvalidSpecError, match=re.escape(message)):
        AmplitudeTrace(TimeGrid.uniform(1.0, 2), np.ones(shape, dtype=complex))


@pytest.mark.parametrize("state", [initial_state(5), initial_state(7), np.ones((6, 1))])
def test_state_shape_must_match_the_operator(state):
    with pytest.raises(InvalidSpecError, match=r"state has shape .* operator needs \(6,\)"):
        propagate(build_hamiltonian(LatticeSpec(6)), state, TimeGrid.uniform(1.0, 5))


@pytest.mark.parametrize("size", [4, 6])
def test_decay_rate_length_must_match_the_grid(size):
    with pytest.raises(InvalidSpecError, match="prob0 length must match the grid"):
        effective_decay_rate(np.ones(size), TimeGrid.uniform(1.0, 5))


def _full_chain_amplitudes(off, state0, tau):
    """exp(-i H tau) state0 from the eigendecomposition of all N sites."""
    w, v = eigh_tridiagonal(np.zeros(off.size + 1), off)
    return (np.exp(-1j * np.outer(tau, w)) * (v.T @ state0)) @ v.T


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    delta=st.floats(0.05, 8.0, exclude_min=True, exclude_max=True),
    n=st.integers(10, 1500),
    start=st.integers(1, 60),
    width=st.integers(1, 6),
    tau0=st.floats(0.01, 3.0),
    span=st.floats(0.1, 6.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(delta=4.17, n=30, start=3, width=2, tau0=0.5, span=3.5, seed=1)  # N inside the cone
@example(delta=0.474, n=1500, start=1, width=1, tau0=0.01, span=4.0, seed=2)
def test_light_cone_matches_full_chain(delta, n, start, width, tau0, span, seed):
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.5, 1.5, n - 1)
    off[0] = delta
    start = min(start, n - 1)
    m = min(n, start + width)  # support of state0: its last nonzero site + 1
    state0 = np.zeros(n, dtype=complex)
    state0[start:m] = rng.normal(size=m - start) + 1j * rng.normal(size=m - start)
    state0 /= np.linalg.norm(state0)
    tau = np.linspace(tau0, tau0 + span, 7)

    amps = propagate(TridiagonalOperator(off), state0, TimeGrid(tau)).amplitudes
    full = _full_chain_amplitudes(off, state0, tau)
    assert np.max(np.abs(amps - full)) < 1e-13

    s = max(np.abs(np.append(off, 0.0)) + np.abs(np.insert(off, 0, 0.0)))
    k = _tail_order(0.5 * s * tau[-1], _CONE_BOUND / 4, n - m)
    if k is None or m + k >= n:  # N inside the cone: the whole chain, bit for bit
        assert np.array_equal(amps, full)


def test_initial_state():
    assert initial_state(3).tolist() == [1, 0, 0]
    assert initial_state(1).tolist() == [1]
    assert np.linalg.norm(initial_state(500)) == 1.0
    with pytest.raises(InvalidSpecError):
        initial_state(0)


def test_two_site_full_inversion():
    grid = TimeGrid(np.array([0.0, np.pi / 4, np.pi / 2]))
    tr = propagate(build_hamiltonian(LatticeSpec(2)), initial_state(2), grid)
    probs = site_probabilities(tr)
    assert probs[0] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert probs[1] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert probs[2, 0] == pytest.approx(0.0, abs=1e-12)
    assert probs[2, 1] == pytest.approx(1.0, abs=1e-12)


def test_identity_at_tau_zero(rng):
    state = rng.normal(size=7) + 1j * rng.normal(size=7)
    state /= np.linalg.norm(state)
    op = build_hamiltonian(LatticeSpec(7, delta=2.3))
    tr = propagate(op, state, TimeGrid(np.array([0.0])))
    assert np.allclose(tr.amplitudes[0], state, atol=1e-12)


def test_critical_chain_matches_bessel_form():
    # 600 sites at delta=1, tau=2: |c0| = J1(2*tau)/tau from the series oracle
    grid = TimeGrid(np.array([2.0]))
    tr = propagate(build_hamiltonian(LatticeSpec(600, delta=1.0)), initial_state(600), grid)
    assert abs(tr.amplitudes[0, 0]) == pytest.approx(abs(series_j(1, 4.0) / 2.0), abs=1e-6)


def test_norm_conservation_random_specs(rng):
    grid = TimeGrid(np.linspace(0.0, 4.0, 23))
    for _ in range(8):
        n = int(rng.integers(2, 40))
        spec = LatticeSpec(n, delta=float(rng.uniform(0.05, 5.0)))
        tr = propagate(build_hamiltonian(spec), initial_state(n), grid)
        norms = np.sum(np.abs(tr.amplitudes) ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_time_composability():
    op = build_hamiltonian(LatticeSpec(12, delta=0.7))
    tau1, tau2 = 1.3, 3.1
    direct = propagate(op, initial_state(12), TimeGrid(np.array([tau2]))).amplitudes[0]
    first = propagate(op, initial_state(12), TimeGrid(np.array([tau1]))).amplitudes[0]
    second = propagate(op, first, TimeGrid(np.array([tau2 - tau1]))).amplitudes[0]
    assert np.allclose(second, direct, atol=1e-9)


def test_spectrum_band_structure():
    for delta in (0.3, 0.9, 1.0):
        w, _ = build_hamiltonian(LatticeSpec(400, delta=delta)).eigensystem()
        assert np.all(np.abs(w) <= 2.0 + 1e-9)
    for delta in (1.6, 4.17):
        w, _ = build_hamiltonian(LatticeSpec(400, delta=delta)).eigensystem()
        outside = w[np.abs(w) > 2.0]
        omega = delta ** 2 / np.sqrt(delta ** 2 - 1.0)
        assert outside.size == 2
        assert sorted(outside) == pytest.approx([-omega, omega], abs=1e-6)


def test_row_sums_defect_chain():
    grid = TimeGrid(np.linspace(0.0, 4.0, 33))
    tr = propagate(build_hamiltonian(LatticeSpec(10, delta=4.17)), initial_state(10), grid)
    sums = site_probabilities(tr).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-10


def test_effective_decay_rate_exponential():
    grid = TimeGrid(np.linspace(0.0, 5.0, 11))
    gamma0 = 0.37
    prob = np.exp(-gamma0 * grid.tau)
    rate = effective_decay_rate(prob, grid)
    assert np.isnan(rate[0])  # tau = 0 undefined
    assert np.allclose(rate[1:], gamma0, atol=1e-12)


def test_effective_decay_rate_constant_one():
    grid = TimeGrid(np.linspace(0.0, 5.0, 6))
    rate = effective_decay_rate(np.ones(6), grid)
    assert np.isnan(rate[0])
    assert np.allclose(rate[1:], 0.0)


def test_effective_decay_rate_missing_at_bessel_zero():
    # at the bisected first zero of J_1(2 tau) the survival probability
    # underflows the 1e-30 floor and the rate is emitted as missing
    from defectlattice import c0_critical

    tau_star = J1_FIRST_ZERO / 2.0
    grid = TimeGrid(np.array([tau_star / 2.0, tau_star]))
    prob = np.array([c0_critical(tau_star / 2.0) ** 2, c0_critical(tau_star) ** 2])
    rate = effective_decay_rate(prob, grid)
    assert prob[1] <= 1e-30
    assert np.isfinite(rate[0])
    assert np.isnan(rate[1])

"""Acceptance gate: one test per criterion, at the stated tolerances.

Each criterion prints a PASS/FAIL line (collected into
``acceptance_report.txt`` next to this file) with the measured numbers
and elapsed time.  Criterion 4 exercises a published deviation magnitude that the
stated definitions contradict: it is implemented faithfully, expected
to fail, and marked strict-xfail so a silent pass would itself flag a
regression.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from defectlattice import (
    LatticeSpec,
    TimeGrid,
    build_hamiltonian,
    c0_closed_form,
    c0_contour,
    c0_critical,
    deviation,
    initial_state,
    pair_splitting_beta,
    preset,
    propagate,
    regime_params,
    run_eme,
    site_probabilities,
)
from defectlattice.eme import (
    Field,
    RickerParams,
    TransverseGrid,
    WaveguideGeometry,
    array_profile,
    extract_intensities,
    fit_ricker,
    gaussian_input,
    propagate_eme,
    ricker_profile,
    solve_modes,
)
from defectlattice.experiments import DEFAULT_EME_CONFIG
from helpers import propagation_c0, series_j

_LINES = []


def _report(num, ok, detail, elapsed, budget):
    line = (
        f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}"
        f"  ({elapsed:.1f}s / budget {budget:.0f}s)"
    )
    _LINES.append(line)
    print(line)


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    Path(__file__).with_name("acceptance_report.txt").write_text(
        "\n".join(_LINES) + "\n", encoding="utf-8"
    )


def test_criterion_01_initial_condition():
    t0 = time.time()
    worst = 0.0
    for delta in (0.1, 0.474, 2.0, 4.17):
        worst = max(worst, abs(abs(c0_contour(delta, 0.0)) - 1.0))
        worst = max(worst, abs(abs(c0_closed_form(delta, 0.0)) - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(1, ok, f"|c0(0)|-1 worst {worst:.2e} (tol 1e-10)", elapsed, 1)
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_02_critical_branch():
    t0 = time.time()
    taus = np.linspace(0.0, 4.0, 200)
    oracle = propagation_c0(1.0, taus)
    worst = max(abs(c0_critical(float(t)) - c) for t, c in zip(taus, oracle))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report(2, ok, f"|critical - 600-site chain| worst {worst:.2e} (tol 1e-6)", elapsed, 10)
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_03_oracle_triangle():
    t0 = time.time()
    taus = np.linspace(0.0, 4.0, 200)
    worst = 0.0
    for delta in (0.474, 4.17):
        chain = np.abs(propagation_c0(delta, taus))
        closed = np.array([abs(c0_closed_form(delta, float(t))) for t in taus])
        contour = np.array([abs(c0_contour(delta, float(t))) for t in taus])
        worst = max(
            worst,
            float(np.max(np.abs(closed - chain))),
            float(np.max(np.abs(contour - chain))),
            float(np.max(np.abs(closed - contour))),
        )
    # the printed sub-critical branch must reproduce both documented failures
    lit_zero = c0_closed_form(0.5, 0.0, mode="printed").real
    lit_limit = c0_closed_form(1e-3, 1.0, mode="printed").real
    failures_reproduced = abs(lit_zero - 2.0) < 1e-9 and abs(
        lit_limit - (1.0 + series_j(0, 2.0))
    ) < 1e-4
    elapsed = time.time() - t0
    ok = worst < 1e-6 and failures_reproduced and elapsed < 30.0
    _report(
        3,
        ok,
        f"pairwise |c0| worst {worst:.2e} (tol 1e-6); printed-branch failures "
        f"reproduced: c0(0)={lit_zero:.3f}, limit->1+J0 ok={failures_reproduced}",
        elapsed,
        30,
    )
    assert worst < 1e-6
    assert failures_reproduced
    assert elapsed < 30.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the published C_10 magnitude is inconsistent with the deviation definitions; the "
    "faithful computation gives 1.1e-4 / 4.2e-4 / 5.2e-4 for the three "
    "ratios, above the 1e-4 band top",
)
def test_criterion_04_finite_size_band():
    t0 = time.time()
    grid = TimeGrid.uniform(4.0, 400)
    values = {}
    for delta in (0.474, 1.0, 4.17):
        ser = deviation(delta, 10, grid)
        values[delta] = float(ser.c_values[-1])
    elapsed = time.time() - t0
    ok = all(1e-7 <= v <= 1e-4 for v in values.values()) and elapsed < 60.0
    _report(
        4,
        ok,
        "C_10(4) = "
        + ", ".join(f"{d}: {v:.3e}" for d, v in values.items())
        + " (band [1e-7, 1e-4])",
        elapsed,
        60,
    )
    assert all(1e-7 <= v <= 1e-4 for v in values.values())
    assert elapsed < 60.0


def test_criterion_05_bound_state_frequency():
    t0 = time.time()
    w, _ = build_hamiltonian(LatticeSpec(2000, delta=4.17)).eigensystem()
    outside = np.sort(w[np.abs(w) > 2.0])
    omega = regime_params(4.17).omega
    spectrum_ok = outside.size == 2 and np.allclose(
        outside, [-4.2954, 4.2954], atol=1e-4
    ) and np.allclose(outside, [-omega, omega], atol=1e-6)

    taus = np.linspace(0.0, 4.0, 4001)
    p0 = np.abs(propagation_c0(4.17, taus)) ** 2
    peaks = [
        taus[i] for i in range(1, len(taus) - 1) if p0[i] > p0[i - 1] and p0[i] > p0[i + 1]
    ]
    period = float(np.mean(np.diff(peaks)))
    period_ok = abs(period - math.pi / omega) < 0.02 * (math.pi / omega)
    elapsed = time.time() - t0
    ok = spectrum_ok and period_ok and elapsed < 60.0
    _report(
        5,
        ok,
        f"outside-band pair {outside.round(6).tolist()} vs +-{omega:.6f}; "
        f"period {period:.4f} vs pi/Omega {math.pi / omega:.4f}",
        elapsed,
        60,
    )
    assert spectrum_ok
    assert period_ok
    assert elapsed < 60.0


def test_criterion_06_a3_landmarks():
    t0 = time.time()
    taus = np.linspace(0.0, 4.0, 4001)
    grid = TimeGrid(taus)
    tr = propagate(build_hamiltonian(LatticeSpec(10, delta=4.17)), initial_state(10), grid)
    p0 = site_probabilities(tr)[:, 0]
    mins = [
        float(taus[i]) for i in range(1, len(taus) - 1) if p0[i] < p0[i - 1] and p0[i] < p0[i + 1]
    ]
    first, last = mins[0], mins[-1]
    elapsed = time.time() - t0
    ok = abs(first - 0.38) <= 0.05 and abs(last - 3.29) <= 0.05 and elapsed < 10.0
    _report(6, ok, f"minima at {first:.3f} (target 0.38+-0.05) and {last:.3f} (3.29+-0.05)", elapsed, 10)
    assert abs(first - 0.38) <= 0.05
    assert abs(last - 3.29) <= 0.05
    assert elapsed < 10.0


def test_criterion_07_zeno_limit():
    t0 = time.time()
    taus = np.linspace(5.0, 20.0, 151)
    grid = TimeGrid(taus)
    tr = propagate(build_hamiltonian(LatticeSpec(2000, delta=0.1)), initial_state(2000), grid)
    lnp = np.log(np.abs(tr.amplitudes[:, 0]) ** 2)
    slope = float(np.polyfit(taus, lnp, 1)[0])
    omega = regime_params(0.1).omega
    rel = abs(slope + 2.0 * omega) / (2.0 * omega)
    elapsed = time.time() - t0
    ok = rel < 0.05 and elapsed < 30.0
    _report(7, ok, f"slope {slope:.6f} vs -2*Omega {-2 * omega:.6f} (rel {rel:.2%})", elapsed, 30)
    assert rel < 0.05
    assert elapsed < 30.0


def test_criterion_08_two_guide_calibration():
    t0 = time.time()
    cfg = DEFAULT_EME_CONFIG
    gap = 27.1
    beta_num = pair_splitting_beta(gap, cfg)  # 1/cm
    z_s = math.pi / (2.0 * beta_num)

    geom = WaveguideGeometry.from_spacings(2, gap, gap)
    grid = cfg.grid_for(geom)
    modes = solve_modes(array_profile(cfg.ricker(), geom, grid), cfg.wavelength, 2)
    phi = solve_modes(ricker_profile(cfg.ricker(), grid), cfg.wavelength, 1).modes[0]
    X, Y = grid.mesh()
    I = phi.values ** 2
    w = math.sqrt(2.0 * float(np.sum(I * X ** 2) * grid.cell_area))
    inp = gaussian_input(geom, w, w, grid)

    zs = np.linspace(0.9 * z_s, 1.1 * z_s, 41)
    best_z, best_c1 = None, -1.0
    for fld, z in zip(propagate_eme(modes, inp, zs), zs):
        c2 = extract_intensities(fld, phi, geom)
        if c2[1] > best_c1:
            best_z, best_c1 = float(z), float(c2[1])
    rel = abs(best_z - z_s) / z_s
    elapsed = time.time() - t0
    ok = rel < 0.02 and best_c1 > 0.98 and elapsed < 120.0
    _report(
        8,
        ok,
        f"beta_num {beta_num:.4f}/cm; transfer peak at {best_z:.3f} cm vs "
        f"z_s {z_s:.3f} cm (rel {rel:.3%}), |c1|^2 {best_c1:.4f}",
        elapsed,
        120,
    )
    assert rel < 0.02
    assert best_c1 > 0.98
    assert elapsed < 120.0


def test_criterion_09_eme_end_to_end():
    t0 = time.time()
    taus = np.linspace(0.4, 4.0, 10)  # ten samples on (0, 4]
    run = run_eme(preset("A2"), TimeGrid(taus))
    analytic = np.array([(c0_critical(float(t))) ** 2 for t in taus])
    rms = float(np.sqrt(np.mean((run.site_probs[:, 0] - analytic) ** 2)))
    elapsed = time.time() - t0
    ok = rms < 0.06 and elapsed < 300.0
    _report(
        9,
        ok,
        f"A2 extracted |c0|^2 vs critical closed form: RMS {rms:.2e} (tol 0.06), "
        f"beta_fit {run.beta_fit:.4f}/cm, {run.mode_count} modes",
        elapsed,
        300,
    )
    assert rms < 0.06
    assert elapsed < 300.0


def test_criterion_10_reconstruction_round_trip():
    t0 = time.time()
    lam, n0 = 0.633, 1.457
    true = RickerParams(3e-3, 4.0, 4.0, n0)
    grid = TransverseGrid.centered(72.0, 72.0, 0.25, 0.25)
    mode = solve_modes(ricker_profile(true, grid), lam, 1).modes[0]

    params, fidelity = fit_ricker(mode, lam, n0)
    noiseless_ok = (
        abs(params.delta_n - true.delta_n) < 0.02 * true.delta_n
        and abs(params.sigma_x - true.sigma_x) < 0.02 * true.sigma_x
        and abs(params.sigma_y - true.sigma_y) < 0.02 * true.sigma_y
        and fidelity > 0.999
    )

    # noisy variant: camera-like 1 um pixels on a 40 um field of view,
    # 1% of peak additive Gaussian noise (fixed seed; the criterion asks
    # for achievability)
    g1 = TransverseGrid.centered(40.0, 40.0, 1.0, 1.0)
    clean = mode.values[64:-64:4, 64:-64:4]
    peak = float(clean.max())
    noisy = np.clip(
        clean + np.random.default_rng(7).normal(0.0, 0.01 * peak, clean.shape), 0.0, None
    )
    _, fid_noisy = fit_ricker(Field(g1, noisy), lam, n0)
    elapsed = time.time() - t0
    ok = noiseless_ok and fid_noisy >= 0.989 and elapsed < 300.0
    _report(
        10,
        ok,
        f"noiseless: dn {params.delta_n:.4e} sx {params.sigma_x:.4f} "
        f"sy {params.sigma_y:.4f} fid {fidelity:.6f}; noisy fid {fid_noisy:.4f} "
        f"(target >= 0.989)",
        elapsed,
        300,
    )
    assert noiseless_ok
    assert fid_noisy >= 0.989
    assert elapsed < 300.0


def test_criterion_11_unitarity_and_padding():
    t0 = time.time()
    grid = TimeGrid.uniform(4.0, 201)
    worst_norm = 0.0
    for delta in (0.1, 0.474, 1.0, 4.17):
        for n in (10, 600):
            tr = propagate(build_hamiltonian(LatticeSpec(n, delta=delta)), initial_state(n), grid)
            norms = np.sum(np.abs(tr.amplitudes) ** 2, axis=1)
            worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
    ser = deviation(1.0, 10, grid)
    d_ok = ser.d_values[0] == 0.0 and np.all(ser.d_values >= 0.0) and np.all(ser.d_values <= 1.0)
    elapsed = time.time() - t0
    ok = worst_norm < 1e-10 and d_ok
    _report(
        11,
        ok,
        f"norm drift worst {worst_norm:.2e} (tol 1e-10); D(0)=0 and 0<=D<=1: {d_ok}",
        elapsed,
        60,
    )
    assert worst_norm < 1e-10
    assert d_ok

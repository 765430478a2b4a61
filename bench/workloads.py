"""The four benchmark workloads: inputs, jobs, and the checks on their outputs.

A workload is built once per process by ``BUILDERS[name](seed, workdir)``
(the set-up the ``setup_s`` metric times), which returns its list of
jobs; one pass runs every job once, in list order.  A job is
one user-level call -- a CLI invocation or one public-API sweep -- and
``run`` is the only part that is timed.  ``keep`` reduces the raw result
to what the checks need, and ``check`` compares it against references
computed by :class:`Oracle`, which uses scipy directly rather than the
package under test.  References are built after the timed passes.

Each job declares how many values it requests, per category.  A check
returns, per category, one error-over-tolerance ratio per delivered
value; a ratio above 1, a non-finite ratio or a value never delivered
(the job raised, exited non-zero, or a sweep stopped early) is a failure.
See README.md for why each workload exists and what it leaves out.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import j1

from defectlattice import cli, lattice, survival
from defectlattice.eme import (
    Field,
    RickerParams,
    TransverseGrid,
    ricker_profile,
    solve_modes,
    write_field,
)

ANALYTIC_DELTAS = (0.1, 0.474, 0.9, 0.99, 1.0, 1.001, 1.5, 4.17, 6.0)
# (evaluator, delta) pairs left out because they fail on the seed; see README
ANALYTIC_EXCLUDED = {
    ("closed_form", 0.99),
    ("closed_form", 1.001),
    ("contour", 0.99),
    ("contour", 1.001),
    ("contour", 1.0),  # usage error: the contour degenerates at delta = 1
    ("series", 6.0),
}
ANALYTIC_TOL = 1e-8
CHAIN_TOL = 1e-10
DN_TOL = 1e-12
PRESET_DELTAS = (0.474, 1.0, 4.17)
EME_STEP_UM = "1.25"
EME_RMS_TOL = 0.06
FIT_TRUE = (3e-3, 4.0, 4.0)
FIT_REL_TOL = 0.02
FIT_CLEAN_FID = 0.999
FIT_NOISY_GAP = 0.02
WAVELENGTH, N0 = 0.633, 1.457


@dataclass
class Job:
    name: str
    values: dict[str, int]
    run: Callable[[], object]
    check: Callable[[object, "Oracle"], dict[str, np.ndarray]]
    keep: Callable[[object], object] = lambda raw: raw


def _jitter(rng: np.random.Generator, end: float) -> float:
    """End of a time range, shortened by up to 2% so each seed samples new points."""
    return end * (1.0 - 0.02 * rng.random())


def _read_csv(path: str) -> np.ndarray:
    """A CLI CSV as a float array; empty fields (missing values) become NaN."""
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    return np.array(
        [[float(tok) if tok else math.nan for tok in row.split(",")] for row in rows]
    )


def _cli(argv: list[str]) -> Callable[[], int]:
    def run():
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"defectlattice {argv[0]} exited with code {rc}")
        return rc

    return run


def _ratios(err, tol) -> np.ndarray:
    return np.asarray(err, dtype=float) / tol


class Oracle:
    """Reference solutions, computed on demand and cached per process."""

    def __init__(self):
        self._eig = {}
        self._amps = {}

    def eig(self, n: int, delta: float):
        key = (n, delta)
        if key not in self._eig:
            off = np.ones(n - 1)
            off[0] = delta
            self._eig[key] = eigh_tridiagonal(np.zeros(n), off)
        return self._eig[key]

    def amplitudes(self, n: int, delta: float, taus, sites: int) -> np.ndarray:
        """Edge-launched amplitudes of an n-site chain on its first `sites` sites."""
        key = (n, delta, sites, taus.tobytes())
        if key not in self._amps:
            w, v = self.eig(n, delta)
            out = np.empty((len(taus), sites), dtype=complex)
            for lo in range(0, len(taus), 512):  # bounds the (T, n) phase block
                phases = np.exp(-1j * np.outer(taus[lo : lo + 512], w))
                out[lo : lo + 512] = (phases * v[0]) @ v[:sites].T
            self._amps[key] = out
        return self._amps[key]

    def site0(self, n: int, delta: float, taus) -> np.ndarray:
        return self.amplitudes(n, delta, taus, 1)[:, 0]


# ---------------------------------------------------------------- analytic

def _sweep(evaluator: str, delta: float, taus: np.ndarray) -> Job:
    """One public-API sweep; a raise stops it and the rest count as failed."""
    fn_name = {"series": "survival_series", "contour": "c0_contour"}[evaluator]

    def run():
        fn = getattr(survival, fn_name)  # resolved per call so a trace sees it
        out = []
        try:
            for t in taus:
                out.append(complex(fn(delta, float(t))))
        except Exception as exc:  # noqa: BLE001 - any raise is a failed value
            return out, type(exc).__name__
        return out, None

    def check(kept, oracle):
        vals, _ = kept
        ref = oracle.site0(600, delta, taus)[: len(vals)]
        return {"survival": _ratios(np.abs(np.array(vals, dtype=complex) - ref), ANALYTIC_TOL)}

    return Job(f"{evaluator}@{delta}", {"survival": len(taus)}, run, check)


def _closed_form_cli(delta: float, taus: np.ndarray, workdir: str) -> Job:
    out = os.path.join(workdir, f"c0_{delta}.csv")
    argv = [
        "closed-form", "--delta", repr(delta), "--tau-max", repr(float(taus[-1])),
        "--steps", str(len(taus)), "--out", out,
    ]

    def check(table, oracle):
        ok_grid = table.shape[0] == len(taus) and np.allclose(table[:, 0], taus, rtol=0, atol=1e-12)
        if not ok_grid:
            return {"survival": np.full(len(taus), np.inf)}
        c0 = table[:, 1] + 1j * table[:, 2]
        return {"survival": _ratios(np.abs(c0 - oracle.site0(600, delta, taus)), ANALYTIC_TOL)}

    return Job(f"closed_form@{delta}", {"survival": len(taus)}, _cli(argv), check,
               lambda raw: _read_csv(out))


def analytic_jobs(seed: int, workdir: str) -> list[Job]:
    rng = np.random.default_rng(seed)
    taus = np.linspace(0.0, _jitter(rng, 4.0), 401)
    jobs = []
    for delta in ANALYTIC_DELTAS:
        if ("closed_form", delta) not in ANALYTIC_EXCLUDED:
            jobs.append(_closed_form_cli(delta, taus, workdir))
        for evaluator in ("series", "contour"):
            if (evaluator, delta) not in ANALYTIC_EXCLUDED:
                jobs.append(_sweep(evaluator, delta, taus))
    return jobs


# ---------------------------------------------------------------- chain

def _propagate(n: int, delta: float, taus: np.ndarray):
    spec = lattice.LatticeSpec(n, delta=delta)
    return lattice.propagate(
        lattice.build_hamiltonian(spec), lattice.initial_state(n), lattice.TimeGrid(taus)
    )


def _norm_drift(amps: np.ndarray) -> np.ndarray:
    return np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1.0)


def _full_trace(n: int, delta: float, taus: np.ndarray) -> Job:
    """Whole-trace job: every row is checked for norm drift and against the oracle.

    N = 10 rows are compared site by site with the same 10-site chain; for
    larger N only site 0 is compared, against a 2000-site chain (the front
    moves two sites per unit tau, so both are semi-infinite on this range).
    """

    def keep(trace):
        amps = trace.amplitudes
        return _norm_drift(amps), amps if n <= 10 else amps[:, :1].copy()

    def check(kept, oracle):
        drift, amps = kept
        if n <= 10:
            err = np.max(np.abs(amps - oracle.amplitudes(n, delta, taus, n)), axis=1)
        else:
            err = np.abs(amps[:, 0] - oracle.site0(2000, delta, taus))
        return {"lattice": np.maximum(drift, err) / CHAIN_TOL}

    return Job(f"trace N={n}@{delta} T={len(taus)}", {"lattice": len(taus)},
               lambda: _propagate(n, delta, taus), check, keep)


def _site0(n: int, delta: float, taus: np.ndarray, ref_n: int) -> Job:
    def check(c0, oracle):
        return {"lattice": _ratios(np.abs(c0 - oracle.site0(ref_n, delta, taus)), CHAIN_TOL)}

    return Job(f"site0 N={n}@{delta} T={len(taus)}", {"lattice": len(taus)},
               lambda: _propagate(n, delta, taus).amplitudes[:, 0], check, np.copy)


def _spectrum(n: int, delta: float) -> Job:
    """Eigenvalues of the chain: two bound states at +-Omega, the rest in the band."""
    omega = delta ** 2 / math.sqrt(delta ** 2 - 1.0)

    def run():
        spec = lattice.LatticeSpec(n, delta=delta)
        return lattice.build_hamiltonian(spec).eigensystem()[0]

    def check(w, oracle):
        w = np.sort(w)
        ratios = np.where(np.abs(w) <= 2.0 + 1e-12, 0.0, np.inf)
        ratios[0] = abs(w[0] + omega) / 1e-8
        ratios[-1] = abs(w[-1] - omega) / 1e-8
        return {"lattice": ratios}

    return Job(f"spectrum N={n}@{delta}", {"lattice": n}, run, check)


def _finite_size_cli(delta: float, taus: np.ndarray, workdir: str) -> Job:
    """CLI finite-size study; D_10 and C_10 against a 1200-site reference."""
    out = os.path.join(workdir, f"dn_{delta}.csv")
    argv = [
        "finite-size", "--sites", "10", "--ref-sites", "600", "--delta", repr(delta),
        "--tau-max", repr(float(taus[-1])), "--steps", str(len(taus)), "--out", out,
    ]

    def check(table, oracle):
        if table.shape[0] != len(taus) or not np.allclose(table[:, 0], taus, rtol=0, atol=1e-12):
            return {"lattice": np.full(len(taus), np.inf)}
        trunc = oracle.amplitudes(10, delta, taus, 10)
        ref = oracle.amplitudes(1200, delta, taus, 10)
        d = np.clip(1.0 - np.abs(np.sum(np.conj(trunc) * ref, axis=1)) ** 2, 0.0, 1.0)
        d[taus == 0.0] = 0.0
        integral = np.concatenate(([0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * np.diff(taus))))
        c = np.full_like(d, np.nan)
        c[taus > 0] = integral[taus > 0] / taus[taus > 0]
        err_d = np.abs(table[:, 1] - d)
        err_c = np.where(np.isnan(c) & np.isnan(table[:, 2]), 0.0, np.abs(table[:, 2] - c))
        return {"lattice": np.maximum(err_d, err_c) / DN_TOL}

    return Job(f"finite-size@{delta}", {"lattice": len(taus)}, _cli(argv), check,
               lambda raw: _read_csv(out))


def chain_jobs(seed: int, workdir: str) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    dense = np.linspace(0.0, _jitter(rng, 4.0), 4001)
    for delta in PRESET_DELTAS:
        jobs.append(_full_trace(10, delta, dense))
    norm_grid = np.linspace(0.0, _jitter(rng, 4.0), 201)
    for delta in (0.1, 0.474, 1.0, 4.17):
        for n in (10, 600):
            jobs.append(_full_trace(n, delta, norm_grid))
    jobs.append(_site0(600, 4.17, np.linspace(0.0, _jitter(rng, 4.0), 4001), ref_n=2000))
    # a 1200-site reference: at tau <= 20 the front has moved 40 sites, so
    # the 2000-site job and its reference are both semi-infinite
    jobs.append(_site0(2000, 0.1, np.linspace(5.0, _jitter(rng, 20.0), 151), ref_n=1200))
    jobs.append(_spectrum(2000, 4.17))
    fs_grid = np.linspace(0.0, _jitter(rng, 4.0), 400)
    for delta in PRESET_DELTAS:
        jobs.append(_finite_size_cli(delta, fs_grid, workdir))
    return jobs


# ---------------------------------------------------------------- eme_compare

def eme_compare_jobs(seed: int, workdir: str) -> list[Job]:
    """``compare --preset A2`` with EME; the seed has no input to vary here."""
    out = os.path.join(workdir, "report.json")
    svg = os.path.join(workdir, "compare.svg")
    argv = ["compare", "--preset", "A2", "--step", EME_STEP_UM, "--out", out, "--svg", svg]
    steps = 401

    def keep(raw):
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        report["svg_bytes"] = os.path.getsize(svg)
        return report

    def check(report, oracle):
        tau = np.array(report["tau"], dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            crit = np.where(tau == 0.0, 1.0, j1(2.0 * tau) / tau) ** 2
        cf = np.array(report["models"]["closed_form"]["site0_prob"], dtype=float)
        cm = np.array(report["models"]["coupled_mode"]["site_probs"], dtype=float)
        ref_cm = np.abs(oracle.amplitudes(10, 1.0, tau, 10)) ** 2
        eme = np.array(report["models"]["eme"]["site_probs"], dtype=float)
        rms = math.sqrt(float(np.mean((eme[:, 0] - crit) ** 2)))
        row_sum = np.abs(eme.sum(axis=1) - 1.0) / 1e-12
        return {
            "survival": _ratios(np.abs(cf - crit), ANALYTIC_TOL),
            "lattice": np.max(np.abs(cm - ref_cm), axis=1) / CHAIN_TOL,
            "eme": np.maximum(row_sum, rms / EME_RMS_TOL),
            "calibration": np.array(
                [0.0 if report["eme_calibration"]["mode_count"] == 10 else np.inf]
            ),
            "io": np.array([0.0 if report["svg_bytes"] > 0 else np.inf]),
        }

    job = Job("compare A2", {"survival": steps, "lattice": steps, "eme": steps,
                             "calibration": 1, "io": 1}, _cli(argv), check, keep)
    return [job]


# ---------------------------------------------------------------- mode_fit

def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b) ** 2 / (np.sum(a * a) * np.sum(b * b)))


def mode_fit_jobs(seed: int, workdir: str) -> list[Job]:
    """One clean desk-guide image and two noisy camera images drawn from the seed.

    The clean image is the fundamental mode of RickerParams(3e-3, 4, 4, 1.457)
    on a 72 um field at 1 um; the camera images are its central 40 um
    (41 x 41 pixels at 1 um) with Gaussian noise of 1% of the peak added
    and clipped at zero, as in acceptance criterion 10.
    """
    rng = np.random.default_rng(seed)
    true = RickerParams(*FIT_TRUE, N0)
    grid = TransverseGrid.centered(72.0, 72.0, 1.0, 1.0)
    mode = solve_modes(ricker_profile(true, grid), WAVELENGTH, 1).modes[0]
    clean_path = os.path.join(workdir, "mode_clean.txt")
    write_field(clean_path, mode)
    camera = TransverseGrid.centered(40.0, 40.0, 1.0, 1.0)
    camera_clean = mode.values[16:-16, 16:-16]
    peak = float(camera_clean.max())

    def fit_job(name, path, values, check):
        out = os.path.join(workdir, f"fit_{name}.json")

        def keep(raw):
            with open(out, encoding="utf-8") as fh:
                return json.load(fh)

        return Job(f"eme-fit {name}", values,
                   _cli(["eme-fit", "--mode-file", path, "--out", out]), check, keep)

    def check_clean(fit, oracle):
        got = (fit["delta_n"], fit["sigma_x"], fit["sigma_y"])
        rel = [abs(g - t) / t / FIT_REL_TOL for g, t in zip(got, FIT_TRUE)]
        return {"fit": np.array(rel + [(1.0 - fit["fidelity"]) / (1.0 - FIT_CLEAN_FID)])}

    jobs = [fit_job("clean", clean_path, {"fit": 4}, check_clean)]
    for i in (1, 2):
        noisy = np.clip(camera_clean + rng.normal(0.0, 0.01 * peak, camera_clean.shape), 0.0, None)
        path = os.path.join(workdir, f"mode_noisy{i}.txt")
        write_field(path, Field(camera, noisy))
        # the noise bounds what any fit can reach: the true mode's own fidelity;
        # the fitted widths scatter by tens of percent and are not checked
        ceiling = _fidelity(camera_clean, noisy)

        def check_noisy(fit, oracle, ceiling=ceiling):
            return {"noisy_fit": np.array([max(ceiling - fit["fidelity"], 0.0) / FIT_NOISY_GAP])}

        jobs.append(fit_job(f"noisy{i}", path, {"noisy_fit": 1}, check_noisy))
    return jobs


BUILDERS = {
    "analytic": analytic_jobs,
    "chain": chain_jobs,
    "eme_compare": eme_compare_jobs,
    "mode_fit": mode_fit_jobs,
}

"""Independent oracles shared across test modules."""

import math

import numpy as np

from defectlattice import (
    LatticeSpec,
    TimeGrid,
    build_hamiltonian,
    initial_state,
    propagate,
)


def series_j(l: int, x: float, terms: int = 120) -> float:
    """Power-series Bessel oracle sum_m (-1)^m (x/2)^(l+2m) / (m! (l+m)!).

    Exactly-rounded summation via fsum; trustworthy to ~1e-12 relative for
    moderate x only (alternating cancellation grows like e^x).
    """
    half = x / 2.0
    vals = []
    for m in range(terms):
        if half > 0:
            ln_mag = (l + 2 * m) * math.log(half) - math.lgamma(m + 1) - math.lgamma(l + m + 1)
        else:
            ln_mag = -math.inf if (l + 2 * m) else 0.0
        vals.append((-1.0) ** m * math.exp(ln_mag))
        if ln_mag < -700:
            break
    return math.fsum(vals)


def bisect_j1_zero(lo=3.5, hi=4.2) -> float:
    """First positive zero of J_1, bisected on the series evaluator."""
    flo = series_j(1, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = series_j(1, mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


J1_FIRST_ZERO = bisect_j1_zero()


def propagation_c0(delta: float, taus, n_sites: int = 600) -> np.ndarray:
    """Brute-force survival amplitude on an n_sites chain (the oracle)."""
    grid = TimeGrid(np.asarray(taus, dtype=float))
    tr = propagate(
        build_hamiltonian(LatticeSpec(n_sites, delta=delta)), initial_state(n_sites), grid
    )
    return tr.amplitudes[:, 0]


def read_csv(path: str) -> tuple[list[str], list[list[float | None]]]:
    """Read a CSV written by textio.write_csv; empty fields come back as None."""
    with open(path, "r", encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    return header.split(","), [
        [None if tok == "" else float(tok) for tok in ln.split(",")] for ln in lines if ln
    ]

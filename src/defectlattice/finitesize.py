"""Deviation of a truncated N-site chain from a (numerically) semi-infinite one.

One call, ``deviation(delta, n_trunc, grid, n_ref)``, gives both
quantities of the finite-size study at one defect ratio delta:
D_N(tau) = 1 - |<psi_trunc(tau)|psi_full(tau)>|^2 with the truncated state
zero-padded to the reference size, and C_N(tau) its running time average.
The default reference holds 600 sites: the ballistic front moves two
sites per unit tau, so for tau <= 4 the reference is indistinguishable
from a semi-infinite chain.  ``propagate`` cuts every chain to its light
cone (under 60 sites for tau <= 4 and delta <= 4.17), so any reference at
or above that size gives the same bits at the same cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidComparisonError, _integer, _real
from .lattice import LatticeSpec, TimeGrid, build_hamiltonian, initial_state, propagate

DEFAULT_N_REF = 600


@dataclass(frozen=True)
class DeviationSeries:
    """D_N and C_N on a shared grid; NaN marks the undefined C_N(0)."""

    grid: TimeGrid
    d_values: np.ndarray
    c_values: np.ndarray


def deviation(
    delta: float, n_trunc: int, grid: TimeGrid, n_ref: int = DEFAULT_N_REF
) -> DeviationSeries:
    """Propagate both chains from the edge-excited state; D_N and C_N per tau.

    The grid must start at tau = 0 and hold at least 2 points, since C_N
    integrates D_N from 0. ``n_ref == n_trunc`` is admitted (D is then
    identically zero).
    """
    n_trunc, n_ref = _integer(n_trunc, "n_trunc", 2), _integer(n_ref, "n_ref", 2)
    if n_ref < n_trunc:
        raise InvalidComparisonError(
            f"reference must not be smaller than the truncated chain ({n_ref} < {n_trunc})"
        )
    tau = grid.tau
    if tau.size < 2:
        raise InsufficientDataError("cumulative deviation needs at least 2 grid points")
    if tau[0] != 0.0:
        raise InsufficientDataError("cumulative deviation needs a grid starting at tau = 0")
    tr, rf = (
        propagate(build_hamiltonian(LatticeSpec(n, delta)), initial_state(n), grid)
        for n in (n_trunc, n_ref)
    )
    # for unit states a (the truncated one, zero-padded) and b, with
    # e = b - a, D = 1 - |<a|b>|^2 = ||e - <a|e> a||^2; the second form
    # keeps the digits that 1 - |<a|b>|^2 cancels, and it is exactly 0
    # where both chains give the same amplitudes
    a, head, tail = tr.amplitudes, rf.amplitudes[:, :n_trunc], rf.amplitudes[:, n_trunc:]
    e = head - a
    e -= np.sum(np.conj(a) * e, axis=1, keepdims=True) * a
    d = np.minimum(np.sum(np.abs(e) ** 2, axis=1) + np.sum(np.abs(tail) ** 2, axis=1), 1.0)
    d[0] = 0.0
    return DeviationSeries(grid, d, _running_mean(tau, d))


def _running_mean(tau: np.ndarray, d: np.ndarray) -> np.ndarray:
    """C(tau) = (1/tau) * integral_0^tau d, composite trapezoid on the grid.

    Undefined at tau = 0 (NaN there); the first positive grid point is
    covered by its single leading panel.
    """
    panels = 0.5 * (d[1:] + d[:-1]) * np.diff(tau)
    integral = np.concatenate(([0.0], np.cumsum(panels)))
    c = np.full_like(d, np.nan)
    c[1:] = integral[1:] / tau[1:]
    return c


def onset_time(series: DeviationSeries, threshold: float) -> float | None:
    """First tau with D_N > threshold, linearly interpolated; None if never."""
    threshold = _real(threshold, "threshold", "> 0")
    d = series.d_values
    tau = series.grid.tau
    above = d > threshold
    if not above.any():
        return None
    i = int(np.argmax(above))
    if i == 0:
        return float(tau[0])
    t0, t1 = tau[i - 1], tau[i]
    d0, d1 = d[i - 1], d[i]
    return float(t0 + (threshold - d0) * (t1 - t0) / (d1 - d0))

"""Deviation of a truncated N-site chain from a (numerically) semi-infinite one.

D_N(tau) = 1 - |<psi_trunc(tau)|psi_full(tau)>|^2 with the truncated state
zero-padded to the reference size, and C_N(tau) its running time average.
The default reference holds 600 sites: the ballistic front moves two
sites per unit tau, so for tau <= 4 the reference is indistinguishable
from a semi-infinite chain (swapping 600 for 1200 moves D_10 by < 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidComparisonError
from .lattice import LatticeSpec, TimeGrid, build_hamiltonian, initial_state, propagate

DEFAULT_N_REF = 600
DEFAULT_SAMPLES = 400


@dataclass(frozen=True)
class DeviationSeries:
    """D_N and (once filled) C_N on a shared grid; NaN marks undefined C_N(0)."""

    grid: TimeGrid
    d_values: np.ndarray
    c_values: np.ndarray | None
    n_trunc: int
    n_ref: int


def deviation(spec_trunc: LatticeSpec, spec_ref: LatticeSpec, grid: TimeGrid) -> DeviationSeries:
    """Propagate both chains from the edge-excited state and overlap per tau.

    The two chains differ in length only: their defect ratios must be equal.
    """
    if spec_trunc.delta != spec_ref.delta:
        raise InvalidComparisonError(
            f"truncated and reference specs must share delta "
            f"({spec_trunc.delta} != {spec_ref.delta})"
        )
    # equal sizes are admitted (D is then identically zero); the reference
    # only has to be at least as large as the truncated chain
    if spec_ref.n_sites < spec_trunc.n_sites:
        raise InvalidComparisonError(
            f"reference must not be smaller than the truncated chain "
            f"({spec_ref.n_sites} < {spec_trunc.n_sites})"
        )
    tr = propagate(build_hamiltonian(spec_trunc), initial_state(spec_trunc.n_sites), grid)
    rf = propagate(build_hamiltonian(spec_ref), initial_state(spec_ref.n_sites), grid)
    # zero-padding the truncated state == overlapping on its support
    ov = np.sum(np.conj(tr.amplitudes) * rf.amplitudes[:, : spec_trunc.n_sites], axis=1)
    d = 1.0 - np.abs(ov) ** 2
    # clip the 1e-16-level negatives from rounding; D is a deficit of a
    # squared overlap and must stay in [0, 1]
    d = np.clip(d, 0.0, 1.0)
    if grid.tau[0] == 0.0:
        d[0] = 0.0
    return DeviationSeries(grid, d, None, spec_trunc.n_sites, spec_ref.n_sites)


def cumulative_deviation(series: DeviationSeries) -> DeviationSeries:
    """C_N(tau) = (1/tau) * integral_0^tau D_N, composite trapezoid on the grid.

    C_N is undefined at tau = 0 (NaN there); the first positive grid
    point is covered by its single leading panel.
    """
    tau = series.grid.tau
    if tau.size < 2:
        raise InsufficientDataError("cumulative deviation needs at least 2 grid points")
    if tau[0] != 0.0:
        raise InsufficientDataError("cumulative deviation needs a grid starting at tau = 0")
    d = series.d_values
    panels = 0.5 * (d[1:] + d[:-1]) * np.diff(tau)
    integral = np.concatenate(([0.0], np.cumsum(panels)))
    c = np.full_like(d, np.nan)
    pos = tau > 0
    c[pos] = integral[pos] / tau[pos]
    return DeviationSeries(series.grid, d, c, series.n_trunc, series.n_ref)


def onset_time(series: DeviationSeries, threshold: float) -> float | None:
    """First tau with D_N > threshold, linearly interpolated; None if never."""
    if not threshold > 0:
        raise InsufficientDataError("threshold must be > 0")
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


def deviation_study(
    delta: float,
    n_trunc: int,
    tau_max: float = 4.0,
    n_ref: int = DEFAULT_N_REF,
    n_samples: int = DEFAULT_SAMPLES,
) -> DeviationSeries:
    """Convenience wrapper: dimensionless chains, uniform grid, C_N filled."""
    grid = TimeGrid.uniform(tau_max, n_samples)
    ser = deviation(
        LatticeSpec(n_sites=n_trunc, delta=delta),
        LatticeSpec(n_sites=n_ref, delta=delta),
        grid,
    )
    return cumulative_deviation(ser)

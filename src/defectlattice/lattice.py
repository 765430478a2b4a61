"""Single-band chain with a boundary defect: construction and exact propagation.

The chain is dimensionless: time is tau = beta*z, every bond is 1 except
the first, which is delta = beta0/beta, and the on-site term is 0 (a
uniform on-site term only multiplies every amplitude by one phase).  All
dynamics are computed through the eigendecomposition of the real
symmetric tridiagonal operator, cut to the light cone that the initial
state can reach by the last time (see :func:`propagate`), so results are
exact to machine precision at any evolution time; this module is the
brute-force oracle the analytic formulas in :mod:`defectlattice.survival`
are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .bessel import _tail_order
from .errors import InvalidSpecError, _integer, _real, _real_array

NORM_TOL = 1e-10

# propagate cuts the chain where this bounds the change of the state (2-norm)
_CONE_BOUND = 1e-18

# effective-decay-rate convention: probabilities at or below this are
# treated as exact zeros and emitted as missing values, never +-inf
PROB_FLOOR = 1e-30


@dataclass(frozen=True)
class LatticeSpec:
    """Chain definition: site count and defect ratio delta = beta0/beta."""

    n_sites: int
    delta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_sites", _integer(self.n_sites, "n_sites", 2))
        object.__setattr__(self, "delta", _real(self.delta, "delta", "> 0"))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing dimensionless times tau = beta*z, tau[0] >= 0."""

    tau: np.ndarray

    def __post_init__(self):
        tau = _real_array(self.tau, "tau", ">= 0")
        object.__setattr__(self, "tau", tau)
        if tau.ndim != 1 or tau.size < 1:
            raise InvalidSpecError("tau must be a 1-d array with at least one entry")
        if tau.size > 1 and not np.all(np.diff(tau) > 0):
            raise InvalidSpecError("tau must be strictly increasing")

    def __len__(self) -> int:
        return self.tau.size

    @staticmethod
    def uniform(tau_max: float, n_points: int) -> "TimeGrid":
        tau_max = _real(tau_max, "tau_max", "> 0")
        return TimeGrid(np.linspace(0.0, tau_max, _integer(n_points, "n_points", 1)))


@dataclass(frozen=True)
class TridiagonalOperator:
    """Real symmetric tridiagonal operator with a zero diagonal: the chain's
    n_sites - 1 bond couplings, first bond first."""

    off_diagonal: np.ndarray

    def __post_init__(self):
        off = _real_array(self.off_diagonal, "off_diagonal")
        object.__setattr__(self, "off_diagonal", off)
        if off.ndim != 1:
            raise InvalidSpecError(f"off_diagonal bonds must be a 1-d array, got shape {off.shape}")

    @property
    def n_sites(self) -> int:
        return self.off_diagonal.size + 1

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthonormal eigenvector columns."""
        try:
            return eigh_tridiagonal(np.zeros(self.n_sites), self.off_diagonal)
        except np.linalg.LinAlgError as exc:
            raise InvalidSpecError(
                f"tridiagonal eigensolver failed for size {self.n_sites}: {exc}"
            ) from exc


@dataclass(frozen=True)
class AmplitudeTrace:
    """Complex site amplitudes indexed (time, site) on a TimeGrid.

    Every row is a unit-norm state (closed-system evolution); violating
    rows indicate a numerical problem and are rejected at construction.
    """

    grid: TimeGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 2 or amps.shape[0] != len(self.grid):
            raise InvalidSpecError(
                f"amplitudes shape {amps.shape} does not match grid length {len(self.grid)}"
            )
        norms = np.sum(np.abs(amps) ** 2, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if not worst <= NORM_TOL:  # also for nan
            raise InvalidSpecError(f"row norm deviates from 1 by {worst:.3e} (> {NORM_TOL:g})")


def build_hamiltonian(spec: LatticeSpec) -> TridiagonalOperator:
    """Tridiagonal operator for the chain: zero diagonal, bonds 1, first bond delta."""
    off = np.ones(spec.n_sites - 1)
    off[0] = spec.delta
    return TridiagonalOperator(off)


def initial_state(n_sites: int) -> np.ndarray:
    """Single excitation on the first site: (1, 0, ..., 0)."""
    state = np.zeros(_integer(n_sites, "n_sites", 1), dtype=complex)
    state[0] = 1.0
    return state


def propagate(op: TridiagonalOperator, state0: np.ndarray, grid: TimeGrid) -> AmplitudeTrace:
    """Evolve state0 under exp(-i*H*tau) for every tau on the grid.

    Only the leading L x L block H_L of H is eigendecomposed, and its
    amplitudes are zero-padded to all N sites.  L = min(N, m + K), where m
    is the support of state0 (its last nonzero site + 1), s =
    max_i(|b_{i-1}| + |b_i|) is Gershgorin's bound on the bonds b, and K
    is the first order past y = s*tau_max/2 with y^K / K! < _CONE_BOUND/4,
    so that 4 * sum_{k>K} y^k / k! < _CONE_BOUND as well (see
    bessel._tail_order).  The cut moves no amplitude by more than that:

    * exp(-i*A*tau) = sum_k c_k J_k(s*tau) T_k(A/s), c_0 = 1 and
      |c_k| = 2 (Chebyshev expansion, Tal-Ezer & Kosloff 1984), for A = H
      and A = H_L alike;
    * H^j state0 is zero past site m + j - 1, and it equals the padded
      H_L^j state0 for j <= L - m, so T_k(H/s) state0 equals the padded
      T_k(H_L/s) state0 for every k <= L - m;
    * ||H|| <= s (Gershgorin) and ||H_L|| <= ||H|| (Cauchy interlacing),
      so ||T_k(A/s)|| <= 1 for both;
    * hence ||psi_N(tau) - pad psi_L(tau)|| <= 4 sum_{k>L-m} |J_k(s*tau)|
      <= 4 sum_{k>L-m} (s*tau/2)^k / k!, for a unit state0.

    With L = N the whole chain is decomposed, and where the order search
    gives up (K past N - m) L is N as well.  Each row is exact at its tau
    (no stepping error accumulates), and the trace passes the unit-norm
    check at 1e-10.
    """
    state0 = np.asarray(state0, dtype=complex)
    n = op.n_sites
    if state0.shape != (n,):
        raise InvalidSpecError(f"state has shape {state0.shape}, operator needs ({n},)")
    if not np.all(np.isfinite(state0)):
        raise InvalidSpecError("state0 must be finite")
    m = int(np.flatnonzero(state0).max(initial=0)) + 1
    bonds = np.abs(op.off_diagonal)
    s = float(np.max(np.append(bonds, 0.0) + np.insert(bonds, 0, 0.0)))
    k = _tail_order(0.5 * s * grid.tau[-1], _CONE_BOUND / 4, n - m)
    size = n if k is None else m + k
    w, v = TridiagonalOperator(op.off_diagonal[: size - 1]).eigensystem()
    coeffs = v.T @ state0[:size]
    phases = np.exp(-1j * np.outer(grid.tau, w))
    amps = np.zeros((len(grid), n), dtype=complex)
    amps[:, :size] = (phases * coeffs) @ v.T
    return AmplitudeTrace(grid, amps)


def site_probabilities(trace: AmplitudeTrace) -> np.ndarray:
    """|c_i|^2 per (time, site); rows sum to 1 within the trace norm check."""
    return np.abs(trace.amplitudes) ** 2


def effective_decay_rate(prob0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """-ln(p0(tau))/tau, with NaN marking points where the rate is undefined.

    Undefined at tau = 0 and wherever p0 <= 1e-30 (zeros of the survival
    probability make the log diverge); NaN is this package's in-memory
    missing-value marker, rendered as an empty CSV field on output.
    """
    prob0 = _real_array(prob0, "prob0")
    if prob0.shape != (len(grid),):
        raise InvalidSpecError("prob0 length must match the grid")
    out = np.full(prob0.shape, np.nan)
    ok = (grid.tau > 0) & (prob0 > PROB_FLOOR)
    out[ok] = -np.log(prob0[ok]) / grid.tau[ok]
    return out

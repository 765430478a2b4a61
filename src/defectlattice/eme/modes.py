"""Scalar-Helmholtz eigenmodes of an index profile.

Solves  [lap + k0^2 n(x,y)^2] psi = k^2 psi  on the grid (5-point stencil,
Dirichlet boundary) and keeps the n_modes largest-k^2 pairs with
n_eff = k/k0 above the substrate index.  The operator is attacked in
shift-invert mode with the shift placed just above k0^2 max(n)^2 (an
upper bound on the spectrum, since the Dirichlet Laplacian is negative
definite), so the shifted operator is negative definite and is factored
without pivoting in SuperLU's symmetric mode under George & Liu's
minimum-degree ordering of A^T + A.  ARPACK's Lanczos iteration runs on
that factorization with a subspace of max(20, 2k+1) vectors.  The start
vector is the normalized all-ones vector, so repeated solves are
bit-for-bit reproducible.

Mirror reduction.  The operator depends only on n, dx and dy, so when the
index map equals its own y-flip the eigenvectors split into y-even and
y-odd ones, and the even ones are the eigenvectors of the y >= 0 half
with a symmetric boundary at the mirror (Fallahkhair, Li & Murphy, J.
Lightwave Technol. 26, 1423, 2008).  For odd ny the mirror is a grid row
whose even-parity coupling to the next row is 2/dy^2 one way and 1/dy^2
the other; scaling that row by 1/sqrt(2) makes both sqrt(2)/dy^2 and keeps
the half operator symmetric, and unfolding multiplies it back.  For even
ny the mirror lies between two rows and the first kept row gets +1/dy^2
on its diagonal (-1/dy^2 for odd parity).  The even half returns the
full-grid answer unless some odd-in-y mode lies above
t = max(k0^2 n0^2, smallest even eigenvalue returned).  That is checked
by Sylvester's law of inertia: the odd half (Dirichlet at a mirror row,
-1/dy^2 otherwise) minus t is factored the same way, and a positive pivot
in the symmetric LDL^T it yields, or a factorization that is not of that
form, sends the solve back to the full grid.  For k = 1 no check is made:
the operator's off-diagonal entries are non-negative and connect the
whole grid, so by Perron-Frobenius its top eigenvector is positive and
hence even.  Profiles that are not mirror-symmetric run on the full grid.

Bound modes decay exponentially; rather than silently truncating them,
any retained mode whose boundary amplitude exceeds 1e-6 of its peak
raises a GeometryError (enlarge the domain).  Each mode's sign makes the
first raster sample with at least half the peak magnitude positive, which
no tie between equal peaks (as in x-odd supermodes) can flip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh, splu

from ..errors import EigensolverError, GeometryError, InvalidSpecError
from .grid import Field, TransverseGrid
from .profile import IndexProfile

EDGE_DECAY = 1e-6
ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class ModeSet:
    """Orthonormal bound modes with effective indices, sorted descending.

    ``n_requested`` records how many modes were asked for; fewer may be
    returned when the profile binds less (check ``complete``).
    """

    grid: TransverseGrid
    modes: tuple[Field, ...]
    n_eff: np.ndarray
    wavelength: float
    n_requested: int

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def complete(self) -> bool:
        return self.n_modes == self.n_requested

    def gram_matrix(self) -> np.ndarray:
        area = self.grid.cell_area
        stack = np.stack([m.values.ravel() for m in self.modes])
        return (stack @ stack.T) * area


def _stencil(
    n: np.ndarray, dx: float, dy: float, k0: float,
    first_diag: float = 0.0, first_coupling: float = 1.0,
) -> sp.csc_matrix:
    """5-point [lap + k0^2 n^2] on the rows of n (ny, nx), y-fast ordering.

    ``first_diag`` is added to the diagonal of the first row and
    ``first_coupling`` scales its coupling to the second row (a mirror
    boundary there); the defaults give a Dirichlet boundary.
    """
    ny, nx = n.shape
    n_tot = nx * ny
    # unknown index = ix*ny + iy keeps the small dimension contiguous
    diag = (-2.0 / dx ** 2 - 2.0 / dy ** 2) + k0 ** 2 * (n.T.ravel()) ** 2
    diag[::ny] += first_diag
    off_y = np.full(n_tot - 1, 1.0 / dy ** 2)
    off_y[ny - 1 :: ny] = 0.0  # no coupling across column ends
    off_y[::ny] *= first_coupling
    off_x = np.full(n_tot - ny, 1.0 / dx ** 2)
    return sp.diags([diag, off_y, off_y, off_x, off_x], [0, 1, -1, ny, -ny], format="csc")


def helmholtz_matrix(profile: IndexProfile, wavelength: float) -> sp.csc_matrix:
    """Sparse 5-point [lap + k0^2 n^2] with Dirichlet boundary, y-fast ordering."""
    g = profile.grid
    return _stencil(profile.n, g.dx, g.dy, 2.0 * np.pi / wavelength)


def _factor(A: sp.csc_matrix, shift: float):
    """Symmetric-mode LU of A - shift*I: minimum-degree ordering, no pivoting."""
    return splu(
        (A - shift * sp.identity(A.shape[0], format="csc")).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


def _top_eigenpairs(A: sp.csc_matrix, sigma: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k eigenpairs of A nearest sigma (shift-invert Lanczos), unsorted."""
    n_tot = A.shape[0]
    lu = _factor(A, sigma)
    op_inv = LinearOperator(A.shape, matvec=lu.solve, dtype=float)
    return eigsh(
        A,
        k=k,
        sigma=sigma,
        which="LM",
        OPinv=op_inv,
        v0=np.ones(n_tot) / np.sqrt(n_tot),
        tol=1e-9,
        ncv=min(n_tot - 1, max(20, 2 * k + 1)),
    )


def _has_eigenvalue_above(A: sp.csc_matrix, t: float) -> bool:
    """True unless the LDL^T inertia of A - t*I shows no eigenvalue above t."""
    try:
        lu = _factor(A, t)
    except RuntimeError:  # exactly singular: t is an eigenvalue
        return True
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return True  # not a symmetric factorization: inertia unknown
    return bool(np.any(lu.U.diagonal() > 0.0))


def _mirror_modes(
    profile: IndexProfile, k0: float, sigma: float, k: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Top-k eigenpairs from the y >= 0 half as (values, (k, ny, nx) vectors).

    None when the half cannot deliver k pairs or an odd-in-y mode could
    displace a returned one (see the module docstring).
    """
    g, n = profile.grid, profile.n
    mid, on_row = g.ny // 2, g.ny % 2 == 1  # mirror on row `mid`, else between mid-1 and mid
    if on_row:
        even = _stencil(n[mid:], g.dx, g.dy, k0, first_coupling=np.sqrt(2.0))
    else:
        even = _stencil(n[mid:], g.dx, g.dy, k0, first_diag=1.0 / g.dy ** 2)
    if k > even.shape[0] - 2:
        return None
    vals, vecs = _top_eigenpairs(even, sigma, k)
    if k > 1:
        if on_row:
            odd = _stencil(n[mid + 1 :], g.dx, g.dy, k0)
        else:
            odd = _stencil(n[mid:], g.dx, g.dy, k0, first_diag=-1.0 / g.dy ** 2)
        if _has_eigenvalue_above(odd, max(k0 ** 2 * profile.n0 ** 2, float(vals.min()))):
            return None
    half = vecs.T.reshape(k, g.nx, g.ny - mid).transpose(0, 2, 1)
    if on_row:
        half[:, 0] *= np.sqrt(2.0)
        return vals, np.concatenate([half[:, :0:-1], half], axis=1)
    return vals, np.concatenate([half[:, ::-1], half], axis=1)


def solve_modes(
    profile: IndexProfile, wavelength: float, n_modes: int, check_edges: bool = True
) -> ModeSet:
    """n_modes largest-k^2 eigenpairs of the profile, bound subset only.

    ``check_edges=False`` skips the boundary-decay guard; meant for
    fitting loops that probe deliberately weak candidate profiles whose
    tails are clipped by the domain.
    """
    if n_modes < 1:
        raise InvalidSpecError("n_modes must be >= 1")
    if not wavelength > 0:
        raise InvalidSpecError("wavelength must be > 0")
    g = profile.grid
    k0 = 2.0 * np.pi / wavelength
    k = min(n_modes, g.nx * g.ny - 2)
    sigma = k0 ** 2 * float(profile.n.max()) ** 2 * (1.0 + 1e-9) + 1e-9

    try:
        found = None
        if np.array_equal(profile.n, profile.n[::-1]):
            found = _mirror_modes(profile, k0, sigma, k)
        if found is None:
            vals, vecs = _top_eigenpairs(helmholtz_matrix(profile, wavelength), sigma, k)
            found = vals, vecs.T.reshape(k, g.nx, g.ny).transpose(0, 2, 1)
    except (ArpackError, ArpackNoConvergence, RuntimeError) as exc:
        raise EigensolverError(f"mode solve failed on {g.nx}x{g.ny} grid: {exc}") from exc
    vals, fields = found

    n_eff = np.sqrt(np.maximum(vals, 0.0)) / k0
    order = [j for j in np.argsort(vals)[::-1] if n_eff[j] > profile.n0]  # bound, descending
    n_eff = n_eff[order]

    modes = []
    for i, j in enumerate(order):
        m = fields[j]
        m = m / np.sqrt(np.sum(m ** 2) * g.cell_area)
        peak = float(np.max(np.abs(m)))
        flat = m.ravel()
        if flat[np.argmax(np.abs(flat) >= 0.5 * peak)] < 0:  # tie-free sign
            m = -m
        edge = float(
            max(
                np.max(np.abs(m[0, :])),
                np.max(np.abs(m[-1, :])),
                np.max(np.abs(m[:, 0])),
                np.max(np.abs(m[:, -1])),
            )
        )
        if check_edges and edge > EDGE_DECAY * peak:
            raise GeometryError(
                f"mode {i} reaches {edge / peak:.2e} of its peak at the domain "
                f"boundary (> {EDGE_DECAY:g}); enlarge the transverse domain"
            )
        modes.append(Field(g, m))

    return ModeSet(g, tuple(modes), n_eff, wavelength, n_modes)

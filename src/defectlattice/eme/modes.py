"""Scalar-Helmholtz eigenmodes of an index profile.

Solves  [lap + k0^2 n(x,y)^2] psi = k^2 psi  on the grid (5-point stencil,
Dirichlet boundary) and keeps the n_modes largest-k^2 pairs with
n_eff = k/k0 above the substrate index.

Parity blocks.  The operator depends only on n, dx and dy, so on each axis
where the index map equals its own flip the eigenvectors split into even
and odd ones, and each parity is an eigenproblem on the half axis with a
mirror boundary (Fallahkhair, Li & Murphy, J. Lightwave Technol. 26, 1423,
2008).  A profile symmetric in x and y thus splits into four blocks on the
quarter domain, one symmetric in y only into two on the half, and any
other profile is a single block, the full grid.  Every block eigenvalue is
a full-grid eigenvalue.  A block operator is the Kronecker sum of two 1-D
second differences plus k0^2 n^2 on the block's part of the grid.  Each
1-D difference is Dirichlet at the domain edge; at a mirror on a grid
line the even block keeps that line, whose coupling to its neighbour is
2/h^2 one way and 1/h^2 the other (scaling the line by 1/sqrt(2) makes
both sqrt(2)/h^2 and the block symmetric), and the odd block starts past
it, since the line is a node.  For a mirror between two lines, the first
kept line gets +1/h^2 (even) or -1/h^2 (odd) on its diagonal.  Block
eigenvectors unfold to full-grid modes by mirroring with the block's sign
on each symmetric axis, after undoing the 1/sqrt(2) scaling.

Which blocks are solved.  For k = 1 only the all-even block: the
operator's off-diagonal entries are non-negative and connect the whole
grid, so by Perron-Frobenius its top eigenvector is positive and hence
even on every axis.  For k > 1 each block first counts its bound modes,
the eigenvalues above k0^2 n0^2, by Sylvester's law of inertia: the block
minus k0^2 n0^2 is factored as below, and the positive pivots of the
symmetric LDL^T it yields are the count.  A factorization that is not of
that form, or an exactly singular one, leaves the count unknown and k is
used instead.  A block that is odd on an axis is not factored at all when
the block that is even there instead binds nothing: both are parity
halves of one sector (the other axis's parity fixed), whose top
eigenvector is again positive and so even, hence the odd half tops out
below the even half.  Each block is asked for min(count, k) pairs, and
the merged pairs are cut to the top k, which are exactly the bound top k.

Each block is solved by shift-invert Lanczos with the shift placed just
above k0^2 max(n)^2 (an upper bound on the spectrum, since the Dirichlet
Laplacian is negative definite), so the shifted operator is negative
definite and is factored without pivoting in SuperLU's symmetric mode
under George & Liu's minimum-degree ordering of A^T + A.  ARPACK's
Lanczos iteration runs on that factorization with a subspace of
max(20, 2k+1) vectors.  The start vector is the normalized all-ones
vector, so repeated solves are bit-for-bit reproducible.

Bound modes decay exponentially; rather than silently truncating them,
any retained mode whose boundary amplitude exceeds 1e-6 of its peak
raises a GeometryError (enlarge the domain).  Each mode's sign makes the
first raster sample with at least half the peak magnitude positive, which
no tie between equal peaks (as in x-odd supermodes) can flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class _Side(NamedTuple):
    """One block of an axis: the whole axis (parity 0), or the even (+1) or
    odd (-1) half behind a mirror at its centre, kept from index ``start``.
    ``diag`` is added to the first kept line's diagonal and ``coupling``
    scales that line's coupling to the next; ``_WHOLE`` is Dirichlet."""

    parity: int
    start: int
    diag: float
    coupling: float


_WHOLE = _Side(0, 0, 0.0, 1.0)


def _sides(size: int, h: float, symmetric: bool) -> list[_Side]:
    """The blocks of one axis, the even one first."""
    if not symmetric:
        return [_WHOLE]
    mid = size // 2
    if size % 2:  # mirror on line `mid`
        return [_Side(1, mid, 0.0, np.sqrt(2.0)), _Side(-1, mid + 1, 0.0, 1.0)]
    return [_Side(1, mid, 1.0 / h ** 2, 1.0), _Side(-1, mid, -1.0 / h ** 2, 1.0)]


def _second_difference(size: int, h: float, side: _Side) -> sp.dia_matrix:
    """1-D second difference on the block's `size` points, Dirichlet past the far end."""
    diag = np.full(size, -2.0 / h ** 2)
    diag[0] += side.diag
    off = np.full(size - 1, 1.0 / h ** 2)
    off[0] *= side.coupling
    return sp.diags([off, diag, off], [-1, 0, 1])


def _operator(
    profile: IndexProfile, k0: float, x: _Side = _WHOLE, y: _Side = _WHOLE
) -> sp.csc_matrix:
    """[lap + k0^2 n^2] on the (x, y) block of the profile, y-fast ordering."""
    g, n = profile.grid, profile.n[y.start :, x.start :]
    ny, nx = n.shape
    # unknown index = ix*ny + iy keeps the small dimension contiguous
    lap = sp.kronsum(
        _second_difference(ny, g.dy, y), _second_difference(nx, g.dx, x), format="csc"
    )
    return lap + sp.diags(k0 ** 2 * n.T.ravel() ** 2, format="csc")


def helmholtz_matrix(profile: IndexProfile, wavelength: float) -> sp.csc_matrix:
    """Sparse 5-point [lap + k0^2 n^2] with Dirichlet boundary, y-fast ordering."""
    return _operator(profile, 2.0 * np.pi / wavelength)


def _unfold(v: np.ndarray, axis: int, size: int, side: _Side) -> np.ndarray:
    """Block vectors v mirrored along `axis` back onto all `size` points."""
    if side.parity == 0:
        return v
    shape = list(v.shape)
    shape[axis] = size
    full = np.zeros(shape)
    f = np.moveaxis(full, axis, 0)
    f[side.start :] = np.moveaxis(v, axis, 0)
    f[side.start] *= side.coupling  # sqrt(2) on an even mirror line, else 1
    mid = size // 2
    f[:mid] = side.parity * np.flip(f[size - mid :], 0)
    return full


def _factor(A: sp.csc_matrix, shift: float):
    """Symmetric-mode LU of A - shift*I: minimum-degree ordering, no pivoting."""
    return splu(
        (A - shift * sp.identity(A.shape[0], format="csc")).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


def _count_above(A: sp.csc_matrix, t: float, unknown: int) -> int:
    """Eigenvalues of A above t, from the LDL^T inertia of A - t*I; `unknown`
    when the factorization cannot tell."""
    try:
        lu = _factor(A, t)
    except RuntimeError:  # exactly singular: t is an eigenvalue
        return unknown
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return unknown  # not a symmetric factorization
    return int(np.count_nonzero(lu.U.diagonal() > 0.0))


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


def _block_eigenpairs(
    profile: IndexProfile, k0: float, sigma: float, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs from the parity blocks as (values, (m, ny, nx) full-grid
    vectors); they include the top k (see the module docstring)."""
    g, n = profile.grid, profile.n
    xs = _sides(g.nx, g.dx, np.array_equal(n, n[:, ::-1]))
    ys = _sides(g.ny, g.dy, np.array_equal(n, n[::-1]))
    blocks = [(x, y) for y in ys for x in xs]
    if k == 1:
        blocks = blocks[:1]  # all-even: holds the top mode (Perron-Frobenius)
    t = k0 ** 2 * profile.n0 ** 2
    counts = {}
    vals, fields = [np.empty(0)], [np.empty((0, g.ny, g.nx))]
    for x, y in blocks:
        if any(counts.get(b) == 0 for b in ((xs[0], y), (x, ys[0]))):
            counts[x, y] = 0  # tops out below a block that binds nothing
            continue
        A = _operator(profile, k0, x, y)
        counts[x, y] = 1 if k == 1 else _count_above(A, t, unknown=k)
        want = min(counts[x, y], k, A.shape[0] - 2)
        if want < 1:
            continue
        w, v = _top_eigenpairs(A, sigma, want)
        block = v.T.reshape(want, g.nx - x.start, g.ny - y.start).transpose(0, 2, 1)
        vals.append(w)
        fields.append(_unfold(_unfold(block, 1, g.ny, y), 2, g.nx, x))
    return np.concatenate(vals), np.concatenate(fields)


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
        vals, fields = _block_eigenpairs(profile, k0, sigma, k)
    except (ArpackError, ArpackNoConvergence, RuntimeError) as exc:
        raise EigensolverError(f"mode solve failed on {g.nx}x{g.ny} grid: {exc}") from exc

    n_eff = np.sqrt(np.maximum(vals, 0.0)) / k0
    top = np.argsort(vals)[::-1][:k]
    order = [j for j in top if n_eff[j] > profile.n0]  # bound, descending
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

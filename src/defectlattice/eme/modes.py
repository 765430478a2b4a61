"""Scalar-Helmholtz eigenmodes of an index profile.

Solves  [lap + k0^2 n(x,y)^2] psi = k^2 psi  on the grid (5-point stencil,
Dirichlet boundary) and keeps the n_modes largest-k^2 pairs with
n_eff = k/k0 above the substrate index.

Parity blocks.  The operator depends only on n, dx and dy, so on each axis
where the index map equals its own flip the eigenvectors split into even
and odd ones (Fallahkhair, Li & Murphy, J. Lightwave Technol. 26, 1423,
2008).  Each parity of such an axis has an orthonormal basis P with one
column per point of the upper half, pairing it with its mirror image with
weights 1/sqrt(2) and +-1/sqrt(2); a mirror line pairs with itself (weight
1, and no odd column).  A non-symmetric axis has P = I.  The Laplacian is a
Kronecker sum and n^2 is equal at mirror images, so a block operator is the
Kronecker sum of the projected 1-D second differences P^T D P (D Dirichlet
at the domain edge) plus k0^2 n^2 on the block's kept points, and P maps
its eigenvectors back to the full grid.  A profile symmetric in x and y
thus splits into four blocks on the quarter domain, one symmetric in y
only into two on the half, and any other profile is a single block, the
full grid.  Every block eigenvalue is a full-grid eigenvalue.  Each
P^T D P is tridiagonal, so a block operator, and every shifted matrix the
solver factors (A - shift*I below), is written out directly as five
diagonals: offsets 0 and +-1 (the y neighbours) and +-ny (the x
neighbours) in the y-fast ordering.  Only the axis bases are cached.

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

Sectors.  The same argument makes the top mode of the x-odd sector of an
x-symmetric profile the top of its x-odd, y-even block, and the top of
the x-even sector is the top mode itself.  So the two supermodes of a
mirror-symmetric pair of guides are two k = 1 solves, one block each,
with no count: the pair calibration of ``experiments.pair_splitting_beta``
factors twice, where solving for k = 2 factors five times (three counts,
two solves).  The x-even top is a plain k = 1 solve.  The x-odd top lies
below it, so the calibration finds it by an x_odd solve at the in-band
shift k0^2 n_eff^2 of the x-even top (see below), where no x-odd
eigenvalue lies above the shift and the nearest pair is certified.

Shift placement.  Each block is solved by shift-invert Lanczos.  By
default the shift sigma sits just above k0^2 max(n)^2, an upper bound on
the spectrum (the Dirichlet Laplacian is negative definite), so the
shifted matrix A - sigma*I is negative definite and the eigenvalues
nearest sigma are the top ones.  But the supermodes of an array crowd
into a band far below that bound: the ten of a preset array lie within
about 2.5e-6 of each other in n_eff and about 1.8e-3 below sigma, so
shift-invert sees one tight cluster and ARPACK restarts many times.
Lanczos converges fastest with the shift inside the wanted cluster
(Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998), and
``experiments.run_eme`` places it at k0^2 n_eff^2 of the isolated guide.
That shifted matrix is indefinite, and its symmetric LDL^T counts p, the
block's eigenvalues above the shift, at no extra cost.  Completeness
rule: the want pairs that Lanczos returns nearest the shift are exactly
the block's top want if p of them lie above it (so p <= want): every
eigenvalue above the shift is then among them, and the rest are the
nearest ones below it.  A block whose factorization cannot count
(exactly singular, or not symmetric), or whose pairs break the rule, is
solved again at the default shift.

Every factorization is SuperLU's symmetric mode without pivoting, under
George & Liu's minimum-degree ordering of A^T + A, with panels of one
column: on the solver's matrices, 441 to 62,957 unknowns, that factors
23-37% faster than SuperLU's default panel (Demmel et al., SIAM J. Matrix
Anal. Appl. 20, 720, 1999) and gives the same inertia.  ARPACK's Lanczos
iteration runs on it with a subspace sized to the shift: 2k+1 vectors at
an in-band shift, where the wanted pairs are the nearest ones and the
first Lanczos pass converges, and max(20, 2k+1) at the far shift, where
the wanted pairs sit in a tight cluster and ARPACK restarts anyway (a
smaller subspace there restarts more often: on a pair calibration's
x-even block, k = 1 took 86 solves at 3 vectors and 55 at 4, against 41
at 20).  The start vector is the normalized all-ones vector, so repeated
solves are bit-for-bit reproducible.

Bound modes decay exponentially; rather than silently truncating them,
any retained mode whose boundary amplitude exceeds 1e-6 of its peak
raises a GeometryError (enlarge the domain).  Each mode's sign makes the
first raster sample with at least half the peak magnitude positive, which
no tie between equal peaks (as in x-odd supermodes) can flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh, splu

from ..errors import EigensolverError, GeometryError, _integer, _real
from .grid import Field, TransverseGrid
from .profile import IndexProfile

EDGE_DECAY = 1e-6


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


@lru_cache(maxsize=None)
def _parity_bases(size: int, h: float, symmetric: bool) -> tuple:
    """The blocks of one axis, the even one first, as (P, P^T D P, first
    kept index): column j of P pairs point start + j with its mirror image."""
    eye = sp.identity(size, format="csr")
    d = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(size, size), format="csr") / h ** 2
    if not symmetric:
        return ((eye, d, 0),)
    blocks = []
    for sign, start in ((1.0, size // 2), (-1.0, (size + 1) // 2)):
        # point start + j plus sign times its mirror image (a mirror line: twice
        # itself), scaled to unit norm
        pair = eye[:, start:] + sign * eye[::-1, start:]
        p = pair @ sp.diags(1.0 / np.sqrt(pair.multiply(pair).sum(axis=0).A1))
        blocks.append((p, p.T @ d @ p, start))
    return tuple(blocks)


def _operator(profile: IndexProfile, k0: float, x: tuple, y: tuple,
              shift: float = 0.0) -> sp.csc_matrix:
    """[lap + k0^2 n^2 - shift*I] on the parity block of the profile whose
    axis blocks x and y are records of _parity_bases, y-fast ordering."""
    (_, dx, x0), (_, dy, y0) = x, y
    nx, ny = dx.shape[0], dy.shape[0]
    # unknown index = ix*ny + iy keeps the small dimension contiguous
    n2 = k0 ** 2 * profile.n[y0:, x0:].T.ravel() ** 2
    # summed in this order, the diagonal has the bits of
    # sp.kronsum(dy, dx) + sp.diags(n2) - shift*I
    main = ((np.tile(dy.diagonal(), nx) + np.repeat(dx.diagonal(), ny)) + n2) - shift
    # no y coupling across the end of a column (sp.diags stores no zeros)
    y_off = [np.tile(np.append(dy.diagonal(j), 0.0), nx)[:-1] for j in (-1, 1)]
    x_off = [np.repeat(dx.diagonal(j), ny) for j in (-1, 1)]
    return sp.diags([x_off[0], y_off[0], main, y_off[1], x_off[1]], [-ny, -1, 0, 1, ny], format="csc")


def _wavenumber(wavelength: float) -> float:
    """k0 = 2 pi / wavelength; InvalidSpecError unless the wavelength is finite and > 0."""
    return 2.0 * np.pi / _real(wavelength, "wavelength", "> 0")


def helmholtz_matrix(profile: IndexProfile, wavelength: float) -> sp.csc_matrix:
    """Sparse 5-point [lap + k0^2 n^2] with Dirichlet boundary, y-fast ordering."""
    g = profile.grid
    k0 = _wavenumber(wavelength)
    (x,), (y,) = _parity_bases(g.nx, g.dx, False), _parity_bases(g.ny, g.dy, False)
    return _operator(profile, k0, x, y)


def _factor(shifted: sp.csc_matrix):
    """Symmetric-mode LU of a shifted matrix A - shift*I: minimum-degree
    ordering, no pivoting, panels of one column."""
    return splu(
        shifted,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        panel_size=1,
        options=dict(SymmetricMode=True),
    )


def _try_factor(shifted: sp.csc_matrix):
    """_factor(shifted), or None when shifted is exactly singular (its shift
    is an eigenvalue)."""
    try:
        return _factor(shifted)
    except RuntimeError:
        return None


def _count_above(lu) -> int | None:
    """Eigenvalues of A above t from the LDL^T inertia of lu, the
    factorization of A - t*I; None when lu cannot tell: exactly singular
    (None itself) or not a symmetric factorization."""
    if lu is None or not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() > 0.0))


def _lanczos(
    shifted: sp.csc_matrix, lu, sigma: float, k: int, ncv: int
) -> tuple[np.ndarray, np.ndarray]:
    """k eigenpairs of A nearest sigma (shift-invert Lanczos), unsorted, from
    shifted = A - sigma*I and its factorization lu, with a subspace of ncv
    vectors (at most n - 1)."""
    n_tot = shifted.shape[0]
    op_inv = LinearOperator(shifted.shape, matvec=lu.solve, dtype=float)
    # given sigma and OPinv (mode 'normal'), eigsh has no matvec and reads its
    # first argument only for the shape and dtype, so A itself is not needed
    return eigsh(
        shifted,
        k=k,
        sigma=sigma,
        which="LM",
        OPinv=op_inv,
        v0=np.ones(n_tot) / np.sqrt(n_tot),
        tol=1e-9,
        ncv=min(n_tot - 1, ncv),
    )


def _top_eigenpairs(
    profile: IndexProfile, k0: float, x: tuple, y: tuple, sigma: float, k: int,
    in_band: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The top k eigenpairs of one parity block, unsorted: the k nearest the
    in-band shift `in_band` where the completeness rule certifies them as the
    top k (see the module docstring), else the k nearest the far shift sigma."""
    if in_band is not None:
        shifted = _operator(profile, k0, x, y, in_band)
        lu = _try_factor(shifted)
        if lu is not None:
            w, v = _lanczos(shifted, lu, in_band, k, 2 * k + 1)
            # counted after the solve: reading lu.U keeps a copy of the factors
            # alive as long as lu
            if np.count_nonzero(w > in_band) == _count_above(lu):
                return w, v
            del lu  # so neither is alive while the far shift is factored
    shifted = _operator(profile, k0, x, y, sigma)
    return _lanczos(shifted, _factor(shifted), sigma, k, max(20, 2 * k + 1))


def _block_eigenpairs(
    profile: IndexProfile, k0: float, sigma: float, k: int,
    in_band: float | None = None, x_odd: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs from the parity blocks as (values, (m, ny, nx) full-grid
    vectors); they include the top k of the profile, or with x_odd of its
    x-odd sector (see the module docstring)."""
    g, n = profile.grid, profile.n
    xs = _parity_bases(g.nx, g.dx, np.array_equal(n, n[:, ::-1]))
    ys = _parity_bases(g.ny, g.dy, np.array_equal(n, n[::-1]))
    blocks = [(ix, iy) for iy in range(len(ys)) for ix in range(int(x_odd), len(xs))]
    if k == 1:
        blocks = blocks[:1]  # even in y, and in x unless x_odd: holds the top mode
    t = k0 ** 2 * profile.n0 ** 2
    counts = {}
    vals, fields = [np.empty(0)], [np.empty((0, g.ny, g.nx))]
    for ix, iy in blocks:
        if counts.get((0, iy)) == 0 or counts.get((ix, 0)) == 0:
            counts[ix, iy] = 0  # tops out below a block that binds nothing
            continue
        x, y = xs[ix], ys[iy]
        (px, _, x0), (py, _, y0) = x, y
        count = 1 if k == 1 else _count_above(_try_factor(_operator(profile, k0, x, y, t)))
        counts[ix, iy] = k if count is None else count
        want = min(counts[ix, iy], k, (g.nx - x0) * (g.ny - y0) - 2)
        if want < 1:
            continue
        w, v = _top_eigenpairs(profile, k0, x, y, sigma, want, in_band)
        # unfold the block's vectors (rows x-major, y-minor) with one sparse
        # product per axis; every row of P holds one entry, so each value is
        # (py * b) * px, rounded in the order of py @ b @ px.T per vector
        nxb, nyb = g.nx - x0, g.ny - y0
        u = py @ v.reshape(nxb, nyb, want).transpose(1, 0, 2).reshape(nyb, -1)
        u = px @ u.reshape(g.ny, nxb, want).transpose(1, 0, 2).reshape(nxb, -1)
        vals.append(w)
        fields.append(u.reshape(g.nx, g.ny, want).transpose(2, 1, 0))
    return np.concatenate(vals), np.concatenate(fields)


def solve_modes(
    profile: IndexProfile, wavelength: float, n_modes: int, check_edges: bool = True
) -> ModeSet:
    """n_modes largest-k^2 eigenpairs of the profile, bound subset only.

    ``check_edges=False`` skips the boundary-decay guard; meant for
    fitting loops that probe deliberately weak candidate profiles whose
    tails are clipped by the domain.
    """
    return _solve_modes(profile, wavelength, n_modes, check_edges)


def _solve_modes(
    profile: IndexProfile, wavelength: float, n_modes: int, check_edges: bool = True,
    band: float | None = None, x_odd: bool = False,
) -> ModeSet:
    """solve_modes, with the Lanczos shift at k0^2 band^2 for an effective
    index `band` inside the wanted band, and with x_odd restricted to the
    x-odd sector of an x-symmetric profile (see the module docstring);
    solve_modes is the far-shift case on the whole profile."""
    n_modes = _integer(n_modes, "n_modes", 1)
    k0 = _wavenumber(wavelength)
    g = profile.grid
    sigma = k0 ** 2 * float(profile.n.max()) ** 2 * (1.0 + 1e-9) + 1e-9
    shift = None if band is None else k0 ** 2 * band ** 2

    try:
        vals, fields = _block_eigenpairs(profile, k0, sigma, n_modes, shift, x_odd)
    except (ArpackError, ArpackNoConvergence, RuntimeError) as exc:
        raise EigensolverError(f"mode solve failed on {g.nx}x{g.ny} grid: {exc}") from exc

    n_eff = np.sqrt(np.maximum(vals, 0.0)) / k0
    top = np.argsort(vals)[::-1][:n_modes]
    order = [j for j in top if n_eff[j] > profile.n0]  # bound, descending
    n_eff = n_eff[order]

    m = fields[order].reshape(len(order), g.ny * g.nx)
    m = m / np.sqrt(np.sum(m ** 2, axis=1) * g.cell_area)[:, None]
    peak = np.max(np.abs(m), axis=1)
    first = np.argmax(np.abs(m) >= 0.5 * peak[:, None], axis=1)
    m = m * np.where(m[np.arange(len(order)), first] < 0, -1.0, 1.0)[:, None]  # tie-free sign
    m = m.reshape(-1, g.ny, g.nx)
    edges = np.concatenate([m[:, 0, :], m[:, -1, :], m[:, :, 0], m[:, :, -1]], axis=1)
    edge = np.max(np.abs(edges), axis=1)
    bad = np.flatnonzero(edge > EDGE_DECAY * peak)
    if check_edges and bad.size:
        i = bad[0]
        raise GeometryError(
            f"mode {i} reaches {edge[i] / peak[i]:.2e} of its peak at the domain "
            f"boundary (> {EDGE_DECAY:g}); enlarge the transverse domain"
        )
    return ModeSet(g, tuple(Field(g, v) for v in m), n_eff, wavelength, n_modes)

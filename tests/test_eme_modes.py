"""Scalar-Helmholtz mode solving: binding, symmetry, orthonormality, convergence."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh, splu

import defectlattice.eme.modes as modes_module
from defectlattice import EigensolverError, GeometryError, InvalidSpecError
from defectlattice.eme import (
    RickerParams,
    TransverseGrid,
    WaveguideGeometry,
    array_profile,
    helmholtz_matrix,
    ricker_profile,
    solve_modes,
)

LAM = 0.633
N0 = 1.457

# desk parameters: strongly enough confined for compact domains
DESK = RickerParams(3e-3, 4.0, 4.0, N0)
DESK_GRID = TransverseGrid.centered(72.0, 72.0, 0.25, 0.25)

# array parameters: weak confinement used for the preset geometries
WEAK = RickerParams(1.9e-3, 4.0, 4.0, N0)
WEAK_GRID = TransverseGrid.centered(130.0, 130.0, 0.25, 0.25)


@pytest.fixture(scope="module")
def desk_modes():
    return solve_modes(ricker_profile(DESK, DESK_GRID), LAM, 3)


@pytest.fixture(scope="module")
def pair_modes():
    grid = TransverseGrid.centered(27.1 + 156.0, 156.0, 0.5, 0.5)
    geom = WaveguideGeometry((-13.55, 13.55))
    return solve_modes(array_profile(WEAK, geom, grid), LAM, 2)


def test_single_guide_binds_exactly_one_mode(desk_modes):
    # requesting three modes returns only the fundamental: the first
    # excited state of the desk guide is unbound
    assert desk_modes.n_modes == 1
    assert not desk_modes.complete
    assert N0 < desk_modes.n_eff[0] < N0 + DESK.delta_n


def test_mode_is_positive_and_normalized(desk_modes):
    m = desk_modes.modes[0]
    assert m.norm() == pytest.approx(1.0, rel=1e-10)
    assert m.values.max() > 0
    assert m.values.min() > -1e-8 * m.values.max()  # nodeless fundamental


def test_determinism(desk_modes):
    again = solve_modes(ricker_profile(DESK, DESK_GRID), LAM, 3)
    assert np.array_equal(again.n_eff, desk_modes.n_eff)
    assert np.array_equal(again.modes[0].values, desk_modes.modes[0].values)


def test_two_guide_pair_structure(pair_modes):
    assert pair_modes.n_modes == 2
    n_plus, n_minus = pair_modes.n_eff
    assert n_plus > n_minus > N0
    # symmetric/antisymmetric supermodes about the midplane
    sym, asym = pair_modes.modes[0].values, pair_modes.modes[1].values
    assert np.max(np.abs(sym - sym[:, ::-1])) < 1e-6 * np.max(np.abs(sym))
    assert np.max(np.abs(asym + asym[:, ::-1])) < 1e-6 * np.max(np.abs(asym))


def test_gram_matrix_identity(pair_modes):
    gram = pair_modes.gram_matrix()
    assert np.max(np.abs(gram - np.eye(2))) < 1e-8


def test_edge_guard_raises_on_small_domain():
    tight = TransverseGrid.centered(30.0, 30.0, 0.5, 0.5)
    with pytest.raises(GeometryError):
        solve_modes(ricker_profile(DESK, tight), LAM, 1)


def test_unbound_request_returns_subset():
    # very shallow well on a wide domain: no bound mode above n0 at all
    shallow = RickerParams(2e-4, 4.0, 4.0, N0)
    grid = TransverseGrid.centered(100.0, 100.0, 0.5, 0.5)
    ms = solve_modes(ricker_profile(shallow, grid), LAM, 2)
    assert ms.n_modes < 2
    assert not ms.complete


def test_grid_refinement_converges():
    # halving the default step moves the weak guide's n_eff by < 1e-6
    ne_default = solve_modes(ricker_profile(WEAK, WEAK_GRID), LAM, 1).n_eff[0]
    fine = TransverseGrid.centered(130.0, 130.0, 0.125, 0.125)
    ne_half = solve_modes(ricker_profile(WEAK, fine), LAM, 1).n_eff[0]
    assert abs(ne_default - ne_half) < 1e-6


def _reference(profile, k):
    """Bound n_eff and unit-norm modes from a plain full-grid eigsh, descending."""
    g = profile.grid
    k0 = 2.0 * np.pi / LAM
    sigma = k0 ** 2 * profile.n.max() ** 2 * (1.0 + 1e-9) + 1e-9
    vals, vecs = eigsh(helmholtz_matrix(profile, LAM), k=k, sigma=sigma, which="LM", tol=1e-13)
    order = np.argsort(vals)[::-1]
    n_eff = np.sqrt(vals[order]) / k0
    modes = [vecs[:, j].reshape(g.nx, g.ny).T for j in order]
    modes = [m / np.sqrt(np.sum(m ** 2) * g.cell_area) for m in modes]
    bound = n_eff > profile.n0
    return n_eff[bound], [m for m, b in zip(modes, bound) if b]


def _assert_matches_reference(ms, profile, k):
    n_eff, ref = _reference(profile, k)
    assert ms.n_modes == len(ref)
    assert np.max(np.abs(ms.n_eff - n_eff)) < 1e-10
    for mode, r in zip(ms.modes, ref):
        r = r * np.sign(np.sum(mode.values * r))  # eigsh's sign is arbitrary
        assert np.max(np.abs(mode.values - r)) < 1e-10


@pytest.mark.parametrize("size", [9, 10], ids=["odd", "even"])
def test_parity_bases_are_orthonormal_projections(size):
    (eye, d, start), = modes_module._parity_bases(size, 0.5, False)
    assert start == 0
    assert np.array_equal(eye.toarray(), np.eye(size))
    (p_even, d_even, even_start), (p_odd, d_odd, odd_start) = modes_module._parity_bases(
        size, 0.5, True
    )
    basis = np.hstack([p_even.toarray(), p_odd.toarray()])
    assert basis.shape == (size, size)
    assert np.max(np.abs(basis.T @ basis - np.eye(size))) < 1e-15
    for p, block, first, sign in ((p_even, d_even, even_start, 1), (p_odd, d_odd, odd_start, -1)):
        p, block = p.toarray(), block.toarray()
        assert first + p.shape[1] == size  # one column per kept point
        assert np.array_equal(p[::-1], sign * p)  # mirror-even or mirror-odd columns
        assert np.array_equal(block, block.T)
        assert np.allclose(block, p.T @ d.toarray() @ p, rtol=0, atol=1e-14)


@pytest.fixture
def solved_sizes(monkeypatch):
    """Unknown counts of the operators handed to eigsh during a test."""
    sizes = []

    def spy(A, *args, **kw):
        sizes.append(A.shape[0])
        return eigsh(A, *args, **kw)

    monkeypatch.setattr(modes_module, "eigsh", spy)
    return sizes


@pytest.fixture
def factored_sizes(monkeypatch):
    """Unknown counts of the matrices handed to splu during a test."""
    sizes = []

    def spy(A, *args, **kw):
        sizes.append(A.shape[0])
        return splu(A, *args, **kw)

    monkeypatch.setattr(modes_module, "splu", spy)
    return sizes


def _block_size(grid, x_parity, y_parity):
    """Unknowns of a quarter-domain parity block: even halves keep a mirror line."""
    def half(size, parity):
        return (size + 1) // 2 if parity > 0 else size // 2

    return half(grid.nx, x_parity) * half(grid.ny, y_parity)


@pytest.mark.parametrize("height", [72.0, 72.5], ids=["odd-ny", "even-ny"])
def test_mirror_half_matches_full_grid(height, solved_sizes, factored_sizes):
    # a desk-guide pair: both supermodes are even in y, so only the x-even
    # and x-odd quarters are solved; the x-even, y-odd quarter counts no
    # bound mode, so the x-odd, y-odd one is not even factored
    grid = TransverseGrid.centered(84.0, height, 0.5, 0.5)
    profile = array_profile(DESK, WaveguideGeometry((-6.0, 6.0)), grid)
    assert grid.ny % 2 == (1 if height == 72.0 else 0)
    ms = solve_modes(profile, LAM, 2)
    ee, oe, eo = _block_size(grid, 1, 1), _block_size(grid, -1, 1), _block_size(grid, 1, -1)
    assert solved_sizes == [ee, oe]
    assert factored_sizes == [ee, ee, oe, oe, eo]  # count, then solve
    _assert_matches_reference(ms, profile, 2)
    for mode in ms.modes:
        v = mode.values
        assert np.max(np.abs(v - v[::-1])) < 1e-10  # unfolded even in y
        flat = v.ravel()  # sign: first sample at >= half the peak is positive
        assert flat[np.argmax(np.abs(flat) >= 0.5 * np.abs(flat).max())] > 0
    sym, asym = ms.modes[0].values, ms.modes[1].values
    assert np.array_equal(sym, sym[:, ::-1])
    assert np.array_equal(asym, -asym[:, ::-1])


def test_bound_y_odd_mode_solved_in_its_block(solved_sizes):
    # a guide elongated in y binds a y-odd second mode; the inertia count
    # finds it in the x-even, y-odd block, which is solved next to the
    # all-even one
    grid = TransverseGrid.centered(72.0, 120.0, 0.5, 0.5)
    profile = ricker_profile(RickerParams(3e-3, 4.0, 14.0, N0), grid)
    ms = solve_modes(profile, LAM, 3)
    assert solved_sizes == [_block_size(grid, 1, 1), _block_size(grid, 1, -1)]
    _assert_matches_reference(ms, profile, 3)
    assert ms.n_modes == 2
    assert ms.n_eff[1] - N0 == pytest.approx(5.50e-4, abs=5e-6)
    odd = ms.modes[1].values
    assert np.max(np.abs(odd + odd[::-1])) < 1e-10


SINGLE = WaveguideGeometry((0.0,))
TRIO = WaveguideGeometry((-7.0, 0.0, 7.0))  # the middle guide sits on the x mirror


@pytest.mark.parametrize(
    "width, height, params, geom, k, n_bound, blocks",
    [
        # x-elongated guide: a bound x-odd second mode, k above the bound count
        (120.0, 72.0, RickerParams(3e-3, 14.0, 4.0, N0), SINGLE, 3, 2, [(1, 1), (-1, 1)]),
        # odd nx: k below the bound count, so the blocks' pairs are merged and cut
        (86.0, 72.0, DESK, TRIO, 2, 2, [(1, 1), (-1, 1)]),
        (86.0, 72.0, DESK, TRIO, 4, 3, [(1, 1), (-1, 1)]),
        # even nx and even ny: mirrors between grid lines
        (86.5, 72.5, DESK, TRIO, 4, 3, [(1, 1), (-1, 1)]),
        # k = 1 solves the all-even block alone
        (72.0, 72.0, DESK, SINGLE, 1, 1, [(1, 1)]),
    ],
    ids=["x-odd-bound", "trio-k-below", "trio-k-above", "trio-even-nx-ny", "single-k1"],
)
def test_parity_blocks_match_full_grid(
    width, height, params, geom, k, n_bound, blocks, solved_sizes
):
    grid = TransverseGrid.centered(width, height, 0.5, 0.5)
    profile = array_profile(params, geom, grid)
    ms = solve_modes(profile, LAM, k)
    assert solved_sizes == [_block_size(grid, px, py) for px, py in blocks]
    assert ms.n_modes == n_bound
    _assert_matches_reference(ms, profile, k)


def test_off_centre_guide_solves_on_full_grid(solved_sizes):
    grid = TransverseGrid.centered(72.0, 72.0, 0.5, 0.5)
    profile = ricker_profile(DESK, grid, center=(3.0, 5.25))
    ms = solve_modes(profile, LAM, 1)
    assert solved_sizes == [grid.nx * grid.ny]
    _assert_matches_reference(ms, profile, 1)


def test_block_unfold_matches_per_vector_products(monkeypatch):
    # x-elongated guide: the x-even and x-odd blocks (both y-even) are solved,
    # and their vectors, unfolded one at a time as py @ b @ px.T, are the fields
    grid = TransverseGrid.centered(120.0, 72.0, 0.5, 0.5)
    profile = ricker_profile(RickerParams(3e-3, 14.0, 4.0, N0), grid)
    vectors = []

    def spy(*args, **kw):
        w, v = eigsh(*args, **kw)
        vectors.append(v)
        return w, v

    monkeypatch.setattr(modes_module, "eigsh", spy)
    k0 = 2.0 * np.pi / LAM
    sigma = k0 ** 2 * profile.n.max() ** 2 * 1.001
    _, fields = modes_module._block_eigenpairs(profile, k0, sigma, 3)
    xs = modes_module._parity_bases(grid.nx, grid.dx, True)
    py, _, y0 = modes_module._parity_bases(grid.ny, grid.dy, True)[0]
    ref = [
        py @ b @ px.T
        for v, (px, _, x0) in zip(vectors, xs, strict=True)
        for b in v.T.reshape(v.shape[1], grid.nx - x0, grid.ny - y0).transpose(0, 2, 1)
    ]
    assert np.array_equal(fields, np.stack(ref))


@pytest.mark.parametrize("wavelength", [0.0, -1.0, np.inf, np.nan])
def test_invalid_wavelength_raises(wavelength):
    profile = ricker_profile(DESK, TransverseGrid.centered(20.0, 20.0, 1.0, 1.0))
    message = f"wavelength must be finite and > 0, got {wavelength}"
    with pytest.raises(InvalidSpecError, match=message):
        helmholtz_matrix(profile, wavelength)
    with pytest.raises(InvalidSpecError, match=message):
        solve_modes(profile, wavelength, 1)


def _same_bits(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("data", "indices", "indptr"))


def _assert_same_modes(a, b):
    assert np.array_equal(a.n_eff, b.n_eff)
    assert len(a.modes) == len(b.modes)
    for ma, mb in zip(a.modes, b.modes):
        assert np.array_equal(ma.values, mb.values)


def test_repeated_solves_on_one_grid_are_independent():
    # one grid, three solves: profile a, then b (another dn), then a again
    grid = TransverseGrid.centered(72.0, 72.0, 0.5, 0.5)
    a = ricker_profile(DESK, grid)
    b = ricker_profile(RickerParams(3.5e-3, 4.0, 4.0, N0), grid)
    first = solve_modes(a, LAM, 1)
    b_after_a = solve_modes(b, LAM, 1)
    _assert_same_modes(solve_modes(a, LAM, 1), first)
    modes_module._parity_bases.cache_clear()
    _assert_same_modes(b_after_a, solve_modes(b, LAM, 1))


@pytest.fixture
def factored(monkeypatch):
    """Copies of the matrices handed to splu during a test."""
    matrices = []

    def spy(A, *args, **kw):
        matrices.append(A.copy())
        return splu(A, *args, **kw)

    monkeypatch.setattr(modes_module, "splu", spy)
    return matrices


@pytest.mark.parametrize(
    "center, symmetric, n_blocks",
    [((0.0, 0.0), (True, True), 4), ((3.0, 0.0), (False, True), 2), ((3.0, 5.25), (False, False), 1)],
    ids=["quarter", "half", "full"],
)
def test_operator_bits_match_direct_construction(center, symmetric, n_blocks, factored):
    # the block operators and the shifted matrices factored for them carry
    # the bits of a direct Kronecker-sum construction, so the LU ordering,
    # the inertia counts and ARPACK see exactly the same input
    grid = TransverseGrid.centered(72.0, 61.0, 1.0, 1.0)  # odd nx, even ny
    profile = ricker_profile(DESK, grid, center=center)
    k0 = 2.0 * np.pi / LAM
    axes = ((grid.nx, grid.dx, symmetric[0]), (grid.ny, grid.dy, symmetric[1]))
    assert symmetric == (
        np.array_equal(profile.n, profile.n[:, ::-1]),
        np.array_equal(profile.n, profile.n[::-1]),
    )

    plain_x, = modes_module._parity_bases(grid.nx, grid.dx, False)
    plain_y, = modes_module._parity_bases(grid.ny, grid.dy, False)

    def direct(x_block, y_block):
        (px, _, x0), (py, _, y0), dx, dy = x_block, y_block, plain_x[1], plain_y[1]
        n2 = k0 ** 2 * profile.n[y0:, x0:].T.ravel() ** 2
        return sp.kronsum(py.T @ dy @ py, px.T @ dx @ px, format="csc") + sp.diags(n2, format="csc")

    xs, ys = (modes_module._parity_bases(*axis) for axis in axes)
    oracles = []
    for iy, y_block in enumerate(ys):
        for ix, x_block in enumerate(xs):
            oracle = direct(x_block, y_block)
            assert _same_bits(modes_module._operator(profile, k0, x_block, y_block), oracle)
            oracles.append(oracle)
    assert len(oracles) == n_blocks
    assert _same_bits(helmholtz_matrix(profile, LAM), direct(plain_x, plain_y))

    ms = solve_modes(profile, LAM, 2, check_edges=False)
    sigma = k0 ** 2 * float(profile.n.max()) ** 2 * (1.0 + 1e-9) + 1e-9
    shifted = [
        o - shift * sp.identity(o.shape[0], format="csc")
        for o in oracles
        for shift in (k0 ** 2 * N0 ** 2, sigma)
    ]
    assert ms.n_modes >= 1
    # each factored matrix is one block's oracle minus a shift: the bound-mode
    # count at k0^2 n0^2 or the solve at sigma, the all-even block first
    matched = [[i for i, s in enumerate(shifted) if _same_bits(A, s)] for A in factored]
    assert matched[:2] == [[0], [1]]
    assert all(matched)


# ---------------------------------------------------------------- fallbacks

TRIO_GRID = TransverseGrid.centered(86.0, 72.0, 0.5, 0.5)


@pytest.fixture(scope="module")
def trio():
    """A three-guide desk array (symmetric in x and y) and its far-shift solve."""
    profile = array_profile(DESK, TRIO, TRIO_GRID)
    return profile, solve_modes(profile, LAM, 4)


@pytest.fixture
def shifts(monkeypatch):
    """The shifts of the Lanczos runs during a test."""
    sigmas = []

    def spy(*args, **kw):
        sigmas.append(kw["sigma"])
        return eigsh(*args, **kw)

    monkeypatch.setattr(modes_module, "eigsh", spy)
    return sigmas


def _far_shift(profile):
    return (2.0 * np.pi / LAM) ** 2 * float(profile.n.max()) ** 2 * (1.0 + 1e-9) + 1e-9


def test_count_above_reads_the_inertia_or_cannot_tell():
    # a symmetric LDL^T counts its positive pivots; an exactly singular matrix
    # has no factorization, and a zero diagonal forces a row pivot
    def count(matrix):
        return modes_module._count_above(modes_module._try_factor(sp.csc_matrix(matrix)))

    assert count(np.diag([2.0, -1.0, 3.0])) == 2
    assert modes_module._try_factor(sp.csc_matrix(np.diag([1.0, 0.0, 1.0]))) is None
    assert count(np.diag([1.0, 0.0, 1.0])) is None
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert modes_module._try_factor(sp.csc_matrix(swap)) is not None
    assert count(swap) is None


class _RowPivoted:
    """A real factorization that reports a row permutation of its own."""

    def __init__(self, lu):
        self.solve, self.U, self.perm_c, self.perm_r = lu.solve, lu.U, lu.perm_c, lu.perm_r[::-1]


def _fail_factorizations(monkeypatch, failure, fails):
    """Make each factorization whose call number (from 1) passes `fails`
    exactly singular or row-pivoted."""
    real_factor, calls = modes_module._factor, []

    def factor(shifted):
        calls.append(shifted.shape[0])
        if not fails(len(calls)):
            return real_factor(shifted)
        if failure == "singular":
            raise RuntimeError("Factor is exactly singular")
        return _RowPivoted(real_factor(shifted))

    monkeypatch.setattr(modes_module, "_factor", factor)


@pytest.mark.parametrize("failure", ["singular", "row-pivoted"])
def test_unknown_counts_ask_each_block_for_k(failure, trio, monkeypatch, solved_sizes):
    # with no count, every block is asked for k pairs (the y-odd ones too),
    # and the bound subset of the merged pairs is still the top k
    profile, _ = trio
    # without an in-band shift each block factors for its count, then for its solve
    _fail_factorizations(monkeypatch, failure, lambda call: call % 2 == 1)
    ms = solve_modes(profile, LAM, 4)
    assert solved_sizes == [_block_size(TRIO_GRID, px, py)
                            for px, py in [(1, 1), (-1, 1), (1, -1), (-1, -1)]]
    assert ms.n_modes == 3
    _assert_matches_reference(ms, profile, 4)


@pytest.mark.parametrize(
    "error",
    [RuntimeError("Factor is exactly singular"), ArpackError(-9999),
     ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))],
    ids=["singular", "arpack-error", "no-convergence"],
)
def test_solver_failures_raise_eigensolver_error(error, monkeypatch):
    def fails(*args, **kw):
        raise error

    monkeypatch.setattr(modes_module, "splu" if isinstance(error, RuntimeError) else "eigsh", fails)
    profile = ricker_profile(DESK, TransverseGrid.centered(72.0, 72.0, 0.5, 0.5))
    with pytest.raises(EigensolverError, match=r"^mode solve failed on 145x145 grid: ") as exc:
        solve_modes(profile, LAM, 1)
    assert exc.value.__cause__ is error


def test_in_band_shift_is_used_where_certified(trio, shifts):
    # the isolated guide's n_eff lies above every bound mode of the trio, so
    # no eigenvalue is above the shift and the pairs nearest it are the top ones
    profile, far = trio
    band = solve_modes(ricker_profile(DESK, TransverseGrid.centered(72.0, 72.0, 0.5, 0.5)),
                       LAM, 1).n_eff[0]
    shifts.clear()
    ms = modes_module._solve_modes(profile, LAM, 4, band=band)
    assert shifts == [(2.0 * np.pi / LAM) ** 2 * band ** 2] * 2
    assert np.array_equal(ms.n_eff, far.n_eff)
    for mode, ref in zip(ms.modes, far.modes):
        assert np.max(np.abs(mode.values - ref.values)) < 1e-10 * np.max(ref.values)


@pytest.mark.parametrize(
    "k, band_above_n0, failure, runs",
    [
        # one eigenvalue above the shift, and the pair nearest it is the top one
        (1, 5e-4, None, "in-band"),
        # at the same shift, the factorization cannot count
        (1, 5e-4, "singular", "far"),
        (1, 5e-4, "row-pivoted", "in-band far"),
        # two eigenvalues above a shift just above n0, one pair asked for
        (1, 1e-7, None, "in-band far"),
        # the pairs nearest that shift are unbound ones below it (both x blocks)
        (4, 1e-7, None, "in-band far in-band far"),
    ],
    ids=["certified", "singular", "row-pivoted", "above-exceeds-request", "nearest-below"],
)
def test_in_band_solve_is_certified_or_falls_back_to_far_shift(
    k, band_above_n0, failure, runs, trio, monkeypatch, shifts
):
    # an uncertified block is solved again at the far shift, so the result is
    # bit for bit the far-shift solve's
    profile, _ = trio
    far = solve_modes(profile, LAM, k)
    shifts.clear()
    if failure is not None:  # k = 1: the in-band factorization comes first
        _fail_factorizations(monkeypatch, failure, lambda call: call == 1)
    band = N0 + band_above_n0
    ms = modes_module._solve_modes(profile, LAM, k, band=band)
    in_band = (2.0 * np.pi / LAM) ** 2 * band ** 2
    assert shifts == [in_band if r == "in-band" else _far_shift(profile) for r in runs.split()]
    if runs == "in-band":
        assert np.array_equal(ms.n_eff, far.n_eff)
        assert np.max(np.abs(ms.modes[0].values - far.modes[0].values)) < 1e-10
    else:
        _assert_same_modes(ms, far)


@pytest.fixture
def runs(monkeypatch):
    """(shift, pairs asked for, subspace size) of each Lanczos run during a test."""
    calls = []

    def spy(*args, **kw):
        calls.append((kw["sigma"], kw["k"], kw["ncv"]))
        return eigsh(*args, **kw)

    monkeypatch.setattr(modes_module, "eigsh", spy)
    return calls


@pytest.mark.parametrize(
    "k, band_above_n0, failure, want",
    [
        (4, None, None, "far:2:20 far:1:20"),
        # in band, certified in both blocks
        (4, "isolated", None, "in-band:2:5 in-band:1:3"),
        # in band, then at the far shift, in both blocks
        (4, 1e-7, None, "in-band:2:5 far:2:20 in-band:1:3 far:1:20"),
        # no counts: each of the four blocks is asked for 10 pairs
        (10, None, "singular", "far:10:21 far:10:21 far:10:21 far:10:21"),
    ],
    ids=["far", "in-band", "in-band-then-far", "far-k10"],
)
def test_lanczos_subspace_is_sized_to_the_shift(
    k, band_above_n0, failure, want, trio, monkeypatch, runs
):
    # at an in-band shift the first Lanczos pass converges, so 2k+1 vectors
    # do; at the far shift ARPACK restarts, and keeps max(20, 2k+1)
    profile, _ = trio
    if failure is not None:  # the count factorizations come first in each block
        _fail_factorizations(monkeypatch, failure, lambda call: call % 2 == 1)
    if band_above_n0 == "isolated":
        band = solve_modes(ricker_profile(DESK, TransverseGrid.centered(72.0, 72.0, 0.5, 0.5)),
                           LAM, 1).n_eff[0]
    else:
        band = None if band_above_n0 is None else N0 + band_above_n0
    runs.clear()
    modes_module._solve_modes(profile, LAM, k, band=band)
    far = _far_shift(profile)
    got = " ".join(f"{'far' if sigma == far else 'in-band'}:{n}:{ncv}" for sigma, n, ncv in runs)
    assert got == want

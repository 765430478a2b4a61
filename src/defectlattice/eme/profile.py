"""Refractive-index landscapes: single Ricker-wavelet guides and arrays of them.

A femtosecond-written guide is modeled as the 2D Ricker ("Mexican hat")
profile

    n(x, y) = dn * (1 - 2 x'^2/sx^2 - 2 y'^2/sy^2) * exp(-2 x'^2/sx^2 - 2 y'^2/sy^2) + n0

whose x-direction minima sit exactly at x' = +-sx (same for y), so the
width parameters are the minima-to-peak distances.  Arrays superpose the
index *increments* of identical guides at the given centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError, InvalidSpecError, _integer, _real
from .grid import TransverseGrid


@dataclass(frozen=True)
class RickerParams:
    """Peak contrast dn over substrate n0, widths (um) along x and y."""

    delta_n: float
    sigma_x: float
    sigma_y: float
    n0: float

    def __post_init__(self):
        for name in ("delta_n", "sigma_x", "sigma_y", "n0"):
            object.__setattr__(self, name, _real(getattr(self, name), name, "> 0"))


@dataclass(frozen=True)
class IndexProfile:
    """Index map on a grid; dips are bounded by the Ricker ring minimum."""

    grid: TransverseGrid
    n: np.ndarray
    n0: float

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        object.__setattr__(self, "n", n)
        if n.shape != (self.grid.ny, self.grid.nx):
            raise InvalidSpecError("index map shape does not match grid")
        if not np.all(np.isfinite(n)):
            raise InvalidSpecError("index map contains non-finite values")
        object.__setattr__(self, "n0", _real(self.n0, "n0", "> 0"))


@dataclass(frozen=True)
class WaveguideGeometry:
    """Guide x-centers (um): first gap d0, all later gaps d."""

    centers: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(v) for v in self.centers)
        object.__setattr__(self, "centers", c)
        if len(c) < 1:
            raise InvalidSpecError("geometry needs at least one guide")
        if not np.all(np.isfinite(c)):
            raise InvalidSpecError(f"guide centers must be finite, got {c}")
        if any(b <= a for a, b in zip(c, c[1:])):
            raise InvalidSpecError("guide centers must be strictly increasing")

    @staticmethod
    def from_spacings(n_guides: int, d0: float, d: float) -> "WaveguideGeometry":
        """n_guides centers with first gap d0 and bulk gap d, centered at x = 0.

        Offsets from the middle are exact half-integer multiples of d, and
        the first gap's excess d0 - d is split evenly between the first
        guide and the rest, so with d0 == d the centers are exact negatives
        of each other.
        """
        n_guides = _integer(n_guides, "n_guides", 1)
        d0, d = _real(d0, "d0", "> 0"), _real(d, "d", "> 0")
        half_excess = (d0 - d) / 2.0 if n_guides > 1 else 0.0
        return WaveguideGeometry(tuple(
            (i - (n_guides - 1) / 2.0) * d + (half_excess if i else -half_excess)
            for i in range(n_guides)
        ))


def _ricker_increment(p: RickerParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    arg = 2.0 * x ** 2 / p.sigma_x ** 2 + 2.0 * y ** 2 / p.sigma_y ** 2
    return p.delta_n * (1.0 - arg) * np.exp(-arg)


def ricker_profile(
    p: RickerParams, grid: TransverseGrid, center: tuple[float, float] = (0.0, 0.0)
) -> IndexProfile:
    """Single-guide profile centered at (x, y) = center."""
    X, Y = grid.mesh()
    return IndexProfile(grid, _ricker_increment(p, X - center[0], Y - center[1]) + p.n0, p.n0)


def array_profile(p: RickerParams, geom: WaveguideGeometry, grid: TransverseGrid) -> IndexProfile:
    """Superpose identical guides at geom.centers (y = 0), plus n0 once.

    Every center must clear the grid edges by >= 3 sigma_x so no guide
    core is clipped.
    """
    margin = 3.0 * p.sigma_x
    x_lo, x_hi = grid.x[0], grid.x[-1]
    for c in geom.centers:
        if c - margin < x_lo or c + margin > x_hi:
            raise GeometryError(
                f"guide at x={c} um closer than 3*sigma_x={margin} um to the grid edge"
            )
    X, Y = grid.mesh()
    n = np.full_like(X, p.n0)
    # add guides in pairs from the outside in, so that a mirror-symmetric
    # geometry on a symmetric grid gives an index map equal to its flip
    c = geom.centers
    for i in range((len(c) + 1) // 2):
        pair = _ricker_increment(p, X - c[i], Y)
        if i != len(c) - 1 - i:
            pair = pair + _ricker_increment(p, X - c[-1 - i], Y)
        n += pair
    return IndexProfile(grid, n, p.n0)

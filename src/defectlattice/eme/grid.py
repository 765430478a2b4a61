"""Transverse grids, sampled fields, and their plain-text file format.

Files carry one header line

    # nx=<int> ny=<int> dx=<float> dy=<float> x0=<float> y0=<float>

followed by ny rows of nx whitespace-separated values (row-major, y
increasing).  Values are written with 17 significant digits, which
round-trips IEEE doubles bit-exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidSpecError, _integer, _real
from ..textio import atomic_write


def _axis(first: float, step: float, n: int) -> np.ndarray:
    """first + step*j as centre + step*(j - (n-1)/2): mirror-exact about a 0 centre."""
    half = (n - 1) / 2.0
    return (first + step * half) + step * (np.arange(n) - half)


@dataclass(frozen=True)
class TransverseGrid:
    """Uniform x-y grid (micrometers); x0, y0 locate the first sample."""

    nx: int
    ny: int
    dx: float
    dy: float
    x0: float
    y0: float

    def __post_init__(self):
        for name in ("nx", "ny"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 8))
        for name, bound in (("dx", "> 0"), ("dy", "> 0"), ("x0", ""), ("y0", "")):
            object.__setattr__(self, name, _real(getattr(self, name), name, bound))

    @property
    def x(self) -> np.ndarray:
        return _axis(self.x0, self.dx, self.nx)

    @property
    def y(self) -> np.ndarray:
        return _axis(self.y0, self.dy, self.ny)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x, self.y)

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @staticmethod
    def centered(width: float, height: float, dx: float, dy: float) -> "TransverseGrid":
        """Grid spanning [-width/2, width/2] x [-height/2, height/2]."""
        nx = int(round(_real(width, "width", "> 0") / _real(dx, "dx", "> 0"))) + 1
        ny = int(round(_real(height, "height", "> 0") / _real(dy, "dy", "> 0"))) + 1
        return TransverseGrid(nx, ny, dx, dy, -dx * (nx - 1) / 2.0, -dy * (ny - 1) / 2.0)


@dataclass(frozen=True)
class Field:
    """Scalar field sampled on a TransverseGrid; real modes, complex beams."""

    grid: TransverseGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.ny, self.grid.nx):
            raise InvalidSpecError(
                f"field shape {v.shape} does not match grid ({self.grid.ny}, {self.grid.nx})"
            )

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_area))

    def normalized(self) -> "Field":
        n = self.norm()
        if n == 0.0:
            raise InvalidSpecError("cannot normalize a zero field")
        return Field(self.grid, self.values / n)


def inner(a: Field, b: Field) -> complex:
    """Grid inner product <a|b> = sum conj(a) * b * dx * dy."""
    if a.grid != b.grid:
        raise InvalidSpecError("fields live on different grids")
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.cell_area)


_HEADER_RE = re.compile(
    r"^#\s*nx=(\S+)\s+ny=(\S+)\s+dx=(\S+)\s+dy=(\S+)\s+x0=(\S+)\s+y0=(\S+)\s*$"
)


def write_field(path: str, field: Field) -> None:
    """Write a real field/profile; 17 significant digits, atomic replace."""
    v = np.asarray(field.values)
    if np.iscomplexobj(v):
        raise InvalidSpecError("field files store real values; write re/im separately")
    g = field.grid
    with atomic_write(path) as fh:
        fh.write(
            f"# nx={g.nx} ny={g.ny} dx={g.dx:.17g} dy={g.dy:.17g} "
            f"x0={g.x0:.17g} y0={g.y0:.17g}\n"
        )
        for row in v:
            fh.write(" ".join(format(x, ".17g") for x in row))
            fh.write("\n")


def _number(text: str):
    """text as an int or a float, or text itself for the grid's checks to reject."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_field(path: str) -> Field:
    """Field from a file in the format above; InvalidSpecError names the path."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        m = _HEADER_RE.match(header)
        if not m:
            raise InvalidSpecError(f"{path}: malformed field header {header!r}")
        try:
            grid = TransverseGrid(*map(_number, m.groups()))
            return Field(grid, np.loadtxt(fh, ndmin=2))
        except InvalidSpecError as exc:
            raise InvalidSpecError(f"{path}: {exc}") from None

"""Transverse grids, fields, and the plain-text file format."""

import re

import numpy as np
import pytest

from defectlattice import InvalidSpecError
from defectlattice.eme import Field, TransverseGrid, inner, read_field, write_field


def test_grid_validation():
    with pytest.raises(InvalidSpecError):
        TransverseGrid(4, 20, 0.5, 0.5, 0.0, 0.0)
    with pytest.raises(InvalidSpecError):
        TransverseGrid(20, 20, 0.0, 0.5, 0.0, 0.0)
    with pytest.raises(InvalidSpecError):
        TransverseGrid(20, 20, 0.5, float("inf"), 0.0, 0.0)


@pytest.mark.parametrize("x0, y0", [(np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf)])
def test_grid_origin_must_be_finite(x0, y0):
    name, value = ("x0", x0) if x0 else ("y0", y0)
    with pytest.raises(InvalidSpecError, match=f"^{name} must be finite, got {value}$"):
        TransverseGrid(20, 20, 0.5, 0.5, x0, y0)


@pytest.mark.parametrize("step", [0.0, -0.5, float("nan"), float("inf")])
def test_centered_checks_steps_before_dividing(step):
    with pytest.raises(InvalidSpecError, match=f"^dx must be finite and > 0, got {step}$"):
        TransverseGrid.centered(10.0, 10.0, step, 0.5)
    with pytest.raises(InvalidSpecError, match=f"^dy must be finite and > 0, got {step}$"):
        TransverseGrid.centered(10.0, 10.0, 0.5, step)


def test_centered_grid_symmetry():
    g = TransverseGrid.centered(10.0, 8.0, 0.5, 0.5)
    assert g.x[0] == pytest.approx(-g.x[-1])
    assert g.y[0] == pytest.approx(-g.y[-1])
    assert g.x[0] == pytest.approx(-5.0)


def test_field_shape_checked():
    g = TransverseGrid.centered(4.0, 4.0, 0.5, 0.5)
    with pytest.raises(InvalidSpecError):
        Field(g, np.zeros((3, 3)))


def test_norm_and_inner():
    g = TransverseGrid.centered(8.0, 8.0, 0.25, 0.25)
    X, Y = g.mesh()
    f = Field(g, np.exp(-(X ** 2 + Y ** 2))).normalized()
    assert f.norm() == pytest.approx(1.0, rel=1e-12)
    assert inner(f, f).real == pytest.approx(1.0, rel=1e-12)


def test_file_round_trip_bit_exact(tmp_path, rng):
    g = TransverseGrid(12, 9, 0.37, 0.41, -2.035, -1.64)
    vals = rng.normal(size=(9, 12)) * np.pi
    path = str(tmp_path / "field.txt")
    write_field(path, Field(g, vals))
    back = read_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, vals)  # 17 significant digits round-trip


def test_file_rejects_complex_and_bad_header(tmp_path):
    g = TransverseGrid.centered(4.0, 4.0, 0.5, 0.5)
    with pytest.raises(InvalidSpecError):
        write_field(str(tmp_path / "c.txt"), Field(g, np.zeros((g.ny, g.nx), dtype=complex)))
    bad = tmp_path / "bad.txt"
    bad.write_text("# not a header\n0 1\n")
    with pytest.raises(InvalidSpecError):
        read_field(str(bad))


@pytest.mark.parametrize(
    "field, text, message",
    [
        ("nx", "abc", "nx must be an integer, got abc"),
        ("nx", "8.5", "nx must be an integer, got 8.5"),
        ("ny", "4", "ny must be >= 8, got 4"),
        ("dx", "abc", "dx must be finite and > 0, got abc"),
        ("dy", "0", "dy must be finite and > 0, got 0"),
        ("x0", "nan", "x0 must be finite, got nan"),
        ("y0", "-inf", "y0 must be finite, got -inf"),
    ],
)
def test_file_header_fields_are_checked(tmp_path, field, text, message):
    path = tmp_path / "field.txt"
    write_field(str(path), Field(TransverseGrid(8, 8, 0.5, 0.5, 0.0, 0.0), np.zeros((8, 8))))
    path.write_text(re.sub(rf"\b{field}=\S+", f"{field}={text}", path.read_text(), count=1))
    with pytest.raises(InvalidSpecError) as exc:
        read_field(str(path))
    assert str(exc.value) == f"{path}: {message}"

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
    name, value = ("x0", x0) if not np.isfinite(x0) else ("y0", y0)
    with pytest.raises(InvalidSpecError, match=f"^{name} must be finite, got {value}$"):
        TransverseGrid(20, 20, 0.5, 0.5, x0, y0)


@pytest.mark.parametrize("step", [0.0, -0.5, float("nan"), float("inf")])
def test_centered_checks_steps_before_dividing(step):
    with pytest.raises(InvalidSpecError, match=f"^dx must be finite and > 0, got {step}$"):
        TransverseGrid.centered(10.0, 10.0, step, 0.5)
    with pytest.raises(InvalidSpecError, match=f"^dy must be finite and > 0, got {step}$"):
        TransverseGrid.centered(10.0, 10.0, 0.5, step)


def test_centered_caps_the_point_count():
    # 2048 x 1024 points is the cap; one more row is refused, and so is the
    # A1 grid at a 1e-3 um step (6e10 points), before anything is allocated
    assert TransverseGrid.centered(2047.0, 1023.0, 1.0, 1.0).nx == 2048
    with pytest.raises(InvalidSpecError, match="has 2099200 points, more than the 2097152"):
        TransverseGrid.centered(2047.0, 1024.0, 1.0, 1.0)
    with pytest.raises(InvalidSpecError, match="has 63024560001 points"):
        TransverseGrid.centered(404.0, 156.0, 1e-3, 1e-3)


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


def test_normalized_rejects_a_zero_field():
    with pytest.raises(InvalidSpecError, match="^cannot normalize a zero field$"):
        Field(TransverseGrid(8, 8, 1.0, 1.0, 0.0, 0.0), np.zeros((8, 8))).normalized()


def test_normalized_rejects_a_nan():
    # one NaN would otherwise turn all 64 values NaN
    values = np.ones((8, 8))
    values[3, 4] = np.nan
    with pytest.raises(InvalidSpecError, match="^cannot normalize a field of norm nan"):
        Field(TransverseGrid(8, 8, 1.0, 1.0, 0.0, 0.0), values).normalized()


def test_normalized_rejects_a_square_past_the_float_range():
    # the refusal is the error, not numpy's overflow warning from the square
    values = np.full((8, 8), 1e200)
    with pytest.raises(InvalidSpecError, match="^cannot normalize a field of norm inf"):
        Field(TransverseGrid(8, 8, 1.0, 1.0, 0.0, 0.0), values).normalized()


def test_file_round_trip_bit_exact(tmp_path, rng):
    g = TransverseGrid(12, 9, 0.37, 0.41, -2.035, -1.64)
    vals = rng.normal(size=(9, 12)) * np.pi
    path = str(tmp_path / "field.txt")
    write_field(path, Field(g, vals))
    back = read_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, vals)  # 17 significant digits round-trip


def test_file_bytes(tmp_path):
    # the header line, then one row per y at 17 significant digits: -0.0, the
    # smallest subnormal, nan and values near the float range keep their text
    vals = np.zeros((8, 8))
    vals[0] = [-0.0, 5e-324, np.nan, 1.2345678901234567e300, 1 / 3, -2.5, 0.1, 1.0]
    vals[7, 7] = -1e300
    path = tmp_path / "field.txt"
    write_field(str(path), Field(TransverseGrid(8, 8, 0.1, 0.25, -0.35, -0.875), vals))
    zeros = "0 0 0 0 0 0 0 0\n"
    assert path.read_bytes() == (
        "# nx=8 ny=8 dx=0.10000000000000001 dy=0.25 x0=-0.34999999999999998 y0=-0.875\n"
        "-0 4.9406564584124654e-324 nan 1.2345678901234567e+300 0.33333333333333331 -2.5 "
        "0.10000000000000001 1\n"
        + 6 * zeros
        + "0 0 0 0 0 0 0 -1.0000000000000001e+300\n"
    ).encode()


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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: [rows[0].replace("0", "abc", 1), *rows[1:]],
         "line 2: could not convert string to float: 'abc'"),
        (lambda rows: [*rows[:-1], "0 0"], "line 9 has 2 values, the first row has 8"),
        (lambda rows: [], "no field values after the header"),
        # blank and comment lines count: the lines are the file's own
        (lambda rows: ["", "# a note", rows[0].replace("0", "x", 2), *rows[1:]],
         "line 4: could not convert string to float: 'x'"),
        (lambda rows: [rows[0], "  # a note", "0 0 0", *rows[1:]],
         "line 4 has 3 values, the first row has 8"),
    ],
    ids=["token", "ragged", "empty", "token_after_comment", "ragged_after_comment"],
)
def test_file_body_errors_name_the_file(tmp_path, edit, message):
    path = tmp_path / "field.txt"
    write_field(str(path), Field(TransverseGrid(8, 8, 0.5, 0.5, 0.0, 0.0), np.zeros((8, 8))))
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *edit(rows)]) + "\n")
    with pytest.raises(InvalidSpecError) as exc:  # and, as tier-1 runs, with no warning
        read_field(str(path))
    assert str(exc.value) == f"{path}: {message}"

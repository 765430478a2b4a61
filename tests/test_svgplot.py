"""SVG chart writer: the exact bytes of small charts."""

import hashlib
import math

import pytest

from defectlattice.errors import InvalidSpecError
from defectlattice.svgplot import line_chart

X = [0.0, 1.0, 2.0, 3.0, 4.0]

# (series, log_y, title, SHA-256 of the file): a NaN and a None break the
# linear chart's lines, a 0 the log chart's; a point left alone by a break
# still sets the axis range but draws no line.  The last three have an empty
# range that the chart widens: one x value, one y value, and two y values one
# ulp apart whose log10 rounds to one value
CHARTS = {
    "linear-gaps": (
        [("a", X, [0.0, 1.0, math.nan, 2.0, 1.5]), ("b", X, [1.0, 0.5, 0.25, None, -0.5])],
        False,
        "linear",
        "52be81b321172163f1b2f46f08f755ba73e861961a5353f9bc3bd880a2e52ee9",
    ),
    "log-nonpositive": (
        [("d", X, [1e-3, 0.0, 1e-1, 2e-2, 5e-5])],
        True,
        "",
        "3fd89a8ab05376ccca700e554c4e4800f919d6815ce57aa08a560fc3f7013ba8",
    ),
    "single-x": (
        [("a", [2.0], [0.5]), ("b", [2.0], [1.5])],
        False,
        "",
        "76f2029f5a9e7c2b82f9fae0058e5ad773ee9f37e1a021b02fee71d101f22357",
    ),
    "constant-linear": (
        [("c", X, [0.3] * 5)],
        False,
        "",
        "4b2b885bbac45b5469942f62f581c718fd025698ba69d069bde8dbe261669d7f",
    ),
    "flat-log": (
        [("c", X, [1e10, math.nextafter(1e10, math.inf), 1e10, 1e10, 1e10])],
        True,
        "",
        "fdf9904c6bb60053c12486f30898fd5836426af6eafccb21a04dc34439d30802",
    ),
}


@pytest.mark.parametrize("name", CHARTS)
def test_line_chart_bytes(tmp_path, name):
    series, log_y, title, digest = CHARTS[name]
    path = tmp_path / "chart.svg"
    line_chart(str(path), series, "x", "y", title=title, log_y=log_y)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "series, log_y, message",
    [
        ([("a", X, [1.0, 2.0])], False, "lengths differ"),
        ([("a", X, [0.0, -1.0, math.nan, None, 0.0])], True, "nothing to plot"),
        # an x or y range whose widened or padded span is zero, infinite, or
        # too narrow for a tick step to move a float at its magnitude
        ([("a", [1e17], [1.0])], False, "the x axis"),
        ([("a", [1e308], [1.0])], False, "the x axis"),
        ([("a", [1e17, 1e17 + 16], [1.0, 2.0])], False, "the x axis"),
        ([("a", X, [1e308] * 5)], False, "the y axis"),
        ([("a", X, [1e308] * 5)], True, "the y axis"),
        ([("a", [0.0, 1.0], [-1e308, 1e308])], False, "the y axis"),
        ([("a", [0.0, 1.0], [0.0, 1.75e308])], False, "the y axis"),
    ],
    ids=["length-mismatch", "nothing-to-plot", "single-x-1e17", "single-x-1e308",
         "x-step-below-ulp", "constant-y-1e308", "constant-log-y-1e308", "y-span-overflows",
         "y-padding-overflows"],
)
def test_line_chart_rejects_and_writes_nothing(tmp_path, series, log_y, message):
    path = tmp_path / "chart.svg"
    with pytest.raises(InvalidSpecError, match=message):
        line_chart(str(path), series, "x", "y", log_y=log_y)
    assert list(tmp_path.iterdir()) == []

"""Minimal self-contained SVG line charts (no external assets, no deps).

Static output for the CLI: multiple series on shared axes, optional log-y
(needed for the deviation metrics, which span many decades), axis labels
with units.  Output is deterministic byte-for-byte for identical inputs.
"""

from __future__ import annotations

import math

from .errors import InvalidSpecError
from .textio import atomic_write

_COLORS = ["#1b6ca8", "#d94801", "#2a9d3a", "#a01a9e", "#7a5c00", "#444444"]

_W, _H = 760.0, 480.0
_ML, _MR, _MT, _MB = 72.0, 18.0, 34.0, 56.0


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _range_error(axis: str, lo: float, hi: float) -> InvalidSpecError:
    return InvalidSpecError(
        f"cannot draw the {axis} axis over [{lo:.17g}, {hi:.17g}]: its span is not "
        "finite and positive at float precision"
    )


def _ticks(lo: float, hi: float, axis: str, n: int = 6) -> list[float]:
    raw = (hi - lo) / max(n - 1, 1)
    top = max(abs(lo), abs(hi))
    if not (0.0 < raw < math.inf and top + raw > top):  # else the tick loop never ends
        raise _range_error(axis, lo, hi)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * abs(step):
        out.append(0.0 if abs(t) < 1e-15 * abs(step) else t)
        t += step
    return out


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(int(lo_e), int(hi_e) + 1)]


def _runs(xs, ys, log_y: bool) -> list[list[tuple[float, float]]]:
    """The unbroken runs of drawable (x, y) points: a NaN or ``None`` y, or
    on a log axis a y <= 0, ends a run and is not drawn."""
    if len(xs) != len(ys):
        raise InvalidSpecError("series x and y lengths differ")
    runs: list[list[tuple[float, float]]] = [[]]
    for x, y in zip(xs, ys):
        if y is None or (isinstance(y, float) and math.isnan(y)) or (log_y and y <= 0):
            runs.append([])
        else:
            runs[-1].append((x, y))
    return [run for run in runs if run]


def _text(x: float, y: float, size: int, body: str, anchor="middle", extra="") -> str:
    align = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}"{align} font-family="sans-serif" '
        f'font-size="{size}"{extra}>{body}</text>'
    )


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str) -> str:
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {stroke}/>'


def line_chart(
    path: str,
    series: list[tuple[str, list[float], list[float]]],
    x_label: str,
    y_label: str,
    title: str = "",
    log_y: bool = False,
) -> None:
    """Write an SVG chart of (name, x, y) series; a NaN or absent y-point (or
    on a log axis a y <= 0) is skipped and breaks the series' line.  An axis
    range whose widened span is not finite and positive at float precision
    (for example one x value at 1e17, or y values near +-1e308) raises
    InvalidSpecError and writes nothing."""
    runs = [_runs(xs, ys, log_y) for _, xs, ys in series]
    pts = [p for series_runs in runs for run in series_runs for p in run]
    if not pts:
        raise InvalidSpecError("nothing to plot")

    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) or 1.0)

    if log_y:
        s_lo, s_hi = math.log10(y_lo), math.log10(y_hi)
        if s_hi == s_lo:
            s_hi += 1.0
        if not s_hi - s_lo < math.inf:
            raise _range_error("y", y_lo, y_hi)
        y_ticks = [t for t in _log_ticks(y_lo, y_hi) if y_lo <= t <= y_hi] or [y_lo, y_hi]
    else:
        pad = 0.04 * (y_hi - y_lo)
        s_lo, s_hi = y_lo - pad, y_hi + pad
        y_ticks = _ticks(s_lo, s_hi, "y")

    def tx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def ty(y):
        s = math.log10(y) if log_y else y
        return _H - _MB - (s - s_lo) / (s_hi - s_lo) * (_H - _MT - _MB)

    axis = 'stroke="#333333"'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_W)}" height="{_fmt(_H)}" '
        f'viewBox="0 0 {_fmt(_W)} {_fmt(_H)}">',
        f'<rect width="{_fmt(_W)}" height="{_fmt(_H)}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(_text(_W / 2, 20, 15, title))
    # frame
    parts.append(
        f'<rect x="{_fmt(_ML)}" y="{_fmt(_MT)}" width="{_fmt(_W - _ML - _MR)}" '
        f'height="{_fmt(_H - _MT - _MB)}" fill="none" {axis}/>'
    )
    for t in _ticks(x_lo, x_hi, "x"):
        px = tx(t)
        parts.append(_line(px, _H - _MB, px, _H - _MB + 5, axis))
        parts.append(_text(px, _H - _MB + 18, 11, _fmt(t)))
    for t in y_ticks:
        py = ty(t)
        parts.append(_line(_ML - 5, py, _ML, py, axis))
        label = f"1e{int(round(math.log10(t)))}" if log_y else _fmt(t)
        parts.append(_text(_ML - 8, py + 4, 11, label, anchor="end"))
    parts.append(_text((_ML + _W - _MR) / 2, _H - 14, 13, x_label))
    mid = (_MT + _H - _MB) / 2
    parts.append(_text(18, mid, 13, y_label, extra=f' transform="rotate(-90 18 {_fmt(mid)})"'))
    for i, ((name, _, _), series_runs) in enumerate(zip(series, runs)):
        stroke = f'stroke="{_COLORS[i % len(_COLORS)]}" stroke-width="1.6"'
        for run in series_runs:
            if len(run) > 1:
                points = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in run)
                parts.append(f'<polyline points="{points}" fill="none" {stroke}/>')
        ly = _MT + 16 + 16 * i
        parts.append(_line(_W - _MR - 130, ly - 4, _W - _MR - 104, ly - 4, stroke))
        parts.append(_text(_W - _MR - 98, ly, 11, name, anchor=None))
    parts.append("</svg>")
    with atomic_write(path) as fh:
        fh.write("\n".join(parts) + "\n")

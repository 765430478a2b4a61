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


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
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


def line_chart(
    path: str,
    series: list[tuple[str, list[float], list[float]]],
    x_label: str,
    y_label: str,
    title: str = "",
    log_y: bool = False,
) -> None:
    """Write an SVG chart of (name, x, y) series; NaN/absent y-points are skipped."""
    pts = []
    for _, xs, ys in series:
        if len(xs) != len(ys):
            raise InvalidSpecError("series x and y lengths differ")
        for x, y in zip(xs, ys):
            if y is None or (isinstance(y, float) and math.isnan(y)):
                continue
            if log_y and y <= 0:
                continue
            pts.append((x, y))
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
        ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)
        if ly_hi == ly_lo:
            ly_hi += 1.0

        def ty(y):
            return _H - _MB - (math.log10(y) - ly_lo) / (ly_hi - ly_lo) * (_H - _MT - _MB)

        y_ticks = [t for t in _log_ticks(y_lo, y_hi) if y_lo <= t <= y_hi] or [y_lo, y_hi]
    else:
        pad = 0.04 * (y_hi - y_lo)
        y_lo -= pad
        y_hi += pad

        def ty(y):
            return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

        y_ticks = _ticks(y_lo, y_hi)

    def tx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_W)}" height="{_fmt(_H)}" '
        f'viewBox="0 0 {_fmt(_W)} {_fmt(_H)}">',
        f'<rect width="{_fmt(_W)}" height="{_fmt(_H)}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(_W / 2)}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    # frame
    parts.append(
        f'<rect x="{_fmt(_ML)}" y="{_fmt(_MT)}" width="{_fmt(_W - _ML - _MR)}" '
        f'height="{_fmt(_H - _MT - _MB)}" fill="none" stroke="#333333"/>'
    )
    for t in _ticks(x_lo, x_hi):
        px = tx(t)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(_H - _MB)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(_H - _MB + 5)}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(_H - _MB + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in y_ticks:
        py = ty(t)
        parts.append(
            f'<line x1="{_fmt(_ML - 5)}" y1="{_fmt(py)}" x2="{_fmt(_ML)}" '
            f'y2="{_fmt(py)}" stroke="#333333"/>'
        )
        label = f"1e{int(round(math.log10(t)))}" if log_y else _fmt(t)
        parts.append(
            f'<text x="{_fmt(_ML - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{_fmt((_ML + _W - _MR) / 2)}" y="{_fmt(_H - 14)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{_fmt((_MT + _H - _MB) / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_fmt((_MT + _H - _MB) / 2)})">{y_label}</text>'
    )
    for i, (name, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        segs: list[str] = []
        cur: list[str] = []
        for x, y in zip(xs, ys):
            bad = y is None or (isinstance(y, float) and math.isnan(y)) or (log_y and y <= 0)
            if bad:
                if len(cur) > 1:
                    segs.append(" ".join(cur))
                cur = []
                continue
            cur.append(f"{_fmt(tx(x))},{_fmt(ty(y))}")
        if len(cur) > 1:
            segs.append(" ".join(cur))
        for seg in segs:
            parts.append(
                f'<polyline points="{seg}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        ly = _MT + 16 + 16 * i
        parts.append(
            f'<line x1="{_fmt(_W - _MR - 130)}" y1="{_fmt(ly - 4)}" '
            f'x2="{_fmt(_W - _MR - 104)}" y2="{_fmt(ly - 4)}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{_fmt(_W - _MR - 98)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with atomic_write(path) as fh:
        fh.write("\n".join(parts) + "\n")

"""Bessel functions of the first kind, integer order, by Miller's algorithm.

The survival-amplitude series need J_l(x) for many consecutive orders at
once, so the workhorse is :func:`bessel_j_array`, a single downward
recurrence normalized with

    J_0(x) + 2 * sum_{k>=1} J_{2k}(x) = 1.

Scalar access and negative orders go through :func:`bessel_j`, using the
parity identity J_{-l}(x) = (-1)^l J_l(x).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidSpecError, _integer

# Domain cap: desk-scale arguments only. Beyond this the start-order
# heuristic and the normalization sum would need asymptotic handling.
X_MAX = 1.0e4

# Rescaling guards against overflow during the downward sweep.
_BIG = 1.0e250
_BIG_INV = 1.0e-250


def _start_order(l_max: int, x: float) -> int:
    """Even start order high enough that the trial tail has decayed.

    Downward recurrence started at (0, 1) converges to the true ratios
    once the order is deep in the evanescent regime l > x; the margin
    term keeps >= 12 significant digits for the retained orders.
    """
    base = max(l_max, int(math.ceil(x)))
    m = base + 18 + int(2.5 * math.sqrt(base + 1))
    return m + (m & 1)


def bessel_j_array(l_max: int, x: float) -> np.ndarray:
    """J_0(x) .. J_{l_max}(x) for integral l_max >= 0 and x >= 0, by normalized downward recurrence."""
    l_max = _integer(l_max, "l_max", 0)
    if not math.isfinite(x) or x < 0.0:
        raise InvalidSpecError(f"argument must be finite and >= 0, got {x}")
    if x >= X_MAX:
        raise InvalidSpecError(f"argument {x} outside supported domain |x| < {X_MAX:g}")

    if x < 1e-8:
        # the leading series term (x/2)^l / l! is exact to rounding here, while
        # the recurrence's per-order growth 2l/x overflows past its rescaling
        return np.cumprod(np.concatenate(([1.0], 0.5 * x / np.arange(1, l_max + 1))))

    m = _start_order(l_max, x)
    out = np.zeros(l_max + 1)
    jp = 0.0  # J_{m+1} trial
    jc = 1.0  # J_m trial
    norm = 0.0  # accumulates J_0 + 2*sum J_{2k} in trial scale
    two_over_x = 2.0 / x
    for l in range(m, 0, -1):
        jm = l * two_over_x * jc - jp
        jp = jc
        jc = jm
        if l - 1 <= l_max:
            out[l - 1] = jc
        if (l - 1) % 2 == 0:
            norm += jc if l - 1 == 0 else 2.0 * jc
        if abs(jc) > _BIG:
            jc *= _BIG_INV
            jp *= _BIG_INV
            norm *= _BIG_INV
            out *= _BIG_INV
    out /= norm
    return out


def _tail_order(y: float, bound: float, limit: int) -> int | None:
    """Smallest order K in (y, limit] with y^K / K! < bound, or None if none is.

    With y = x/2 (times the growth rate of any weights), y^k / k! bounds
    |J_k(x)| (and the weighted terms), so no later term reaches the bound.
    For bound < 1/2 the returned K also exceeds 2y, so past it each term is
    at most half the one before and their sum stays below the bound too.
    The search stops at e^2 y - ln(bound), where ln(y^K / K!) <= -K.
    """
    if y == 0.0:
        return 0
    if not y <= limit:  # also for inf and nan
        return None
    hi = min(limit, int(math.e ** 2 * y - math.log(bound)) + 1)
    orders = np.arange(1, hi + 1)
    log_terms = np.cumsum(math.log(y) - np.log(orders))
    past = orders[(orders > y) & (log_terms < math.log(bound))]
    return int(past[0]) if past.size else None


def bessel_j(order: int, x: float) -> float:
    """J_order(x) for integral order (may be negative), x >= 0."""
    order = _integer(order, "order")
    l = abs(order)
    val = float(bessel_j_array(l, x)[l])
    if order < 0 and (l % 2) == 1:
        val = -val
    return val

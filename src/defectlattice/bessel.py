"""Bessel functions of the first kind, integer order, by Miller's algorithm.

The survival-amplitude series need J_l(x) for many consecutive orders at
once, so the workhorse is :func:`bessel_j_array`, a single downward
recurrence normalized with

    J_0(x) + 2 * sum_{k>=1} J_{2k}(x) = 1.

Scalar access and negative orders go through :func:`bessel_j`, using the
parity identity J_{-l}(x) = (-1)^l J_l(x).

Array form: :func:`bessel_j_array` also takes a 1-D array of x, with one
l_max for every row or an array of one per row, and runs one downward
recurrence over all rows at once.  Each row starts at its own order and
rescales on its own, so row i equals the scalar call at (l_max_i, x_i)
bit for bit, padded with zeros to the widest row.  A scalar x keeps the
plain float loop, which is far cheaper for one argument.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidSpecError, _integer, _real_or_vector

# Domain cap: desk-scale arguments only. Beyond this the start-order
# heuristic and the normalization sum would need asymptotic handling.
X_MAX = 1.0e4

# Rescaling guards against overflow during the downward sweep.
_BIG = 1.0e250
_BIG_INV = 1.0e-250

#: an array call works in blocks of rows that hold at most this many entries
_BLOCK = 2 ** 22


def _start_order(l_max: int, x: float) -> int:
    """Even start order high enough that the trial tail has decayed.

    Downward recurrence started at (0, 1) converges to the true ratios
    once the order is deep in the evanescent regime l > x; the margin
    term keeps >= 12 significant digits for the retained orders.
    """
    base = max(l_max, int(math.ceil(x)))
    m = base + 18 + int(2.5 * math.sqrt(base + 1))
    return m + (m & 1)


def _row_blocks(widths):
    """Slices of consecutive rows, each of one row or of as many as keep rows * widest <= _BLOCK."""
    start, widest = 0, 0
    for i, w in enumerate(widths):
        widest = max(widest, w)
        if (i - start + 1) * widest > _BLOCK and i > start:
            yield slice(start, i)
            start, widest = i, w
    if start < len(widths):
        yield slice(start, len(widths))


def _leading_terms(l_max: int, x: float) -> np.ndarray:
    """(x/2)^l / l! for l = 0..l_max: exact to rounding for x < 1e-8, where the
    recurrence's per-order growth 2l/x overflows past its rescaling."""
    return np.cumprod(np.concatenate(([1.0], 0.5 * x / np.arange(1, l_max + 1))))


def bessel_j_array(l_max, x):
    """J_0(x) .. J_{l_max}(x) for integral l_max >= 0 and x >= 0, by normalized downward recurrence.

    x may also be a 1-D array, with l_max one integer or an array of one per
    x; the result is then a (len(x), max l_max + 1) array whose row i equals
    bessel_j_array(l_max_i, x_i) bit for bit, zero past l_max_i.
    """
    x = _real_or_vector(x, "x", ">= 0")
    if not isinstance(x, float):
        return _bessel_rows(*_row_orders(l_max, x.size), x)
    l_max = _integer(l_max, "l_max", 0)
    if x >= X_MAX:
        raise InvalidSpecError(f"argument {x} outside supported domain |x| < {X_MAX:g}")
    if x < 1e-8:
        return _leading_terms(l_max, x)

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


def _row_orders(l_max, rows: int) -> tuple[np.ndarray, int]:
    """(l_max as one integer >= 0 per row, the result's width) from one l_max for all
    rows (l_max + 1 columns, also for no rows) or an array of one per row."""
    try:
        orders = np.asarray(l_max)
    except ValueError:  # a ragged nested sequence: its entries fail one by one below
        orders = np.array(l_max, dtype=object)
    if orders.ndim == 0:
        l_max = _integer(l_max, "l_max", 0)
        return np.full(rows, l_max), l_max + 1
    if orders.shape != (rows,):
        raise InvalidSpecError(
            f"l_max must be an integer or one per x ({rows}), got shape {orders.shape}")
    if orders.dtype.kind not in "iu" or orders.size and orders.min() < 0:
        for i, order in enumerate(orders):  # raises for the first entry that fails
            _integer(order, f"l_max[{i}]", 0)
    orders = orders.astype(int)
    return orders, int(orders.max(initial=0)) + 1


def _bessel_rows(l_max: np.ndarray, width: int, x: np.ndarray) -> np.ndarray:
    """The array form of bessel_j_array: the scalar loop run on every row at once."""
    far = np.flatnonzero(x >= X_MAX)
    if far.size:
        raise InvalidSpecError(
            f"argument {float(x[far[0]])} outside supported domain |x| < {X_MAX:g}")
    out = np.zeros((x.size, width))
    tiny = x < 1e-8
    for i in np.flatnonzero(tiny):
        out[i, : l_max[i] + 1] = _leading_terms(int(l_max[i]), float(x[i]))
    rows = np.flatnonzero(~tiny)
    if not rows.size:
        return out

    # _start_order per row; rows sorted by it, so the started ones are a prefix
    base = np.maximum(l_max[rows], np.ceil(x[rows]).astype(int))
    m = base + 18 + (2.5 * np.sqrt(base + 1)).astype(int)
    m += m & 1
    order = np.argsort(-m, kind="stable")
    m, rows = m[order], rows[order]
    two_over_x = 2.0 / x[rows]
    trial = np.zeros((width, rows.size))  # trial[l] holds order l of every row
    jp = np.zeros(rows.size)
    jc = np.ones(rows.size)
    norm = np.zeros(rows.size)
    k = 0
    for l in range(int(m[0]), 0, -1):
        while k < rows.size and m[k] >= l:
            k += 1
        jm = l * two_over_x[:k] * jc[:k] - jp[:k]
        jp[:k] = jc[:k]
        jc[:k] = jm
        if l - 1 < width:
            trial[l - 1, :k] = jm
        if (l - 1) % 2 == 0:
            norm[:k] += jm if l - 1 == 0 else 2.0 * jm
        big = np.flatnonzero(np.abs(jm) > _BIG)
        if big.size:
            jc[big] *= _BIG_INV
            jp[big] *= _BIG_INV
            norm[big] *= _BIG_INV
            trial[:, big] *= _BIG_INV
    trial /= norm
    trial[np.arange(width)[:, None] > l_max[rows]] = 0.0
    out[rows] = trial.T
    return out


def _tail_order(y: float, bound: float, limit: int) -> int | None:
    """Smallest order K in (y, limit] with y^K / K! < bound, or None if none is.

    With y = x/2 (times the growth rate of any weights), y^k / k! bounds
    |J_k(x)| (and the weighted terms), so no later term reaches the bound.
    For bound < 1/2 the returned K also exceeds 2y, so past it each term is
    at most half the one before and their sum stays below the bound too.
    The search stops at e^2 y - ln(bound), where ln(y^K / K!) <= -K.

    For a 1-D array y, the order for each entry (-1 where the scalar call
    returns None), each equal to the scalar call's.
    """
    if np.ndim(y):
        return _tail_orders(np.asarray(y, dtype=float), bound, limit)
    if y == 0.0:
        return 0
    if not y <= limit:  # also for inf and nan
        return None
    hi = min(limit, int(math.e ** 2 * y - math.log(bound)) + 1)
    orders = np.arange(1, hi + 1)
    log_terms = np.cumsum(math.log(y) - np.log(orders))
    past = orders[(orders > y) & (log_terms < math.log(bound))]
    return int(past[0]) if past.size else None


def _tail_orders(y: np.ndarray, bound: float, limit: int) -> np.ndarray:
    """The array form of _tail_order: its search over a block of rows at once."""
    caps = np.where(y == 0.0, 0, -1)
    rows = np.flatnonzero((y > 0.0) & (y <= limit))
    hi = np.minimum(limit, (math.e ** 2 * y[rows] - math.log(bound)).astype(int) + 1)
    log_y = np.array([math.log(v) for v in y[rows].tolist()])
    for block in _row_blocks(hi):
        orders = np.arange(1, hi[block].max(initial=0) + 1)
        log_terms = np.cumsum(log_y[block, None] - np.log(orders), axis=1)
        past = ((orders > y[rows[block], None]) & (log_terms < math.log(bound))
                & (orders <= hi[block, None]))
        first = past.argmax(axis=1)
        caps[rows[block]] = np.where(past[np.arange(first.size), first], orders[first], -1)
    return caps


def bessel_j(order: int, x: float) -> float:
    """J_order(x) for integral order (may be negative), x >= 0."""
    order = _integer(order, "order")
    l = abs(order)
    val = float(bessel_j_array(l, x)[l])
    if order < 0 and (l % 2) == 1:
        val = -val
    return val

"""Survival amplitude c0(tau) of the edge site on the semi-infinite chain.

Three equivalent routes are provided, all in the dimensionless convention
tau = beta*z with beta = 1:

* the piecewise closed forms (exponential/oscillatory leading term plus
  Bessel correction series), in both a ``printed`` and a ``reconciled``
  variant -- see below;
* the contour-integral representation, evaluated as a trapezoid
  quadrature on the unit circle plus the residues of the poles outside it,
  which for delta > 1 sum to the closed form's leading A cos(Omega tau);
* :func:`survival_series`, a single resummed Bessel series

      c0(tau) = J_0(2 tau) + sum_{k>=1} (c^k + c^{k-1}) J_{2k}(2 tau),
      c = 1 - delta^2,

  valid in every regime.  Near delta = 1 it is as well conditioned as
  :func:`c0_contour`, the evaluator to use there, which also covers
  delta >~ 4.9, where this series raises.

The three Bessel series are weight arrays for one kernel,
:func:`_bessel_sum`.

tau arrays
----------
:func:`c0_critical`, :func:`s_less`, :func:`s_greater`,
:func:`survival_series`, :func:`c0_closed_form` and :func:`c0_contour` also
take a 1-D array of tau and return an array (complex for the two c0
evaluators).  Entry i equals the call at tau_i bit for bit: each row keeps
its own series cap and Bessel start order.  A series sweep runs one Bessel
recurrence per block of rows, in blocks of at most 2^22 (row, order)
entries.  The contour's array form is the loop of its calls at each tau;
those are fast because its tau-independent node factors are cached between
calls.  The tau are checked first, naming the index of a bad entry; after
that a failing entry raises exactly what the call at it raises, the first
one first.

Domains: the series (and :func:`c0_closed_form`)
return to within SERIES_ACCURACY = 1e-8 and raise SeriesDivergenceError
where cancellation would lose more -- at tau <= 4 the closed form for
delta in about [0.970, 1.028], survival_series for delta >~ 4.9, both
wider at larger tau.  :func:`c0_contour` returns to ~1e-10 for every
delta > 0, delta = 1 included, and tau below about 1.05e6; it raises
QuadratureError where the quadrature does not converge.

printed vs reconciled
---------------------
The published correction-term formulas do not satisfy c0(0) = 1 as
transcribed, and a finite-chain propagation oracle pins down two exact
repairs:

* sub-critical branch: the leading ``2*J_0(2 tau)`` term must read
  ``J_0(2 tau)`` (the literal form evaluates to the exact amplitude plus
  one spurious J_0, hence c0(0) = 2 and a spurious 1 + J_0(2 tau) limit
  for delta -> 0);
* super-critical branch: the weight exponent in the double sum must read
  ``gamma^(2n-2l)`` instead of ``gamma^(2l-2n)`` (equivalently the series
  resums to sum_k (-1)^k J_{2k}(2 tau) / gamma^(2k), with damped rather
  than growing weights -- this is also what makes the correction term
  vanish for delta >> 1);
* contour representation: the pole pair sits at the roots of
  ``z^2 + (1 - delta^2)``, i.e. at +-i*gamma only for delta < 1 but at
  the real points +-gamma for delta > 1 (the literal +-i*gamma reading
  produces runaway cosh terms there).

The closed form keeps both variants: ``reconciled`` (default) matches the
propagation oracle to ~1e-10; ``printed`` reproduces the literal
transcription and its documented failures.  The contour has the
reconciled poles only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bessel import X_MAX, _row_blocks, _tail_order, bessel_j, bessel_j_array
from .errors import (
    InvalidSpecError,
    QuadratureError,
    SeriesDivergenceError,
    _real,
    _real_or_vector,
)

#: below this distance c0_closed_form returns the delta = 1 branch, off by at
#: most 1.33 |delta - 1| <= 6.7e-9; past it S_< / S_> raise where they cancel
_CLOSED_FORM_WINDOW = 5e-9

#: documented accuracy of the Bessel series; a larger error bound raises
SERIES_ACCURACY = 1e-8
#: contour refinement agreement
CONTOUR_ACCURACY = 1e-10
#: contour point cap, 16 doublings from 64 (tau = 1e6 converges at exactly this)
_MAX_NODES = 2 ** 22
#: on the unit circle exp(i tau (z + 1/z)) = sum_m i^m J_m(2 tau) e^(i m theta), and
#: an n-point rule folds mode m onto m - n.  From this tau on, 2 tau >= 2^21, so the
#: last rule but one folds modes m <= 2 tau, where J_m(2 tau) has not started to
#: decay, and the last doubling cannot agree within CONTOUR_ACCURACY
_MAX_CONTOUR_TAU = _MAX_NODES / 4
_EPS = float(np.finfo(float).eps)

_VARIANTS = ("reconciled", "printed")

#: a series stops at the first order past which every term is below this
_TERM_BOUND = 1e-12
#: a series that needs more orders than this raises SeriesDivergenceError
_MAX_ORDERS = 10 ** 6


@dataclass(frozen=True)
class RegimeParams:
    """Derived constants gamma, A, Omega and the regime tag for a given delta.

    amp (A) and omega are None exactly at delta = 1, where the closed form
    degenerates to the critical Bessel branch.
    """

    gamma: float
    amp: float | None
    omega: float | None
    regime: str


def _check_delta(delta: float) -> float:
    """delta > 0 with 2 delta^2 finite (the evaluators square it)."""
    delta = _real(delta, "delta", "> 0")
    if not math.isfinite(2.0 * delta * delta):
        raise InvalidSpecError(f"delta must have a finite 2*delta^2, got {delta}")
    return delta


def regime_params(delta: float) -> RegimeParams:
    """gamma = sqrt|1-delta^2|, A = (delta^2-2)/(delta^2-1), Omega = delta^2/gamma."""
    delta = _check_delta(delta)
    d2 = delta * delta
    gamma = math.sqrt(abs(1.0 - d2))
    if delta == 1.0:
        return RegimeParams(0.0, None, None, "critical")
    amp = (d2 - 2.0) / (d2 - 1.0)
    omega = d2 / gamma
    regime = "sub_critical" if delta < 1.0 else "super_critical"
    return RegimeParams(gamma, amp, omega, regime)


def c0_critical(tau):
    """Critical branch J_1(2 tau)/tau, with the exact limit 1 at tau = 0.

    Domain: 0 <= tau < X_MAX/2 = 5000, so that 2 tau is inside the Bessel
    domain; a larger tau raises InvalidSpecError naming tau and that bound.
    tau may be a 1-D array: the result is then an array whose entry i
    equals c0_critical(tau_i) bit for bit, and its first tau past the bound
    raises the float call's error.
    """
    tau = _real_or_vector(tau, "tau", ">= 0")
    if isinstance(tau, float):
        if tau >= 0.5 * X_MAX:
            raise InvalidSpecError(
                f"c0_critical needs tau < {0.5 * X_MAX:g} (2 tau inside the Bessel domain "
                f"|x| < {X_MAX:g}), got tau={tau}"
            )
        if tau == 0.0:
            return 1.0
        return bessel_j(1, 2.0 * tau) / tau
    far = np.flatnonzero(tau >= 0.5 * X_MAX)
    if far.size:  # the float call raises
        c0_critical(float(tau[far[0]]))
    out = np.ones(tau.size)
    pos = np.flatnonzero(tau > 0.0)
    for block in _row_blocks(np.full(pos.size, 2)):
        t = tau[pos[block]]
        out[pos[block]] = bessel_j_array(1, 2.0 * t)[:, 1] / t
    return out


def _check_variant(variant: str):
    if variant not in _VARIANTS:
        raise InvalidSpecError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _bessel_sum(name: str, tau, rho: float, weights):
    """sum_l w_l J_l(2 tau) for l = 0..L, with w = weights(L) growing like rho^l.

    Each w_l depends on l alone, not on L.  eps * sum_l |w_l J_l| bounds the
    sum's rounding error (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4).  A bound above SERIES_ACCURACY, or a weight or term
    that is not finite, raises SeriesDivergenceError instead of returning
    lost digits.  For a 1-D tau the sums go through _bessel_sum_rows; entry
    i equals the float call at tau_i.
    """
    if not isinstance(tau, float):
        return _bessel_sum_rows(name, tau, rho, weights)
    x = 2.0 * tau
    # |w_l J_l(x)| <~ (rho x / 2)^l / l!, so no term past the cap reaches _TERM_BOUND
    cap = _tail_order(0.5 * rho * x, _TERM_BOUND, _MAX_ORDERS)
    if cap is None:
        raise SeriesDivergenceError(f"{name} needs more than {_MAX_ORDERS} orders")
    with np.errstate(over="ignore", invalid="ignore"):
        terms = weights(cap)
        if np.all(np.isfinite(terms)):  # an overflowing weight skips the recurrence
            terms = terms * bessel_j_array(cap, x)
    if not np.all(np.isfinite(terms)):
        raise SeriesDivergenceError(f"{name} overflows at tau={tau}", last_term=math.inf)
    scale = float(np.sum(np.abs(terms)))
    if _EPS * scale > SERIES_ACCURACY:
        raise SeriesDivergenceError(
            f"{name} at tau={tau} loses ~{math.log10(scale):.1f} digits to cancellation "
            f"(error bound {_EPS * scale:.1e} > {SERIES_ACCURACY:g}); c0_contour is "
            "well conditioned at every delta",
            last_term=abs(float(terms[-1])),
        )
    return float(np.sum(terms))


def _bessel_sum_rows(name: str, tau: np.ndarray, rho: float, weights) -> np.ndarray:
    """_bessel_sum over a 1-D tau: one recurrence per block of rows.

    Each row keeps its own order cap and is summed over exactly its own
    orders (numpy's row sums match its 1-D sums bit for bit, while padding a
    row with zeros moves its rounding), so entry i equals the float call at
    tau_i.  The rows stop at the first one whose float call raises: one
    without an order cap, with a weight that is not finite (as w_l depends on
    l alone, a cap at or past the first such l), past the Bessel domain, or
    whose terms cancel or sum past the float range.  That float call is then
    made, to raise its error.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range the row fails
        x = 2.0 * tau
        caps = _tail_order(0.5 * rho * x, _TERM_BOUND, _MAX_ORDERS)
        finite = np.isfinite(weights(int(caps.max(initial=0))))
    first_bad = finite.size if finite.all() else np.argmin(finite)
    fails = np.flatnonzero((caps < 0) | (caps >= first_bad) | (x >= X_MAX))
    stop = fails[0] if fails.size else tau.size
    out = np.empty(tau.size)
    for block in _row_blocks(caps[:stop] + 1):
        bessel = bessel_j_array(caps[block], x[block])
        for cap in np.unique(caps[block]):
            rows = block.start + np.flatnonzero(caps[block] == cap)
            with np.errstate(over="ignore", invalid="ignore"):  # a sum past the range fails
                terms = weights(int(cap)) * bessel[rows - block.start, : cap + 1]
                scale = np.sum(np.abs(terms), axis=1)
                out[rows] = np.sum(terms, axis=1)
            failing = rows[~(_EPS * scale <= SERIES_ACCURACY)]  # also a scale of inf or nan
            if failing.size:
                stop = min(stop, failing[0])
        if stop < block.stop:
            break
    if stop < tau.size:
        _bessel_sum(name, float(tau[stop]), rho, weights)  # raises, as argued above
    return out


def s_less(tau, gamma: float, variant: str = "reconciled"):
    """Correction term for the sub-critical branch (0 < gamma <= 1).

    lead + (1 + 1/gamma^2) (bilateral/2 - even), bilateral = sum over all
    integer l of J_l(2 tau)/gamma^l, even = sum_l J_{2l}(2 tau)/gamma^(2l),
    lead = 2 J_0(2 tau) printed, J_0(2 tau) reconciled.  Pairing orders +-l
    makes the bracket one sum of v_l J_l(2 tau), v_0 = -1/2 and
    v_l = (-1)^(l+1) (gamma^-l - gamma^l)/2.  Domain: accurate to 1e-8;
    raises SeriesDivergenceError where it would cancel past that (gamma -> 0
    i.e. delta -> 1, large tau) or needs more than 10^6 orders.  tau may be
    a 1-D array (see the module docstring).
    """
    _check_variant(variant)
    gamma = _real(gamma, "gamma", "> 0")
    if gamma > 1.0:  # gamma = 1 where delta^2 underflows
        raise InvalidSpecError(f"gamma must be <= 1, got {gamma}")
    tau = _real_or_vector(tau, "tau", ">= 0")
    pref = 1.0 + 1.0 / (gamma * gamma)
    lead = 2.0 if variant == "printed" else 1.0

    def weights(cap):
        l = np.arange(cap + 1)
        w = 0.5 * pref * np.where(l % 2, 1.0, -1.0) * (gamma ** -l - gamma ** l)
        w[0] = lead - 0.5 * pref
        return w

    return _bessel_sum("s_less", tau, 1.0 / gamma, weights)


def s_greater(tau, gamma: float, variant: str = "reconciled"):
    """Correction term for the super-critical branch (gamma > 0).

    J_0(2 tau) - (1 - 1/gamma^2) sum_n sum_{l=n}^{2n} (i tau)^(2n) gamma^e /
    (l! (2n-l)!), e = 2l-2n printed, 2n-2l reconciled.  With l = n + m each
    fixed-m inner sum is (-1)^m J_{2m}(2 tau), so the double sum is
    sum_m (-1)^m r^m J_{2m}(2 tau), r = gamma^2 printed, gamma^-2 reconciled.
    Domain: accurate to 1e-8 (relative to the terms for the growing printed
    weights); raises SeriesDivergenceError like :func:`s_less`, here as
    gamma -> 0 from delta > 1.  tau may be a 1-D array (see the module
    docstring).
    """
    _check_variant(variant)
    gamma = _real(gamma, "gamma", "> 0")
    tau = _real_or_vector(tau, "tau", ">= 0")
    pref = 1.0 - 1.0 / (gamma * gamma)
    r = gamma * gamma if variant == "printed" else 1.0 / (gamma * gamma)

    def weights(cap):
        w = np.zeros(cap + 1)
        w[::2] = -pref * (-r) ** np.arange(cap // 2 + 1)
        w[0] += 1.0  # the leading J_0(2 tau)
        return w

    return _bessel_sum("s_greater", tau, math.sqrt(r), weights)


def survival_series(delta: float, tau):
    """Regime-independent resummed series for c0(tau); see module docstring.

    Converges for every delta > 0.  Domain: accurate to 1e-8, also around
    delta = 1; its terms grow like exp(delta*tau) and cancel, so it raises
    SeriesDivergenceError for delta >~ 4.9 at tau <= 4 (>~ 1.9 at tau = 20).
    tau may be a 1-D array (see the module docstring).
    """
    delta = _check_delta(delta)
    tau = _real_or_vector(tau, "tau", ">= 0")
    c = 1.0 - delta * delta

    def weights(cap):
        ck = c ** np.arange(cap // 2 + 1)  # c^0 .. c^(L/2)
        w = np.zeros(cap + 1)
        w[0] = 1.0
        w[2::2] = ck[1:] + ck[:-1]
        return w

    # |c^k + c^(k-1)| <= 2 max(1, |c|)^k: growth per order sqrt(|c|)
    return _bessel_sum("survival_series", tau, max(1.0, math.sqrt(abs(c))), weights)


def c0_closed_form(delta: float, tau, mode: str = "reconciled"):
    """Piecewise closed form for c0(tau), dispatching on the regime.

    delta < 1:  (A/2) exp(-Omega tau) + S_<(tau)
    delta = 1:  J_1(2 tau)/tau            (also within 5e-9 of delta = 1)
    delta > 1:  A cos(Omega tau) + S_>(tau)

    mode="reconciled" (default) applies the transcription repairs and
    matches the propagation oracle; mode="printed" evaluates the literal
    formulas (sub-critical branch then returns oracle + J_0(2 tau), so
    c0(0) = 2).  The result is real for this model; it is returned as
    complex to keep the amplitude interface uniform.

    Domain: reconciled values are within 1e-8 of the exact amplitude (the
    delta = 1 branch, used within 5e-9 of it, is off by <= 6.7e-9); near
    delta = 1, where A cancels against the correction series, S_< / S_>
    raise SeriesDivergenceError (c0_contour and survival_series cover that band).
    tau may be a 1-D array (see the module docstring); the leading term
    then still takes math.exp or math.cos per tau.
    """
    _check_variant(mode)
    params = regime_params(delta)
    tau = _real_or_vector(tau, "tau", ">= 0")
    scalar = isinstance(tau, float)
    if abs(delta - 1.0) < _CLOSED_FORM_WINDOW:
        val = c0_critical(tau)
    elif delta < 1.0:  # the series first: a tau it cannot take would overflow exp or cos
        series = s_less(tau, params.gamma, variant=mode)
        val = params.amp / 2.0 * _per_tau(math.exp, -params.omega * tau) + series
    else:
        series = s_greater(tau, params.gamma, variant=mode)
        val = params.amp * _per_tau(math.cos, params.omega * tau) + series
    return complex(val) if scalar else val.astype(complex)


def _per_tau(fn, arg):
    """fn(arg) for a float, else fn of each entry, so that an array keeps the bits of
    math.exp and math.cos (numpy's exp and cos can differ in the last one)."""
    if isinstance(arg, float):
        return fn(arg)
    return np.array([fn(a) for a in arg.tolist()])


def c0_contour(delta: float, tau):
    """Contour-integral evaluation of c0(tau): circle quadrature + outer residues.

    c0 = (1/2 pi i) closed integral over |z| = r of f(z) dz plus the
    residues of the poles outside that circle, with
    f(z) = exp(i tau (z + 1/z)) (z^2 - 1) / (z (z^2 + q)), q = 1 - delta^2.
    The poles are the roots of z^2 + q: +-i*gamma for delta < 1 and +-gamma
    for delta > 1, gamma = sqrt|1 - delta^2|.  Only the real pair can lie
    outside the circle, and its residues (gamma^2 - 1)/(2 gamma^2)
    exp(+-i tau (gamma + 1/gamma)) sum to the closed form's A cos(Omega tau),
    as gamma + 1/gamma = delta^2/gamma = Omega.  The circle is the
    unit circle, where the exponential has modulus 1 and the periodic
    trapezoid rule converges geometrically (Trefethen & Weideman, SIAM Rev.
    56, 385, 2014); the poles merge into the origin at delta = 1 without
    touching it.  Where gamma lies within 0.05 of 1 (delta -> 0,
    delta -> sqrt(2)) the radius moves to exp(+-min(0.3, 1/tau)), on the far
    side of the poles, which keeps the exponential below e^2.03.  The point
    count doubles from 64 until two refinements agree within
    CONTOUR_ACCURACY, up to 2^22 points; each doubling evaluates only the
    new points, and the tau-independent factors at them come from a bounded
    cache up to 2^12 points.

    tau may be a 1-D array: the result is then the array of the float calls
    at each tau_i, made in order, and a failing entry raises the error of
    the float call, the first one first.

    Domain: every delta > 0 and 0 <= tau < 2^20 (about 1.049e6; tau = 1e6
    converges).  Values are within ~1e-10 of the exact amplitude; where 16
    doublings (2^22 points) do not converge, QuadratureError is raised.
    From tau = 2^20 on the last doubling cannot converge (the 2^21-point
    rule folds the Bessel orders m <= 2 tau), so that error is raised
    before any node is evaluated.
    Raises InvalidSpecError for a delta or tau that is not a finite real
    number, delta <= 0, an infinite 2 delta^2 or tau < 0.
    """
    delta = _check_delta(delta)
    tau = _real_or_vector(tau, "tau", ">= 0")
    q = 1.0 - delta * delta
    if isinstance(tau, float):
        return _contour_at(delta, q, tau)
    return np.array([_contour_at(delta, q, t) for t in tau.tolist()], dtype=complex)


def _contour_at(delta: float, q: float, tau: float) -> complex:
    """c0_contour at one float tau.  An array runs this per entry rather than
    c0_contour itself, so a wrapper of c0_contour sees one call per array."""
    gamma = math.sqrt(abs(q))  # modulus of both poles
    r = _radius(gamma, tau)
    mean, diff, n = _circle_mean(tau, r, q)
    if not diff < CONTOUR_ACCURACY:
        raise QuadratureError(
            f"contour quadrature did not converge with {n} points "
            f"(delta={delta}, tau={tau})",
            achieved=diff,
        )
    if gamma > r:  # the real poles +-gamma of delta > 1, whose residues sum to A cos(Omega tau)
        params = regime_params(delta)
        return complex(params.amp * math.cos(params.omega * tau) + mean)
    return complex(mean)


def _radius(gamma: float, tau: float) -> float:
    """The circle's radius: 1, or past the poles where they lie within 0.05 of it."""
    if abs(gamma - 1.0) >= 0.05:
        return 1.0
    # poles this close slow the trapezoid rule: step past them
    shift = min(0.3, 1.0 / tau) if tau > 0 else 0.3  # tau |r - 1/r| <= 2.03
    return math.exp(shift if gamma <= 1.0 else -shift)


#: node factors are cached for the point counts up to this one
_CACHED_NODES = 2 ** 12


def _node_factor(r: float, q: float, n: int):
    """(z + 1/z, (z^2 - 1)/(z^2 + q)) at the nodes z = r exp(2 pi i k/n) that the
    n-point rule adds: all of them for n = 64, the odd k after each doubling."""
    k = np.arange(n) if n == 64 else np.arange(1, n, 2)
    z = r * np.exp(2j * np.pi * k / n)
    a, b = z + 1.0 / z, (z * z - 1.0) / (z * z + q)
    a.flags.writeable = b.flags.writeable = False  # shared through the cache
    return a, b


#: the radius is a per-tau float where gamma is near 1, so the cache is bounded
_cached_node_factor = functools.lru_cache(maxsize=64)(_node_factor)


def _circle_mean(tau: float, r: float, q: float):
    """(mean, last change, point count) of f(z) z over the nodes on |z| = r.

    (1/2 pi i) closed integral of f dz = mean of f(z) z over the nodes.  n
    doubles from 64 until two means agree within CONTOUR_ACCURACY, up to
    _MAX_NODES; the change returned is then not below CONTOUR_ACCURACY.  From
    tau = _MAX_CONTOUR_TAU on, that is certain, so no node is evaluated: the
    change is returned as inf, at _MAX_NODES.  Below it tau |Im(z + 1/z)| <=
    2.03 + tau * 1e-15 on the circle, so the exponential cannot overflow.
    """
    if tau >= _MAX_CONTOUR_TAU:
        return math.nan, math.inf, _MAX_NODES
    phase = 1j * tau
    total, prev, n = 0j, None, 64
    while True:
        a, b = (_cached_node_factor if n <= _CACHED_NODES else _node_factor)(r, q, n)
        terms = np.exp(phase * a)
        terms *= b
        total += terms.sum()
        mean = total / n
        if prev is not None:
            diff = abs(mean - prev)
            if diff < CONTOUR_ACCURACY or n == _MAX_NODES:
                return mean, diff, n
        prev = mean
        n *= 2


#: bound states require delta^2 - 2 > this margin (delta > sqrt(2);
#: exactly at threshold the ansatz decay factor is not normalizable)
_BOUND_MARGIN = 1e-12


def bound_state_energies(delta: float) -> tuple[float, float] | None:
    """(+Omega, -Omega) in units of beta for delta > sqrt(2), else None.

    The exponential-ansatz solution of the semi-infinite chain has decay
    factor 1/gamma per site, normalizable only for gamma > 1; the pair of
    discrete energies +-delta^2/sqrt(delta^2-1) then sits outside the
    band [-2, 2].
    """
    delta = _check_delta(delta)
    if delta * delta - 2.0 <= _BOUND_MARGIN:
        return None
    omega = regime_params(delta).omega
    return (omega, -omega)

"""Survival amplitude c0(tau) of the edge site on the semi-infinite chain.

Three equivalent routes are provided, all in the dimensionless convention
tau = beta*z with beta = 1:

* the piecewise closed forms (exponential/oscillatory leading term plus
  Bessel correction series), in both a ``printed`` and a ``reconciled``
  variant -- see below;
* the contour-integral representation, evaluated as a trapezoid
  quadrature on the unit circle plus the residues of the poles outside it;
* :func:`survival_series`, a single resummed Bessel series

      c0(tau) = J_0(2 tau) + sum_{k>=1} (c^k + c^{k-1}) J_{2k}(2 tau),
      c = 1 - delta^2,

  valid in every regime.  Near delta = 1 it is as well conditioned as
  :func:`c0_contour`, the evaluator to use there, which also covers
  delta >~ 4.9, where this series raises.

The three Bessel series are weight arrays for one kernel,
:func:`_bessel_sum`.  Domains: the series (and :func:`c0_closed_form`)
return to within SERIES_ACCURACY = 1e-8 and raise SeriesDivergenceError
where cancellation would lose more -- at tau <= 4 the closed form for
delta in about [0.970, 1.028], survival_series for delta >~ 4.9, both
wider at larger tau.  :func:`c0_contour` returns to ~1e-10 for every
delta > 0 and tau >= 0, delta = 1 included; it raises QuadratureError where
a pole residue overflows (the printed poles at large delta and tau) or the
quadrature does not converge.

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

Both variants are kept: ``reconciled`` (default) matches the propagation
oracle to ~1e-10; ``printed`` reproduces the literal transcription and
its documented failures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bessel import _tail_order, bessel_j, bessel_j_array
from .errors import InvalidSpecError, QuadratureError, SeriesDivergenceError, _real

#: below this distance c0_closed_form returns the delta = 1 branch, off by at
#: most 1.33 |delta - 1| <= 6.7e-9; past it S_< / S_> raise where they cancel
_CLOSED_FORM_WINDOW = 5e-9

#: documented accuracy of the Bessel series; a larger error bound raises
SERIES_ACCURACY = 1e-8
#: contour refinement agreement
CONTOUR_ACCURACY = 1e-10
#: contour point cap, 16 doublings from 64 (tau = 1e6 converges at exactly this)
_MAX_NODES = 2 ** 22
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
    """delta > 0 with 2 delta^2 finite (a contour pole's residue squares it)."""
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


def c0_critical(tau: float) -> float:
    """Critical branch J_1(2 tau)/tau, with the exact limit 1 at tau = 0."""
    tau = _real(tau, "tau", ">= 0")
    if tau == 0.0:
        return 1.0
    return bessel_j(1, 2.0 * tau) / tau


def _check_variant(variant: str):
    if variant not in _VARIANTS:
        raise InvalidSpecError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _bessel_sum(name: str, tau: float, rho: float, weights) -> float:
    """sum_l w_l J_l(2 tau) for l = 0..L, with w = weights(L) growing like rho^l.

    eps * sum_l |w_l J_l| bounds the sum's rounding error (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 4).  A bound above
    SERIES_ACCURACY, or a weight or term that is not finite, raises
    SeriesDivergenceError instead of returning lost digits.
    """
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


def s_less(tau: float, gamma: float, variant: str = "reconciled") -> float:
    """Correction term for the sub-critical branch (0 < gamma <= 1).

    lead + (1 + 1/gamma^2) (bilateral/2 - even), bilateral = sum over all
    integer l of J_l(2 tau)/gamma^l, even = sum_l J_{2l}(2 tau)/gamma^(2l),
    lead = 2 J_0(2 tau) printed, J_0(2 tau) reconciled.  Pairing orders +-l
    makes the bracket one sum of v_l J_l(2 tau), v_0 = -1/2 and
    v_l = (-1)^(l+1) (gamma^-l - gamma^l)/2.  Domain: accurate to 1e-8;
    raises SeriesDivergenceError where it would cancel past that (gamma -> 0
    i.e. delta -> 1, large tau) or needs more than 10^6 orders.
    """
    _check_variant(variant)
    gamma = _real(gamma, "gamma", "> 0")
    if gamma > 1.0:  # gamma = 1 where delta^2 underflows
        raise InvalidSpecError(f"gamma must be <= 1, got {gamma}")
    tau = _real(tau, "tau", ">= 0")
    pref = 1.0 + 1.0 / (gamma * gamma)
    lead = 2.0 if variant == "printed" else 1.0

    def weights(cap):
        l = np.arange(cap + 1)
        w = 0.5 * pref * np.where(l % 2, 1.0, -1.0) * (gamma ** -l - gamma ** l)
        w[0] = lead - 0.5 * pref
        return w

    return _bessel_sum("s_less", tau, 1.0 / gamma, weights)


def s_greater(tau: float, gamma: float, variant: str = "reconciled") -> float:
    """Correction term for the super-critical branch (gamma > 0).

    J_0(2 tau) - (1 - 1/gamma^2) sum_n sum_{l=n}^{2n} (i tau)^(2n) gamma^e /
    (l! (2n-l)!), e = 2l-2n printed, 2n-2l reconciled.  With l = n + m each
    fixed-m inner sum is (-1)^m J_{2m}(2 tau), so the double sum is
    sum_m (-1)^m r^m J_{2m}(2 tau), r = gamma^2 printed, gamma^-2 reconciled.
    Domain: accurate to 1e-8 (relative to the terms for the growing printed
    weights); raises SeriesDivergenceError like :func:`s_less`, here as
    gamma -> 0 from delta > 1.
    """
    _check_variant(variant)
    gamma = _real(gamma, "gamma", "> 0")
    tau = _real(tau, "tau", ">= 0")
    pref = 1.0 - 1.0 / (gamma * gamma)
    r = gamma * gamma if variant == "printed" else 1.0 / (gamma * gamma)

    def weights(cap):
        w = np.zeros(cap + 1)
        w[::2] = -pref * (-r) ** np.arange(cap // 2 + 1)
        w[0] += 1.0  # the leading J_0(2 tau)
        return w

    return _bessel_sum("s_greater", tau, math.sqrt(r), weights)


def survival_series(delta: float, tau: float) -> float:
    """Regime-independent resummed series for c0(tau); see module docstring.

    Converges for every delta > 0.  Domain: accurate to 1e-8, also around
    delta = 1; its terms grow like exp(delta*tau) and cancel, so it raises
    SeriesDivergenceError for delta >~ 4.9 at tau <= 4 (>~ 1.9 at tau = 20).
    """
    delta = _check_delta(delta)
    tau = _real(tau, "tau", ">= 0")
    c = 1.0 - delta * delta

    def weights(cap):
        ck = c ** np.arange(cap // 2 + 1)  # c^0 .. c^(L/2)
        w = np.zeros(cap + 1)
        w[0] = 1.0
        w[2::2] = ck[1:] + ck[:-1]
        return w

    # |c^k + c^(k-1)| <= 2 max(1, |c|)^k: growth per order sqrt(|c|)
    return _bessel_sum("survival_series", tau, max(1.0, math.sqrt(abs(c))), weights)


def c0_closed_form(delta: float, tau: float, mode: str = "reconciled") -> complex:
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
    """
    _check_variant(mode)
    params = regime_params(delta)
    tau = _real(tau, "tau", ">= 0")
    if abs(delta - 1.0) < _CLOSED_FORM_WINDOW:
        return complex(c0_critical(tau))
    if delta < 1.0:
        val = params.amp / 2.0 * math.exp(-params.omega * tau) + s_less(
            tau, params.gamma, variant=mode
        )
    else:
        val = params.amp * math.cos(params.omega * tau) + s_greater(
            tau, params.gamma, variant=mode
        )
    return complex(val)


def c0_contour(delta: float, tau: float, pole_convention: str = "reconciled") -> complex:
    """Contour-integral evaluation of c0(tau): circle quadrature + outer residues.

    c0 = (1/2 pi i) closed integral over |z| = r of f(z) dz plus the
    residues of the poles outside that circle, with
    f(z) = exp(i tau (z + 1/z)) (z^2 - 1) / (z (z^2 + q)).  The poles are the
    roots of z^2 + q: q = 1 - delta^2 ('reconciled', poles +-i*gamma for
    delta < 1 and +-gamma for delta > 1) or q = gamma^2 ('printed', poles
    +-i*gamma in both regimes), gamma = sqrt|1 - delta^2|, each with
    Res = (z_p^2 - 1)/(2 z_p^2) exp(i tau (z_p + 1/z_p)).  The circle is the
    unit circle, where the exponential has modulus 1 and the periodic
    trapezoid rule converges geometrically (Trefethen & Weideman, SIAM Rev.
    56, 385, 2014); the poles merge into the origin at delta = 1 without
    touching it.  Where gamma lies within 0.05 of 1 (delta -> 0,
    delta -> sqrt(2)) the radius moves to exp(+-min(0.3, 1/tau)), on the far
    side of the poles, which keeps the exponential below e^2.03.  The point
    count doubles from 64 until two refinements agree within
    CONTOUR_ACCURACY, up to 2^22 points.

    Domain: reconciled values are within ~1e-10 of the exact amplitude for
    every delta > 0 and tau >= 0 (printed values are wrong for delta > 1
    and run away past sqrt(2)).  Raises QuadratureError where a pole residue overflows
    or 16 doublings (2^22 points) do not converge (tau >~ 1.048e6), and
    InvalidSpecError for a delta or tau that is not a finite real number,
    delta <= 0, an infinite 2 delta^2, tau < 0 or an unknown pole convention.
    """
    _check_variant(pole_convention)
    delta = _check_delta(delta)
    tau = _real(tau, "tau", ">= 0")

    q = 1.0 - delta * delta
    if pole_convention == "printed":
        q = abs(q)
    gamma = math.sqrt(abs(q))  # modulus of both poles
    r = 1.0
    if abs(gamma - 1.0) < 0.05:  # poles this close slow the trapezoid rule: step past them
        shift = min(0.3, 1.0 / tau) if tau > 0 else 0.3  # tau |r - 1/r| <= 2.03
        r = math.exp(shift if gamma <= 1.0 else -shift)
    total = 0j
    if gamma > r:
        zp = cmath.sqrt(-q)
        try:
            total = sum(
                (z * z - 1.0) / (2.0 * z * z) * cmath.exp(1j * tau * (z + 1.0 / z))
                for z in (zp, -zp)
            )
        except OverflowError:
            total = complex(math.inf)
        if not cmath.isfinite(total):  # an exp near the limit can overflow in the sum
            raise QuadratureError(f"pole residue overflows at delta={delta}, tau={tau}")

    n = 64
    prev, diff = None, math.inf
    while n <= _MAX_NODES:
        z = r * np.exp(2j * np.pi * np.arange(n) / n)
        # (1/2 pi i) closed integral of f dz = mean of f(z) z over the nodes
        val = complex(np.mean(np.exp(1j * tau * (z + 1.0 / z)) * (z * z - 1.0) / (z * z + q)))
        if prev is not None:
            diff = abs(val - prev)
            if diff < CONTOUR_ACCURACY:
                return total + val
        prev = val
        n *= 2
    raise QuadratureError(
        f"contour quadrature did not converge with {_MAX_NODES} points "
        f"(delta={delta}, tau={tau})",
        achieved=diff,
    )


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
    d2 = delta * delta
    if d2 - 2.0 <= _BOUND_MARGIN:
        return None
    omega = d2 / math.sqrt(d2 - 1.0)
    return (omega, -omega)

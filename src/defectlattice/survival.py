"""Survival amplitude c0(tau) of the edge site on the semi-infinite chain.

Three equivalent routes are provided, all in the dimensionless convention
tau = beta*z with beta = 1:

* the piecewise closed forms (exponential/oscillatory leading term plus
  Bessel correction series), in both a ``printed`` and a ``reconciled``
  variant -- see below;
* the contour-integral representation, evaluated as two analytic pole
  residues plus a small-circle trapezoid quadrature around the essential
  singularity at the origin;
* :func:`survival_series`, a single resummed Bessel series

      c0(tau) = J_0(2 tau) + sum_{k>=1} (c^k + c^{k-1}) J_{2k}(2 tau),
      c = 1 - delta^2,

  valid in every regime and the best conditioned evaluator near
  delta = 1.

The three Bessel series are weight arrays for one kernel,
:func:`_bessel_sum`.  Domains: the series (and :func:`c0_closed_form`)
return to within SERIES_ACCURACY = 1e-8 and raise SeriesDivergenceError
where cancellation would lose more -- at tau <= 4 the closed form for
delta in about [0.970, 1.028], survival_series for delta >~ 4.9, both
wider at larger tau.  :func:`c0_contour` returns to ~1e-10 and raises
QuadratureError where its quadrature is ill conditioned.

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

from .bessel import bessel_j, bessel_j_array
from .errors import InvalidSpecError, QuadratureError, SeriesDivergenceError

#: below this distance from delta = 1 c0_contour refuses (gamma -> 0 drives
#: its poles into the essential singularity at the origin)
CRITICAL_WINDOW = 1e-6
#: below this distance c0_closed_form returns the delta = 1 branch, off by at
#: most 1.33 |delta - 1| <= 6.7e-9; past it S_< / S_> raise where they cancel
_CLOSED_FORM_WINDOW = 5e-9

#: documented accuracy of the Bessel series; a larger error bound raises
SERIES_ACCURACY = 1e-8
#: contour refinement agreement, and the bound on its rounding error
CONTOUR_ACCURACY = 1e-10
_EPS = float(np.finfo(float).eps)

_VARIANTS = ("reconciled", "printed")


@dataclass(frozen=True)
class SeriesTolerance:
    """Truncation policy for the correction series."""

    abs_tol: float = 1e-12
    max_terms: int = 10 ** 6

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise InvalidSpecError("abs_tol must be > 0")
        if self.max_terms < 1:
            raise InvalidSpecError("max_terms must be >= 1")


DEFAULT_TOL = SeriesTolerance()


@dataclass(frozen=True)
class RegimeParams:
    """Derived constants gamma, A, Omega and the regime tag for a given delta.

    amp (A) and omega are None exactly at delta = 1, where the closed form
    degenerates to the critical Bessel branch.
    """

    delta: float
    gamma: float
    amp: float | None
    omega: float | None
    regime: str


def regime_params(delta: float) -> RegimeParams:
    """gamma = sqrt|1-delta^2|, A = (delta^2-2)/(delta^2-1), Omega = delta^2/gamma."""
    if not (isinstance(delta, (int, float)) and math.isfinite(delta) and delta > 0):
        raise InvalidSpecError(f"delta must be a finite number > 0, got {delta!r}")
    d2 = delta * delta
    gamma = math.sqrt(abs(1.0 - d2))
    if delta == 1.0:
        return RegimeParams(delta, 0.0, None, None, "critical")
    amp = (d2 - 2.0) / (d2 - 1.0)
    omega = d2 / gamma
    regime = "sub_critical" if delta < 1.0 else "super_critical"
    return RegimeParams(delta, gamma, amp, omega, regime)


def c0_critical(tau: float) -> float:
    """Critical branch J_1(2 tau)/tau, with the exact limit 1 at tau = 0."""
    if tau < 0:
        raise InvalidSpecError("tau must be >= 0")
    if tau == 0.0:
        return 1.0
    return bessel_j(1, 2.0 * tau) / tau


def _check_variant(variant: str):
    if variant not in _VARIANTS:
        raise InvalidSpecError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _order_cap(y: float, tol: SeriesTolerance, name: str) -> int:
    """Smallest order L > y = rho*x/2 with y^L / L! < abs_tol; as
    |w_l J_l(x)| <~ y^l / l!, every later term is smaller.  The search
    stops at e^2 y - ln(abs_tol), where ln(y^L / L!) <= -L.
    """
    if y == 0.0:
        return 0
    if y <= tol.max_terms:  # false for inf and nan
        hi = min(tol.max_terms, int(math.e ** 2 * y - math.log(tol.abs_tol)) + 1)
        orders = np.arange(1, hi + 1)
        log_terms = np.cumsum(math.log(y) - np.log(orders))
        past = orders[(orders > y) & (log_terms < math.log(tol.abs_tol))]
        if past.size:
            return int(past[0])
    raise SeriesDivergenceError(f"{name} needs more than {tol.max_terms} orders")


def _bessel_sum(name: str, tau: float, rho: float, weights, tol: SeriesTolerance) -> float:
    """sum_l w_l J_l(2 tau) for l = 0..L, with w = weights(L) growing like rho^l.

    eps * sum_l |w_l J_l| bounds the sum's rounding error (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 4).  A bound above
    SERIES_ACCURACY, or a weight or term that is not finite, raises
    SeriesDivergenceError instead of returning lost digits.
    """
    x = 2.0 * tau
    cap = _order_cap(0.5 * rho * x, tol, name)
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
            f"(error bound {_EPS * scale:.1e} > {SERIES_ACCURACY:g}); survival_series is "
            "well conditioned near delta = 1",
            last_term=abs(float(terms[-1])),
        )
    return float(np.sum(terms))


def s_less(
    tau: float,
    gamma: float,
    tol: SeriesTolerance = DEFAULT_TOL,
    variant: str = "printed",
) -> float:
    """Correction term for the sub-critical branch (0 < gamma <= 1).

    lead + (1 + 1/gamma^2) (bilateral/2 - even), bilateral = sum over all
    integer l of J_l(2 tau)/gamma^l, even = sum_l J_{2l}(2 tau)/gamma^(2l),
    lead = 2 J_0(2 tau) printed, J_0(2 tau) reconciled.  Pairing orders +-l
    makes the bracket one sum of v_l J_l(2 tau), v_0 = -1/2 and
    v_l = (-1)^(l+1) (gamma^-l - gamma^l)/2.  Domain: accurate to 1e-8;
    raises SeriesDivergenceError where it would cancel past that (gamma -> 0
    i.e. delta -> 1, large tau) or needs more than tol.max_terms orders.
    """
    _check_variant(variant)
    if not 0.0 < gamma <= 1.0:  # gamma = 1 where delta^2 underflows
        raise InvalidSpecError(f"s_less needs 0 < gamma <= 1, got {gamma}")
    if tau < 0:
        raise InvalidSpecError("tau must be >= 0")
    pref = 1.0 + 1.0 / (gamma * gamma)
    lead = 2.0 if variant == "printed" else 1.0

    def weights(cap):
        l = np.arange(cap + 1)
        w = 0.5 * pref * np.where(l % 2, 1.0, -1.0) * (gamma ** -l - gamma ** l)
        w[0] = lead - 0.5 * pref
        return w

    return _bessel_sum("s_less", tau, 1.0 / gamma, weights, tol)


def s_greater(
    tau: float,
    gamma: float,
    tol: SeriesTolerance = DEFAULT_TOL,
    variant: str = "printed",
) -> float:
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
    if not gamma > 0:
        raise InvalidSpecError(f"s_greater needs gamma > 0, got {gamma}")
    if tau < 0:
        raise InvalidSpecError("tau must be >= 0")
    pref = 1.0 - 1.0 / (gamma * gamma)
    r = gamma * gamma if variant == "printed" else 1.0 / (gamma * gamma)

    def weights(cap):
        w = np.zeros(cap + 1)
        w[::2] = -pref * (-r) ** np.arange(cap // 2 + 1)
        w[0] += 1.0  # the leading J_0(2 tau)
        return w

    return _bessel_sum("s_greater", tau, math.sqrt(r), weights, tol)


def survival_series(delta: float, tau: float, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """Regime-independent resummed series for c0(tau); see module docstring.

    Converges for every delta > 0.  Domain: accurate to 1e-8, also around
    delta = 1; its terms grow like exp(delta*tau) and cancel, so it raises
    SeriesDivergenceError for delta >~ 4.9 at tau <= 4 (>~ 1.9 at tau = 20).
    """
    if not delta > 0:
        raise InvalidSpecError(f"delta must be > 0, got {delta}")
    if tau < 0:
        raise InvalidSpecError("tau must be >= 0")
    c = 1.0 - delta * delta

    def weights(cap):
        ck = c ** np.arange(cap // 2 + 1)  # c^0 .. c^(L/2)
        w = np.zeros(cap + 1)
        w[0] = 1.0
        w[2::2] = ck[1:] + ck[:-1]
        return w

    # |c^k + c^(k-1)| <= 2 max(1, |c|)^k: growth per order sqrt(|c|)
    return _bessel_sum("survival_series", tau, max(1.0, math.sqrt(abs(c))), weights, tol)


def c0_closed_form(
    delta: float,
    tau: float,
    tol: SeriesTolerance = DEFAULT_TOL,
    mode: str = "reconciled",
) -> complex:
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
    raise SeriesDivergenceError (survival_series covers that band).
    """
    _check_variant(mode)
    params = regime_params(delta)
    if abs(delta - 1.0) < _CLOSED_FORM_WINDOW:
        return complex(c0_critical(tau))
    if delta < 1.0:
        val = params.amp / 2.0 * math.exp(-params.omega * tau) + s_less(
            tau, params.gamma, tol, variant=mode
        )
    else:
        val = params.amp * math.cos(params.omega * tau) + s_greater(
            tau, params.gamma, tol, variant=mode
        )
    return complex(val)


def _pole_pair(delta: float, convention: str) -> list[complex]:
    """Poles of the contour integrand: roots of z^2 + (1 - delta^2).

    'printed' reads the denominator as z^2 + gamma^2 with
    gamma = sqrt|1-delta^2| (poles +-i*gamma in both regimes);
    'reconciled' keeps the sign of 1 - delta^2, which moves the poles to
    the real axis (+-gamma) for delta > 1.
    """
    g = math.sqrt(abs(1.0 - delta * delta))
    if convention == "printed" or delta < 1.0:
        return [1j * g, -1j * g]
    return [complex(g), complex(-g)]


def c0_contour(
    delta: float,
    tau: float,
    n_points_start: int = 64,
    pole_convention: str = "reconciled",
) -> complex:
    """Contour-integral evaluation of c0(tau): pole residues + origin quadrature.

    The two simple poles contribute analytically,
    Res = (z_p^2 - 1)/(2 z_p^2) * exp(i tau (z_p + 1/z_p)); the essential
    singularity at z = 0 is integrated by the periodic trapezoid rule on
    a circle of radius r0 = min(1, 0.9*gamma) (inside the poles), with the
    point count doubled until two refinements agree within
    CONTOUR_ACCURACY.  A radius at or below 1 bounds |exp(i tau (z + 1/z))|
    by exp(tau (1/r0 - r0)); one large circle past the poles would lose
    ~exp(tau(r - 1/r)) digits.  Domain: raises QuadratureError before the
    quadrature where eps times that bound exceeds CONTOUR_ACCURACY (near
    delta = 1, and at large tau below it) or a residue overflows, and during
    it once the refinement difference stops shrinking while below the
    grid's rounding floor eps * max|f z|.  Near delta = 1 that floor passes
    CONTOUR_ACCURACY through the factor 1/(z^2 + 1 - delta^2) the bound
    leaves out; where it stays below, the rule cannot fire before convergence.
    """
    if pole_convention not in ("printed", "reconciled"):
        raise InvalidSpecError(f"unknown pole convention {pole_convention!r}")
    if not delta > 0:
        raise InvalidSpecError(f"delta must be > 0, got {delta}")
    if abs(delta - 1.0) < CRITICAL_WINDOW:
        raise InvalidSpecError(
            "contour evaluation degenerates at delta = 1 (use the critical branch)"
        )
    if tau < 0:
        raise InvalidSpecError("tau must be >= 0")
    if n_points_start < 4:
        raise InvalidSpecError("n_points_start must be >= 4")

    d2 = delta * delta
    gamma = math.sqrt(abs(1.0 - d2))
    poles = _pole_pair(delta, pole_convention)
    # denominator quadratic consistent with the chosen pole pair
    quad_c = gamma * gamma if pole_convention == "printed" else (1.0 - d2)

    r0 = min(1.0, 0.9 * gamma)
    growth = tau * (1.0 / r0 - r0)  # log of the integrand's peak on the circle
    if growth > math.log(CONTOUR_ACCURACY / _EPS):
        raise QuadratureError(
            f"quadrature ill conditioned at delta={delta}, tau={tau}: error "
            f"~eps*exp({growth:.3g}) > {CONTOUR_ACCURACY:g}",
            achieved=_EPS * math.exp(min(growth, 709.0)),
        )
    try:
        total = sum(
            (zp * zp - 1.0) / (2.0 * zp * zp) * cmath.exp(1j * tau * (zp + 1.0 / zp))
            for zp in poles
        )
    except OverflowError:
        raise QuadratureError(f"pole residue overflows at delta={delta}, tau={tau}") from None

    n = int(n_points_start)
    prev, diff = None, math.inf
    for _ in range(20):
        theta = 2.0 * np.pi * np.arange(n) / n
        z = r0 * np.exp(1j * theta)
        f = np.exp(1j * tau * (z + 1.0 / z)) * (z * z - 1.0) / (z * (z * z + quad_c))
        fz = f * z
        val = complex(np.sum(fz) / n)  # (1/2*pi*i) * closed integral
        if prev is not None:
            last, diff = diff, abs(val - prev)
            if diff < CONTOUR_ACCURACY:
                return total + val
            floor = _EPS * float(np.max(np.abs(fz)))
            if last <= diff < floor:  # rounding noise that more points cannot lower
                raise QuadratureError(
                    f"origin quadrature stalls under its rounding floor {floor:.1e} "
                    f"(delta={delta}, tau={tau}, n={n})",
                    achieved=diff,
                )
        prev = val
        n *= 2
    raise QuadratureError(
        f"origin quadrature did not converge after 20 doublings "
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
    if not delta > 0:
        raise InvalidSpecError(f"delta must be > 0, got {delta}")
    d2 = delta * delta
    if d2 - 2.0 <= _BOUND_MARGIN:
        return None
    omega = d2 / math.sqrt(d2 - 1.0)
    return (omega, -omega)

"""Exception types shared across the toolkit, and the integer and real input checks."""

import math
import numbers


class InvalidSpecError(ValueError):
    """A lattice/grid/parameter specification violates its invariants."""


class InvalidComparisonError(ValueError):
    """Two systems that must share parameters do not."""


class InsufficientDataError(ValueError):
    """Not enough samples to perform the requested reduction."""


class SeriesDivergenceError(RuntimeError):
    """A series evaluation hit its term cap before converging.

    Carries ``last_term`` (magnitude of the last computed term) so callers
    can report how far from convergence the evaluation stopped.
    """

    def __init__(self, message, last_term=None):
        super().__init__(message)
        self.last_term = last_term


class QuadratureError(RuntimeError):
    """Contour quadrature failed to converge; carries the achieved tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class EigensolverError(RuntimeError):
    """An eigenvalue solve did not converge."""


class GeometryError(ValueError):
    """Waveguide geometry incompatible with the transverse grid."""


class DegenerateInputError(ValueError):
    """An input field is identically zero (or otherwise degenerate)."""


class SigmaExtractionError(RuntimeError):
    """No interior index minima found when extracting profile widths."""


class FitFailureError(RuntimeError):
    """Profile fit ended below the acceptable fidelity threshold."""


def _integer(value, name: str, minimum: int | None = None) -> int:
    """value as an int; InvalidSpecError unless it is finite and integral
    (10, 10.0 and np.int64(10) all pass) and not below minimum."""
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise InvalidSpecError(f"{name} must be an integer, got {value}")
    if minimum is not None and value < minimum:
        raise InvalidSpecError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _real(value, name: str, bound: str = "") -> float:
    """value as a float; InvalidSpecError unless it is a real number (not a string,
    None, complex or array, 0-d included), finite and within bound "> 0", ">= 0" or ""."""
    try:  # float first: a concrete type is checked far faster than the ABC
        x = float(value) if isinstance(value, (float, numbers.Real)) else math.nan
    except OverflowError:  # an int past the float range
        x = math.inf
    if not (math.isfinite(x) and (x > 0 if bound == "> 0" else x >= 0 or not bound)):
        raise InvalidSpecError(f"{name} must be finite{bound and ' and ' + bound}, got {value}")
    return x

"""Exception types shared across the toolkit, and the integer, real and real-array input checks."""

import math
import numbers

import numpy as np


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


def _real_array(values, name: str, bound: str = "") -> np.ndarray:
    """values as a float64 array (values itself when it is one); InvalidSpecError unless it
    holds real numbers (no strings, None or complex) that each pass _real with bound."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nested sequence
        raise InvalidSpecError(
            f"{name} must be an array of real numbers, got a ragged sequence") from None
    if arr.dtype.kind not in "biuf":
        raise InvalidSpecError(f"{name} must be an array of real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    ok = np.isfinite(arr)
    if bound:
        ok &= arr > 0 if bound == "> 0" else arr >= 0
    if not ok.all():  # _real raises for the first entry that fails, named by its index
        at = np.unravel_index(np.argmin(ok), ok.shape)
        _real(arr[at], f"{name}[{', '.join(map(str, at))}]", bound)
    return arr


def _real_or_vector(value, name: str, bound: str = ""):
    """A float through _real, or for a list, tuple or array of at least one dimension a
    1-D float64 array through _real_array (InvalidSpecError for any other shape)."""
    if not (isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim):
        return _real(value, name, bound)  # which refuses a 0-d array, as every scalar site does
    arr = _real_array(value, name, bound)
    if arr.ndim != 1:
        raise InvalidSpecError(
            f"{name} must be a real number or a 1-D array, got shape {arr.shape}")
    return arr

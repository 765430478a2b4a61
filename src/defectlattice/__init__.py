"""Boundary-defect tight-binding lattice toolkit.

Exact finite-chain dynamics, closed-form survival amplitudes for the
semi-infinite limit, finite-size deviation metrics, and an
eigenmode-expansion optical simulator for the waveguide-array
realization.
"""

from . import eme
from .errors import (
    DegenerateInputError,
    EigensolverError,
    FitFailureError,
    GeometryError,
    InsufficientDataError,
    InvalidComparisonError,
    InvalidSpecError,
    QuadratureError,
    SeriesDivergenceError,
    SigmaExtractionError,
)
from .bessel import bessel_j, bessel_j_array
from .lattice import (
    AmplitudeTrace,
    LatticeSpec,
    TimeGrid,
    TridiagonalOperator,
    build_hamiltonian,
    effective_decay_rate,
    initial_state,
    propagate,
    site_probabilities,
)
from .survival import (
    RegimeParams,
    bound_state_energies,
    c0_closed_form,
    c0_contour,
    c0_critical,
    regime_params,
    s_greater,
    s_less,
    survival_series,
)
from .finitesize import (
    DeviationSeries,
    deviation,
    onset_time,
)
from .experiments import (
    ComparisonReport,
    EmeConfig,
    EmeRun,
    ExperimentPreset,
    compare_models,
    pair_splitting_beta,
    preset,
    preset_labels,
    rms_error,
    run_eme,
)

__version__ = "0.1.0"

__all__ = [
    "eme",
    "DegenerateInputError",
    "EigensolverError",
    "FitFailureError",
    "GeometryError",
    "InsufficientDataError",
    "InvalidComparisonError",
    "InvalidSpecError",
    "QuadratureError",
    "SeriesDivergenceError",
    "SigmaExtractionError",
    "bessel_j",
    "bessel_j_array",
    "AmplitudeTrace",
    "LatticeSpec",
    "TimeGrid",
    "TridiagonalOperator",
    "build_hamiltonian",
    "effective_decay_rate",
    "initial_state",
    "propagate",
    "site_probabilities",
    "RegimeParams",
    "bound_state_energies",
    "c0_closed_form",
    "c0_contour",
    "c0_critical",
    "regime_params",
    "s_greater",
    "s_less",
    "survival_series",
    "DeviationSeries",
    "deviation",
    "onset_time",
    "ComparisonReport",
    "EmeConfig",
    "EmeRun",
    "ExperimentPreset",
    "compare_models",
    "pair_splitting_beta",
    "preset",
    "preset_labels",
    "rms_error",
    "run_eme",
]

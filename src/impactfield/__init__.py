"""Total-impact matrices for linear diffusion on networks.

The package computes the exact diffusion propagator ``(I - W)^-1`` for a
radius-normalized, attenuated adjacency matrix; approximates it from a
handful of eigenmodes as a function of hop distance; and bundles the
analysis loop (decay curves, exponential fits, exact-versus-approximate
dyad correlations) behind the ``impactfield`` command line tool.
"""

from .analysis import (
    CorrelationRecord,
    CurvePoint,
    DecayCurve,
    ExponentialFit,
    StudyCell,
    Treatment,
    dyad_correlation,
    fit_exponential,
    mean_impact_by_distance,
    run_study,
)
from .errors import (
    ConjugateClosureError,
    ConvergenceError,
    DefectivenessError,
    DomainError,
    EdgeListParseError,
    EmptyCurveError,
    GraphValidationError,
    ImpactfieldError,
    InsufficientDataError,
    NormalizationError,
    NumericalError,
    SolverError,
    UndefinedCorrelationError,
    ValidationError,
)
from .graph import (
    DistanceMatrix,
    Graph,
    generate_er,
    generate_preferential,
    geodesic_distances,
    parse_edge_list,
    serialize_edge_list,
    symmetrize_weak,
)
from .impact import (
    ImpactMatrix,
    WeightMatrix,
    approx_impact,
    build_weight,
    exact_propagator,
    gamma_grid,
)
from .spectral import (
    DEFAULT_DENSE_THRESHOLD,
    ModeSet,
    SpectralDecomposition,
    decompose,
    select_modes,
    spectral_radius,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Graph",
    "DistanceMatrix",
    "parse_edge_list",
    "serialize_edge_list",
    "symmetrize_weak",
    "geodesic_distances",
    "generate_er",
    "generate_preferential",
    "SpectralDecomposition",
    "ModeSet",
    "spectral_radius",
    "decompose",
    "select_modes",
    "DEFAULT_DENSE_THRESHOLD",
    "WeightMatrix",
    "ImpactMatrix",
    "build_weight",
    "gamma_grid",
    "exact_propagator",
    "approx_impact",
    "Treatment",
    "CurvePoint",
    "DecayCurve",
    "ExponentialFit",
    "CorrelationRecord",
    "StudyCell",
    "mean_impact_by_distance",
    "fit_exponential",
    "dyad_correlation",
    "run_study",
    "ImpactfieldError",
    "ValidationError",
    "GraphValidationError",
    "NormalizationError",
    "DomainError",
    "EmptyCurveError",
    "InsufficientDataError",
    "UndefinedCorrelationError",
    "EdgeListParseError",
    "NumericalError",
    "ConvergenceError",
    "DefectivenessError",
    "SolverError",
    "ConjugateClosureError",
]

"""Exception and warning types shared across the package.

Each error class carries the process exit code the CLI maps it to:
1 for validation problems, 2 for input parse failures, 3 for numerical
failures (non-convergence, defective matrices, singular solves).
"""

from __future__ import annotations


class ImpactfieldError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ValidationError(ImpactfieldError):
    """Input or configuration violates a documented precondition."""

    exit_code = 1


class GraphValidationError(ValidationError):
    """Structurally invalid graph data (self-loop, duplicate edge)."""


class NormalizationError(ValidationError):
    """Adjacency cannot be normalized because its spectral radius is zero or not finite."""


class DomainError(ValidationError):
    """Values fall outside the mathematical domain of an operation."""


class EmptyCurveError(ValidationError):
    """No ordered pairs at finite distance >= 1 to aggregate."""


class InsufficientDataError(ValidationError):
    """Fewer data points than the minimum the statistic requires."""


class UndefinedCorrelationError(ValidationError):
    """Pearson correlation is undefined because a vector has zero variance."""


class EdgeListParseError(ImpactfieldError):
    """Malformed edge-list input. Carries a 1-based line number."""

    exit_code = 2

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class NumericalError(ImpactfieldError):
    """Numerical routine failed to produce a trustworthy result."""

    exit_code = 3


class ConvergenceError(NumericalError):
    """Iterative eigensolver did not converge, or estimates disagree."""


class DefectivenessError(NumericalError):
    """Matrix appears defective, or a kept eigenvalue is too ill conditioned to use."""


class SolverError(NumericalError):
    """Linear solve failed or the system is numerically singular."""


class ConjugateClosureError(NumericalError):
    """Imaginary residue left after summing modes that should pair up."""


class AlreadyUndirectedWarning(UserWarning):
    """Symmetrization requested on a graph that is already undirected."""


class NoEdgesWarning(UserWarning):
    """Spectral radius of an edgeless graph is zero by convention."""


class NegativeWeightsWarning(UserWarning):
    """Negative edge weights void the positivity guarantees of the theory."""

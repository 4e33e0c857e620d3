"""Distance-decay curves, exponential fits, dyad correlations, and the
treatment-by-gamma study sweep that ties them together.

All dyad statistics run over ordered pairs at finite hop distance >= 1.
The diagonal and unreachable pairs both hold hop 0, so the dyad set is
``hops >= 1``: the curves never read bin 0 of their per-distance sums,
and the correlations select with ``DistanceMatrix.dyad_mask``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.blas import ddot

from .errors import (
    DomainError,
    EmptyCurveError,
    ImpactfieldError,
    InsufficientDataError,
    UndefinedCorrelationError,
    ValidationError,
)
from .graph import DistanceMatrix, Graph, geodesic_distances, symmetrize_weak
from .impact import (
    ImpactKind,
    ImpactMatrix,
    approx_impact,
    build_weight,
    exact_propagator,
    gamma_grid,
)
from .spectral import DEFAULT_DENSE_THRESHOLD, decompose, select_modes, spectral_radius

__all__ = [
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
    "validate_study_options",
]

DEFAULT_FIT_RANGE = (1, 6)
MIN_DYADS = 3
# a dyad vector whose RMS spread is below this fraction of its mean is flat
FLAT_RTOL = 1e-12


class Treatment(str, Enum):
    DIRECTED = "directed"
    SYMMETRIZED = "symmetrized"


@dataclass(frozen=True)
class CurvePoint:
    distance: int
    mean_impact: float
    n_pairs: int


@dataclass(frozen=True)
class DecayCurve:
    """Mean total impact per hop distance, distances strictly increasing."""

    gamma: float
    treatment: Treatment | None
    points: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class ExponentialFit:
    """Least-squares fit of ``log(mean impact) = intercept + slope * d``."""

    slope: float
    intercept: float
    r_squared: float
    d_range: tuple[int, int]


@dataclass(frozen=True)
class CorrelationRecord:
    network: str
    gamma: float
    treatment: Treatment | None
    order: int
    pearson_r: float
    n_dyads: int


@dataclass(frozen=True, eq=False)
class StudyCell:
    """One (network, treatment, gamma) cell of a study sweep.

    A failed cell carries an error message and exit-code class instead of
    results; the sweep itself never aborts on a single bad cell. Matrices
    are attached only when the caller asked to keep them.
    """

    network: str
    treatment: Treatment
    gamma: float
    curve: DecayCurve | None = None
    fit: ExponentialFit | None = None
    correlations: tuple[CorrelationRecord, ...] = ()
    notes: tuple[str, ...] = ()
    error: str | None = None
    error_code: int = 0
    exact: ImpactMatrix | None = None
    approximations: dict[int, ImpactMatrix] | None = None
    distances: DistanceMatrix | None = None


def mean_impact_by_distance(
    impact: ImpactMatrix, dist: DistanceMatrix, treatment: Treatment | None = None
) -> DecayCurve:
    """Average impact over ordered pairs grouped by hop distance.

    Diagonal (distance 0) and unreachable pairs are excluded. Raises when
    no pair qualifies.
    """
    if dist.n != impact.n:
        raise ValidationError("impact matrix and distances must agree on n")
    counts = dist.pair_counts
    if not counts[1:].any():
        raise EmptyCurveError("no ordered pairs at finite distance >= 1")
    # the diagonal and unreachable pairs hold hop 0, so they all land in
    # bin 0, which no curve point reads
    sums = np.bincount(dist.hops.ravel(), weights=impact.values.ravel(), minlength=len(counts))
    points = tuple(
        CurvePoint(
            distance=int(d),
            mean_impact=float(sums[d] / counts[d]),
            n_pairs=int(counts[d]),
        )
        for d in np.flatnonzero(counts[1:]) + 1
    )
    return DecayCurve(gamma=impact.gamma, treatment=treatment, points=points)


def fit_exponential(
    curve: DecayCurve,
    d_min: int = DEFAULT_FIT_RANGE[0],
    d_max: int = DEFAULT_FIT_RANGE[1],
) -> ExponentialFit:
    """Ordinary least squares of log mean impact against distance.

    Needs at least two curve points inside [d_min, d_max], all with
    positive mean impact. A constant curve fits with slope 0 and, by
    convention, r_squared 0.
    """
    if d_min > d_max:
        raise ValidationError("d_min must not exceed d_max")
    points = [p for p in curve.points if d_min <= p.distance <= d_max]
    if len(points) < 2:
        raise ValidationError(
            f"need at least two curve points in [{d_min}, {d_max}], got {len(points)}"
        )
    if any(p.mean_impact <= 0.0 for p in points):
        raise DomainError("nonpositive mean impact in fit range; log fit undefined")
    x = np.array([p.distance for p in points], dtype=float)
    y = np.log([p.mean_impact for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    predicted = intercept + slope * x
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 0.0 if ss_tot == 0.0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return ExponentialFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        d_range=(d_min, d_max),
    )


def dyad_correlation(
    exact: ImpactMatrix,
    approx: ImpactMatrix,
    dist: DistanceMatrix,
) -> float:
    """Pearson correlation of exact versus approximate impact over dyads.

    The dyad set is every ordered pair at finite distance >= 1.
    """
    if approx.kind is not ImpactKind.APPROX:
        raise ValidationError(f"second argument must be an approximation, got {approx.kind}")
    if exact.n != approx.n or dist.n != exact.n:
        raise ValidationError("impact matrices and distances must agree on n")
    if exact.gamma != approx.gamma:
        raise ValidationError(
            f"gamma mismatch: exact has {exact.gamma!r}, approximation {approx.gamma!r}"
        )
    count = int(dist.pair_counts[1:].sum())
    if count < MIN_DYADS:
        raise InsufficientDataError(f"{count} dyads; need at least {MIN_DYADS}")
    x = exact.values[dist.dyad_mask]
    y = approx.values[dist.dyad_mask]
    x_mean, y_mean = x.mean(), y.mean()
    x -= x_mean
    y -= y_mean
    x_ss, y_ss = ddot(x, x), ddot(y, y)
    # a spread at rounding level is no variance: impact that is constant
    # in exact arithmetic must not be correlated on its rounding noise
    if x_ss <= x.size * (FLAT_RTOL * x_mean) ** 2 or y_ss <= y.size * (FLAT_RTOL * y_mean) ** 2:
        raise UndefinedCorrelationError("zero variance in at least one impact vector")
    denom = float(np.sqrt(x_ss * y_ss))
    return float(min(1.0, max(-1.0, ddot(x, y) / denom)))


def validate_study_options(
    gammas: Sequence[float], orders: Sequence[int], fit_range: tuple[int, int]
) -> None:
    """Check the sweep options that every study entry point shares.

    Raises ValidationError for an empty gamma or order list, a gamma
    outside (0, 1), an order below 1, or a fit range whose lower bound
    exceeds its upper bound.
    """
    if not gammas:
        raise ValidationError("at least one gamma is required")
    for gamma in gammas:
        if not 0.0 < gamma < 1.0:
            raise ValidationError(f"gamma {gamma!r} must lie strictly inside (0, 1)")
    if not orders:
        raise ValidationError("at least one approximation order is required")
    for order in orders:
        if order < 1:
            raise ValidationError(f"order {order!r} must be a positive integer")
    if fit_range[0] > fit_range[1]:
        raise ValidationError("fit range lower bound exceeds upper bound")


def _study_treatments(
    graph: Graph, restrict: tuple[Treatment, ...] | None
) -> list[tuple[Treatment, Graph]]:
    if graph.directed:
        pairs = [
            (Treatment.DIRECTED, graph),
            (Treatment.SYMMETRIZED, symmetrize_weak(graph)),
        ]
    else:
        pairs = [(Treatment.SYMMETRIZED, graph)]
    if restrict is None:
        return pairs
    allowed = set(restrict)
    if Treatment.DIRECTED in allowed and not graph.directed:
        raise ValidationError("directed treatment is inconsistent with undirected input")
    kept = [pair for pair in pairs if pair[0] in allowed]
    if not kept:
        raise ValidationError("no treatment left after restriction")
    return kept


def run_study(
    graph: Graph,
    gammas: list[float] | None = None,
    orders: tuple[int, ...] = (1, 2),
    network: str = "",
    dense_threshold: int = DEFAULT_DENSE_THRESHOLD,
    fit_range: tuple[int, int] = DEFAULT_FIT_RANGE,
    keep_matrices: bool = False,
    treatments: tuple[Treatment, ...] | None = None,
) -> list[StudyCell]:
    """Full treatment-by-gamma sweep for one network.

    Directed input runs both the raw and the symmetrized treatment;
    undirected input only the symmetrized one (``treatments`` can
    restrict that default). Per cell: exact propagator, decay curve,
    exponential fit, and one exact-versus-approximation correlation per
    requested order. A cell that fails validation or numerics is
    recorded with an error marker and the sweep continues. Cells come
    back sorted by (treatment, gamma).
    """
    gammas = sorted(gamma_grid() if gammas is None else gammas)
    orders = tuple(sorted(set(orders)))
    validate_study_options(gammas, orders, fit_range)

    cells: list[StudyCell] = []
    for treatment, treated in _study_treatments(graph, treatments):
        try:
            dist = geodesic_distances(treated)
            rho = spectral_radius(treated, dense_threshold=dense_threshold)
            # only the leading modes feed the approximations, and asking
            # for just those keeps defective transient structure out of
            # the directed decomposition
            if treated.n <= dense_threshold:
                k = min(treated.n, max(orders) + 4)
            else:
                # k >= 1 lets decompose name a graph too small to iterate
                k = max(1, min(treated.n - 2, max(orders) + 4))
            decomposition = decompose(
                treated, normalize=True, k=k, dense_threshold=dense_threshold
            )
        except ImpactfieldError as exc:
            cells.extend(_failed_cell(network, treatment, gamma, exc) for gamma in gammas)
            continue
        for gamma in gammas:
            try:
                cells.append(
                    _run_cell(
                        treated,
                        dist,
                        decomposition,
                        rho,
                        network,
                        treatment,
                        gamma,
                        orders,
                        fit_range,
                        keep_matrices,
                    )
                )
            except ImpactfieldError as exc:
                cells.append(_failed_cell(network, treatment, gamma, exc))
    return cells


def _failed_cell(
    network: str, treatment: Treatment, gamma: float, exc: ImpactfieldError
) -> StudyCell:
    return StudyCell(
        network=network,
        treatment=treatment,
        gamma=gamma,
        error=str(exc),
        error_code=exc.exit_code,
    )


def _run_cell(
    treated: Graph,
    dist: DistanceMatrix,
    decomposition,
    rho: float,
    network: str,
    treatment: Treatment,
    gamma: float,
    orders: tuple[int, ...],
    fit_range: tuple[int, int],
    keep_matrices: bool,
) -> StudyCell:
    # keep no reference to W: it is freed once inverted
    exact = exact_propagator(build_weight(treated, gamma, rho=rho))
    notes: list[str] = []
    curve = mean_impact_by_distance(exact, dist, treatment=treatment)
    fit: ExponentialFit | None
    try:
        fit = fit_exponential(curve, *fit_range)
    except (ValidationError, DomainError) as exc:
        fit = None
        notes.append(f"fit skipped: {exc}")
    records: list[CorrelationRecord] = []
    approximations: dict[int, ImpactMatrix] = {}
    n_dyads = int(dist.pair_counts[1:].sum())
    for order in orders:
        approx = approx_impact(select_modes(decomposition, gamma, order), dist)
        approximations[order] = approx
        try:
            pearson = dyad_correlation(exact, approx, dist)
        except (InsufficientDataError, UndefinedCorrelationError) as exc:
            notes.append(f"order={order} correlation suppressed: {exc}")
            continue
        records.append(
            CorrelationRecord(
                network=network,
                gamma=gamma,
                treatment=treatment,
                order=order,
                pearson_r=pearson,
                n_dyads=n_dyads,
            )
        )
    return StudyCell(
        network=network,
        treatment=treatment,
        gamma=gamma,
        curve=curve,
        fit=fit,
        correlations=tuple(records),
        notes=tuple(notes),
        exact=exact if keep_matrices else None,
        approximations=approximations if keep_matrices else None,
        distances=dist if keep_matrices else None,
    )

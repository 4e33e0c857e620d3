"""Distance-decay curves, exponential fits, dyad correlations, and the
treatment-by-gamma study sweep that ties them together.

All dyad statistics run over ordered pairs at finite hop distance >= 1.
The diagonal and unreachable pairs both hold hop 0, so the dyad set is
``hops >= 1``: the curves never read bin 0 of their per-distance sums,
and the correlations select with that mask, built where it is read.

A study cell reads its matrices in one pass over blocks of rows. Each
block adds to the per-distance sums, and its dyads' Pearson moments
merge into running ones by the pairwise update of Chan, Golub & LeVeque
(1979). ``mean_impact_by_distance`` and ``dyad_correlation`` are the
same sums and moments over a single block. A cell whose W is symmetric
(``Graph._symmetric``) reads only the upper triangle of its rows, in both
sweeps, and doubles its sums and moments, so they still count ordered pairs.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable, Iterator, Sequence
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
    ImpactMatrix,
    _cell_propagator,
    _real_terms,
    _row_blocks,
    _RowReader,
    _TermKernel,
    gamma_grid,
)
from .spectral import DEFAULT_DENSE_THRESHOLD, ModeSet, decompose, select_modes, spectral_radius
from .spectral import _cyclic_nodes

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

DEFAULT_ORDERS = (1, 2)
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
    """Exact-versus-approximation Pearson correlation at one order."""

    order: int
    pearson_r: float
    n_dyads: int


@dataclass(frozen=True, eq=False)
class StudyCell:
    """One (network, treatment, gamma) cell of a study sweep.

    The cell is the only record of its network, treatment and gamma; its
    curve, fit and correlations hold only their own numbers. A failed
    cell carries an error message and exit-code class instead of results;
    the sweep itself never aborts on a single bad cell.
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


def _pair_counts(dist: DistanceMatrix) -> np.ndarray:
    """Ordered pairs per hop count; raises when no pair is at distance >= 1."""
    counts = dist.pair_counts
    if not counts[1:].any():
        raise EmptyCurveError("no ordered pairs at finite distance >= 1")
    return counts


def _curve(sums: np.ndarray, counts: np.ndarray) -> DecayCurve:
    points = tuple(
        CurvePoint(
            distance=int(d),
            mean_impact=float(sums[d] / counts[d]),
            n_pairs=int(counts[d]),
        )
        for d in np.flatnonzero(counts[1:]) + 1
    )
    return DecayCurve(points=points)


def mean_impact_by_distance(impact: ImpactMatrix, dist: DistanceMatrix) -> DecayCurve:
    """Average impact over ordered pairs grouped by hop distance.

    Diagonal (distance 0) and unreachable pairs are excluded. Raises when
    no pair qualifies.
    """
    if dist.n != impact.n:
        raise ValidationError("impact matrix and distances must agree on n")
    counts = _pair_counts(dist)
    sums = np.zeros(len(counts))
    # add.at casts narrow indices through a small buffer, not as a whole
    np.add.at(sums, dist.hops.ravel(), impact.values.ravel())
    return _curve(sums, counts)


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


class _DyadMoments:
    """Running Pearson moments of exact against approximate dyad values.

    Holds the count, both means, both centred sums of squares and the
    centred cross sum. ``merge`` adds the moments of a further block of
    dyads by the pairwise update of Chan, Golub & LeVeque (1979);
    ``pearson`` is the one rule that turns them into a correlation.
    """

    def __init__(self) -> None:
        self.count = 0
        self.x_mean = self.y_mean = 0.0
        self.x_ss = self.y_ss = self.xy = 0.0

    def merge(self, x: np.ndarray, x_mean: float, x_ss: float, y: np.ndarray) -> None:
        """Merge a nonempty block: ``x`` centred, with its mean and centred
        sum of squares, and ``y`` as it is, which is centred in place.

        Into empty moments the share is 1 and the weight 0, so the first
        block's moments are taken as they are.
        """
        y_mean, y_ss = _centre(y)
        total = self.count + x.size
        share = x.size / total
        weight = self.count * share
        dx, dy = x_mean - self.x_mean, y_mean - self.y_mean
        self.x_mean += dx * share
        self.y_mean += dy * share
        self.x_ss += x_ss + dx * dx * weight
        self.y_ss += y_ss + dy * dy * weight
        self.xy += ddot(x, y) + dx * dy * weight
        self.count = total

    def pearson(self) -> float:
        if self.count < MIN_DYADS:
            raise InsufficientDataError(f"{self.count} dyads; need at least {MIN_DYADS}")
        # a spread at rounding level is no variance: impact that is constant
        # in exact arithmetic must not be correlated on its rounding noise
        if (
            self.x_ss <= self.count * (FLAT_RTOL * self.x_mean) ** 2
            or self.y_ss <= self.count * (FLAT_RTOL * self.y_mean) ** 2
        ):
            raise UndefinedCorrelationError("zero variance in at least one impact vector")
        denom = float(np.sqrt(self.x_ss * self.y_ss))
        return float(min(1.0, max(-1.0, self.xy / denom)))


def _centre(values: np.ndarray) -> tuple[float, float]:
    """Centre a nonempty vector in place; return its mean and centred sum of squares."""
    mean = values.mean()
    values -= mean
    return mean, ddot(values, values)


def dyad_correlation(
    exact: ImpactMatrix,
    approx: ImpactMatrix,
    dist: DistanceMatrix,
) -> float:
    """Pearson correlation of exact versus approximate impact over dyads.

    The dyad set is every ordered pair at finite distance >= 1.
    """
    if approx.order is None:
        raise ValidationError("second argument must be an approximation, got an exact matrix")
    if exact.n != approx.n or dist.n != exact.n:
        raise ValidationError("impact matrices and distances must agree on n")
    if exact.gamma != approx.gamma:
        raise ValidationError(
            f"gamma mismatch: exact has {exact.gamma!r}, approximation {approx.gamma!r}"
        )
    moments = _DyadMoments()
    mask = dist.hops >= 1
    x = exact.values[mask]
    if x.size:
        x_mean, x_ss = _centre(x)
        moments.merge(x, x_mean, x_ss, approx.values[mask])
    return moments.pearson()


# rows, their hop counts as intp, exact rows, and approximation rows per order
_DyadBlock = tuple[slice, np.ndarray, np.ndarray, list[np.ndarray]]
# called with a cell's treatment, gamma, ``Graph._symmetric``, orders and blocks
_DyadConsumer = Callable[[Treatment, float, bool, list[int], Iterator[_DyadBlock]], None]


def _dyad_pass(
    read_rows: _RowReader,
    dist: DistanceMatrix,
    mode_sets: list[ModeSet],
    consume: Callable[[Iterator[_DyadBlock]], None] | None = None,
    triangle: bool = False,
) -> tuple[np.ndarray, list[_DyadMoments]]:
    """Curve sums and per-order correlation moments in one pass over row blocks.

    ``mode_sets`` come from ``select_modes`` at rising orders, so each
    one's real terms are a prefix of the next one's: every pair of order
    o has a member below o, and order o + 1 only adds modes from o on.
    Each order's block continues the running sum of the order before it,
    term by term as ``approx_impact`` sums, so its dyads hold the same
    values. Only the dyads are read, so unreachable pairs need no zeroing.

    With ``triangle`` (a symmetric cell) each unordered pair is read once, from
    the upper triangle, and the sums and moments double to count ordered pairs.

    ``consume``, if given, then reads the same blocks from a second sweep with
    no BLAS call: the moments' threaded dot products, interleaved with a pool
    formatting the blocks, would leave BLAS threads spinning on its cores.
    """
    kernel = _TermKernel(mode_sets[-1], dist) if mode_sets else None
    cuts = [len(_real_terms(modes)) for modes in mode_sets]
    sums = np.zeros(len(dist.pair_counts))
    moments = [_DyadMoments() for _ in mode_sets]
    for rows, hops, exact_rows, order_sums in _sweep(read_rows, dist, kernel, cuts, triangle):
        # add.at adds pair by pair in row-major order, as a single call on
        # the whole matrix does, so full rows' curve bits do not depend on blocks
        np.add.at(sums, hops.ravel(), exact_rows.ravel())
        mask = hops >= 1
        x = exact_rows[mask]
        # a block with no dyads (the rows of sinks, say) has no moments
        if not x.size:
            continue
        x_mean, x_ss = _centre(x)
        for moment, block in zip(moments, order_sums):
            moment.merge(x, x_mean, x_ss, block[mask])
    if triangle:
        # a pair's mirror holds the same exact value, and doubling is exact
        sums *= 2.0
        for moment in moments:
            moment.count, moment.x_ss, moment.y_ss, moment.xy = (
                2 * moment.count, 2.0 * moment.x_ss, 2.0 * moment.y_ss, 2.0 * moment.xy
            )
    if consume is not None:
        consume(_dyad_blocks(_sweep(read_rows, dist, kernel, cuts, triangle), dist.n))
    return sums, moments


def _sweep(read_rows: _RowReader, dist: DistanceMatrix, kernel, cuts: list[int], triangle: bool):
    """Per row block: rows, hop counts, exact rows, and each order's rows in turn.

    A ``triangle`` block's columns start at its first row; hop 0 masks its
    diagonal square's diagonal and lower part.
    """
    n, blocks = dist.n, _row_blocks(dist.n, triangle)
    firsts = [rows.start if triangle else 0 for rows in blocks]
    entries = max([(b.stop - b.start) * (n - first) for b, first in zip(blocks, firsts)] or [1])
    buffer, exact_buffer = np.empty(entries), np.empty(entries)
    for rows, first in zip(blocks, firsts):
        # one cast of the narrow hop counts serves every term's table gather
        hops = dist.hops[rows, first:].astype(np.intp)
        if triangle:
            hops[:, : len(hops)][np.tri(len(hops), dtype=bool)] = 0
        exact_rows = read_rows(rows, exact_buffer[: hops.size].reshape(hops.shape))
        block = buffer[: hops.size].reshape(hops.shape)
        yield rows, hops, exact_rows, _order_sums(kernel, cuts, rows, hops, block)


def _order_sums(kernel, cuts: list[int], rows: slice, hops: np.ndarray, block: np.ndarray):
    block.fill(0.0)
    done = 0
    for cut in cuts:
        kernel.add(block, rows, hops, done, cut)
        done = cut
        yield block


def _dyad_blocks(sweep, n: int) -> Iterator[_DyadBlock]:
    """A sweep's blocks in arrays of their own, zeroed where ``approx_impact`` zeroes."""
    for rows, hops, exact_rows, order_sums in sweep:
        reachable = hops >= 1
        # the diagonal: a triangle block's columns start at its first row
        np.fill_diagonal(reachable[:, rows.start - (n - hops.shape[1]) :], True)
        approximations = [np.where(reachable, block, 0.0) for block in order_sums]
        yield rows, hops, exact_rows.copy(), approximations


def validate_study_options(
    gammas: Sequence[float], orders: Sequence[int], fit_range: tuple[int, int]
) -> None:
    """Check the sweep options that every study entry point shares.

    Raises ValidationError for an empty gamma or order list, a gamma
    outside (0, 1), an order below 1, or a fit range that holds fewer
    than two distances >= 1, which no curve can fit.
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
    if max(fit_range[0], 1) >= fit_range[1]:
        raise ValidationError(f"fit range {fit_range} must hold at least two distances >= 1")


def _study_treatments(graph: Graph, symmetrize: bool) -> list[tuple[Treatment, Graph]]:
    if not graph.directed:
        if not symmetrize:
            raise ValidationError("undirected input has only the symmetrized treatment")
        return [(Treatment.SYMMETRIZED, graph)]
    pairs = [(Treatment.DIRECTED, graph)]
    if symmetrize:
        pairs.append((Treatment.SYMMETRIZED, symmetrize_weak(graph)))
    return pairs


def run_study(
    graph: Graph,
    gammas: list[float] | None = None,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
    network: str = "",
    dense_threshold: int = DEFAULT_DENSE_THRESHOLD,
    fit_range: tuple[int, int] = DEFAULT_FIT_RANGE,
    dyads: _DyadConsumer | None = None,
    symmetrize: bool = True,
) -> list[StudyCell]:
    """Full treatment-by-gamma sweep for one network.

    Directed input runs its raw treatment and, unless ``symmetrize`` is
    False, the symmetrized one; undirected input runs only the
    symmetrized one, and ``symmetrize=False`` on it is a ValidationError.
    Per cell: exact propagator, decay curve, exponential fit, and one
    exact-versus-approximation correlation per requested order. A cell
    that fails validation or numerics is recorded with an error marker
    and the sweep continues. Cells come back sorted by (treatment, gamma).

    A treatment whose A is nonsymmetric asks for at most as many modes as
    it has nodes on cycles, and an order above the modes kept is noted,
    not correlated. ``dyads``, if given, reads each cell's row blocks
    (``_DyadConsumer``), each order's rows equal to ``approx_impact``'s,
    in arrays no later block reuses, so a reader may keep them or hand
    them to a pool. A symmetric cell's blocks are ``_row_blocks(n, True)``'s
    triangles: each row from its block's first row on, hop 0 below the diagonal.
    """
    gammas = sorted(set(gamma_grid() if gammas is None else gammas))
    orders = tuple(sorted(set(orders)))
    validate_study_options(gammas, orders, fit_range)

    cells: list[StudyCell] = []
    for treatment, treated in _study_treatments(graph, symmetrize):
        keys = [StudyCell(network, treatment, gamma) for gamma in gammas]
        try:
            dist = geodesic_distances(treated)
            # only the leading modes feed the approximations, and asking
            # for just those keeps defective transient structure out of
            # the nonsymmetric decomposition: each node off the cycles adds
            # an eigenvalue 0, whose modes add nothing at hop >= 1
            limit = treated.n if treated.n <= dense_threshold else treated.n - 2
            if not treated._symmetric:
                limit = min(limit, _cyclic_nodes(treated))
            # k >= 1 lets decompose name a graph too small to iterate
            k = max(1, min(limit, max(orders) + 4))
            decomposition = decompose(treated, k=k, dense_threshold=dense_threshold)
            # the radius decompose normalized by, stored on treated
            rho = spectral_radius(treated, dense_threshold=dense_threshold)
        except ImpactfieldError as exc:
            cells.extend(_failed(key, exc) for key in keys)
            continue
        for key in keys:
            try:
                cell = _run_cell(key, treated, dist, decomposition, rho, orders, fit_range, dyads)
            except ImpactfieldError as exc:
                cell = _failed(key, exc)
            cells.append(cell)
    return cells


def _failed(cell: StudyCell, exc: ImpactfieldError) -> StudyCell:
    return dataclasses.replace(cell, error=str(exc), error_code=exc.exit_code)


def _run_cell(
    cell: StudyCell, treated: Graph, dist: DistanceMatrix, decomposition, rho: float,
    orders: tuple[int, ...], fit_range: tuple[int, int], dyads: _DyadConsumer | None,
) -> StudyCell:
    """The results of ``cell``, the key of one cell of a sweep."""
    gamma = cell.gamma
    read_rows = _cell_propagator(treated, gamma, rho)
    counts = _pair_counts(dist)
    # orders are ascending, so those with modes enough are a prefix
    kept = [order for order in orders if order <= decomposition.num_modes]
    mode_sets = [select_modes(decomposition, gamma, order) for order in kept]
    consume = dyads and functools.partial(dyads, cell.treatment, gamma, treated._symmetric, kept)
    sums, moments = _dyad_pass(read_rows, dist, mode_sets, consume, treated._symmetric)
    curve = _curve(sums, counts)
    notes: list[str] = []
    fit: ExponentialFit | None
    try:
        fit = fit_exponential(curve, *fit_range)
    except (ValidationError, DomainError) as exc:
        fit = None
        notes.append(f"fit skipped: {exc}")
    records: list[CorrelationRecord] = []
    n_dyads = int(counts[1:].sum())
    for order, moment in zip(kept, moments):
        try:
            pearson = moment.pearson()
        except (InsufficientDataError, UndefinedCorrelationError) as exc:
            notes.append(f"order={order} correlation suppressed: {exc}")
            continue
        records.append(CorrelationRecord(order=order, pearson_r=pearson, n_dyads=n_dyads))
    notes.extend(
        f"order={order} correlation suppressed: order {order} exceeds the "
        f"{decomposition.num_modes} modes kept"
        for order in orders[len(kept) :]
    )
    return dataclasses.replace(
        cell, curve=curve, fit=fit, correlations=tuple(records), notes=tuple(notes)
    )

"""Decay-curve, fit, correlation, and study-sweep tests.

The 3-cycle is the main anchor: its propagator entry at hop distance d
is gamma^d / (1 - gamma^3), so the decay curve is exactly log-linear
with slope ln gamma and the fit must come back with r squared 1.
"""

from __future__ import annotations

import itertools
import os
import stat

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import impactfield.analysis
from impactfield.analysis import (
    CorrelationRecord,
    CurvePoint,
    DecayCurve,
    StudyCell,
    Treatment,
    dyad_correlation,
    fit_exponential,
    mean_impact_by_distance,
    run_study,
)
from impactfield.errors import (
    DomainError,
    EmptyCurveError,
    InsufficientDataError,
    UndefinedCorrelationError,
    ValidationError,
)
from impactfield.graph import (
    DistanceMatrix,
    Graph,
    generate_er,
    geodesic_distances,
    parse_edge_list,
    serialize_edge_list,
    symmetrize_weak,
)
from impactfield.impact import (
    ImpactMatrix,
    _propagator,
    _weight_arcs,
    approx_impact,
    build_weight,
    exact_propagator,
    gamma_grid,
)
from impactfield.io import write_correlations_csv, write_curves_csv, write_fits_csv
from impactfield.spectral import (
    DEFAULT_DENSE_THRESHOLD,
    decompose,
    select_modes,
    spectral_radius,
)

from util import (
    TracedMemory,
    arcs,
    assert_curves_close,
    cell_propagator_failing_at,
    complex_approx_impact,
    count_calls,
    cycle_with_trees,
    read_correlations_csv,
    read_curves_csv,
    read_fits_csv,
    reciprocal_digraph,
    streamed_study,
)


def three_cycle():
    return arcs(3, [(0, 1), (1, 2), (2, 0)])


def exact_on(graph: Graph, gamma: float) -> ImpactMatrix:
    return exact_propagator(build_weight(graph, gamma))


def approx_on(graph: Graph, gamma: float, order: int) -> ImpactMatrix:
    modes = select_modes(decompose(graph), gamma, order)
    return approx_impact(modes, geodesic_distances(graph))


# ---------------------------------------------------------------------------
# dyad set


def test_dyad_mask_excludes_diagonal_and_unreachable() -> None:
    g = arcs(4, [(0, 1), (2, 3)], directed=False)
    dist = geodesic_distances(g)
    mask = dist.hops >= 1
    assert mask.sum() == 4  # (0,1), (1,0), (2,3), (3,2)
    assert not mask.diagonal().any()
    assert not mask[0, 2] and not mask[2, 0]
    # reachability is read off the hop counts: the dyads plus the diagonal
    assert not dist.reachable.flags.writeable
    assert np.array_equal(dist.reachable, mask | np.eye(g.n, dtype=bool))


# ---------------------------------------------------------------------------
# decay curves


def test_curve_of_two_cycle() -> None:
    g = arcs(2, [(0, 1)], directed=False)
    curve = mean_impact_by_distance(exact_on(g, 0.5), geodesic_distances(g))
    assert len(curve.points) == 1
    point = curve.points[0]
    assert point.distance == 1
    assert point.n_pairs == 2
    assert point.mean_impact == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_curve_of_three_cycle_follows_closed_form() -> None:
    g = three_cycle()
    for gamma in gamma_grid():
        curve = mean_impact_by_distance(exact_on(g, gamma), geodesic_distances(g))
        assert [p.distance for p in curve.points] == [1, 2]
        assert [p.n_pairs for p in curve.points] == [3, 3]
        for point in curve.points:
            expected = gamma**point.distance / (1.0 - gamma**3)
            assert point.mean_impact == pytest.approx(expected, abs=1e-12)


def test_curve_matches_brute_force_per_distance_mean() -> None:
    # directed, with unreachable pairs; huge impact on the diagonal and at
    # the unreachable pairs must not leak into any point, and a transposed
    # hops would pair the nonsymmetric values with the wrong distances
    g = generate_er(n=40, p=0.06, directed=True, seed=3)
    dist = geodesic_distances(g)
    assert not dist.reachable.all() and not np.array_equal(dist.hops, dist.hops.T)
    values = np.random.default_rng(3).uniform(1.0, 2.0, (g.n, g.n))
    values[~dist.reachable] = 1e9
    np.fill_diagonal(values, 1e9)
    impact = ImpactMatrix(values=values, gamma=0.5)
    totals: dict[int, float] = {}
    pairs: dict[int, int] = {}
    for i in range(g.n):
        for j in range(g.n):
            if i != j and dist.reachable[i, j]:
                d = int(dist.hops[i, j])
                totals[d] = totals.get(d, 0.0) + values[i, j]
                pairs[d] = pairs.get(d, 0) + 1

    curve = mean_impact_by_distance(impact, dist)
    assert [p.distance for p in curve.points] == sorted(pairs)
    for point in curve.points:
        assert point.n_pairs == pairs[point.distance]
        expected = totals[point.distance] / pairs[point.distance]
        assert point.mean_impact == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert sum(p.n_pairs for p in curve.points) == dist.pair_counts[1:].sum()


def test_curve_distances_strictly_increase() -> None:
    g = generate_er(n=40, p=0.08, directed=True, seed=11)
    curve = mean_impact_by_distance(exact_on(g, 0.875), geodesic_distances(g))
    distances = [p.distance for p in curve.points]
    assert distances == sorted(set(distances))
    assert distances[0] >= 1


def test_empty_curve_is_an_error() -> None:
    g = Graph(n=3, directed=True, edges=((0, 1, 1.0), (1, 2, 1.0)))
    sub = Graph(n=3, directed=True, edges=())  # no finite off-diagonal distance
    impact = ImpactMatrix(values=np.eye(3), gamma=0.5)
    with pytest.raises(EmptyCurveError):
        mean_impact_by_distance(impact, geodesic_distances(sub))
    # sanity: the connected version works
    assert mean_impact_by_distance(impact, geodesic_distances(g)).points


def test_curve_rejects_dimension_mismatch() -> None:
    g = three_cycle()
    impact = ImpactMatrix(values=np.eye(2), gamma=0.5)
    with pytest.raises(ValidationError):
        mean_impact_by_distance(impact, geodesic_distances(g))


# ---------------------------------------------------------------------------
# exponential fits


def geometric_curve(ratio: float, count: int = 3) -> DecayCurve:
    points = tuple(
        CurvePoint(distance=d, mean_impact=ratio**d, n_pairs=1) for d in range(1, count + 1)
    )
    return DecayCurve(points=points)


def test_fit_recovers_geometric_slope() -> None:
    fit = fit_exponential(geometric_curve(0.5))
    assert fit.slope == pytest.approx(np.log(0.5), abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.d_range == (1, 6)


def test_fit_on_three_cycle_curve_has_slope_log_gamma() -> None:
    g = three_cycle()
    for gamma in gamma_grid():
        curve = mean_impact_by_distance(exact_on(g, gamma), geodesic_distances(g))
        fit = fit_exponential(curve)
        assert fit.slope == pytest.approx(np.log(gamma), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_constant_curve_fits_flat_with_zero_r_squared() -> None:
    points = tuple(CurvePoint(distance=d, mean_impact=2.0, n_pairs=1) for d in (1, 2, 3))
    fit = fit_exponential(DecayCurve(points=points))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 0.0


def test_fit_ignores_points_outside_the_range() -> None:
    # corrupt the curve beyond d = 6; the default window must not see it
    points = list(geometric_curve(0.5, count=6).points)
    points.append(CurvePoint(distance=7, mean_impact=5.0, n_pairs=1))
    fit = fit_exponential(DecayCurve(points=tuple(points)))
    assert fit.slope == pytest.approx(np.log(0.5), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rejects_nonpositive_means() -> None:
    points = (
        CurvePoint(distance=1, mean_impact=1.0, n_pairs=1),
        CurvePoint(distance=2, mean_impact=0.0, n_pairs=1),
    )
    with pytest.raises(DomainError):
        fit_exponential(DecayCurve(points=points))


def test_fit_needs_two_points_in_range() -> None:
    with pytest.raises(ValidationError):
        fit_exponential(geometric_curve(0.5, count=1))
    with pytest.raises(ValidationError):
        fit_exponential(geometric_curve(0.5), d_min=4, d_max=2)


# ---------------------------------------------------------------------------
# dyad correlations


def test_perfect_approximation_correlates_to_one() -> None:
    g = three_cycle()
    exact = exact_on(g, 0.875)
    approx = approx_on(g, 0.875, order=3)  # full spectrum, equal to exact
    r = dyad_correlation(exact, approx, geodesic_distances(g))
    assert r == pytest.approx(1.0, abs=1e-12)


def test_correlation_is_affine_invariant() -> None:
    g = generate_er(n=15, p=0.3, directed=False, seed=23)
    exact = exact_on(g, 0.75)
    shifted = ImpactMatrix(values=2.0 * exact.values + 5.0, gamma=0.75, order=1)
    flipped = ImpactMatrix(values=-exact.values, gamma=0.75, order=1)
    dist = geodesic_distances(g)
    assert dyad_correlation(exact, shifted, dist) == pytest.approx(1.0, abs=1e-12)
    assert dyad_correlation(exact, flipped, dist) == pytest.approx(-1.0, abs=1e-12)


def test_correlation_needs_three_dyads() -> None:
    g = arcs(2, [(0, 1)], directed=False)  # exactly two ordered dyads
    exact = exact_on(g, 0.5)
    approx = approx_on(g, 0.5, order=1)
    with pytest.raises(InsufficientDataError):
        dyad_correlation(exact, approx, geodesic_distances(g))


def test_constant_vector_has_undefined_correlation() -> None:
    g = three_cycle()
    exact = exact_on(g, 0.5)
    constant = ImpactMatrix(values=np.ones((3, 3)), gamma=0.5, order=1)
    with pytest.raises(UndefinedCorrelationError):
        dyad_correlation(exact, constant, geodesic_distances(g))


def test_rounding_noise_is_no_variance() -> None:
    # a constant impact vector that picked up one ulp of rounding noise
    g = three_cycle()
    exact = exact_on(g, 0.5)
    dist = geodesic_distances(g)
    values = np.full((3, 3), 0.4)
    values[0, 1] = np.nextafter(0.4, 1.0)
    noisy = ImpactMatrix(values=values, gamma=0.5, order=1)
    with pytest.raises(UndefinedCorrelationError):
        dyad_correlation(exact, noisy, dist)
    values[0, 1] = 0.4 * (1.0 + 1e-9)  # a real, if small, spread still correlates
    spread = ImpactMatrix(values=values, gamma=0.5, order=1)
    assert -1.0 <= dyad_correlation(exact, spread, dist) <= 1.0


def test_triangle_correlates_no_order() -> None:
    # every triangle dyad has the same exact impact; any r would be noise
    [cell] = run_study(arcs(3, [(0, 1), (1, 2), (0, 2)], directed=False), gammas=[0.5])
    assert cell.correlations == ()
    assert sum("correlation suppressed" in note for note in cell.notes) == 2


def test_correlation_validates_kind_and_gamma() -> None:
    g = three_cycle()
    exact = exact_on(g, 0.5)
    dist = geodesic_distances(g)
    with pytest.raises(ValidationError, match="approximation"):
        dyad_correlation(exact, exact, dist)  # order None: an exact matrix
    mismatched = approx_on(g, 0.75, order=1)
    with pytest.raises(ValidationError):
        dyad_correlation(exact, mismatched, dist)


# ---------------------------------------------------------------------------
# study sweep


def test_directed_study_covers_both_treatments() -> None:
    g = generate_er(n=20, p=0.2, directed=True, seed=41)
    cells = run_study(g, network="er20")
    assert len(cells) == 10  # 2 treatments x 5 grid gammas
    assert all(cell.error is None for cell in cells)
    assert {cell.treatment for cell in cells} == {Treatment.DIRECTED, Treatment.SYMMETRIZED}
    keys = [(cell.treatment.value, cell.gamma) for cell in cells]
    assert keys == sorted(keys)
    records = [r for cell in cells for r in cell.correlations]
    assert len(records) == 20  # orders (1, 2) per cell
    assert all(cell.network == "er20" for cell in cells)
    assert all(cell.curve is not None and cell.fit is not None for cell in cells)


def test_undirected_study_runs_single_treatment() -> None:
    g = generate_er(n=20, p=0.2, directed=False, seed=43)
    cells = run_study(g, network="u20")
    assert len(cells) == 5
    assert all(cell.treatment is Treatment.SYMMETRIZED for cell in cells)
    assert sum(len(cell.correlations) for cell in cells) == 10


@pytest.mark.parametrize("directed", [True, False])
def test_study_calls_no_numpy_lapack(monkeypatch, directed) -> None:
    # numpy and scipy each bring an OpenBLAS thread pool; a study that
    # alternates between them makes the idle pool spin, so every dense
    # solve and dyad-sized dot must go through scipy
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy BLAS/LAPACK called on the study path")

    for name in ("eig", "eigvals", "eigh", "eigvalsh", "solve", "inv", "cond", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(np, "dot", forbidden)
    g = generate_er(60, 0.08, directed=directed, seed=3)
    cells = run_study(g, gammas=[0.5, 0.9], orders=(1, 2))
    assert cells and all(cell.error is None for cell in cells)


def test_study_runs_one_dense_radius_eigensolve_per_treatment(monkeypatch) -> None:
    # the radius is the largest modulus of the decomposition's own
    # spectrum, so each treatment runs one dense eigensolve and no other,
    # and no ARPACK estimate
    calls = count_calls(monkeypatch, scipy.linalg, ("eig", "eigh", "eigvals", "eigvalsh"))
    arpack = count_calls(monkeypatch, scipy.sparse.linalg, ("eigs", "eigsh"))
    g = generate_er(30, 0.15, directed=True, seed=3)
    cells = run_study(g, gammas=[0.5, 0.9], orders=(1, 2))
    assert len(cells) == 4 and all(cell.error is None for cell in cells)
    assert calls == {"eig": 1, "eigh": 1, "eigvals": 0, "eigvalsh": 0}
    assert arpack == {"eigs": 0, "eigsh": 0}


@pytest.mark.parametrize("directed", [True, False])
def test_study_does_not_depend_on_a_prior_radius_call(directed) -> None:
    # build_weight without rho stores a standalone radius on the graph; the
    # study's decomposition of that same graph normalizes by its own spectrum
    def fresh() -> Graph:
        return generate_er(n=300, p=5 / 299, directed=directed, seed=2)

    alone = run_study(fresh(), gammas=[0.875])
    g = fresh()
    build_weight(g, 0.5)
    after = run_study(g, gammas=[0.875])
    assert all(cell.error is None for cell in alone)
    assert [cell.curve for cell in after] == [cell.curve for cell in alone]
    assert [cell.correlations for cell in after] == [cell.correlations for cell in alone]


def test_dense_radius_of_equal_radius_cycles_is_exact() -> None:
    # the only cycles are a 2-cycle and a 5-cycle, so six eigenvalues have
    # modulus 1; a k=1 ARPACK estimate reads 1.0000002, the dense radius is
    # exact. The directed cells still fail, on the defective cluster.
    g = generate_er(200, 0.006, directed=True, seed=7)
    g = parse_edge_list(serialize_edge_list(g), directed=True)
    assert g.n == 177
    assert spectral_radius(g) == 1.0
    cells = run_study(g, gammas=[0.5, 0.9], orders=(1, 2))
    directed = [cell for cell in cells if cell.treatment is Treatment.DIRECTED]
    assert len(directed) == 2
    assert all(
        cell.error_code == 3 and "Gram matrix is singular" in cell.error for cell in directed
    )


def _scaled(graph: Graph, factor: float) -> Graph:
    edges = tuple((src, dst, weight * factor) for src, dst, weight in graph.edges)
    return Graph(graph.n, graph.directed, edges, graph.labels)


def _reversed(graph: Graph) -> Graph:
    edges = tuple((dst, src, weight) for src, dst, weight in graph.edges)
    return Graph(graph.n, graph.directed, edges, graph.labels)


def _assert_same_study(cells: list[StudyCell], other: list[StudyCell]) -> None:
    assert len(cells) == len(other)
    for cell, twin in zip(cells, other):
        assert cell.error is None and twin.error is None
        assert (cell.treatment, cell.gamma) == (twin.treatment, twin.gamma)
        assert [(p.distance, p.n_pairs) for p in cell.curve.points] == [
            (p.distance, p.n_pairs) for p in twin.curve.points
        ]
        means = np.array([p.mean_impact for p in cell.curve.points])
        twin_means = np.array([p.mean_impact for p in twin.curve.points])
        assert np.max(np.abs(means - twin_means) / means) <= 3e-13
        assert [(r.order, r.n_dyads) for r in cell.correlations] == [
            (r.order, r.n_dyads) for r in twin.correlations
        ]
        for record, twin_record in zip(cell.correlations, twin.correlations):
            assert abs(record.pearson_r - twin_record.pearson_r) <= 2e-14


def probe_graph() -> Graph:
    return generate_er(150, 5 / 149, directed=True, seed=5)


@pytest.mark.parametrize("symmetrized", [False, True])
def test_study_is_invariant_under_weight_scaling(symmetrized) -> None:
    # W = gamma * A / rho(A) does not change when A is scaled, so a radius
    # served from another graph would show here
    graph = symmetrize_weak(probe_graph()) if symmetrized else probe_graph()
    base = run_study(graph, orders=(1, 2, 3))
    for factor in (3.0, 0.25):
        _assert_same_study(base, run_study(_scaled(graph, factor), orders=(1, 2, 3)))


def test_study_is_invariant_under_arc_reversal() -> None:
    # reversing every arc transposes the propagator and the hop counts,
    # which permutes the dyads and leaves every distance class intact
    graph = probe_graph()
    _assert_same_study(
        run_study(graph, orders=(1, 2, 3)), run_study(_reversed(graph), orders=(1, 2, 3))
    )


def test_study_respects_gamma_and_order_selection() -> None:
    g = generate_er(n=15, p=0.25, directed=False, seed=47)
    cells = run_study(g, gammas=[0.9, 0.5], orders=(3,), network="x")
    assert [cell.gamma for cell in cells] == [0.5, 0.9]
    assert all(len(cell.correlations) == 1 for cell in cells)
    assert all(cell.correlations[0].order == 3 for cell in cells)


def test_study_treatment_restriction() -> None:
    g = generate_er(n=15, p=0.25, directed=True, seed=53)
    cells = run_study(g, gammas=[0.5], symmetrize=False)
    assert [cell.treatment for cell in cells] == [Treatment.DIRECTED]
    undirected = generate_er(n=15, p=0.25, directed=False, seed=53)
    with pytest.raises(ValidationError):
        run_study(undirected, symmetrize=False)


def test_study_validates_inputs() -> None:
    g = generate_er(n=10, p=0.3, directed=False, seed=59)
    with pytest.raises(ValidationError):
        run_study(g, gammas=[])
    with pytest.raises(ValidationError):
        run_study(g, gammas=[1.5])
    with pytest.raises(ValidationError):
        run_study(g, orders=())
    with pytest.raises(ValidationError):
        run_study(g, orders=(0,))


@pytest.mark.parametrize("directed", [False, True])
def test_study_streams_the_propagator_and_approximation_rows(directed) -> None:
    g = generate_er(n=12, p=0.3, directed=directed, seed=61)
    orders = (1, 2, 3)
    lean = run_study(g, gammas=[0.5], orders=orders)
    cells, matrices = streamed_study(g, gammas=[0.5], orders=orders)
    # reading the blocks changes no number of the cells
    assert [(c.treatment, c.curve, c.fit, c.correlations, c.notes) for c in cells] == [
        (c.treatment, c.curve, c.fit, c.correlations, c.notes) for c in lean
    ]
    treated = {Treatment.DIRECTED: g, Treatment.SYMMETRIZED: symmetrize_weak(g) if directed else g}
    assert len(cells) == 1 + directed
    assert list(matrices) == [(cell.treatment, 0.5) for cell in cells]
    for cell in cells:
        graph = treated[cell.treatment]
        exact, approximations, hops = matrices[cell.treatment, 0.5]
        dist = geodesic_distances(graph)
        assert cell.error is None and np.array_equal(hops, dist.hops)
        assert np.array_equal(exact, exact_propagator(build_weight(graph, 0.5)).values)
        # the pass sums each order on from the one before; its rows must
        # still be the standalone approximations, bit for bit
        decomposition = decompose(graph, k=max(orders) + 4)
        assert list(approximations) == list(orders)
        for order, approx in approximations.items():
            expected = approx_impact(select_modes(decomposition, 0.5, order), dist)
            assert np.array_equal(approx, expected.values)


@pytest.mark.parametrize("cycle", [2, 3, 4, 5])
def test_digraph_with_fewer_cycle_nodes_than_padded_modes_decomposes(cycle) -> None:
    # each node off the cycle adds an eigenvalue 0, whose eigenspace the
    # trees make defective; a request for max(orders) + 4 modes reached it
    # and failed every directed cell on the Gram check
    g = cycle_with_trees(cycle, 60, seed=cycle)
    cells, matrices = streamed_study(g, gammas=[0.5, 0.875], symmetrize=False)
    assert [cell.error for cell in cells] == [None, None]
    assert all([r.order for r in cell.correlations] == [1, 2] for cell in cells)
    dist = geodesic_distances(g)
    decomposition = decompose(g, k=cycle)
    for cell in cells:
        approximation = matrices[cell.treatment, cell.gamma][1][1]
        expected = complex_approx_impact(select_modes(decomposition, cell.gamma, 1), dist)
        np.testing.assert_allclose(approximation, expected, rtol=1e-12, atol=1e-15)


def growth_until_pass(monkeypatch, graph: Graph, **options):
    """The cells of ``run_study`` and, per cell, whether its pass reads a
    triangle and the traced growth from the start of its propagator to its pass.
    """
    growth: list[tuple[bool, int]] = []
    build, dyad_pass = impactfield.analysis._cell_propagator, impactfield.analysis._dyad_pass

    def marking_cell_propagator(*args, **kwargs):
        memory.mark()
        return build(*args, **kwargs)

    def measuring_dyad_pass(read_rows, dist, mode_sets, consume, triangle):
        growth.append((triangle, memory.growth()))
        return dyad_pass(read_rows, dist, mode_sets, consume, triangle)

    monkeypatch.setattr("impactfield.analysis._cell_propagator", marking_cell_propagator)
    monkeypatch.setattr("impactfield.analysis._dyad_pass", measuring_dyad_pass)
    with TracedMemory() as memory:
        cells = run_study(graph, **options)
    return cells, growth


@pytest.mark.parametrize("n", [400, 401])
def test_directed_cell_holds_two_dense_matrices_until_its_pass(monkeypatch, n) -> None:
    # I - W is built from the arcs straight into a column-major identity,
    # which getrf factorizes in place and getrs solves into a second one,
    # so from the start of the cell to its pass the cell adds two n x n
    # arrays and small temporaries; a dense W, or a copy made for LAPACK,
    # would add a third
    g = generate_er(n=n, p=5.0 / (n - 1), directed=True, seed=1)
    hops = geodesic_distances(g).hops.nbytes
    cells, growth = growth_until_pass(monkeypatch, g, gammas=[0.5, 0.875], orders=(1, 2))
    assert [cell.error for cell in cells] == [None] * 4
    # one pass per cell builds every order's approximation
    directed = [size for triangle, size in growth if not triangle]
    assert len(growth) == len(cells) and len(directed) == 2
    assert all(2 * 8 * n * n < size < 2.25 * 8 * n * n + hops for size in directed)


def test_reciprocal_digraph_treatments_agree() -> None:
    # arcs in equal-weight pairs make A symmetric, so the directed treatment
    # takes the symmetrized one's eigensolver (eigh, or ARPACK's eigsh above
    # the threshold), packed Cholesky and triangle pass, on the same dense
    # adjacency, CSR layout and hops, in either arc order: the same bits
    gammas = [0.5, 0.875, 0.96875]
    g = reciprocal_digraph(generate_er(n=60, p=0.1, directed=False, seed=5))
    reversed_arcs = Graph(n=g.n, directed=True, edges=g.edges[::-1])
    thresholds = (DEFAULT_DENSE_THRESHOLD, 10)
    for graph, dense_threshold in itertools.product((g, reversed_arcs), thresholds):
        cells = run_study(graph, gammas=gammas, orders=(1, 2), dense_threshold=dense_threshold)
        assert [cell.error for cell in cells] == [None] * 6
        directed, symmetrized = cells[:3], cells[3:]
        for raw, sym in zip(directed, symmetrized):
            assert (raw.treatment, sym.treatment) == (Treatment.DIRECTED, Treatment.SYMMETRIZED)
            assert [r.order for r in raw.correlations] == [1, 2]
            assert (raw.curve, raw.fit, raw.correlations, raw.notes) == (
                sym.curve, sym.fit, sym.correlations, sym.notes
            )


@pytest.mark.parametrize("n", [400, 401])
def test_symmetric_cell_holds_half_a_dense_matrix_until_its_pass(monkeypatch, n) -> None:
    # I - W is built from the arcs straight into packed storage and
    # inverted there, so from the start of the cell to its pass the cell
    # adds n(n + 1)/2 floats and small temporaries; a dense W or inverse
    # would add at least n^2
    g = generate_er(n=n, p=5.0 / (n - 1), directed=False, seed=1)
    cells, growth = growth_until_pass(monkeypatch, g, gammas=[0.875], orders=(1, 2))
    assert [cell.error for cell in cells] == [None]
    assert len(growth) == 1 and 4 * n * (n + 1) < growth[0][1] < 0.6 * 8 * n * n


def test_reciprocal_directed_cell_holds_half_a_dense_matrix_until_its_pass(monkeypatch) -> None:
    # a digraph whose arcs come in equal-weight pairs has a symmetric W, so
    # its directed cell takes the packed route and the triangle pass:
    # n(n + 1)/2 floats, where LU would hold two n x n arrays
    n = 400
    g = reciprocal_digraph(generate_er(n=n, p=5.0 / (n - 1), directed=False, seed=1))
    cells, growth = growth_until_pass(
        monkeypatch, g, gammas=[0.875], orders=(1, 2), symmetrize=False
    )
    assert [cell.error for cell in cells] == [None]
    assert [triangle for triangle, _ in growth] == [True]
    assert 4 * n * (n + 1) < growth[0][1] < 0.6 * 8 * n * n


def test_dyad_pass_allocates_no_n_by_n_array(monkeypatch) -> None:
    # the pass reads each block's dyads through a block-sized mask, so a
    # cached n x n bool mask (n^2 bytes) would show in its peak; two-row
    # blocks keep the pass's own O(n) arrays near a third of the bound
    n = 800
    peaks: list[int] = []
    dyad_pass = impactfield.analysis._dyad_pass

    def measuring_dyad_pass(*args, **kwargs):
        memory.mark()
        result = dyad_pass(*args, **kwargs)
        peaks.append(memory.growth())
        return result

    monkeypatch.setattr("impactfield.impact._BLOCK_ENTRIES", 2 * n)
    monkeypatch.setattr("impactfield.analysis._dyad_pass", measuring_dyad_pass)
    g = generate_er(n=n, p=5.0 / (n - 1), directed=False, seed=1)
    with TracedMemory() as memory:
        cells = run_study(g, gammas=[0.875], orders=(1, 2))
    assert [cell.error for cell in cells] == [None]
    assert len(peaks) == 1 and peaks[0] < n * n / 2


def test_mean_impact_by_distance_casts_no_whole_hop_array() -> None:
    # hops are uint16 here, the wider index of the two this graph could
    # come in; an intp copy of the whole array would be 8 n^2 bytes, and
    # the curve needs none
    n = 800
    g = generate_er(n=n, p=5.0 / (n - 1), directed=False, seed=1)
    dist = DistanceMatrix(hops=geodesic_distances(g).hops.astype(np.uint16))
    assert dist.hops.dtype == np.uint16
    dist.pair_counts  # cached before the measurement
    impact = ImpactMatrix(values=np.random.default_rng(2).random((n, n)), gamma=0.5)
    with TracedMemory() as memory:
        curve = mean_impact_by_distance(impact, dist)
        peak = memory.growth()
    assert peak < n * n
    # the narrow indices add in the same order as intp ones, so the bits hold
    sums = np.zeros(len(dist.pair_counts))
    np.add.at(sums, dist.hops.ravel().astype(np.intp), impact.values.ravel())
    assert [p.mean_impact for p in curve.points] == [
        sums[p.distance] / p.n_pairs for p in curve.points
    ]


def sink_rows_digraph() -> Graph:
    # nodes 0-2 are sinks, so their rows of the hop matrix hold no dyad
    cycle = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 3), (4, 9)]
    return arcs(10, cycle + [(3, 0), (5, 1), (8, 2)])


def isolated_components_graph() -> Graph:
    # nodes 0-2 have no edge; a triangle and a path are the components
    return arcs(11, [(3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (8, 9), (9, 10)], directed=False)


@pytest.mark.parametrize(
    "graph",
    [sink_rows_digraph(), isolated_components_graph()],
    ids=["sink-rows", "isolated-components"],
)
@pytest.mark.parametrize("rows", [1, 2, 3, None])
def test_blocked_statistics_match_the_whole_matrix_ones(monkeypatch, graph, rows) -> None:
    # a study cell sums its curve and merges its correlation moments over
    # blocks of rows, and blocks of 1-3 rows include some with no dyad
    monkeypatch.setattr("impactfield.impact._BLOCK_ENTRIES", (rows or graph.n) * graph.n)
    orders = (1, 2, 3)
    cells, matrices = streamed_study(graph, gammas=[0.5, 0.9375], orders=orders)
    assert cells and all(cell.error is None for cell in cells)
    # the symmetrized digraph has no sinks
    empty = [cell for cell in cells if cell.treatment is Treatment.DIRECTED or not graph.directed]
    assert empty and not any((matrices[c.treatment, c.gamma][2][:3] >= 1).any() for c in empty)
    for cell in cells:
        assert_statistics_of_the_whole_matrices(cell, matrices[cell.treatment, cell.gamma], orders)


def assert_statistics_of_the_whole_matrices(cell: StudyCell, matrices, orders) -> None:
    """A cell's curve and correlations against those of its streamed whole matrices.

    A directed cell's curve has their bits; a symmetrized one sums one
    triangle in its own order, so its points agree to 1e-12 relative.
    """
    values, approximations, hops = matrices
    exact, dist = ImpactMatrix(values=values, gamma=cell.gamma), DistanceMatrix(hops=hops)
    whole_curve = mean_impact_by_distance(exact, dist)
    if cell.treatment is Treatment.DIRECTED:
        assert cell.curve == whole_curve
    else:
        assert_curves_close(cell.curve, whole_curve)
    assert [record.order for record in cell.correlations] == list(orders)
    for record in cell.correlations:
        approx = ImpactMatrix(approximations[record.order], cell.gamma, order=record.order)
        whole = dyad_correlation(exact, approx, dist)
        assert record.pearson_r == pytest.approx(whole, rel=1e-12, abs=0.0)


TRIANGLE_GRAPHS = {
    "odd": generate_er(n=13, p=0.3, directed=False, seed=3),
    "even": generate_er(n=12, p=0.3, directed=False, seed=4),
    # unreachable pairs lie inside the triangle and its diagonal squares
    "two-components": arcs(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 5), (7, 8), (8, 9)],
        directed=False,
    ),
    "weighted": Graph(
        n=9,
        directed=False,
        edges=tuple(
            (i, j, 0.5 + 1.5 * w)
            for (i, j), w in zip(
                [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (0, 8), (2, 6)],
                np.random.default_rng(5).random(10),
            )
        ),
    ),
}


@pytest.mark.parametrize("graph", TRIANGLE_GRAPHS.values(), ids=TRIANGLE_GRAPHS.keys())
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_triangle_pass_matches_the_whole_matrix_statistics(monkeypatch, graph, rows) -> None:
    # an undirected cell reads each unordered pair once and doubles its
    # sums and moments; the whole matrices, which the dyad reader mirrors
    # from the same triangles, must give the same curve and correlations
    # to rounding
    monkeypatch.setattr("impactfield.impact._BLOCK_ENTRIES", rows * graph.n)
    n, half = graph.n, graph.n - graph.n // 2
    # blocks of more than one row would straddle half but for the cut there
    assert rows == 1 or any(
        b.stop == half and b.start + rows * n // (n - b.start) > half
        for b in impactfield.impact._row_blocks(n, triangle=True)
    )
    orders = (1, 2, 3)
    cells, matrices = streamed_study(graph, gammas=[0.5, 0.9375], orders=orders)
    assert cells and all(cell.error is None for cell in cells)
    for cell in cells:
        assert_statistics_of_the_whole_matrices(cell, matrices[cell.treatment, cell.gamma], orders)


TINY_UNDIRECTED = {
    "one-edge": arcs(2, [(0, 1)], directed=False),
    "two-edges": arcs(4, [(0, 1), (2, 3)], directed=False),
    "path": arcs(3, [(0, 1), (1, 2)], directed=False),
}


@pytest.mark.parametrize("graph", TINY_UNDIRECTED.values(), ids=TINY_UNDIRECTED.keys())
def test_triangle_pass_counts_ordered_dyads_on_tiny_graphs(monkeypatch, graph) -> None:
    # a triangle holds half the dyads, which must not reach MIN_DYADS or
    # the flat-vector gate halved: records and notes are the full rows'
    # ones, read from an LU inverse of the same system
    cells = run_study(graph, orders=(1, 2))
    dyad_pass = impactfield.analysis._dyad_pass

    def lu_propagator(treated, gamma, rho):
        return _propagator(treated.n, *_weight_arcs(treated, gamma, rho)[:3], False)

    monkeypatch.setattr("impactfield.analysis._cell_propagator", lu_propagator)
    monkeypatch.setattr(
        "impactfield.analysis._dyad_pass", lambda *args: dyad_pass(*args[:4], False)
    )
    expected = run_study(graph, orders=(1, 2))
    assert [cell.error for cell in cells] == [cell.error for cell in expected]
    for cell, want in zip(cells, expected):
        assert cell.notes == want.notes
        assert_curves_close(cell.curve, want.curve)
        assert [(r.order, r.n_dyads) for r in cell.correlations] == [
            (r.order, r.n_dyads) for r in want.correlations
        ]
        for record, want_record in zip(cell.correlations, want.correlations):
            assert record.pearson_r == pytest.approx(want_record.pearson_r, rel=1e-12, abs=0.0)


def test_failed_treatment_yields_error_cells_not_an_abort() -> None:
    # acyclic digraph: the directed treatment cannot be normalized, the
    # symmetrized one can
    g = Graph(n=3, directed=True, edges=((0, 1, 1.0), (1, 2, 1.0)))
    cells = run_study(g, network="dag")
    directed = [c for c in cells if c.treatment is Treatment.DIRECTED]
    symmetrized = [c for c in cells if c.treatment is Treatment.SYMMETRIZED]
    assert len(directed) == len(symmetrized) == 5
    assert all(c.error is not None and c.error_code != 0 for c in directed)
    assert all(c.curve is None for c in directed)
    assert all(c.error is None for c in symmetrized)


def test_cell_failing_after_its_treatment_decomposed_keeps_the_others(monkeypatch) -> None:
    # the decomposition succeeds; only the gamma=0.9 cell's solve fails
    monkeypatch.setattr("impactfield.analysis._cell_propagator", cell_propagator_failing_at(0.9))
    g = generate_er(n=15, p=0.25, directed=False, seed=47)
    kept, failed = run_study(g, gammas=[0.5, 0.9], network="x")
    assert (kept.gamma, kept.error, kept.error_code) == (0.5, None, 0)
    assert kept.curve is not None and len(kept.correlations) == 2
    assert (failed.gamma, failed.error, failed.error_code) == (
        0.9,
        "singular system at gamma=0.9",
        3,
    )
    assert failed.curve is None and failed.correlations == ()


def test_acyclic_digraph_cells_are_validation_failures() -> None:
    # its radius is 0 by structure; ARPACK noise against the dense zero
    # must not turn that into a convergence failure (exit code 3)
    rng = np.random.default_rng(0)
    src, dst = np.nonzero(np.triu(rng.random((10, 10)) < 0.3, 1))
    g = arcs(10, zip(src.tolist(), dst.tolist()))
    cells = run_study(g, network="dag", symmetrize=False)
    assert [cell.error_code for cell in cells] == [1] * 5


def test_cycle_closed_by_a_zero_weight_arc_is_a_validation_failure() -> None:
    # the zero-weight arc is no entry of A, so A stays nilpotent: the
    # radius is 0 by structure, not ARPACK noise against a dense zero
    rng = np.random.default_rng(0)
    src, dst = np.nonzero(np.triu(rng.random((10, 10)) < 0.3, 1))
    dag = arcs(10, zip(src.tolist(), dst.tolist()))
    g = Graph(n=10, directed=True, edges=dag.edges + ((9, 0, 0.0),))
    cells = run_study(g, network="dag", symmetrize=False)
    assert [cell.error_code for cell in cells] == [1] * 5
    assert {cell.error for cell in cells} == {"cannot normalize: spectral radius is zero"}


def test_sparse_cells_record_notes_instead_of_failing() -> None:
    # the 2-cycle has one curve point and two dyads: fit and correlation
    # both degrade to notes
    g = arcs(2, [(0, 1)], directed=False)
    cells = run_study(g, gammas=[0.5])
    assert len(cells) == 1
    cell = cells[0]
    assert cell.error is None
    assert cell.fit is None
    assert cell.correlations == ()
    assert any("fit skipped" in note for note in cell.notes)
    assert any("correlation suppressed" in note for note in cell.notes)


# ---------------------------------------------------------------------------
# CSV round-trips


def test_study_csv_round_trip(tmp_path) -> None:
    g = generate_er(n=18, p=0.25, directed=True, seed=67)
    cells = run_study(g, gammas=[0.5, 0.875], network="rt")

    write_curves_csv(tmp_path / "curves.csv", cells)
    write_fits_csv(tmp_path / "fits.csv", cells)
    write_correlations_csv(tmp_path / "correlations.csv", cells)
    curves = read_curves_csv(tmp_path / "curves.csv")
    fits = read_fits_csv(tmp_path / "fits.csv")
    correlations = read_correlations_csv(tmp_path / "correlations.csv")
    # every table row sits under its cell's key, and each cell reads back whole
    keys = [(cell.network, cell.treatment, cell.gamma) for cell in cells]
    assert list(curves) == list(fits) == list(correlations) == keys
    for key, cell in zip(keys, cells):
        assert curves[key] == cell.curve
        assert fits[key] == cell.fit
        assert correlations[key] == cell.correlations
        assert all(isinstance(r, CorrelationRecord) for r in correlations[key])


def test_error_cells_are_skipped_when_writing(tmp_path) -> None:
    cells = [
        StudyCell(network="bad", treatment=Treatment.DIRECTED, gamma=0.5, error="x", error_code=1)
    ]
    path = tmp_path / "curves.csv"
    write_curves_csv(path, cells)
    assert read_curves_csv(path) == {}


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_csv_mode_follows_the_umask(tmp_path, umask, mode) -> None:
    cells = run_study(generate_er(n=18, p=0.25, directed=False, seed=67), gammas=[0.5])
    path = tmp_path / "curves.csv"
    previous = os.umask(umask)
    try:
        write_curves_csv(path, cells)
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == mode

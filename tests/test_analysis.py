"""Decay-curve, fit, correlation, and study-sweep tests.

The 3-cycle is the main anchor: its propagator entry at hop distance d
is gamma^d / (1 - gamma^3), so the decay curve is exactly log-linear
with slope ln gamma and the fit must come back with r squared 1.
"""

from __future__ import annotations

import gc
import os
import stat
import weakref

import numpy as np
import pytest

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
from impactfield.graph import Graph, generate_er, geodesic_distances
from impactfield.impact import (
    ImpactKind,
    ImpactMatrix,
    approx_impact,
    build_weight,
    exact_propagator,
    gamma_grid,
)
from impactfield.io import write_correlations_csv, write_curves_csv, write_fits_csv
from impactfield.spectral import decompose, select_modes

from util import arcs, read_correlations_csv, read_curves_csv, read_fits_csv


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
    mask = geodesic_distances(g).dyad_mask
    assert mask.sum() == 4  # (0,1), (1,0), (2,3), (3,2)
    assert not mask.flags.writeable
    assert not mask.diagonal().any()
    assert not mask[0, 2] and not mask[2, 0]


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
    impact = ImpactMatrix(n=g.n, values=values, kind=ImpactKind.EXACT, gamma=0.5)
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
    impact = ImpactMatrix(n=3, values=np.eye(3), kind=ImpactKind.EXACT, gamma=0.5)
    with pytest.raises(EmptyCurveError):
        mean_impact_by_distance(impact, geodesic_distances(sub))
    # sanity: the connected version works
    assert mean_impact_by_distance(impact, geodesic_distances(g)).points


def test_curve_rejects_dimension_mismatch() -> None:
    g = three_cycle()
    impact = ImpactMatrix(n=2, values=np.eye(2), kind=ImpactKind.EXACT, gamma=0.5)
    with pytest.raises(ValidationError):
        mean_impact_by_distance(impact, geodesic_distances(g))


# ---------------------------------------------------------------------------
# exponential fits


def geometric_curve(ratio: float, count: int = 3) -> DecayCurve:
    points = tuple(
        CurvePoint(distance=d, mean_impact=ratio**d, n_pairs=1) for d in range(1, count + 1)
    )
    return DecayCurve(gamma=0.5, treatment=None, points=points)


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
    fit = fit_exponential(DecayCurve(gamma=0.5, treatment=None, points=points))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 0.0


def test_fit_ignores_points_outside_the_range() -> None:
    # corrupt the curve beyond d = 6; the default window must not see it
    points = list(geometric_curve(0.5, count=6).points)
    points.append(CurvePoint(distance=7, mean_impact=5.0, n_pairs=1))
    fit = fit_exponential(DecayCurve(gamma=0.5, treatment=None, points=tuple(points)))
    assert fit.slope == pytest.approx(np.log(0.5), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rejects_nonpositive_means() -> None:
    points = (
        CurvePoint(distance=1, mean_impact=1.0, n_pairs=1),
        CurvePoint(distance=2, mean_impact=0.0, n_pairs=1),
    )
    with pytest.raises(DomainError):
        fit_exponential(DecayCurve(gamma=0.5, treatment=None, points=points))


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
    shifted = ImpactMatrix(
        n=g.n, values=2.0 * exact.values + 5.0, kind=ImpactKind.APPROX, gamma=0.75, order=1
    )
    flipped = ImpactMatrix(
        n=g.n, values=-exact.values, kind=ImpactKind.APPROX, gamma=0.75, order=1
    )
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
    constant = ImpactMatrix(
        n=3, values=np.ones((3, 3)), kind=ImpactKind.APPROX, gamma=0.5, order=1
    )
    with pytest.raises(UndefinedCorrelationError):
        dyad_correlation(exact, constant, geodesic_distances(g))


def test_rounding_noise_is_no_variance() -> None:
    # a constant impact vector that picked up one ulp of rounding noise
    g = three_cycle()
    exact = exact_on(g, 0.5)
    dist = geodesic_distances(g)
    values = np.full((3, 3), 0.4)
    values[0, 1] = np.nextafter(0.4, 1.0)
    noisy = ImpactMatrix(n=3, values=values, kind=ImpactKind.APPROX, gamma=0.5, order=1)
    with pytest.raises(UndefinedCorrelationError):
        dyad_correlation(exact, noisy, dist)
    values[0, 1] = 0.4 * (1.0 + 1e-9)  # a real, if small, spread still correlates
    spread = ImpactMatrix(n=3, values=values, kind=ImpactKind.APPROX, gamma=0.5, order=1)
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
    with pytest.raises(ValidationError):
        dyad_correlation(exact, exact, dist)  # second argument not an approximation
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
    assert all(r.network == "er20" for r in records)
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


def test_study_respects_gamma_and_order_selection() -> None:
    g = generate_er(n=15, p=0.25, directed=False, seed=47)
    cells = run_study(g, gammas=[0.9, 0.5], orders=(3,), network="x")
    assert [cell.gamma for cell in cells] == [0.5, 0.9]
    assert all(len(cell.correlations) == 1 for cell in cells)
    assert all(cell.correlations[0].order == 3 for cell in cells)


def test_study_treatment_restriction() -> None:
    g = generate_er(n=15, p=0.25, directed=True, seed=53)
    cells = run_study(g, gammas=[0.5], treatments=(Treatment.DIRECTED,))
    assert [cell.treatment for cell in cells] == [Treatment.DIRECTED]
    undirected = generate_er(n=15, p=0.25, directed=False, seed=53)
    with pytest.raises(ValidationError):
        run_study(undirected, treatments=(Treatment.DIRECTED,))


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


def test_study_keeps_matrices_only_on_request() -> None:
    g = generate_er(n=12, p=0.3, directed=False, seed=61)
    lean = run_study(g, gammas=[0.5])[0]
    assert lean.exact is None and lean.approximations is None and lean.distances is None
    kept = run_study(g, gammas=[0.5], keep_matrices=True)[0]
    assert kept.exact is not None
    assert set(kept.approximations) == {1, 2}
    assert kept.distances is not None
    w = build_weight(g, 0.5)
    assert np.array_equal(kept.exact.values, exact_propagator(w).values)
    modes = select_modes(decompose(g, k=6), 0.5, 2)
    approx = approx_impact(modes, kept.distances).values
    assert approx.shape == (g.n, g.n)
    assert np.array_equal(kept.approximations[2].values, approx)


def test_study_frees_the_weight_matrix_before_approximating(monkeypatch) -> None:
    # the approximation reads only the modes and the hop counts, so no
    # dense W may stay alive past its inversion
    weights: list[weakref.ref] = []
    approximated = 0

    def recording_build_weight(*args, **kwargs):
        weight = build_weight(*args, **kwargs)
        weights.append(weakref.ref(weight))
        return weight

    def checking_approx_impact(*args, **kwargs):
        nonlocal approximated
        gc.collect()
        assert weights and all(ref() is None for ref in weights)
        approximated += 1
        return approx_impact(*args, **kwargs)

    monkeypatch.setattr("impactfield.analysis.build_weight", recording_build_weight)
    monkeypatch.setattr("impactfield.analysis.approx_impact", checking_approx_impact)
    g = generate_er(n=30, p=0.15, directed=True, seed=11)
    cells = run_study(g, gammas=[0.5, 0.875], orders=(1, 2))
    assert cells and all(cell.error is None for cell in cells)
    assert len(weights) == len(cells) and approximated == 2 * len(cells)


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


def test_acyclic_digraph_cells_are_validation_failures() -> None:
    # its radius is 0 by structure; ARPACK noise against the dense zero
    # must not turn that into a convergence failure (exit code 3)
    rng = np.random.default_rng(0)
    src, dst = np.nonzero(np.triu(rng.random((10, 10)) < 0.3, 1))
    g = arcs(10, zip(src.tolist(), dst.tolist()))
    cells = run_study(g, network="dag", treatments=(Treatment.DIRECTED,))
    assert [cell.error_code for cell in cells] == [1] * 5


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

    curves_path = tmp_path / "curves.csv"
    write_curves_csv(curves_path, cells)
    curves = read_curves_csv(curves_path)
    for cell in cells:
        back = curves[(cell.network, cell.treatment, cell.gamma)]
        assert back.points == cell.curve.points

    fits_path = tmp_path / "fits.csv"
    write_fits_csv(fits_path, cells)
    fits = read_fits_csv(fits_path)
    for cell in cells:
        back = fits[(cell.network, cell.treatment, cell.gamma)]
        assert back == cell.fit

    correlations_path = tmp_path / "correlations.csv"
    write_correlations_csv(correlations_path, cells)
    records = read_correlations_csv(correlations_path)
    assert records == [r for cell in cells for r in cell.correlations]
    assert all(isinstance(r, CorrelationRecord) for r in records)


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

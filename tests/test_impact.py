"""Impact computation tests.

Hand-checkable anchors: the undirected 2-cycle at gamma = 0.5 (dense
propagator [[4/3, 2/3], [2/3, 4/3]]) and the directed 3-cycle, whose
propagator entry at hop distance d is gamma^d / (1 - gamma^3). Random
graphs cross-check the factorized solve against the truncated power
series, the spectral approximation, and the distance factorization.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from impactfield.errors import (
    ConjugateClosureError,
    NegativeWeightsWarning,
    NormalizationError,
    SolverError,
    ValidationError,
)
from impactfield.graph import Graph, generate_er, geodesic_distances
from impactfield.impact import (
    ImpactKind,
    WeightMatrix,
    approx_impact,
    build_weight,
    equilibrium_state,
    exact_propagator,
    gamma_grid,
)
from impactfield.spectral import decompose, select_modes

from util import (
    arcs,
    complex_approx_impact,
    distance_factored_impact,
    hop_distance,
    series_oracle,
    series_terms_for_tolerance,
    small_er_corpus,
    twin_three_cycles,
)


def two_cycle():
    return arcs(2, [(0, 1)], directed=False)


def three_cycle():
    return arcs(3, [(0, 1), (1, 2), (2, 0)])


# ---------------------------------------------------------------------------
# attenuation grid and weight construction


def test_gamma_grid_is_binary_exact() -> None:
    assert gamma_grid() == [0.5, 0.75, 0.875, 0.9375, 0.96875]


def test_build_weight_on_two_cycle() -> None:
    w = build_weight(two_cycle(), gamma=0.5)
    assert w.rho == pytest.approx(1.0, abs=1e-12)
    assert w.W == pytest.approx(np.array([[0.0, 0.5], [0.5, 0.0]]), abs=1e-12)


def test_build_weight_normalizes_to_gamma_radius() -> None:
    rng = np.random.default_rng(7)
    for directed in (True, False):
        for gamma in (0.5, 0.96875):
            g = generate_er(n=25, p=0.25, directed=directed, seed=int(rng.integers(1 << 30)))
            w = build_weight(g, gamma=gamma)
            assert max(np.abs(np.linalg.eigvals(w.W))) == pytest.approx(gamma, abs=1e-8)


def test_build_weight_accepts_precomputed_rho() -> None:
    g = arcs(3, [(0, 1), (1, 2), (0, 2)], directed=False)
    w = build_weight(g, gamma=0.75, rho=2.0)
    assert w.rho == 2.0
    assert w.W == pytest.approx(0.75 * g.adjacency() / 2.0, abs=1e-15)


def test_build_weight_rejects_gamma_outside_unit_interval() -> None:
    g = two_cycle()
    for gamma in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValidationError):
            build_weight(g, gamma=gamma)


def test_build_weight_rejects_edgeless_graph() -> None:
    with pytest.raises(NormalizationError):
        build_weight(Graph(n=3, directed=False, edges=()), gamma=0.5)


def test_build_weight_rejects_acyclic_digraph() -> None:
    with pytest.raises(NormalizationError):
        build_weight(arcs(3, [(0, 1), (1, 2)]), gamma=0.5)


def test_build_weight_warns_on_negative_weights() -> None:
    g = Graph(n=2, directed=True, edges=((0, 1, -1.0), (1, 0, 1.0)))
    with pytest.warns(NegativeWeightsWarning):
        build_weight(g, gamma=0.5)


# ---------------------------------------------------------------------------
# exact propagator


def test_two_cycle_propagator_closed_form() -> None:
    exact = exact_propagator(build_weight(two_cycle(), gamma=0.5))
    expected = np.array([[4.0, 2.0], [2.0, 4.0]]) / 3.0
    assert np.max(np.abs(exact.values - expected)) < 1e-12
    assert exact.kind is ImpactKind.EXACT


def test_three_cycle_propagator_closed_form() -> None:
    g = three_cycle()
    dist = geodesic_distances(g)
    for gamma in gamma_grid():
        exact = exact_propagator(build_weight(g, gamma=gamma))
        expected = gamma ** np.where(dist.reachable, dist.hops, np.inf) / (1.0 - gamma**3)
        assert np.max(np.abs(exact.values - expected)) < 1e-10


def test_propagator_inverts_the_system_matrix() -> None:
    g = generate_er(n=30, p=0.2, directed=True, seed=101)
    w = build_weight(g, gamma=0.875)
    exact = exact_propagator(w)
    identity = (np.eye(w.n) - w.W) @ exact.values
    assert np.max(np.abs(identity - np.eye(w.n))) < 1e-10


def test_symmetric_route_matches_lu_on_identity_corpus() -> None:
    # symmetric W goes through Cholesky and must agree with LU; any other
    # W goes through LU itself, so its values are bitwise the reference
    symmetric = nonsymmetric = 0
    for graph in small_er_corpus():
        for gamma in gamma_grid():
            w = build_weight(graph, gamma)
            system = np.eye(w.n) - w.W
            reference = scipy.linalg.lu_solve(scipy.linalg.lu_factor(system), np.eye(w.n))
            values = exact_propagator(w).values
            if np.array_equal(w.W, w.W.T):
                symmetric += 1
                assert np.max(np.abs(values - reference)) <= 1e-12
                assert np.array_equal(values, values.T)
            else:
                nonsymmetric += 1
                assert np.array_equal(values, reference)
    assert symmetric >= 50 and nonsymmetric >= 50


@pytest.mark.parametrize(
    "w",
    [
        [[0.0, 1.0 - 1e-15], [1.0 - 1e-15, 0.0]],  # symmetric, rcond ~ 5e-16
        [[0.0, 1.0], [1.0, 0.0]],  # symmetric and exactly singular
        [[0.0, 2.0 - 2e-15], [0.5, 0.0]],  # nonsymmetric, rcond ~ 1e-16
    ],
)
def test_singular_system_is_refused_on_both_routes(w) -> None:
    w = np.array(w)
    weight = WeightMatrix(n=2, gamma=0.5, rho=1.0, W=w)
    with pytest.raises(SolverError):
        exact_propagator(weight)


# ---------------------------------------------------------------------------
# series oracle


def test_series_with_one_term_is_identity_plus_weight() -> None:
    w = build_weight(two_cycle(), gamma=0.5)
    series = series_oracle(w, terms=1)
    assert np.array_equal(series.values, np.eye(2) + w.W)
    assert series.kind is ImpactKind.EXACT


def test_series_rejects_nonpositive_terms() -> None:
    w = build_weight(two_cycle(), gamma=0.5)
    with pytest.raises(ValidationError):
        series_oracle(w, terms=0)


def test_series_terms_for_tolerance_closed_form() -> None:
    assert series_terms_for_tolerance(0.5, tol=1e-12) == 41
    # smallest T with gamma^T / (1 - gamma) <= tol, which dominates the
    # true tail gamma^(T+1) / (1 - gamma)
    for gamma in gamma_grid():
        terms = series_terms_for_tolerance(gamma, tol=1e-10)
        assert gamma**terms / (1.0 - gamma) <= 1e-10
        assert gamma ** (terms - 1) / (1.0 - gamma) > 1e-10
    with pytest.raises(ValidationError):
        series_terms_for_tolerance(1.0)
    with pytest.raises(ValidationError):
        series_terms_for_tolerance(0.5, tol=0.0)


def test_series_converges_to_exact_propagator() -> None:
    rng = np.random.default_rng(59)
    for directed in (True, False):
        for gamma in gamma_grid():
            g = generate_er(n=20, p=0.25, directed=directed, seed=int(rng.integers(1 << 30)))
            w = build_weight(g, gamma=gamma)
            exact = exact_propagator(w)
            series = series_oracle(w, terms=series_terms_for_tolerance(gamma, tol=1e-10))
            assert np.max(np.abs(exact.values - series.values)) < 1e-8


# ---------------------------------------------------------------------------
# equilibrium


def test_equilibrium_under_uniform_forcing() -> None:
    w = build_weight(two_cycle(), gamma=0.5)
    assert equilibrium_state(w, np.ones(2)) == pytest.approx([2.0, 2.0], abs=1e-12)


def test_equilibrium_under_point_forcing() -> None:
    w = build_weight(two_cycle(), gamma=0.5)
    assert equilibrium_state(w, np.array([1.0, 0.0])) == pytest.approx(
        [4.0 / 3.0, 2.0 / 3.0], abs=1e-12
    )


def test_equilibrium_is_a_fixed_point() -> None:
    g = generate_er(n=25, p=0.25, directed=True, seed=211)
    w = build_weight(g, gamma=0.9375)
    rng = np.random.default_rng(0)
    z = rng.normal(size=w.n)
    y = equilibrium_state(w, z)
    assert np.max(np.abs(y - (w.W @ y + z))) < 1e-10


def test_equilibrium_validates_forcing_vector() -> None:
    w = build_weight(two_cycle(), gamma=0.5)
    with pytest.raises(ValidationError):
        equilibrium_state(w, np.ones(3))
    with pytest.raises(ValidationError):
        equilibrium_state(w, np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# spectral approximation


def test_first_order_approx_on_single_edge() -> None:
    # B has eigenvalues +-1 with principal vector (1, 1)/sqrt(2); the
    # first-order entry at distance 1 is gamma / (1 - gamma) * 1/2 = 0.5
    # at gamma = 0.5, and the diagonal entry 1 / (1 - gamma) * 1/2 = 1.
    g = two_cycle()
    modes = select_modes(decompose(g), gamma=0.5, order=1)
    approx = approx_impact(modes, geodesic_distances(g))
    assert approx.values == pytest.approx(np.array([[1.0, 0.5], [0.5, 1.0]]), abs=1e-12)
    assert approx.kind is ImpactKind.APPROX
    assert approx.order == 1


def test_full_order_approx_on_single_edge_is_exact() -> None:
    g = two_cycle()
    modes = select_modes(decompose(g), gamma=0.5, order=2)
    approx = approx_impact(modes, geodesic_distances(g))
    expected = np.array([[4.0, 2.0], [2.0, 4.0]]) / 3.0
    assert np.max(np.abs(approx.values - expected)) < 1e-12


def test_three_cycle_order_two_pulls_in_the_full_spectrum() -> None:
    g = three_cycle()
    w = build_weight(g, gamma=0.875)
    modes = select_modes(decompose(g), gamma=0.875, order=2)
    assert modes.num_modes == 3
    approx = approx_impact(modes, geodesic_distances(g))
    exact = exact_propagator(w)
    assert np.max(np.abs(approx.values - exact.values)) < 1e-12


def test_repeated_complex_modes_select_and_approximate() -> None:
    # each copy of the repeated pair w, conj(w) brings its own partner;
    # from order 4 on every mode is in and the approximation is exact
    g = twin_three_cycles()
    w = build_weight(g, gamma=0.5)
    dec = decompose(g)
    dist = geodesic_distances(g)
    exact = exact_propagator(w)
    for order in range(1, 7):
        modes = select_modes(dec, gamma=0.5, order=order)
        assert modes.num_modes == {1: 1, 2: 2, 3: 4}.get(order, 6)
        approx = approx_impact(modes, dist)
        if order >= 4:
            assert np.max(np.abs(approx.values - exact.values)) <= 1e-12


def test_first_order_matches_raw_eigh_reimplementation() -> None:
    # independent route: eigh on the symmetric weight matrix, whose
    # eigenvalues are gamma * lam, principal vector taken directly,
    # formula written out entrywise
    g = generate_er(n=18, p=0.3, directed=False, seed=307)
    gamma = 0.875
    w = build_weight(g, gamma=gamma)
    eigenvalues, vectors = np.linalg.eigh(w.W)
    top = np.argmax(eigenvalues)
    s = vectors[:, top]
    if s[np.argmax(np.abs(s))] < 0:
        s = -s
    dist = geodesic_distances(g)
    expected = np.zeros((g.n, g.n))
    for i in range(g.n):
        for j in range(g.n):
            d = hop_distance(dist, i, j)
            if d is None:
                continue
            mu = eigenvalues[top]
            expected[i, j] = mu**d / (1.0 - mu) * s[i] * s[j]
    modes = select_modes(decompose(g), gamma=gamma, order=1)
    approx = approx_impact(modes, dist)
    assert np.max(np.abs(approx.values - expected)) < 1e-10


def test_full_order_approx_matches_exact_on_random_graphs() -> None:
    rng = np.random.default_rng(401)
    for directed in (True, False):
        for _ in range(4):
            g = generate_er(n=16, p=0.3, directed=directed, seed=int(rng.integers(1 << 30)))
            gamma = 0.875
            w = build_weight(g, gamma=gamma)
            dec = decompose(g)
            modes = select_modes(dec, gamma=gamma, order=dec.num_modes)
            approx = approx_impact(modes, geodesic_distances(g))
            exact = exact_propagator(w)
            assert np.max(np.abs(approx.values - exact.values)) < 1e-6


def test_unreachable_pairs_approximate_to_zero() -> None:
    # two disjoint undirected edges: cross-component entries must be 0
    g = arcs(4, [(0, 1), (2, 3)], directed=False)
    dec = decompose(g)
    modes = select_modes(dec, gamma=0.5, order=dec.num_modes)
    approx = approx_impact(modes, geodesic_distances(g))
    for i in (0, 1):
        for j in (2, 3):
            assert approx.values[i, j] == 0.0
            assert approx.values[j, i] == 0.0


def test_symmetric_input_yields_symmetric_approximation() -> None:
    g = generate_er(n=20, p=0.25, directed=False, seed=503)
    modes = select_modes(decompose(g), gamma=0.75, order=3)
    approx = approx_impact(modes, geodesic_distances(g))
    assert np.max(np.abs(approx.values - approx.values.T)) < 1e-10


def test_approx_rejects_dimension_mismatch() -> None:
    g = two_cycle()
    other = three_cycle()
    modes = select_modes(decompose(g), gamma=0.5, order=1)
    with pytest.raises(ValidationError):
        approx_impact(modes, geodesic_distances(other))


@pytest.mark.parametrize("directed", [True, False])
def test_real_kernel_matches_complex_reference(directed) -> None:
    complex_modes = 0
    for seed in range(4):
        g = generate_er(n=40, p=0.1, directed=directed, seed=900 + seed)
        dist = geodesic_distances(g)
        dec = decompose(g, k=10)
        for gamma in (0.5, 0.96875):
            for order in (1, 2, 3, 5, 8):
                modes = select_modes(dec, gamma, order)
                complex_modes += int(np.count_nonzero(modes.eigenvalues.imag))
                reference = complex_approx_impact(modes, dist)
                values = approx_impact(modes, dist).values
                assert np.max(np.abs(values - reference)) <= 1e-12
    assert (complex_modes > 0) == directed


def test_inexact_conjugate_partner_is_detected() -> None:
    # a partner whose send row is not the conjugate leaves an imaginary
    # residue in the complex sum; the real kernel must refuse it too
    from impactfield.spectral import ModeSet

    g = three_cycle()
    modes = select_modes(decompose(g), gamma=0.5, order=2)
    send_rows = modes.send_rows.copy()
    send_rows[2] *= 1.0 + 1e-3
    skewed = ModeSet(
        eigenvalues=modes.eigenvalues,
        receive_vectors=modes.receive_vectors,
        send_rows=send_rows,
        gains=modes.gains,
        order=2,
        gamma=0.5,
    )
    dist = geodesic_distances(g)
    for kernel in (complex_approx_impact, approx_impact):
        with pytest.raises(ConjugateClosureError):
            kernel(skewed, dist)


def test_broken_conjugate_closure_is_detected() -> None:
    # hand-build a mode set holding only one half of the 3-cycle's
    # complex pair; the imaginary residue check must fire
    from impactfield.spectral import ModeSet

    g = three_cycle()
    gamma = 0.5
    dec = decompose(g)
    lone = ModeSet(
        eigenvalues=dec.eigenvalues[1:2],
        receive_vectors=dec.right_vectors[:, 1:2],
        send_rows=dec.left_rows[1:2, :],
        gains=1.0 / (1.0 - gamma * dec.eigenvalues[1:2]),
        order=1,
        gamma=gamma,
    )
    with pytest.raises(ConjugateClosureError):
        approx_impact(lone, geodesic_distances(g))


# ---------------------------------------------------------------------------
# distance factorization


def test_distance_factorization_is_an_identity_on_the_three_cycle() -> None:
    g = three_cycle()
    w = build_weight(g, gamma=0.875)
    exact = exact_propagator(w)
    refactored = distance_factored_impact(w, geodesic_distances(g))
    assert np.max(np.abs(refactored.values - exact.values)) < 1e-12
    assert refactored.kind is ImpactKind.EXACT


def test_distance_factorization_matches_exact_on_random_graphs() -> None:
    rng = np.random.default_rng(601)
    for directed in (True, False):
        for gamma in (0.5, 0.96875):
            g = generate_er(n=20, p=0.2, directed=directed, seed=int(rng.integers(1 << 30)))
            w = build_weight(g, gamma=gamma)
            exact = exact_propagator(w)
            refactored = distance_factored_impact(w, geodesic_distances(g))
            assert np.max(np.abs(refactored.values - exact.values)) < 1e-8


def test_impact_is_positive_exactly_on_reachable_pairs() -> None:
    g = generate_er(n=18, p=0.12, directed=True, seed=701)
    w = build_weight(g, gamma=0.75)
    exact = exact_propagator(w)
    dist = geodesic_distances(g)
    assert np.all(exact.values[dist.reachable] > 0.0)
    assert np.max(np.abs(exact.values[~dist.reachable])) < 1e-14

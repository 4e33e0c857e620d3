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
    WeightMatrix,
    _cell_propagator,
    _PackedSymmetric,
    _real_terms,
    _row_blocks,
    _symmetric_propagator,
    approx_impact,
    build_weight,
    equilibrium_state,
    exact_propagator,
    gamma_grid,
)
from impactfield.spectral import conjugate_partners, decompose, select_modes

from util import (
    arcs,
    complex_approx_impact,
    distance_factored_impact,
    hop_distance,
    packed_symmetric,
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


@pytest.mark.parametrize("rho", [np.inf, np.nan])
def test_build_weight_rejects_non_finite_radius(rho) -> None:
    with pytest.raises(NormalizationError):
        build_weight(two_cycle(), gamma=0.5, rho=rho)


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
    assert exact.order is None


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
        [[0.0, 2.0], [2.0, 0.0]],  # symmetric and indefinite: no Cholesky factor
        [[0.0, 2.0 - 2e-15], [0.5, 0.0]],  # nonsymmetric, rcond ~ 1e-16
    ],
)
def test_singular_system_is_refused_on_both_routes(w) -> None:
    w = np.array(w)
    weight = WeightMatrix(gamma=0.5, rho=1.0, W=w)
    with pytest.raises(SolverError):
        exact_propagator(weight)


def test_symmetric_refusal_names_an_exact_condition_number() -> None:
    # the packed route sums the inverse's 1-norm exactly; LU estimates it
    weight = WeightMatrix(gamma=0.5, rho=1.0, W=np.array([[0.0, 1.0 - 1e-15], [1.0 - 1e-15, 0.0]]))
    with pytest.raises(SolverError, match="reciprocal condition number"):
        exact_propagator(weight)
    weight = WeightMatrix(gamma=0.5, rho=1.0, W=np.array([[0.0, 2.0 - 2e-15], [0.5, 0.0]]))
    with pytest.raises(SolverError, match="reciprocal condition estimate"):
        exact_propagator(weight)


@pytest.mark.parametrize("n", range(1, 10))
def test_packed_offsets_are_lapack_rectangular_full_packed(n) -> None:
    # trttf packs each lower entry's own index to where the map puts it
    rows, cols = np.tril_indices(n)
    index = np.zeros((n, n))
    index[rows, cols] = np.arange(rows.size) + 1.0
    expected = _PackedSymmetric(n, np.zeros(n * (n + 1) // 2))
    expected.data[expected.offsets(rows, cols)] = index[rows, cols]
    assert np.array_equal(packed_symmetric(index).data, expected.data)


# n // 32 makes norm1's blocks one row up to n = 63; 64, 65 and 401 give
# blocks of several rows on both sides of half, at even and odd n
@pytest.mark.parametrize("n", [2, 3, 7, 8, 31, 40, 64, 65, 401])
def test_packed_row_blocks_are_the_unpacked_inverse(n) -> None:
    graph = generate_er(n=n, p=min(1.0, 4.0 / n), directed=False, seed=n)
    if not graph.edges:
        graph = arcs(n, [(0, 1)], directed=False)
    weight = build_weight(graph, 0.875)
    inverse = _symmetric_propagator(graph, 0.875, weight.rho)
    # the study's packed inverse is the one exact_propagator unpacks, and
    # LAPACK's own unpacking of its triangle agrees
    values = exact_propagator(weight).values
    assert inverse.unpack().tobytes() == values.tobytes()
    lower, info = scipy.linalg.lapack.dtfttr(n, inverse.data, transr="N", uplo="L")
    lower = np.tril(lower)
    assert info == 0 and np.array_equal(values, lower + np.tril(lower, -1).T)
    for height in (1, 2, 3, n):
        out = np.full((n, n), np.nan)
        for start in range(0, n, height):
            rows = slice(start, min(start + height, n))
            inverse.read_rows(rows, out[rows])
        assert out.tobytes() == values.tobytes()
    assert inverse.norm1() == pytest.approx(scipy.linalg.norm(values, 1), rel=1e-14)


@pytest.mark.parametrize("n", range(1, 10))
def test_packed_triangle_rows_are_the_unpacked_upper_triangle(n) -> None:
    # rows below half are views of the packed floats, the others one
    # transposed copy; a block read from its first row on is the upper
    # triangle's part of those rows, whatever its height
    matrix = np.random.default_rng(n).random((n, n))
    matrix += matrix.T
    packed = packed_symmetric(matrix)
    whole = packed.unpack()
    assert whole.tobytes() == matrix.tobytes()
    half = n - n // 2
    for height in range(1, n + 1):
        for side in (range(half), range(half, n)):
            for start in side[::height]:
                rows = slice(start, min(start + height, side.stop))
                out = np.full((rows.stop - start, n - start), np.nan)
                block = packed.read_rows(rows, out, triangle=True)
                assert np.shares_memory(block, packed.data) == (rows.stop <= half)
                upper = np.triu(np.ones(block.shape, dtype=bool))
                assert np.array_equal(block[upper], whole[rows, start:][upper])


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("entries", [1, 4, 9, 100])
def test_triangle_row_blocks_cover_the_rows_on_each_side_of_half(monkeypatch, n, entries):
    monkeypatch.setattr("impactfield.impact._BLOCK_ENTRIES", entries)
    blocks = _row_blocks(n, triangle=True)
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == n
    half = n - n // 2
    for rows in blocks:
        assert rows.stop <= half or rows.start >= half
        height = max(1, entries // (n - rows.start))
        end = half if rows.start < half else n
        assert rows.stop - rows.start == min(height, end - rows.start)


CELL_GRAPHS = {
    "cholesky": generate_er(n=30, p=0.15, directed=False, seed=7),
    "lu": generate_er(n=30, p=0.15, directed=True, seed=7),
    # the disconnected Cholesky inverse holds -0.0 entries, which a
    # negated W (-0.0 off the arcs) would turn into +0.0
    "cholesky-disconnected": arcs(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)], directed=False),
    "lu-disconnected": arcs(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 6)]),
}


@pytest.mark.parametrize("graph", CELL_GRAPHS.values(), ids=CELL_GRAPHS.keys())
def test_cell_propagator_rows_are_bitwise_the_dense_inverse(graph) -> None:
    # a study cell builds I - W from the arcs, never W; its rows must be
    # the public propagator's, including the sign of every zero
    n = graph.n
    for gamma in (0.5, 0.96875):
        weight = build_weight(graph, gamma)
        before = weight.W.copy()
        expected = exact_propagator(weight).values
        assert weight.W.tobytes() == before.tobytes()
        read_rows = _cell_propagator(graph, gamma, weight.rho)
        for height in (1, 3, n):
            out = np.full((n, n), np.nan)
            for start in range(0, n, height):
                rows = slice(start, min(start + height, n))
                out[rows] = read_rows(rows, out[rows], False)
            # tobytes tells -0.0 from +0.0, which array_equal does not
            assert out.tobytes() == expected.tobytes()


def test_equilibrium_leaves_the_weight_intact() -> None:
    weight = build_weight(generate_er(n=20, p=0.2, directed=True, seed=4), gamma=0.875)
    before = weight.W.copy()
    equilibrium_state(weight, np.ones(weight.n))
    assert weight.W.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# series oracle


def test_series_with_one_term_is_identity_plus_weight() -> None:
    w = build_weight(two_cycle(), gamma=0.5)
    series = series_oracle(w, terms=1)
    assert np.array_equal(series.values, np.eye(2) + w.W)
    assert series.order is None


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
        order=1,
        gamma=gamma,
    )
    with pytest.raises(ConjugateClosureError):
        approx_impact(lone, geodesic_distances(g))


def term_data(modes) -> list[tuple]:
    return [
        (modes.eigenvalues[mode], folded, modes.receive_vectors[:, mode], modes.send_rows[mode])
        for mode, folded in _real_terms(modes)
    ]


@pytest.mark.parametrize(
    "graph", [three_cycle(), twin_three_cycles()], ids=["three-cycle", "twin-three-cycles"]
)
def test_real_terms_of_an_order_lead_the_next_order(graph) -> None:
    # a study cell sums order o + 1 on from order o's running sum, so
    # order o's real terms must be the first terms of order o + 1; in the
    # twin each complex eigenvalue repeats, and its partner is two apart
    dec = decompose(graph)
    partners = conjugate_partners(dec.eigenvalues)
    assert graph.n == 3 or np.abs(partners - np.arange(graph.n)).max() > 1
    terms = [term_data(select_modes(dec, 0.5, order)) for order in range(1, dec.num_modes + 1)]
    assert len(terms[-1]) > len(terms[0])
    for shorter, longer in zip(terms, terms[1:]):
        assert len(shorter) <= len(longer)
        for (value, folded, receive, send), term in zip(shorter, longer):
            assert value == term[0] and folded == term[1]
            assert np.array_equal(receive, term[2]) and np.array_equal(send, term[3])


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_approximation_does_not_depend_on_its_row_blocks(monkeypatch, rows) -> None:
    g = generate_er(n=20, p=0.15, directed=True, seed=5)
    dist = geodesic_distances(g)
    modes = select_modes(decompose(g), 0.875, 4)
    assert any(folded for _, folded in _real_terms(modes))
    whole = approx_impact(modes, dist).values
    monkeypatch.setattr("impactfield.impact._BLOCK_ENTRIES", rows * g.n)
    blocked = approx_impact(modes, dist).values
    assert np.array_equal(blocked, whole)
    assert np.array_equal(np.signbit(blocked), np.signbit(whole))


# ---------------------------------------------------------------------------
# distance factorization


def test_distance_factorization_is_an_identity_on_the_three_cycle() -> None:
    g = three_cycle()
    w = build_weight(g, gamma=0.875)
    exact = exact_propagator(w)
    refactored = distance_factored_impact(w, geodesic_distances(g))
    assert np.max(np.abs(refactored.values - exact.values)) < 1e-12
    assert refactored.order is None


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

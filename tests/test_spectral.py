"""Spectral radius and eigendecomposition tests.

Closed-form anchors: the triangle and the 4-leaf star (radius 2), the
directed cycle (roots of unity), the single edge (eigenvalues +-1), and
the 3-path (radius sqrt 2). Random graphs check the algebraic
invariants: reconstruction, biorthogonality, conjugate closure, the
condition bound on kept modes, and agreement between the dense and
iterative routes.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from impactfield.errors import (
    ConvergenceError,
    DefectivenessError,
    NoEdgesWarning,
    NormalizationError,
    ValidationError,
)
from impactfield.graph import Graph, generate_er, geodesic_distances, symmetrize_weak
from impactfield.impact import approx_impact
from impactfield.spectral import conjugate_partners, decompose, select_modes, spectral_radius

from util import TracedMemory, arcs, count_calls, twin_components, twin_three_cycles


# ---------------------------------------------------------------------------
# spectral radius


def test_radius_of_triangle_is_two() -> None:
    g = arcs(3, [(0, 1), (1, 2), (0, 2)], directed=False)
    assert spectral_radius(g) == pytest.approx(2.0, abs=1e-12)


def test_radius_of_directed_two_cycle_is_one() -> None:
    g = arcs(2, [(0, 1), (1, 0)])
    assert spectral_radius(g) == pytest.approx(1.0, abs=1e-12)


def test_radius_of_directed_three_cycle_is_one() -> None:
    g = arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert spectral_radius(g) == pytest.approx(1.0, abs=1e-12)


def test_radius_of_star_is_sqrt_leaf_count() -> None:
    # star with hub 0 and four leaves: eigenvalues +-2 and zeros
    g = arcs(5, [(0, k) for k in range(1, 5)], directed=False)
    assert spectral_radius(g) == pytest.approx(2.0, abs=1e-12)


def test_radius_of_edgeless_graph_is_zero_with_warning() -> None:
    g = Graph(n=4, directed=False, edges=())
    with pytest.warns(NoEdgesWarning):
        assert spectral_radius(g) == 0.0


def test_radius_of_acyclic_digraph_is_zero() -> None:
    # nilpotent adjacency: ARPACK alone returns noise like 5e-05 here, so
    # the zero must come from the structure on both sides of the threshold
    g = arcs(5, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (3, 4), (0, 4)])
    assert spectral_radius(g) == 0.0
    assert spectral_radius(g, dense_threshold=2) == 0.0


@pytest.mark.parametrize("directed", [True, False])
def test_radius_of_all_zero_weights_is_zero(directed) -> None:
    # ARPACK's start vector maps to zero here (error -9), so the zero must
    # come from the structure on both sides of the threshold
    g = arcs(3, [(0, 1), (1, 2), (2, 0)], directed=directed, weight=0.0)
    assert spectral_radius(g) == 0.0
    assert spectral_radius(g, dense_threshold=2) == 0.0


def test_radius_of_two_nodes_above_the_dense_threshold() -> None:
    # the iterative solver needs three nodes, so the dense value answers
    # at any threshold
    assert spectral_radius(arcs(2, [(0, 1)], directed=False), dense_threshold=1) == 1.0
    assert spectral_radius(arcs(2, [(0, 1), (1, 0)]), dense_threshold=1) == 1.0


def test_radius_scales_with_weights() -> None:
    g = arcs(2, [(0, 1)], directed=False, weight=3.5)
    assert spectral_radius(g) == pytest.approx(3.5, abs=1e-12)


def test_radius_iterative_matches_dense() -> None:
    rng = np.random.default_rng(5)
    for directed in (True, False):
        for _ in range(5):
            g = generate_er(n=30, p=0.2, directed=directed, seed=int(rng.integers(1 << 30)))
            expected = max(np.abs(np.linalg.eigvals(g.adjacency())))
            assert spectral_radius(g, dense_threshold=10) == pytest.approx(expected, abs=1e-9)


def test_radius_dense_check_agrees_with_the_general_solver() -> None:
    rng = np.random.default_rng(11)
    for directed in (True, False):
        g = generate_er(n=40, p=0.15, directed=directed, seed=int(rng.integers(1 << 30)))
        weighted = Graph(
            n=g.n,
            directed=directed,
            edges=tuple((src, dst, float(w)) for (src, dst, _), w in
                        zip(g.edges, rng.uniform(0.5, 2.0, len(g.edges)))),
        )
        expected = float(np.max(np.abs(np.linalg.eigvals(weighted.adjacency()))))
        if directed:
            assert spectral_radius(weighted) == expected
        else:
            # the symmetric solver differs from the general one only by rounding
            assert spectral_radius(weighted) == pytest.approx(expected, rel=1e-13)


def _failing_solver(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_radius_is_stored_on_the_instance_not_shared_by_equal_graphs(monkeypatch) -> None:
    g = generate_er(n=30, p=0.2, directed=True, seed=5)
    rho = spectral_radius(g)
    monkeypatch.setattr(scipy.linalg, "eigvals", _failing_solver)
    assert spectral_radius(g) == rho
    twin = Graph(g.n, g.directed, g.edges, g.labels)
    assert twin == g
    with pytest.raises(ConvergenceError):
        spectral_radius(twin)


def test_radius_is_stored_per_route(monkeypatch) -> None:
    g = generate_er(n=30, p=0.2, directed=True, seed=5)
    dense = spectral_radius(g)
    calls = count_calls(monkeypatch, spla, ("eigs",))
    iterative = spectral_radius(g, dense_threshold=10)
    assert calls["eigs"] == 1
    assert iterative == pytest.approx(dense, rel=1e-8)
    assert spectral_radius(g, dense_threshold=10) == iterative
    assert spectral_radius(g) == dense
    assert calls["eigs"] == 1


def test_radius_failure_is_not_stored(monkeypatch) -> None:
    g = generate_er(n=30, p=0.2, directed=False, seed=5)
    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "eigvalsh", _failing_solver)
        with pytest.raises(ConvergenceError):
            spectral_radius(g)
    expected = float(np.max(np.abs(np.linalg.eigvalsh(g.adjacency()))))
    assert spectral_radius(g) == pytest.approx(expected, rel=1e-13)


def test_overflowing_radius_is_refused_and_not_stored() -> None:
    heavy = Graph(n=3, directed=False, edges=((0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)))
    with pytest.raises(NormalizationError):
        spectral_radius(heavy)
    assert vars(heavy).get("_spectral_radii", {}) == {}


def test_overflowing_radius_above_the_dense_threshold_is_not_a_convergence_error() -> None:
    # ARPACK alone decides here; it runs on A / max|w|, so the overflow is
    # reported as such and not as an ARPACK failure
    heavy = Graph(n=3, directed=False, edges=((0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)))
    with pytest.raises(NormalizationError, match="spectral radius inf"):
        spectral_radius(heavy, dense_threshold=2)
    assert vars(heavy).get("_spectral_radii", {}) == {}


def test_edgeless_graph_warns_on_every_call() -> None:
    g = Graph(n=4, directed=True, edges=())
    for _ in range(2):
        with pytest.warns(NoEdgesWarning):
            assert spectral_radius(g) == 0.0


# ---------------------------------------------------------------------------
# full decomposition oracles


def test_single_edge_decomposition() -> None:
    g = arcs(2, [(0, 1)], directed=False)
    dec = decompose(g)
    assert dec.num_modes == dec.n == 2
    assert dec.eigenvalues == pytest.approx([1.0, -1.0], abs=1e-12)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert dec.right_vectors[:, 0] == pytest.approx([inv_sqrt2, inv_sqrt2], abs=1e-12)
    # second vector is pinned to a positive leading entry by canonicalization
    assert dec.right_vectors[:, 1] == pytest.approx([inv_sqrt2, -inv_sqrt2], abs=1e-12)


def test_directed_three_cycle_eigenvalues_are_cube_roots_of_unity() -> None:
    g = arcs(3, [(0, 1), (1, 2), (2, 0)])
    dec = decompose(g)
    expected = np.array([1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)])
    assert np.max(np.abs(dec.eigenvalues - expected)) < 1e-10


def test_unnormalized_path_top_eigenvalue_is_sqrt_two() -> None:
    g = arcs(3, [(0, 1), (1, 2)], directed=False)
    dec = decompose(g)
    assert dec.eigenvalues[0] * spectral_radius(g) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_normalized_top_eigenvalue_is_one() -> None:
    rng = np.random.default_rng(17)
    for directed in (True, False):
        g = generate_er(n=25, p=0.25, directed=directed, seed=int(rng.integers(1 << 30)))
        dec = decompose(g)
        assert abs(dec.eigenvalues[0]) == pytest.approx(1.0, abs=1e-10)


def test_canonical_order_is_nonincreasing_modulus() -> None:
    g = generate_er(n=30, p=0.2, directed=True, seed=9)
    dec = decompose(g)
    moduli = np.abs(dec.eigenvalues)
    assert np.all(moduli[:-1] >= moduli[1:] - 1e-10)


def test_reconstruction_matches_normalized_adjacency() -> None:
    rng = np.random.default_rng(23)
    for directed in (True, False):
        for _ in range(4):
            g = generate_er(n=20, p=0.25, directed=directed, seed=int(rng.integers(1 << 30)))
            dec = decompose(g)
            b = g.adjacency() / spectral_radius(g)
            rebuilt = (dec.right_vectors * dec.eigenvalues) @ dec.left_rows
            assert np.max(np.abs(rebuilt - b)) < 1e-8


def test_left_rows_invert_right_vectors() -> None:
    g = generate_er(n=18, p=0.3, directed=True, seed=31)
    dec = decompose(g)
    product = dec.left_rows @ dec.right_vectors
    assert np.max(np.abs(product - np.eye(dec.n))) < 1e-8


def test_symmetric_input_gives_real_modes_and_transposed_left() -> None:
    g = generate_er(n=22, p=0.3, directed=False, seed=41)
    dec = decompose(g)
    assert np.all(dec.eigenvalues.imag == 0.0)
    assert np.max(np.abs(dec.left_rows - dec.right_vectors.T)) < 1e-12


def test_principal_vector_of_connected_graph_is_positive() -> None:
    g = arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], directed=False)
    dec = decompose(g)
    assert np.all(dec.right_vectors[:, 0].real > 0.0)
    assert np.all(np.abs(dec.right_vectors[:, 0].imag) == 0.0)


def test_decomposition_is_deterministic() -> None:
    g = generate_er(n=35, p=0.15, directed=True, seed=77)
    first = decompose(g)
    second = decompose(g)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.right_vectors, second.right_vectors)
    assert np.array_equal(first.left_rows, second.left_rows)


@pytest.mark.parametrize(
    "directed, dense_threshold",
    [(False, 2000), (True, 2000), (False, 10), (True, 10)],
    ids=["symmetric-dense", "directed-dense", "symmetric-iterative", "directed-iterative"],
)
def test_cut_decomposition_owns_only_its_modes(directed, dense_threshold) -> None:
    # a view into the full eigenbasis would keep all n modes alive for as
    # long as the decomposition lives (15 MB at n = 1000)
    g = generate_er(n=60, p=0.12, directed=directed, seed=11)
    dec = decompose(g, k=6, dense_threshold=dense_threshold)
    assert 6 <= dec.num_modes < g.n
    for array in (dec.eigenvalues, dec.right_vectors, dec.left_rows):
        assert array.base is None and array.flags.c_contiguous
    assert dec.right_vectors.shape == (g.n, dec.num_modes)
    assert dec.left_rows.shape == (dec.num_modes, g.n)


def test_dense_symmetric_decompose_makes_no_n_by_n_copy() -> None:
    # syevd overwrites the adjacency with its eigenvectors beside a 2n^2
    # workspace, and only the kept vectors are reordered and made complex;
    # a reordered or complex copy of all n would add 8n^2 or 16n^2 bytes
    n = 600
    g = generate_er(n=n, p=5.0 / (n - 1), directed=False, seed=1)
    g.adjacency_sparse()  # the cached arcs are not the decomposition's
    with TracedMemory() as memory:
        dec = decompose(g, k=6)
        peak = memory.growth()
    assert dec.num_modes == 6
    assert peak < 3.5 * 8 * n * n


def test_conjugate_closure_of_full_spectrum() -> None:
    g = generate_er(n=24, p=0.2, directed=True, seed=13)
    dec = decompose(g)
    values = dec.eigenvalues
    for value in values[np.abs(values.imag) > 1e-12]:
        assert np.min(np.abs(values - np.conjugate(value))) < 1e-10


def test_conjugate_pairs_are_exact_not_approximate() -> None:
    # truncated sums rely on pairwise cancellation being exact: values,
    # right vectors, and left rows of a pair must be bit-level
    # conjugates, and real modes must be exactly real
    g = generate_er(n=20, p=0.2, directed=True, seed=41)
    dec = decompose(g)
    values = dec.eigenvalues
    for i, value in enumerate(values):
        if abs(value.imag) <= 1e-10:
            assert value.imag == 0.0
            assert np.all(dec.right_vectors[:, i].imag == 0.0)
            assert np.all(dec.left_rows[i].imag == 0.0)
            continue
        j = int(np.argmin(np.abs(values - np.conjugate(value))))
        assert values[j] == np.conjugate(value)
        assert np.array_equal(dec.right_vectors[:, j], np.conjugate(dec.right_vectors[:, i]))
        assert np.array_equal(dec.left_rows[j], np.conjugate(dec.left_rows[i]))


def test_conjugate_partners_pair_values_one_to_one() -> None:
    w = complex(-0.5, np.sqrt(3.0) / 2.0)
    # real values are their own partners
    assert conjugate_partners(np.array([1.0, -0.25], dtype=complex)).tolist() == [0, 1]
    assert conjugate_partners(np.array([w, 1.0, np.conj(w)])).tolist() == [2, 1, 0]
    # two copies of one pair: each copy gets its own partner, in order
    repeated = np.array([w, w, np.conj(w), np.conj(w) + 1e-12])
    assert conjugate_partners(repeated).tolist() == [2, 3, 0, 1]
    # a complex value whose conjugate is absent gets -1
    assert conjugate_partners(np.array([1.0, w, np.conj(w), 0.3j])).tolist() == [0, 2, 1, -1]
    assert conjugate_partners(np.array([w, w, np.conj(w)])).tolist() == [2, -1, 0]


# ---------------------------------------------------------------------------
# error paths


def test_decompose_rejects_edgeless_graph() -> None:
    with pytest.raises(ValidationError):
        decompose(Graph(n=3, directed=True, edges=()))


def test_decompose_rejects_bad_k() -> None:
    g = arcs(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValidationError):
        decompose(g, k=0)
    with pytest.raises(ValidationError):
        decompose(g, k=4)


@pytest.mark.parametrize(
    "solver, directed, k",
    [("eigvals", True, None), ("eig", True, None), ("eig", True, 3), ("eigh", False, None)],
)
def test_dense_solver_failure_is_a_convergence_error(monkeypatch, solver, directed, k) -> None:
    g = generate_er(n=20, p=0.3, directed=directed, seed=5)
    # every dense eigensolve goes through scipy.linalg
    monkeypatch.setattr(scipy.linalg, solver, _failing_solver)
    with pytest.raises(ConvergenceError):
        if solver == "eigvals":
            spectral_radius(g)
        else:
            decompose(g, k=k)


@pytest.mark.parametrize("route", ["radius", "decomposition"])
def test_arpack_error_is_a_convergence_error(monkeypatch, route) -> None:
    # error 3 ("no shifts could be applied") is an ArpackError that is
    # not an ArpackNoConvergence; the radius estimate asks eigs for one
    # pair, so failing only larger requests reaches the decomposition's own
    eigs = spla.eigs

    def fail(*args, **kwargs):
        if route == "radius" or kwargs["k"] > 1:
            raise spla.ArpackError(3)
        return eigs(*args, **kwargs)

    g = generate_er(n=30, p=0.2, directed=True, seed=5)
    monkeypatch.setattr(spla, "eigs", fail)
    if route == "radius":
        with pytest.raises(ConvergenceError, match="^spectral radius estimation"):
            spectral_radius(g, dense_threshold=10)
    else:
        with pytest.raises(ConvergenceError, match="^iterative decomposition"):
            decompose(g, k=4, dense_threshold=10)


def test_iterative_route_on_twin_components_is_a_convergence_error() -> None:
    # every eigenvalue repeats; ARPACK either stops with an ArpackError or
    # returns sides that do not pair, and both are convergence failures
    twin = twin_components(generate_er(n=20, p=0.15, directed=True, seed=0))
    with pytest.raises(ConvergenceError):
        decompose(twin, k=6, dense_threshold=10)


def test_acyclic_graph_cannot_be_normalized() -> None:
    g = arcs(3, [(0, 1), (1, 2)])
    with pytest.raises(NormalizationError):
        decompose(g)


def _dense_radius(graph: Graph) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(graph.adjacency()))))


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("entry", ["spectral_radius", "decompose"])
def test_dense_route_runs_no_arpack(monkeypatch, entry, directed) -> None:
    # at or below the threshold the radius is the dense spectrum's largest
    # modulus; no iterative estimate runs beside it
    calls = count_calls(monkeypatch, spla, ("eigs", "eigsh"))
    g = generate_er(n=40, p=0.1, directed=directed, seed=2)
    if entry == "spectral_radius":
        assert spectral_radius(g) == pytest.approx(_dense_radius(g), rel=1e-13)
    else:
        decompose(g, k=6)
    assert calls == {"eigs": 0, "eigsh": 0}


# two directed 3-cycles, the first reaching the second through the arc
# (2, 3): eigenvalue 1 and each complex cube root of unity is a 2x2
# Jordan block, so the kept modes are (near) defective
_LINKED_CYCLES = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]


@pytest.mark.parametrize(
    "build, k",
    [
        (lambda: arcs(6, _LINKED_CYCLES), 2),
        # a k=1 ARPACK radius estimate reads 1.000000014 here
        (lambda: arcs(8, _LINKED_CYCLES + [(3, 6), (6, 7)]), 6),
        *[
            (lambda n=n, deg=deg, seed=seed: generate_er(n, deg / (n - 1), True, seed), 6)
            for n, deg, seed in [
                (57, 1.3377225118934541, 1474063761),
                (154, 1.115374583042764, 1717898535),
                (271, 1.2275954430799318, 1516632584),
                (57, 2.062450813660699, 1904257322),
            ]
        ],
    ],
    ids=["linked-cycles", "linked-cycles-with-tail", "er57", "er154", "er271", "er57-dense"],
)
def test_truncated_decomposition_refuses_ill_conditioned_modes(build, k) -> None:
    # each passes the Gram, pairing and residual checks; the kept left-row
    # norms (condition numbers) reach 2.4e7 to 2.8e15
    with pytest.raises(
        DefectivenessError, match=r"^eigenvalue \([^()]+\) has condition number \S+ above 1e\+06;"
    ):
        decompose(build(), k=k)


def test_full_decomposition_is_gated_by_reconstruction_not_by_condition() -> None:
    # the eigenvalue-0 cluster of this graph has condition number 6.6e7,
    # but a full basis reconstructs B, which is what a full decomposition
    # promises
    g = generate_er(n=20, p=0.2, directed=True, seed=41)
    dec = decompose(g)
    assert dec.num_modes == g.n
    assert np.linalg.norm(dec.left_rows, axis=1).max() > 1e6


@pytest.mark.parametrize(
    "graph",
    [
        arcs(5, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (3, 4), (0, 4)]),
        arcs(3, [(0, 1), (1, 2), (2, 0)], weight=0.0),
        arcs(3, [(0, 1), (1, 2), (2, 0)], directed=False, weight=0.0),
        Graph(n=3, directed=True, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 0, 0.0))),
    ],
    ids=["acyclic", "zero-weight-directed", "zero-weight-undirected", "zero-weight-closes-cycle"],
)
def test_zero_radius_is_refused_before_any_dense_eigensolve(monkeypatch, graph) -> None:
    calls = count_calls(monkeypatch, scipy.linalg, ("eig", "eigh", "eigvals", "eigvalsh"))
    for k in (None, 2):
        with pytest.raises(NormalizationError, match="^cannot normalize: spectral radius is zero$"):
            decompose(graph, k=k)
    assert calls == {"eig": 0, "eigh": 0, "eigvals": 0, "eigvalsh": 0}


def test_zero_radius_of_a_cycle_with_a_zero_weight_is_refused() -> None:
    # only the zero-weight arc closes the cycle, so A is nilpotent
    g = Graph(n=2, directed=True, edges=((0, 1, 1.0), (1, 0, 0.0)))
    with pytest.raises(NormalizationError, match="^cannot normalize: spectral radius is zero$"):
        decompose(g)
    assert spectral_radius(g) == 0.0


@pytest.mark.parametrize("directed", [True, False])
def test_decompose_stores_the_radius_it_divides_by(monkeypatch, directed) -> None:
    g = generate_er(n=40, p=0.1, directed=directed, seed=2)
    dec = decompose(g, k=6)
    calls = count_calls(monkeypatch, scipy.linalg, ("eigvals", "eigvalsh"))
    rho = spectral_radius(g)
    assert calls == {"eigvals": 0, "eigvalsh": 0}
    assert rho == pytest.approx(_dense_radius(g), rel=1e-13)
    assert abs(np.abs(dec.eigenvalues).max() - 1.0) <= 4e-16


@pytest.mark.parametrize("treated", ["directed", "symmetrized"])
def test_kept_projector_does_not_depend_on_a_prior_radius_call(treated) -> None:
    def fresh() -> Graph:
        g = generate_er(n=60, p=0.08, directed=True, seed=4)
        return g if treated == "directed" else symmetrize_weak(g)

    alone = decompose(fresh(), k=6)
    g = fresh()
    spectral_radius(g)
    after = decompose(g, k=6)
    assert alone.num_modes == after.num_modes
    np.testing.assert_allclose(
        after.right_vectors @ after.left_rows,
        alone.right_vectors @ alone.left_rows,
        rtol=0.0,
        atol=1e-12,
    )


def test_iterative_route_requires_k() -> None:
    g = generate_er(n=12, p=0.3, directed=False, seed=1)
    with pytest.raises(ValidationError):
        decompose(g, dense_threshold=4)


def test_transient_tail_blocks_full_but_not_topk() -> None:
    # a cycle with a dangling tail is defective at eigenvalue zero, so
    # the full decomposition fails; the leading modes are still clean
    # and a truncated request must succeed
    g = arcs(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    with pytest.raises(DefectivenessError):
        decompose(g)
    dec = decompose(g, k=3)
    assert dec.num_modes == 3
    expected = np.array([1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)])
    assert np.max(np.abs(dec.eigenvalues - expected)) < 1e-10
    b = g.adjacency() / spectral_radius(g)
    for mode in range(3):
        residual = b @ dec.right_vectors[:, mode] - dec.eigenvalues[mode] * dec.right_vectors[:, mode]
        assert np.max(np.abs(residual)) < 1e-10
        residual_left = dec.left_rows[mode] @ b - dec.eigenvalues[mode] * dec.left_rows[mode]
        assert np.max(np.abs(residual_left)) < 1e-10
    assert np.max(np.abs(dec.left_rows @ dec.right_vectors - np.eye(3))) < 1e-8


def test_topk_matching_respects_disconnected_duplicates() -> None:
    # two disjoint directed 2-cycles share the spectrum {1, -1}; the
    # left row for each component must live on that component
    g = arcs(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    dec = decompose(g, k=3)
    assert np.max(np.abs(dec.left_rows @ dec.right_vectors - np.eye(dec.num_modes))) < 1e-8
    for mode in range(dec.num_modes):
        support_right = np.abs(dec.right_vectors[:, mode]) > 1e-12
        support_left = np.abs(dec.left_rows[mode]) > 1e-12
        assert (support_right == support_left).all()


def test_twin_components_pair_left_and_right_within_each_eigenvalue() -> None:
    # k=5 keeps both copies of 1 and of a complex pair; the left rows of a
    # repeated eigenvalue must be the dual basis of its right vectors
    component = generate_er(n=20, p=0.15, directed=True, seed=27)
    twin = twin_components(component)
    dec = decompose(twin, k=5)
    assert np.max(np.abs(dec.left_rows @ dec.right_vectors - np.eye(dec.num_modes))) < 1e-8
    b = twin.adjacency() / spectral_radius(twin)
    residual_left = dec.left_rows @ b - dec.eigenvalues[:, None] * dec.left_rows
    assert np.max(np.abs(residual_left)) < 1e-10
    # the two leading modes span both copies of the Perron mode, so order 2
    # on the twin is order 1 on each component
    gamma = 0.875
    twin_approx = approx_impact(
        select_modes(dec, gamma, order=2), geodesic_distances(twin)
    ).values
    own = approx_impact(
        select_modes(decompose(component, k=5), gamma, order=1),
        geodesic_distances(component),
    ).values
    n = component.n
    for block in (twin_approx[:n, :n], twin_approx[n:, n:]):
        assert np.max(np.abs(block - own)) <= 1e-10 * np.max(np.abs(own))


def test_repeated_real_eigenvalue_returned_as_a_rounding_level_pair() -> None:
    # geev returns the twin's double eigenvalue 1 as 1 +- 4e-16j here; its
    # vectors must still span both copies of the Perron mode
    twin = twin_components(generate_er(n=20, p=0.15, directed=True, seed=29))
    dec = decompose(twin, k=5)
    assert np.max(np.abs(dec.eigenvalues[:2] - 1.0)) < 1e-12
    assert np.max(np.abs(dec.left_rows @ dec.right_vectors - np.eye(dec.num_modes))) < 1e-8
    b = twin.adjacency() / spectral_radius(twin)
    residual = b @ dec.right_vectors - dec.right_vectors * dec.eigenvalues
    assert np.max(np.abs(residual)) < 1e-10


# ---------------------------------------------------------------------------
# truncation and the iterative route


def test_truncated_dense_matches_full_prefix() -> None:
    g = generate_er(n=20, p=0.3, directed=False, seed=57)
    full = decompose(g)
    part = decompose(g, k=5)
    assert part.num_modes < part.n == g.n
    m = part.num_modes
    assert m >= 5
    assert np.array_equal(part.eigenvalues, full.eigenvalues[:m])
    assert np.array_equal(part.right_vectors, full.right_vectors[:, :m])


def test_truncation_never_splits_a_conjugate_pair() -> None:
    rng = np.random.default_rng(3)
    for _ in range(6):
        g = generate_er(n=16, p=0.3, directed=True, seed=int(rng.integers(1 << 30)))
        for k in range(1, 8):
            dec = decompose(g, k=k)
            values = dec.eigenvalues
            for value in values[np.abs(values.imag) > 1e-12]:
                assert np.min(np.abs(values - np.conjugate(value))) < 1e-10


def test_truncation_keeps_repeated_conjugate_pairs_whole() -> None:
    # spectrum 1, 1, w, w, conj(w), conj(w): a cut at k = 3..5 must grow
    # to all six modes, each copy of w paired with its own conjugate
    g = twin_three_cycles()
    for k in range(1, 6):
        dec = decompose(g, k=k)
        assert dec.num_modes == (k if k <= 2 else 6)
        values = dec.eigenvalues
        partners = conjugate_partners(values)
        assert (partners >= 0).all()
        for i, j in enumerate(partners):
            assert values[j] == np.conjugate(values[i])
            assert np.array_equal(dec.right_vectors[:, j], np.conjugate(dec.right_vectors[:, i]))
            assert np.array_equal(dec.left_rows[j], np.conjugate(dec.left_rows[i]))
        assert np.max(np.abs(dec.left_rows @ dec.right_vectors - np.eye(dec.num_modes))) < 1e-8


def test_iterative_matches_dense_for_undirected() -> None:
    g = generate_er(n=40, p=0.2, directed=False, seed=3)
    dense = decompose(g, k=6)
    iterative = decompose(g, k=6, dense_threshold=10)
    m = min(dense.num_modes, iterative.num_modes)
    assert m >= 6
    assert np.max(np.abs(dense.eigenvalues[:m] - iterative.eigenvalues[:m])) < 1e-10
    assert np.max(np.abs(dense.right_vectors[:, :m] - iterative.right_vectors[:, :m])) < 1e-8
    assert np.max(np.abs(dense.left_rows[:m] - iterative.left_rows[:m])) < 1e-8


def test_iterative_matches_dense_for_directed() -> None:
    g = generate_er(n=60, p=0.12, directed=True, seed=11)
    dense = decompose(g, k=7)
    iterative = decompose(g, k=7, dense_threshold=10)
    m = min(dense.num_modes, iterative.num_modes)
    assert m >= 7
    assert np.max(np.abs(dense.eigenvalues[:m] - iterative.eigenvalues[:m])) < 1e-10
    assert np.max(np.abs(dense.right_vectors[:, :m] - iterative.right_vectors[:, :m])) < 1e-8
    assert np.max(np.abs(dense.left_rows[:m] - iterative.left_rows[:m])) < 1e-8


def test_iterative_route_is_deterministic() -> None:
    g = generate_er(n=50, p=0.15, directed=True, seed=29)
    first = decompose(g, k=5, dense_threshold=10)
    second = decompose(g, k=5, dense_threshold=10)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.right_vectors, second.right_vectors)


def test_iterative_route_survives_a_pair_cut_apart_between_sides() -> None:
    # the solver's cut falls inside the conjugate pair at |lambda| ~ 0.3367:
    # the right run keeps one member and the left run on B^T the other
    g = generate_er(n=50, p=0.15, directed=True, seed=29)
    iterative = decompose(g, k=5, dense_threshold=10)
    dense = decompose(g, k=5)
    m = min(dense.num_modes, iterative.num_modes)
    assert m >= 5
    assert np.max(np.abs(dense.eigenvalues[:m] - iterative.eigenvalues[:m])) < 1e-10
    assert np.max(np.abs(dense.right_vectors[:, :m] - iterative.right_vectors[:, :m])) < 1e-8
    assert np.max(np.abs(dense.left_rows[:m] - iterative.left_rows[:m])) < 1e-8


def test_iterative_left_rows_are_dual_to_a_mixed_repeated_eigenbasis(monkeypatch) -> None:
    # any basis of a repeated eigenvalue's eigenspace is a valid ARPACK
    # answer; this fake returns the dense eigenpairs with the two copies
    # of every twin eigenvalue mixed, a, b -> a + 0.5 b, a - 2 b
    def mixed_eigs(matrix, k, return_eigenvectors=True, **kwargs):
        values, vectors = np.linalg.eig(matrix.toarray())
        order = np.argsort(-np.abs(values), kind="stable")[:k]
        values, vectors = values[order], vectors[:, order]
        twins = np.triu(np.abs(values[:, None] - values) <= 1e-8, 1)
        for a, b in zip(*np.nonzero(twins)):
            first, second = vectors[:, a].copy(), vectors[:, b].copy()
            vectors[:, a] = first + 0.5 * second
            vectors[:, b] = first - 2.0 * second
        return (values, vectors) if return_eigenvectors else values

    twin = twin_components(generate_er(n=20, p=0.15, directed=True, seed=27))
    dense = decompose(twin, k=5)
    monkeypatch.setattr(spla, "eigs", mixed_eigs)
    dec = decompose(twin, k=5, dense_threshold=10)
    assert np.max(np.abs(dec.left_rows @ dec.right_vectors - np.eye(dec.num_modes))) < 1e-8
    assert dec.num_modes == dense.num_modes
    projector = dense.right_vectors @ dense.left_rows
    assert np.max(np.abs(dec.right_vectors @ dec.left_rows - projector)) < 1e-10


def _probe_digraphs():
    """Sparse ER digraphs, n 30-150 and mean degree 1.5-5, for the ARPACK route.

    Nineteen seeded draws, then a graph on which both ARPACK runs miss the
    pair at |lambda| 0.461 and agree on every kept eigenvalue; only a pair
    further down, which the right run returns and the left run does not,
    gives the miss away.
    """
    rng = np.random.default_rng(7)
    for _ in range(19):
        n = int(rng.integers(30, 151))
        p = float(rng.uniform(1.5, 5.0)) / (n - 1)
        yield generate_er(n=n, p=p, directed=True, seed=int(rng.integers(2**31)))
    yield generate_er(n=147, p=4.7 / 146, directed=True, seed=1878727472)


def test_iterative_route_refuses_or_matches_the_dense_projector() -> None:
    # ARPACK's output varies with BLAS threading, so each graph may be
    # refused; what is accepted must be the dense answer
    accepted = 0
    for index, g in enumerate(_probe_digraphs()):
        dense = decompose(g, k=6)
        try:
            iterative = decompose(g, k=6, dense_threshold=10)
        except ConvergenceError:
            continue
        accepted += 1
        assert iterative.num_modes == dense.num_modes, index
        projector = dense.right_vectors @ dense.left_rows
        error = np.max(np.abs(iterative.right_vectors @ iterative.left_rows - projector))
        assert error < 1e-10, (index, error)
    assert accepted >= 15


# ---------------------------------------------------------------------------
# mode selection


def test_select_one_mode_from_symmetric_graph() -> None:
    g = arcs(3, [(0, 1), (1, 2), (0, 2)], directed=False)
    modes = select_modes(decompose(g), gamma=0.5, order=1)
    assert modes.num_modes == 1
    assert modes.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert modes.gains[0] == pytest.approx(2.0, abs=1e-12)


def test_conjugate_partner_is_pulled_in() -> None:
    # the 3-cycle spectrum is 1 and a conjugate pair; asking for two
    # modes must include the partner, giving three
    g = arcs(3, [(0, 1), (1, 2), (2, 0)])
    modes = select_modes(decompose(g), gamma=0.875, order=2)
    assert modes.num_modes == 3
    values = modes.eigenvalues
    for value in values[np.abs(values.imag) > 1e-12]:
        assert np.min(np.abs(values - np.conjugate(value))) < 1e-10


def test_select_all_modes() -> None:
    g = generate_er(n=12, p=0.4, directed=False, seed=19)
    dec = decompose(g)
    modes = select_modes(dec, gamma=0.75, order=dec.num_modes)
    assert modes.num_modes == dec.num_modes


def test_gains_follow_the_resolvent_formula() -> None:
    g = generate_er(n=15, p=0.3, directed=True, seed=67)
    dec = decompose(g)
    for gamma in (0.5, 0.875, 0.96875):
        modes = select_modes(dec, gamma=gamma, order=4)
        expected = 1.0 / (1.0 - gamma * modes.eigenvalues)
        assert np.max(np.abs(modes.gains - expected)) < 1e-12


def test_select_modes_validates_gamma_and_order() -> None:
    g = arcs(2, [(0, 1)], directed=False)
    dec = decompose(g)
    for gamma in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValidationError):
            select_modes(dec, gamma=gamma, order=1)
    with pytest.raises(ValidationError):
        select_modes(dec, gamma=0.5, order=0)
    with pytest.raises(ValidationError):
        select_modes(dec, gamma=0.5, order=3)


def test_selected_modes_keep_canonical_order() -> None:
    g = generate_er(n=20, p=0.25, directed=True, seed=43)
    dec = decompose(g)
    modes = select_modes(dec, gamma=0.9375, order=5)
    moduli = np.abs(modes.eigenvalues)
    assert np.all(moduli[:-1] >= moduli[1:] - 1e-10)

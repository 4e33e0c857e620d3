"""Graph ingestion, symmetrization, hop distances, generators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from impactfield import (
    EdgeListParseError,
    Graph,
    GraphValidationError,
    ValidationError,
    generate_er,
    generate_preferential,
    geodesic_distances,
    is_connected,
    parse_edge_list,
    serialize_edge_list,
    symmetrize_weak,
)
from impactfield.errors import AlreadyUndirectedWarning

from util import arcs, bfs_hops, hop_distance


# ---------------------------------------------------------------------------
# parsing


def test_parse_two_node_directed() -> None:
    g = parse_edge_list("a b\n", directed=True)
    assert g.n == 2
    assert g.directed
    assert g.edges == ((0, 1, 1.0),)
    assert g.labels == ("a", "b")


def test_parse_two_arcs_make_a_cycle() -> None:
    g = parse_edge_list("a b\nb a\n", directed=True)
    assert g.n == 2
    assert g.edges == ((0, 1, 1.0), (1, 0, 1.0))


def test_parse_labels_in_first_appearance_order() -> None:
    g = parse_edge_list("a b\nb c\n", directed=False)
    assert g.labels == ("a", "b", "c")
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))


def test_parse_weights_comments_and_blank_lines() -> None:
    text = "# header\n\nx y 2.5\n  # indented comment\ny z\n"
    g = parse_edge_list(text, directed=True)
    assert g.edges == ((0, 1, 2.5), (1, 2, 1.0))


def test_parse_malformed_line_reports_line_number() -> None:
    with pytest.raises(EdgeListParseError, match="line 3"):
        parse_edge_list("a b\nb c\nbroken\n", directed=True)


def test_parse_non_numeric_weight_reports_line_number() -> None:
    with pytest.raises(EdgeListParseError, match="line 1.*weight"):
        parse_edge_list("a b heavy\n", directed=True)


def test_parse_non_finite_weight_rejected() -> None:
    with pytest.raises(EdgeListParseError, match="non-finite"):
        parse_edge_list("a b inf\n", directed=True)


def test_parse_self_loop_rejected() -> None:
    with pytest.raises(GraphValidationError, match="self-loop"):
        parse_edge_list("a a\n", directed=True)


def test_parse_duplicate_edge_rejected() -> None:
    with pytest.raises(GraphValidationError, match="duplicate"):
        parse_edge_list("a b\na b 2.0\n", directed=True)


def test_parse_reversed_duplicate_rejected_when_undirected() -> None:
    with pytest.raises(GraphValidationError, match="duplicate"):
        parse_edge_list("a b\nb a\n", directed=False)


def test_parse_empty_input_gives_empty_graph() -> None:
    g = parse_edge_list("# nothing here\n", directed=False)
    assert g.n == 0
    assert g.edges == ()


def test_round_trip_is_identity() -> None:
    for directed in (True, False):
        for text in ("a b\nb c\nc d 0.25\n", "m n\nn o\no m\n" if directed else "m n\nn o\n"):
            first = parse_edge_list(text, directed=directed)
            second = parse_edge_list(serialize_edge_list(first), directed=directed)
            assert first == second


def test_round_trip_on_random_graphs() -> None:
    rng = np.random.default_rng(42)
    for trial in range(20):
        directed = bool(trial % 2)
        g = generate_er(n=12, p=0.3, directed=directed, seed=int(rng.integers(1 << 30)))
        again = parse_edge_list(serialize_edge_list(g), directed=directed)
        # parsing assigns dense indices by first appearance, so compare by label;
        # undirected canonical order is index-based and may flip across a round trip
        def labeled(graph: Graph) -> set:
            if graph.directed:
                return {(graph.label_of(s), graph.label_of(d), w) for s, d, w in graph.edges}
            return {(frozenset((graph.label_of(s), graph.label_of(d))), w) for s, d, w in graph.edges}

        assert labeled(again) == labeled(g)
        assert again.n <= g.n  # isolated nodes do not survive an edge list


# ---------------------------------------------------------------------------
# graph type invariants


def test_graph_rejects_out_of_range_index() -> None:
    with pytest.raises(GraphValidationError):
        Graph(n=2, directed=True, edges=((0, 5, 1.0),))


def test_graph_rejects_non_canonical_undirected_edge() -> None:
    with pytest.raises(GraphValidationError):
        Graph(n=3, directed=False, edges=((2, 1, 1.0),))


def test_adjacency_orientation() -> None:
    g = arcs(3, [(0, 1), (1, 2)])
    a = g.adjacency()
    assert a[0, 1] == 1.0 and a[1, 0] == 0.0
    assert a[1, 2] == 1.0 and a[2, 1] == 0.0


def test_adjacency_symmetric_for_undirected() -> None:
    g = arcs(4, [(0, 1), (1, 2), (0, 3)], directed=False)
    a = g.adjacency()
    assert np.array_equal(a, a.T)


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_single_arc() -> None:
    g = symmetrize_weak(arcs(2, [(0, 1)]))
    assert not g.directed
    assert g.edges == ((0, 1, 1.0),)


def test_symmetrize_mutual_arcs_collapse() -> None:
    g = symmetrize_weak(arcs(2, [(0, 1), (1, 0)]))
    assert g.edges == ((0, 1, 1.0),)


def test_symmetrize_takes_max_weight() -> None:
    g = symmetrize_weak(
        Graph(n=2, directed=True, edges=((0, 1, 3.0), (1, 0, 0.5)))
    )
    assert g.edges == ((0, 1, 3.0),)


def test_symmetrize_already_undirected_warns_and_returns_input() -> None:
    g = arcs(2, [(0, 1)], directed=False)
    with pytest.warns(AlreadyUndirectedWarning):
        out = symmetrize_weak(g)
    assert out is g


def test_symmetrize_idempotent_via_directed_round_trip() -> None:
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = generate_er(n=15, p=0.25, directed=True, seed=int(rng.integers(1 << 30)))
        once = symmetrize_weak(g)
        # re-expand every undirected edge into both arcs and symmetrize again
        expanded = Graph(
            n=once.n,
            directed=True,
            edges=tuple(
                arc
                for s, d, w in once.edges
                for arc in ((s, d, w), (d, s, w))
            ),
        )
        twice = symmetrize_weak(expanded)
        assert set(twice.edges) == set(once.edges)


# ---------------------------------------------------------------------------
# hop distances


def test_distances_on_directed_path() -> None:
    dist = geodesic_distances(arcs(3, [(0, 1), (1, 2)]))
    assert hop_distance(dist, 0, 1) == 1
    assert hop_distance(dist, 0, 2) == 2
    assert hop_distance(dist, 2, 0) is None
    assert hop_distance(dist, 1, 1) == 0


def test_distances_on_undirected_path() -> None:
    dist = geodesic_distances(arcs(3, [(0, 1), (1, 2)], directed=False))
    assert hop_distance(dist, 2, 0) == 2
    assert hop_distance(dist, 0, 2) == 2


def test_distances_two_components() -> None:
    dist = geodesic_distances(arcs(4, [(0, 1), (2, 3)], directed=False))
    assert hop_distance(dist, 0, 3) is None
    assert hop_distance(dist, 0, 1) == 1


def test_unreachable_pairs_hold_zero_hops() -> None:
    # approx_impact and the dyad index read hops without the mask
    for directed in (False, True):
        dist = geodesic_distances(arcs(5, [(0, 1), (1, 2), (3, 4)], directed=directed))
        assert not dist.reachable[0, 3] and not dist.reachable[4, 2]
        assert (dist.hops[~dist.reachable] == 0).all()
        assert dist.hops[0, 2] == 2


def test_distances_ignore_weights() -> None:
    g = Graph(n=3, directed=True, edges=((0, 1, 100.0), (1, 2, 0.001)))
    dist = geodesic_distances(g)
    assert hop_distance(dist, 0, 2) == 2


def test_distance_one_exactly_on_adjacent_pairs() -> None:
    rng = np.random.default_rng(11)
    for trial in range(10):
        directed = bool(trial % 2)
        g = generate_er(n=25, p=0.15, directed=directed, seed=int(rng.integers(1 << 30)))
        dist = geodesic_distances(g)
        adjacency = g.adjacency() != 0.0
        one_hop = dist.reachable & (dist.hops == 1)
        assert np.array_equal(one_hop, adjacency)


def test_distances_match_reference_bfs() -> None:
    rng = np.random.default_rng(23)
    for trial in range(12):
        directed = bool(trial % 2)
        g = generate_er(n=30, p=0.12, directed=directed, seed=int(rng.integers(1 << 30)))
        dist = geodesic_distances(g)
        hops, reachable = bfs_hops(g)
        assert np.array_equal(dist.reachable, reachable)
        assert np.array_equal(dist.hops[reachable], hops[reachable])


def test_distances_satisfy_triangle_inequality() -> None:
    g = generate_er(n=20, p=0.2, directed=True, seed=5)
    dist = geodesic_distances(g)
    f = np.where(dist.reachable, dist.hops, np.inf)
    for k in range(g.n):
        assert np.all(f <= f[:, k][:, None] + f[k, :][None, :] + 1e-9)


def test_undirected_distances_are_symmetric() -> None:
    g = generate_er(n=30, p=0.1, directed=False, seed=9)
    dist = geodesic_distances(g)
    f = np.where(dist.reachable, dist.hops, np.inf)
    assert np.array_equal(f, f.T)


# ---------------------------------------------------------------------------
# generators


def test_er_p_zero_has_no_edges() -> None:
    g = generate_er(n=5, p=0.0, directed=False, seed=1)
    assert g.n == 5
    assert g.edges == ()


def test_er_p_one_is_complete() -> None:
    g = generate_er(n=4, p=1.0, directed=False, seed=1)
    assert g.num_edges == 6
    d = generate_er(n=4, p=1.0, directed=True, seed=1)
    assert d.num_edges == 12


def test_er_deterministic_per_seed() -> None:
    a = generate_er(n=50, p=0.1, directed=True, seed=123)
    b = generate_er(n=50, p=0.1, directed=True, seed=123)
    c = generate_er(n=50, p=0.1, directed=True, seed=124)
    assert a == b
    assert a != c


def test_er_edge_count_within_binomial_bounds() -> None:
    n, p = 200, 0.025
    trials = n * (n - 1) // 2
    mean = trials * p
    sigma = math.sqrt(trials * p * (1.0 - p))
    for seed in (7, 0, 1, 2, 3, 4):
        g = generate_er(n=n, p=p, directed=False, seed=seed)
        assert abs(g.num_edges - mean) <= 4.0 * sigma


def test_er_rejects_bad_arguments() -> None:
    with pytest.raises(ValidationError):
        generate_er(n=0, p=0.5, directed=False, seed=1)
    with pytest.raises(ValidationError):
        generate_er(n=5, p=1.5, directed=False, seed=1)


def test_preferential_two_nodes_single_edge() -> None:
    g = generate_preferential(n=2, m=1, seed=0)
    assert g.edges == ((0, 1, 1.0),)


def test_preferential_edge_count_and_connectivity() -> None:
    g = generate_preferential(n=50, m=2, seed=3)
    assert g.num_edges == 97  # 1 + 2 * 48: early arrivals attach to fewer nodes
    assert is_connected(g)


def test_preferential_deterministic_per_seed() -> None:
    assert generate_preferential(60, 2, 5) == generate_preferential(60, 2, 5)
    assert generate_preferential(60, 2, 5) != generate_preferential(60, 2, 6)


def test_preferential_hubs_attract() -> None:
    g = generate_preferential(n=400, m=1, seed=2)
    degree = np.zeros(g.n)
    for s, d, _ in g.edges:
        degree[s] += 1
        degree[d] += 1
    # a tree with degree-proportional attachment grows hubs well above
    # anything a flat random tree would produce
    assert degree.max() >= 10


def test_preferential_rejects_bad_arguments() -> None:
    with pytest.raises(ValidationError):
        generate_preferential(n=5, m=0, seed=1)
    with pytest.raises(ValidationError):
        generate_preferential(n=5, m=5, seed=1)

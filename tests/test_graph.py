"""Graph ingestion, symmetrization, hop distances, generators."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csgraph

import impactfield

from impactfield import (
    DistanceMatrix,
    EdgeListParseError,
    Graph,
    GraphValidationError,
    ValidationError,
    generate_er,
    generate_preferential,
    geodesic_distances,
    parse_edge_list,
    serialize_edge_list,
    symmetrize_weak,
)
from impactfield.errors import AlreadyUndirectedWarning
from impactfield.graph import _FRONTIER_LEVELS, largest_component_diameter

from util import (
    TracedMemory,
    arcs,
    bfs_hops,
    hop_distance,
    hung_path,
    is_connected,
    loop_adjacency,
    loop_sparse,
    whole_array_er_edges,
)

# longer than the levels expanded from every node at once, so the nodes
# still active at the end are searched one by one
LONG = 2 * _FRONTIER_LEVELS + 5


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


@pytest.mark.parametrize(
    "n, edges, labels, message",
    [
        (-1, (), None, "node count must be nonnegative"),
        (2, ((0, 1, 1.0),), ("a",), "label tuple must have one entry per node"),
        (2, ((1, 1, 1.0),), None, "self-loop on node 1"),
        (2, ((0, 1, math.nan),), None, r"edge \(0, 1\) has non-finite weight"),
        (2, ((0, 1, 1.0), (0, 1, 2.0)), None, r"duplicate edge \(0, 1\)"),
    ],
    ids=["negative-n", "label-count", "self-loop", "non-finite-weight", "duplicate-edge"],
)
def test_graph_constructor_rejects(n, edges, labels, message) -> None:
    with pytest.raises(GraphValidationError, match=f"^{message}$"):
        Graph(n=n, directed=True, edges=edges, labels=labels)


def test_adjacency_orientation() -> None:
    g = arcs(3, [(0, 1), (1, 2)])
    a = g.adjacency()
    assert a[0, 1] == 1.0 and a[1, 0] == 0.0
    assert a[1, 2] == 1.0 and a[2, 1] == 0.0


def test_adjacency_symmetric_for_undirected() -> None:
    g = arcs(4, [(0, 1), (1, 2), (0, 3)], directed=False)
    a = g.adjacency()
    assert np.array_equal(a, a.T)


ARC_GRAPHS = {
    "directed": generate_er(n=40, p=0.1, directed=True, seed=3),
    "undirected": generate_er(n=40, p=0.1, directed=False, seed=3),
    "weighted-directed": Graph(n=4, directed=True, edges=((2, 1, 2.5), (0, 2, -0.5), (1, 0, 0.0))),
    "weighted-undirected": Graph(n=4, directed=False, edges=((1, 3, 2.5), (0, 2, -0.5), (0, 1, 1e-300))),
    "edgeless-directed": Graph(n=3, directed=True, edges=()),
    "edgeless-undirected": Graph(n=3, directed=False, edges=()),
}


@pytest.mark.parametrize("graph", ARC_GRAPHS.values(), ids=ARC_GRAPHS.keys())
def test_adjacency_matches_the_per_arc_loop(graph) -> None:
    assert np.array_equal(graph.adjacency(), loop_adjacency(graph))
    assert graph.adjacency().flags.writeable


@pytest.mark.parametrize("graph", ARC_GRAPHS.values(), ids=ARC_GRAPHS.keys())
def test_sparse_adjacency_keeps_the_per_arc_layout(graph) -> None:
    # the CSR arrays, order included, are what ARPACK iterates on
    for built, weighted in ((graph.adjacency_sparse(), True), (graph.structure_sparse(), False)):
        reference = loop_sparse(graph, weighted)
        for field in ("indptr", "indices", "data"):
            got, expected = getattr(built, field), getattr(reference, field)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


def test_arc_arrays_are_shared_and_read_only() -> None:
    g = ARC_GRAPHS["undirected"]
    src, dst, weights = g._arcs
    assert g._arcs[0] is src
    assert not any(array.flags.writeable for array in (src, dst, weights))
    assert src.size == 2 * g.num_edges


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
    # approx_impact and the decay curves' bincount read hops without the mask
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


def test_bit_parallel_hops_match_csgraph() -> None:
    # 64 targets share a word, so n around word edges and long paths that
    # leave the level loop for csgraph are compared with its search
    rng = np.random.default_rng(29)
    graphs = [
        generate_er(n=n, p=2.5 / n, directed=directed, seed=int(rng.integers(1 << 30)))
        for n in (63, 64, 65, 128, 200)
        for directed in (False, True)
    ]
    path = [(i, i + 1) for i in range(LONG - 1)]
    graphs += [
        arcs(LONG, path),
        arcs(LONG, path, directed=False),
        arcs(LONG, path + [(LONG - 1, 0)]),
        # nodes 1, 4 and 66 to 69 are isolated
        arcs(70, [(0, 2), (2, 3), (3, 5), (65, 0)] + [(i, i + 1) for i in range(5, 65)]),
        arcs(70, [(0, 2), (2, 3), (65, 0)], directed=False),
    ]
    for g in graphs:
        expected = csgraph.shortest_path(
            g.structure_sparse(), directed=g.directed, unweighted=True
        )
        expected[np.isinf(expected)] = 0.0
        hops = geodesic_distances(g).hops
        assert hops.dtype == np.min_scalar_type(int(expected.max(initial=0)))
        assert np.array_equal(hops, expected.astype(hops.dtype))


def test_distances_match_reference_bfs() -> None:
    rng = np.random.default_rng(23)
    graphs = [
        generate_er(n=30, p=0.12, directed=bool(trial % 2), seed=int(rng.integers(1 << 30)))
        for trial in range(12)
    ]
    path = [(i, i + 1) for i in range(LONG - 1)]
    graphs += [
        arcs(LONG, path),
        arcs(LONG, path, directed=False),
        arcs(LONG, path + [(LONG - 1, 0)]),  # directed cycle
        arcs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        arcs(8, [(0, 3), (3, 5), (5, 0), (1, 6)]),  # nodes 2, 4 and 7 isolated
        arcs(8, [(0, 3), (3, 5), (1, 6)], directed=False),
        Graph(n=0, directed=True, edges=()),
        Graph(n=1, directed=True, edges=()),
        Graph(n=1, directed=False, edges=()),
        # the directed corpus shape: n=300 at mean out-degree 2.5
        generate_er(n=300, p=5.0 / 598.0, directed=True, seed=2000),
        # 256 frontier nodes meet at once at the far hub
        arcs(258, [(hub, leaf) for hub in (0, 1) for leaf in range(2, 258)], directed=False),
        # no geodesic at all, however many nodes: uint8 either side of n = 256
        Graph(n=256, directed=True, edges=()),
        Graph(n=257, directed=True, edges=()),
        # 299 hops end to end, past uint8, found by the csgraph hand-off
        arcs(300, [(i, i + 1) for i in range(299)]),
        arcs(300, [(i, i + 1) for i in range(299)], directed=False),
    ]
    for g in graphs:
        dist = geodesic_distances(g)
        hops, reachable = bfs_hops(g)
        # the narrowest unsigned type that holds the longest geodesic
        assert dist.hops.dtype == np.min_scalar_type(int(hops.max(initial=0)))
        assert np.array_equal(dist.reachable, reachable)
        assert np.array_equal(dist.hops, hops)


def test_pair_counts_cast_no_whole_array() -> None:
    # bincount casts its input to intp, 8 bytes per entry; held uint16
    # hops and a row-by-row count stay far below the int64 array alone.
    # This graph's hops come in uint8; uint16 ones are the wider index
    n = 800
    g = generate_er(n=n, p=5.0 / (n - 1), directed=False, seed=3)
    g.structure_sparse()
    with TracedMemory() as memory:
        dist = DistanceMatrix(hops=geodesic_distances(g).hops.astype(np.uint16))
        memory.reset_peak()
        counts = dist.pair_counts
        peak = memory.growth()
    assert dist.hops.dtype == np.uint16
    assert np.array_equal(counts, np.bincount(dist.hops.ravel()))
    assert peak < 4 * n * n


def test_small_world_hops_take_one_byte_each() -> None:
    # the directed corpus shape, and a sparse ER past n = 256 whose longest
    # geodesic is under a dozen hops: n^2 bytes of uint8, not 2 n^2 of uint16
    corpus = generate_er(n=300, p=5.0 / 598.0, directed=True, seed=2000)
    assert geodesic_distances(corpus).hops.dtype == np.uint8
    n = 800
    g = generate_er(n=n, p=5.0 / (n - 1), directed=False, seed=3)
    g.structure_sparse()
    with TracedMemory() as memory:
        dist = geodesic_distances(g)
        peak = memory.growth()
        held = memory.held()
    assert dist.hops.dtype == np.uint8
    expected = csgraph.shortest_path(g.structure_sparse(), directed=False, unweighted=True)
    expected[np.isinf(expected)] = 0.0
    assert np.array_equal(dist.hops, expected)
    assert held < 1.25 * n * n
    # the search's bit arrays come and go beside it, 5 n^2 / 8 bytes at most
    assert peak < 2 * n * n


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("longest", [255, 256])
def test_hops_widen_past_255_only(longest, directed) -> None:
    # n > 256 either way; the csgraph hand-off finds the path's ends, and
    # only a geodesic past uint8's bound widens the array
    g = hung_path(longest, directed)
    hops = geodesic_distances(g).hops
    expected, _ = bfs_hops(g)
    assert g.n > 256 and expected.max() == longest
    assert hops.dtype == (np.uint8 if longest <= 255 else np.uint16)
    assert np.array_equal(hops, expected)


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
# diameter of the largest weak component


def test_diameter_of_undirected_path() -> None:
    for n in (6, LONG):
        path = arcs(n, [(i, i + 1) for i in range(n - 1)], directed=False)
        assert largest_component_diameter(path) == n - 1


def test_diameter_reads_the_largest_component_only() -> None:
    # a 4-node path (diameter 3) beside a 6-node star (diameter 2)
    g = arcs(10, [(0, 1), (1, 2), (2, 3)] + [(4, leaf) for leaf in range(5, 10)], directed=False)
    assert largest_component_diameter(g) == 2


def test_diameter_tie_goes_to_the_component_of_the_lowest_node() -> None:
    path = [(0, 1), (1, 2), (2, 3)]
    star = [(0, 1), (0, 2), (0, 3)]
    path_then_star = path + [(s + 4, d + 4) for s, d in star]
    star_then_path = star + [(s + 4, d + 4) for s, d in path]
    assert largest_component_diameter(arcs(8, path_then_star, directed=False)) == 3
    assert largest_component_diameter(arcs(8, star_then_path, directed=False)) == 2


def test_diameter_ignores_arc_direction() -> None:
    # no directed path joins 0 and 3, but the weak component is a 4-node path
    assert largest_component_diameter(arcs(4, [(0, 1), (2, 1), (2, 3)])) == 3


def test_diameter_of_a_single_node_is_zero() -> None:
    assert largest_component_diameter(Graph(n=1, directed=True, edges=())) == 0


def test_diameter_of_empty_graph_is_undefined() -> None:
    with pytest.raises(ValidationError):
        largest_component_diameter(Graph(n=0, directed=False, edges=()))


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


@pytest.mark.parametrize("directed", [True, False])
def test_er_row_draw_matches_the_whole_array_draw(directed) -> None:
    for n in (1, 2, 17, 300):
        for seed in range(5):
            g = generate_er(n=n, p=0.1, directed=directed, seed=seed)
            assert [(src, dst) for src, dst, _ in g.edges] == whole_array_er_edges(
                n, 0.1, directed, seed
            )


def test_er_memory_is_linear_in_n() -> None:
    # a whole-array draw over the 2e8 candidate pairs peaks near 4.8 GB;
    # the data limit turns such a draw into a MemoryError instead
    script = """
import resource
resource.setrlimit(resource.RLIMIT_DATA, (1 << 30, resource.RLIM_INFINITY))
from impactfield import generate_er
g = generate_er(20000, 5 / 19999, False, 0)
print(g.num_edges, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    source = str(Path(impactfield.__file__).parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": source}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    edges, peak_kb = map(int, result.stdout.split())
    assert edges > 40000
    assert peak_kb < 256 * 1024


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

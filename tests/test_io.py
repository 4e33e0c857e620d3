"""The per-dyad dump and the atomic writer it streams through."""

from __future__ import annotations

import concurrent.futures
import math
import os

import numpy as np
import pytest

from impactfield.analysis import Treatment, run_study
from impactfield.graph import Graph, geodesic_distances, parse_edge_list
from impactfield.impact import ImpactKind, ImpactMatrix
from impactfield.io import DYAD_BLOCK_ROWS, atomic_write_text, write_dyads_csv

from util import arcs, hop_distance, read_dyads_csv, rowwise_dyads_csv

# name -> (graph, treatment, orders)
DUMP_CASES = {
    "two-components": (parse_edge_list("a b\nb c\nd e\n", directed=False), None, (1, 2)),
    "directed": (
        parse_edge_list("a b\nb c\nc a\nc d\nd a\nd sink\n", directed=True),
        Treatment.DIRECTED,
        (1, 2),
    ),
    "weighted": (
        parse_edge_list("a b 2.5\nb c 0.25\nc d 1.5\nd a\na c 0.75\n", directed=False),
        None,
        (1, 2),
    ),
    "unlabelled": (arcs(5, [(0, 1), (1, 2), (2, 3), (3, 4)], directed=False), None, (1,)),
    "quoted-labels": (
        parse_edge_list('a,b say"hi"\nsay"hi" plain\nplain a,b\nplain x\n', directed=False),
        None,
        (1, 2),
    ),
    "unsorted-orders": (
        parse_edge_list("a b\nb c\nc d\nd e\ne a\na c\n", directed=False),
        None,
        (3, 1, 2),
    ),
}


def _study_matrices(graph: Graph, treatment, orders):
    [cell] = run_study(
        graph,
        gammas=[0.5],
        orders=orders,
        keep_matrices=True,
        treatments=None if treatment is None else (treatment,),
    )
    assert cell.error is None
    # the dict arrives in the caller's order, not sorted
    return cell.distances, cell.exact, {order: cell.approximations[order] for order in orders}


@pytest.mark.parametrize("name", list(DUMP_CASES))
def test_dyad_dump_matches_rowwise_writer(tmp_path, name) -> None:
    graph, treatment, orders = DUMP_CASES[name]
    dist, exact, approximations = _study_matrices(graph, treatment, orders)
    path, reference = tmp_path / "dyads.csv", tmp_path / "reference.csv"
    write_dyads_csv(path, graph, dist, exact, approximations)
    rowwise_dyads_csv(reference, graph, dist, exact, approximations)
    assert path.read_bytes() == reference.read_bytes()

    rows = read_dyads_csv(path)
    pairs = [(i, j) for i in range(graph.n) for j in range(graph.n) if i != j]
    assert len(rows) == len(pairs)
    assert list(rows[0])[4:] == [f"approx{order}" for order in sorted(orders)]
    for row, (i, j) in zip(rows, pairs):
        assert (row["src"], row["dst"]) == (graph.label_of(i), graph.label_of(j))
        d = hop_distance(dist, i, j)
        assert row["dist"] == (math.inf if d is None else d)
        assert row["exact"] == exact.values[i, j]
        for order in orders:
            assert row[f"approx{order}"] == approximations[order].values[i, j]


def _two_component_digraph(n: int) -> Graph:
    """A random digraph on two strongly connected halves, labels that need CSV quoting."""
    rng = np.random.default_rng(3)
    label = [f'v{i},"q"' if i % 3 else f"v{i}" for i in range(n)]
    lines = []
    for lo, hi in ((0, n // 2), (n // 2, n)):
        pairs = {(i, i + 1 if i + 1 < hi else lo) for i in range(lo, hi)}  # a cycle
        pairs |= {(a, b) for a, b in rng.integers(lo, hi, (2 * (hi - lo), 2)).tolist() if a != b}
        lines += [f"{label[a]} {label[b]}" for a, b in sorted(pairs)]
    return parse_edge_list("\n".join(lines) + "\n", directed=True)


@pytest.mark.parametrize("treatment", list(Treatment))
def test_dyad_dump_over_several_blocks_matches_on_any_cpu_count(
    tmp_path, monkeypatch, treatment
) -> None:
    # three whole blocks and a partial one; half the pairs are unreachable
    graph = _two_component_digraph(3 * DYAD_BLOCK_ROWS + 5)
    dist, exact, approximations = _study_matrices(graph, treatment, (1, 2))
    assert not dist.reachable.all()
    reference = tmp_path / "reference.csv"
    rowwise_dyads_csv(reference, graph, dist, exact, approximations)

    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def counted_pool(*args, **kwargs):
        pools.append(kwargs)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted_pool)
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        path = tmp_path / f"dyads_{len(cpus)}.csv"
        write_dyads_csv(path, graph, dist, exact, approximations)
        assert path.read_bytes() == reference.read_bytes()
    # two CPUs start one pool; one CPU formats in-process
    assert pools == [{"max_workers": 2}]
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "dyads_1.csv", "dyads_2.csv", "reference.csv"
    ]


def test_dyad_dump_float_text_matches_rowwise_writer(tmp_path) -> None:
    graph = arcs(4, [(0, 1), (2, 3)], directed=False)
    special = [-0.0, 5e-324, 1e300, -1e-300, 0.1, 1 / 3, math.inf, -math.inf, math.nan, 2.0**53]
    rng = np.random.default_rng(5)
    values = rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-20, 20, (4, 4))
    values.flat[: len(special)] = special
    exact = ImpactMatrix(n=4, values=values, kind=ImpactKind.EXACT, gamma=0.5)
    approx = ImpactMatrix(n=4, values=values[::-1].copy(), kind=ImpactKind.APPROX, gamma=0.5,
                          order=1)
    dist = geodesic_distances(graph)
    path, reference = tmp_path / "dyads.csv", tmp_path / "reference.csv"
    write_dyads_csv(path, graph, dist, exact, {1: approx})
    rowwise_dyads_csv(reference, graph, dist, exact, {1: approx})
    assert path.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("n", [0, 1])
def test_dyad_dump_of_a_graph_without_pairs_is_the_header(tmp_path, n) -> None:
    graph = Graph(n=n, directed=False, edges=())
    empty = ImpactMatrix(n=n, values=np.zeros((n, n)), kind=ImpactKind.EXACT, gamma=0.5)
    path = tmp_path / "dyads.csv"
    write_dyads_csv(path, graph, geodesic_distances(graph), empty, {})
    assert path.read_text() == "src,dst,dist,exact\n"


def test_atomic_write_keeps_target_when_chunks_fail(tmp_path) -> None:
    target = tmp_path / "out.csv"
    target.write_text("old contents\n")

    def chunks():
        yield "new,"
        yield "partial\n"
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError, match="producer failed"):
        atomic_write_text(target, chunks())
    assert target.read_text() == "old contents\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv"]


def test_atomic_write_takes_a_string_or_chunks(tmp_path) -> None:
    text = "a,b\n1,ä\n"
    atomic_write_text(tmp_path / "whole.csv", text)
    atomic_write_text(tmp_path / "chunks.csv", iter(["a,b\n", "1,", "ä\n"]))
    assert (tmp_path / "whole.csv").read_bytes() == text.encode("utf-8")
    assert (tmp_path / "chunks.csv").read_bytes() == text.encode("utf-8")

"""The per-dyad dump and the atomic writer it streams through."""

from __future__ import annotations

import concurrent.futures
import math
import operator
import os

import numpy as np
import pytest

import impactfield.io
from impactfield.analysis import Treatment, run_study
from impactfield.graph import Graph, geodesic_distances, parse_edge_list
from impactfield.io import _bounded_map, atomic_write_text, write_dyads_csv

from util import arcs, read_dyads_csv, rowwise_dyads_csv, streamed_study

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


def _dump(path, graph: Graph, treatment, orders):
    """Stream one gamma=0.5 study cell's dump to ``path``; return its matrices.

    The cell is the treatment asked for, or the only one of undirected input.
    """
    symmetrize = treatment is not Treatment.DIRECTED

    def write(cell_treatment, gamma, symmetric, kept, blocks):
        if treatment in (None, cell_treatment):
            write_dyads_csv(path, graph, symmetric, kept, blocks)

    run_study(graph, gammas=[0.5], orders=orders, dyads=write, symmetrize=symmetrize)
    cells, matrices = streamed_study(
        graph, gammas=[0.5], orders=orders, symmetrize=symmetrize
    )
    assert all(cell.error is None for cell in cells)
    # cells come sorted by treatment, so the asked-for one is the last
    return matrices[cells[-1].treatment, 0.5]


@pytest.mark.parametrize("name", list(DUMP_CASES))
def test_dyad_dump_matches_rowwise_writer(tmp_path, name) -> None:
    graph, treatment, orders = DUMP_CASES[name]
    path, reference = tmp_path / "dyads.csv", tmp_path / "reference.csv"
    exact, approximations, hops = _dump(path, graph, treatment, orders)
    rowwise_dyads_csv(reference, graph, hops, exact, approximations)
    assert path.read_bytes() == reference.read_bytes()
    # the mirrored lines' spill file leaves no trace
    assert sorted(path.name for path in tmp_path.iterdir()) == ["dyads.csv", "reference.csv"]

    rows = read_dyads_csv(path)
    pairs = [(i, j) for i in range(graph.n) for j in range(graph.n) if i != j]
    assert len(rows) == len(pairs)
    assert list(rows[0])[4:] == [f"approx{order}" for order in sorted(orders)]
    for row, (i, j) in zip(rows, pairs):
        assert (row["src"], row["dst"]) == (graph.label_of(i), graph.label_of(j))
        assert row["dist"] == (math.inf if hops[i, j] == 0 else hops[i, j])
        assert row["exact"] == exact[i, j]
        for order in orders:
            assert row[f"approx{order}"] == approximations[order][i, j]


@pytest.mark.parametrize("name", [name for name, case in DUMP_CASES.items() if case[1] is None])
def test_symmetric_dyad_dump_lines_mirror_each_other(tmp_path, name) -> None:
    # a cell whose W is symmetric formats each unordered pair once, which is
    # only right if lines (i, j) and (j, i) agree in every field but the labels
    graph, treatment, orders = DUMP_CASES[name]
    _dump(tmp_path / "dyads.csv", graph, treatment, orders)
    lines = (tmp_path / "dyads.csv").read_text().splitlines()[1:]
    pairs = [(i, j) for i in range(graph.n) for j in range(graph.n) if i != j]
    assert len(lines) == len(pairs)
    # the labels may hold commas; dist, exact and the approximations do not
    fields = {pair: line.rsplit(",", 2 + len(orders))[1:] for pair, line in zip(pairs, lines)}
    for (i, j), values in fields.items():
        assert values == fields[j, i]


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
    # odd n in pass blocks of 40 and 36 rows, which formatting tasks cut
    # by their lines, so some tasks start inside a pass block, and the
    # last row of n = 73 is a block and a task of its own, with no lines
    # but those mirrored to it; half the pairs are unreachable
    pools, starts = [], []
    real_pool, real_tasks = concurrent.futures.ProcessPoolExecutor, impactfield.io._dyad_tasks

    def counted_pool(*args, **kwargs):
        pools.append(kwargs)
        return real_pool(*args, **kwargs)

    def recorded_tasks(*args):
        for task in real_tasks(*args):
            starts.append(task[0])
            yield task

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted_pool)
    monkeypatch.setattr(impactfield.io, "_dyad_tasks", recorded_tasks)
    for n, block_rows in ((101, 40), (73, 36)):
        graph = _two_component_digraph(n)
        monkeypatch.setattr("impactfield.impact._BLOCK_ENTRIES", block_rows * n)
        out = tmp_path / str(n)
        out.mkdir()
        starts.clear()
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            path = out / f"dyads_{len(cpus)}.csv"
            exact, approximations, hops = _dump(path, graph, treatment, (1, 2))
        assert (hops == 0).sum() > n * n // 2
        assert set(starts) - set(range(0, n, block_rows))
        reference = out / "reference.csv"
        rowwise_dyads_csv(reference, graph, hops, exact, approximations)
        for cpus in (1, 2):
            assert (out / f"dyads_{cpus}.csv").read_bytes() == reference.read_bytes()
        assert sorted(path.name for path in out.iterdir()) == [
            "dyads_1.csv", "dyads_2.csv", "reference.csv"
        ]
    # two CPUs start one pool per dump; one CPU formats in-process
    assert pools == [{"max_workers": 2}] * 2


def test_block_map_submits_a_bounded_number_of_blocks_ahead() -> None:
    # a finished block's text waits in its future until the writer takes
    # it, so no more than ``ahead`` blocks may be submitted and not taken
    submitted: list[int] = []

    class InlinePool:
        def submit(self, fn, *args):
            submitted.append(args[0])
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    taken, backlog = [], []
    for value in _bounded_map(InlinePool(), 4, operator.mul, range(20), range(20, 40)):
        backlog.append(len(submitted) - len(taken))
        taken.append(value)
    assert taken == [a * b for a, b in zip(range(20), range(20, 40))]
    assert submitted == list(range(20))
    assert max(backlog) == 4


def test_dyad_dump_float_text_matches_rowwise_writer(tmp_path) -> None:
    graph = arcs(4, [(0, 1), (2, 3)], directed=False)
    special = [-0.0, 5e-324, 1e300, -1e-300, 0.1, 1 / 3, math.inf, -math.inf, math.nan, 2.0**53]
    rng = np.random.default_rng(5)
    values = rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-20, 20, (4, 4))
    values.flat[: len(special)] = special
    approx = values[::-1].copy()
    hops = geodesic_distances(graph).hops.astype(np.intp)
    for symmetric in (False, True):
        if symmetric:
            # a symmetric cell's matrices are symmetric, and only then mirrored
            upper = np.triu_indices(4, 1)
            for matrix in (values, approx):
                matrix.T[upper] = matrix[upper]
        path, reference = tmp_path / f"{symmetric}.csv", tmp_path / "reference.csv"
        write_dyads_csv(path, graph, symmetric, [1], iter([(slice(0, 4), hops, values, [approx])]))
        rowwise_dyads_csv(reference, graph, hops, values, {1: approx})
        assert path.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("n", [0, 1])
def test_dyad_dump_of_a_graph_without_pairs_is_the_header(tmp_path, n) -> None:
    graph = Graph(n=n, directed=False, edges=())
    blocks = [(slice(0, n), np.zeros((n, n), dtype=np.intp), np.zeros((n, n)), [])]
    path = tmp_path / "dyads.csv"
    write_dyads_csv(path, graph, True, [], iter(blocks))
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

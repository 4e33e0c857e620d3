"""Graph ingestion, symmetrization, hop distances, and synthetic generators.

Conventions used throughout the package:

* Nodes are dense integer indices assigned in order of first appearance;
  the original string labels are kept on the Graph for output.
* An edge ``(i, j)`` is an arc from i to j. Undirected graphs store each
  edge once with ``i <= j`` and expand both directions when an adjacency
  matrix is materialized.
* Hop distances follow arc direction and ignore edge weights. A pair with
  no connecting path holds a hop count of 0, as the diagonal does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import (
    AlreadyUndirectedWarning,
    EdgeListParseError,
    GraphValidationError,
    ValidationError,
)

__all__ = [
    "Graph",
    "DistanceMatrix",
    "parse_edge_list",
    "serialize_edge_list",
    "symmetrize_weak",
    "geodesic_distances",
    "generate_er",
    "generate_preferential",
    "largest_component_diameter",
]

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class Graph:
    """A finite graph with weighted edges and stable node labels.

    Parameters
    ----------
    n : int
        Number of nodes; indices run over ``range(n)``.
    directed : bool
        Whether edges are one-way arcs.
    edges : tuple of (src, dst, weight)
        No duplicates, no self-loops. Undirected edges satisfy
        ``src <= dst``.
    labels : tuple of str, optional
        Original node labels, index-aligned. ``None`` means nodes are
        anonymous and stringify as their index.
    """

    n: int
    directed: bool
    edges: tuple[Edge, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphValidationError("node count must be nonnegative")
        if self.labels is not None and len(self.labels) != self.n:
            raise GraphValidationError("label tuple must have one entry per node")
        seen: set[tuple[int, int]] = set()
        for src, dst, weight in self.edges:
            if not (0 <= src < self.n and 0 <= dst < self.n):
                raise GraphValidationError(f"edge ({src}, {dst}) out of range for n={self.n}")
            if src == dst:
                raise GraphValidationError(f"self-loop on node {src}")
            if not self.directed and src > dst:
                raise GraphValidationError(
                    f"undirected edge ({src}, {dst}) not stored in canonical order"
                )
            if not math.isfinite(weight):
                raise GraphValidationError(f"edge ({src}, {dst}) has non-finite weight")
            if (src, dst) in seen:
                raise GraphValidationError(f"duplicate edge ({src}, {dst})")
            seen.add((src, dst))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def label_of(self, index: int) -> str:
        return self.labels[index] if self.labels is not None else str(index)

    @cached_property
    def _arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arc rows, columns and weights, read-only and built on first use.

        An undirected edge is listed in both directions, the stored one
        first, each pair next to the other in edge order. That order
        fixes the CSR layout, which ARPACK's iterations depend on.
        """
        table = np.array(self.edges, dtype=float).reshape(-1, 3)
        src, dst, weights = table[:, 0].astype(np.intp), table[:, 1].astype(np.intp), table[:, 2]
        if not self.directed:
            src, dst = np.column_stack((src, dst)).ravel(), np.column_stack((dst, src)).ravel()
            weights = np.repeat(weights, 2)
        for array in (src, dst, weights):
            array.flags.writeable = False
        return src, dst, weights

    @cached_property
    def _symmetric(self) -> bool:
        """Whether A is symmetric: undirected, or each arc (i, j, w) reversed by an arc (j, i, w).

        The one rule that picks the eigensolver, the inverse, the pass and the dyad dump.
        """
        if not self.directed:
            return True
        src, dst, weights = self._arcs
        # the arcs sorted by (i, j) then match their reverses sorted by (j, i)
        forward, backward = np.lexsort((dst, src)), np.lexsort((src, dst))
        pairs = ((src, dst), (dst, src), (weights, weights))
        return all(np.array_equal(a[forward], b[backward]) for a, b in pairs)

    def adjacency(self) -> np.ndarray:
        """Dense weighted adjacency; entry (i, j) is the arc i -> j."""
        src, dst, weights = self._arcs
        a = np.zeros((self.n, self.n))
        a[src, dst] = weights
        return a

    def adjacency_sparse(self) -> sp.csr_matrix:
        """CSR weighted adjacency with both directions expanded."""
        src, dst, weights = self._arcs
        return sp.csr_matrix((weights, (src, dst)), shape=(self.n, self.n))

    def structure_sparse(self) -> sp.csr_matrix:
        """CSR 0/1 structure matrix, for traversals that ignore weights."""
        src, dst, _ = self._arcs
        return sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(self.n, self.n))


def parse_edge_list(source: str | IO[str] | Iterable[str], directed: bool) -> Graph:
    """Parse whitespace-separated ``src dst [weight]`` lines into a Graph.

    Labels are arbitrary strings and become dense indices in order of
    first appearance. Blank lines and lines starting with ``#`` are
    skipped. Self-loops and repeated (src, dst) pairs are rejected; for
    undirected input a reversed repeat counts as the same edge.
    """
    lines: Iterable[str] = source.splitlines() if isinstance(source, str) else source
    index: dict[str, int] = {}
    edges: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise EdgeListParseError(
                f"expected 'src dst [weight]', got {len(tokens)} tokens", line_number
            )
        weight = 1.0
        if len(tokens) == 3:
            try:
                weight = float(tokens[2])
            except ValueError:
                raise EdgeListParseError(
                    f"non-numeric weight {tokens[2]!r}", line_number
                ) from None
            if not math.isfinite(weight):
                raise EdgeListParseError(f"non-finite weight {tokens[2]!r}", line_number)
        if tokens[0] == tokens[1]:
            raise GraphValidationError(f"line {line_number}: self-loop on {tokens[0]!r}")
        src = index.setdefault(tokens[0], len(index))
        dst = index.setdefault(tokens[1], len(index))
        if not directed and src > dst:
            src, dst = dst, src
        if (src, dst) in seen:
            raise GraphValidationError(
                f"line {line_number}: duplicate edge {tokens[0]!r} -> {tokens[1]!r}"
            )
        seen.add((src, dst))
        edges.append((src, dst, weight))
    return Graph(n=len(index), directed=directed, edges=tuple(edges), labels=tuple(index))


def serialize_edge_list(graph: Graph) -> str:
    """Inverse of parse_edge_list; weights of 1.0 are left implicit."""
    lines = []
    for src, dst, weight in graph.edges:
        if weight == 1.0:
            lines.append(f"{graph.label_of(src)} {graph.label_of(dst)}")
        else:
            lines.append(f"{graph.label_of(src)} {graph.label_of(dst)} {weight!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def symmetrize_weak(graph: Graph) -> Graph:
    """Undirected graph with an edge wherever either arc exists.

    When both arcs of a pair are present the larger weight wins. Calling
    this on an already undirected graph is a no-op and warns.
    """
    if not graph.directed:
        warnings.warn(
            "symmetrize_weak: input is already undirected; returning it unchanged",
            AlreadyUndirectedWarning,
            stacklevel=2,
        )
        return graph
    merged: dict[tuple[int, int], float] = {}
    for src, dst, weight in graph.edges:
        key = (dst, src) if src > dst else (src, dst)
        prev = merged.get(key)
        merged[key] = weight if prev is None else max(prev, weight)
    edges = tuple((src, dst, weight) for (src, dst), weight in merged.items())
    return Graph(n=graph.n, directed=False, edges=edges, labels=graph.labels)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs hop counts; a pair with no connecting path holds 0.

    Unreachable pairs hold 0, like the diagonal, so ``hops`` can index a
    per-distance table directly, and ``hops >= 1`` is exactly the set of
    dyads: the ordered pairs at finite hop distance >= 1.

    ``hops`` comes from ``geodesic_distances`` in the narrowest unsigned
    type that holds its longest geodesic: uint8 up to 255 hops, whatever
    n. Arithmetic on a raw hop count can wrap, so cast it to int first.
    numpy casts a narrower index array to intp, whole, on every gather
    (``np.add.at`` casts through a small buffer instead), so a reader
    that gathers with hops casts one block of rows at a time.

    ``reachable`` adds the diagonal to the dyads. ``pair_counts[d]``
    counts the pairs at d >= 1 hops; its bin 0 lumps the diagonal with
    the unreachable pairs and is never a distance. These arrays are
    computed from ``hops`` on first use and then shared, so they are
    read-only.
    """

    hops: np.ndarray

    @property
    def n(self) -> int:
        return len(self.hops)

    @cached_property
    def reachable(self) -> np.ndarray:
        mask = self.hops >= 1
        np.fill_diagonal(mask, True)
        mask.flags.writeable = False
        return mask

    @cached_property
    def pair_counts(self) -> np.ndarray:
        # bincount casts its input to intp, so it counts one row at a time
        counts = np.zeros(int(self.hops.max(initial=0)) + 1, dtype=np.intp)
        for row in self.hops:
            counts += np.bincount(row, minlength=len(counts))
        counts.flags.writeable = False
        return counts


# Hop levels expanded from every node at once before the nodes whose
# search is still going are handed to csgraph: each level costs an n^2
# pass whatever its frontier holds, so a long geodesic is cheaper to
# search node by node.
_FRONTIER_LEVELS = 32


def _hop_levels(structure: sp.csr_matrix) -> np.ndarray:
    """All-pairs hop counts of a 0/1 structure matrix; 0 where no path exists.

    The counts come in uint8, which holds the ``_FRONTIER_LEVELS`` levels
    the search counts, widened once to ``np.min_scalar_type`` of the
    longest geodesic when csgraph finds one past 255 hops.

    Breadth-first search from every node at once, 64 targets to a word.
    Bit t of row i of ``front`` is set when i's shortest path to t has
    the current length; OR-ing the rows of each node's out-neighbours
    moves every target a hop further back along the arcs, and the unseen
    mask keeps only the nodes met for the first time. Each level adds the
    unseen mask it starts from to the counts, so a pair first met at
    level d has been counted d times; pairs never met are zeroed at the
    end. So ``hops[i, t]`` counts hops from i to t along arcs, and no
    transpose is needed. Targets still active after ``_FRONTIER_LEVELS``
    levels are searched again by ``csgraph.shortest_path`` on the
    reversed arcs.
    """
    n = structure.shape[0]
    words = -(-n // 64)
    front = np.zeros((n, words), dtype=np.uint64)
    nodes = np.arange(n)
    front.view(np.uint8)[nodes, nodes // 8] = np.left_shift(1, nodes % 8).astype(np.uint8)
    targets = np.zeros(words, dtype=np.uint64)
    targets.view(np.uint8)[: -(-n // 8)] = np.packbits(np.ones(n, dtype=bool), bitorder="little")
    unseen = front ^ targets
    hops = np.zeros((n, n), dtype=np.uint8)
    indptr, indices = structure.indptr, structure.indices
    # gather at most n rows of the front at once, as many words as it holds
    chunks = list(_row_chunks(indptr, max(n, 1)))
    for _ in range(_FRONTIER_LEVELS):
        reached = np.zeros_like(front)
        for start, stop in chunks:
            busy = np.flatnonzero(np.diff(indptr[start : stop + 1])) + start
            if busy.size:
                gathered = front[indices[indptr[start] : indptr[stop]]]
                reached[busy] = np.bitwise_or.reduceat(gathered, indptr[busy] - indptr[start])
        front = reached & unseen
        if not front.any():
            break
        for rows, flags in _flag_rows(unseen, n):
            hops[rows] += flags
        unseen ^= front
    # pairs never met were counted at every level, but have no path
    for rows, flags in _flag_rows(unseen, n):
        np.copyto(hops[rows], 0, where=flags.view(bool))
    active_words = np.bitwise_or.reduce(front, axis=0)
    active = np.flatnonzero(np.unpackbits(active_words.view(np.uint8), count=n, bitorder="little"))
    if active.size:
        dist = csgraph.shortest_path(
            structure.T, method="auto", directed=True, unweighted=True, indices=active
        )
        dist[np.isinf(dist)] = 0.0
        hops = hops.astype(np.min_scalar_type(int(dist.max())), copy=False)
        hops[:, active] = dist.T
    return hops


def _row_chunks(indptr: np.ndarray, arcs: int) -> Iterable[tuple[int, int]]:
    """Ranges of CSR rows holding at most ``arcs`` arcs each, or one row
    when that row alone holds more."""
    start, n = 0, len(indptr) - 1
    while start < n:
        stop = int(np.searchsorted(indptr, indptr[start] + arcs, side="right")) - 1
        stop = min(max(stop, start + 1), n)
        yield start, stop
        start = stop


def _flag_rows(bits: np.ndarray, n: int) -> Iterable[tuple[slice, np.ndarray]]:
    """Blocks of rows of 64-target words, unpacked to one 0/1 byte per target."""
    height = max(1, (1 << 16) // max(n, 1))
    for start in range(0, n, height):
        rows = slice(start, start + height)
        yield rows, np.unpackbits(bits[rows].view(np.uint8), axis=1, count=n, bitorder="little")


def geodesic_distances(graph: Graph) -> DistanceMatrix:
    """Minimum hop counts between all ordered node pairs.

    Distances follow arc direction for directed graphs and ignore edge
    weights entirely (a breadth-first count, not a weighted shortest
    path). The search runs from every node at once, one hop level per
    pass of bitwise ORs over the arcs; nodes whose search outlasts a
    fixed number of levels are finished by csgraph's per-node search,
    with the same counts.
    The counts are stored in the narrowest unsigned type that holds the
    longest geodesic, so the n x n array takes n^2 bytes while no
    geodesic passes 255 hops, as in any small-world network, and 2 n^2
    bytes beyond.
    """
    return DistanceMatrix(hops=_hop_levels(graph.structure_sparse()))


def generate_er(n: int, p: float, directed: bool, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each candidate pair drawn independently.

    Ordered pairs for directed graphs, unordered for undirected, never
    self-pairs. Deterministic for a given seed. The uniform draws come
    one row of candidates at a time, in the row-major order of the n x n
    array (directed) or of its strict upper triangle (undirected), so
    memory stays linear in n plus the edges drawn.
    """
    if n <= 0:
        raise ValidationError("generate_er: n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValidationError("generate_er: p must lie in [0, 1]")
    if seed < 0:
        raise ValidationError("generate_er: seed must be nonnegative")
    rng = np.random.default_rng(seed)
    edges: list[Edge] = []
    for src in range(n):
        if directed:
            draw = rng.random(n) < p
            draw[src] = False
            targets = np.flatnonzero(draw)
        else:
            targets = np.flatnonzero(rng.random(n - 1 - src) < p) + (src + 1)
        edges.extend((src, int(dst), 1.0) for dst in targets)
    return Graph(n=n, directed=directed, edges=tuple(edges), labels=tuple(str(i) for i in range(n)))


def generate_preferential(n: int, m: int, seed: int) -> Graph:
    """Growing undirected graph with degree-proportional attachment.

    Node k attaches to ``min(m, k)`` distinct earlier nodes, each chosen
    with probability proportional to its current degree plus one (so
    isolated early nodes stay reachable). Deterministic for a given seed.
    """
    if n <= 0:
        raise ValidationError("generate_preferential: n must be positive")
    if m < 1:
        raise ValidationError("generate_preferential: m must be at least 1")
    if m >= n:
        raise ValidationError("generate_preferential: m must be smaller than n")
    if seed < 0:
        raise ValidationError("generate_preferential: seed must be nonnegative")
    rng = np.random.default_rng(seed)
    degree = np.zeros(n)
    edges: list[Edge] = []
    for new in range(1, n):
        count = min(m, new)
        weights = degree[:new] + 1.0
        targets = rng.choice(new, size=count, replace=False, p=weights / weights.sum())
        for target in sorted(int(t) for t in targets):
            edges.append((target, new, 1.0))
            degree[target] += 1.0
        degree[new] += float(count)
    return Graph(n=n, directed=False, edges=tuple(edges), labels=tuple(str(i) for i in range(n)))


def largest_component_diameter(graph: Graph) -> int:
    """Diameter of the largest weak component, in hops.

    Arc direction is ignored so the value is well-defined for directed
    graphs too. A single-node component has diameter 0.
    """
    if graph.n == 0:
        raise ValidationError("diameter of an empty graph is undefined")
    structure = graph.structure_sparse()
    if graph.directed:
        structure = structure.maximum(structure.T)
    _, labels = csgraph.connected_components(structure, directed=False)
    largest = np.bincount(labels).argmax()
    return int(_hop_levels(structure)[labels == largest].max())

"""Graph ingestion, symmetrization, hop distances, and synthetic generators.

Conventions used throughout the package:

* Nodes are dense integer indices assigned in order of first appearance;
  the original string labels are kept on the Graph for output.
* An edge ``(i, j)`` is an arc from i to j. Undirected graphs store each
  edge once with ``i <= j`` and expand both directions when an adjacency
  matrix is materialized.
* Hop distances follow arc direction and ignore edge weights. A pair with
  no connecting path is marked unreachable and holds a hop count of 0.
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
    "is_connected",
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

    def adjacency(self) -> np.ndarray:
        """Dense weighted adjacency; entry (i, j) is the arc i -> j."""
        a = np.zeros((self.n, self.n))
        for src, dst, weight in self.edges:
            a[src, dst] = weight
            if not self.directed:
                a[dst, src] = weight
        return a

    def adjacency_sparse(self) -> sp.csr_matrix:
        """CSR weighted adjacency with both directions expanded."""
        return self._sparse(weighted=True)

    def structure_sparse(self) -> sp.csr_matrix:
        """CSR 0/1 structure matrix, for traversals that ignore weights."""
        return self._sparse(weighted=False)

    def _sparse(self, weighted: bool) -> sp.csr_matrix:
        rows = []
        cols = []
        data = []
        for src, dst, weight in self.edges:
            rows.append(src)
            cols.append(dst)
            data.append(weight if weighted else 1.0)
            if not self.directed:
                rows.append(dst)
                cols.append(src)
                data.append(weight if weighted else 1.0)
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))


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
    """All-pairs hop counts with an explicit reachability mask.

    ``hops[i, j]`` is a distance only where ``reachable[i, j]`` is True.
    Unreachable pairs hold 0, like the diagonal, so ``hops`` can index a
    per-distance table directly; ``reachable`` tells the two apart.

    The dyads are the ordered pairs at finite hop distance >= 1, exactly
    the pairs with ``hops >= 1``. ``dyad_mask`` marks them, and
    ``pair_counts[d]`` counts the pairs at d >= 1 hops; its bin 0 lumps
    the diagonal with the unreachable pairs and is never a distance. Both
    arrays are computed on first use and then shared, so they are
    read-only.
    """

    n: int
    hops: np.ndarray
    reachable: np.ndarray

    @cached_property
    def dyad_mask(self) -> np.ndarray:
        mask = self.hops >= 1
        mask.flags.writeable = False
        return mask

    @cached_property
    def pair_counts(self) -> np.ndarray:
        counts = np.bincount(self.hops.ravel(), minlength=1)
        counts.flags.writeable = False
        return counts


def geodesic_distances(graph: Graph) -> DistanceMatrix:
    """Minimum hop counts between all ordered node pairs.

    Distances follow arc direction for directed graphs and ignore edge
    weights entirely (a breadth-first count, not a weighted shortest
    path).
    """
    n = graph.n
    if n == 0:
        empty = np.zeros((0, 0))
        return DistanceMatrix(0, empty.astype(np.int64), empty.astype(bool))
    dist = csgraph.shortest_path(
        graph.structure_sparse(), method="auto", directed=graph.directed, unweighted=True
    )
    reachable = np.isfinite(dist)
    hops = np.zeros((n, n), dtype=np.int64)
    hops[reachable] = dist[reachable].astype(np.int64)
    return DistanceMatrix(n=n, hops=hops, reachable=reachable)


def generate_er(n: int, p: float, directed: bool, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each candidate pair drawn independently.

    Ordered pairs for directed graphs, unordered for undirected, never
    self-pairs. Deterministic for a given seed.
    """
    if n <= 0:
        raise ValidationError("generate_er: n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValidationError("generate_er: p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    if directed:
        draw = rng.random((n, n)) < p
        np.fill_diagonal(draw, False)
        src, dst = np.nonzero(draw)
    else:
        upper = np.triu_indices(n, k=1)
        keep = rng.random(upper[0].size) < p
        src, dst = upper[0][keep], upper[1][keep]
    edges = tuple((int(s), int(d), 1.0) for s, d in zip(src, dst))
    return Graph(n=n, directed=directed, edges=edges, labels=tuple(str(i) for i in range(n)))


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


def _undirected_structure(graph: Graph) -> sp.csr_matrix:
    structure = graph.structure_sparse()
    return structure.maximum(structure.T) if graph.directed else structure


def is_connected(graph: Graph) -> bool:
    """True when the graph has a single weak component (or is empty)."""
    if graph.n == 0:
        return True
    n_components, _ = csgraph.connected_components(
        graph.structure_sparse(), directed=graph.directed, connection="weak"
    )
    return n_components <= 1


def largest_component_diameter(graph: Graph) -> int:
    """Diameter of the largest weak component, in hops.

    Arc direction is ignored so the value is well-defined for directed
    graphs too. A single-node component has diameter 0.
    """
    if graph.n == 0:
        raise ValidationError("diameter of an empty graph is undefined")
    structure = _undirected_structure(graph)
    _, labels = csgraph.connected_components(structure, directed=False)
    largest = np.bincount(labels).argmax()
    members = np.flatnonzero(labels == largest)
    dist = csgraph.shortest_path(
        structure[np.ix_(members, members)], method="auto", directed=False, unweighted=True
    )
    return int(dist.max()) if dist.size else 0

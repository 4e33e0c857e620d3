"""Shared helpers for the test suite."""

from __future__ import annotations

import csv
import io
import math
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import scipy.linalg.lapack
import scipy.sparse as sp
from scipy.sparse import csgraph

from impactfield import Graph, build_weight, exact_propagator, generate_er
from impactfield.analysis import (
    CorrelationRecord,
    CurvePoint,
    DecayCurve,
    ExponentialFit,
    Treatment,
    run_study,
)
from impactfield.errors import (
    ConjugateClosureError,
    GraphValidationError,
    SolverError,
    ValidationError,
)
from impactfield.graph import DistanceMatrix
from impactfield.impact import ImpactMatrix, WeightMatrix, _cell_propagator, _PackedSymmetric
from impactfield.io import (
    CORRELATIONS_HEADER,
    CURVES_HEADER,
    FITS_HEADER,
    MANIFEST_HEADER,
    ManifestEntry,
)
from impactfield.spectral import ModeSet


def arcs(n: int, pairs, directed: bool = True, weight: float = 1.0) -> Graph:
    """Build a Graph from bare (src, dst) pairs with a uniform weight."""
    edges = []
    for src, dst in pairs:
        if not directed and src > dst:
            src, dst = dst, src
        edges.append((src, dst, weight))
    return Graph(n=n, directed=directed, edges=tuple(edges))


def reciprocal_digraph(graph: Graph, reverse_weight: float | None = None) -> Graph:
    """The digraph of both arcs of each edge of an undirected graph, at the edge's weight.

    With ``reverse_weight``, the first edge's reverse arc has that weight instead.
    """
    pairs = [arc for src, dst, w in graph.edges for arc in ((src, dst, w), (dst, src, w))]
    if reverse_weight is not None:
        pairs[1] = (*pairs[1][:2], reverse_weight)
    return Graph(n=graph.n, directed=True, edges=tuple(pairs))


def packed_symmetric(matrix: np.ndarray) -> _PackedSymmetric:
    """A dense symmetric matrix packed by LAPACK's own ``trttf``, lower triangle."""
    data, info = scipy.linalg.lapack.dtrttf(np.asfortranarray(matrix), transr="N", uplo="L")
    assert info == 0
    return _PackedSymmetric(len(matrix), data)


def dense_inverse(w: np.ndarray) -> np.ndarray:
    """``(I - W)^-1`` from the dense ``I - W``, independently of the arc-built routes.

    A symmetric W is packed by LAPACK's ``trttf``, inverted by ``pftrf`` and
    ``pftri``, and unpacked by ``tfttr``; any other goes through ``lu_factor``
    and ``lu_solve`` on an identity.
    """
    n = len(w)
    system = np.eye(n) - w
    if not np.array_equal(w, w.T):
        return scipy.linalg.lu_solve(scipy.linalg.lu_factor(system), np.eye(n))
    lapack, options = scipy.linalg.lapack, {"transr": "N", "uplo": "L"}
    data, info = lapack.dtrttf(np.asfortranarray(system), **options)
    assert info == 0
    factor, info = lapack.dpftrf(n, data, **options)
    assert info == 0
    data, info = lapack.dpftri(n, factor, **options)
    assert info == 0
    lower, info = lapack.dtfttr(n, data, **options)
    assert info == 0
    # where, not a sum, mirrors the triangle, so every zero keeps its sign
    return np.where(np.tri(n, dtype=bool), lower, lower.T)


def mirror_upper(matrix: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose diagonal and upper triangle are ``matrix``'s."""
    # where, not a sum, mirrors the triangle, so every zero keeps its sign
    return np.where(np.tri(len(matrix), k=-1, dtype=bool), matrix.T, matrix)


def read_whole(read_rows, n: int, height: int = 1, triangle: bool = False) -> np.ndarray:
    """The n x n matrix of a row reader, read ``height`` rows at a time.

    With ``triangle`` the reader is a packed one: no block straddles
    n - n // 2, each holds its rows from its first row on, and the upper
    triangle they give is mirrored below the diagonal.
    """
    out = np.full((n, n), np.nan)
    half = n - n // 2 if triangle else n
    for lo, hi in ((0, half), (half, n)):
        for start in range(lo, hi, height):
            rows, first = slice(start, min(start + height, hi)), start if triangle else 0
            out[rows, first:] = read_rows(rows, np.empty((rows.stop - start, n - first)))
    return mirror_upper(out) if triangle else out


def equilibrium_state(weight: WeightMatrix, z: np.ndarray) -> np.ndarray:
    """Fixed point of ``y = W y + z``, i.e. ``(I - W)^-1 z``, by one LU solve."""
    z = np.asarray(z, dtype=float)
    if z.shape != (weight.n,):
        raise ValidationError(f"forcing vector must have shape ({weight.n},), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValidationError("forcing vector must be finite")
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(np.eye(weight.n) - weight.W), z)


def assert_curves_close(curve: DecayCurve, expected: DecayCurve, rel: float = 1e-12) -> None:
    """The same distances and pair counts, and each mean within ``rel`` relative."""
    assert [(p.distance, p.n_pairs) for p in curve.points] == [
        (p.distance, p.n_pairs) for p in expected.points
    ]
    for point, want in zip(curve.points, expected.points):
        assert math.isclose(point.mean_impact, want.mean_impact, rel_tol=rel, abs_tol=0.0)


def count_calls(monkeypatch, module, names) -> dict[str, int]:
    """Count calls to each named function of ``module`` while the patch lasts.

    Returns the live counts, keyed by name, starting at zero.
    """
    calls = dict.fromkeys(names, 0)

    def counting(name):
        function = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return count

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    return calls


def cell_propagator_failing_at(gamma: float):
    """``impact._cell_propagator`` that raises SolverError at one gamma only."""

    def propagator(treated: Graph, cell_gamma: float, rho: float):
        if cell_gamma == gamma:
            raise SolverError(f"singular system at gamma={gamma!r}")
        return _cell_propagator(treated, cell_gamma, rho)

    return propagator


class TracedMemory:
    """tracemalloc inside a ``with`` block, measured from a mark.

    ``mark`` takes the traced memory as the base and resets the peak;
    entering the block marks once. ``growth`` is the peak since the last
    reset above the base, ``held`` the traced memory above it now, and
    ``reset_peak`` resets the peak alone.
    """

    def __enter__(self) -> "TracedMemory":
        tracemalloc.start()
        self.mark()
        return self

    def __exit__(self, *exc_info) -> None:
        tracemalloc.stop()

    def mark(self) -> None:
        self.base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def reset_peak(self) -> None:
        tracemalloc.reset_peak()

    def growth(self) -> int:
        return tracemalloc.get_traced_memory()[1] - self.base

    def held(self) -> int:
        return tracemalloc.get_traced_memory()[0] - self.base


def streamed_study(graph: Graph, **options):
    """``run_study`` with a ``dyads`` reader that assembles each cell's blocks.

    Returns the cells and, keyed by (treatment, gamma), the cell's exact
    matrix, its approximations as ``{order: matrix}`` and its hop counts,
    built from the streamed rows; a symmetric cell's triangle blocks are
    mirrored. Rows no block covers hold NaN (hops -1). The blocks are all
    read before any is copied, so a block whose arrays a later block
    reused would show.
    """
    matrices = {}

    def read(treatment, gamma, symmetric, orders, blocks):
        n = graph.n
        exact, hops = np.full((n, n), np.nan), np.full((n, n), -1)
        approximations = {order: np.full((n, n), np.nan) for order in orders}
        for rows, hop_rows, exact_rows, approximation_rows in list(blocks):
            columns = slice(rows.start if symmetric else 0, None)
            exact[rows, columns], hops[rows, columns] = exact_rows, hop_rows
            for order, values in zip(orders, approximation_rows, strict=True):
                approximations[order][rows, columns] = values
        if symmetric:
            exact, hops = mirror_upper(exact), mirror_upper(hops)
            approximations = {order: mirror_upper(a) for order, a in approximations.items()}
        matrices[treatment, gamma] = exact, approximations, hops

    return run_study(graph, dyads=read, **options), matrices


def loop_adjacency(graph: Graph) -> np.ndarray:
    """Reference dense adjacency: one assignment per arc."""
    a = np.zeros((graph.n, graph.n))
    for src, dst, weight in graph.edges:
        a[src, dst] = weight
        if not graph.directed:
            a[dst, src] = weight
    return a


def loop_sparse(graph: Graph, weighted: bool) -> sp.csr_matrix:
    """Reference CSR adjacency built from per-arc lists in edge order."""
    rows, cols, data = [], [], []
    for src, dst, weight in graph.edges:
        value = weight if weighted else 1.0
        rows.append(src)
        cols.append(dst)
        data.append(value)
        if not graph.directed:
            rows.append(dst)
            cols.append(src)
            data.append(value)
    return sp.csr_matrix((data, (rows, cols)), shape=(graph.n, graph.n))


def whole_array_er_edges(n: int, p: float, directed: bool, seed: int) -> list[tuple[int, int]]:
    """Reference G(n, p) arcs from one uniform draw over every candidate pair."""
    rng = np.random.default_rng(seed)
    if directed:
        draw = rng.random((n, n)) < p
        np.fill_diagonal(draw, False)
        src, dst = np.nonzero(draw)
    else:
        upper = np.triu_indices(n, k=1)
        keep = rng.random(upper[0].size) < p
        src, dst = upper[0][keep], upper[1][keep]
    return [(int(s), int(d)) for s, d in zip(src, dst)]


def hop_distance(dist: DistanceMatrix, src: int, dst: int) -> int | None:
    """Hop count from src to dst, or None when no path exists."""
    return int(dist.hops[src, dst]) if dist.reachable[src, dst] else None


def cycle_with_trees(cycle: int, n: int, seed: int) -> Graph:
    """A directed ``cycle``-node cycle with random in- and out-trees off it.

    Every further node gets one arc, to or from an earlier node, so it
    closes no cycle: the graph has ``cycle`` nonzero eigenvalues, the
    cycle's, and an eigenvalue 0 that the trees make defective.
    """
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % cycle, 1.0) for i in range(cycle)]
    for node in range(cycle, n):
        other = int(rng.integers(node))
        edges.append((node, other, 1.0) if rng.random() < 0.5 else (other, node, 1.0))
    return Graph(n=n, directed=True, edges=tuple(edges))


def hung_path(longest: int, directed: bool, leaves: int = 4) -> Graph:
    """A path of ``longest`` hops, ``leaves`` leaves hung on its middle node.

    The path's ends stay the farthest pair, ``longest`` hops apart, while the
    leaves take n past ``longest + 1``.
    """
    middle = longest // 2
    pairs = [(i, i + 1) for i in range(longest)]
    pairs += [(middle, leaf) for leaf in range(longest + 1, longest + 1 + leaves)]
    return arcs(longest + 1 + leaves, pairs, directed=directed)


def twin_three_cycles() -> Graph:
    """Two disjoint directed 3-cycles: spectrum 1, 1, w, w, conj(w), conj(w)."""
    return arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


def twin_components(graph: Graph) -> Graph:
    """Two disjoint copies of ``graph``: every eigenvalue of it repeats."""
    shifted = tuple((src + graph.n, dst + graph.n, weight) for src, dst, weight in graph.edges)
    return Graph(n=2 * graph.n, directed=graph.directed, edges=graph.edges + shifted)


def bfs_hops(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Reference all-pairs hop counts: a plain per-source queue BFS."""
    out_neighbors: list[list[int]] = [[] for _ in range(graph.n)]
    for src, dst, _ in graph.edges:
        out_neighbors[src].append(dst)
        if not graph.directed:
            out_neighbors[dst].append(src)
    hops = np.zeros((graph.n, graph.n), dtype=np.int64)
    reachable = np.zeros((graph.n, graph.n), dtype=bool)
    for source in range(graph.n):
        level = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in out_neighbors[node]:
                if neighbor not in level:
                    level[neighbor] = level[node] + 1
                    queue.append(neighbor)
        for node, d in level.items():
            hops[source, node] = d
            reachable[source, node] = True
    return hops, reachable


def is_connected(graph: Graph) -> bool:
    """True when the graph has a single weak component (or is empty)."""
    if graph.n == 0:
        return True
    n_components, _ = csgraph.connected_components(
        graph.structure_sparse(), directed=graph.directed, connection="weak"
    )
    return n_components <= 1


def connected_er(n: int, p: float, count: int, start_seed: int) -> list[Graph]:
    """First ``count`` connected undirected G(n, p) draws from a seed walk."""
    graphs = []
    seed = start_seed
    while len(graphs) < count:
        candidate = generate_er(n=n, p=p, directed=False, seed=seed)
        if is_connected(candidate):
            graphs.append(candidate)
        seed += 1
    return graphs


def small_er_corpus(count: int = 50) -> list[Graph]:
    """Mixed directed/undirected ER graphs with n <= 50, mean degree ~4.

    Seed-walk with a validity filter: candidates the weight builder
    rejects (edgeless, or directed without any cycle) are skipped so
    every kept graph supports the full pipeline.
    """
    rng = np.random.default_rng(123)
    graphs: list[Graph] = []
    seed = 300
    while len(graphs) < count:
        n = int(rng.integers(4, 51))
        directed = bool(rng.integers(0, 2))
        candidate = generate_er(n=n, p=min(0.9, 4.0 / n), directed=directed, seed=seed)
        seed += 1
        try:
            build_weight(candidate, 0.5)
        except GraphValidationError:
            continue
        graphs.append(candidate)
    return graphs


def complex_approx_impact(modes: ModeSet, dist: DistanceMatrix) -> np.ndarray:
    """Reference approximation: every mode summed in complex arithmetic.

    The imaginary residue left after the sum must be negligible; a mode
    set that is not conjugate closed raises ConjugateClosureError.
    """
    hops_safe = np.where(dist.reachable, dist.hops, 0)
    exponents = np.arange(int(hops_safe.max(initial=0)) + 1)
    accumulator = np.zeros((dist.n, dist.n), dtype=complex)
    for mode in range(modes.num_modes):
        table = modes.gains[mode] * np.power(modes.gamma * modes.eigenvalues[mode], exponents)
        accumulator += table[hops_safe] * np.outer(
            modes.receive_vectors[:, mode], modes.send_rows[mode, :]
        )
    accumulator[~dist.reachable] = 0.0
    if np.any(np.abs(accumulator.imag) > 1e-10 * (1.0 + np.abs(accumulator.real))):
        raise ConjugateClosureError("imaginary residue exceeds tolerance")
    return accumulator.real.copy()


def series_oracle(weight: WeightMatrix, terms: int) -> ImpactMatrix:
    """Truncated power series ``I + W + ... + W^terms``.

    Computed by iterated multiplication on purpose: this is the
    independent slow route used to cross-check the factorized solve.
    """
    if terms < 1:
        raise ValidationError("terms must be a positive integer")
    total = np.eye(weight.n) + weight.W
    power = weight.W.copy()
    for _ in range(1, terms):
        power = power @ weight.W
        total += power
    return ImpactMatrix(values=total, gamma=weight.gamma)


def series_terms_for_tolerance(gamma: float, tol: float = 1e-12) -> int:
    """Terms T making the geometric tail gamma^(T+1)/(1-gamma) <= tol."""
    if not 0.0 < gamma < 1.0:
        raise ValidationError("gamma must lie strictly inside (0, 1)")
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    return max(1, math.ceil(math.log(tol * (1.0 - gamma)) / math.log(gamma)))


def distance_factored_impact(weight: WeightMatrix, dist: DistanceMatrix) -> ImpactMatrix:
    """Exact propagator recomputed through its distance factorization.

    For a pair at hop distance d the propagator entry equals
    ``(W^d (I - W)^-1)[i, j]``; walks shorter than the geodesic do not
    exist, so the factorization is an identity, not an approximation.
    Serves as a structural self-check of exact_propagator.
    """
    if dist.n != weight.n:
        raise ValidationError("weight matrix and distances must agree on n")
    propagator = exact_propagator(weight).values
    out = np.zeros((weight.n, weight.n))
    dmax = int(dist.hops.max(initial=0))
    current = propagator
    for d in range(dmax + 1):
        mask = dist.reachable & (dist.hops == d)
        out[mask] = current[mask]
        if d < dmax:
            current = weight.W @ current
    return ImpactMatrix(values=out, gamma=weight.gamma)


def rowwise_dyads_csv(
    path: Path | str,
    graph: Graph,
    hops: np.ndarray,
    exact: np.ndarray,
    approximations: dict[int, np.ndarray],
) -> None:
    """Reference dyad dump: one ``csv.writer`` row per ordered pair.

    Formats every field on its own from whole matrices, so it is the
    slow, independent route the column-wise, streamed
    ``io.write_dyads_csv`` must match byte for byte.
    """
    orders = sorted(approximations)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["src", "dst", "dist", "exact"] + [f"approx{order}" for order in orders])
    for i in range(graph.n):
        for j in range(graph.n):
            if i == j:
                continue
            row = [
                graph.label_of(i),
                graph.label_of(j),
                "inf" if hops[i, j] == 0 else str(hops[i, j]),
                repr(float(exact[i, j])),
            ]
            row.extend(repr(float(approximations[order][i, j])) for order in orders)
            writer.writerow(row)
    Path(path).write_text(buffer.getvalue(), encoding="utf-8")


def _read_rows(path: Path | str, expected_header: list[str]) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != expected_header:
            raise ValidationError(
                f"{path}: header {reader.fieldnames} does not match {expected_header}"
            )
        return list(reader)


CellKey = tuple[str, Treatment, float]


def _cell_key(row: dict[str, str]) -> CellKey:
    """The (network, treatment, gamma) of the study cell a table row belongs to."""
    return row["network"], Treatment(row["treatment"]), float(row["gamma"])


def read_curves_csv(path: Path | str) -> dict[CellKey, DecayCurve]:
    grouped: dict[CellKey, list[CurvePoint]] = {}
    for row in _read_rows(path, CURVES_HEADER):
        grouped.setdefault(_cell_key(row), []).append(
            CurvePoint(
                distance=int(row["distance"]),
                mean_impact=float(row["mean_impact"]),
                n_pairs=int(row["n_pairs"]),
            )
        )
    return {key: DecayCurve(points=tuple(points)) for key, points in grouped.items()}


def read_fits_csv(path: Path | str) -> dict[CellKey, ExponentialFit]:
    out = {}
    for row in _read_rows(path, FITS_HEADER):
        out[_cell_key(row)] = ExponentialFit(
            slope=float(row["slope"]),
            intercept=float(row["intercept"]),
            r_squared=float(row["r_squared"]),
            d_range=(int(row["d_min"]), int(row["d_max"])),
        )
    return out


def read_correlations_csv(path: Path | str) -> dict[CellKey, tuple[CorrelationRecord, ...]]:
    """Each cell's correlation records, in file order, as ``StudyCell.correlations``."""
    grouped: dict[CellKey, list[CorrelationRecord]] = {}
    for row in _read_rows(path, CORRELATIONS_HEADER):
        grouped.setdefault(_cell_key(row), []).append(
            CorrelationRecord(
                order=int(row["order"]),
                pearson_r=float(row["pearson_r"]),
                n_dyads=int(row["n_dyads"]),
            )
        )
    return {key: tuple(records) for key, records in grouped.items()}


def read_dyads_csv(path: Path | str) -> list[dict[str, object]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        names = reader.fieldnames or []
        if names[:4] != ["src", "dst", "dist", "exact"]:
            raise ValidationError(f"{path}: unexpected dyad header {names}")
        out = []
        for row in reader:
            parsed: dict[str, object] = {
                "src": row["src"],
                "dst": row["dst"],
                "dist": float("inf") if row["dist"] == "inf" else int(row["dist"]),
                "exact": float(row["exact"]),
            }
            for name in names[4:]:
                parsed[name] = float(row[name])
            out.append(parsed)
        return out


def read_manifest_csv(path: Path | str) -> list[ManifestEntry]:
    return [
        ManifestEntry(
            network=row["network"],
            n=int(row["n"]) if row["n"] else None,
            edges=int(row["edges"]) if row["edges"] else None,
            diameter=int(row["diameter"]) if row["diameter"] else None,
            status=row["status"],
        )
        for row in _read_rows(path, MANIFEST_HEADER)
    ]

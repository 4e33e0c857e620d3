"""Shared helpers for the test suite."""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from pathlib import Path

import numpy as np

from impactfield import Graph, build_weight, exact_propagator, generate_er, is_connected
from impactfield.analysis import CorrelationRecord, CurvePoint, DecayCurve, ExponentialFit, Treatment
from impactfield.errors import ConjugateClosureError, GraphValidationError, ValidationError
from impactfield.graph import DistanceMatrix
from impactfield.impact import ImpactKind, ImpactMatrix, WeightMatrix
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


def hop_distance(dist: DistanceMatrix, src: int, dst: int) -> int | None:
    """Hop count from src to dst, or None when no path exists."""
    return int(dist.hops[src, dst]) if dist.reachable[src, dst] else None


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
    return ImpactMatrix(n=weight.n, values=total, kind=ImpactKind.EXACT, gamma=weight.gamma)


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
    return ImpactMatrix(n=weight.n, values=out, kind=ImpactKind.EXACT, gamma=weight.gamma)


def rowwise_dyads_csv(
    path: Path | str,
    graph: Graph,
    dist: DistanceMatrix,
    exact: ImpactMatrix,
    approximations: dict[int, ImpactMatrix],
) -> None:
    """Reference dyad dump: one ``csv.writer`` row per ordered pair.

    Formats every field on its own, so it is the slow, independent route
    the column-wise ``io.write_dyads_csv`` must match byte for byte.
    """
    orders = sorted(approximations)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["src", "dst", "dist", "exact"] + [f"approx{order}" for order in orders])
    for i in range(graph.n):
        for j in range(graph.n):
            if i == j:
                continue
            d = hop_distance(dist, i, j)
            row = [
                graph.label_of(i),
                graph.label_of(j),
                "inf" if d is None else str(d),
                repr(float(exact.values[i, j])),
            ]
            row.extend(repr(float(approximations[order].values[i, j])) for order in orders)
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


def read_curves_csv(path: Path | str) -> dict[tuple[str, Treatment, float], DecayCurve]:
    grouped: dict[tuple[str, Treatment, float], list[CurvePoint]] = {}
    for row in _read_rows(path, CURVES_HEADER):
        key = (row["network"], Treatment(row["treatment"]), float(row["gamma"]))
        grouped.setdefault(key, []).append(
            CurvePoint(
                distance=int(row["distance"]),
                mean_impact=float(row["mean_impact"]),
                n_pairs=int(row["n_pairs"]),
            )
        )
    return {
        key: DecayCurve(gamma=key[2], treatment=key[1], points=tuple(points))
        for key, points in grouped.items()
    }


def read_fits_csv(path: Path | str) -> dict[tuple[str, Treatment, float], ExponentialFit]:
    out = {}
    for row in _read_rows(path, FITS_HEADER):
        key = (row["network"], Treatment(row["treatment"]), float(row["gamma"]))
        out[key] = ExponentialFit(
            slope=float(row["slope"]),
            intercept=float(row["intercept"]),
            r_squared=float(row["r_squared"]),
            d_range=(int(row["d_min"]), int(row["d_max"])),
        )
    return out


def read_correlations_csv(path: Path | str) -> list[CorrelationRecord]:
    return [
        CorrelationRecord(
            network=row["network"],
            gamma=float(row["gamma"]),
            treatment=Treatment(row["treatment"]),
            order=int(row["order"]),
            pearson_r=float(row["pearson_r"]),
            n_dyads=int(row["n_dyads"]),
        )
        for row in _read_rows(path, CORRELATIONS_HEADER)
    ]


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
            mean_degree=float(row["mean_degree"]) if row["mean_degree"] else None,
            diameter=int(row["diameter"]) if row["diameter"] else None,
            status=row["status"],
        )
        for row in _read_rows(path, MANIFEST_HEADER)
    ]

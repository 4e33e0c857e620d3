"""Seeded edge-list inputs for the benchmark workloads.

The draws repeat ``impactfield.generate_er`` with numpy's default
generator, so a change to the program's own generator cannot change the
benchmark's inputs. Nodes left without an edge do not appear in an edge
list, so a parsed network can have a few nodes fewer than drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SWEEP_N = 2500
SWEEP_P = 5.0 / 2499.0
DYADS_N = 1000
DYADS_P = 0.005
CORPUS_N = 300
CORPUS_P = 5.0 / 598.0
CORPUS_SIZE = 10
# the corpus for seed s starts its seed walk at 2000 + 100 * s, so seed 0
# draws the first networks of the acceptance suite's directed corpus
CORPUS_BASE = 2000
CORPUS_STRIDE = 100


@dataclass(frozen=True)
class Network:
    """One generated edge-list file and its size as the program will parse it."""

    path: Path
    n: int
    edges: int


def er_arcs(n: int, p: float, directed: bool, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    if directed:
        draw = rng.random((n, n)) < p
        np.fill_diagonal(draw, False)
        return np.nonzero(draw)
    upper = np.triu_indices(n, k=1)
    keep = rng.random(upper[0].size) < p
    return upper[0][keep], upper[1][keep]


def has_cycle(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """Kahn's algorithm: a digraph is cyclic when some node never drains."""
    indegree = np.bincount(dst, minlength=n)
    successors = [[] for _ in range(n)]
    for s, d in zip(src.tolist(), dst.tolist()):
        successors[s].append(d)
    ready = [node for node in range(n) if indegree[node] == 0]
    drained = 0
    while ready:
        node = ready.pop()
        drained += 1
        for nxt in successors[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return drained < n


def write_network(path: Path, src: np.ndarray, dst: np.ndarray) -> Network:
    path.write_text("".join(f"{s} {d}\n" for s, d in zip(src.tolist(), dst.tolist())))
    nodes = np.unique(np.concatenate([src, dst]))
    return Network(path=path, n=int(nodes.size), edges=int(src.size))


def directed_corpus(directory: Path, seed: int, count: int = CORPUS_SIZE) -> list[Network]:
    """The first ``count`` cyclic directed ER draws of the seed's walk.

    An acyclic digraph has spectral radius 0 and cannot be normalized, so
    it is skipped, as the acceptance corpus skips it.
    """
    directory.mkdir(parents=True, exist_ok=True)
    networks = []
    er_seed = CORPUS_BASE + CORPUS_STRIDE * seed
    while len(networks) < count:
        src, dst = er_arcs(CORPUS_N, CORPUS_P, directed=True, seed=er_seed)
        if has_cycle(CORPUS_N, src, dst):
            networks.append(write_network(directory / f"net{er_seed}.txt", src, dst))
        er_seed += 1
    return networks


def undirected_network(path: Path, n: int, p: float, seed: int) -> Network:
    path.parent.mkdir(parents=True, exist_ok=True)
    src, dst = er_arcs(n, p, directed=False, seed=seed)
    return write_network(path, src, dst)

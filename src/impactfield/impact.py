"""Weight-matrix construction and total-impact computation.

The model: node states update as ``y = W y + z`` with an attenuation
gamma baked into ``W = gamma * A / rho(A)``, so the long-run total
impact of j on i is entry (i, j) of the propagator ``(I - W)^-1``.

Orientation: entry (i, j) of every matrix here concerns the influence of
j on i. Powers of W accumulate index walks from i to j along arc
direction, which is exactly the direction geodesic_distances counts, so
``hops[i, j]`` is the right exponent for entry (i, j).

A study cell and ``exact_propagator`` write ``I - W`` from W's arcs and
invert it by one rule: whether W is symmetric, which for a cell is
``Graph._symmetric``. A symmetric system is held as its lower triangle in
rectangular full packed storage, n(n + 1)/2 floats, inverted in place by
Cholesky, and refused when its exact reciprocal condition number is below
``_RCOND_FLOOR``; its readers get the upper triangle of each row block.
Any other system is a column-major n x n array that LU factorizes in
place and solves into an identity, refused on LAPACK's estimate; its
readers get full rows.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import (
    ConjugateClosureError,
    NegativeWeightsWarning,
    NormalizationError,
    SolverError,
    ValidationError,
)
from .graph import DistanceMatrix, Graph
from .spectral import ModeSet, conjugate_partners, spectral_radius

__all__ = [
    "WeightMatrix",
    "ImpactMatrix",
    "build_weight",
    "gamma_grid",
    "exact_propagator",
    "approx_impact",
]

_RCOND_FLOOR = 1e-14
# entries per row block of the approximation kernel, which runs in
# blocks of max(1, _BLOCK_ENTRIES // n) rows so that every per-term
# temporary stays in cache
_BLOCK_ENTRIES = 1 << 15


def _row_blocks(n: int, triangle: bool = False) -> list[slice]:
    """The n rows cut into blocks of ``max(1, _BLOCK_ENTRIES // w)`` rows of w columns.

    Rows are full (w = n), or with ``triangle`` start at the block's first
    row (w = n - start), and no block straddles ``_PackedSymmetric.half``.
    """
    blocks, start = [], 0
    for end in (n - n // 2, n) if triangle else (n,):
        while start < end:
            height = max(1, _BLOCK_ENTRIES // (n - start if triangle else n))
            blocks.append(slice(start, min(start + height, end)))
            start = blocks[-1].stop
    return blocks


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Attenuated, radius-normalized adjacency ``W = gamma * A / rho(A)``.

    ``A / rho(A)`` has spectral radius 1, so ``rho(W) = gamma < 1`` and
    the impact series converges.
    """

    gamma: float
    rho: float
    W: np.ndarray

    @property
    def n(self) -> int:
        return len(self.W)


@dataclass(frozen=True, eq=False)
class ImpactMatrix:
    """Total-impact values; entry (i, j) is the impact of j on i."""

    values: np.ndarray
    gamma: float
    order: int | None = None  # approximation order; None marks the exact propagator

    @property
    def n(self) -> int:
        return len(self.values)


def _weight_arcs(
    graph: Graph, gamma: float, rho: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Rows, columns and values of the arcs of ``W = gamma * A / rho(A)``, and rho."""
    if not 0.0 < gamma < 1.0:
        raise ValidationError("gamma must lie strictly inside (0, 1)")
    if graph.n == 0 or not graph.edges:
        raise NormalizationError("cannot normalize: graph has no edges (spectral radius 0)")
    src, dst, weights = graph._arcs
    if (weights < 0.0).any():
        warnings.warn(
            "negative edge weights: no positivity guarantee for impact values",
            NegativeWeightsWarning,
            stacklevel=3,
        )
    if rho is None:
        rho = spectral_radius(graph)
    if not 0.0 < rho < np.inf:
        raise NormalizationError(f"cannot normalize: spectral radius {rho!r}")
    return src, dst, (weights / rho) * gamma, rho


def build_weight(graph: Graph, gamma: float, rho: float | None = None) -> WeightMatrix:
    """Materialize ``W = gamma * A / rho(A)`` for a graph.

    The arc (i, j) of the input sets entry W[i, j]: whoever i points at
    impacts i. ``rho`` can be supplied when the spectral radius is
    already known (it does not depend on gamma).
    """
    src, dst, values, rho = _weight_arcs(graph, gamma, rho)
    w = np.zeros((graph.n, graph.n))
    w[src, dst] = values
    return WeightMatrix(gamma=gamma, rho=rho, W=w)


def gamma_grid() -> list[float]:
    """The standard attenuation sweep 1 - 2**-k for k = 1..5."""
    return [1.0 - 2.0**-k for k in range(1, 6)]


def _lu_inverse(system: np.ndarray) -> np.ndarray:
    """``system^-1``: getrf overwrites the column-major ``system``, getrs an identity."""
    # the 1-norm, for LAPACK's condition estimate, is taken before getrf overwrites it
    anorm = scipy.linalg.norm(system, 1, check_finite=False)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (system,))
    try:
        factor = scipy.linalg.lu_factor(system, overwrite_a=True)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"(I - W) could not be factorized: {exc}") from exc
    _check_rcond(*gecon(factor[0], anorm, norm="1"), "estimate")
    identity = np.eye(len(system), order="F")
    return scipy.linalg.lu_solve(factor, identity, overwrite_b=True, check_finite=False)


def _check_rcond(rcond: float, info: int, kind: str) -> None:
    if info != 0 or rcond < _RCOND_FLOOR:
        raise SolverError(
            f"(I - W) is numerically singular; reciprocal condition {kind} {rcond:.3e}"
        )


class _PackedSymmetric:
    """A symmetric n x n matrix held as its lower triangle in n(n + 1)/2 floats.

    The layout is LAPACK's rectangular full packed format with
    ``TRANSR='N'`` and ``UPLO='L'`` (Gustavson, Wasniewski, Dongarra &
    Langou, ACM TOMS 37(2), 2010), in which Cholesky factorization and
    inversion run at BLAS-3 speed. With m = ceil(n / 2) (``half``), s = 1
    for even n and 0 for odd n (``shift``), and t = 1 - s, the floats form
    a row-major m x (n + s) array P in which

    * column j < m of the lower triangle, from its diagonal down, is the
      row segment ``P[j, j + s:]``: entry (i, j) is ``P[j, i + s]``;
    * the trailing triangle, rows and columns m.., lies row by row at the
      left: entry (m + r, m + c), r >= c, is ``P[r + t, c]``.

    ``read_rows`` reads the upper triangle of a block of rows from these
    slices: only ``offsets`` and ``read_rows`` know the layout.
    """

    def __init__(self, n: int, data: np.ndarray) -> None:
        self.n, self.data = n, data
        self.half = n - n // 2
        self.shift = 1 - n % 2

    def offsets(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Positions of the lower-triangle entries ``(rows, cols)``, rows >= cols."""
        n, m, s = self.n, self.half, self.shift
        leading = cols * (n + s) + rows + s
        trailing = (rows - m + 1 - s) * (n + s) + cols - m
        return np.where(cols < m, leading, trailing)

    def diagonal(self) -> np.ndarray:
        """Positions of the diagonal entries, in order."""
        nodes = np.arange(self.n)
        return self.offsets(nodes, nodes)

    def read_rows(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """The rows ``rows``, a step-1 slice on one side of ``half``, from column
        ``rows.start`` on, with the diagonal square's lower part unspecified.

        Rows below ``half`` are a view of the packed floats; the others fill ``out``.
        """
        n, m, s = self.n, self.half, self.shift
        t = 1 - s
        packed = self.data.reshape(m, n + s)
        start = rows.start
        if rows.stop <= m:
            return packed[rows, start + s : n + s]
        out[...] = packed[start - m + t : n - m + t, start - m : rows.stop - m].T
        return out

    def norm1(self) -> float:
        """The exact 1-norm, summed from ``read_rows``'s triangle a few rows at a time.

        Column j's absolute sum is that of column j of the upper triangle
        plus that of row j, less the diagonal entry they share.
        """
        n = self.n
        columns, rows = np.zeros(n), np.zeros(n)
        # a row block's worth of floats, but at most a 32nd of the rows,
        # so the buffer stays small beside the matrix
        height = max(1, min(_BLOCK_ENTRIES // max(n, 1), n // 32))
        buffer, lower = np.empty(height * n), np.tri(height, k=-1, dtype=bool)
        for lo, hi in ((0, self.half), (self.half, n)):
            for start in range(lo, hi, height):
                block = slice(start, min(start + height, hi))
                out = buffer[: (block.stop - start) * (n - start)].reshape(-1, n - start)
                chunk = np.abs(self.read_rows(block, out), out=out)
                chunk[:, : len(chunk)][lower[: len(chunk), : len(chunk)]] = 0.0
                columns[start:] += chunk.sum(axis=0)
                rows[block] = chunk.sum(axis=1)
        return float((columns + rows - np.abs(self.data[self.diagonal()])).max(initial=0.0))


def _packed_inverse(
    n: int, src: np.ndarray, dst: np.ndarray, values: np.ndarray
) -> _PackedSymmetric:
    """``(I - W)^-1`` of a symmetric W given by its arcs, built and inverted in packed storage.

    Each pair of arcs sets its lower entry once, from the arc that leaves
    the larger index. ``rho(W) = gamma < 1`` makes ``I - W`` positive
    definite, so it has a Cholesky factor. The reciprocal condition number
    is exact, from the 1-norms of the system (read from the arcs) and of
    the inverse (summed from its rows).
    """
    system = _PackedSymmetric(n, np.zeros(n * (n + 1) // 2))
    system.data[system.diagonal()] = 1.0
    lower = src > dst
    system.data[system.offsets(src[lower], dst[lower])] = np.subtract(0.0, values[lower])
    anorm = 1.0 + np.bincount(dst, np.abs(values), minlength=n).max(initial=0.0)
    options = {"transr": "N", "uplo": "L", "overwrite_a": 1}
    factor, info = scipy.linalg.lapack.dpftrf(n, system.data, **options)
    if info != 0:
        raise SolverError(f"(I - W) could not be factorized: pftrf returned info={info}")
    data, info = scipy.linalg.lapack.dpftri(n, factor, **options)
    if info != 0:
        raise SolverError(f"(I - W) could not be inverted: pftri returned info={info}")
    inverse = _PackedSymmetric(n, data)
    # a zero or NaN product (no rows, or NaN in the inverse) reads as condition 0
    norms = anorm * inverse.norm1()
    _check_rcond(1.0 / norms if norms > 0.0 else 0.0, 0, "number")
    return inverse


# fills the buffer with (or returns a view of) a block of exact rows: the
# upper triangle of a ``_row_blocks(n, True)`` block for a symmetric W, else full rows
_RowReader = Callable[[slice, np.ndarray], np.ndarray]


def _propagator(
    n: int, src: np.ndarray, dst: np.ndarray, values: np.ndarray, symmetric: bool
) -> _RowReader:
    """``(I - W)^-1``, W given by its off-diagonal arcs, as a reader of its row blocks.

    A symmetric W takes ``_packed_inverse``, read by triangles. Any other
    ``I - W`` is written into a column-major identity for ``_lu_inverse``:
    two n x n arrays until the factor is dropped, the inverse alone after.
    """
    if symmetric:
        return _packed_inverse(n, src, dst, values).read_rows
    system = np.eye(n, order="F")
    system[src, dst] = np.subtract(0.0, values)
    inverse = _lu_inverse(system)
    return lambda rows, buffer: inverse[rows]


def _cell_propagator(graph: Graph, gamma: float, rho: float) -> _RowReader:
    """A study cell's exact propagator, from the arcs, with no dense ``W``."""
    src, dst, values, _ = _weight_arcs(graph, gamma, rho)
    return _propagator(graph.n, src, dst, values, graph._symmetric)


def exact_propagator(weight: WeightMatrix) -> ImpactMatrix:
    """Exact total-impact matrix ``(I - W)^-1``, assembled from ``_propagator``'s rows.

    The nonzero entries of ``W`` are its arcs, so a symmetric ``W`` takes
    packed Cholesky and any other LU, as a study cell's do. Both refuse a
    numerically singular system, and neither writes to ``weight.W``. A
    nonzero diagonal, which no graph gives, is a ValidationError.
    """
    if np.diagonal(weight.W).any():
        raise ValidationError("W must have a zero diagonal: no graph has self-loops")
    symmetric = np.array_equal(weight.W, weight.W.T)
    src, dst = np.nonzero(weight.W)
    read_rows = _propagator(weight.n, src, dst, weight.W[src, dst], symmetric)
    exact = np.empty(weight.W.shape)
    for rows in _row_blocks(weight.n, symmetric):
        first = rows.start if symmetric else 0
        exact[rows, first:] = read_rows(rows, exact[rows, first:])
        if symmetric:
            # where, not a sum, mirrors the triangle, so every zero keeps its sign
            below = exact[first:, rows]
            lower = np.tri(*below.shape, k=-1, dtype=bool)
            below[...] = np.where(lower, exact[rows, first:].T, below)
    return ImpactMatrix(values=exact, gamma=weight.gamma)


def _real_terms(modes: ModeSet) -> list[tuple[int, bool]]:
    """Split a mode set into real terms: ``(mode, folded)`` per term.

    Partners come from ``conjugate_partners``. A mode that is its own
    partner must have a real eigenvalue and vectors, and is its own
    term. Every other mode must be the exact conjugate (eigenvalue and
    both vectors, hence gain) of its partner; the pair sums to twice the
    real part of its first member, so ``folded`` is set and the partner
    contributes no term of its own.
    """
    values = modes.eigenvalues
    right, left = modes.receive_vectors, modes.send_rows
    terms: list[tuple[int, bool]] = []
    for a, b in enumerate(conjugate_partners(values)):
        if b < 0 or not (
            values[b] == np.conj(values[a])
            and np.array_equal(right[:, b], np.conj(right[:, a]))
            and np.array_equal(left[b], np.conj(left[a]))
        ):
            raise ConjugateClosureError(
                f"mode with eigenvalue {values[a]!r} has no exact conjugate partner; "
                "the mode set is not conjugate closed"
            )
        if b >= a:
            terms.append((a, b != a))
    return terms


class _TermKernel:
    """The real terms of a mode set, summed into blocks of approximation rows.

    Callers pass the row blocks of ``_row_blocks``, so every temporary of
    ``add`` is one block in size. Each term is the gain times
    ``(gamma * lam)^d`` per hop count d, read from a table, times the
    outer product of its vectors; a folded term is twice the real part
    of one member of its conjugate pair, and any other term is real.
    """

    def __init__(self, modes: ModeSet, dist: DistanceMatrix) -> None:
        exponents = np.arange(int(dist.hops.max(initial=0)) + 1)
        self.terms = []
        for mode, folded in _real_terms(modes):
            table = modes.gains[mode] * np.power(modes.gamma * modes.eigenvalues[mode], exponents)
            receive = modes.receive_vectors[:, mode]
            send = modes.send_rows[mode, :]
            if folded:
                self.terms.append((table.real, table.imag, receive, send))
            else:
                self.terms.append((table.real, None, receive.real, send.real))

    def add(
        self,
        block: np.ndarray,
        rows: slice,
        hops: np.ndarray,
        start: int = 0,
        stop: int | None = None,
    ) -> None:
        """Add terms ``start:stop`` at rows ``rows``, with hop counts ``hops``, to ``block``.

        The block may hold only its rows' last columns, as a triangle's does.
        ``hops`` holds their hop counts as intp, cast once for every term's gather.
        """
        for real, imag, receive, send in self.terms[start:stop]:
            outer = np.outer(receive[rows], send[len(send) - block.shape[1] :])
            if imag is None:
                outer *= real[hops]
                block += outer
            else:
                term = real[hops] * outer.real
                term -= imag[hops] * outer.imag
                term *= 2.0
                block += term


def approx_impact(modes: ModeSet, dist: DistanceMatrix) -> ImpactMatrix:
    """Spectral distance-decay approximation of the total-impact matrix.

    Entry (i, j) sums ``(gamma * lam)^d / (1 - gamma * lam) * s_i * s'_j``
    over the selected modes, with d the hop count from i to j and gamma
    the ``modes.gamma`` they were selected for; W itself does not enter.
    Pairs with no connecting path get 0, the limit value. The mode set
    must be conjugate closed, so the sum is real: it is accumulated in
    real arithmetic, each conjugate pair as twice the real part of one
    member, and a mode without its conjugate raises ConjugateClosureError.
    The sum runs over blocks of rows, so no temporary is n x n.
    """
    n = dist.n
    if modes.receive_vectors.shape[0] != n:
        raise ValidationError("mode set and distances must agree on n")
    kernel = _TermKernel(modes, dist)
    values = np.zeros((n, n))
    for rows in _row_blocks(n):
        block = values[rows]
        kernel.add(block, rows, dist.hops[rows].astype(np.intp))
        block[~dist.reachable[rows]] = 0.0
    return ImpactMatrix(values=values, gamma=modes.gamma, order=modes.order)

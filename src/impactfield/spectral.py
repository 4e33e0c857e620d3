"""Eigenstructure of the radius-normalized adjacency matrix ``B = A / rho``.

Provides the spectral radius, dense and iterative decompositions with
dual left rows, and greedy mode selection with conjugate closure so
that truncated sums stay real.

At or below the dense threshold one eigensolve of ``A`` itself serves
both the radius and the decomposition: rho is the largest modulus of
its spectrum and the eigenvalues are divided by it; no ARPACK run is
made. Above the threshold ARPACK estimates rho and then solves
``B = A / rho``.

Undirected graphs have an orthonormal eigenbasis (``eigh``, or ``eigsh``
above the dense threshold), so the left rows are the transposed right
vectors. For directed graphs the left rows always come from one Gram
solve, ``(VL^H VR)^-1 VL^H`` over the kept modes and every mode sharing
their eigenvalues, so they are the dual basis of the right vectors even
within a repeated eigenvalue. The left vectors come from the same
two-sided ``geev`` call as the right ones at or below the dense
threshold; above it, from a second ARPACK run on ``B^T``, which must
agree with the first run on every eigenvalue it found. A full
decomposition must reconstruct ``B``; a truncated one must keep no mode
whose condition number, its left-row norm, exceeds ``_CONDITION_MAX``.

Every eigensolve and linear solve, here and in ``impact``, goes through
``scipy.linalg``, the eigenpair residual is one sparse product, and the
dyad-length dot products of ``analysis`` use scipy's BLAS; none of them
calls ``numpy.linalg`` or ``np.dot``. numpy and scipy ship separate
OpenBLAS builds, and switching between their thread pools on every
stage leaves the idle pool spinning while the other one wants the
cores. Products with k rows or columns (the Gram matrix of the kept
modes) stay in numpy, as does the reconstruction check of a full
decomposition. ``OPENBLAS_NUM_THREADS`` still sets the size of both
pools, except under ``replicate``, which runs both at one thread.

Ordering convention: eigenvalues are sorted by nonincreasing modulus,
ties broken by descending real part and then descending imaginary part.
Right eigenvectors are unit 2-norm with their largest-magnitude entry
rotated onto the positive real axis; left rows are rescaled so that the
bilinear pairing ``left_row . right_column`` is 1 for every mode.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .errors import (
    ConjugateClosureError,
    ConvergenceError,
    DefectivenessError,
    NegativeWeightsWarning,
    NoEdgesWarning,
    NormalizationError,
    ValidationError,
)
from .graph import Graph

__all__ = [
    "DEFAULT_DENSE_THRESHOLD",
    "SpectralDecomposition",
    "ModeSet",
    "spectral_radius",
    "decompose",
    "select_modes",
    "conjugate_partners",
]

DEFAULT_DENSE_THRESHOLD = 2000

# |Im| above this marks an eigenvalue as genuinely complex; LAPACK emits
# exact conjugate pairs for real input, so there is no gray zone.
_PAIR_TOL = 1e-10
_MATCH_TOL = 1e-8
_RESIDUAL_TOL = 1e-8
# unit right vectors paired to 1 make a left row's norm its eigenvalue's
# condition number (Golub & Van Loan, Matrix Computations, 7.2.2)
_CONDITION_MAX = 1e6
_ZERO_RADIUS = "cannot normalize: spectral radius is zero"


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of a radius-normalized adjacency matrix, canonically ordered.

    ``right_vectors`` holds one unit eigenvector per column and
    ``left_rows`` the dual left rows; for a full decomposition the
    left rows are the rows of the inverse eigenvector matrix, so
    ``left_rows @ right_vectors`` is the identity.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_rows: np.ndarray
    residual: float

    @property
    def n(self) -> int:
        return len(self.right_vectors)

    @property
    def num_modes(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Modes selected for a truncated impact approximation.

    The set is closed under complex conjugation, so summed contributions
    are real up to rounding; the realized mode count can exceed ``order``
    by the conjugate partners that closure forced in.
    """

    eigenvalues: np.ndarray
    receive_vectors: np.ndarray
    send_rows: np.ndarray
    order: int
    gamma: float

    @property
    def gains(self) -> np.ndarray:
        """``1 / (1 - gamma * eigenvalue)`` per mode."""
        return 1.0 / (1.0 - self.gamma * self.eigenvalues)

    @property
    def num_modes(self) -> int:
        return len(self.eigenvalues)


def _canonical_order(values: np.ndarray) -> np.ndarray:
    # Moduli equal in exact arithmetic come out of the solver a few ulps
    # apart; snap near-ties to a shared anchor so the declared tie-break
    # (real part, then imaginary part, both descending) actually decides.
    moduli = np.abs(values)
    snapped = np.empty_like(moduli)
    anchor = None
    for idx in np.argsort(-moduli, kind="stable"):
        if anchor is None or anchor - moduli[idx] > 1e-12 * max(1.0, anchor):
            anchor = moduli[idx]
        snapped[idx] = anchor
    # lexsort uses the last key as primary
    return np.lexsort((-values.imag, -values.real, -snapped))


def _canonicalize(values: np.ndarray, right: np.ndarray, left: np.ndarray) -> None:
    """Fix vector scale and phase in place, preserving left-right pairing."""
    for mode in range(len(values)):
        column = right[:, mode]
        pivot = column[int(np.argmax(np.abs(column)))]
        scale = np.linalg.norm(column) * (pivot / abs(pivot))
        right[:, mode] = column / scale
        left[mode, :] = left[mode, :] * scale


def conjugate_partners(values: np.ndarray) -> np.ndarray:
    """Index of each value's conjugate partner in ``values``, or -1.

    A real value (``|Im| <= _PAIR_TOL``) is its own partner. Complex
    values are paired in order, one to one: each unclaimed value claims
    the nearest unclaimed value within ``_MATCH_TOL`` of its conjugate,
    so a repeated complex eigenvalue gets one partner per copy. A value
    left without a partner gets -1.
    """
    partners = np.full(len(values), -1)
    claimed = np.abs(values.imag) <= _PAIR_TOL
    partners[claimed] = np.flatnonzero(claimed)
    for i in np.flatnonzero(~claimed):
        if claimed[i]:
            continue
        claimed[i] = True
        gaps = np.abs(values - np.conj(values[i]))
        gaps[claimed] = np.inf
        j = int(np.argmin(gaps))
        if gaps[j] <= _MATCH_TOL * max(1.0, abs(values[i])):
            partners[i], partners[j] = j, i
            claimed[j] = True
    return partners


def _enforce_conjugate_symmetry(
    values: np.ndarray, right: np.ndarray, left: np.ndarray
) -> None:
    """Overwrite each conjugate partner with the exact conjugate, in place.

    Eigenvalues and right vectors of a real matrix come out of LAPACK in
    exact conjugate pairs, but the left rows of the Gram solve pick up
    independent rounding. Downstream truncated sums rely on pair
    contributions cancelling exactly, so the partner is replaced rather
    than tolerated. Modes with a real eigenvalue are real in exact
    arithmetic (simple eigenvalue, real matrix) and get their spurious
    imaginary parts stripped for the same reason.
    """
    for i, j in enumerate(conjugate_partners(values)):
        if j < 0:
            raise ConjugateClosureError(
                f"eigenvalue {values[i]!r} has no conjugate partner in the kept set"
            )
        if i == j:
            values[i] = values[i].real
            right[:, i] = right[:, i].real
            left[i, :] = left[i, :].real
        elif i < j:
            values[j] = np.conj(values[i])
            right[:, j] = np.conj(right[:, i])
            left[j, :] = np.conj(left[i, :])


def _closed_prefix(values: np.ndarray, k: int | None) -> int:
    """Smallest prefix length >= k (all when k is None) not splitting a conjugate pair."""
    if k is None or k >= len(values):
        return len(values)
    partners = conjugate_partners(values)
    keep = k
    while keep < len(values) and partners[:keep].max() >= keep:
        keep += 1
    return keep


def _cut(values: np.ndarray, right: np.ndarray, left: np.ndarray, keep: int):
    """The first ``keep`` modes, as C-contiguous copies.

    A slice of a full basis would keep all n modes alive for as long as
    the decomposition lives.
    """
    return values[:keep].copy(), right[:, :keep].copy(), left[:keep].copy()


def _symmetric_modes(values: np.ndarray, vectors: np.ndarray, k: int | None):
    """Canonically ordered, cut eigenpairs of a symmetric matrix."""
    order = _canonical_order(values)
    values = values[order].astype(complex)
    keep = _closed_prefix(values, k)
    # only the kept vectors are reordered and made complex: no n x n copy
    right = vectors[:, order[:keep]].astype(complex)
    # orthonormal basis: the left rows are the plain transpose
    return _cut(values, right, right.T, keep)


def _dense_eig(solver, matrix: np.ndarray, **options):
    """Run a dense LAPACK eigensolver; its failure is a ConvergenceError."""
    try:
        return solver(matrix, **options)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver did not converge: {exc}") from exc


def _arpack_radius(graph: Graph) -> float:
    # ARPACK runs on A / max|w| and the radius is scaled back, so weights
    # near the float ceiling give an overflowing radius, not an ARPACK
    # failure; unit weights divide by 1.0, which is exact
    matrix = graph.adjacency_sparse()
    scale = float(np.abs(matrix.data).max(initial=0.0)) or 1.0
    matrix.data /= scale
    v0 = np.ones(graph.n) / np.sqrt(graph.n)
    try:
        if graph.directed:
            vals = spla.eigs(matrix, k=1, which="LM", v0=v0, tol=1e-10, return_eigenvectors=False)
        else:
            vals = spla.eigsh(matrix, k=1, which="LM", v0=v0, tol=1e-10, return_eigenvectors=False)
    except spla.ArpackError as exc:
        raise ConvergenceError(f"spectral radius estimation did not converge: {exc}") from exc
    return float(np.max(np.abs(vals))) * scale


def _nilpotent(graph: Graph) -> bool:
    """Radius 0 by structure: all weights zero, or a digraph whose nonzero arcs form no cycle."""
    return not graph._arcs[2].any() or graph.directed and not _cyclic_nodes(graph)


def _cyclic_nodes(graph: Graph) -> int:
    """Nodes on cycles of nonzero arcs, which bound a digraph's nonzero eigenvalues.

    No self-loops exist, so these are the strongly connected components
    of more than one node; a zero-weight arc is no entry of A.
    """
    weighted = graph.adjacency_sparse()
    weighted.eliminate_zeros()
    _, labels = csgraph.connected_components(weighted, directed=True, connection="strong")
    sizes = np.bincount(labels)
    return int(sizes[sizes > 1].sum())


def spectral_radius(graph: Graph, dense_threshold: int = DEFAULT_DENSE_THRESHOLD) -> float:
    """Largest eigenvalue modulus of the weighted adjacency matrix.

    At or below the dense threshold it is the largest modulus of the
    full dense spectrum (``eigvals``, or ``eigvalsh`` for an undirected
    graph); above it, an iterative estimate with a deterministic start
    vector. A two-node graph, too small for the iterative solver, takes
    the dense value at any threshold.
    An edgeless graph, a graph whose edge weights are all zero and a
    digraph whose nonzero-weight arcs form no cycle (nilpotent
    adjacency) have radius 0.0, decided structurally because
    eigensolvers return noise or fail on them; downstream normalization
    must reject it. A radius that overflows raises NormalizationError.

    The radius is solved once per Graph instance and route (dense or
    iterative); later calls on that instance, as from ``decompose`` and
    ``build_weight``, return the stored value. On the dense route a
    ``decompose`` that runs first stores the largest modulus of its own
    spectrum, so no separate radius solve runs. An equal but distinct
    Graph computes its own; a raising call stores nothing.
    """
    if graph.n == 0:
        raise ValidationError("spectral radius of an empty graph is undefined")
    if not graph.edges:
        warnings.warn(
            "graph has no edges; spectral radius is 0.0 and cannot normalize",
            NoEdgesWarning,
            stacklevel=2,
        )
        return 0.0
    if _nilpotent(graph):
        return 0.0
    return _stored_radius(graph, graph.n <= dense_threshold)


def _stored_radius(graph: Graph, dense_route: bool, spectrum: np.ndarray | None = None) -> float:
    """The radius stored on ``graph`` for one route, solved on first use.

    ARPACK estimates it above the threshold when n > 2; otherwise it is the
    largest modulus of the dense spectrum, ``spectrum`` if given.
    """
    radii = vars(graph).setdefault("_spectral_radii", {})
    if dense_route not in radii:
        if spectrum is None and (dense_route or graph.n <= 2):
            # an undirected adjacency is symmetric, so the symmetric solver
            # (syevd, see _dense_spectrum) suffices
            if graph.directed:
                spectrum = _dense_eig(sla.eigvals, graph.adjacency())
            else:
                spectrum = _dense_eig(sla.eigvalsh, graph.adjacency(), driver="evd")
        radius = _arpack_radius(graph) if spectrum is None else float(np.max(np.abs(spectrum)))
        if not np.isfinite(radius):
            raise NormalizationError(f"cannot normalize: spectral radius {radius!r}")
        radii[dense_route] = radius
    return radii[dense_route]


def _dual_rows(values, right, keep, left_values, left):
    """Left rows dual to the right vectors of the kept modes, from one Gram solve.

    ``values`` and ``right`` are the canonically ordered right eigenpairs,
    of which the first ``keep`` are kept; ``left`` holds left eigenvectors
    ``v`` (``v^H B = lambda v^H``) as columns, with eigenvalues
    ``left_values``. Left and right vectors are biorthogonal across
    distinct eigenvalues only, so the system spans every mode, on either
    side, whose eigenvalue is within _MATCH_TOL of a kept one. The result
    is ``(VL^H VR)^-1 VL^H`` over those modes, one row per right column,
    the kept modes first.
    """
    tol = _MATCH_TOL * np.maximum(1.0, np.abs(values[:keep]))

    def sharing(candidates):
        return np.flatnonzero((np.abs(candidates[:, None] - values[:keep]) <= tol).any(axis=1))

    columns = np.concatenate([np.arange(keep), keep + sharing(values[keep:])])
    rows = sharing(left_values)
    if len(rows) != len(columns):
        raise ConvergenceError(
            f"left and right eigenvectors disagree on the multiplicity of the kept "
            f"eigenvalues ({len(rows)} left, {len(columns)} right)"
        )
    conj_left = left[:, rows].conj().T
    gram = conj_left @ right[:, columns]
    singular = sla.svdvals(gram)
    # written so that an all-zero (or NaN) Gram matrix is singular too
    if not singular[-1] > _PAIR_TOL * singular[0]:
        raise DefectivenessError("left/right Gram matrix is singular; the matrix appears defective")
    return sla.solve(gram, conj_left, assume_a="gen")


def _dense_spectrum(graph: Graph):
    """Eigenvalues, right and left vectors of ``A`` itself (no left ones if symmetric)."""
    if not graph.directed:
        # driver evd is LAPACK syevd, as in numpy's eigh; scipy's default
        # (evr) is slower at these sizes and gives other bits. The fresh
        # adjacency is symmetric: its transpose is the same matrix in the
        # column-major order that syevd overwrites without a copy.
        return *_dense_eig(sla.eigh, graph.adjacency().T, driver="evd", overwrite_a=True), None
    values, left, right = _dense_eig(sla.eig, graph.adjacency(), left=True, right=True)
    return values, right, left


def _dense_eigenpairs(graph: Graph, spectrum, rho: float, k: int | None):
    """Leading eigenpairs of ``B = A / rho`` from the dense spectrum of ``A``.

    The eigenvalues are divided first, so every tolerance below applies
    at the scale of ``B``; scaling leaves the eigenvectors as they are.
    """
    values, right, left = spectrum
    values = values / rho
    if left is None:
        return _symmetric_modes(values, right, k)
    # geev may return a repeated real eigenvalue as a conjugate pair with a
    # rounding-level imaginary part (positive member first); the real and
    # imaginary parts of the pair's vectors span the same eigenspace
    pairs = np.flatnonzero((values.imag > 0.0) & (values.imag <= _PAIR_TOL))
    for vectors in (left, right):
        vectors[:, pairs + 1] = vectors[:, pairs].imag
        vectors[:, pairs] = vectors[:, pairs].real
    values[pairs] = values[pairs + 1] = values[pairs].real
    order = _canonical_order(values)
    values, left, right = values[order], left[:, order], right[:, order]
    keep = _closed_prefix(values, k)
    left = _dual_rows(values, right, keep, values, left)
    if keep == graph.n:
        # what a full decomposition promises is reconstruction
        rebuilt_error = np.max(np.abs((right * values) @ left - graph.adjacency() / rho))
        if rebuilt_error > 1e-6:
            raise DefectivenessError(
                f"eigenbasis reconstruction is off by {rebuilt_error:.3e}; the matrix "
                "appears defective (pass k to keep only leading modes)"
            )
    return _cut(values, right, left, keep)


def _conjugate_closure(values: np.ndarray, vectors: np.ndarray):
    """Append the conjugate of every complex eigenpair missing its partner."""
    missing = np.flatnonzero(conjugate_partners(values) < 0)
    if not missing.size:
        return values, vectors
    return (
        np.concatenate([values, np.conj(values[missing])]),
        np.hstack([vectors, np.conj(vectors[:, missing])]),
    )


def _iterative_eigenpairs(graph: Graph, b_sparse, k: int):
    n = graph.n
    if k > n - 2:
        raise ValidationError(
            "iterative decomposition needs k <= n - 2; raise the dense threshold instead"
        )
    v0 = np.ones(n) / np.sqrt(n)
    request = min(k + 2, n - 2)
    try:
        if not graph.directed:
            return _symmetric_modes(*spla.eigsh(b_sparse, k=request, which="LM", v0=v0, tol=0), k)
        right_run = spla.eigs(b_sparse, k=request, which="LM", v0=v0, tol=0)
        left_run = spla.eigs(b_sparse.T.tocsr(), k=request, which="LM", v0=v0, tol=0)
    except spla.ArpackError as exc:
        raise ConvergenceError(f"iterative decomposition did not converge: {exc}") from exc
    # the two runs can cut a conjugate pair on opposite sides; closing each
    # is exact because the matrix is real
    values, right = _conjugate_closure(*right_run)
    order = _canonical_order(values)
    values, right = values[order], right[:, order]
    left_values, left = _conjugate_closure(*left_run)
    # every eigenvalue of the right run, not only the kept ones, must turn up
    # in the left run as often as in the right one
    tol = _MATCH_TOL * np.maximum(1.0, np.abs(values))[:, None]
    copies = (np.abs(values[:, None] - values) <= tol).sum(axis=1)
    found = (np.abs(values[:, None] - left_values) <= tol).sum(axis=1)
    if (found < copies).any():
        raise ConvergenceError(
            "left spectrum does not match right spectrum near eigenvalue "
            f"{values[np.argmax(found < copies)]!r}"
        )
    keep = _closed_prefix(values, k)
    # eigs on B^T returns u with u^T B = lambda u^T, so conj(u) is the left
    # eigenvector in the sense of geev
    return _cut(values, right, _dual_rows(values, right, keep, left_values, np.conj(left)), keep)


def decompose(
    graph: Graph,
    k: int | None = None,
    dense_threshold: int = DEFAULT_DENSE_THRESHOLD,
) -> SpectralDecomposition:
    """Eigendecomposition of the radius-normalized adjacency ``B = A / rho(A)``.

    A zero radius raises NormalizationError before any eigensolve. On the
    dense route rho is the one ``spectral_radius`` has stored, else the
    largest modulus of this decomposition's spectrum, stored; no ARPACK
    run is made. The raw
    adjacency has the same eigenvectors and the eigenvalues
    ``eigenvalues * spectral_radius(graph)``.

    Parameters
    ----------
    graph : Graph
        Must have at least one edge.
    k : int or None
        Number of largest-modulus eigenpairs to keep; None (or n) keeps
        all n. The kept set never splits a conjugate pair, so the
        realized count can exceed k: by one for a simple complex pair, by
        more when a complex eigenvalue repeats (two disjoint directed
        3-cycles keep all six modes at k=3). A full directed decomposition
        requires a diagonalizable matrix; a truncated one only needs the
        kept modes, and every mode sharing their eigenvalues, to be clean,
        so sparse digraphs whose transient part is defective at eigenvalue
        zero still decompose, provided no kept mode's condition number
        exceeds ``_CONDITION_MAX`` (else DefectivenessError).
    dense_threshold : int
        At or below this size one dense eigensolve of ``A`` backs the
        result, radius included (see the module docstring); above it an
        iterative solver computes k pairs of ``B`` and their dual left
        rows (k is then required).
    """
    if graph.n == 0 or not graph.edges:
        raise ValidationError("decomposition requires a graph with at least one edge")
    if k is not None:
        if k < 1:
            raise ValidationError("k must be a positive integer")
        if k > graph.n:
            raise ValidationError(f"k={k} exceeds the matrix dimension {graph.n}")
    if (graph._arcs[2] < 0.0).any():
        warnings.warn(
            "negative edge weights: no positivity guarantee for the principal mode",
            NegativeWeightsWarning,
            stacklevel=2,
        )

    if _nilpotent(graph):
        raise NormalizationError(_ZERO_RADIUS)
    dense_route = graph.n <= dense_threshold
    if dense_route:
        spectrum = _dense_spectrum(graph)
        # the radius is the largest modulus of this same spectrum
        _stored_radius(graph, dense_route=True, spectrum=spectrum[0])
    rho = spectral_radius(graph, dense_threshold=dense_threshold)
    if rho == 0.0:
        raise NormalizationError(_ZERO_RADIUS)

    b_sparse = graph.adjacency_sparse() / rho
    if dense_route:
        values, right, left = _dense_eigenpairs(graph, spectrum, rho, k)
    else:
        if k is None:
            raise ValidationError(
                "full decomposition above the dense threshold is not supported; "
                "pass k or raise the threshold"
            )
        values, right, left = _iterative_eigenpairs(graph, b_sparse, k)

    _canonicalize(values, right, left)
    _enforce_conjugate_symmetry(values, right, left)

    pairing = np.einsum("ij,ji->i", left, right)
    if np.max(np.abs(pairing - 1.0)) > _MATCH_TOL:
        raise DefectivenessError(
            "left/right eigenvector pairing degenerates; matrix is near defective"
        )
    kappa = np.linalg.norm(left, axis=1)
    worst = int(np.argmax(kappa))
    # a full decomposition is gated by its reconstruction instead
    if len(values) < graph.n and not kappa[worst] <= _CONDITION_MAX:
        raise DefectivenessError(
            f"eigenvalue {complex(values[worst])} has condition number {kappa[worst]:.1e} "
            f"above {_CONDITION_MAX:.0e}; the kept modes are near defective"
        )
    residual = float(np.linalg.norm(b_sparse @ right - right * values, axis=0).max())
    if residual > _RESIDUAL_TOL:
        raise ConvergenceError(f"eigenpair residual {residual:.3e} exceeds {_RESIDUAL_TOL:.0e}")
    return SpectralDecomposition(
        eigenvalues=values, right_vectors=right, left_rows=left, residual=residual
    )


def select_modes(decomposition: SpectralDecomposition, gamma: float, order: int) -> ModeSet:
    """Greedy top-modulus mode choice, closed under complex conjugation.

    Whenever a selected eigenvalue has a nonzero imaginary part its
    conjugate partner is pulled in as well, so the realized mode count
    can exceed ``order``.
    """
    if not 0.0 < gamma < 1.0:
        raise ValidationError("gamma must lie strictly inside (0, 1)")
    if order < 1:
        raise ValidationError("order must be a positive integer")
    if order > decomposition.num_modes:
        raise ValidationError(
            f"order {order} exceeds the {decomposition.num_modes} available modes"
        )
    values = decomposition.eigenvalues
    partners = conjugate_partners(values)[:order]
    if partners.min() < 0:
        value = values[int(np.argmin(partners))]
        raise ValidationError(
            f"conjugate partner of eigenvalue {value!r} is not in the decomposition"
        )
    selected = np.union1d(np.arange(order), partners)
    return ModeSet(
        eigenvalues=values[selected],
        receive_vectors=np.ascontiguousarray(decomposition.right_vectors[:, selected]),
        send_rows=np.ascontiguousarray(decomposition.left_rows[selected, :]),
        order=order,
        gamma=gamma,
    )

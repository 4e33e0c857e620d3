"""Eigenstructure of the radius-normalized adjacency matrix ``B = A / rho``.

Provides the spectral radius, dense and iterative decompositions with
dual left rows, and greedy mode selection with conjugate closure so
that truncated sums stay real.

One eigensolve of ``A`` per side serves both the radius and the
decomposition on every route: dense at or below the threshold, ARPACK
above it. rho is always the largest modulus of that spectrum, never a
stored standalone radius, and the eigenvalues are divided by it.

Which route runs is decided by ``Graph._symmetric`` alone: A is
symmetric when the graph is undirected or each arc has a reverse arc of
equal weight. A symmetric A has an orthonormal eigenbasis (``eigh``, or
``eigsh`` above the dense threshold), so the left rows are the transposed
right vectors, bit for bit, and every approximation is exactly symmetric.
For a nonsymmetric A the left rows always come from one Gram solve,
``(VL^H VR)^-1 VL^H`` over the kept modes and every mode sharing their
eigenvalues, so they are the dual basis of the right vectors even within
a repeated eigenvalue. The left vectors come from the same two-sided
``geev`` call as the right ones at or below the dense threshold; above
it, from a second ARPACK run on ``A^T``. On both routes the left side
must hold every eigenvalue of the right side as often as the right side
does. A full decomposition must reconstruct ``B``; a truncated one must
keep no mode whose condition number, its left-row norm, exceeds
``_CONDITION_MAX``.

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


def _canonicalize(right: np.ndarray, left: np.ndarray | None = None) -> None:
    """Fix vector scale and phase in place, preserving left-right pairing.

    Without ``left`` only the right vectors are scaled.
    """
    for mode in range(right.shape[1]):
        column = right[:, mode]
        pivot = column[int(np.argmax(np.abs(column)))]
        scale = np.linalg.norm(column) * (pivot / abs(pivot))
        right[:, mode] = column / scale
        if left is not None:
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
    _canonicalize(right)
    # orthonormal basis: the left rows are the plain transpose
    return _cut(values, right, right.T, keep)


def _dense_eig(solver, matrix: np.ndarray, **options):
    """Run a dense LAPACK eigensolver; its failure is a ConvergenceError."""
    try:
        return solver(matrix, **options)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver did not converge: {exc}") from exc


def _arpack(graph: Graph, k: int, vectors: bool = True):
    """ARPACK's k largest-modulus eigenpairs of ``A / s``, with ``s = max|w|``, and s.

    With vectors, one ``(values, vectors)`` side per run: the right side,
    then for a nonsymmetric A the left side from a second run on the
    transpose; without, the right run's values alone. Dividing by s means weights
    near the float ceiling give an overflowing radius, not an ARPACK
    failure; unit weights divide by 1.0, which is exact.
    """
    matrix = graph.adjacency_sparse()
    scale = float(np.abs(matrix.data).max(initial=0.0)) or 1.0
    matrix.data /= scale
    solver = spla.eigsh if graph._symmetric else spla.eigs
    matrices = [matrix] if graph._symmetric or not vectors else [matrix, matrix.T.tocsr()]
    options = dict(k=k, which="LM", v0=np.ones(graph.n) / np.sqrt(graph.n), tol=0)
    try:
        runs = [solver(m, return_eigenvectors=vectors, **options) for m in matrices]
    except spla.ArpackError as exc:
        raise ConvergenceError(f"iterative eigensolver did not converge: {exc}") from exc
    if len(runs) == 2:
        # eigs on A^T returns u with u^T A = lambda u^T, so conj(u) is the
        # left eigenvector in the sense of geev
        runs[1] = (runs[1][0], np.conj(runs[1][1]))
    return runs, scale


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
    full dense spectrum (``eigvals``, or ``eigvalsh`` for a symmetric
    A); above it, the largest modulus of ARPACK's leading value, one
    run with a deterministic start vector and no eigenvectors. A
    two-node graph, too small for the iterative solver, takes the dense
    value at any threshold.
    An edgeless graph, a graph whose edge weights are all zero and a
    digraph whose nonzero-weight arcs form no cycle (nilpotent
    adjacency) have radius 0.0, decided structurally because
    eigensolvers return noise or fail on them; downstream normalization
    must reject it. A radius that overflows raises NormalizationError.

    The radius is stored on the Graph instance per route (dense or
    iterative), and this solve runs only when none is stored there.
    ``decompose`` always stores its own spectrum's largest modulus there,
    replacing a standalone value. An equal but distinct Graph computes
    its own; a raising call stores nothing.
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
    dense_route = graph.n <= dense_threshold
    radii = vars(graph).setdefault("_spectral_radii", {})
    if dense_route not in radii:
        scale = 1.0
        if not dense_route and graph.n > 2:
            (spectrum,), scale = _arpack(graph, 1, vectors=False)
        elif graph._symmetric:
            # a symmetric adjacency takes syevd, as in _dense_spectrum
            spectrum = _dense_eig(sla.eigvalsh, graph.adjacency(), driver="evd")
        else:
            spectrum = _dense_eig(sla.eigvals, graph.adjacency())
        radii[dense_route] = _radius(spectrum, scale)
    return radii[dense_route]


def _radius(spectrum: np.ndarray, scale: float) -> float:
    """``scale`` times the largest modulus of ``spectrum``, or NormalizationError if infinite."""
    # scaled as a Python float, which overflows to inf without a warning
    radius = float(np.max(np.abs(spectrum))) * scale
    if not np.isfinite(radius):
        raise NormalizationError(f"cannot normalize: spectral radius {radius!r}")
    return radius


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
    """The sides of ``A`` itself, as ``_arpack`` gives them: right, then left if nonsymmetric."""
    if graph._symmetric:
        # driver evd is LAPACK syevd, as in numpy's eigh; scipy's default
        # (evr) is slower at these sizes and gives other bits. The fresh
        # adjacency is symmetric: its transpose is the same matrix in the
        # column-major order that syevd overwrites without a copy.
        return [_dense_eig(sla.eigh, graph.adjacency().T, driver="evd", overwrite_a=True)]
    values, left, right = _dense_eig(sla.eig, graph.adjacency(), left=True, right=True)
    # geev may return a repeated real eigenvalue as a conjugate pair with a
    # rounding-level imaginary part (positive member first); the real and
    # imaginary parts of the pair's vectors span the same eigenspace. The
    # tolerance is taken relative to rho, the largest modulus, so that it
    # applies at the scale of B.
    tiny = _PAIR_TOL * np.abs(values).max()
    pairs = np.flatnonzero((values.imag > 0.0) & (values.imag <= tiny))
    for vectors in (left, right):
        vectors[:, pairs + 1] = vectors[:, pairs].imag
        vectors[:, pairs] = vectors[:, pairs].real
    values[pairs] = values[pairs + 1] = values[pairs].real
    return [(values, right), (values, left)]


def _ordered_side(values: np.ndarray, vectors: np.ndarray):
    """One side's eigenpairs of a real matrix, conjugate-closed and canonically ordered.

    A partial solve can cut a conjugate pair on one side only; appending
    the missing partner is exact because the matrix is real.
    """
    missing = np.flatnonzero(conjugate_partners(values) < 0)
    if missing.size:
        values = np.concatenate([values, np.conj(values[missing])])
        vectors = np.hstack([vectors, np.conj(vectors[:, missing])])
    order = _canonical_order(values)
    return values[order], vectors[:, order]


def _directed_modes(graph: Graph, rho: float, k: int | None, right_side, left_side):
    """Canonically ordered, cut eigenpairs of ``B = A / rho`` with dual left rows.

    Each side is ``(values, vectors)`` of B, one vector per column; left
    vectors ``v`` satisfy ``v^H B = lambda v^H``.
    """
    values, right = _ordered_side(*right_side)
    left_values, left = _ordered_side(*left_side)
    # every eigenvalue on the right side, not only the kept ones, must turn
    # up on the left side as often as on the right one; one value at a
    # time, as a full spectrum's n x n distance table would outweigh A
    for value in values:
        near = _MATCH_TOL * max(1.0, abs(value))
        if (abs(left_values - value) <= near).sum() < (abs(values - value) <= near).sum():
            raise ConvergenceError(
                f"left spectrum does not match right spectrum near eigenvalue {value!r}"
            )
    keep = _closed_prefix(values, k)
    left = _dual_rows(values, right, keep, left_values, left)
    if keep == graph.n:
        # what a full decomposition promises is reconstruction
        rebuilt_error = np.max(np.abs((right * values) @ left - graph.adjacency() / rho))
        if rebuilt_error > 1e-6:
            raise DefectivenessError(
                f"eigenbasis reconstruction is off by {rebuilt_error:.3e}; the matrix "
                "appears defective (pass k to keep only leading modes)"
            )
    return _cut(values, right, left, keep)


def decompose(
    graph: Graph,
    k: int | None = None,
    dense_threshold: int = DEFAULT_DENSE_THRESHOLD,
) -> SpectralDecomposition:
    """Eigendecomposition of the radius-normalized adjacency ``B = A / rho(A)``.

    Bad arguments and a zero radius raise before any eigensolve. On
    either route rho is the largest modulus of this decomposition's own
    spectrum, stored on ``graph`` in place of any radius a standalone
    ``spectral_radius`` call stored there. The raw adjacency has the same
    eigenvectors and the eigenvalues ``eigenvalues * spectral_radius(graph)``.

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
        result, radius included (see the module docstring); above it one
        ARPACK run on ``A``, and one on ``A^T`` for a nonsymmetric A, does (k is
        then required, at most n - 2).
    """
    if graph.n == 0 or not graph.edges:
        raise ValidationError("decomposition requires a graph with at least one edge")
    if k is not None:
        if k < 1:
            raise ValidationError("k must be a positive integer")
        if k > graph.n:
            raise ValidationError(f"k={k} exceeds the matrix dimension {graph.n}")
    dense_route = graph.n <= dense_threshold
    if not dense_route and (k is None or k > graph.n - 2):
        raise ValidationError(
            "decomposition above the dense threshold needs k <= n - 2; "
            "pass a smaller k or raise the dense threshold"
        )
    if (graph._arcs[2] < 0.0).any():
        warnings.warn(
            "negative edge weights: no positivity guarantee for the principal mode",
            NegativeWeightsWarning,
            stacklevel=2,
        )

    if _nilpotent(graph):
        raise NormalizationError(_ZERO_RADIUS)
    if dense_route:
        sides, scale = _dense_spectrum(graph), 1.0
    else:
        sides, scale = _arpack(graph, min(k + 2, graph.n - 2))
    # the radius is this same spectrum's largest modulus, whatever was stored
    vars(graph).setdefault("_spectral_radii", {})[dense_route] = _radius(sides[0][0], scale)
    rho = spectral_radius(graph, dense_threshold=dense_threshold)
    if rho == 0.0:
        raise NormalizationError(_ZERO_RADIUS)
    # dividing the eigenvalues first puts every tolerance of the tail at the
    # scale of B; scaling leaves the eigenvectors as they are
    sides = [(values * scale / rho, vectors) for values, vectors in sides]
    if graph._symmetric:
        values, right, left = _symmetric_modes(*sides[0], k)
    else:
        values, right, left = _directed_modes(graph, rho, k, *sides)
        _canonicalize(right, left)
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
    b_sparse = graph.adjacency_sparse() / rho
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

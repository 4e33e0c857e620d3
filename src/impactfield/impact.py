"""Weight-matrix construction and total-impact computation.

The model: node states update as ``y = W y + z`` with an attenuation
gamma baked into ``W = gamma * A / rho(A)``, so the long-run total
impact of j on i is entry (i, j) of the propagator ``(I - W)^-1``.

Orientation: entry (i, j) of every matrix here concerns the influence of
j on i. Powers of W accumulate index walks from i to j along arc
direction, which is exactly the direction geodesic_distances counts, so
``hops[i, j]`` is the right exponent for entry (i, j).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    "equilibrium_state",
    "approx_impact",
]

_RCOND_FLOOR = 1e-14
# entries per row block of the approximation kernel, which runs in
# blocks of max(1, _BLOCK_ENTRIES // n) rows so that every per-term
# temporary stays in cache
_BLOCK_ENTRIES = 1 << 15


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


def build_weight(graph: Graph, gamma: float, rho: float | None = None) -> WeightMatrix:
    """Materialize ``W = gamma * A / rho(A)`` for a graph.

    The arc (i, j) of the input sets entry W[i, j]: whoever i points at
    impacts i. ``rho`` can be supplied when the spectral radius is
    already known (it does not depend on gamma).
    """
    if not 0.0 < gamma < 1.0:
        raise ValidationError("gamma must lie strictly inside (0, 1)")
    if graph.n == 0 or not graph.edges:
        raise NormalizationError("cannot normalize: graph has no edges (spectral radius 0)")
    src, dst, weights = graph._arcs
    if (weights < 0.0).any():
        warnings.warn(
            "negative edge weights: no positivity guarantee for impact values",
            NegativeWeightsWarning,
            stacklevel=2,
        )
    if rho is None:
        rho = spectral_radius(graph)
    if not 0.0 < rho < np.inf:
        raise NormalizationError(f"cannot normalize: spectral radius {rho!r}")
    w = np.zeros((graph.n, graph.n))
    w[src, dst] = (weights / rho) * gamma
    return WeightMatrix(gamma=gamma, rho=rho, W=w)


def gamma_grid() -> list[float]:
    """The standard attenuation sweep 1 - 2**-k for k = 1..5."""
    return [1.0 - 2.0**-k for k in range(1, 6)]


def _system(weight: WeightMatrix, overwrite: bool = False) -> np.ndarray:
    """``I - W``, formed in ``weight.W`` when ``overwrite`` is set.

    The off-diagonal is ``0 - w``, not ``-w``: negation would turn the
    +0.0 entries into -0.0, which ``np.eye(n) - W`` does not.
    """
    system = np.subtract(0.0, weight.W, out=weight.W if overwrite else None)
    system[np.diag_indices_from(system)] += 1.0
    return system


def _factorize(system: np.ndarray):
    # every caller hands over a system it will not read again, so LAPACK
    # may factorize it in place; its 1-norm is taken first
    anorm = scipy.linalg.norm(system, 1, check_finite=False)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (system,))
    try:
        lu, piv = scipy.linalg.lu_factor(system, overwrite_a=True)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"(I - W) could not be factorized: {exc}") from exc
    _check_rcond(*gecon(lu, anorm, norm="1"))
    return lu, piv


def _check_rcond(rcond: float, info: int) -> None:
    if info != 0 or rcond < _RCOND_FLOOR:
        raise SolverError(
            f"(I - W) is numerically singular; reciprocal condition estimate {rcond:.3e}"
        )


def _symmetric_inverse(system: np.ndarray) -> np.ndarray:
    # rho(W) = gamma < 1 puts every eigenvalue of the symmetric I - W in
    # (1 - gamma, 1 + gamma), so it is positive definite. The Fortran
    # routines work in place on the transposed view, which is the same
    # symmetric matrix in column-major order.
    anorm = scipy.linalg.norm(system, 1, check_finite=False)
    potrf, pocon, potri = scipy.linalg.get_lapack_funcs(("potrf", "pocon", "potri"), (system,))
    factor, info = potrf(system.T, lower=False, clean=False, overwrite_a=True)
    if info != 0:
        raise SolverError(f"(I - W) could not be factorized: potrf returned info={info}")
    _check_rcond(*pocon(factor, anorm, uplo="U"))
    inverse, info = potri(factor, lower=False, overwrite_c=True)
    if info != 0:
        raise SolverError(f"(I - W) could not be inverted: potri returned info={info}")
    # potri filled the lower triangle of the row-major result; mirror it
    values = inverse.T
    for row in range(system.shape[0] - 1):
        values[row, row + 1:] = values[row + 1:, row]
    return values


def exact_propagator(weight: WeightMatrix, *, overwrite_weight: bool = False) -> ImpactMatrix:
    """Exact total-impact matrix ``(I - W)^-1`` via a factorized solve.

    A symmetric ``W`` (undirected input, or a digraph whose arcs all come
    in equal-weight pairs) makes ``I - W`` symmetric positive definite,
    and the inverse comes from a Cholesky factorization; any other ``W``
    goes through LU. Both routes refuse a numerically singular system.

    By default ``weight.W`` is left intact and ``I - W`` is a new array.
    With ``overwrite_weight=True`` (after scipy's ``overwrite_a``),
    ``I - W`` is formed inside ``weight.W`` and factorized there, so the
    caller must not read ``weight.W`` again: its contents are unspecified
    afterwards, and on the Cholesky route the returned ``values`` share
    its buffer. The values are bitwise those of the default call.
    """
    symmetric = scipy.linalg.issymmetric(weight.W)
    system = _system(weight, overwrite_weight)
    if symmetric:
        values = _symmetric_inverse(system)
    else:
        lu, piv = _factorize(system)
        values = scipy.linalg.lu_solve((lu, piv), np.eye(weight.n))
    return ImpactMatrix(values=values, gamma=weight.gamma)


def equilibrium_state(weight: WeightMatrix, z: np.ndarray) -> np.ndarray:
    """Fixed point of ``y = W y + z``, i.e. ``(I - W)^-1 z``."""
    z = np.asarray(z, dtype=float)
    if z.shape != (weight.n,):
        raise ValidationError(f"forcing vector must have shape ({weight.n},), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValidationError("forcing vector must be finite")
    lu, piv = _factorize(_system(weight))
    return scipy.linalg.lu_solve((lu, piv), z)


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

    ``blocks`` cuts the n rows into slices of ``height`` =
    ``max(1, _BLOCK_ENTRIES // n)`` rows, so every temporary of ``add``
    is one block in size. Each term is the gain times
    ``(gamma * lam)^d`` per hop count d, read from a table, times the
    outer product of its vectors; a folded term is twice the real part
    of one member of its conjugate pair, and any other term is real.
    """

    def __init__(self, modes: ModeSet, dist: DistanceMatrix) -> None:
        n = dist.n
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
        self.height = height = max(1, _BLOCK_ENTRIES // max(n, 1))
        self.blocks = [slice(start, min(start + height, n)) for start in range(0, n, height)]

    def add(
        self,
        block: np.ndarray,
        rows: slice,
        hops: np.ndarray,
        start: int = 0,
        stop: int | None = None,
    ) -> None:
        """Add terms ``start:stop`` at rows ``rows``, with hop counts ``hops``, to ``block``.

        ``hops`` holds the rows' hop counts as intp, cast once by the
        caller, so no term's table gather casts them again.
        """
        for real, imag, receive, send in self.terms[start:stop]:
            outer = np.outer(receive[rows], send)
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
    for rows in kernel.blocks:
        block = values[rows]
        kernel.add(block, rows, dist.hops[rows].astype(np.intp))
        block[~dist.reachable[rows]] = 0.0
    return ImpactMatrix(values=values, gamma=modes.gamma, order=modes.order)

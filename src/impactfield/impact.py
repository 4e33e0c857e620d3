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
from enum import Enum

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
    "ImpactKind",
    "ImpactMatrix",
    "build_weight",
    "gamma_grid",
    "exact_propagator",
    "equilibrium_state",
    "approx_impact",
]

_RCOND_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Attenuated, radius-normalized adjacency ``W = gamma * A / rho(A)``.

    ``A / rho(A)`` has spectral radius 1, so ``rho(W) = gamma < 1`` and
    the impact series converges.
    """

    n: int
    gamma: float
    rho: float
    W: np.ndarray


class ImpactKind(str, Enum):
    EXACT = "exact"
    APPROX = "approx"


@dataclass(frozen=True, eq=False)
class ImpactMatrix:
    """Total-impact values; entry (i, j) is the impact of j on i."""

    n: int
    values: np.ndarray
    kind: ImpactKind
    gamma: float
    order: int | None = None


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
    if any(weight < 0.0 for _, _, weight in graph.edges):
        warnings.warn(
            "negative edge weights: no positivity guarantee for impact values",
            NegativeWeightsWarning,
            stacklevel=2,
        )
    if rho is None:
        rho = spectral_radius(graph)
    if rho <= 0.0:
        raise NormalizationError(f"cannot normalize: spectral radius {rho!r}")
    w = graph.adjacency()
    w /= rho
    w *= gamma
    return WeightMatrix(n=graph.n, gamma=gamma, rho=rho, W=w)


def gamma_grid() -> list[float]:
    """The standard attenuation sweep 1 - 2**-k for k = 1..5."""
    return [1.0 - 2.0**-k for k in range(1, 6)]


def _factorize(weight: WeightMatrix):
    system = np.eye(weight.n) - weight.W
    try:
        lu, piv = scipy.linalg.lu_factor(system)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"(I - W) could not be factorized: {exc}") from exc
    gecon = scipy.linalg.get_lapack_funcs("gecon", (system,))
    _check_rcond(*gecon(lu, scipy.linalg.norm(system, 1, check_finite=False), norm="1"))
    return lu, piv


def _check_rcond(rcond: float, info: int) -> None:
    if info != 0 or rcond < _RCOND_FLOOR:
        raise SolverError(
            f"(I - W) is numerically singular; reciprocal condition estimate {rcond:.3e}"
        )


def _symmetric_inverse(weight: WeightMatrix) -> np.ndarray:
    # rho(W) = gamma < 1 puts every eigenvalue of the symmetric I - W in
    # (1 - gamma, 1 + gamma), so it is positive definite. The Fortran
    # routines work in place on the transposed view, which is the same
    # symmetric matrix in column-major order.
    system = np.eye(weight.n) - weight.W
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
    for row in range(weight.n - 1):
        values[row, row + 1:] = values[row + 1:, row]
    return values


def exact_propagator(weight: WeightMatrix) -> ImpactMatrix:
    """Exact total-impact matrix ``(I - W)^-1`` via a factorized solve.

    A symmetric ``W`` (undirected input, or a digraph whose arcs all come
    in equal-weight pairs) makes ``I - W`` symmetric positive definite,
    and the inverse comes from a Cholesky factorization; any other ``W``
    goes through LU. Both routes refuse a numerically singular system.
    """
    if np.array_equal(weight.W, weight.W.T):
        values = _symmetric_inverse(weight)
    else:
        lu, piv = _factorize(weight)
        values = scipy.linalg.lu_solve((lu, piv), np.eye(weight.n))
    return ImpactMatrix(n=weight.n, values=values, kind=ImpactKind.EXACT, gamma=weight.gamma)


def equilibrium_state(weight: WeightMatrix, z: np.ndarray) -> np.ndarray:
    """Fixed point of ``y = W y + z``, i.e. ``(I - W)^-1 z``."""
    z = np.asarray(z, dtype=float)
    if z.shape != (weight.n,):
        raise ValidationError(f"forcing vector must have shape ({weight.n},), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValidationError("forcing vector must be finite")
    lu, piv = _factorize(weight)
    return scipy.linalg.lu_solve((lu, piv), z)


def _real_terms(modes: ModeSet) -> list[tuple[int, bool]]:
    """Split a mode set into real terms: ``(mode, folded)`` per term.

    Partners come from ``conjugate_partners``. A mode that is its own
    partner must have a real eigenvalue, gain and vectors, and is its own
    term. Every other mode must be the exact conjugate (eigenvalue, gain
    and both vectors) of its partner; the pair sums to twice the real
    part of its first member, so ``folded`` is set and the partner
    contributes no term of its own.
    """
    values, gains = modes.eigenvalues, modes.gains
    right, left = modes.receive_vectors, modes.send_rows
    terms: list[tuple[int, bool]] = []
    for a, b in enumerate(conjugate_partners(values)):
        if b < 0 or not (
            values[b] == np.conj(values[a])
            and gains[b] == np.conj(gains[a])
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


def approx_impact(modes: ModeSet, dist: DistanceMatrix) -> ImpactMatrix:
    """Spectral distance-decay approximation of the total-impact matrix.

    Entry (i, j) sums ``(gamma * lam)^d / (1 - gamma * lam) * s_i * s'_j``
    over the selected modes, with d the hop count from i to j and gamma
    the ``modes.gamma`` they were selected for; W itself does not enter.
    Pairs with no connecting path get 0, the limit value. The mode set
    must be conjugate closed, so the sum is real: it is accumulated in
    real arithmetic, each conjugate pair as twice the real part of one
    member, and a mode without its conjugate raises ConjugateClosureError.
    """
    n = dist.n
    if modes.receive_vectors.shape[0] != n:
        raise ValidationError("mode set and distances must agree on n")
    terms = _real_terms(modes)
    hops = dist.hops
    exponents = np.arange(int(hops.max(initial=0)) + 1)
    values = np.zeros((n, n))
    for mode, folded in terms:
        table = modes.gains[mode] * np.power(modes.gamma * modes.eigenvalues[mode], exponents)
        receive = modes.receive_vectors[:, mode]
        send = modes.send_rows[mode, :]
        if folded:
            outer = np.outer(receive, send)
            term = table.real[hops] * outer.real
            term -= table.imag[hops] * outer.imag
            term *= 2.0
        else:
            term = np.outer(receive.real, send.real)
            term *= table.real[hops]
        values += term
    values[~dist.reachable] = 0.0
    return ImpactMatrix(
        n=n, values=values, kind=ImpactKind.APPROX, gamma=modes.gamma, order=modes.order
    )

"""Quantum entropy, its gradient, and the quantum relative entropy.

The divergence ``D(X;Y) = tr(X log X - X log Y - (X - Y))`` is the Bregman
divergence of the entropy ``phi(X) = tr(X log X)``: the gap between
``phi(X)`` and the best affine approximation of ``phi`` at ``Y``.  All
values are in nats.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .hermitian import (
    HermitianMatrix,
    PdMatrix,
    _check_dims,
    mat_log,
    trace_product,
    trace_products,
    traces,
)


@dataclasses.dataclass(frozen=True)
class DivergenceBreakdown:
    """The divergence value together with its three summands.

    ``value`` is computed as ``entropy_x - cross_term - trace_gap`` in a
    single rounding chain, so the identity between the fields is exact.
    """

    value: float
    entropy_x: float
    cross_term: float
    trace_gap: float


@dataclasses.dataclass(frozen=True)
class KleinCheck:
    """Outcome of a nonnegativity check on one divergence evaluation."""

    value: float
    passed: bool
    near_equal: bool


def entropy(x: PdMatrix) -> float:
    """Quantum entropy ``tr(X log X)``, as ``sum lambda log lambda`` over X's carried eigenvalues.

    Working on the eigenvalues directly avoids a matrix product and
    conditions better; agreement with the ``tr(X log X)`` route is covered
    by tests rather than assumed.
    """
    return float(entropies(x.eigenvalues))


def entropies(w: np.ndarray) -> np.ndarray:
    """``sum lambda log lambda`` over the last axis of positive eigenvalues ``w``."""
    return (w * np.log(w)).sum(axis=-1)


def entropy_gradient(y: PdMatrix) -> HermitianMatrix:
    """Gradient of the quantum entropy at ``Y``: ``log Y + I``."""
    return mat_log(y) + HermitianMatrix.identity(y.dim)


def relative_entropy(x: PdMatrix, y: PdMatrix) -> DivergenceBreakdown:
    """Quantum relative entropy of ``X`` with respect to ``Y``, with summands."""
    _check_dims(x, y)
    parts = relative_entropies(x.eigenvalues, x.entries, y.entries, mat_log(y).entries)
    return DivergenceBreakdown(*map(float, parts))


def relative_entropies(
    x_eigenvalues: np.ndarray, x: np.ndarray, y: np.ndarray, log_y: np.ndarray
) -> tuple[np.ndarray, ...]:
    """``D(X;Y)`` and its summands, for one pair or for each pair of two stacks.

    Takes X's eigenvalues and entries and Y's entries and logarithm, and
    returns ``(value, entropy_x, cross_term, trace_gap)`` in the order of
    :class:`DivergenceBreakdown`, each with the stacks' leading shape.
    """
    entropy_x = entropies(x_eigenvalues)
    cross_term = trace_products(x, log_y)
    trace_gap = traces(x) - traces(y)
    return entropy_x - cross_term - trace_gap, entropy_x, cross_term, trace_gap


def bregman_residual(x: PdMatrix, y: PdMatrix) -> float:
    """Absolute gap between the divergence and its Bregman form.

    Compares ``D(X;Y)`` against
    ``phi(X) - [phi(Y) + <grad phi(Y), X - Y>]``; the two routes agree
    exactly in exact arithmetic.
    """
    direct = relative_entropy(x, y).value
    affine_gap = (
        entropy(x)
        - entropy(y)
        - trace_product(entropy_gradient(y), x.base - y.base)
    )
    return abs(direct - affine_gap)


def klein_check(x: PdMatrix, y: PdMatrix, tol: float) -> KleinCheck:
    """Check nonnegativity of ``D(X;Y)``.

    Passes iff the value is at least ``-tol``; when ``X`` and ``Y`` are
    numerically indistinguishable the value must also stay below ``tol``.
    """
    value = relative_entropy(x, y).value
    near = (x.base - y.base).frobenius_norm() <= 1e-10 * (1.0 + x.frobenius_norm())
    passed = value >= -tol and (not near or value <= tol)
    return KleinCheck(value, passed, near)

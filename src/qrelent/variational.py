"""Variational trace representations and their maximizers on the PD cone.

Both maximizations in this module are instances of one problem: ascend

    f(X) = tr(X K) - tr(X log X) + tr X

over positive-definite ``X``, whose unique stationary point is
``X* = exp(K)`` with value ``tr exp(K)``.  For the trace variational
formula ``K = log Y``; for the trace-exponential representation
``K = H + log A``.  The closed form is never used inside the optimizer --
it is reserved as the independent oracle for tests and suites.

The ascent is a damped Newton method.  The Hessian of ``f`` is minus the
Frechet derivative of ``log`` at ``X``, which in X's eigenbasis is a
Hadamard product with the first divided differences of ``log``
(Daleckii-Krein; Higham, *Functions of Matrices*, 2008, ch. 3; Bhatia,
*Matrix Analysis*, 1997, sec. V.3).  The eigendecomposition that evaluates
``f`` at an iterate therefore also gives the Newton direction there, and
the ascent runs in the iterate's eigenbasis.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .divergence import entropies, entropy, relative_entropy
from .errors import DomainError, NotHermitianError
from .hermitian import (
    HermitianMatrix,
    PdMatrix,
    _check_dims,
    _eigh,
    _rebuild,
    exp_eigenvalues,
    mat_log,
    trace_product,
    validate_pd,
)

# Iteration cap of one ascent.
_MAX_ITERS = 5000
# Factor by which a rejected trial step is cut.
_BACKTRACK_FACTOR = 0.5
# Armijo sufficient-increase constant.
_ARMIJO_C = 1e-4
# Smallest admissible eigenvalue of a trial point; lower ones are rejected.
_EIG_FLOOR = 1e-10
# Smallest trial step, whatever the backtrack factor.  A Newton step cut
# further has stalled against the eigenvalue floor: the maximizer lies below
# it, and further cuts would only creep towards it until the iteration cap.
_MIN_STEP = 1e-12
# Acceptance slack absorbing objective rounding noise near the optimum,
# where the predicted increase drops below double precision; accepted
# steps therefore stay monotone up to this amount.
_ACCEPT_SLACK = 1e-12


@dataclasses.dataclass(frozen=True)
class OptimizeResult:
    """Converged maximizer with value and convergence diagnostics.

    ``objective_history`` lists the objective at the initial point and
    after every accepted ascent step.
    """

    maximizer: PdMatrix
    value: float
    iters: int
    grad_norm_final: float
    converged: bool
    objective_history: tuple


def trace_exp_log(h: HermitianMatrix, a: PdMatrix) -> float:
    """Evaluate ``tr exp(H + log A)`` as ``sum exp(lambda)`` over the eigenvalues of ``H + log A``.

    Only the eigenvalues are computed; ``log A`` costs one decomposition
    of ``A`` if its eigenvectors were not carried.
    """
    _check_dims(h, a)
    return float(trace_exp_logs(h.entries, mat_log(a).entries))


def trace_exp_logs(h: np.ndarray, log_a: np.ndarray) -> np.ndarray:
    """``tr exp(H + log A)`` from the entries of ``H`` and ``log A``, over their leading axes.

    Either argument may be one matrix or a stack; they broadcast.  One
    ``eigvalsh`` call computes the eigenvalues of every ``H + log A``.
    Raises NotHermitianError when ``H + log A`` has a non-finite entry and
    OverflowError when an eigenvalue exceeds ``EXP_OVERFLOW_LIMIT``.
    """
    k = h + log_a
    if not np.isfinite(k).all():
        raise NotHermitianError("matrix has non-finite entries")
    return exp_eigenvalues(_eigh(k, vectors=False)[0]).sum(axis=-1)


def variational_objective(x: PdMatrix, y: PdMatrix) -> float:
    """``tr(X log Y - X log X + X)``, maximized over X at ``X = Y`` with value ``tr Y``."""
    return trace_product(x, mat_log(y)) - entropy(x) + x.trace()


def variational_gradient(x: PdMatrix, y: PdMatrix) -> HermitianMatrix:
    """Euclidean gradient ``log Y - log X`` of the trace variational objective."""
    return mat_log(y) - mat_log(x)


def lieb_objective(x: PdMatrix, h: HermitianMatrix, a: PdMatrix) -> float:
    """``tr(XH) - (D(X;A) - tr A)``, computed through the divergence breakdown.

    Expanding instead to ``tr(X(H + log A) - X log X + X)`` gives the same
    value; agreement of the two routes is covered by tests, not assumed.
    """
    return trace_product(x, h) - relative_entropy(x, a).value + a.trace()


def lieb_gradient(x: PdMatrix, h: HermitianMatrix, a: PdMatrix) -> HermitianMatrix:
    """Euclidean gradient ``H + log A - log X``; vanishes at ``X = exp(H + log A)``."""
    return (h + mat_log(a)) - mat_log(x)


def _logarithmic_mean(w: np.ndarray) -> np.ndarray:
    """Logarithmic means ``(w_i - w_j) / (log w_i - log w_j)``, with ``w_i`` on the diagonal.

    Their reciprocals are the first divided differences of ``log``, so by
    the Daleckii-Krein formula the Frechet derivative of ``log`` at
    ``X = U diag(w) U*`` is ``Dlog(X)[E] = U ((U* E U) / Phi) U*``.  Written
    as ``lo * d / log1p(d)`` with ``d = (hi - lo) / lo``, the mean keeps full
    relative accuracy for near-equal and for widely separated pairs alike.
    """
    lo = np.minimum.outer(w, w)
    hi = np.maximum.outer(w, w)
    d = (hi - lo) / lo
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d > 0.0, d / np.log1p(d), 1.0)
    return lo * ratio


def _objective(k: np.ndarray, x: np.ndarray, w: np.ndarray) -> float:
    # f(X) = tr(XK) - tr(X log X) + tr X, with w the eigenvalues of X; K and
    # X may be written in any one orthonormal basis.
    return float(np.vdot(k, x).real) - float(entropies(w)) + float(np.sum(w))


def _newton_step(k: np.ndarray, w: np.ndarray, u: np.ndarray):
    """``K`` in X's eigenbasis, gradient norm, Newton direction and slope at ``X = U diag(w) U*``.

    Returns ``(K~, ||G||_F, D~, <G, D~>)`` with ``K~ = U* K U``, made
    exactly self-adjoint.  The gradient ``K - log X`` reads
    ``G = K~ - diag(log w)`` in X's eigenbasis.  The Hessian is
    ``-Dlog(X)``, so the Newton direction ``D = U D~ U*`` with
    ``D~ = G o Phi`` solves ``Dlog(X)[D] = G`` (see
    :func:`_logarithmic_mean`).  The slope is positive whenever ``G`` is
    nonzero.
    """
    kt = u.conj().T @ k @ u
    kt = (kt + kt.conj().T) / 2.0
    g = kt - np.diag(np.log(w))
    dt = g * _logarithmic_mean(w)
    return kt, float(np.linalg.norm(g)), dt, float(np.vdot(g, dt).real)


def _ascend(k: np.ndarray, init: PdMatrix, grad_tol: float):
    """Damped Newton ascent for ``f(X) = tr(XK) - tr(X log X) + tr X``, in X's eigenbasis.

    Starts from ``init`` and its carried spectrum and carries the iterate
    as ``(w, U)``, ``X = U diag(w) U*``.  Each iteration takes the
    direction ``D~`` of :func:`_newton_step` and tries
    ``M = diag(w) + t D~``, the point ``X + tD`` written in X's eigenbasis,
    with ``t = 1, 1/2, 1/4, ...`` (``_BACKTRACK_FACTOR``) until the trial
    point's smallest eigenvalue exceeds ``_EIG_FLOOR`` and the Armijo
    condition ``f(X + tD) >= f(X) + c t <G, D>`` with ``c = _ARMIJO_C``
    holds.  A trial point below the floor is rejected, never clipped.  The
    decomposition ``M = V diag(w') V*`` of an accepted point gives the
    next iterate ``(w', U V)``.  The ascent stops when
    ``||G||_F <= grad_tol``, after ``_MAX_ITERS`` iterations, or when no
    trial step ``t >= _MIN_STEP`` is accepted.  Returns the last iterate's
    ``(w, U)``, the iteration count, the final gradient norm and the
    objective at the start and after every accepted step.
    """
    w, u = init.spectrum.eigenvalues, init.spectrum.vectors
    kt, grad_norm, dt, slope = _newton_step(k, w, u)
    f = _objective(kt, np.diag(w), w)
    history = [f]

    iters = 0
    while grad_norm > grad_tol and iters < _MAX_ITERS:
        t = 1.0
        while t >= _MIN_STEP:
            m = np.diag(w) + t * dt
            wc, v = np.linalg.eigh(m)
            if wc[0] > _EIG_FLOOR:
                fc = _objective(kt, m, wc)
                if fc >= f + _ARMIJO_C * t * slope - _ACCEPT_SLACK:
                    break
            t *= _BACKTRACK_FACTOR
        else:
            break

        w, u, f = wc, u @ v, fc
        kt, grad_norm, dt, slope = _newton_step(k, w, u)
        history.append(f)
        iters += 1

    return w, u, iters, grad_norm, tuple(history)


def _maximizer(w: np.ndarray, u: np.ndarray) -> PdMatrix:
    """``X = U diag(w) U*`` for the last iterate ``(w, U)`` of an ascent, decomposed afresh.

    The product of the steps' eigenvector matrices drifts from unitary by
    rounding, so X carries its own decomposition; only when forming X has
    taken an eigenvalue near ``_EIG_FLOOR`` to ``PD_FLOOR`` or under (its
    error is about ``eps ||X||``) does it carry ``(w, U)`` instead.
    """
    x = _rebuild(u, w)
    try:
        return validate_pd(x)
    except DomainError:
        return PdMatrix(x, w, u)


def maximize_variational(y: PdMatrix, init: PdMatrix | None = None) -> OptimizeResult:
    """Maximize ``tr(X log Y - X log X + X)`` over the PD cone.

    This is :func:`maximize_lieb` with ``H = 0`` and ``A = Y``, whose
    objective equals this one.  On convergence the value approximates
    ``tr Y`` and the maximizer approximates ``Y``.  Non-convergence is
    reported through ``converged=False``, never raised.
    """
    return maximize_lieb(HermitianMatrix.zeros(y.dim), y, init)


def maximize_lieb(
    h: HermitianMatrix, a: PdMatrix, init: PdMatrix | None = None
) -> OptimizeResult:
    """Maximize ``tr(XH) - (D(X;A) - tr A)`` over the PD cone.

    The ascent starts from ``init`` and its spectrum, or from the identity
    and its exact spectrum ``(1, I)`` when it is None, and has converged
    once the gradient norm is at most ``1e-8 (1 + ||H||_F + ||A||_F)``.  On
    convergence the value approximates ``tr exp(H + log A)`` and the
    maximizer approximates ``exp(H + log A)``.  A run that takes no step
    returns its start as the maximizer.
    """
    k = h + mat_log(a)
    if init is None:
        eye = np.eye(a.dim, dtype=np.complex128)
        init = PdMatrix(HermitianMatrix._exact(eye), np.ones(a.dim), eye)
    _check_dims(init, a)
    grad_tol = 1e-8 * (1.0 + (h.frobenius_norm() + a.frobenius_norm()))
    w, u, iters, grad_norm, history = _ascend(k.entries, init, grad_tol)
    maximizer = init if iters == 0 else _maximizer(w, u)
    return OptimizeResult(
        maximizer=maximizer,
        value=lieb_objective(maximizer, h, a),
        iters=iters,
        grad_norm_final=grad_norm,
        converged=grad_norm <= grad_tol,
        objective_history=history,
    )

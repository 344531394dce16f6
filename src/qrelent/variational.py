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
``f`` at an iterate therefore also gives the Newton direction there.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .divergence import entropy, relative_entropy
from .errors import DimMismatchError
from .hermitian import (
    EXP_OVERFLOW_LIMIT,
    HermitianMatrix,
    PdMatrix,
    eigvals,
    mat_log,
    trace_product,
)

# Smallest trial step, whatever the backtrack factor.  A Newton step cut
# further has stalled against the eigenvalue floor: the maximizer lies below
# it, and further cuts would only creep towards it until max_iters.
_MIN_STEP = 1e-12
# Acceptance slack absorbing objective rounding noise near the optimum,
# where the predicted increase drops below double precision; accepted
# steps therefore stay monotone up to this amount.
_ACCEPT_SLACK = 1e-12


@dataclasses.dataclass(frozen=True)
class OptimizeConfig:
    """Tuning knobs for the damped Newton ascent."""

    grad_tol: float
    max_iters: int = 5000
    backtrack_factor: float = 0.5
    armijo_c: float = 1e-4
    eig_floor: float = 1e-10

    def __post_init__(self):
        if not self.grad_tol > 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not self.eig_floor > 0.0:
            raise ValueError(f"eig_floor must be positive, got {self.eig_floor}")

    @classmethod
    def for_scale(cls, scale: float) -> "OptimizeConfig":
        """Scale-aware default: gradient tolerance ``1e-8 (1 + scale)``."""
        return cls(grad_tol=1e-8 * (1.0 + float(scale)))


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
    if h.dim != a.dim:
        raise DimMismatchError(f"dimension mismatch: {h.dim} vs {a.dim}")
    w = eigvals(h + mat_log(a))
    top = float(w[-1])
    if top > EXP_OVERFLOW_LIMIT:
        raise OverflowError(
            f"eigenvalue {top:.6g} exceeds the exp-overflow guard {EXP_OVERFLOW_LIMIT}"
        )
    return float(np.sum(np.exp(w)))


def variational_objective(x: PdMatrix, y: PdMatrix) -> float:
    """``tr(X log Y - X log X + X)``, maximized over X at ``X = Y`` with value ``tr Y``."""
    return trace_product(x, mat_log(y)) - entropy(x) + x.trace()


def variational_gradient(x: PdMatrix, y: PdMatrix) -> HermitianMatrix:
    """Euclidean gradient ``log Y - log X`` of the trace variational objective."""
    if x.dim != y.dim:
        raise DimMismatchError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return mat_log(y) - mat_log(x)


def lieb_objective(x: PdMatrix, h: HermitianMatrix, a: PdMatrix) -> float:
    """``tr(XH) - (D(X;A) - tr A)``, computed through the divergence breakdown.

    Expanding instead to ``tr(X(H + log A) - X log X + X)`` gives the same
    value; agreement of the two routes is covered by tests, not assumed.
    """
    if x.dim != h.dim or x.dim != a.dim:
        raise DimMismatchError(
            f"dimension mismatch: X dim {x.dim}, H dim {h.dim}, A dim {a.dim}"
        )
    return trace_product(x, h) - relative_entropy(x, a).value + a.trace()


def lieb_gradient(x: PdMatrix, h: HermitianMatrix, a: PdMatrix) -> HermitianMatrix:
    """Euclidean gradient ``H + log A - log X``; vanishes at ``X = exp(H + log A)``."""
    if x.dim != h.dim or x.dim != a.dim:
        raise DimMismatchError(
            f"dimension mismatch: X dim {x.dim}, H dim {h.dim}, A dim {a.dim}"
        )
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
    # f(X) = tr(XK) - tr(X log X) + tr X, with w the eigenvalues of X.
    return float(np.vdot(k, x).real) - float(np.sum(w * np.log(w))) + float(np.sum(w))


def _newton_step(k: np.ndarray, w: np.ndarray, u: np.ndarray):
    """Gradient norm, Newton direction and slope at ``X = U diag(w) U*``.

    The gradient is ``G = K - log X``; in X's eigenbasis it reads
    ``U* G U = U* K U - diag(log w)``.  The Hessian is ``-Dlog(X)``, so the
    Newton direction ``D = U ((U* G U) o Phi) U*`` solves ``Dlog(X)[D] = G``
    (see :func:`_logarithmic_mean`).  The slope ``<G, D>`` is positive
    whenever ``G`` is nonzero.
    """
    g = u.conj().T @ k @ u
    g[np.diag_indices_from(g)] -= np.log(w)
    dt = g * _logarithmic_mean(w)
    d = u @ dt @ u.conj().T
    return float(np.linalg.norm(g)), (d + d.conj().T) / 2.0, float(np.vdot(g, dt).real)


def _ascend(k: np.ndarray, init: PdMatrix, cfg: OptimizeConfig):
    """Damped Newton ascent for ``f(X) = tr(XK) - tr(X log X) + tr X``.

    Starts from ``init`` and its carried spectrum.  Each iteration takes
    the Newton direction ``D`` of :func:`_newton_step` and tries
    ``X + tD`` with ``t = 1, 1/2, 1/4, ...`` (``backtrack_factor``) until the
    trial point's smallest eigenvalue exceeds ``eig_floor`` and the Armijo
    condition ``f(X + tD) >= f(X) + armijo_c t <G, D>`` holds.  A trial
    point below the floor is rejected, never clipped.  The ascent stops
    when ``||G||_F <= grad_tol``, after ``max_iters`` iterations, or when
    no trial step ``t >= 1e-12`` is accepted.
    """
    x = init.entries
    w, u = init.spectrum.eigenvalues, init.spectrum.vectors
    f = _objective(k, x, w)
    grad_norm, d, slope = _newton_step(k, w, u)
    history = [f]

    iters = 0
    while grad_norm > cfg.grad_tol and iters < cfg.max_iters:
        t = 1.0
        while t >= _MIN_STEP:
            xc = x + t * d
            wc, uc = np.linalg.eigh(xc)
            if wc[0] > cfg.eig_floor:
                fc = _objective(k, xc, wc)
                if fc >= f + cfg.armijo_c * t * slope - _ACCEPT_SLACK:
                    break
            t *= cfg.backtrack_factor
        else:
            break

        x, w, u, f = xc, wc, uc, fc
        grad_norm, d, slope = _newton_step(k, w, u)
        history.append(f)
        iters += 1

    converged = grad_norm <= cfg.grad_tol
    return x, w, u, iters, grad_norm, converged, tuple(history)


def maximize_variational(
    y: PdMatrix, init: PdMatrix | None = None, cfg: OptimizeConfig | None = None
) -> OptimizeResult:
    """Maximize ``tr(X log Y - X log X + X)`` over the PD cone.

    This is :func:`maximize_lieb` with ``H = 0`` and ``A = Y``, whose
    objective equals this one.  On convergence the value approximates
    ``tr Y`` and the maximizer approximates ``Y``.  Non-convergence is
    reported through ``converged=False``, never raised.
    """
    return maximize_lieb(HermitianMatrix.zeros(y.dim), y, init, cfg)


def maximize_lieb(
    h: HermitianMatrix,
    a: PdMatrix,
    init: PdMatrix | None = None,
    cfg: OptimizeConfig | None = None,
) -> OptimizeResult:
    """Maximize ``tr(XH) - (D(X;A) - tr A)`` over the PD cone.

    On convergence the value approximates ``tr exp(H + log A)`` and the
    maximizer approximates ``exp(H + log A)``.
    """
    if h.dim != a.dim:
        raise DimMismatchError(f"dimension mismatch: H dim {h.dim} vs A dim {a.dim}")
    if init is None:
        init = PdMatrix.identity(a.dim)
    if init.dim != a.dim:
        raise DimMismatchError(f"dimension mismatch: init {init.dim} vs A {a.dim}")
    if cfg is None:
        cfg = OptimizeConfig.for_scale(h.frobenius_norm() + a.frobenius_norm())
    k = h + mat_log(a)
    x, w, u, iters, grad_norm, converged, history = _ascend(k.entries, init, cfg)
    maximizer = PdMatrix(HermitianMatrix._symmetrized(x), w, u)
    return OptimizeResult(
        maximizer=maximizer,
        value=lieb_objective(maximizer, h, a),
        iters=iters,
        grad_norm_final=grad_norm,
        converged=converged,
        objective_history=history,
    )

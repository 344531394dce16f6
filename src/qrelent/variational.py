"""Variational trace representations and their maximizers on the PD cone.

Both maximizations in this module are instances of one problem: ascend

    f(X) = tr(X K) - tr(X log X) + tr X

over positive-definite ``X``, whose unique stationary point is
``X* = exp(K)`` with value ``tr exp(K)``.  For the trace variational
formula ``K = log Y``; for the trace-exponential representation
``K = H + log A``.  The closed form is never used inside the optimizer --
it is reserved as the independent oracle for tests.
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
    SpectralDecomposition,
    eig,
    mat_log,
    trace_product,
)

_MAX_BACKTRACKS = 80
_STEP_CLAMP = (1e-12, 1e8)
# Acceptance slack absorbing objective rounding noise near the optimum,
# where the predicted increase drops below double precision; accepted
# steps therefore stay monotone up to this amount.
_ACCEPT_SLACK = 1e-12


@dataclasses.dataclass(frozen=True)
class OptimizeConfig:
    """Tuning knobs for the projected gradient ascent."""

    grad_tol: float
    max_iters: int = 5000
    step_init: float = 1.0
    backtrack_factor: float = 0.5
    armijo_c: float = 1e-4
    eig_floor: float = 1e-10

    def __post_init__(self):
        if not self.grad_tol > 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not self.step_init > 0.0:
            raise ValueError(f"step_init must be positive, got {self.step_init}")
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
    """Evaluate ``tr exp(H + log A)`` through the spectral decomposition."""
    if h.dim != a.dim:
        raise DimMismatchError(f"dimension mismatch: {h.dim} vs {a.dim}")
    w = eig(h + mat_log(a)).eigenvalues
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


def _eval_point(k: np.ndarray, m: np.ndarray, floor: float):
    """Clip ``m`` to the eigenvalue floor and evaluate the ascent objective.

    Returns ``(x, w, u, f)`` where ``x`` is the clipped point, ``(w, u)``
    its spectrum (clipped eigenvalues), and ``f`` the objective value.
    """
    w, u = np.linalg.eigh(m)
    if w[0] < floor:
        w = np.maximum(w, floor)
        x = (u * w) @ u.conj().T
        x = (x + x.conj().T) / 2.0
    else:
        x = m
    f = float(np.vdot(k, x).real) - float(np.sum(w * np.log(w))) + float(np.sum(w))
    return x, w, u, f


def _gradient(k: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    g = k - (u * np.log(w)) @ u.conj().T
    return (g + g.conj().T) / 2.0


def _ascend(k: np.ndarray, init: PdMatrix, cfg: OptimizeConfig):
    """Projected gradient ascent for ``f(X) = tr(XK) - tr(X log X) + tr X``.

    Steps are ``X <- clip(X + eta G)`` with the eigenvalue floor as the
    projection.  The first trial step of each iteration is a clamped
    Barzilai-Borwein secant estimate (``step_init`` seeds the very first
    iteration); Armijo backtracking then enforces monotone ascent, so
    accepted steps always satisfy the sufficient-increase condition.
    """
    x, w, u, f = _eval_point(k, np.asarray(init.entries), cfg.eig_floor)
    g = _gradient(k, w, u)
    grad_norm = float(np.linalg.norm(g))
    history = [f]

    iters = 0
    trial_seed = cfg.step_init
    bb_step = None
    while grad_norm > cfg.grad_tol and iters < cfg.max_iters:
        trial = bb_step if bb_step is not None else trial_seed
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            xc, wc, uc, fc = _eval_point(k, x + trial * g, cfg.eig_floor)
            predicted = float(np.vdot(g, xc - x).real)
            if predicted > 0.0 and fc >= f + cfg.armijo_c * predicted - _ACCEPT_SLACK:
                accepted = True
                break
            trial *= cfg.backtrack_factor
            if trial < _STEP_CLAMP[0]:
                break
        if not accepted:
            break

        g_new = _gradient(k, wc, uc)
        s = xc - x
        y = g_new - g
        denom = -float(np.vdot(s, y).real)
        if denom > 0.0 and np.isfinite(denom):
            bb = float(np.vdot(s, s).real) / denom
            bb_step = min(max(bb, _STEP_CLAMP[0]), _STEP_CLAMP[1])
        else:
            bb_step = None
            trial_seed = min(trial / cfg.backtrack_factor, _STEP_CLAMP[1])

        x, w, u, f = xc, wc, uc, fc
        g = g_new
        grad_norm = float(np.linalg.norm(g))
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
    maximizer = PdMatrix(HermitianMatrix(x), SpectralDecomposition(w, u))
    return OptimizeResult(
        maximizer=maximizer,
        value=lieb_objective(maximizer, h, a),
        iters=iters,
        grad_norm_final=grad_norm,
        converged=converged,
        objective_history=history,
    )

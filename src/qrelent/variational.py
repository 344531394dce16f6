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

from .divergence import entropies, entropy, relative_entropies, relative_entropy
from .errors import NotHermitianError
from .hermitian import (
    PD_FLOOR,
    HermitianMatrix,
    PdMatrix,
    _check_dims,
    _eigh,
    _reconstruct,
    exp_eigenvalues,
    mat_log,
    trace_product,
    trace_products,
    traces,
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
    """Maximizer with value and convergence diagnostics, of one run or of a stack of runs.

    ``objective_history`` lists the objective at the initial point and
    after every accepted ascent step.  A stack of runs holds the
    maximizers as one PdMatrix stack, arrays, and a list of histories,
    one row per run.
    """

    maximizer: PdMatrix
    value: float | np.ndarray
    iters: int | np.ndarray
    grad_norm_final: float | np.ndarray
    converged: bool | np.ndarray
    objective_history: tuple | list


def trace_exp_log(h: HermitianMatrix, a: PdMatrix) -> float:
    """Evaluate ``tr exp(H + log A)`` as ``sum exp(lambda)`` over the eigenvalues of ``H + log A``.

    Only the eigenvalues are computed; ``log A`` is built from ``A``'s
    carried spectrum.
    """
    _check_dims(h, a)
    return float(trace_exp_logs(h.entries, a.log))


def trace_exp_logs(h: np.ndarray, log_a: np.ndarray) -> np.ndarray:
    """``tr exp(H + log A)`` from the entries of ``H`` and ``log A``, over their leading axes.

    Either argument may be one matrix or a stack; they broadcast.  One
    ``eigvalsh`` call computes the eigenvalues of every ``H + log A``:
    :func:`trace_exps` of the eigenvalues of :func:`exp_log_arguments`.
    """
    return trace_exps(_eigh(exp_log_arguments(h, log_a), vectors=False)[0])


def exp_log_arguments(h: np.ndarray, log_a: np.ndarray) -> np.ndarray:
    """The entries of every ``H + log A``, ``H`` and ``log A`` broadcast.

    Raises NotHermitianError when one has a non-finite entry.
    """
    k = h + log_a
    if not np.isfinite(k).all():
        raise NotHermitianError("matrix has non-finite entries")
    return k


def trace_exps(w: np.ndarray) -> np.ndarray:
    """``tr exp(K)`` from the ascending eigenvalues ``w`` of ``K``, along the last axis.

    Raises OverflowError when an eigenvalue exceeds ``EXP_OVERFLOW_LIMIT``.
    """
    return exp_eigenvalues(w).sum(axis=-1)


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
    ``w`` is one spectrum or a stack of them along its last axis.
    """
    lo = np.minimum(w[..., :, None], w[..., None, :])
    d = np.maximum(w[..., :, None], w[..., None, :])
    d -= lo
    d /= lo
    lo *= np.divide(d, np.log1p(d), out=np.ones_like(d), where=d > 0.0)
    return lo


def _diag(w: np.ndarray) -> np.ndarray:
    # np.diag of every row of w, shape (S, n) -> (S, n, n).
    n = w.shape[-1]
    d = np.zeros(w.shape + (n,))
    d.reshape(len(w), n * n)[:, :: n + 1] = w
    return d


def _objectives(k: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    # f(X) = tr(XK) - tr(X log X) + tr X per row, w the eigenvalues of X; K
    # and X in any one orthonormal basis.  A vdot per row sums as the row alone.
    return np.array([np.vdot(a, b).real for a, b in zip(k, x)]) - entropies(w) + w.sum(axis=-1)


def _newton_step(k: np.ndarray, w: np.ndarray, u: np.ndarray):
    """``K`` in X's eigenbasis, gradient norm, Newton direction and slope at each ``U diag(w) U*``.

    Takes stacks ``k``, ``u`` (S, n, n) and ``w`` (S, n), and returns
    ``(K~, ||G||_F, D~, <G, D~>)``, the norms and slopes of shape (S,),
    with ``K~ = U* K U`` made exactly self-adjoint.  The gradient ``K -
    log X`` reads ``G = K~ - diag(log w)`` in X's eigenbasis.  The Hessian
    is ``-Dlog(X)``, so the Newton direction ``D = U D~ U*`` with ``D~ = G
    o Phi`` solves ``Dlog(X)[D] = G`` (see :func:`_logarithmic_mean`).  The
    slope is positive whenever ``G`` is nonzero.
    """
    kt = u.conj().swapaxes(-1, -2) @ k @ u
    kt = kt + kt.conj().swapaxes(-1, -2)
    kt /= 2.0
    g = kt - _diag(np.log(w))
    dt = g * _logarithmic_mean(w)
    # np.linalg.norm of each G, its own sum without its per-call checks.
    norms = np.sqrt([r.real.dot(r.real) + r.imag.dot(r.imag) for r in g.reshape(len(g), -1)])
    return kt, norms, dt, np.array([np.vdot(a, b).real for a, b in zip(g, dt)])


def _line_search(kt, w, dt, f, slope):
    """Per row, whether a trial point of :func:`_ascend` was accepted, with its ``(w', V, f')``.

    The rows still searching share ``t``, and their trial points are
    decomposed with one stacked ``eigh``: the whole stack at ``t = 1``, the
    rows that backtrack after that.
    """
    d, s, t = _diag(w), None, 1.0
    while t >= _MIN_STEP:
        at = (lambda x: x) if s is None else (lambda x: x[s])
        m = t * at(dt)
        m += at(d)
        wt, vt = _eigh(m)
        ok = wt[:, 0] > _EIG_FLOOR
        # np.maximum changes no eigenvalue of an ok row and keeps log off the others'.
        ft = _objectives(at(kt), m, np.maximum(wt, _EIG_FLOOR))
        hit = ok & (ft >= at(f) + _ARMIJO_C * t * at(slope) - _ACCEPT_SLACK)
        if s is None:
            if hit.all():
                return hit, wt, vt, ft
            # The first trial's arrays take the later accepted points.
            found, wc, v, fc, s = hit, wt, vt, ft, np.flatnonzero(~hit)
        else:
            j = s[hit]
            found[j], wc[j], v[j], fc[j] = True, wt[hit], vt[hit], ft[hit]
            s = s[~hit]
            if not len(s):
                break
        t *= _BACKTRACK_FACTOR
    return found, wc, v, fc


def _ascend(k: np.ndarray, w: np.ndarray, u: np.ndarray, grad_tol: np.ndarray):
    """Damped Newton ascent for ``f(X) = tr(XK) - tr(X log X) + tr X``, on a stack, in lockstep.

    Row ``r`` ascends from ``X = U diag(w) U*``, ``(w, U) = (w[r], u[r])``,
    for ``K = k[r]``, in X's eigenbasis.  Each iteration tries ``M =
    diag(w) + t D~`` (``X + tD`` in X's eigenbasis, ``D~`` from
    :func:`_newton_step`) with ``t = 1, 1/2, ...`` (``_BACKTRACK_FACTOR``)
    until M's smallest eigenvalue exceeds ``_EIG_FLOOR`` (M is rejected
    below it, never clipped) and ``f(X + tD) >= f(X) + c t <G, D>``
    (Armijo, ``c = _ARMIJO_C``) holds; ``M = V diag(w') V*`` gives the next
    iterate ``(w', U V)``.  Each row stops on its own: when ``||G||_F <=
    grad_tol[r]``, after ``_MAX_ITERS`` iterations, or when no step ``t >=
    _MIN_STEP`` is accepted.  Scalar reductions run row by row, so each
    row's iterates are those of its problem alone, bit for bit.  Returns
    per row the last ``(w, U)``, the iteration count, the final gradient
    norm and the objective at the start and after every accepted step.
    """
    kt, grad_norm, dt, slope = _newton_step(k, w, u)
    f = _objectives(kt, _diag(w), w)
    history = [[x] for x in f.tolist()]
    w_end, u_end, norm_end = np.empty_like(w), np.empty_like(u), np.empty_like(grad_norm)
    iters = np.zeros(len(k), dtype=int)
    rows = np.arange(len(k))
    it = 0

    def leave(out: np.ndarray) -> None:
        # The rows of mask ``out`` stop at their current iterate.
        r = rows[out]
        w_end[r], u_end[r], norm_end[r], iters[r] = w[out], u[out], grad_norm[out], it

    while True:
        go = grad_norm > grad_tol
        if it == _MAX_ITERS or not go.all():
            go &= it < _MAX_ITERS
            leave(~go)
            if not go.any():
                break
            rows, k, w, u, kt, dt, slope, f, grad_norm, grad_tol = (
                x[go] for x in (rows, k, w, u, kt, dt, slope, f, grad_norm, grad_tol))
        found, wc, v, fc = _line_search(kt, w, dt, f, slope)
        if not found.all():
            leave(~found)
            if not found.any():
                break
            rows, k, w, u, grad_norm, grad_tol, wc, v, fc = (
                x[found] for x in (rows, k, w, u, grad_norm, grad_tol, wc, v, fc))
        it += 1
        w, u, f = wc, u @ v, fc
        del v  # not held through the next line search
        kt, grad_norm, dt, slope = _newton_step(k, w, u)
        for r, x in zip(rows.tolist(), f.tolist()):
            history[r].append(x)
    return w_end, u_end, iters, norm_end, [tuple(h) for h in history]


def maximize_variational(y: PdMatrix, init: PdMatrix | None = None) -> OptimizeResult:
    """Maximize ``tr(X log Y - X log X + X)`` over the PD cone.

    This is :func:`maximize_lieb` with ``H = 0`` and ``A = Y``, whose
    objective equals this one.  On convergence the value approximates
    ``tr Y`` and the maximizer approximates ``Y``.  Non-convergence is
    reported through ``converged=False``, never raised.
    """
    return maximize_lieb(HermitianMatrix.zeros(y.dim), y, init)


def maximize_lieb(h: HermitianMatrix, a: PdMatrix, init: PdMatrix | None = None) -> OptimizeResult:
    """Row 0 of :func:`maximize_liebs` of one ``A``, which reads ``A``'s cached ``log``."""
    _check_dims(h, a)
    runs = maximize_liebs(h.entries, a, init)
    return OptimizeResult(runs.maximizer[0], float(runs.value[0]), int(runs.iters[0]),
                          float(runs.grad_norm_final[0]), bool(runs.converged[0]),
                          runs.objective_history[0])


def maximize_liebs(h: np.ndarray, a: PdMatrix, init: PdMatrix | None = None) -> OptimizeResult:
    """Maximize ``tr(XH) - (D(X;A) - tr A)`` over the PD cone, for each ``A`` of a stack at once.

    ``h`` holds self-adjoint entries that broadcast against ``a``; ``init``
    has the shape of ``a``, or is None for the identity and its exact
    spectrum ``(1, I)``.  A run has converged once its gradient norm is at
    most ``1e-8 (1 + ||H||_F + ||A||_F)``, with a value near ``tr exp(H +
    log A)`` and a maximizer near ``exp(H + log A)``; one that takes no
    step returns its start.  The result stacks the runs in row-major
    order, one row of shape (n, n) each (one ``A`` gives a stack of one),
    and each row equals its run alone.
    """
    k = h + a.log
    n = k.shape[-1]
    if init is not None:
        _check_dims(init, k)
    else:
        eye = np.broadcast_to(np.eye(n, dtype=np.complex128), k.shape)
        init = PdMatrix(eye, np.ones(k.shape[:-1]), eye)

    def rows(m: np.ndarray) -> np.ndarray:
        return (m if m.shape == k.shape else np.broadcast_to(m, k.shape)).reshape(-1, n, n)

    x, w, u = rows(init.entries), init.eigenvalues.reshape(-1, n), rows(init.vectors)
    k, h, a_entries, log_a = rows(k), rows(h), rows(a.entries), rows(a.log)
    grad_tol = 1e-8 * (1.0 + np.array([np.linalg.norm(p) + np.linalg.norm(q)
                                       for p, q in zip(h, a_entries)]))
    w, u, iters, grad_norm, history = _ascend(k, w, u, grad_tol)

    # A row that did not move keeps its start, (w, U) included.  U drifts
    # from unitary by rounding, so each X = U diag(w) U* that moved carries
    # its own decomposition, one stack for all; only when forming X took an
    # eigenvalue near _EIG_FLOOR to PD_FLOOR or under (its error is about
    # eps ||X||) does it carry (w, U) instead.
    moved = np.flatnonzero(iters)
    x = x.copy()
    x[moved] = _reconstruct(u[moved], w[moved])
    xw, xu = _eigh(x[moved])
    ok = xw[:, 0] > PD_FLOOR
    w[moved[ok]], u[moved[ok]] = xw[ok], xu[ok]
    # lieb_objective of every row.
    values = trace_products(x, h) - relative_entropies(w, x, a_entries, log_a)[0] + traces(a_entries)
    return OptimizeResult(PdMatrix(x, w, u), values, iters, grad_norm, grad_norm <= grad_tol, history)

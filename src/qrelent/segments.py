"""The Jensen segment test, on stacks of segments.

A segment runs from ``p2`` to ``p1`` through the mixtures ``t p1 +
(1-t) p2``; :func:`segment_test` compares a function at each mixture
with the mixture of its endpoint values, for many segments at once: one
stacked call per kernel evaluates every endpoint, and another every
mixture.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence, Union

import numpy as np

from .errors import SegmentEvaluationError
from .hermitian import HermitianMatrix, PdMatrix, PdStack, mixtures, pd_mixtures, pd_stack

_ORIENTATIONS = {"convex": 1.0, "concave": -1.0}

Stack = Union[PdStack, np.ndarray]


@dataclasses.dataclass(frozen=True)
class SegmentTrial:
    """One Jensen comparison at mixture parameter ``t``.

    ``violation = (lhs - rhs) * orientation / scale`` with orientation +1
    for convexity claims and -1 for concavity claims, so positive means the
    claimed inequality failed.  ``witness`` is set when the trial violates
    the tolerance: ``{"t": t}``, plus the segment's whole instance (in the
    matrix file format) on the segment's first violating trial.
    """

    t: float
    lhs: float
    rhs: float
    violation: float
    scale: float
    valid: bool = True
    witness: dict | None = None


def _as_stack(m) -> Stack:
    # One component as a stack of segments: a matrix is a stack of one.
    if isinstance(m, PdMatrix):
        return pd_stack((m,))
    return m.entries[None] if isinstance(m, HermitianMatrix) else m


def _as_point(p) -> tuple:
    if isinstance(p, (HermitianMatrix, PdMatrix, PdStack, np.ndarray)):
        p = (p,)
    return tuple(_as_stack(m) for m in p)


def _entries(c: Stack) -> np.ndarray:
    return c.entries if isinstance(c, PdStack) else c


def _rows(a: Stack, b: Stack, ts: np.ndarray | None = None) -> Callable[..., Stack]:
    """One component of the segments' points, as a function of an index over (segment, point).

    The points of segment ``s`` are its endpoints ``(a[s], b[s])`` when
    ``ts`` is None, else the mixtures ``t a[s] + (1-t) b[s]`` for ``t`` in
    ``ts[s]``.  Positive-definite components give PdStacks (mixtures
    validated when taken), self-adjoint ones arrays of entries.
    """
    if isinstance(a, PdStack) and isinstance(b, PdStack):
        return pd_stack((a, b), axis=1).__getitem__ if ts is None else pd_mixtures(a, b, ts)
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return (np.stack((a, b), axis=1) if ts is None else mixtures(a, b, ts)).__getitem__
    raise TypeError(f"cannot mix {type(a).__name__} with {type(b).__name__}")


def _values(v) -> list:
    # f's values, one per point in row-major order, as floats or None.
    return [None if x is None else float(x) for x in np.asarray(v, dtype=object).ravel()]


def _evaluate(f: Callable[..., Sequence], fixed: Stack | None, rows: list,
              ts: np.ndarray) -> list[list[float | None]]:
    """``f`` at the points ``ts`` (segment by point), in one call; one list of values per segment.

    ``fixed``, the segments' fixed matrices, goes first.  Should that call
    raise, the points are evaluated again one at a time, each as a stack
    of one, in order, so that the first point that fails (its validation
    as a mixture included) is raised as SegmentEvaluationError with its
    ``t``.
    """
    def call(i, fx):
        return f(*(() if fx is None else (fx,)), *(r(i) for r in rows))

    try:
        values = _values(call(slice(None), fixed))
    except Exception:  # noqa: BLE001 - located below, point by point
        values = []
        for s, k in np.ndindex(*ts.shape):
            try:
                values += _values(call(np.s_[s:s + 1, k:k + 1],
                                       None if fixed is None else fixed[s:s + 1]))
            except Exception as exc:  # noqa: BLE001 - re-raised with context
                raise SegmentEvaluationError(float(ts[s, k]), str(exc)) from exc
    width = ts.shape[1]
    return [values[k:k + width] for k in range(0, len(values), width)]


def pointwise(g: Callable[..., float | None]) -> Callable[..., list]:
    """Lift ``g``, a function of matrices, to the stacked points of :func:`segment_test`.

    The lifted function calls ``g`` once per point, segment by segment and
    in order; a point's positive-definite components are PdMatrix values
    carrying their rows' spectra, and a segment's fixed matrix comes first.
    """

    def f(*stacks: Stack) -> list:
        shapes = [_entries(s).shape[:2] for s in stacks]
        segments, points = shapes[-1]
        return [
            g(*(s.point((i, k if p > 1 else 0)) if isinstance(s, PdStack)
                else HermitianMatrix._exact(s[i, k if p > 1 else 0])
                for s, (_, p) in zip(stacks, shapes)))
            for i in range(segments) for k in range(points)
        ]

    return f


def segment_test(
    f: Callable[..., Sequence],
    p1,
    p2,
    t_samples,
    orientation: str,
    fixed=None,
    ends: Sequence | None = None,
) -> list[SegmentTrial]:
    """Evaluate a Jensen inequality along a stack of segments, each from ``p2`` to ``p1``.

    Each component of the points ``p1`` and ``p2`` is a stack of S
    segments' endpoints (a PdStack or an array of self-adjoint entries) or
    one matrix, a stack of one.  ``t_samples`` has shape (S, T), or is one
    sequence for all.  For each ``t`` the mixture is ``t p1 + (1-t) p2``
    (componentwise), the left side is ``f`` at the mixture, and the right
    side the scalar mixture of the endpoint values.  Violations are
    normalized by ``1 + |f(p1)| + |f(p2)|``.  Returns the records segment
    by segment.

    ``f`` evaluates stacked points: it takes one stack per component, a
    PdStack or an array of entries with leading axes (segment, point), and
    returns one value per point.  ``fixed``, one matrix per segment held
    fixed along it, goes to ``f`` first with a point axis of one.  ``f``
    is called twice, on the endpoints (unless ``ends`` gives their values)
    and then on every mixture; :func:`pointwise` lifts a function of
    single matrices.  The mixtures of a positive-definite component are
    decomposed together, one stacked ``eigh`` for all segments and ``t``,
    and validated positive definite before ``f`` sees them.  Any exception
    from building the mixtures or from ``f`` is raised as
    SegmentEvaluationError carrying the ``t`` of the first point that
    fails in that call (1.0 and 0.0 for the endpoints).

    ``f`` returns None for a point it could not evaluate (an optimizer run
    that did not converge).  The comparison at that ``t`` is then recorded
    as invalid; when an endpoint is None, every comparison of its segment
    is, and no mixture of that segment is evaluated.
    """
    orient = _ORIENTATIONS[orientation]
    p1, p2 = _as_point(p1), _as_point(p2)
    ts = np.asarray(t_samples, dtype=np.float64)
    ts = np.broadcast_to(ts, (len(p1[0]), ts.shape[-1]))
    if fixed is not None:
        fixed = _as_stack(fixed)[:, None]
    if ends is None:
        ends = _evaluate(f, fixed, [_rows(a, b) for a, b in zip(p1, p2)],
                         np.tile((1.0, 0.0), (len(ts), 1)))
    valid = [e[0] is not None and e[1] is not None for e in ends]

    def kept(c):
        # The segments with both endpoint values; all of them as they are,
        # so that fixed keeps what it caches.
        return c if all(valid) or c is None else c[np.flatnonzero(valid)]

    lhs_values = iter(())
    if any(valid) and ts.shape[1]:
        rows = [_rows(kept(a), kept(b), kept(ts)) for a, b in zip(p1, p2)]
        lhs_values = iter(_evaluate(f, kept(fixed), rows, kept(ts)))
    trials = []
    for (f1, f2), ok, row in zip(ends, valid, ts.tolist()):
        if not ok:
            trials += [SegmentTrial(t, 0.0, 0.0, 0.0, 1.0, valid=False) for t in row]
            continue
        scale = 1.0 + abs(f1) + abs(f2)
        for t, lhs in zip(row, next(lhs_values, ())):
            if lhs is None:
                trials.append(SegmentTrial(t, 0.0, 0.0, 0.0, scale, valid=False))
                continue
            rhs = t * f1 + (1.0 - t) * f2
            violation = (lhs - rhs) * orient / scale
            trials.append(SegmentTrial(t, lhs, rhs, violation, scale))
    return trials

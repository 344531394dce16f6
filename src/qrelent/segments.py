"""The Jensen segment test, on stacks of segments.

A segment runs from ``p2`` to ``p1`` through the mixtures ``t p1 +
(1-t) p2``; :func:`segment_test` compares a function at each mixture
with the mixture of its endpoint values, for many segments at once: the
endpoints, then the mixtures, are evaluated as stacks, each call taking
as many points as one ``_BLOCK_BYTES`` block of their entries holds.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence, Union

import numpy as np

from .errors import SegmentEvaluationError
from .hermitian import HermitianMatrix, PdMatrix, _block_rows, mixtures, pd_mixtures, pd_stack

_ORIENTATIONS = {"convex": 1.0, "concave": -1.0}

Stack = Union[PdMatrix, np.ndarray]


@dataclasses.dataclass(frozen=True)
class SegmentTrial:
    """One Jensen comparison at mixture parameter ``t``.

    ``violation = (lhs - rhs) * orientation / scale`` with orientation +1
    for convexity claims and -1 for concavity claims, so positive means the
    claimed inequality failed.  ``witness`` is set when the trial violates
    the tolerance: ``{"t": t}``, plus the segment's whole instance (arrays of
    entries, for the writer) on the segment's first violating trial.
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
    if isinstance(m, HermitianMatrix):
        return m.entries[None]
    return m[None] if isinstance(m, PdMatrix) and m.entries.ndim == 2 else m


def _as_point(p) -> tuple:
    if isinstance(p, (HermitianMatrix, PdMatrix, np.ndarray)):
        p = (p,)
    return tuple(_as_stack(m) for m in p)


def _entries(c: Stack) -> np.ndarray:
    return c.entries if isinstance(c, PdMatrix) else c


def _take(c: Stack, s: slice) -> Stack:
    # Segments s of a stack; all of them as it is, so that it keeps what it caches.
    return c if s == slice(0, len(c)) else c[s]


def _rows(a: Stack, b: Stack, ts: np.ndarray | None = None) -> Callable[[slice, slice], Stack]:
    """One component of the segments' points, a function of a piece ``(s, k)`` of (segment, point).

    The points of segment ``s`` are its endpoints ``(a[s], b[s])`` when
    ``ts`` is None, else the mixtures ``t a[s] + (1-t) b[s]`` for ``t`` in
    ``ts[s]``.  A call builds the points ``k`` of the segments ``s`` only.
    Positive-definite components give PdMatrix stacks (mixtures decomposed
    and validated when built), self-adjoint ones arrays of entries.
    """
    if isinstance(a, PdMatrix) and isinstance(b, PdMatrix):
        if ts is None:
            return lambda s, k: pd_stack((_take(a, s), _take(b, s))[k], axis=1)
        return lambda s, k: pd_mixtures(_take(a, s), _take(b, s), ts[s, k])
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if ts is None:
            return lambda s, k: np.stack((a[s], b[s])[k], axis=1)
        return lambda s, k: mixtures(a[s], b[s], ts[s, k])
    raise TypeError(f"cannot mix {type(a).__name__} with {type(b).__name__}")


def _values(v) -> list:
    # f's values, one per point in row-major order, as floats or None.
    return [None if x is None else float(x) for x in np.asarray(v, dtype=object).ravel()]


def _pieces(segments: int, width: int, points: int) -> list[tuple[slice, slice]]:
    # The (segment, point) index in consecutive pieces of at most ``points``
    # points: runs of whole segments, or of one segment's points when a
    # segment alone has more.
    if width <= points:
        step = points // width
        return [(slice(s, min(s + step, segments)), slice(0, width))
                for s in range(0, segments, step)]
    return [(slice(s, s + 1), slice(k, min(k + points, width)))
            for s in range(segments) for k in range(0, width, points)]


def _evaluate(f: Callable[..., Sequence], fixed: Stack | None, rows: list, ts: np.ndarray,
              dim: int) -> list[list[float | None]]:
    """``f`` at the points ``ts`` (segment by point), a block at a time; a list of values a segment.

    Each call of ``f`` takes a piece of consecutive points (:func:`_pieces`),
    as many as one ``_BLOCK_BYTES`` block of ``dim`` x ``dim`` complex
    entries holds, at least one, so that no temporary of the segments
    exceeds a block.  ``fixed``, the segments' fixed matrices, goes
    first.  Should a call raise, the points of its piece are evaluated
    again one at a time, each as a stack of one, in order, so that the
    first point that fails (its validation as a mixture included) is
    raised as SegmentEvaluationError with its ``t``.  Should none fail
    alone, the piece's own exception is raised as it is: the stacked
    evaluation has a defect that single points do not reach.
    """
    segments, width = ts.shape

    def call(s: slice, k: slice):
        points = [r(s, k) for r in rows]
        return f(*points) if fixed is None else f(_take(fixed, s), *points)

    values: list = []
    for s, k in _pieces(segments, width, _block_rows(dim)):
        try:
            values += _values(call(s, k))
        except Exception:  # noqa: BLE001 - located below, point by point
            for i in range(s.start, s.stop):
                for j in range(k.start, k.stop):
                    try:
                        call(slice(i, i + 1), slice(j, j + 1))
                    except Exception as exc:  # noqa: BLE001 - re-raised with context
                        raise SegmentEvaluationError(float(ts[i, j]), str(exc)) from exc
            raise
    return [values[k:k + width] for k in range(0, len(values), width)]


def pointwise(g: Callable[..., float | None]) -> Callable[..., list]:
    """Lift ``g``, a function of matrices, to the stacked points of :func:`segment_test`.

    The lifted function calls ``g`` once per point, segment by segment and
    in order; a point's positive-definite components are its rows of the
    PdMatrix stacks, carrying their spectra, and a segment's fixed matrix
    comes first.  A row of an eigenvalues-only stack carries no
    eigenvectors: its first ``log`` decomposes it.
    """

    def f(*stacks: Stack) -> list:
        shapes = [_entries(s).shape[:2] for s in stacks]
        segments, points = shapes[-1]
        return [
            g(*(s[i, k if p > 1 else 0] if isinstance(s, PdMatrix)
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
    segments' endpoints (a PdMatrix stack or an array of self-adjoint
    entries) or one matrix, a stack of one.  ``t_samples`` has shape (S,
    T), or is one sequence for all.  For each ``t`` the mixture is ``t p1
    + (1-t) p2`` (componentwise), the left side is ``f`` at the mixture,
    and the right side the scalar mixture of the endpoint values.
    Violations are normalized by ``1 + |f(p1)| + |f(p2)|``.  Returns the
    records segment by segment.

    ``f`` evaluates stacked points: it takes one stack per component, a
    PdMatrix or an array of entries with leading axes (segment, point),
    and returns one value per point.  ``fixed``, one matrix per segment
    held fixed along it, goes to ``f`` first with a point axis of one.  ``f``
    is called on the endpoints (unless ``ends`` gives their values) and
    then on the mixtures, a piece of at most one ``_BLOCK_BYTES`` block of
    points per call (the whole stack at small n, one point at n = 64);
    :func:`pointwise` lifts a function of single matrices.  The mixtures
    of a piece's positive-definite component are built and decomposed
    together, one stacked ``eigh``, and validated positive definite before
    ``f`` sees them.  Any exception from building the mixtures or from
    ``f`` is raised as SegmentEvaluationError carrying the ``t`` of the
    first point that fails (1.0 and 0.0 for the endpoints).

    ``f`` returns None for a point it could not evaluate (an optimizer run
    that did not converge).  The comparison at that ``t`` is then recorded
    as invalid; when an endpoint is None, every comparison of its segment
    is, and no mixture of that segment is evaluated.
    """
    orient = _ORIENTATIONS[orientation]
    p1, p2 = _as_point(p1), _as_point(p2)
    ts = np.asarray(t_samples, dtype=np.float64)
    ts = np.broadcast_to(ts, (len(p1[0]), ts.shape[-1]))
    dim = _entries(p1[0]).shape[-1]
    if fixed is not None:
        fixed = _as_stack(fixed)[:, None]
    if ends is None:
        ends = _evaluate(f, fixed, [_rows(a, b) for a, b in zip(p1, p2)],
                         np.tile((1.0, 0.0), (len(ts), 1)), dim)
    valid = [e[0] is not None and e[1] is not None for e in ends]

    def kept(c):
        # The segments with both endpoint values; all of them as they are,
        # so that fixed keeps what it caches.
        return c if all(valid) or c is None else c[np.flatnonzero(valid)]

    lhs_values = iter(())
    if any(valid) and ts.shape[1]:
        rows = [_rows(kept(a), kept(b), kept(ts)) for a, b in zip(p1, p2)]
        lhs_values = iter(_evaluate(f, kept(fixed), rows, kept(ts), dim))
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

"""The Jensen segment test, on stacks of segments.

A segment runs from ``p2`` to ``p1`` through the mixtures ``t p1 +
(1-t) p2``; :func:`segment_test` compares a function at each mixture
with the mixture of its endpoint values, for many segments at once: the
endpoints, then the mixtures, are evaluated as stacks, each call taking
as many points as one ``_BLOCK_BYTES`` block of their entries holds.  A
function whose values are read off eigenvalues alone returns
:class:`ByEigenvalues`, and the matrices of a segment's calls are then
decomposed with one ``eigvalsh`` call.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import SegmentEvaluationError
from .hermitian import (
    HermitianMatrix,
    PdMatrix,
    _block_rows,
    _eigh,
    mixtures,
    pd_stack,
    validate_pd_stack,
)

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


class ByEigenvalues(NamedTuple):
    """Values of a segment function that wait for the eigenvalues of ``entries``.

    ``entries`` holds one self-adjoint matrix per point of the call, with
    the call's leading axes; ``finish(w)`` maps their ascending
    eigenvalues ``w``, of those leading axes, to the call's values.
    """

    entries: np.ndarray
    finish: Callable[[np.ndarray], Sequence]

    def evaluate(self) -> Sequence:
        """The values: ``finish`` of the eigenvalues of ``entries``, one ``eigvalsh`` call."""
        return self.finish(_eigh(self.entries, vectors=False)[0])


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
        return lambda s, k: validate_pd_stack(mixtures(a.entries[s], b.entries[s], ts[s, k]))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if ts is None:
            return lambda s, k: np.stack((a[s], b[s])[k], axis=1)
        return lambda s, k: mixtures(a[s], b[s], ts[s, k])
    raise TypeError(f"cannot mix {type(a).__name__} with {type(b).__name__}")


def _values(v) -> list:
    # f's values, one per point in row-major order, as floats or None.
    return [None if x is None else float(x) for x in np.asarray(v, dtype=object).ravel()]


def _groups(segments: int, width: int, points: int) -> list[list[tuple[slice, slice]]]:
    # The (segment, point) index in consecutive pieces of at most ``points``
    # points, in groups: runs of whole segments, one piece a group, or,
    # when a segment alone has more, the pieces of one segment, one
    # segment a group.
    if width <= points:
        step = points // width
        return [[(slice(s, min(s + step, segments)), slice(0, width))]
                for s in range(0, segments, step)]
    return [[(slice(s, s + 1), slice(k, min(k + points, width))) for k in range(0, width, points)]
            for s in range(segments)]


def _group_values(call: Callable, group: list[tuple[slice, slice]]) -> list:
    """``call``'s values on the pieces of a group, in order.

    A call that returns :class:`ByEigenvalues` is finished after every
    piece of the group is called: the entries of one piece are decomposed
    as they are, those of several are first copied into one stack, so
    that one ``eigvalsh`` call decomposes them all.  Meanwhile each
    piece's own temporaries are freed, so the stack is the one thing the
    group holds beyond a piece.
    """
    if len(group) == 1:
        out = call(*group[0])
        return _values(out.evaluate() if isinstance(out, ByEigenvalues) else out)
    points = sum((s.stop - s.start) * (k.stop - k.start) for s, k in group)
    values: list = []
    # (index in values, rows of the stack, leading shape, finish) of each ByEigenvalues.
    waiting: list = []
    stack, used = None, 0
    for piece in group:
        out = call(*piece)
        if not isinstance(out, ByEigenvalues):
            values.append(_values(out))
            continue
        m = out.entries.reshape(-1, *out.entries.shape[-2:])
        if stack is None:
            stack = np.empty((points, *m.shape[1:]), m.dtype)
        rows = slice(used, used + len(m))
        stack[rows] = m
        waiting.append((len(values), rows, out.entries.shape[:-1], out.finish))
        values.append(None)
        used = rows.stop
        del out, m
    if waiting:
        w = _eigh(stack[:used], vectors=False)[0]
        for i, rows, shape, finish in waiting:
            values[i] = _values(finish(w[rows].reshape(shape)))
    return [v for piece in values for v in piece]


def _evaluate(f: Callable[..., Sequence], fixed: Stack | None, rows: list, ts: np.ndarray,
              dim: int) -> list[list[float | None]]:
    """``f`` at the points ``ts`` (segment by point), a block at a time; a list of values a segment.

    Each call of ``f`` takes a piece of consecutive points (:func:`_groups`),
    as many as one ``_BLOCK_BYTES`` block of ``dim`` x ``dim`` complex
    entries holds, at least one, so that no temporary of a piece exceeds
    a block.  ``fixed``, the segments' fixed matrices, goes first.  When a
    segment takes several pieces (from ``dim`` 21 on for ten points), its
    pieces form one group, whose :class:`ByEigenvalues` entries are
    decomposed together (:func:`_group_values`): at ``dim`` 64 one stack
    of ten matrices, the one stack above a block.  Elsewhere a group is
    one piece.  Should a group raise, in ``f``, in its ``eigvalsh`` or in
    a ``finish``, its points are evaluated again one at a time, each as a
    stack of one, in order, so that the first point that fails (its
    validation as a mixture included) is raised as
    SegmentEvaluationError with its ``t``.  Should none fail alone, the
    group's own exception is raised as it is: the stacked evaluation has
    a defect that single points do not reach.
    """
    segments, width = ts.shape

    def call(s: slice, k: slice):
        points = [r(s, k) for r in rows]
        return f(*points) if fixed is None else f(_take(fixed, s), *points)

    values: list = []
    for group in _groups(segments, width, _block_rows(dim)):
        try:
            values += _group_values(call, group)
        except Exception:  # noqa: BLE001 - located below, point by point
            for s, k in group:
                for i in range(s.start, s.stop):
                    for j in range(k.start, k.stop):
                        try:
                            _group_values(call, [(slice(i, i + 1), slice(j, j + 1))])
                        except Exception as exc:  # noqa: BLE001 - re-raised with context
                            raise SegmentEvaluationError(float(ts[i, j]), str(exc)) from exc
            raise
    return [values[k:k + width] for k in range(0, len(values), width)]


def pointwise(g: Callable[..., float | None]) -> Callable[..., list]:
    """Lift ``g``, a function of matrices, to the stacked points of :func:`segment_test`.

    The lifted function calls ``g`` once per point, segment by segment and
    in order; a point's positive-definite components are its rows of the
    PdMatrix stacks, carrying their spectra, its self-adjoint ones
    HermitianMatrix rows of the arrays of entries, and a segment's fixed
    matrix comes first.
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
    and returns one value per point, or a :class:`ByEigenvalues` whose
    ``finish`` does.  ``fixed``, one matrix per segment held fixed along
    it, goes to ``f`` first with a point axis of one.  ``f`` is called on
    the endpoints (unless ``ends`` gives their values) and then on the
    mixtures, a piece of at most one ``_BLOCK_BYTES`` block of points per
    call (the whole stack at small n, one point at n = 64);
    :func:`pointwise` lifts a function of single matrices.  The
    :class:`ByEigenvalues` entries of one segment's pieces are decomposed
    with one ``eigvalsh`` call, ten matrices at n = 64.  The mixtures of
    a piece's positive-definite component are built and decomposed
    together, one stacked ``eigh``, and validated positive definite before
    ``f`` sees them.  Any exception from building the mixtures, from
    ``f``, from the ``eigvalsh`` call or from ``finish`` is raised as
    SegmentEvaluationError carrying the ``t`` of the first point that
    fails (1.0 and 0.0 for the endpoints).

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

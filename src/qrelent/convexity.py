"""Randomized midpoint/Jensen testers for convexity and concavity claims.

These are falsification harnesses, not proofs: each suite draws seeded
random instances, evaluates the claimed inequality along segments (or
against a scalar bound), and reports normalized violations.  ``SUITES``
lists every suite as a per-trial function with its defaults, and
:func:`run_suite` runs one.  A report is a pure function of ``(dim,
trials, seed, tol)``; every trial derives its own generator from the
master seed and its index, so one trial replays alone and reruns are
identical regardless of evaluation order.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .divergence import relative_entropies, relative_entropy
from .errors import SegmentEvaluationError
from .hermitian import (
    HermitianMatrix,
    PdMatrix,
    PdStack,
    mat_exp,
    mat_log,
    mixtures,
    pd_mixtures,
    pd_stack,
    sample_hermitian,
    sample_pd,
    trial_rng,
)
from .matrixio import matrix_to_dict
from .variational import (
    maximize_lieb,
    maximize_variational,
    trace_exp_log,
    trace_exp_logs,
)

# Deterministic interior grid; endpoint t-values are trivially tight and
# deliberately omitted.  Each trial appends one uniform random t.
T_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

_ORIENTATIONS = {"convex": 1.0, "concave": -1.0}

# Required agreement between an optimizer-evaluated partial maximum and the
# direct trace-exponential value, normalized by 1 + |direct value|.
VALUE_AGREEMENT_RTOL = 1e-6
# Required agreement between an optimizer maximizer and the closed-form
# argmax, normalized by 1 + ||argmax||_F.
_ARGMAX_AGREEMENT_TOL = 1e-4
# Largest tolerated fraction of non-converged (invalid) trials.
MAX_INVALID_FRACTION = 0.05
# Largest dimension any suite accepts.
_MAX_DIM = 64
# Klein strictness probe: pairs at least this far apart in Frobenius norm
# must have a divergence above the minimum.
_SEPARATION_DISTANCE = 0.1
_SEPARATION_MIN_DIVERGENCE = 1e-8

Matrix = Union[HermitianMatrix, PdMatrix]
Point = Sequence[Matrix]


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


@dataclasses.dataclass(frozen=True)
class BoundTrial:
    """One scalar bound check (used by the klein and variational suites)."""

    kind: str
    value: float
    bound: float
    violation: float
    scale: float
    valid: bool = True


@functools.cache
def _field_defaults(cls: type) -> dict:
    # Computed once per record type: calling dataclasses.fields for every
    # record raised the peak memory of the segment suites at n = 6 by
    # about 0.3 MB.
    return {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


def record_to_json_dict(record: SegmentTrial | BoundTrial) -> dict:
    """Every field of a trial record, except one equal to its default."""
    defaults = _field_defaults(type(record))
    return {k: v for k, v in vars(record).items() if k not in defaults or v != defaults[k]}


@dataclasses.dataclass(frozen=True)
class SuiteReport:
    """Aggregate outcome of one property suite.

    ``passed`` (serialized as ``"pass"``) is ``max_violation <= tol``;
    suites that run the optimizer additionally require the invalid-trial
    fraction and the value-agreement gap recorded in ``extras`` to stay
    within their bounds.
    """

    suite_name: str
    trials: list
    max_violation: float
    passed: bool
    config_echo: dict
    invalid_trials: int = 0
    extras: dict = dataclasses.field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "suite_name": self.suite_name,
            "trials": [record_to_json_dict(t) for t in self.trials],
            "max_violation": self.max_violation,
            "pass": self.passed,
            "config_echo": self.config_echo,
            "invalid_trials": self.invalid_trials,
            "extras": self.extras,
        }


def _as_point(p) -> tuple:
    if isinstance(p, (HermitianMatrix, PdMatrix)):
        return (p,)
    return tuple(p)


Stack = Union[PdStack, np.ndarray]


def _rows(a: Matrix, b: Matrix, ts: Sequence[float] | None = None) -> Callable[[slice], Stack]:
    """One component of a segment's points, as a function of a range of rows.

    The rows are the endpoints ``(a, b)`` when ``ts`` is None, else the
    mixtures ``t a + (1-t) b`` for ``t`` in ``ts``.  Positive-definite
    components give PdStacks (mixtures validated when taken), self-adjoint
    ones arrays of entries.
    """
    if isinstance(a, PdMatrix) and isinstance(b, PdMatrix):
        return pd_stack((a, b)).__getitem__ if ts is None else pd_mixtures(a, b, ts)
    if isinstance(a, HermitianMatrix) and isinstance(b, HermitianMatrix):
        entries = np.stack((a.entries, b.entries)) if ts is None else mixtures(a, b, ts)
        return entries.__getitem__
    raise TypeError(f"cannot mix {type(a).__name__} with {type(b).__name__}")


def _evaluate(f: Callable[..., Sequence], rows: list, ts: list[float]) -> list[float | None]:
    """``f`` at the points ``ts``, in one call on the stacked points.

    Should that call raise, the points are evaluated again one at a time,
    each as a stack of one and in order, so that the first point that fails
    (its validation as a mixture included) is raised as
    SegmentEvaluationError with its ``t``.
    """
    try:
        values = f(*(r(slice(None)) for r in rows))
    except Exception:  # noqa: BLE001 - located below, point by point
        values = []
        for k, t in enumerate(ts):
            try:
                values += f(*(r(slice(k, k + 1)) for r in rows))
            except Exception as exc:  # noqa: BLE001 - re-raised with context
                raise SegmentEvaluationError(t, str(exc)) from exc
    return [None if v is None else float(v) for v in values]


def pointwise(g: Callable[..., float | None]) -> Callable[..., list]:
    """Lift ``g``, a function of matrices, to the stacked points of :func:`segment_test`.

    The lifted function calls ``g`` once per point, in order; a point's
    positive-definite components are PdMatrix values carrying their rows'
    spectra.
    """

    def f(*stacks: Stack) -> list:
        return [
            g(*(s.point(k) if isinstance(s, PdStack) else HermitianMatrix._exact(s[k])
                for s in stacks))
            for k in range(len(stacks[0]))
        ]

    return f


def segment_test(
    f: Callable[..., Sequence],
    p1,
    p2,
    t_samples: Sequence[float],
    orientation: str,
) -> list[SegmentTrial]:
    """Evaluate a Jensen inequality along the segment from ``p2`` to ``p1``.

    For each ``t`` the mixture is ``t p1 + (1-t) p2`` (componentwise), the
    left side is ``f`` at the mixture, and the right side the scalar
    mixture of the endpoint values.  Violations are normalized by
    ``1 + |f(p1)| + |f(p2)|``.

    ``f`` evaluates stacked points: it takes one stack per component, a
    PdStack for a positive-definite one and an array of entries for a
    self-adjoint one, and returns one value per row.  It is called twice,
    on the two endpoints and then on every mixture; :func:`pointwise`
    lifts a function of single matrices.  The mixtures of a
    positive-definite component are decomposed together, one stacked
    ``eigh`` for all ``t``, and validated positive definite before ``f``
    sees them.  Any exception from building the mixtures or from ``f`` is
    raised as SegmentEvaluationError carrying the ``t`` of the first point
    that fails (1.0 and 0.0 for the endpoints).

    ``f`` returns None for a point it could not evaluate (an optimizer run
    that did not converge).  The comparison at that ``t`` is then recorded
    as invalid; when an endpoint is None, every comparison is, and no
    mixture is evaluated.
    """
    orient = _ORIENTATIONS[orientation]
    p1, p2 = _as_point(p1), _as_point(p2)
    ts = [float(t) for t in t_samples]
    f1, f2 = _evaluate(f, [_rows(a, b) for a, b in zip(p1, p2)], [1.0, 0.0])
    if f1 is None or f2 is None:
        return [SegmentTrial(t, 0.0, 0.0, 0.0, 1.0, valid=False) for t in ts]
    scale = 1.0 + abs(f1) + abs(f2)
    lhs_values = _evaluate(f, [_rows(a, b, ts) for a, b in zip(p1, p2)], ts) if ts else []
    trials = []
    for t, lhs in zip(ts, lhs_values):
        if lhs is None:
            trials.append(SegmentTrial(t, 0.0, 0.0, 0.0, scale, valid=False))
            continue
        rhs = t * f1 + (1.0 - t) * f2
        violation = (lhs - rhs) * orient / scale
        trials.append(SegmentTrial(t, lhs, rhs, violation, scale))
    return trials


def _invalid_fraction(records: list) -> float:
    return sum(not r.valid for r in records) / len(records) if records else 1.0


def _segment(f, p1: tuple, p2: tuple, rng, orientation: str, tol: float, fixed=None) -> list:
    """``segment_test`` on ``T_GRID`` plus one uniform ``t`` drawn from ``rng``.

    A valid comparison violating ``tol`` carries a witness ``{"t": t}``.
    The first one of the segment also carries the endpoints as ``"p1"``
    and ``"p2"``, lists of matrix dicts, and the matrix ``fixed`` along the
    segment, if any, once as ``"fixed"``; the later ones carry only their
    ``t``.
    """
    trials = segment_test(f, p1, p2, T_GRID + (float(rng.uniform()),), orientation)
    first = True
    records = []
    for tr in trials:
        if tr.valid and tr.violation > tol:
            witness = {"t": tr.t}
            if first:
                witness["p1"] = [matrix_to_dict(m) for m in p1]
                witness["p2"] = [matrix_to_dict(m) for m in p2]
                if fixed is not None:
                    witness["fixed"] = matrix_to_dict(fixed)
                first = False
            tr = dataclasses.replace(tr, witness=witness)
        records.append(tr)
    return records


def klein_trial(rng: np.random.Generator, dim: int, tol: float, kind: str) -> tuple[list, list]:
    """Nonnegativity of the divergence (Klein's inequality), one trial of ``kind``.

    ``nonneg``: ``D(X;Y) >= -tol * scale`` on a random PD pair.
    ``identity``: ``D(X;X) <= tol * scale``.  ``separated``: ``D(X;Y) >= 1e-8``
    for a pair at least 0.1 apart in Frobenius norm.  ``D(X;Y)`` reads only
    the eigenvalues of ``X``, so the ``X`` of a pair is sampled without
    eigenvectors.
    """
    if kind == "identity":
        x = sample_pd(rng, dim, 0.1)
        value = relative_entropy(x, x).value
        scale = 1.0 + x.frobenius_norm()
        return [BoundTrial("identity", value, 0.0, abs(value) / scale, scale)], []
    x = sample_pd(rng, dim, 0.1, vectors=False)
    y = sample_pd(rng, dim, 0.1)
    if kind == "nonneg":
        scale = 1.0 + x.frobenius_norm() + y.frobenius_norm()
        value = relative_entropy(x, y).value
        return [BoundTrial("nonneg", value, 0.0, -value / scale, scale)], []
    for _ in range(1000):
        if (x.base - y.base).frobenius_norm() >= _SEPARATION_DISTANCE:
            break
        y = sample_pd(rng, dim, 0.1)
    value = relative_entropy(x, y).value
    record = BoundTrial(
        "separated", value, _SEPARATION_MIN_DIVERGENCE,
        _SEPARATION_MIN_DIVERGENCE - value, 1.0,
    )
    return [record], []


def joint_convexity_trial(rng: np.random.Generator, dim: int, tol: float) -> tuple[list, list]:
    """Joint convexity of the relative entropy under simultaneous mixing.

    Draws a random PD quadruple (X1, Y1, X2, Y2) and tests
    ``D(t X1 + (1-t) X2; t Y1 + (1-t) Y2) <= t D(X1;Y1) + (1-t) D(X2;Y2)``
    on the t-grid.  The samples are the divergence values evaluated,
    endpoints included: nonnegativity requires the smallest of a suite to
    stay at or above ``-tol``, and the suite fails otherwise (or when it is
    NaN).  ``D(X;Y)`` reads only the eigenvalues of ``X``, so ``X1`` and
    ``X2``, and with them every X-mixture, are decomposed without
    eigenvectors.
    """
    values: list[float] = []

    def f(x: PdStack, y: PdStack) -> np.ndarray:
        value = relative_entropies(x.eigenvalues, x.entries, y.entries, y.log)[0]
        values.extend(value.tolist())
        return value

    x1 = sample_pd(rng, dim, 0.1, vectors=False)
    y1 = sample_pd(rng, dim, 0.1)
    x2 = sample_pd(rng, dim, 0.1, vectors=False)
    y2 = sample_pd(rng, dim, 0.1)
    return _segment(f, (x1, y1), (x2, y2), rng, "convex", tol), values


def _min_divergence(records: list, values: list, tol: float) -> tuple[dict, bool]:
    # np.min, unlike min, returns NaN when any value is NaN.
    min_value = float(np.min(values))
    return {"min_divergence_value": min_value}, min_value >= -tol


def lieb_concavity_trial(
    rng: np.random.Generator, dim: int, tol: float, orientation: str
) -> tuple[list, list]:
    """Lieb's concavity of ``A -> tr exp(H + log A)`` for fixed self-adjoint ``H``.

    ``orientation`` exists for the harness self-test: running the same
    instances with ``"convex"`` must fail for generic dim >= 2, proving
    the tester can detect violations at all.
    """
    h = sample_hermitian(rng, dim, 3.0)
    a1 = sample_pd(rng, dim, 0.1)
    a2 = sample_pd(rng, dim, 0.1)
    records = _segment(lambda a: trace_exp_logs(h.entries, a.log), (a1,), (a2,), rng,
                       orientation, tol, fixed=h)
    return records, []


def fenchel_trial(rng: np.random.Generator, dim: int, tol: float) -> tuple[list, list]:
    """Convexity of ``H -> tr exp(H + log A)`` for fixed positive-definite ``A``.

    As the partial maximum of ``tr(XH) - (D(X;A) - tr A)`` over ``X``, the
    map is a supremum of affine functions of ``H`` (a Fenchel conjugate).
    """
    a = sample_pd(rng, dim, 0.1)
    h1 = sample_hermitian(rng, dim, 3.0)
    h2 = sample_hermitian(rng, dim, 3.0)
    log_a = mat_log(a).entries
    records = _segment(lambda h: trace_exp_logs(h, log_a), (h1,), (h2,), rng, "convex", tol,
                       fixed=a)
    return records, []


def _centered_pd(rng: np.random.Generator, dim: int, spread: float) -> PdMatrix:
    """Random PD matrix rescaled so its log-spectrum is centered at zero."""
    a = sample_pd(rng, dim, spread)
    w = a.eigenvalues
    return a.scaled(1.0 / math.sqrt(float(w[0]) * float(w[-1])))


def sample_lieb_instance(
    rng: np.random.Generator, dim: int
) -> tuple[HermitianMatrix, PdMatrix]:
    """Conditioned (H, A) pair for optimizer-backed evaluations.

    ``H`` has spectral radius <= 1.7 and ``A`` a centered log-spectrum, so
    the eigenvalues of ``H + log A`` stay near [-3, 3]; failures then
    indicate math errors rather than conditioning.
    """
    h = sample_hermitian(rng, dim, 1.7)
    a = _centered_pd(rng, dim, 0.3)
    return h, a


def partial_max_trial(rng: np.random.Generator, dim: int, tol: float) -> tuple[list, list]:
    """Concavity of the optimizer-evaluated partial maximum over ``X``.

    Defines ``g(A)`` as the maximum of ``tr(XH) - (D(X;A) - tr A)`` found
    by the Newton ascent (identity start) and segment-tests ``g`` with the
    concave orientation.  The samples are the gaps between every converged
    evaluation and the direct value ``tr exp(H + log A)``; non-converged
    evaluations mark the affected comparisons invalid.  A suite fails when
    more than 5% of its comparisons are invalid, or when a gap exceeds
    ``VALUE_AGREEMENT_RTOL``.
    """
    h, a1 = sample_lieb_instance(rng, dim)
    a2 = _centered_pd(rng, dim, 0.3)
    gaps: list[float] = []

    def g(a: PdMatrix) -> float | None:
        res = maximize_lieb(h, a)
        if not res.converged:
            return None
        direct = trace_exp_log(h, a)
        gaps.append(abs(res.value - direct) / (1.0 + abs(direct)))
        return res.value

    records = _segment(pointwise(g), (a1,), (a2,), rng, "concave", tol, fixed=h)
    return records, gaps


def _partial_max_extras(records: list, gaps: list, tol: float) -> tuple[dict, bool]:
    invalid_fraction = _invalid_fraction(records)
    # np.max, unlike max, keeps a NaN gap.
    max_value_gap = float(np.max(gaps, initial=0.0))
    extras = {
        "invalid_fraction": invalid_fraction,
        "max_value_gap": max_value_gap,
        "value_agreement_rtol": VALUE_AGREEMENT_RTOL,
        "max_invalid_fraction": MAX_INVALID_FRACTION,
    }
    ok = invalid_fraction <= MAX_INVALID_FRACTION and max_value_gap <= VALUE_AGREEMENT_RTOL
    return extras, ok


def _agreement(kind: str, res, closed_form: Callable[[], tuple]) -> list[BoundTrial]:
    """Value and argmax gaps of one optimizer run, minus their budgets.

    ``closed_form`` returns the exact ``(value, maximizer)`` and is called
    only for a converged run; a run that did not converge gives one
    invalid record.
    """
    if not res.converged:
        return [BoundTrial(f"{kind}-value", 0.0, VALUE_AGREEMENT_RTOL, 0.0, 1.0, valid=False)]
    value, maximizer = closed_form()
    value_scale = 1.0 + abs(value)
    argmax_scale = 1.0 + maximizer.frobenius_norm()
    value_gap = abs(res.value - value) / value_scale
    argmax_gap = (res.maximizer.base - maximizer.base).frobenius_norm() / argmax_scale
    return [
        BoundTrial(f"{kind}-value", value_gap, VALUE_AGREEMENT_RTOL,
                   value_gap - VALUE_AGREEMENT_RTOL, value_scale),
        BoundTrial(f"{kind}-argmax", argmax_gap, _ARGMAX_AGREEMENT_TOL,
                   argmax_gap - _ARGMAX_AGREEMENT_TOL, argmax_scale),
    ]


def variational_trial(rng: np.random.Generator, dim: int, tol: float) -> tuple[list, list]:
    """Optimizer agreement with the closed-form maximizers.

    Maximizes the trace variational objective on a random ``Y`` (argmax
    must be ``Y`` with value ``tr Y``) and the trace-exponential objective
    on a conditioned ``(H, A)`` pair (argmax ``exp(H + log A)`` with value
    ``tr exp(H + log A)``).  Recorded violations are normalized gaps minus
    their budgets (1e-6 for values, 1e-4 for maximizers).
    """
    y = sample_pd(rng, dim, 0.1)
    records = _agreement("variational", maximize_variational(y), lambda: (y.trace(), y))
    h, a = sample_lieb_instance(rng, dim)
    records += _agreement(
        "lieb", maximize_lieb(h, a),
        lambda: (trace_exp_log(h, a), mat_exp(h + mat_log(a))),
    )
    return records, []


def _variational_extras(records: list, samples: list, tol: float) -> tuple[dict, bool]:
    invalid_fraction = _invalid_fraction(records)
    extras = {
        "invalid_fraction": invalid_fraction,
        "value_budget": VALUE_AGREEMENT_RTOL,
        "argmax_budget": _ARGMAX_AGREEMENT_TOL,
    }
    return extras, invalid_fraction <= MAX_INVALID_FRACTION


class Kind(NamedTuple):
    """The ``count(trials)`` trials of one kind of a suite.

    Trial ``i`` is drawn from ``trial_rng(seed, first + i)``.  A ``name``
    of None is not passed to the trial function.
    """

    name: str | None
    first: int
    count: Callable[[int], int]


class Suite(NamedTuple):
    """One row of ``SUITES``: a per-trial function and its run defaults.

    ``trial(rng, dim, tol, [kind,] **options)`` returns ``(records,
    samples)`` for one trial drawn from ``rng``.  ``options`` holds the
    default of each option the config echo records.  ``extras(records,
    samples, tol)`` reduces the samples of a whole run to the report's
    extras and whether they pass.
    """

    trial: Callable[..., tuple[list, list]]
    trials: int = 200
    tol: float = 1e-9
    kinds: tuple = (Kind(None, 0, lambda trials: trials),)
    options: dict = {}
    extras: Callable[..., tuple[dict, bool]] = lambda records, samples, tol: ({}, True)


# Every suite, in the order ``verify --suite all`` runs them.  partial-max
# runs one optimization per evaluation, hence fewer trials and a looser
# tolerance.  Klein's kinds start a million indices apart, so their
# streams do not meet below a million trials.
SUITES = {
    "klein": Suite(klein_trial, kinds=(
        Kind("nonneg", 0, lambda trials: trials),
        Kind("identity", 1_000_000, lambda trials: max(1, trials // 5)),
        Kind("separated", 2_000_000, lambda trials: min(100, trials)),
    )),
    "joint-convexity": Suite(joint_convexity_trial, extras=_min_divergence),
    "lieb-concavity": Suite(lieb_concavity_trial, options={"orientation": "concave"}),
    "partial-max": Suite(partial_max_trial, trials=50, tol=1e-8, extras=_partial_max_extras),
    "fenchel": Suite(fenchel_trial),
    "variational": Suite(variational_trial, extras=_variational_extras),
}


def suite_args(
    name: str, dim: int, trials: int | None, seed: int, tol: float | None
) -> tuple[int, float]:
    """The ``(trials, tol)`` of one run of suite ``name``, defaults filled in.

    Raises ValueError when ``dim`` lies outside [1, 64], ``trials`` is
    below 1, ``seed`` lies outside [0, 2**64) or ``tol`` is not positive
    and finite: an infinite ``tol`` would pass every violation.
    """
    row = SUITES[name]
    trials = row.trials if trials is None else trials
    tol = row.tol if tol is None else tol
    if not 1 <= dim <= _MAX_DIM:
        raise ValueError(f"dim must lie in [1, {_MAX_DIM}], got {dim}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return trials, tol


def run_suite(
    name: str, dim: int, trials: int | None, seed: int, tol: float | None, **options
) -> SuiteReport:
    """Run every trial of suite ``name``, kind by kind, in index order.

    ``trials`` and ``tol`` of None take the row's defaults; ``options`` go
    to every trial.  The suite passes when every valid violation is at
    most ``tol`` and the row's extras pass.  A non-finite valid violation
    fails the suite and makes ``max_violation`` NaN (Python's ``max``
    would skip a NaN that does not come first).
    """
    trials, tol = suite_args(name, dim, trials, seed, tol)
    row = SUITES[name]
    options = {**row.options, **options}
    records: list = []
    samples: list = []
    for kind in row.kinds:
        named = () if kind.name is None else (kind.name,)
        for i in range(kind.count(trials)):
            trial_records, trial_samples = row.trial(
                trial_rng(seed, kind.first + i), dim, tol, *named, **options
            )
            records += trial_records
            samples += trial_samples
    extras, extras_ok = row.extras(records, samples, tol)
    violations = [r.violation for r in records if r.valid]
    if all(math.isfinite(v) for v in violations):
        max_violation = max(violations, default=math.nan)
    else:
        max_violation = math.nan
    echo = {"dim": dim, "trials": trials, "seed": seed, "tol": tol}
    return SuiteReport(
        suite_name=name,
        trials=records,
        max_violation=max_violation,
        passed=bool(violations) and max_violation <= tol and extras_ok,
        config_echo={**echo, **{key: options[key] for key in row.options}},
        invalid_trials=len(records) - len(violations),
        extras=extras,
    )


# Each suite as a function of ``(dim, trials, seed, tol, **options)``.
klein_suite = functools.partial(run_suite, "klein")
joint_convexity_suite = functools.partial(run_suite, "joint-convexity")
lieb_concavity_suite = functools.partial(run_suite, "lieb-concavity")
partial_max_concavity_suite = functools.partial(run_suite, "partial-max")
fenchel_convexity_suite = functools.partial(run_suite, "fenchel")
variational_suite = functools.partial(run_suite, "variational")

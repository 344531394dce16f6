"""Randomized midpoint/Jensen suites for convexity and concavity claims.

These are falsification harnesses, not proofs: each suite draws seeded
random instances, evaluates the claimed inequality along segments (with
the tester of :mod:`qrelent.segments`) or against a scalar bound, and
reports normalized violations.  ``SUITES`` lists every suite as a
function of a chunk of trials with its defaults, and :func:`run_suite`
runs one.  A report is a pure function of ``(dim, trials, seed, tol)``;
every trial derives its own generator from the master seed and its
index, so one trial replays alone (a chunk of one) and reruns are
identical regardless of how trials are chunked.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
from typing import Callable, NamedTuple, Sequence, TypeAlias

import numpy as np

# relative_entropy stays importable from qrelent.convexity.
from .divergence import divergences, relative_entropies, relative_entropy  # noqa: F401
from .hermitian import (
    HermitianMatrix,
    PdMatrix,
    _block_rows,
    _check_floor,
    _eigh,
    hermitian_draws,
    one_blas_thread,
    pd_draws,
    pd_exp,
    pd_stack,
    trace_products,
    traces,
    trial_rng,
    usable_cpus,
    validate_pd_stack,
)
from .segments import ByEigenvalues, SegmentTrial, _as_point, _as_stack, _entries, segment_test
from .variational import exp_log_arguments, maximize_liebs, trace_exps

# Deterministic interior grid; endpoint t-values are trivially tight and
# deliberately omitted.  Each trial appends one uniform random t.
T_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

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
# Largest trial count any suite accepts: klein's kinds start a million
# indices apart, so more trials would draw one generator twice.
_MAX_TRIALS = 1_000_000
# Smallest dimension whose chunks run on two threads, BLAS held at one
# thread: below it the GIL-bound Python work of a chunk outweighs its LAPACK.
# numpy's eigh releases the GIL at any size, its eigvalsh only for a call of
# more than 500 eigenvalues: a segment's stack of ten from dim 51 on.
_THREADED_DIM = 32
# Klein strictness probe: pairs at least this far apart in Frobenius norm
# must have a divergence above the minimum.
_SEPARATION_DISTANCE = 0.1
_SEPARATION_MIN_DIVERGENCE = 1e-8

# One generator per trial of a chunk; a string, since reading np.random
# would import numpy.random with this module.
Rngs: TypeAlias = "Sequence[np.random.Generator]"


@dataclasses.dataclass(frozen=True)
class BoundTrial:
    """One scalar bound check (used by the klein and variational suites)."""

    kind: str
    value: float
    bound: float
    violation: float
    scale: float
    valid: bool = True


@dataclasses.dataclass(frozen=True)
class SuiteReport:
    """Aggregate outcome of one property suite.

    ``passed`` (serialized as ``"pass"``) is ``max_violation <= tol``;
    suites that run the optimizer additionally require the invalid-trial
    fraction and the value-agreement gap recorded in ``extras`` to stay
    within their bounds.  ``to_json_dict`` hands over the records as they are,
    for ``json.dumps(..., default=json_default)``, the writer's hook.
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
            "trials": self.trials,
            "max_violation": self.max_violation,
            "pass": self.passed,
            "config_echo": self.config_echo,
            "invalid_trials": self.invalid_trials,
            "extras": self.extras,
        }


def _invalid_fraction(records: list) -> float:
    return sum(not r.valid for r in records) / len(records) if records else 1.0


def _segment(f, p1, p2, rngs: Rngs, orientation: str, tol: float, fixed=None,
             ends: Sequence | None = None) -> list:
    """``segment_test`` on ``T_GRID`` plus one uniform ``t`` drawn from each segment's generator.

    Segment ``s`` of the stacks ``p1``, ``p2`` (and ``fixed``) belongs to
    the trial of ``rngs[s]``.  A valid comparison violating ``tol``
    carries a witness ``{"t": t}``.  The first one of a segment also
    carries copies of its endpoints' entries as ``"p1"`` and ``"p2"``, lists
    of arrays, and of its matrix ``fixed``, if any, once as ``"fixed"``;
    the later ones carry only their ``t``.
    """
    p1, p2 = _as_point(p1), _as_point(p2)
    ts = [T_GRID + (float(rng.uniform()),) for rng in rngs]
    trials = segment_test(f, p1, p2, ts, orientation, fixed, ends)
    width = len(T_GRID) + 1
    records = []
    for s in range(len(rngs)):
        first = True
        for tr in trials[s * width:(s + 1) * width]:
            if tr.valid and tr.violation > tol:
                witness = {"t": tr.t}
                if first:
                    witness["p1"] = [_entries(c)[s].copy() for c in p1]
                    witness["p2"] = [_entries(c)[s].copy() for c in p2]
                    if fixed is not None:
                        witness["fixed"] = _entries(_as_stack(fixed))[s].copy()
                    first = False
                tr = SegmentTrial(tr.t, tr.lhs, tr.rhs, tr.violation, tr.scale, witness=witness)
            records.append(tr)
    return records


def klein_trial(rngs: Rngs, dim: int, tol: float, kind: str) -> tuple[list, list]:
    """Nonnegativity of the divergence (Klein's inequality), a chunk of trials of ``kind``.

    ``nonneg``: ``D(X;Y) >= -tol * scale`` on a random PD pair.
    ``identity``: ``D(X;X) <= tol * scale``.  ``separated``: ``D(X;Y) >= 1e-8``
    for a pair at least 0.1 apart in Frobenius norm (``Y`` is drawn again
    until it is).  ``D(X;Y)`` reads only the eigenvalues of ``X``, so the
    ``X`` of a pair stays entries, its eigenvalues from one ``eigvalsh``
    call, checked against ``PD_FLOOR`` as a PdMatrix's are.
    """
    if kind == "identity":
        y = validate_pd_stack(pd_draws(rngs, dim, 0.1)[:, 0])
        x, x_eigenvalues = y.entries, y.eigenvalues
    else:
        pairs = pd_draws(rngs, dim, 0.1, 2)
        if kind == "separated":
            for rng, pair in zip(rngs, pairs):
                for _ in range(1000):
                    if np.linalg.norm(pair[0] - pair[1]) >= _SEPARATION_DISTANCE:
                        break
                    pair[1] = pd_draws([rng], dim, 0.1)[0, 0]
        x, x_eigenvalues = pairs[:, 0], _eigh(pairs[:, 0], vectors=False)[0]
        _check_floor(x_eigenvalues)
        y = validate_pd_stack(pairs[:, 1])
    values = relative_entropies(x_eigenvalues, x, y.entries, y.log)[0].tolist()
    if kind == "separated":
        return [BoundTrial(kind, v, _SEPARATION_MIN_DIVERGENCE, _SEPARATION_MIN_DIVERGENCE - v, 1.0)
                for v in values], []
    # Norms one matrix at a time, as HermitianMatrix.frobenius_norm computes them.
    norms = [[float(np.linalg.norm(e)) for e in m] for m in (x, y.entries)]
    if kind == "identity":
        return [BoundTrial(kind, v, 0.0, abs(v) / (1.0 + nx), 1.0 + nx)
                for v, nx in zip(values, norms[0])], []
    return [BoundTrial(kind, v, 0.0, -v / (1.0 + nx + ny), 1.0 + nx + ny)
            for v, nx, ny in zip(values, *norms)], []


def joint_convexity_trial(rngs: Rngs, dim: int, tol: float) -> tuple[list, list]:
    """Joint convexity of the relative entropy under simultaneous mixing.

    Draws a random PD quadruple (X1, Y1, X2, Y2) per trial and tests
    ``D(t X1 + (1-t) X2; t Y1 + (1-t) Y2) <= t D(X1;Y1) + (1-t) D(X2;Y2)``
    on the t-grid.  The samples are the divergence values evaluated,
    endpoints included: nonnegativity requires the smallest of a suite to
    stay at or above ``-tol``, and the suite fails otherwise (or when it is
    NaN).  ``D(X;Y)`` reads only the eigenvalues of ``X``, so ``X1``,
    ``X2`` and every X-mixture stay entries, decomposed without
    eigenvectors as those of a :class:`ByEigenvalues`, whose ``finish``
    checks them against ``PD_FLOOR``.
    """
    values: list[float] = []

    def f(x: np.ndarray, y: PdMatrix) -> ByEigenvalues:
        # D(X;Y) once X's eigenvalues are known; the summands that read the
        # matrices are taken now, so that finish holds no matrix.
        cross_term, trace_gap = trace_products(x, y.log), traces(x) - traces(y.entries)

        def finish(w: np.ndarray) -> np.ndarray:
            _check_floor(w)
            value = divergences(w, cross_term, trace_gap)[0]
            values.extend(value.ravel().tolist())
            return value

        return ByEigenvalues(x, finish)

    quadruples = pd_draws(rngs, dim, 0.1, 4)
    x, y = quadruples[:, 0::2], validate_pd_stack(quadruples[:, 1::2])
    # y[:, :] takes the logarithms of the endpoints, so that y, which the
    # mixtures read, does not hold them.
    ends = f(x, y[:, :]).evaluate().tolist()
    return _segment(f, (x[:, 0], y[:, 0]), (x[:, 1], y[:, 1]), rngs, "convex", tol,
                    ends=ends), values


def _min_divergence(records: list, values: list, tol: float) -> tuple[dict, bool]:
    # np.min, unlike min, returns NaN when any value is NaN.
    min_value = float(np.min(values))
    return {"min_divergence_value": min_value}, min_value >= -tol


def lieb_concavity_trial(rngs: Rngs, dim: int, tol: float, orientation: str) -> tuple[list, list]:
    """Lieb's concavity of ``A -> tr exp(H + log A)`` for fixed self-adjoint ``H``.

    ``orientation`` exists for the harness self-test: running the same
    instances with ``"convex"`` must fail for generic dim >= 2, proving
    the tester can detect violations at all.
    """
    h = hermitian_draws(rngs, dim, 3.0)[:, 0]
    a = validate_pd_stack(pd_draws(rngs, dim, 0.1, 2))
    return _segment(lambda h, a: ByEigenvalues(exp_log_arguments(h, a.log), trace_exps),
                    (a[:, 0],), (a[:, 1],), rngs, orientation, tol, fixed=h), []


def fenchel_trial(rngs: Rngs, dim: int, tol: float) -> tuple[list, list]:
    """Convexity of ``H -> tr exp(H + log A)`` for fixed positive-definite ``A``.

    As the partial maximum of ``tr(XH) - (D(X;A) - tr A)`` over ``X``, the
    map is a supremum of affine functions of ``H`` (a Fenchel conjugate).
    """
    a = validate_pd_stack(pd_draws(rngs, dim, 0.1)[:, 0])
    h = hermitian_draws(rngs, dim, 3.0, 2)
    return _segment(lambda a, h: ByEigenvalues(exp_log_arguments(h, a.log), trace_exps),
                    (h[:, 0],), (h[:, 1],), rngs, "convex", tol, fixed=a), []


def _lieb_instances(rngs: Rngs, dim: int, count: int) -> tuple[np.ndarray, PdMatrix]:
    """Conditioned ``(H, A_1 .. A_count)`` instances, one per generator.

    ``H`` has spectral radius <= 1.7 and each ``A`` a log-spectrum centered
    at zero (``A`` rescaled by ``1/sqrt(w_min w_max)``), so the eigenvalues
    of ``H + log A`` stay near [-3, 3]; failures then indicate math errors
    rather than conditioning.  Returns the entries of the ``H`` stack and
    the ``A`` stack, shape (len(rngs), count).
    """
    h = hermitian_draws(rngs, dim, 1.7)[:, 0]
    a = validate_pd_stack(pd_draws(rngs, dim, 0.3, count))
    c = 1.0 / np.sqrt(a.eigenvalues[..., 0] * a.eigenvalues[..., -1])
    return h, PdMatrix(a.entries * c[..., None, None], a.eigenvalues * c[..., None], a.vectors)


def sample_lieb_instance(
    rng: np.random.Generator, dim: int
) -> tuple[HermitianMatrix, PdMatrix]:
    """Conditioned (H, A) pair for optimizer-backed evaluations (:func:`_lieb_instances`)."""
    h, a = _lieb_instances([rng], dim, 1)
    return HermitianMatrix._exact(h[0]), a[0, 0]


def partial_max_trial(rngs: Rngs, dim: int, tol: float) -> tuple[list, list]:
    """Concavity of the optimizer-evaluated partial maximum over ``X``, link by link.

    Defines ``g(A)`` as the maximum of ``phi(X, A) = tr(XH) - (D(X;A) -
    tr A)`` found by the Newton ascent and segment-tests ``g`` with the
    concave orientation.  The paper's proof runs through the maximizers
    ``X1*``, ``X2*`` of the endpoints (cold ascents from the identity):
    ``phi`` is jointly concave, so with ``X_t = t X1* + (1-t) X2*``

        g(A_t) >= phi(X_t, A_t) >= t g(A1) + (1-t) g(A2).

    The cold ascents give the endpoint values.  Each point of the segment
    is ``(A, X*)``, so the ascent at ``A_t`` starts from ``X_t``; a
    chunk's cold ascents are one stack, its mixtures' another.  The
    samples are, per converged evaluation, the gap to the direct value
    ``tr exp(H + log A)``, and per valid comparison the two links: the
    joint-concavity margin ``phi(X_t, A_t) - rhs`` and the ascent gain
    ``g(A_t) - phi(X_t, A_t)``, both over the segment's scale.
    Non-converged evaluations mark the affected comparisons invalid.  A
    suite fails when more than 5% of its comparisons are invalid, when a
    gap exceeds ``VALUE_AGREEMENT_RTOL``, or when a link falls below
    ``-tol``.
    """
    h, a = _lieb_instances(rngs, dim, 2)
    gaps: list[float] = []
    # The start objective of each converged mixture, in valid-record order.
    starts: list[float] = []

    def g(h: np.ndarray, a: PdMatrix, x: PdMatrix | None) -> tuple:
        # The ascents at each A from its X, and their values (None if not
        # converged), which wait for the eigenvalues of H + log A: their
        # direct values.
        runs = maximize_liebs(h, a, x)
        values = _values(runs)
        if x is not None:
            starts.extend(hist[0] for hist, v in zip(runs.objective_history, values) if v is not None)

        def finish(w: np.ndarray) -> list:
            direct = trace_exps(w).ravel().tolist()
            gaps.extend(abs(v - d) / (1.0 + abs(d))
                        for v, d in zip(values, direct) if v is not None)
            return values

        return runs, ByEigenvalues(exp_log_arguments(h, a.log), finish)

    runs, cold = g(h[:, None], a, None)
    x, values = runs.maximizer, cold.evaluate()
    ends = [values[i:i + 2] for i in range(0, len(values), 2)]
    records = _segment(lambda *p: g(*p)[1], (a[:, 0], x[0::2]), (a[:, 1], x[1::2]), rngs,
                       "concave", tol, fixed=h, ends=ends)
    valid = [r for r in records if r.valid]
    margins = [(start - r.rhs) / r.scale for start, r in zip(starts, valid)]
    gains = [(r.lhs - start) / r.scale for start, r in zip(starts, valid)]
    return records, [(gaps, margins, gains)]


def _partial_max_extras(records: list, samples: list, tol: float) -> tuple[dict, bool]:
    # Each trial's sample is its (gaps, margins, gains).
    gaps, margins, gains = (np.concatenate(lists) for lists in zip(*samples))
    invalid_fraction = _invalid_fraction(records)
    # np.max and np.min, unlike max and min, keep a NaN.
    max_value_gap = float(np.max(gaps, initial=0.0))
    min_margin = float(np.min(margins, initial=math.inf))
    min_gain = float(np.min(gains, initial=math.inf))
    extras = {
        "invalid_fraction": invalid_fraction,
        "max_value_gap": max_value_gap,
        "min_ascent_gain": min_gain,
        "min_joint_concavity_margin": min_margin,
        "value_agreement_rtol": VALUE_AGREEMENT_RTOL,
        "max_invalid_fraction": MAX_INVALID_FRACTION,
    }
    ok = (invalid_fraction <= MAX_INVALID_FRACTION and max_value_gap <= VALUE_AGREEMENT_RTOL
          and min_margin >= -tol and min_gain >= -tol)
    return extras, ok


def _values(runs) -> list:
    # The value of each run of a stacked result, None where it did not converge.
    return [v if ok else None for v, ok in zip(runs.value.tolist(), runs.converged.tolist())]


def _agreement(kind: str, value: float | None, maximizer: np.ndarray,
               closed_form: Callable[[], tuple]) -> list[BoundTrial]:
    """Value and argmax gaps of one optimizer run, minus their budgets.

    ``value`` is None for a run that did not converge, which gives one
    invalid record.  Otherwise ``closed_form()`` gives the exact ``(value,
    maximizer)``, maximizers as entries, their norms one matrix at a time.
    """
    if value is None:
        return [BoundTrial(f"{kind}-value", 0.0, VALUE_AGREEMENT_RTOL, 0.0, 1.0, valid=False)]
    exact, x_star = closed_form()
    value_scale = 1.0 + abs(exact)
    argmax_scale = 1.0 + float(np.linalg.norm(x_star))
    value_gap = abs(value - exact) / value_scale
    argmax_gap = float(np.linalg.norm(maximizer - x_star)) / argmax_scale
    return [
        BoundTrial(f"{kind}-value", value_gap, VALUE_AGREEMENT_RTOL,
                   value_gap - VALUE_AGREEMENT_RTOL, value_scale),
        BoundTrial(f"{kind}-argmax", argmax_gap, _ARGMAX_AGREEMENT_TOL,
                   argmax_gap - _ARGMAX_AGREEMENT_TOL, argmax_scale),
    ]


def variational_trial(rngs: Rngs, dim: int, tol: float) -> tuple[list, list]:
    """Optimizer agreement with the closed-form maximizers.

    Maximizes the trace variational objective on a random ``Y`` (argmax
    must be ``Y`` with value ``tr Y``) and the trace-exponential objective
    on a conditioned ``(H, A)`` pair (argmax ``exp(H + log A)`` with value
    ``tr exp(H + log A)``), all in one stack.  Recorded violations are
    normalized gaps minus their budgets (1e-6 for values, 1e-4 for
    maximizers).
    """
    y = validate_pd_stack(pd_draws(rngs, dim, 0.1)[:, 0])
    h, a = _lieb_instances(rngs, dim, 1)
    # Row (s, 0) is Y as H = 0, A = Y.  The samples live on here only.
    h, a = np.stack((np.zeros_like(h), h), axis=1), pd_stack((y, a[:, 0]), axis=1)
    del y
    runs = maximize_liebs(h, a)
    values, x = _values(runs), runs.maximizer.entries
    # One stacked exponential of H + log A, for the converged lieb runs,
    # gives each argmax exp(H + log A) and its trace, in trial order.
    done = [s for s in range(len(rngs)) if values[2 * s + 1] is not None]
    closed_forms = iter(())
    if done:
        x_star = pd_exp(h[done, 1] + a.log[done, 1])
        closed_forms = ((float(w.sum()), e) for w, e in zip(x_star.eigenvalues, x_star.entries))
    records = []
    for s in range(len(rngs)):
        y = a.entries[s, 0]
        records += _agreement("variational", values[2 * s], x[2 * s], lambda: (float(traces(y)), y))
        records += _agreement("lieb", values[2 * s + 1], x[2 * s + 1], lambda: next(closed_forms))
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
    of None is not passed to the chunk function.
    """

    name: str | None
    first: int
    count: Callable[[int], int]


class Suite(NamedTuple):
    """One row of ``SUITES``: a function of a chunk of trials and its run defaults.

    ``trial(rngs, dim, tol, [kind,] **options)`` returns ``(records,
    samples)`` for consecutive trials, trial ``s`` drawn from ``rngs[s]``,
    records in trial order; a chunk of one runs one trial alone.
    ``options`` holds the default of each option the config echo records.
    ``extras(records, samples, tol)`` reduces the samples of a whole run to
    the report's extras and whether they pass.  ``width`` is the number of
    matrices one trial stacks.
    """

    trial: Callable[..., tuple[list, list]]
    trials: int = 200
    tol: float = 1e-9
    kinds: tuple = (Kind(None, 0, lambda trials: trials),)
    options: dict = {}
    extras: Callable[..., tuple[dict, bool]] = lambda records, samples, tol: ({}, True)
    width: int = len(T_GRID) + 1


# Every suite, in the order ``verify --suite all`` runs them.  partial-max
# runs one optimization per evaluation, hence fewer trials and a looser
# tolerance.  Klein's kinds start a million indices apart, so their
# streams do not meet up to _MAX_TRIALS.
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
    "variational": Suite(variational_trial, extras=_variational_extras, width=2),
}


def suite_args(
    name: str, dim: int, trials: int | None, seed: int, tol: float | None
) -> tuple[int, float]:
    """The ``(trials, tol)`` of one run of suite ``name``, defaults filled in.

    Raises ValueError when ``dim`` lies outside [1, 64], ``trials`` lies
    outside [1, 10**6], ``seed`` lies outside [0, 2**64) or ``tol`` is not
    positive and finite: an infinite ``tol`` would pass every violation.
    """
    row = SUITES[name]
    trials = row.trials if trials is None else trials
    tol = row.tol if tol is None else tol
    if not 1 <= dim <= _MAX_DIM:
        raise ValueError(f"dim must lie in [1, {_MAX_DIM}], got {dim}")
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {_MAX_TRIALS}], got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return trials, tol


def chunk_trials(dim: int, width: int) -> int:
    """Trials per chunk: as many trials of ``width`` matrices as one block holds.

    A block is ``_BLOCK_BYTES`` of complex entries: 11 trials at dim 6,
    409 at dim 1, one from dim 15 on for the mixtures of a segment.
    """
    return max(1, _block_rows(dim) // width)


def _run_chunk(name: str, seed: int, kind: Kind, indices: range, dim: int, tol: float,
               options: dict) -> tuple[list, list]:
    """Suite ``name``'s trials ``indices`` of ``kind``, as one chunk.

    Should the chunk raise, its trials run again one at a time, in order,
    so that the first one that fails raises what it raises alone.  Should
    none fail alone, the chunk's own error is raised: the stacked path
    has a defect that single trials do not reach.  The error raised keeps
    its class and gains ``trial_key``, naming the suite, kind and index
    within the kind of the trial (or the chunk's trials) that raised it.
    """
    trial = SUITES[name].trial
    named = () if kind.name is None else (kind.name,)
    label = name if kind.name is None else f"{name} {kind.name}"

    def run(trials: range) -> tuple[list, list]:
        try:
            return trial([trial_rng(seed, i) for i in trials], dim, tol, *named, **options)
        except Exception as exc:
            first, last = trials[0] - kind.first, trials[-1] - kind.first
            where = f"trial {first}" if first == last else f"trials {first}-{last} as one chunk"
            exc.trial_key = f"{label} {where}"
            raise

    try:
        return run(indices)
    except Exception as exc:  # noqa: BLE001 - located below, trial by trial
        if len(indices) == 1:
            raise
        error = exc
    for i in indices:
        run(range(i, i + 1))
    raise error


def _run_tasks(run: Callable, tasks: list, threads: int) -> list:
    """``run(task)`` for every task, the results in task order.

    The calling thread and ``threads - 1`` more take tasks from one queue
    in task order.  Once a task raises, or the calling thread is
    interrupted, no thread takes another.  When every thread is done, the
    error of the lowest failing task is raised: every earlier task was
    taken before it, so it has run to its end.  No thread outlives the
    call.
    """
    results: list = [None] * len(tasks)
    errors: dict = {}
    queue = iter(range(len(tasks)))
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while not stop.is_set():
            with lock:
                k = next(queue, None)
            if k is None:
                return
            try:
                results[k] = run(tasks[k])
            except BaseException as exc:  # noqa: BLE001 - raised below, lowest task first
                errors[k] = exc
                stop.set()

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def run_suite(
    name: str, dim: int, trials: int | None, seed: int, tol: float | None, **options
) -> SuiteReport:
    """Run every trial of suite ``name``, kind by kind, in index order, in chunks.

    Consecutive trials of a kind go to the row's function in chunks of
    :func:`chunk_trials`.  From dim ``_THREADED_DIM`` on, two threads (at
    most one per usable CPU) run the chunks while numpy's OpenBLAS is held
    at one thread; elsewhere, or where that hold is not available, the
    chunks run one after another.  Either way the records and samples are
    merged in chunk order, so the report is the same.  ``trials`` and
    ``tol`` of None take the row's defaults; ``options`` go to every
    chunk.  The suite passes when every valid violation is at most ``tol``
    and the row's extras pass.  A non-finite valid violation fails the
    suite and makes ``max_violation`` NaN (Python's ``max`` would skip a
    NaN that does not come first).
    """
    trials, tol = suite_args(name, dim, trials, seed, tol)
    row = SUITES[name]
    options = {**row.options, **options}
    chunk = chunk_trials(dim, row.width)
    tasks = [
        (kind, range(kind.first + first, kind.first + min(first + chunk, kind.count(trials))))
        for kind in row.kinds
        for first in range(0, kind.count(trials), chunk)
    ]

    def run(task: tuple) -> tuple[list, list]:
        return _run_chunk(name, seed, *task, dim, tol, options)

    threads = min(2, usable_cpus()) if dim >= _THREADED_DIM else 1
    if threads > 1:
        with one_blas_thread() as held:
            outcomes = _run_tasks(run, tasks, threads if held else 1)
    else:
        outcomes = _run_tasks(run, tasks, 1)
    records: list = []
    samples: list = []
    for chunk_records, chunk_samples in outcomes:
        records += chunk_records
        samples += chunk_samples
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

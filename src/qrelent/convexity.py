"""Randomized midpoint/Jensen testers for convexity and concavity claims.

These are falsification harnesses, not proofs: each suite draws seeded
random instances, evaluates the claimed inequality along segments (or
against a scalar bound), and reports normalized violations.  A report is
a pure function of ``(dim, trials, seed, tol)``; every trial derives its
own generator from the master seed and the trial index, so reruns are
identical regardless of evaluation order.  ``SUITES`` lists every suite
with its defaults.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .divergence import klein_check, relative_entropy
from .errors import SegmentEvaluationError
from .hermitian import (
    HermitianMatrix,
    PdMatrix,
    mat_exp,
    mat_log,
    sample_hermitian,
    sample_pd,
    trial_rng,
    validate_pd,
)
from .matrixio import matrix_to_dict
from .variational import (
    OptimizeConfig,
    maximize_lieb,
    maximize_variational,
    trace_exp_log,
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
    claimed inequality failed.  ``witness`` carries the offending instance
    (in the matrix file format) when the trial violates the tolerance.
    """

    t: float
    lhs: float
    rhs: float
    violation: float
    scale: float
    valid: bool = True
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "t": self.t,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "violation": self.violation,
            "scale": self.scale,
        }
        if not self.valid:
            out["valid"] = False
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclasses.dataclass(frozen=True)
class BoundTrial:
    """One scalar bound check (used by the klein and variational suites)."""

    kind: str
    value: float
    bound: float
    violation: float
    scale: float
    valid: bool = True

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "value": self.value,
            "bound": self.bound,
            "violation": self.violation,
            "scale": self.scale,
        }
        if not self.valid:
            out["valid"] = False
        return out


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
            "trials": [t.to_json_dict() for t in self.trials],
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


def _mix_component(t: float, a: Matrix, b: Matrix) -> Matrix:
    """Componentwise mixture ``t a + (1-t) b``; PD components are revalidated."""
    if isinstance(a, PdMatrix) and isinstance(b, PdMatrix):
        return validate_pd(a.base * t + b.base * (1.0 - t))
    if isinstance(a, HermitianMatrix) and isinstance(b, HermitianMatrix):
        return a * t + b * (1.0 - t)
    raise TypeError(f"cannot mix {type(a).__name__} with {type(b).__name__}")


def _mix_point(t: float, p1: tuple, p2: tuple) -> tuple:
    return tuple(_mix_component(t, a, b) for a, b in zip(p1, p2))


def _call(f: Callable[..., float | None], point: tuple, t: float) -> float | None:
    try:
        value = f(*point)
        return None if value is None else float(value)
    except Exception as exc:  # noqa: BLE001 - re-raised with context
        raise SegmentEvaluationError(t, str(exc)) from exc


def segment_test(
    f: Callable[..., float | None],
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

    ``f`` returns None for a point it could not evaluate (an optimizer run
    that did not converge).  The comparison at that ``t`` is then recorded
    as invalid; when an endpoint is None, every comparison is, and no
    mixture is evaluated.
    """
    orient = _ORIENTATIONS[orientation]
    p1, p2 = _as_point(p1), _as_point(p2)
    f1 = _call(f, p1, 1.0)
    f2 = _call(f, p2, 0.0)
    if f1 is None or f2 is None:
        return [SegmentTrial(float(t), 0.0, 0.0, 0.0, 1.0, valid=False) for t in t_samples]
    scale = 1.0 + abs(f1) + abs(f2)
    trials = []
    for t in t_samples:
        t = float(t)
        lhs = _call(f, _mix_point(t, p1, p2), t)
        if lhs is None:
            trials.append(SegmentTrial(t, 0.0, 0.0, 0.0, scale, valid=False))
            continue
        rhs = t * f1 + (1.0 - t) * f2
        violation = (lhs - rhs) * orient / scale
        trials.append(SegmentTrial(t, lhs, rhs, violation, scale))
    return trials


def _witness(t: float, p1: tuple, p2: tuple) -> dict:
    return {
        "t": t,
        "p1": [matrix_to_dict(m) for m in p1],
        "p2": [matrix_to_dict(m) for m in p2],
    }


def _attach_witnesses(trials, p1, p2, tol):
    out = []
    for tr in trials:
        if tr.valid and tr.violation > tol:
            tr = dataclasses.replace(tr, witness=_witness(tr.t, p1, p2))
        out.append(tr)
    return out


def _echo(dim: int, trials: int, seed: int, tol: float, **more) -> dict:
    return {"dim": dim, "trials": trials, "seed": seed, "tol": tol, **more}


def _invalid_fraction(records: list) -> float:
    return sum(not r.valid for r in records) / len(records) if records else 1.0


def _finish(name, records, tol, config_echo, extras=None, extra_ok=True):
    """The suite's report: it passes when every valid violation is at most ``tol``.

    A non-finite valid violation fails the suite and makes ``max_violation``
    NaN (Python's ``max`` would skip a NaN that does not come first).
    """
    valid_violations = [r.violation for r in records if r.valid]
    if all(math.isfinite(v) for v in valid_violations):
        max_violation = max(valid_violations, default=math.nan)
    else:
        max_violation = math.nan
    passed = bool(valid_violations) and max_violation <= tol and extra_ok
    return SuiteReport(
        suite_name=name,
        trials=records,
        max_violation=max_violation,
        passed=passed,
        config_echo=config_echo,
        invalid_trials=sum(not r.valid for r in records),
        extras=extras or {},
    )


def _check_args(dim: int, trials: int, tol: float, max_dim: int = _MAX_DIM) -> None:
    if not 1 <= dim <= max_dim:
        raise ValueError(f"dim must lie in [1, {max_dim}], got {dim}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")


def _t_samples(rng: np.random.Generator) -> tuple:
    return T_GRID + (float(rng.uniform()),)


def klein_suite(dim: int, trials: int, seed: int, tol: float) -> SuiteReport:
    """Nonnegativity of the divergence on random PD pairs.

    Three trial kinds: ``nonneg`` (D >= -tol * scale on random pairs),
    ``identity`` (D(X;X) <= tol * scale), and ``separated`` (D >= 1e-8
    whenever the pair is at least 0.1 apart in Frobenius norm).
    """
    _check_args(dim, trials, tol)
    records: list[BoundTrial] = []
    for i in range(trials):
        rng = trial_rng(seed, i)
        x = sample_pd(rng, dim, 0.1)
        y = sample_pd(rng, dim, 0.1)
        scale = 1.0 + x.frobenius_norm() + y.frobenius_norm()
        check = klein_check(x, y, tol * scale)
        records.append(
            BoundTrial("nonneg", check.value, 0.0, -check.value / scale, scale)
        )

    for i in range(max(1, trials // 5)):
        rng = trial_rng(seed, 1_000_000 + i)
        x = sample_pd(rng, dim, 0.1)
        value = relative_entropy(x, x).value
        scale = 1.0 + x.frobenius_norm()
        records.append(BoundTrial("identity", value, 0.0, abs(value) / scale, scale))

    for i in range(min(100, trials)):
        rng = trial_rng(seed, 2_000_000 + i)
        x = sample_pd(rng, dim, 0.1)
        y = sample_pd(rng, dim, 0.1)
        for _ in range(1000):
            if (x.base - y.base).frobenius_norm() >= _SEPARATION_DISTANCE:
                break
            y = sample_pd(rng, dim, 0.1)
        value = relative_entropy(x, y).value
        records.append(
            BoundTrial(
                "separated", value, _SEPARATION_MIN_DIVERGENCE,
                _SEPARATION_MIN_DIVERGENCE - value, 1.0,
            )
        )
    return _finish("klein", records, tol, _echo(dim, trials, seed, tol))


def joint_convexity_suite(dim: int, trials: int, seed: int, tol: float) -> SuiteReport:
    """Joint convexity of the relative entropy under simultaneous mixing.

    Each trial draws a random PD quadruple (X1, Y1, X2, Y2) and tests
    ``D(t X1 + (1-t) X2; t Y1 + (1-t) Y2) <= t D(X1;Y1) + (1-t) D(X2;Y2)``
    on the t-grid.  The report also records the smallest divergence value
    seen anywhere, which nonnegativity requires to stay above ``-tol``.
    """
    _check_args(dim, trials, tol)
    f = lambda x, y: relative_entropy(x, y).value
    all_trials: list[SegmentTrial] = []
    min_value = math.inf
    for i in range(trials):
        rng = trial_rng(seed, i)
        x1 = sample_pd(rng, dim, 0.1)
        y1 = sample_pd(rng, dim, 0.1)
        x2 = sample_pd(rng, dim, 0.1)
        y2 = sample_pd(rng, dim, 0.1)
        p1, p2 = (x1, y1), (x2, y2)
        seg = segment_test(f, p1, p2, _t_samples(rng), "convex")
        min_value = min(min_value, f(x1, y1), f(x2, y2), *(tr.lhs for tr in seg))
        all_trials.extend(_attach_witnesses(seg, p1, p2, tol))
    return _finish(
        "joint-convexity",
        all_trials,
        tol,
        _echo(dim, trials, seed, tol),
        extras={"min_divergence_value": min_value},
    )


def lieb_concavity_suite(
    dim: int, trials: int, seed: int, tol: float, orientation: str = "concave"
) -> SuiteReport:
    """Concavity of ``A -> tr exp(H + log A)`` for fixed self-adjoint ``H``.

    ``orientation`` exists for the harness self-test: running the same
    instances with ``"convex"`` must fail for generic dim >= 2, proving
    the tester can detect violations at all.
    """
    _check_args(dim, trials, tol)
    all_trials: list[SegmentTrial] = []
    for i in range(trials):
        rng = trial_rng(seed, i)
        h = sample_hermitian(rng, dim, 3.0)
        a1 = sample_pd(rng, dim, 0.1)
        a2 = sample_pd(rng, dim, 0.1)
        seg = segment_test(
            lambda a: trace_exp_log(h, a), (a1,), (a2,), _t_samples(rng), orientation
        )
        all_trials.extend(_attach_witnesses(seg, (a1,), (a2,), tol))
    return _finish(
        "lieb-concavity",
        all_trials,
        tol,
        _echo(dim, trials, seed, tol, orientation=orientation),
    )


def fenchel_convexity_suite(dim: int, trials: int, seed: int, tol: float) -> SuiteReport:
    """Convexity of ``H -> tr exp(H + log A)`` for fixed positive-definite ``A``.

    As the partial maximum of ``tr(XH) - (D(X;A) - tr A)`` over ``X``, the
    map is a supremum of affine functions of ``H`` (a Fenchel conjugate).
    """
    _check_args(dim, trials, tol)
    all_trials: list[SegmentTrial] = []
    for i in range(trials):
        rng = trial_rng(seed, i)
        a = sample_pd(rng, dim, 0.1)
        h1 = sample_hermitian(rng, dim, 3.0)
        h2 = sample_hermitian(rng, dim, 3.0)
        seg = segment_test(
            lambda h: trace_exp_log(h, a), (h1,), (h2,), _t_samples(rng), "convex"
        )
        all_trials.extend(_attach_witnesses(seg, (h1,), (h2,), tol))
    return _finish("fenchel", all_trials, tol, _echo(dim, trials, seed, tol))


def _centered_pd(rng: np.random.Generator, dim: int, spread: float) -> PdMatrix:
    """Random PD matrix rescaled so its log-spectrum is centered at zero."""
    a = sample_pd(rng, dim, spread)
    w = a.spectrum.eigenvalues
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


def partial_max_concavity_suite(
    dim: int,
    trials: int,
    seed: int,
    tol: float,
    cfg: OptimizeConfig | None = None,
) -> SuiteReport:
    """Concavity of the optimizer-evaluated partial maximum over ``X``.

    Defines ``g(A)`` as the maximum of ``tr(XH) - (D(X;A) - tr A)`` found
    by gradient ascent (identity start) and segment-tests ``g`` with the
    concave orientation.  Every converged evaluation is also compared
    against the direct value ``tr exp(H + log A)``; non-converged
    evaluations mark the affected trials invalid, and more than 5% invalid
    fails the suite, as does a value-agreement gap beyond
    ``VALUE_AGREEMENT_RTOL``.
    """
    _check_args(dim, trials, tol, SUITES["partial-max"].dim_cap)
    all_trials: list[SegmentTrial] = []
    max_value_gap = 0.0

    for i in range(trials):
        rng = trial_rng(seed, i)
        h, a1 = sample_lieb_instance(rng, dim)
        a2 = _centered_pd(rng, dim, 0.3)

        def g(a: PdMatrix) -> float | None:
            nonlocal max_value_gap
            res = maximize_lieb(h, a, PdMatrix.identity(dim), cfg)
            if not res.converged:
                return None
            direct = trace_exp_log(h, a)
            max_value_gap = max(max_value_gap, abs(res.value - direct) / (1.0 + abs(direct)))
            return res.value

        seg = segment_test(g, (a1,), (a2,), _t_samples(rng), "concave")
        all_trials.extend(_attach_witnesses(seg, (h, a1), (h, a2), tol))

    invalid_fraction = _invalid_fraction(all_trials)
    extra_ok = invalid_fraction <= MAX_INVALID_FRACTION and max_value_gap <= VALUE_AGREEMENT_RTOL
    return _finish(
        "partial-max",
        all_trials,
        tol,
        _echo(dim, trials, seed, tol),
        extras={
            "invalid_fraction": invalid_fraction,
            "max_value_gap": max_value_gap,
            "value_agreement_rtol": VALUE_AGREEMENT_RTOL,
            "max_invalid_fraction": MAX_INVALID_FRACTION,
        },
        extra_ok=extra_ok,
    )


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


def variational_suite(dim: int, trials: int, seed: int, tol: float) -> SuiteReport:
    """Optimizer agreement with the closed-form maximizers.

    Each trial maximizes the trace variational objective on a random ``Y``
    (argmax must be ``Y`` with value ``tr Y``) and the trace-exponential
    objective on a conditioned ``(H, A)`` pair (argmax ``exp(H + log A)``
    with value ``tr exp(H + log A)``).  Recorded violations are normalized
    gaps minus their budgets (1e-6 for values, 1e-4 for maximizers).
    """
    _check_args(dim, trials, tol)
    records: list[BoundTrial] = []
    for i in range(trials):
        rng = trial_rng(seed, i)
        y = sample_pd(rng, dim, 0.1)
        records += _agreement("variational", maximize_variational(y), lambda: (y.trace(), y))
        h, a = sample_lieb_instance(rng, dim)
        records += _agreement(
            "lieb", maximize_lieb(h, a),
            lambda: (trace_exp_log(h, a), mat_exp(h + mat_log(a))),
        )

    invalid_fraction = _invalid_fraction(records)
    return _finish(
        "variational",
        records,
        tol,
        _echo(dim, trials, seed, tol),
        extras={
            "invalid_fraction": invalid_fraction,
            "value_budget": VALUE_AGREEMENT_RTOL,
            "argmax_budget": _ARGMAX_AGREEMENT_TOL,
        },
        extra_ok=invalid_fraction <= MAX_INVALID_FRACTION,
    )


class Suite(NamedTuple):
    """One row of ``SUITES``: a suite function and its run defaults.

    ``run(dim, trials, seed, tol)`` returns a :class:`SuiteReport`.
    ``dim_cap`` is the largest dimension the function accepts; a run
    asked for more runs at the cap.
    """

    run: Callable[..., SuiteReport]
    trials: int = 200
    tol: float = 1e-9
    dim_cap: int = _MAX_DIM

    def resolve(
        self, dim: int, trials: int | None = None, tol: float | None = None
    ) -> tuple[int, int, float]:
        """The ``(dim, trials, tol)`` of one run: defaults filled in, dim capped.

        Raises ValueError when ``dim`` lies outside [1, 64], ``trials`` is
        below 1 or ``tol`` is not positive.
        """
        trials = self.trials if trials is None else trials
        tol = self.tol if tol is None else tol
        _check_args(dim, trials, tol)
        return min(dim, self.dim_cap), trials, tol


# Every suite, in the order ``verify --suite all`` runs them.  partial-max
# runs one optimization per evaluation, hence fewer trials, a looser
# tolerance and a capped dimension.
SUITES = {
    "klein": Suite(klein_suite),
    "joint-convexity": Suite(joint_convexity_suite),
    "lieb-concavity": Suite(lieb_concavity_suite),
    "partial-max": Suite(partial_max_concavity_suite, trials=50, tol=1e-8, dim_cap=16),
    "fenchel": Suite(fenchel_convexity_suite),
    "variational": Suite(variational_suite),
}

"""Segment tester and the named convexity/concavity suites."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from qrelent import (
    SUITES,
    DomainError,
    HermitianMatrix,
    PdMatrix,
    SegmentEvaluationError,
    T_GRID,
    fenchel_convexity_suite,
    joint_convexity_suite,
    lieb_concavity_suite,
    matrix_from_dict,
    partial_max_concavity_suite,
    pointwise,
    relative_entropy,
    run_suite,
    segment_test,
    trace_exp_log,
    trace_product,
    validate_pd,
)
from qrelent.convexity import chunk_trials
from qrelent.divergence import divergences, relative_entropies
from qrelent.hermitian import _check_floor, pd_draws, pd_stack
from qrelent.matrixio import json_default
from qrelent.segments import ByEigenvalues
from qrelent.variational import trace_exp_logs, trace_exps
from test_divergence import scalar_divergence


def divergence_value(x, y):
    return relative_entropy(x, y).value


def _lieb(h):
    """The lieb-concavity suite's stacked ``A -> tr exp(H + log A)``."""
    return lambda a: trace_exp_logs(h.entries, a.log)


def _fenchel(a):
    """The fenchel suite's stacked ``H -> tr exp(H + log A)``."""
    return lambda h: trace_exp_logs(h, a.log)


def _x_draw(rng, dim):
    """A ``sample_pd`` draw as entries, a stack of one, as joint-convexity's ``X``."""
    return pd_draws([rng], dim, 0.1)[0]


def _joint(x, y):
    """The joint-convexity suite's stacked ``D(X;Y)``: ``X`` as entries, its eigenvalues alone."""

    def finish(w):
        _check_floor(w)
        return relative_entropies(w, x, y.entries, y.log)[0]

    return ByEigenvalues(x, finish)


def _joint_pointwise(x, y):
    """:func:`_joint` of one self-adjoint ``X`` and one positive-definite ``Y``."""
    return float(_joint(x.entries, y).evaluate())


def _segment_instance(kind, dim, seed):
    """``(f, stacked, p1, p2, t_samples, orientation)`` as the named suite draws them.

    ``f`` is the claim's function of single matrices and ``stacked`` the
    suite's stacked evaluation of it.  As in joint-convexity, the X side
    is entries, whose eigenvalues alone ``f`` reads.
    """
    from conftest import sample_hermitian, sample_pd, trial_rng

    rng = trial_rng(seed, 0)
    if kind == "joint":
        p1 = (_x_draw(rng, dim), sample_pd(rng, dim, 0.1))
        p2 = (_x_draw(rng, dim), sample_pd(rng, dim, 0.1))
        f, stacked, orientation = _joint_pointwise, _joint, "convex"
    elif kind == "lieb":
        h = sample_hermitian(rng, dim, 3.0)
        p1, p2 = (sample_pd(rng, dim, 0.1),), (sample_pd(rng, dim, 0.1),)
        f, stacked, orientation = (lambda a: trace_exp_log(h, a)), _lieb(h), "concave"
    else:
        a = sample_pd(rng, dim, 0.1)
        p1, p2 = (sample_hermitian(rng, dim, 3.0),), (sample_hermitian(rng, dim, 3.0),)
        f, stacked, orientation = (lambda h: trace_exp_log(h, a)), _fenchel(a), "convex"
    return f, stacked, p1, p2, T_GRID + (float(rng.uniform()),), orientation


def _single(c):
    # An endpoint as pointwise hands it to f: entries, a stack of one, as a HermitianMatrix.
    return HermitianMatrix._exact(c[0]) if isinstance(c, np.ndarray) else c


def _mixture(a, b, t):
    # The mixture of two endpoints, built (and validated, if positive definite) on its own.
    if isinstance(a, PdMatrix):
        return validate_pd(a.base * t + b.base * (1.0 - t))
    return a * t + b * (1.0 - t)


def _per_point_segment(f, p1, p2, t_samples, orientation):
    """Reference segment test: every mixture built and validated on its own."""
    orient = {"convex": 1.0, "concave": -1.0}[orientation]
    f1, f2 = f(*map(_single, p1)), f(*map(_single, p2))
    scale = 1.0 + abs(f1) + abs(f2)
    out = []
    for t in t_samples:
        point = [_mixture(_single(a), _single(b), t) for a, b in zip(p1, p2)]
        lhs = f(*point)
        rhs = t * f1 + (1.0 - t) * f2
        out.append(((t, lhs, rhs, (lhs - rhs) * orient / scale, scale), point))
    return out


def _bits(m):
    parts = [m.entries.tobytes()]
    if isinstance(m, PdMatrix):
        parts += [m.eigenvalues.tobytes(), m.vectors.tobytes()]
    return parts


class TestSegmentTest:
    def test_affine_function_has_no_violations_either_way(self):
        p1 = PdMatrix.diagonal([1.0, 2.0])
        p2 = PdMatrix.diagonal([5.0, 0.3])
        for orientation in ("convex", "concave"):
            trials = segment_test(pointwise(lambda m: m.trace()), p1, p2, T_GRID, orientation)
            assert all(abs(tr.violation) <= 1e-12 for tr in trials)

    def test_scalar_parabola_midpoint(self):
        p1 = HermitianMatrix.diagonal([0.0])
        p2 = HermitianMatrix.diagonal([2.0])
        (trial,) = segment_test(pointwise(lambda m: m.trace() ** 2), p1, p2, [0.5], "convex")
        assert trial.lhs == pytest.approx(1.0)
        assert trial.rhs == pytest.approx(2.0)
        assert trial.scale == pytest.approx(5.0)
        assert trial.violation == pytest.approx(-0.2)

    def test_joint_divergence_on_random_quadruples(self):
        from conftest import sample_pd, trial_rng

        for i in range(20):
            rng = trial_rng(201, i)
            p1 = (sample_pd(rng, 4, 0.1), sample_pd(rng, 4, 0.1))
            p2 = (sample_pd(rng, 4, 0.1), sample_pd(rng, 4, 0.1))
            trials = segment_test(pointwise(divergence_value), p1, p2, T_GRID, "convex")
            assert all(tr.violation <= 1e-10 for tr in trials)

    def test_mixture_of_pd_points_is_validated_pd(self):
        p1 = PdMatrix.diagonal([1.0, 3.0])
        p2 = PdMatrix.diagonal([2.0, 0.5])
        seen = []
        segment_test(pointwise(lambda m: seen.append(m) or m.trace()), p1, p2, [0.25], "convex")
        mixture = seen[-1]
        assert isinstance(mixture, PdMatrix)
        assert mixture.min_eigenvalue > 0.0

    @pytest.mark.parametrize("dim", [1, 2, 6, 16, 64])
    @pytest.mark.parametrize("kind", ["joint", "lieb", "fenchel"])
    def test_stacked_mixtures_match_per_point_validation(self, kind, dim):
        f, stacked, p1, p2, ts, orientation = _segment_instance(kind, dim, 300 + dim)
        seen = []

        def recorded(*point):
            seen.append(point)
            return f(*point)

        trials = segment_test(pointwise(recorded), p1, p2, ts, orientation)
        reference = _per_point_segment(f, p1, p2, ts, orientation)
        assert [(tr.t, tr.lhs, tr.rhs, tr.violation, tr.scale) for tr in trials] == [
            fields for fields, _ in reference
        ]
        # seen[0] and seen[1] are the endpoints; the mixtures follow in t order.
        assert len(seen) == 2 + len(ts)
        for got, (_, want) in zip(seen[2:], reference):
            assert [type(m) for m in got] == [type(m) for m in want]
            assert [_bits(m) for m in got] == [_bits(m) for m in want]
        # The suite's stacked evaluation equals the per-point route bit for
        # bit, at the endpoints and at every t.

        def both(a, b):
            a, b = _single(a), _single(b)
            return pd_stack((a, b)) if isinstance(a, PdMatrix) else np.stack([a.entries, b.entries])

        ends = stacked(*(both(a, b) for a, b in zip(p1, p2)))
        if isinstance(ends, ByEigenvalues):
            ends = ends.evaluate()
        assert list(ends) == [f(*map(_single, p1)), f(*map(_single, p2))]
        trials = segment_test(stacked, p1, p2, ts, orientation)
        assert [(tr.t, tr.lhs, tr.rhs, tr.violation, tr.scale) for tr in trials] == [
            fields for fields, _ in reference
        ]

    @pytest.mark.parametrize("middle", [True, False])
    def test_stacked_mixture_at_or_below_floor_carries_its_t(self, middle):
        # Only the mixture at t = 0.7 is indefinite (liar's entries are not
        # those of its spectrum), in the middle or at the end of the stack.
        truth = PdMatrix.identity(2)
        liar = PdMatrix(np.diag([-1.0, 1.0]).astype(complex), truth.eigenvalues, truth.vectors)
        ts = [0.2, 0.7, 0.3] if middle else [0.2, 0.3, 0.7]
        h = HermitianMatrix.diagonal([0.5, -0.5])
        with pytest.raises(SegmentEvaluationError) as err:
            segment_test(_lieb(h), liar, PdMatrix.identity(2), ts, "concave")
        assert err.value.t == 0.7
        assert isinstance(err.value.__cause__, DomainError)

    @pytest.mark.parametrize("middle", [True, False])
    def test_stacked_exp_overflow_carries_its_t(self, middle):
        # liar's entries diag(e^701, 1) are not those of its spectrum, so the
        # endpoints evaluate; of the mixtures only the one at t = 0.9 puts
        # an eigenvalue of H + log A, about 701 + log t, above the guard.
        truth = PdMatrix.identity(2)
        # Entries, not a HermitianMatrix, which rejects them: ||diag(e^701, 1)||_F overflows.
        entries = np.diag([math.exp(701.0), 1.0]).astype(complex)
        liar = PdMatrix(entries, truth.eigenvalues, truth.vectors)
        ts = [0.1, 0.9, 0.3] if middle else [0.1, 0.3, 0.9]
        h = HermitianMatrix.zeros(2)
        with pytest.raises(SegmentEvaluationError) as err:
            segment_test(_lieb(h), liar, PdMatrix.identity(2), ts, "concave")
        assert err.value.t == 0.9
        assert isinstance(err.value.__cause__, OverflowError)
        # Without the t = 0.9 mixture, the same segment evaluates.
        assert len(segment_test(_lieb(h), liar, PdMatrix.identity(2), [0.1, 0.3], "concave")) == 2

    def test_mixture_failing_validation_carries_its_t(self):
        # A hand-built PdMatrix whose spectrum does not belong to its entries
        # makes the mixtures at t >= 0.5 indefinite.
        truth = PdMatrix.identity(2)
        liar = PdMatrix(np.diag([-1.0, 1.0]).astype(complex), truth.eigenvalues, truth.vectors)
        with pytest.raises(SegmentEvaluationError) as err:
            segment_test(
                pointwise(lambda m: m.trace()), liar, PdMatrix.identity(2), [0.2, 0.7], "convex"
            )
        assert err.value.t == 0.7
        assert isinstance(err.value.__cause__, DomainError)

    @pytest.mark.parametrize("t_bad", [0.5, 0.7])
    def test_by_eigenvalues_mixture_at_or_below_floor_carries_its_t(self, t_bad):
        # Entries whose eigenvalues finish checks against the floor, as
        # joint-convexity's X: the mixture at t = 0.5 has eigenvalue 0, the
        # one at 0.7 -0.4.  The endpoint values are given, as joint's are.
        liar, one = np.diag([-1.0, 1.0]).astype(complex)[None], np.eye(2, dtype=complex)[None]

        def f(x):
            def finish(w):
                _check_floor(w)
                return w.sum(axis=-1)

            return ByEigenvalues(x, finish)

        with pytest.raises(SegmentEvaluationError) as err:
            segment_test(f, liar, one, [0.2, t_bad], "convex", ends=[(0.0, 2.0)])
        assert err.value.t == t_bad
        assert isinstance(err.value.__cause__, DomainError)

    def test_evaluation_error_carries_offending_t(self):
        def boom(m):
            if abs(m.trace() - 1.5) < 1e-9:
                raise RuntimeError("boom")
            return m.trace()

        p1 = PdMatrix.diagonal([1.0])
        p2 = PdMatrix.diagonal([2.0])
        with pytest.raises(SegmentEvaluationError) as err:
            segment_test(pointwise(boom), p1, p2, [0.1, 0.5, 0.9], "convex")
        assert err.value.t == 0.5

    def test_none_evaluations_become_invalid_records(self):
        p1 = PdMatrix.diagonal([1.0])
        p2 = PdMatrix.diagonal([2.0])
        skip_mid = lambda m: None if abs(m.trace() - 1.5) < 1e-9 else m.trace()
        trials = segment_test(pointwise(skip_mid), p1, p2, [0.1, 0.5, 0.9], "convex")
        assert [tr.valid for tr in trials] == [True, False, True]
        skip_p2 = lambda m: None if m.trace() == 2.0 else m.trace()
        trials = segment_test(pointwise(skip_p2), p1, p2, [0.1, 0.5], "convex")
        assert [tr.valid for tr in trials] == [False, False]

    def test_no_t_gives_no_records(self):
        p1, p2 = PdMatrix.diagonal([1.0]), PdMatrix.diagonal([2.0])
        assert segment_test(pointwise(lambda m: m.trace()), p1, p2, [], "convex") == []

    def test_heterogeneous_points_rejected(self):
        with pytest.raises(TypeError):
            segment_test(
                pointwise(lambda m: m.trace()),
                PdMatrix.identity(2),
                HermitianMatrix.identity(2),
                [0.5],
                "convex",
            )


class TestJointConvexitySuite:
    def test_scalar_quadruple_against_scalar_oracle(self):
        # 1x1 quadruple (X1,Y1,X2,Y2) = (2,1,1,2): the mixture at t=0.5 is
        # (1.5, 1.5) where the divergence vanishes.
        p1 = (PdMatrix.diagonal([2.0]), PdMatrix.diagonal([1.0]))
        p2 = (PdMatrix.diagonal([1.0]), PdMatrix.diagonal([2.0]))
        (trial,) = segment_test(pointwise(divergence_value), p1, p2, [0.5], "convex")
        d1 = scalar_divergence(2.0, 1.0)
        d2 = scalar_divergence(1.0, 2.0)
        assert trial.lhs == pytest.approx(0.0, abs=1e-14)
        assert trial.rhs == pytest.approx((d1 + d2) / 2.0, rel=1e-14)
        assert trial.violation < 0.0

    def test_diagonal_quadruple_with_equal_pairs(self):
        # endpoints on the diagonal X=Y have zero divergence; mixtures stay
        # nonnegative, so every violation is <= 0 up to rounding
        x1 = PdMatrix.diagonal([1.0, 2.0])
        x2 = PdMatrix.diagonal([3.0, 0.5])
        trials = segment_test(pointwise(divergence_value), (x1, x1), (x2, x2), T_GRID, "convex")
        for tr in trials:
            assert tr.lhs >= -1e-12
            assert tr.violation <= 1e-12

    def test_random_suite_passes(self):
        report = joint_convexity_suite(4, 50, 7, 1e-10)
        assert report.passed
        assert report.max_violation <= 1e-10
        assert len(report.trials) == 50 * 10
        assert report.extras["min_divergence_value"] >= -1e-10

    def test_nan_divergence_reaches_min_divergence_value(self, monkeypatch):
        # the NaN lands on a later evaluation; a min() that skips it reports
        # the smallest finite value instead
        from qrelent import convexity

        calls = []

        def nan_in_4th_call(*args):
            # the 4th call evaluates the second chunk's mixtures (chunks of
            # 11 trials at dim 6)
            calls.append(None)
            value, *summands = divergences(*args)
            if len(calls) == 4:
                value = value.copy()
                value[1, 3] = math.nan
            return (value, *summands)

        monkeypatch.setattr(convexity, "divergences", nan_in_4th_call)
        report = joint_convexity_suite(6, 25, 42, 1e-9)
        assert len(calls) > 4
        assert not report.passed
        assert math.isnan(report.extras["min_divergence_value"])

    def test_negative_divergence_fails_the_suite(self, monkeypatch):
        # A constant divergence has no Jensen gap, so only the
        # nonnegativity gate on min_divergence_value can fail the suite.
        from qrelent import convexity

        def constant(x_eigenvalues, cross_term, trace_gap):
            shape = x_eigenvalues.shape[:-1]
            return (np.full(shape, -1.0),) + (np.zeros(shape),) * 2 + (np.ones(shape),)

        monkeypatch.setattr(convexity, "divergences", constant)
        report = joint_convexity_suite(3, 3, 42, 1e-9)
        assert report.max_violation <= 1e-9
        assert report.extras["min_divergence_value"] == -1.0
        assert not report.passed

    def test_pass_iff_max_violation_within_tol(self):
        report = joint_convexity_suite(3, 20, 11, 1e-10)
        assert report.passed == (report.max_violation <= 1e-10)

    def test_deterministic_reruns(self):
        a = joint_convexity_suite(3, 10, 5, 1e-10)
        b = joint_convexity_suite(3, 10, 5, 1e-10)
        assert json.dumps(a.to_json_dict(), sort_keys=True, default=json_default) == json.dumps(
            b.to_json_dict(), sort_keys=True, default=json_default
        )


@pytest.mark.parametrize("name", list(SUITES))
def test_rejects_bad_args(name):
    for dim, trials, seed, tol in [
        (0, 10, 1, 1e-10), (65, 10, 1, 1e-10), (4, 0, 1, 1e-10), (4, 10, 1, 0.0),
        # an infinite tol would pass every violation
        (4, 10, 1, math.inf), (4, 10, 1, math.nan),
        # -1 would otherwise draw the streams of 2**64 - 1
        (4, 10, -1, 1e-10), (4, 10, 2**64, 1e-10),
        # klein's kinds start a million indices apart
        (4, 1_000_001, 1, 1e-10),
    ]:
        with pytest.raises(ValueError):
            run_suite(name, dim, trials, seed, tol)


def test_chunk_holds_one_block_of_mixtures():
    # 16 bytes per complex entry, len(T_GRID) + 1 mixtures per trial
    width = len(T_GRID) + 1
    assert [chunk_trials(n, width) for n in (1, 6, 14, 15, 16, 64)] == [409, 11, 2, 1, 1, 1]
    # variational stacks two problems per trial; every other row the mixtures
    assert {name: row.width for name, row in SUITES.items()} == {
        **{name: width for name in SUITES}, "variational": 2}
    assert [chunk_trials(n, 2) for n in (6, 16, 64)] == [56, 8, 1]


def test_variational_stacks_each_chunk_of_its_width(monkeypatch):
    # 13 trials at dim 16 run as chunks of 8 and 5, two problems a trial,
    # each chunk one stacked ascent, on two threads in either order.
    from qrelent import convexity

    solver, rows = convexity.maximize_liebs, []

    def recorded(h, a, init=None):
        rows.append(len(a.entries.reshape(-1, 16, 16)))
        return solver(h, a, init)

    monkeypatch.setattr(convexity, "maximize_liebs", recorded)
    run_suite("variational", 16, 13, 42, None)
    assert sorted(rows) == [10, 16]


@pytest.mark.parametrize("name, dim", [("partial-max", 6), ("variational", 16)])
def test_optimizer_suites_build_no_per_matrix_objects(monkeypatch, name, dim):
    # The ascents' maximizers stay one stack from the ascent to the records:
    # no one-matrix PdMatrix and no HermitianMatrix is built for a row.
    built = []
    post_init, exact = PdMatrix.__post_init__, HermitianMatrix._exact.__func__

    def counted_post_init(self):
        if self.entries.ndim == 2:  # one matrix, not a stack
            built.append("PdMatrix")
        post_init(self)

    def counted_exact(cls, m):
        built.append("HermitianMatrix._exact")
        return exact(cls, m)

    monkeypatch.setattr(PdMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(HermitianMatrix, "_exact", classmethod(counted_exact))
    assert run_suite(name, dim, 13, 42, None).passed
    assert built == []


@pytest.mark.parametrize("dim, trials", [
    (3, 3),
    # chunks of 409 and of 11: 25 trials end mid-chunk (11, 11 and 3 at dim 6)
    (1, 25), (6, 25),
    # variational runs chunks of 8 at dim 16 and of 56 at dim 6: 13 = 8 + 5
    # and 61 = 56 + 5 end mid-chunk (the other suites: 13 chunks of one,
    # and 5 chunks of 11 and one of 6)
    (16, 13), (6, 61),
])
@pytest.mark.parametrize("name, options", [
    *((name, {}) for name in SUITES),
    # violations carry witnesses, which must replay too
    ("lieb-concavity", {"orientation": "convex"}),
])
def test_each_trial_replays_alone(name, options, dim, trials):
    # A run chunks its trials; each trial, run alone as a chunk of one,
    # gives the same records byte for byte.
    from conftest import trial_rng

    row = SUITES[name]
    report = run_suite(name, dim, trials, 42, None, **options)
    full = [json.dumps(r, default=json_default) for r in report.trials]
    start = 0
    for kind in row.kinds:
        named = () if kind.name is None else (kind.name,)
        for i in range(kind.count(trials)):
            records, _ = row.trial(
                [trial_rng(42, kind.first + i)], dim, row.tol, *named,
                **{**row.options, **options}
            )
            replayed = [json.dumps(r, default=json_default) for r in records]
            assert replayed == full[start:start + len(replayed)], (kind.name, i)
            start += len(replayed)
    assert start == len(full)


def _validate_with_liar(monkeypatch, target, liar):
    """Make convexity's validate_pd_stack give ``liar``'s entries wherever it validates ``target``.

    The matrix keeps ``target``'s spectrum, which its endpoint value reads,
    but gets other entries, which its mixtures read.
    """
    from qrelent import convexity

    validate = convexity.validate_pd_stack

    def validate_with_liar(entries):
        stack = validate(entries)
        hit = np.all(stack.entries == target, axis=(-2, -1))
        if not hit.any():
            return stack
        swapped = stack.entries.copy()
        swapped[hit] = liar
        return PdMatrix(swapped, stack.eigenvalues, stack.vectors)

    monkeypatch.setattr(convexity, "validate_pd_stack", validate_with_liar)


def _lieb_chunk_liar(monkeypatch, k, kind, dim=6):
    """Make trial ``k`` of lieb-concavity (seed 42, ``dim``) fail at a mixture, alone or chunked.

    Trial ``k``'s ``A1`` gets other entries (:func:`_validate_with_liar`):
    ``-A2`` makes the mixture at t = 0.5 zero (``"floor"``), and
    ``diag(e^701, 1, ...)`` puts an eigenvalue of ``H + log A_t`` above
    the exp-overflow guard (``"overflow"``).
    """
    from conftest import trial_rng
    from qrelent.hermitian import hermitian_draws, pd_draws

    rng = trial_rng(42, k)
    hermitian_draws([rng], dim, 3.0)
    a1, a2 = pd_draws([rng], dim, 0.1, 2)[0]
    liar = -a2 if kind == "floor" else np.diag([math.exp(701.0)] + [1.0] * (dim - 1)).astype(complex)
    _validate_with_liar(monkeypatch, a1, liar)


def _joint_chunk_liar(monkeypatch, k, dim):
    """Make trial ``k`` of joint-convexity (seed 42, ``dim``) fail at t = 0.5.

    The X-mixtures of trial ``k`` are built from ``-X2`` in place of
    ``X1``, so that the one at t = 0.5 is zero, at the floor; the
    endpoints keep their entries, and so their values.
    """
    from conftest import trial_rng
    from qrelent import segments

    x1, _, x2, _ = pd_draws([trial_rng(42, k)], dim, 0.1, 4)[0]
    build = segments.mixtures

    def mixtures_with_liar(a, b, ts):
        hit = np.all(a == x1, axis=(-2, -1))
        if hit.any():
            a = a.copy()
            a[hit] = -x2
        return build(a, b, ts)

    monkeypatch.setattr(segments, "mixtures", mixtures_with_liar)


def _fenchel_chunk_liar(monkeypatch, k, dim):
    """Make trial ``k`` of fenchel (seed 42, ``dim``) fail at its endpoint t = 0.0.

    Trial ``k``'s ``H2`` gets the entries ``diag(710, 0, ...)``, so that
    ``H2 + log A`` has an eigenvalue above the exp-overflow guard.
    """
    from conftest import trial_rng
    from qrelent import convexity
    from qrelent.hermitian import pd_draws

    rng = trial_rng(42, k)
    pd_draws([rng], dim, 0.1)
    draw = convexity.hermitian_draws
    h2 = draw([rng], dim, 3.0, 2)[0, 1]

    def draw_with_liar(rngs, dim, radius, count=1):
        h = draw(rngs, dim, radius, count)
        h[np.all(h == h2, axis=(-2, -1))] = np.diag([710.0] + [0.0] * (dim - 1))
        return h

    monkeypatch.setattr(convexity, "hermitian_draws", draw_with_liar)


class TestChunkFailures:
    @pytest.mark.parametrize("k", [3, 14])
    @pytest.mark.parametrize("kind, cause", [("floor", DomainError), ("overflow", OverflowError)])
    def test_failing_trial_raises_in_a_chunk_what_it_raises_alone(self, monkeypatch, k, kind, cause):
        # 25 trials at dim 6 run as chunks of 11, 11 and 3; trial 3 sits in
        # the first chunk, trial 14 in the second.
        from conftest import trial_rng
        from qrelent import convexity

        _lieb_chunk_liar(monkeypatch, k, kind)
        with pytest.raises(SegmentEvaluationError) as alone:
            convexity.lieb_concavity_trial([trial_rng(42, k)], 6, 1e-9, "concave")
        first = k - k % 11
        with pytest.raises(SegmentEvaluationError) as chunked:
            convexity.lieb_concavity_trial(
                [trial_rng(42, i) for i in range(first, first + 11)], 6, 1e-9, "concave")
        with np.errstate(over="ignore"), pytest.raises(SegmentEvaluationError) as suite:
            lieb_concavity_suite(6, 25, 42, 1e-9)
        # a mixture fails, not an endpoint (t = 1.0 or 0.0)
        assert isinstance(alone.value.__cause__, cause) and 0.0 < alone.value.t < 1.0
        if kind == "floor":
            assert alone.value.t == 0.5
        for err in (chunked, suite):
            assert (str(err.value), err.value.t) == (str(alone.value), alone.value.t)
            assert type(err.value.__cause__) is cause
            assert str(err.value.__cause__) == str(alone.value.__cause__)

    def test_a_chunk_that_raises_runs_its_trials_alone(self, monkeypatch):
        # A failure the chunk cannot place (here, in its sampling) reruns
        # the chunk's trials one at a time: the first trial that fails
        # alone raises, here the second of the chunk.
        from qrelent import convexity

        draws = convexity.pd_draws
        chunks = []

        def failing(rngs, dim, spread, count=1):
            chunks.append(len(rngs))
            if len(rngs) > 1 or len(chunks) == 3:
                raise DomainError(f"injected in call {len(chunks)}")
            return draws(rngs, dim, spread, count)

        monkeypatch.setattr(convexity, "pd_draws", failing)
        with pytest.raises(DomainError, match="injected in call 3"):
            joint_convexity_suite(6, 25, 42, 1e-9)
        assert chunks == [11, 1, 1]

    def test_stack_of_segments_equals_each_segment_alone(self):
        # segment_test on three segments, each with its own t, against each
        # segment as a stack of one; a failure in the third is raised with
        # the t it has alone.
        from conftest import sample_pd, trial_rng

        rng = trial_rng(44, 0)
        h = HermitianMatrix.diagonal([0.5, -0.5])
        a1s = [sample_pd(rng, 2, 0.1) for _ in range(3)]
        a2s = [sample_pd(rng, 2, 0.1) for _ in range(3)]
        ts = [[0.2, 0.6], [0.3, 0.9], [0.25, 0.75]]
        stacked = segment_test(_lieb(h), pd_stack(a1s), pd_stack(a2s), ts, "concave")
        alone = [tr for a1, a2, t in zip(a1s, a2s, ts)
                 for tr in segment_test(_lieb(h), a1, a2, t, "concave")]
        assert stacked == alone
        truth = PdMatrix.identity(2)
        liar = PdMatrix(np.diag([-1.0, 1.0]).astype(complex), truth.eigenvalues, truth.vectors)
        with pytest.raises(SegmentEvaluationError) as err:
            segment_test(_lieb(h), pd_stack(a1s[:2] + [liar]),
                         pd_stack(a2s[:2] + [PdMatrix.identity(2)]), ts, "concave")
        assert err.value.t == 0.75


class TestStackedPathDefects:
    # A failure that no trial or point raises alone is a defect of the
    # stacked path: it is raised, not replaced by the one-at-a-time results.

    def test_chunk_failure_no_trial_raises_alone_is_raised(self, monkeypatch):
        from qrelent import convexity

        row = SUITES["fenchel"]

        def stacked_only_bug(rngs, *args, **options):
            if len(rngs) > 1:
                raise IndexError("stacked path only")
            return row.trial(rngs, *args, **options)

        monkeypatch.setitem(convexity.SUITES, "fenchel", row._replace(trial=stacked_only_bug))
        with pytest.raises(IndexError, match="stacked path only"):
            run_suite("fenchel", 6, 30, 42, None)

    def test_piece_failure_no_point_raises_alone_is_raised(self):
        from conftest import sample_pd, trial_rng

        rng = trial_rng(45, 0)
        a1 = pd_stack([sample_pd(rng, 2, 0.1) for _ in range(2)])
        a2 = pd_stack([sample_pd(rng, 2, 0.1) for _ in range(2)])

        def stacked_only_bug(a):
            if a.entries.shape[0] * a.entries.shape[1] > 1:
                raise IndexError("stacked path only")
            return a.eigenvalues.sum(axis=-1)

        with pytest.raises(IndexError, match="stacked path only"):
            segment_test(stacked_only_bug, a1, a2, [0.2, 0.5, 0.8], "concave")


def test_flipped_lieb_witnesses_wrap_no_matrices(monkeypatch):
    # Witness matrices are serialized from the stacks' entries: no
    # HermitianMatrix or one-matrix PdMatrix is built for them.
    built = []
    post_init, exact = PdMatrix.__post_init__, HermitianMatrix._exact.__func__

    def counted_post_init(self):
        if self.entries.ndim == 2:  # one matrix, not a stack
            built.append("PdMatrix")
        post_init(self)

    def counted_exact(cls, m):
        built.append("HermitianMatrix._exact")
        return exact(cls, m)

    monkeypatch.setattr(PdMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(HermitianMatrix, "_exact", classmethod(counted_exact))
    report = run_suite("lieb-concavity", 6, 25, 42, None, orientation="convex")
    assert not report.passed
    assert sum("p1" in (r.witness or {}) for r in report.trials) == 25
    assert built == []


@pytest.mark.parametrize("name, options", [
    ("lieb-concavity", {"orientation": "convex"}),
    ("joint-convexity", {}),
])
def test_witness_matrices_stay_arrays_until_the_writer(monkeypatch, name, options):
    # A failing run keeps each witness matrix as a complex array of its
    # entries, a copy that owns its data; the writer alone makes its
    # matrix file dict.
    if name == "joint-convexity":
        from qrelent import convexity

        monkeypatch.setattr(convexity, "divergences",
                            lambda *args: tuple(-v for v in divergences(*args)))
    report = run_suite(name, 6, 12, 42, None, **options)
    assert not report.passed
    firsts = [r.witness for r in report.trials if "p1" in (r.witness or {})]
    assert len(firsts) == 12
    for w in firsts:
        matrices = [*w["p1"], *w["p2"], *([w["fixed"]] if "fixed" in w else [])]
        assert len(matrices) == (3 if name == "lieb-concavity" else 4)
        for e in matrices:
            assert type(e) is np.ndarray and e.dtype == np.complex128 and e.shape == (6, 6)
            assert e.flags.owndata
    doc = json.loads(json.dumps(report.to_json_dict(), default=json_default))
    w = next(r["witness"] for r in doc["trials"] if "p1" in r.get("witness", {}))
    assert w["p1"][0]["dim"] == 6 and len(w["p1"][0]["re"]) == 36


def test_variational_run_that_does_not_converge_gives_invalid_records(monkeypatch):
    from qrelent import variational

    monkeypatch.setattr(variational, "_MAX_ITERS", 2)
    report = run_suite("variational", 6, 3, 42, None)
    assert [(r.kind, r.valid) for r in report.trials] == [
        ("variational-value", False), ("lieb-value", False)] * 3
    assert report.invalid_trials == 6 and math.isnan(report.max_violation)
    assert not report.passed


def _pieces_of(monkeypatch, points):
    """Make segment_test evaluate ``points`` points a call (None: one block, as it is).

    Returns the number of points of each call that builds mixtures.
    """
    from qrelent import segments

    if points is not None:
        monkeypatch.setattr(segments, "_block_rows", lambda n: points)
    sizes = []
    build = segments.mixtures

    def recorded(a, b, ts):
        sizes.append(np.size(ts))
        return build(a, b, ts)

    monkeypatch.setattr(segments, "mixtures", recorded)
    return sizes


def _ungrouped(monkeypatch):
    """Make segment_test finish every piece on its own: one ``eigvalsh`` call a piece."""
    from qrelent import segments

    groups = segments._groups
    monkeypatch.setattr(segments, "_groups",
                        lambda *args: [[piece] for group in groups(*args) for piece in group])


def _eigvalsh_calls(monkeypatch):
    """Record the number of matrices of each ``numpy.linalg.eigvalsh`` call."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        sizes.append(math.prod(np.shape(a)[:-2]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return sizes


def _chunk(name, options, dim, trials):
    """The records and samples of a chunk of suite ``name``, seed 42, as JSON text."""
    from conftest import trial_rng

    row = SUITES[name]
    records, samples = row.trial([trial_rng(42, i) for i in range(trials)], dim, row.tol,
                                 **options)
    return [json.dumps(r, default=json_default) for r in records], json.dumps(samples)


_SEGMENT_SUITES = [
    ("joint-convexity", {}),
    ("lieb-concavity", {"orientation": "concave"}),
    ("lieb-concavity", {"orientation": "convex"}),
    ("fenchel", {}),
    ("partial-max", {}),
]


# One segment's eigenvalue-only stack at dim 64: ten complex 64 x 64 matrices.
_SEGMENT_STACK_BYTES = 10 * 16 * 64**2


def _peak_bytes(run) -> int:
    # numpy reports its array memory to tracemalloc; run once before, so
    # that caches and lazy imports do not count.
    import tracemalloc

    run()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBlockPieces:
    """segment_test calls f on pieces of at most one block of points."""

    @pytest.mark.parametrize("points", [1, 3, 7, 25])
    @pytest.mark.parametrize("dim, trials", [(6, 11), (16, 3), (64, 2)])
    @pytest.mark.parametrize("name, options", _SEGMENT_SUITES)
    def test_pieces_equal_one_call(self, monkeypatch, name, options, dim, trials, points):
        # A chunk evaluated in pieces of 1, 3 or 7 points of a segment, or
        # of two whole segments (25), gives the records and samples of the
        # same chunk in one call per kernel, bit for bit.
        with monkeypatch.context() as m:
            whole = _pieces_of(m, 10**6)
            expected = _chunk(name, options, dim, trials)
        split = _pieces_of(monkeypatch, points)
        assert _chunk(name, options, dim, trials) == expected
        # one call per component builds every mixture; in pieces, each call
        # builds at most ``points`` of them
        mixed = trials * len(T_GRID + (0.0,))
        assert sum(split) == sum(whole) == len(whole) * mixed
        assert max(split) <= points

    def test_one_block_at_dim_6_and_one_point_at_dim_64(self, monkeypatch):
        # A dim-6 chunk (11 segments, 110 mixtures) fits one block; at dim
        # 64 a block holds one matrix, so each point is its own piece.
        from conftest import trial_rng
        from qrelent import convexity

        sizes = _pieces_of(monkeypatch, None)
        convexity.fenchel_trial([trial_rng(42, i) for i in range(11)], 6, 1e-9)
        assert sizes == [110]
        sizes.clear()
        convexity.fenchel_trial([trial_rng(42, 0)], 64, 1e-9)
        assert sizes == [1] * len(T_GRID + (0.0,))

    @pytest.mark.parametrize("name, options, calls", [
        # Matrices of each eigvalsh call of a chunk of two trials: first the
        # draws (joint's X endpoints, the spectral radii of H), then each
        # segment's two endpoint values (none for joint, which has them from
        # its draws; one stack of four for partial-max's cold ascents), then
        # each segment's ten mixtures.
        ("joint-convexity", {}, [4, 10, 10]),
        ("lieb-concavity", {"orientation": "concave"}, [2, 2, 2, 10, 10]),
        ("lieb-concavity", {"orientation": "convex"}, [2, 2, 2, 10, 10]),
        ("fenchel", {}, [4, 2, 2, 10, 10]),
        ("partial-max", {}, [2, 4, 10, 10]),
    ])
    def test_one_eigvalsh_per_segment_at_dim_64(self, monkeypatch, name, options, calls):
        # A block holds one 64 x 64 matrix, so a segment takes ten pieces,
        # and their eigenvalue-only matrices go to one eigvalsh call.  The
        # records and samples equal those of the same chunk with one call a
        # piece, bit for bit.
        sizes = _eigvalsh_calls(monkeypatch)
        grouped = _chunk(name, options, 64, 2)
        assert sizes == calls
        sizes.clear()
        _ungrouped(monkeypatch)
        assert _chunk(name, options, 64, 2) == grouped
        assert sum(sizes) == sum(calls) and max(sizes) < 10

    @pytest.mark.parametrize("suite, dim, points, kind, t", [
        # The lieb floor liar fails at t = 0.5, point 4 of the segment: the
        # first point of a later piece at dim 64 (pieces of one) and in
        # pieces of 4, the middle of a piece in pieces of 3, as the mixture
        # is built.  Its overflow liar fails at t = 0.3, point 2, inside
        # the first piece, and at dim 64 at t = 0.4, after its segment's
        # eigvalsh call.
        ("lieb", 64, None, "floor", 0.5), ("lieb", 6, 4, "floor", 0.5),
        ("lieb", 6, 3, "floor", 0.5), ("lieb", 6, 4, "overflow", 0.3),
        ("lieb", 6, 3, "overflow", 0.3), ("lieb", 64, None, "overflow", 0.4),
        # The joint liar's X-mixture at t = 0.5 fails in the floor check
        # after its segment's eigvalsh call, in pieces of 4 at dim 6 and
        # of one at dim 64, and the fenchel liar at t = 0.0, the second
        # point of its segment's endpoints.
        ("joint", 6, 4, "floor", 0.5), ("joint", 64, None, "floor", 0.5),
        ("fenchel", 64, None, "overflow", 0.0),
    ])
    def test_failing_point_raises_with_its_t_from_any_piece(self, monkeypatch, suite, dim,
                                                            points, kind, t):
        # The error equals that of the chunk in one call and that of the
        # chunk with one eigvalsh call a piece.
        from conftest import trial_rng
        from qrelent import convexity

        if suite == "lieb":
            _lieb_chunk_liar(monkeypatch, 0, kind, dim)
            trial = functools.partial(convexity.lieb_concavity_trial, orientation="concave")
        elif suite == "joint":
            _joint_chunk_liar(monkeypatch, 0, dim)
            trial = convexity.joint_convexity_trial
        else:
            _fenchel_chunk_liar(monkeypatch, 0, dim)
            trial = convexity.fenchel_trial

        def failure():
            with np.errstate(over="ignore"), pytest.raises(SegmentEvaluationError) as err:
                trial([trial_rng(42, 0)], dim, 1e-9)
            return err.value

        with monkeypatch.context() as m:
            _pieces_of(m, 10**6)
            whole = failure()
        with monkeypatch.context() as m:
            _pieces_of(m, points)
            _ungrouped(m)
            alone = failure()
        _pieces_of(monkeypatch, points)
        split = failure()
        for err in (whole, alone):
            assert (str(split), split.t) == (str(err), err.t)
            assert type(split.__cause__) is type(err.__cause__)
            assert str(split.__cause__) == str(err.__cause__)
        assert split.t == t
        assert type(split.__cause__) is (DomainError if kind == "floor" else OverflowError)

    @pytest.mark.parametrize("trial", ["joint_convexity_trial", "lieb_concavity_trial",
                                       "fenchel_trial"])
    def test_chunk_at_dim_64_peaks_below_its_pieces_and_one_segment_stack(self, trial):
        # Pieces hold one matrix of each kind at a time, within 1.2 MB, and
        # a segment's eigenvalue-only matrices wait in one stack of ten.
        from conftest import trial_rng
        from qrelent import convexity

        args = ("concave",) if trial == "lieb_concavity_trial" else ()
        peak = _peak_bytes(lambda: getattr(convexity, trial)([trial_rng(42, 0)], 64, 1e-9, *args))
        assert peak <= 1.2e6 + _SEGMENT_STACK_BYTES

    @pytest.mark.parametrize("trial", ["joint_convexity_trial", "lieb_concavity_trial"])
    def test_whole_segment_pieces_at_dim_64_exceed_that_peak(self, monkeypatch, trial):
        # Pieces of a whole segment keep its ten points' entries, vectors
        # and logarithms at once: about 3.1-3.2 MB.
        from conftest import trial_rng
        from qrelent import convexity

        _pieces_of(monkeypatch, 10)
        args = ("concave",) if trial == "lieb_concavity_trial" else ()
        peak = _peak_bytes(lambda: getattr(convexity, trial)([trial_rng(42, 0)], 64, 1e-9, *args))
        assert peak > 1.2e6 + _SEGMENT_STACK_BYTES


class TestLiebConcavitySuite:
    def test_degenerate_segment_zero_violation(self):
        a = PdMatrix.diagonal([1.0, 2.0])
        h = HermitianMatrix.diagonal([0.5, -0.5])
        trials = segment_test(_lieb(h), (a,), (a,), T_GRID, "concave")
        assert all(abs(tr.violation) <= 1e-12 for tr in trials)

    def test_commuting_diagonal_restriction_is_affine(self):
        # diagonal H, A1, A2: the map reduces to sum_i e^{h_i} a_i, affine in a
        h = HermitianMatrix.diagonal([1.0, -0.7, 0.3])
        a1 = PdMatrix.diagonal([0.5, 2.0, 1.0])
        a2 = PdMatrix.diagonal([3.0, 0.2, 0.8])
        trials = segment_test(_lieb(h), (a1,), (a2,), T_GRID, "concave")
        assert all(abs(tr.violation) <= 1e-12 for tr in trials)

    def test_random_suite_passes(self):
        report = lieb_concavity_suite(4, 50, 13, 1e-10)
        assert report.passed
        assert report.max_violation <= 1e-10

    def test_nan_violation_fails_the_suite(self, monkeypatch):
        # the NaN lands on a later record; a max() that skips it would pass
        from qrelent import convexity

        calls = []

        def nan_in_4th_call(w):
            # the 4th call evaluates the second chunk's mixtures (chunks of
            # 11 trials at dim 6)
            calls.append(None)
            values = trace_exps(w)
            if len(calls) == 4:
                values[1, 3] = math.nan
            return values

        monkeypatch.setattr(convexity, "trace_exps", nan_in_4th_call)
        report = lieb_concavity_suite(6, 25, 42, 1e-9)
        assert len(calls) > 4
        assert not report.passed
        assert math.isnan(report.max_violation)

    def test_flipped_orientation_fails_for_dim_two_and_up(self):
        report = lieb_concavity_suite(4, 50, 13, 1e-10, orientation="convex")
        assert not report.passed
        assert report.max_violation > 1e-10

    def test_flipped_orientation_attaches_witnesses(self):
        report = lieb_concavity_suite(3, 5, 17, 1e-10, orientation="convex")
        witnesses = [t.witness for t in report.trials if t.witness is not None]
        assert witnesses
        w = witnesses[0]
        # the offending tuple replays through the matrix format: A1 and A2
        # as the endpoints, H once as the fixed matrix
        (a1,), (a2,) = ([validate_pd(_read_back(e)) for e in w[k]] for k in ("p1", "p2"))
        h = _read_back(w["fixed"])
        assert a1.dim == a2.dim == h.dim == 3
        assert 0.0 < w["t"] < 1.0

    def test_flipped_witnesses_replay(self):
        # each block's first witness holds A1, A2 and the fixed H
        def lhs(p1, p2, h, t):
            (a1,), (a2,) = p1, p2
            return trace_exp_log(h, validate_pd(a1 * t + a2 * (1.0 - t)))

        report = lieb_concavity_suite(4, 5, 17, 1e-10, orientation="convex")
        assert _replay_witnesses(report, 1e-10, lhs) > 0

    def test_scalar_case_is_affine_hence_both_orientations_pass(self):
        report = lieb_concavity_suite(1, 20, 3, 1e-10)
        flipped = lieb_concavity_suite(1, 20, 3, 1e-10, orientation="convex")
        assert report.passed and flipped.passed


def _read_back(entries):
    # A witness matrix as a report reader gets it: through the matrix file format.
    return matrix_from_dict(json.loads(json.dumps(entries, default=json_default)))


def _replay_witnesses(report, tol, lhs) -> int:
    """Check every trial's block of witnesses; return how many replayed.

    A record carries a witness exactly when it is valid and violates
    ``tol``; only the block's first witness holds the endpoints and the
    fixed matrix, and ``lhs(p1, p2, fixed, t)`` on them recomputes every
    violating record's ``lhs`` within ``1e-12 * scale``.
    """
    width = len(T_GRID) + 1
    replayed = 0
    for start in range(0, len(report.trials), width):
        block = report.trials[start:start + width]
        assert [r.witness is not None for r in block] == [
            r.valid and r.violation > tol for r in block
        ]
        witnesses = [r.witness for r in block if r.witness is not None]
        assert witnesses, start
        assert all(set(w) == {"t"} for w in witnesses[1:])
        assert set(witnesses[0]) == {"t", "p1", "p2", "fixed"}
        p1 = [_read_back(e) for e in witnesses[0]["p1"]]
        p2 = [_read_back(e) for e in witnesses[0]["p2"]]
        fixed = _read_back(witnesses[0]["fixed"])
        for r in block:
            if r.witness is not None:
                assert r.witness["t"] == r.t
                assert abs(lhs(p1, p2, fixed, r.t) - r.lhs) <= 1e-12 * r.scale
                replayed += 1
    return replayed


class TestWitnesses:
    @staticmethod
    def _joint_point(rng):
        from conftest import sample_pd

        return (_x_draw(rng, 3), sample_pd(rng, 3, 0.1))

    def test_endpoints_appear_once_per_segment(self):
        from conftest import trial_rng
        from qrelent.convexity import _segment

        calls = []

        def rises_off_the_endpoints(x, y):
            # 0 at both endpoints, 1 at every mixture: every comparison violates
            calls.append(None)
            return 0.0 if len(calls) <= 2 else 1.0

        rng = trial_rng(7, 0)
        p1, p2 = self._joint_point(rng), self._joint_point(rng)
        records = _segment(pointwise(rises_off_the_endpoints), p1, p2, [rng], "convex", 1e-9)
        assert len(records) == len(T_GRID) + 1
        assert all(r.witness is not None and r.witness["t"] == r.t for r in records)
        assert ["p1" in r.witness for r in records] == [True] + [False] * len(T_GRID)
        assert ["p2" in r.witness for r in records] == [True] + [False] * len(T_GRID)
        for key, point in (("p1", p1), ("p2", p2)):
            shown = [_read_back(e) for e in records[0].witness[key]]
            assert len(shown) == 2
            assert all(np.array_equal(m.entries, _single(e).entries) for m, e in zip(shown, point))

    def test_segment_without_violation_carries_no_witness(self):
        from conftest import trial_rng
        from qrelent.convexity import _segment

        rng = trial_rng(7, 0)
        p1, p2 = self._joint_point(rng), self._joint_point(rng)
        records = _segment(pointwise(lambda x, y: 1.0), p1, p2, [rng], "convex", 1e-9)
        assert all(r.witness is None for r in records)

    def test_failing_report_is_at_most_a_quarter_of_the_old_size(self):
        # 613 909 bytes when every violation carried its own endpoints
        report = lieb_concavity_suite(6, 20, 42, 1e-9, orientation="convex")
        assert len(json.dumps(report.to_json_dict(), default=json_default)) <= 613_909 // 4

    def test_fenchel_witnesses_replay(self, monkeypatch):
        # the negated map is concave, so the convexity claim fails; each
        # block's first witness holds H1, H2 and the fixed A
        from qrelent import convexity

        monkeypatch.setattr(convexity, "trace_exps", lambda w: -trace_exps(w))

        def lhs(p1, p2, a, t):
            (h1,), (h2,) = p1, p2
            return -trace_exp_log(h1 * t + h2 * (1.0 - t), validate_pd(a))

        report = fenchel_convexity_suite(4, 5, 17, 1e-10)
        assert not report.passed
        assert _replay_witnesses(report, 1e-10, lhs) > 0


class TestFenchelConvexitySuite:
    def test_degenerate_segment(self):
        a = PdMatrix.diagonal([1.0, 2.0])
        h = HermitianMatrix.diagonal([0.5, -0.5])
        trials = segment_test(_fenchel(a), (h,), (h,), T_GRID, "convex")
        assert all(abs(tr.violation) <= 1e-12 for tr in trials)

    def test_commuting_diagonal_scalar_convexity(self):
        a = PdMatrix.diagonal([1.0, 2.0])
        h1 = HermitianMatrix.diagonal([1.0, -1.0])
        h2 = HermitianMatrix.diagonal([-0.5, 0.5])
        (trial,) = segment_test(_fenchel(a), (h1,), (h2,), [0.5], "convex")
        # oracle by direct summation: sum_i a_i e^{h_i}
        lhs = 1.0 * math.exp(0.25) + 2.0 * math.exp(-0.25)
        rhs = 0.5 * (math.exp(1.0) + 2.0 * math.exp(-1.0)) + 0.5 * (
            math.exp(-0.5) + 2.0 * math.exp(0.5)
        )
        assert trial.lhs == pytest.approx(lhs, rel=1e-12)
        assert trial.rhs == pytest.approx(rhs, rel=1e-12)
        assert trial.violation <= 1e-12

    def test_random_suite_passes(self):
        report = fenchel_convexity_suite(4, 50, 19, 1e-10)
        assert report.passed
        assert report.max_violation <= 1e-10


class TestPartialMaxSuite:
    def test_small_suite_passes_with_no_invalid_trials(self):
        report = partial_max_concavity_suite(3, 10, 23, 1e-8)
        assert report.passed
        assert report.invalid_trials == 0
        assert report.extras["invalid_fraction"] == 0.0
        assert report.extras["max_value_gap"] <= 1e-6

    def test_optimizer_value_tracks_direct_evaluation(self):
        report = partial_max_concavity_suite(4, 5, 29, 1e-8)
        assert report.extras["max_value_gap"] <= 1e-6

    def test_nan_value_gap_fails_the_suite(self, monkeypatch):
        # max(0.0, nan) is 0.0: a NaN gap must not read as agreement
        from qrelent import convexity

        monkeypatch.setattr(convexity, "trace_exps", lambda w: np.full(w.shape[:-1], math.nan))
        report = partial_max_concavity_suite(3, 2, 23, 1e-8)
        assert report.invalid_trials == 0 and report.max_violation <= 1e-8
        assert math.isnan(report.extras["max_value_gap"])
        assert not report.passed

    def test_deterministic_reruns(self):
        a = partial_max_concavity_suite(3, 4, 31, 1e-8)
        b = partial_max_concavity_suite(3, 4, 31, 1e-8)
        assert json.dumps(a.to_json_dict(), sort_keys=True, default=json_default) == json.dumps(
            b.to_json_dict(), sort_keys=True, default=json_default
        )

    def test_zero_h_partial_maximum_is_affine(self):
        # with H = 0 the partial maximum is tr A, affine in A, so both
        # orientations hold up to optimizer error
        from qrelent import maximize_lieb

        zero = HermitianMatrix.zeros(3)

        def g(a):
            res = maximize_lieb(zero, a)
            assert res.converged
            return res.value

        a1 = PdMatrix.diagonal([1.0, 2.0, 0.5])
        a2 = PdMatrix.diagonal([3.0, 0.4, 1.1])
        for orientation in ("concave", "convex"):
            trials = segment_test(pointwise(g), (a1,), (a2,), T_GRID, orientation)
            assert all(abs(tr.violation) <= 1e-8 for tr in trials)

    def test_non_converged_evaluations_counted_and_fail_the_suite(self, monkeypatch):
        from qrelent import variational

        # with no iteration allowed, every evaluation stops at the identity
        # start, which is not its maximizer, and is invalid
        monkeypatch.setattr(variational, "_MAX_ITERS", 0)
        report = partial_max_concavity_suite(3, 4, 31, 1e-8)
        assert not report.passed
        assert report.invalid_trials == len(report.trials)
        assert report.extras["invalid_fraction"] == 1.0
        assert all(not t.valid for t in report.trials)


def _partial_max_instance(seed):
    """``(h, a1, a2, x1, x2)`` of partial-max trial ``(seed, 0)`` at dim 4: X* the endpoint maximizers."""
    from conftest import trial_rng
    from qrelent import maximize_lieb
    from qrelent.convexity import _lieb_instances

    h, a = _lieb_instances([trial_rng(seed, 0)], 4, 2)
    h, a1, a2 = HermitianMatrix._exact(h[0]), a[0, 0], a[0, 1]
    return h, a1, a2, maximize_lieb(h, a1).maximizer, maximize_lieb(h, a2).maximizer


class TestPartialMaxWarmStart:
    @pytest.mark.parametrize("seed", [23, 29, 31])
    def test_mixture_ascent_from_x_t_is_shorter_than_a_cold_one(self, seed):
        from qrelent import maximize_lieb

        h, a1, a2, x1, x2 = _partial_max_instance(seed)
        for t in T_GRID:
            a_t = validate_pd(a1.base * t + a2.base * (1.0 - t))
            x_t = validate_pd(x1.base * t + x2.base * (1.0 - t))
            warm, cold = maximize_lieb(h, a_t, x_t), maximize_lieb(h, a_t)
            assert warm.converged and cold.converged
            assert warm.iters < cold.iters, t
            assert warm.value == pytest.approx(cold.value, rel=1e-10)
            # the start is phi(X_t, A_t), computed by the divergence route too
            phi = trace_product(x_t, h) - relative_entropy(x_t, a_t).value + a_t.trace()
            assert warm.objective_history[0] == pytest.approx(phi, rel=1e-13)

    def test_endpoint_started_at_its_maximizer_takes_no_iteration(self):
        from qrelent import maximize_lieb

        h, a1, _, x1, _ = _partial_max_instance(23)
        cold = maximize_lieb(h, a1)
        res = maximize_lieb(h, a1, x1)
        assert res.converged and res.iters == 0
        for field in ("entries", "eigenvalues", "vectors"):
            assert getattr(res.maximizer, field).tobytes() == getattr(x1, field).tobytes()
        assert res.value == cold.value

    def test_runs_at_dim_one_where_the_endpoints_coincide(self, tmp_path):
        from qrelent.cli import main

        out = str(tmp_path / "r.json")
        assert main(["verify", "--suite", "partial-max", "--dim", "1", "--trials", "5",
                     "--out", out]) == 0
        (report,) = json.load(open(out))["reports"]
        extras = report["extras"]
        # g(A) = e^h A is affine in A, so both links are tight up to rounding
        assert abs(extras["min_joint_concavity_margin"]) <= 1e-14
        assert abs(extras["min_ascent_gain"]) <= 1e-14

    def test_injected_failure_names_its_t(self, monkeypatch):
        # The stacked evaluation fails at t = 0.3, and so does the
        # point-by-point one; every point it reaches starts from its own X_t.
        from qrelent import convexity
        from conftest import trial_rng

        h, a1, a2, x1, x2 = _partial_max_instance(23)
        bad = validate_pd(a1.base * 0.3 + a2.base * 0.7).entries
        solver = convexity.maximize_liebs

        def failing(h_, a, init=None):
            if init is not None:
                for a_k, x_k in zip(a.entries.reshape(-1, 4, 4), init.entries.reshape(-1, 4, 4)):
                    t = next(t for t in (1.0, 0.0, *T_GRID)
                             if np.array_equal(a_k, (a1.base * t + a2.base * (1.0 - t)).entries))
                    assert np.array_equal(x_k, (x1.base * t + x2.base * (1.0 - t)).entries)
                    if np.array_equal(a_k, bad):
                        raise DomainError("injected")
            return solver(h_, a, init)

        monkeypatch.setattr(convexity, "maximize_liebs", failing)
        with pytest.raises(SegmentEvaluationError) as err:
            convexity.partial_max_trial([trial_rng(23, 0)], 4, 1e-8)
        assert err.value.t == 0.3

    def test_endpoints_take_their_values_from_the_cold_ascents(self, monkeypatch):
        # One cold ascent per endpoint and one warm ascent per mixture; the
        # endpoints are not maximized a second time.
        from conftest import trial_rng
        from qrelent import convexity

        solver, starts, calls = convexity.maximize_liebs, [], []

        def recorded(h, a, init=None):
            runs = solver(h, a, init)
            starts.extend([init is None] * len(runs.iters))
            calls.append(len(runs.iters))
            return runs

        monkeypatch.setattr(convexity, "maximize_liebs", recorded)
        records, _ = convexity.partial_max_trial([trial_rng(23, i) for i in range(3)], 4, 1e-8)
        assert len(records) == 3 * len(T_GRID + (0.5,))
        assert starts == [True, True] * 3 + [False] * len(records)
        # one stack of the chunk's endpoints, one of its mixtures
        assert calls == [6, len(records)]

    def test_nan_start_objective_fails_the_suite(self, monkeypatch):
        # a NaN start objective makes both links NaN, which min() could skip
        from qrelent import convexity
        from qrelent.variational import maximize_liebs

        def nan_start(h, a, init=None):
            runs = maximize_liebs(h, a, init)
            if init is None:
                return runs
            return dataclasses.replace(runs, objective_history=[
                (math.nan,) if iters > 0 else hist
                for hist, iters in zip(runs.objective_history, runs.iters)])

        monkeypatch.setattr(convexity, "maximize_liebs", nan_start)
        report = partial_max_concavity_suite(3, 2, 23, 1e-8)
        assert report.invalid_trials == 0 and report.max_violation <= 1e-8
        assert report.extras["max_value_gap"] <= 1e-6
        assert math.isnan(report.extras["min_joint_concavity_margin"])
        assert math.isnan(report.extras["min_ascent_gain"])
        assert not report.passed

    @pytest.mark.parametrize("shift, broken, held", [
        (1.0, "min_ascent_gain", "min_joint_concavity_margin"),
        (-1.0, "min_joint_concavity_margin", "min_ascent_gain"),
    ])
    def test_either_link_below_tol_fails_the_suite(self, monkeypatch, shift, broken, held):
        # shifting every mixture's start objective breaks one link, the
        # Jensen comparison and the value gaps staying as they are
        from qrelent import convexity
        from qrelent.variational import maximize_liebs

        def shifted_start(h, a, init=None):
            runs = maximize_liebs(h, a, init)
            if init is None:
                return runs
            return dataclasses.replace(runs, objective_history=[
                (hist[0] + shift,) + hist[1:] if iters > 0 else hist
                for hist, iters in zip(runs.objective_history, runs.iters)])

        monkeypatch.setattr(convexity, "maximize_liebs", shifted_start)
        report = partial_max_concavity_suite(3, 2, 23, 1e-8)
        assert report.max_violation <= 1e-8 and report.extras["max_value_gap"] <= 1e-6
        assert report.extras[held] > 0.0
        assert report.extras[broken] < -1e-8
        assert not report.passed


    def test_points_with_equal_values_keep_their_own_start(self, monkeypatch):
        # Every mixture of a chunk returns the same value, each from its own
        # start objective: each comparison's links read the start of its
        # own point, by position, not by the value it found.
        from conftest import trial_rng
        from qrelent import convexity
        from qrelent.variational import maximize_liebs

        given = []

        def equal_values(h, a, init=None):
            runs = maximize_liebs(h, a, init)
            if init is None:
                return runs
            value = float(runs.value[0])
            history = [(value - 1e-3 * (j + 1),) + hist[1:]
                       for j, hist in enumerate(runs.objective_history)]
            given.extend(hist[0] for hist in history)
            return dataclasses.replace(runs, value=np.full_like(runs.value, value),
                                       objective_history=history)

        monkeypatch.setattr(convexity, "maximize_liebs", equal_values)
        records, [(_, margins, gains)] = convexity.partial_max_trial(
            [trial_rng(23, i) for i in range(2)], 4, 1e-8)
        assert len(records) == len(given) == 2 * len(T_GRID + (0.5,))
        assert all(r.valid for r in records) and len({r.lhs for r in records}) == 1
        assert len(set(given)) == len(given)
        assert margins == [(start - r.rhs) / r.scale for start, r in zip(given, records)]
        assert gains == [(r.lhs - start) / r.scale for start, r in zip(given, records)]


def _variational_per_trial(rngs, dim):
    """Reference variational chunk: each lieb closed form from its own ``mat_exp``."""
    from qrelent import convexity
    from qrelent.hermitian import mat_exp, mat_log, pd_draws, validate_pd_stack

    y = validate_pd_stack(pd_draws(rngs, dim, 0.1)[:, 0])
    h, a = convexity._lieb_instances(rngs, dim, 1)
    h, a = np.stack((np.zeros_like(h), h), axis=1), pd_stack((y, a[:, 0]), axis=1)
    runs = convexity.maximize_liebs(h, a)

    def agreement(kind, r, closed_form):
        value = float(runs.value[r]) if runs.converged[r] else None
        return convexity._agreement(kind, value, runs.maximizer.entries[r], closed_form)

    records = []
    for s in range(len(rngs)):
        y_s = a[s, 0]
        records += agreement("variational", 2 * s, lambda: (y_s.trace(), y_s.entries))
        h_s, a_s = HermitianMatrix._exact(h[s, 1]), a[s, 1]

        def lieb_closed_form():
            x_star = mat_exp(h_s + mat_log(a_s))
            return float(x_star.eigenvalues.sum()), x_star.entries

        records += agreement("lieb", 2 * s + 1, lieb_closed_form)
    return records


class TestVariationalClosedForms:
    @pytest.mark.parametrize("dim, trials", [(1, 5), (6, 11), (16, 8)])
    def test_stacked_closed_forms_equal_one_mat_exp_per_trial(self, dim, trials):
        from conftest import trial_rng
        from qrelent import convexity

        rngs = lambda: [trial_rng(42, i) for i in range(trials)]
        records, _ = convexity.variational_trial(rngs(), dim, 1e-9)
        assert records == _variational_per_trial(rngs(), dim)

    @pytest.mark.parametrize("shift, cause", [(710.0, OverflowError), (-40.0, DomainError)])
    def test_stacked_closed_forms_raise_what_mat_exp_raises(self, monkeypatch, shift, cause):
        # H + shift I puts every eigenvalue of H + log A above the exp-overflow
        # guard, or its exponential at or below PD_FLOOR.  The ascent is
        # replaced by converged runs, so the closed forms are evaluated.
        from conftest import trial_rng
        from qrelent import convexity
        from qrelent.variational import OptimizeResult

        instances = convexity._lieb_instances

        def shifted(rngs, dim, count):
            h, a = instances(rngs, dim, count)
            return h + shift * np.eye(dim), a

        def converged(h, a, init=None):
            x = PdMatrix.identity(a.entries.shape[-1])
            rows = a.entries.size // x.entries.size
            return OptimizeResult(pd_stack([x] * rows), np.zeros(rows), np.zeros(rows, dtype=int),
                                  np.zeros(rows), np.ones(rows, dtype=bool), [(0.0,)] * rows)

        monkeypatch.setattr(convexity, "_lieb_instances", shifted)
        monkeypatch.setattr(convexity, "maximize_liebs", converged)
        with pytest.raises(cause) as expected:
            _variational_per_trial([trial_rng(42, 0)], 6)
        for run in (lambda: convexity.variational_trial([trial_rng(42, 0)], 6, 1e-9),
                    lambda: run_suite("variational", 6, 3, 42, None)):
            with pytest.raises(cause) as err:
                run()
            assert str(err.value) == str(expected.value)


class TestSuiteReportShape:
    def test_json_fields(self):
        report = lieb_concavity_suite(2, 3, 37, 1e-10)
        doc = json.loads(json.dumps(report.to_json_dict(), default=json_default))
        assert set(doc) == {
            "suite_name",
            "trials",
            "max_violation",
            "pass",
            "config_echo",
            "invalid_trials",
            "extras",
        }
        assert doc["pass"] is True
        assert doc["config_echo"]["dim"] == 2
        trial = doc["trials"][0]
        assert set(trial) == {"t", "lhs", "rhs", "violation", "scale"}
        assert all(isinstance(trial[k], float) for k in trial)

    def test_trial_count_matches_grid(self):
        report = fenchel_convexity_suite(2, 7, 41, 1e-10)
        # nine fixed t values plus one random t per trial
        assert len(report.trials) == 7 * (len(T_GRID) + 1)
        for k in range(7):
            chunk = report.trials[k * 10 : (k + 1) * 10]
            assert [t.t for t in chunk[:9]] == list(T_GRID)
            assert 0.0 <= chunk[9].t <= 1.0

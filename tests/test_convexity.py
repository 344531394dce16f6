"""Segment tester and the named convexity/concavity suites."""

import dataclasses
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
    validate_pd,
)
from qrelent.convexity import record_to_json_dict
from qrelent.divergence import relative_entropies
from qrelent.hermitian import pd_stack
from qrelent.variational import trace_exp_logs
from test_divergence import scalar_divergence


def divergence_value(x, y):
    return relative_entropy(x, y).value


def _lieb(h):
    """The lieb-concavity suite's stacked ``A -> tr exp(H + log A)``."""
    return lambda a: trace_exp_logs(h.entries, a.log)


def _fenchel(a):
    """The fenchel suite's stacked ``H -> tr exp(H + log A)``."""
    return lambda h: trace_exp_logs(h, a.log.entries)


def _segment_instance(kind, dim, seed):
    """``(f, stacked, p1, p2, t_samples, orientation)`` as the named suite draws them.

    ``f`` is the claim's function of single matrices and ``stacked`` the
    suite's stacked evaluation of it.  As in joint-convexity, the X side
    carries eigenvalues only.
    """
    from conftest import sample_hermitian, sample_pd, trial_rng

    rng = trial_rng(seed, 0)
    if kind == "joint":
        p1 = (sample_pd(rng, dim, 0.1, vectors=False), sample_pd(rng, dim, 0.1))
        p2 = (sample_pd(rng, dim, 0.1, vectors=False), sample_pd(rng, dim, 0.1))
        f, orientation = divergence_value, "convex"
        stacked = lambda x, y: relative_entropies(x.eigenvalues, x.entries, y.entries, y.log)[0]
    elif kind == "lieb":
        h = sample_hermitian(rng, dim, 3.0)
        p1, p2 = (sample_pd(rng, dim, 0.1),), (sample_pd(rng, dim, 0.1),)
        f, stacked, orientation = (lambda a: trace_exp_log(h, a)), _lieb(h), "concave"
    else:
        a = sample_pd(rng, dim, 0.1)
        p1, p2 = (sample_hermitian(rng, dim, 3.0),), (sample_hermitian(rng, dim, 3.0),)
        f, stacked, orientation = (lambda h: trace_exp_log(h, a)), _fenchel(a), "convex"
    return f, stacked, p1, p2, T_GRID + (float(rng.uniform()),), orientation


def _per_point_segment(f, p1, p2, t_samples, orientation):
    """Reference segment test: every mixture built and validated on its own.

    A mixture is validated with eigenvectors when an endpoint carries them.
    """
    orient = {"convex": 1.0, "concave": -1.0}[orientation]
    f1, f2 = f(*p1), f(*p2)
    scale = 1.0 + abs(f1) + abs(f2)
    out = []
    for t in t_samples:
        point = [
            validate_pd(a.base * t + b.base * (1.0 - t), _has_vectors(a) or _has_vectors(b))
            if isinstance(a, PdMatrix) else a * t + b * (1.0 - t)
            for a, b in zip(p1, p2)
        ]
        lhs = f(*point)
        rhs = t * f1 + (1.0 - t) * f2
        out.append(((t, lhs, rhs, (lhs - rhs) * orient / scale, scale), point))
    return out


def _has_vectors(m):
    return m._known_vectors() is not None


def _bits(m):
    # Reads the eigenvectors only if they are at hand, so never computes them.
    parts = [m.entries.tobytes()]
    if isinstance(m, PdMatrix):
        parts.append(m.eigenvalues.tobytes())
        if _has_vectors(m):
            parts.append(m.spectrum.vectors.tobytes())
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
            assert [_has_vectors(m) for m in got if isinstance(m, PdMatrix)] == [
                _has_vectors(a) for a in p1 if isinstance(a, PdMatrix)
            ]
            assert [_bits(m) for m in got] == [_bits(m) for m in want]
            for m in got:
                if isinstance(m, PdMatrix) and not _has_vectors(m):
                    assert m.eigenvalues.tobytes() == np.linalg.eigvalsh(m.entries).tobytes()
        # The suite's stacked evaluation equals the per-point route bit for
        # bit, at the endpoints and at every t.
        ends = [
            pd_stack(pair) if isinstance(pair[0], PdMatrix) else np.stack([m.entries for m in pair])
            for pair in zip(p1, p2)
        ]
        assert list(stacked(*ends)) == [f(*p1), f(*p2)]
        trials = segment_test(stacked, p1, p2, ts, orientation)
        assert [(tr.t, tr.lhs, tr.rhs, tr.violation, tr.scale) for tr in trials] == [
            fields for fields, _ in reference
        ]

    @pytest.mark.parametrize("middle", [True, False])
    def test_stacked_mixture_at_or_below_floor_carries_its_t(self, middle):
        # Only the mixture at t = 0.7 is indefinite (liar's entries are not
        # those of its spectrum), in the middle or at the end of the stack.
        truth = PdMatrix.identity(2).spectrum
        liar = PdMatrix(HermitianMatrix.diagonal([-1.0, 1.0]), truth.eigenvalues, truth.vectors)
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
        truth = PdMatrix.identity(2).spectrum
        with np.errstate(over="ignore"):  # ||diag(e^701, 1)||_F overflows
            entries = HermitianMatrix.diagonal([math.exp(701.0), 1.0])
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
        truth = PdMatrix.identity(2).spectrum
        liar = PdMatrix(HermitianMatrix.diagonal([-1.0, 1.0]), truth.eigenvalues, truth.vectors)
        with pytest.raises(SegmentEvaluationError) as err:
            segment_test(
                pointwise(lambda m: m.trace()), liar, PdMatrix.identity(2), [0.2, 0.7], "convex"
            )
        assert err.value.t == 0.7
        assert isinstance(err.value.__cause__, DomainError)

    @pytest.mark.parametrize("t_bad", [0.5, 0.7])
    def test_eigenvalues_only_mixture_at_or_below_floor_carries_its_t(self, t_bad):
        # The mixture at t = 0.5 has eigenvalue 0, the one at 0.7 -0.4.
        liar = PdMatrix(HermitianMatrix.diagonal([-1.0, 1.0]), np.array([1.0, 1.0]))
        one = validate_pd(HermitianMatrix.identity(2), vectors=False)
        with pytest.raises(SegmentEvaluationError) as err:
            segment_test(pointwise(lambda m: m.trace()), liar, one, [0.2, t_bad], "convex")
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
            # the 4th call evaluates the second trial's mixtures
            calls.append(None)
            value, *summands = relative_entropies(*args)
            if len(calls) == 4:
                value = value.copy()
                value[3] = math.nan
            return (value, *summands)

        monkeypatch.setattr(convexity, "relative_entropies", nan_in_4th_call)
        report = joint_convexity_suite(3, 3, 42, 1e-9)
        assert len(calls) > 4
        assert not report.passed
        assert math.isnan(report.extras["min_divergence_value"])

    def test_negative_divergence_fails_the_suite(self, monkeypatch):
        # A constant divergence has no Jensen gap, so only the
        # nonnegativity gate on min_divergence_value can fail the suite.
        from qrelent import convexity

        def constant(x_eigenvalues, x, y, log_y):
            return (np.full(len(x), -1.0),) + (np.zeros(len(x)),) * 2 + (np.ones(len(x)),)

        monkeypatch.setattr(convexity, "relative_entropies", constant)
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
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )


@pytest.mark.parametrize("name", list(SUITES))
def test_rejects_bad_args(name):
    for dim, trials, seed, tol in [
        (0, 10, 1, 1e-10), (65, 10, 1, 1e-10), (4, 0, 1, 1e-10), (4, 10, 1, 0.0),
        # an infinite tol would pass every violation
        (4, 10, 1, math.inf), (4, 10, 1, math.nan),
        # -1 would otherwise draw the streams of 2**64 - 1
        (4, 10, -1, 1e-10), (4, 10, 2**64, 1e-10),
    ]:
        with pytest.raises(ValueError):
            run_suite(name, dim, trials, seed, tol)


@pytest.mark.parametrize("name, options", [
    *((name, {}) for name in SUITES),
    # violations carry witnesses, which must replay too
    ("lieb-concavity", {"orientation": "convex"}),
])
def test_each_trial_replays_alone(name, options):
    from conftest import trial_rng

    row = SUITES[name]
    report = run_suite(name, 3, 3, 42, None, **options)
    full = [json.dumps(record_to_json_dict(r)) for r in report.trials]
    start = 0
    for kind in row.kinds:
        named = () if kind.name is None else (kind.name,)
        for i in range(kind.count(3)):
            records, _ = row.trial(
                trial_rng(42, kind.first + i), 3, row.tol, *named, **{**row.options, **options}
            )
            replayed = [json.dumps(record_to_json_dict(r)) for r in records]
            assert replayed == full[start:start + len(replayed)], (kind.name, i)
            start += len(replayed)
    assert start == len(full)


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

        def nan_in_4th_call(h, log_a):
            # the 4th call evaluates the second trial's mixtures
            calls.append(None)
            values = trace_exp_logs(h, log_a)
            if len(calls) == 4:
                values[3] = math.nan
            return values

        monkeypatch.setattr(convexity, "trace_exp_logs", nan_in_4th_call)
        report = lieb_concavity_suite(4, 3, 42, 1e-9)
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
        (a1,), (a2,) = ([validate_pd(matrix_from_dict(d)) for d in w[k]] for k in ("p1", "p2"))
        h = matrix_from_dict(w["fixed"])
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
        p1 = [matrix_from_dict(d) for d in witnesses[0]["p1"]]
        p2 = [matrix_from_dict(d) for d in witnesses[0]["p2"]]
        fixed = matrix_from_dict(witnesses[0]["fixed"])
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

        return (sample_pd(rng, 3, 0.1, vectors=False), sample_pd(rng, 3, 0.1))

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
        records = _segment(pointwise(rises_off_the_endpoints), p1, p2, rng, "convex", 1e-9)
        assert len(records) == len(T_GRID) + 1
        assert all(r.witness is not None and r.witness["t"] == r.t for r in records)
        assert ["p1" in r.witness for r in records] == [True] + [False] * len(T_GRID)
        assert ["p2" in r.witness for r in records] == [True] + [False] * len(T_GRID)
        for key, point in (("p1", p1), ("p2", p2)):
            shown = [matrix_from_dict(d) for d in records[0].witness[key]]
            assert len(shown) == 2
            assert all(np.array_equal(m.entries, e.entries) for m, e in zip(shown, point))

    def test_segment_without_violation_carries_no_witness(self):
        from conftest import trial_rng
        from qrelent.convexity import _segment

        rng = trial_rng(7, 0)
        p1, p2 = self._joint_point(rng), self._joint_point(rng)
        records = _segment(pointwise(lambda x, y: 1.0), p1, p2, rng, "convex", 1e-9)
        assert all(r.witness is None for r in records)

    def test_failing_report_is_at_most_a_quarter_of_the_old_size(self):
        # 613 909 bytes when every violation carried its own endpoints
        report = lieb_concavity_suite(6, 20, 42, 1e-9, orientation="convex")
        assert len(json.dumps(report.to_json_dict())) <= 613_909 // 4

    def test_fenchel_witnesses_replay(self, monkeypatch):
        # the negated map is concave, so the convexity claim fails; each
        # block's first witness holds H1, H2 and the fixed A
        from qrelent import convexity

        monkeypatch.setattr(convexity, "trace_exp_logs", lambda h, log_a: -trace_exp_logs(h, log_a))

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

        monkeypatch.setattr(convexity, "trace_exp_log", lambda h, a: math.nan)
        report = partial_max_concavity_suite(3, 2, 23, 1e-8)
        assert report.invalid_trials == 0 and report.max_violation <= 1e-8
        assert math.isnan(report.extras["max_value_gap"])
        assert not report.passed

    def test_deterministic_reruns(self):
        a = partial_max_concavity_suite(3, 4, 31, 1e-8)
        b = partial_max_concavity_suite(3, 4, 31, 1e-8)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
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


class TestSuiteReportShape:
    def test_json_fields(self):
        report = lieb_concavity_suite(2, 3, 37, 1e-10)
        doc = report.to_json_dict()
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

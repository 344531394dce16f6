"""Variational objectives, their gradients, and the PD-cone maximizer."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qrelent import (
    DimMismatchError,
    DomainError,
    HermitianMatrix,
    PdMatrix,
    entropy,
    lieb_gradient,
    lieb_objective,
    mat_exp,
    mat_log,
    maximize_lieb,
    maximize_variational,
    random_pd,
    trace_exp_log,
    trace_product,
    validate_pd,
    variational_gradient,
    variational_objective,
)
from qrelent.convexity import sample_lieb_instance
from qrelent import variational
from qrelent.hermitian import pd_stack
from qrelent.variational import _ascend, _logarithmic_mean, _newton_step, maximize_liebs
from conftest import (
    as_pd,
    central_difference,
    random_unitary,
    sample_hermitian,
    sample_pd,
    trial_rng,
    unit_direction,
)


def commuting_pair(rng, dim):
    """Random (H, A) diagonal in the same basis, with the diagonal scalars."""
    u = random_unitary(rng, dim)
    h_diag = rng.uniform(-2.0, 2.0, size=dim)
    a_diag = rng.uniform(0.2, 3.0, size=dim)
    h = HermitianMatrix(u @ np.diag(h_diag) @ u.conj().T)
    a = as_pd(u @ np.diag(a_diag) @ u.conj().T)
    return h, a, h_diag, a_diag


class TestTraceExpLog:
    def test_zero_h_gives_trace(self):
        a = random_pd(4, 71, 0.1)
        assert trace_exp_log(HermitianMatrix.zeros(4), a) == pytest.approx(
            a.trace(), rel=1e-12
        )

    def test_commuting_diagonal(self):
        h = HermitianMatrix.diagonal([1.0, 0.0])
        a = PdMatrix.identity(2)
        assert trace_exp_log(h, a) == pytest.approx(math.e + 1.0, rel=1e-14)

    def test_commuting_random_scalar_sum_oracle(self):
        h, a, h_diag, a_diag = commuting_pair(trial_rng(72, 0), 5)
        expected = float(np.sum(a_diag * np.exp(h_diag)))
        assert trace_exp_log(h, a) == pytest.approx(expected, rel=1e-10)

    def test_strictly_positive(self):
        rng = trial_rng(73, 0)
        assert trace_exp_log(sample_hermitian(rng, 4, 3.0), sample_pd(rng, 4, 0.1)) > 0.0

    def test_matches_dense_exponential_route(self):
        rng = trial_rng(76, 0)
        h = sample_hermitian(rng, 5, 3.0)
        a = sample_pd(rng, 5, 0.1)
        dense = mat_exp(h + mat_log(a)).trace()
        assert abs(trace_exp_log(h, a) - dense) <= 1e-10 * (1.0 + abs(dense))

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            trace_exp_log(HermitianMatrix.diagonal([705.0]), PdMatrix.identity(1))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            trace_exp_log(HermitianMatrix.zeros(2), PdMatrix.identity(3))

    def test_homogeneity_in_a(self):
        rng = trial_rng(74, 0)
        h = sample_hermitian(rng, 4, 3.0)
        a = sample_pd(rng, 4, 0.1)
        base = trace_exp_log(h, a)
        for t in (0.2, 1.0, 9.0):
            assert trace_exp_log(h, a.scaled(t)) == pytest.approx(t * base, rel=1e-9)

    def test_shift_in_h(self):
        rng = trial_rng(75, 0)
        h = sample_hermitian(rng, 4, 3.0)
        a = sample_pd(rng, 4, 0.1)
        base = trace_exp_log(h, a)
        for c in (-2.0, 0.7):
            shifted = h + HermitianMatrix.identity(4) * c
            assert trace_exp_log(shifted, a) == pytest.approx(
                math.exp(c) * base, rel=1e-9
            )


_I2, _I3 = PdMatrix.identity(2), PdMatrix.identity(3)
_Z2, _Z3 = HermitianMatrix.zeros(2), HermitianMatrix.zeros(3)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: lieb_objective(_I2, _Z3, _I3), id="lieb_objective-X-vs-H"),
    pytest.param(lambda: lieb_objective(_I2, _Z2, _I3), id="lieb_objective-X-vs-A"),
    pytest.param(lambda: lieb_gradient(_I2, _Z3, _I3), id="lieb_gradient-X-vs-H"),
    pytest.param(lambda: lieb_gradient(_I2, _Z2, _I3), id="lieb_gradient-X-vs-A"),
    pytest.param(lambda: variational_objective(_I2, _I3), id="variational_objective"),
    pytest.param(lambda: variational_gradient(_I2, _I3), id="variational_gradient"),
    pytest.param(lambda: maximize_lieb(_Z2, _I3), id="maximize_lieb-H-vs-A"),
    pytest.param(lambda: maximize_lieb(_Z2, _I2, _I3), id="maximize_lieb-init-vs-A"),
    pytest.param(lambda: maximize_variational(_I2, _I3), id="maximize_variational-init-vs-Y"),
])
def test_every_entry_point_rejects_mismatched_dimensions(call):
    with pytest.raises(DimMismatchError):
        call()


class TestVariationalObjective:
    def test_equals_trace_at_maximizer(self):
        y = random_pd(4, 81, 0.1)
        assert abs(variational_objective(y, y) - y.trace()) <= 1e-10 * (
            1.0 + abs(y.trace())
        )

    def test_identity_pair(self):
        i5 = PdMatrix.identity(5)
        assert variational_objective(i5, i5) == pytest.approx(5.0, abs=1e-12)

    def test_upper_bound_by_trace(self):
        for i in range(50):
            rng = trial_rng(82, i)
            x = sample_pd(rng, 4, 0.1)
            y = sample_pd(rng, 4, 0.1)
            assert variational_objective(x, y) <= y.trace() + 1e-10 * (
                1.0 + abs(y.trace())
            )

    def test_cross_check_via_divergence(self):
        from qrelent import relative_entropy

        rng = trial_rng(83, 0)
        x = sample_pd(rng, 4, 0.1)
        y = sample_pd(rng, 4, 0.1)
        alt = y.trace() - relative_entropy(x, y).value
        assert variational_objective(x, y) == pytest.approx(alt, rel=1e-11, abs=1e-11)


class TestVariationalGradient:
    def test_zero_at_maximizer(self):
        y = random_pd(4, 84, 0.1)
        assert variational_gradient(y, y).frobenius_norm() == 0.0

    def test_identity_point(self):
        g = variational_gradient(
            PdMatrix.identity(2), PdMatrix.diagonal([math.e, math.e])
        )
        np.testing.assert_allclose(g.entries, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("i", range(20))
    def test_matches_central_differences(self, i):
        rng = trial_rng(85, i)
        x = sample_pd(rng, 4, 0.1)
        y = sample_pd(rng, 4, 0.1)
        v = unit_direction(rng, 4)
        fd = central_difference(
            lambda m: variational_objective(as_pd(m.entries), y), x.base, v
        )
        ip = trace_product(variational_gradient(x, y), v)
        assert fd == pytest.approx(ip, rel=1e-5)


class TestMaximizeVariational:
    def test_identity_target_from_scaled_start(self):
        res = maximize_variational(PdMatrix.identity(3), PdMatrix.identity(3).scaled(2.0))
        assert res.converged
        assert res.value == pytest.approx(3.0, rel=1e-10)
        assert (res.maximizer.base - HermitianMatrix.identity(3)).frobenius_norm() <= 1e-6

    def test_random_target(self):
        y = random_pd(4, 86, 0.1)
        res = maximize_variational(y, PdMatrix.identity(4))
        assert res.converged
        assert res.value == pytest.approx(y.trace(), rel=1e-6)
        assert (res.maximizer.base - y.base).frobenius_norm() <= 1e-4 * (
            1.0 + y.frobenius_norm()
        )

    def test_known_diagonal_value(self):
        res = maximize_variational(PdMatrix.diagonal([5.0, 0.2]))
        assert res.converged
        assert res.value == pytest.approx(5.2, rel=1e-6)

    def test_monotone_ascent_history(self):
        y = random_pd(5, 87, 0.1)
        res = maximize_variational(y)
        hist = res.objective_history
        assert len(hist) == res.iters + 1
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))

    def test_converged_implies_gradient_below_tolerance(self):
        y = random_pd(4, 88, 0.1)
        res = maximize_variational(y)
        assert res.converged
        assert res.grad_norm_final <= 1e-8 * (1 + y.frobenius_norm())

    def test_not_converged_returns_result(self, monkeypatch):
        monkeypatch.setattr(variational, "_MAX_ITERS", 2)
        y = random_pd(4, 89, 0.1)
        res = maximize_variational(y)
        assert not res.converged
        assert res.iters <= 2
        assert res.maximizer.min_eigenvalue > 0.0

    def test_zero_iterations_at_the_maximizer(self):
        y = PdMatrix.identity(4)
        res = maximize_variational(y, y)
        assert res.converged
        assert res.iters == 0


class TestLiebObjective:
    def test_zero_h_at_x_equals_a(self):
        a = random_pd(4, 91, 0.1)
        assert lieb_objective(a, HermitianMatrix.zeros(4), a) == pytest.approx(
            a.trace(), rel=1e-11
        )

    def test_identity_x_and_a(self):
        h = sample_hermitian(trial_rng(92, 0), 3, 3.0)
        i3 = PdMatrix.identity(3)
        assert lieb_objective(i3, h, i3) == pytest.approx(h.trace() + 3.0, rel=1e-12)

    def test_upper_bound_by_trace_exp_log(self):
        for i in range(50):
            rng = trial_rng(93, i)
            x = sample_pd(rng, 4, 0.1)
            h = sample_hermitian(rng, 4, 3.0)
            a = sample_pd(rng, 4, 0.1)
            bound = trace_exp_log(h, a)
            assert lieb_objective(x, h, a) <= bound + 1e-9 * (1.0 + abs(bound))

    def test_two_algebraic_routes_agree(self):
        # divergence-breakdown route vs expanded tr(X(H + log A) - X log X + X)
        rng = trial_rng(94, 0)
        x = sample_pd(rng, 4, 0.1)
        h = sample_hermitian(rng, 4, 3.0)
        a = sample_pd(rng, 4, 0.1)
        expanded = (
            trace_product(x, h + mat_log(a)) - entropy(x) + x.trace()
        )
        assert lieb_objective(x, h, a) == pytest.approx(expanded, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("i", range(20))
    def test_gradient_matches_central_differences(self, i):
        rng = trial_rng(95, i)
        h, a = sample_lieb_instance(rng, 4)
        x = sample_pd(rng, 4, 0.1)
        v = unit_direction(rng, 4)
        fd = central_difference(
            lambda m: lieb_objective(as_pd(m.entries), h, a), x.base, v
        )
        ip = trace_product(lieb_gradient(x, h, a), v)
        assert fd == pytest.approx(ip, rel=1e-5)

    def test_gradient_vanishes_at_closed_form_point(self):
        rng = trial_rng(96, 0)
        h, a = sample_lieb_instance(rng, 4)
        x_star = mat_exp(h + mat_log(a))
        assert lieb_gradient(x_star, h, a).frobenius_norm() <= 1e-10


class TestMaximizeLieb:
    def test_zero_h_reduces_to_variational(self):
        a = random_pd(4, 97, 0.1)
        res = maximize_lieb(HermitianMatrix.zeros(4), a)
        assert res.converged
        assert res.value == pytest.approx(a.trace(), rel=1e-6)
        assert (res.maximizer.base - a.base).frobenius_norm() <= 1e-4 * (
            1.0 + a.frobenius_norm()
        )

    @pytest.mark.parametrize("i", range(10))
    def test_matches_closed_form_oracle(self, i):
        rng = trial_rng(98, i)
        h, a = sample_lieb_instance(rng, 4)
        res = maximize_lieb(h, a)
        assert res.converged
        direct = trace_exp_log(h, a)
        x_star = mat_exp(h + mat_log(a))
        assert res.value == pytest.approx(direct, rel=1e-6)
        gap = (res.maximizer.base - x_star.base).frobenius_norm()
        assert gap <= 1e-4 * (1.0 + x_star.frobenius_norm())

    def test_commuting_diagonal_scalar_sum(self):
        h, a, h_diag, a_diag = commuting_pair(trial_rng(99, 0), 4)
        res = maximize_lieb(h, a)
        assert res.converged
        expected = float(np.sum(a_diag * np.exp(h_diag)))
        assert res.value == pytest.approx(expected, rel=1e-8)

    def test_monotone_ascent_history(self):
        rng = trial_rng(100, 0)
        h, a = sample_lieb_instance(rng, 4)
        hist = maximize_lieb(h, a).objective_history
        assert all(b >= a_ - 1e-12 for a_, b in zip(hist, hist[1:]))


class TestFenchelValue:
    def test_zero_h(self):
        a = random_pd(3, 101, 0.1)
        assert trace_exp_log(HermitianMatrix.zeros(3), a) == pytest.approx(
            a.trace(), rel=1e-12
        )

    def test_midpoint_convexity_in_h(self):
        for i in range(25):
            rng = trial_rng(103, i)
            a = sample_pd(rng, 4, 0.1)
            h1 = sample_hermitian(rng, 4, 3.0)
            h2 = sample_hermitian(rng, 4, 3.0)
            mid = (h1 + h2) * 0.5
            lhs = trace_exp_log(mid, a)
            rhs = 0.5 * (trace_exp_log(h1, a) + trace_exp_log(h2, a))
            assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs))


def test_maximizer_below_the_floor_stops_early():
    # exp(H + log A) has the eigenvalue e^-30 < 1e-10, the eigenvalue floor:
    # no trial point near it is admissible, so the ascent gives up instead of
    # creeping to the iteration cap.
    res = maximize_lieb(HermitianMatrix.diagonal([-30.0, 0.5]), PdMatrix.identity(2))
    assert not res.converged
    assert res.iters <= 100
    assert res.maximizer.min_eigenvalue > 1e-10


@pytest.mark.parametrize("factor", [0.1, 0.5, 0.9])
def test_line_search_tries_steps_down_to_1e_12_for_any_factor(monkeypatch, factor):
    # The failing last line search of the below-the-floor case: its trial
    # points are X + tD for t = 1, factor, factor**2, ..., and the smallest t
    # tried is the last one at or above 1e-12.
    points = []
    solver = np.linalg.eigh

    def recorded(m, *args, **kwargs):
        # each matrix of a stacked call, one by one
        points.extend(np.array(m).reshape(-1, *np.shape(m)[-2:]))
        return solver(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    monkeypatch.setattr(variational, "_BACKTRACK_FACTOR", factor)
    res = maximize_lieb(HermitianMatrix.diagonal([-30.0, 0.5]), PdMatrix.identity(2))
    assert not res.converged and res.iters < variational._MAX_ITERS
    # Every matrix here is diagonal, so each eigenbasis is the standard one
    # up to signs: the last accepted trial point equals the maximizer,
    # whose own decomposition comes after the last line search.
    x = res.maximizer.entries
    assert points[-1].tobytes() == x.tobytes()
    points = points[:-1]
    last = max(i for i, p in enumerate(points) if np.array_equal(p, x))
    full = np.linalg.norm(points[last + 1] - x)
    steps = [np.linalg.norm(p - x) / full for p in points[last + 1:]]
    # ||(X + tD) - X|| carries a rounding error of about eps ||X|| / t.
    assert np.allclose(steps, factor ** np.arange(len(steps)), rtol=1e-3, atol=0.0)
    assert 1e-12 * (1 - 1e-3) <= steps[-1] < 1e-12 / factor


def test_maximizer_respects_eigenvalue_floor():
    # drive toward a near-singular target; trial points below the floor are rejected
    y = validate_pd(HermitianMatrix.diagonal([4.0, 1e-4]))
    res = maximize_variational(y)
    assert res.maximizer.min_eigenvalue >= 1e-10
    assert res.converged


def _log_derivative(x: PdMatrix, e: np.ndarray) -> np.ndarray:
    """Daleckii-Krein: ``Dlog(X)[E] = U ((U* E U) / Phi) U*``."""
    w, u = x.spectrum.eigenvalues, x.spectrum.vectors
    return u @ ((u.conj().T @ e @ u) / _logarithmic_mean(w)) @ u.conj().T


def _central_matrix_difference(f, x: PdMatrix, e: HermitianMatrix, s=1e-5) -> np.ndarray:
    return (f(x.base + s * e).entries - f(x.base - s * e).entries) / (2.0 * s)


def _log_at(m: HermitianMatrix) -> HermitianMatrix:
    return mat_log(validate_pd(m))


class TestNewtonStep:
    def test_logarithmic_mean_is_accurate_for_near_equal_and_distant_pairs(self):
        w = np.array([1e-9, 0.5, 1.0, 1.0 + 2.0**-52, 1.0 + 1e-9, 1.0 + 1e-5, 3.0, 1e3])
        phi = _logarithmic_mean(w)
        with localcontext() as ctx:
            ctx.prec = 50
            for i, wi in enumerate(w):
                assert phi[i, i] == wi
                for j, wj in enumerate(w[:i]):
                    a, b = Decimal(float(wi)), Decimal(float(wj))
                    exact = float((a - b) / (a.ln() - b.ln()))
                    assert phi[i, j] == phi[j, i]
                    assert phi[i, j] == pytest.approx(exact, rel=4e-16)

    @pytest.mark.parametrize("i", range(5))
    def test_log_frechet_derivative_matches_central_differences(self, i):
        rng = trial_rng(111, i)
        x = sample_pd(rng, 5, 0.1)
        e = unit_direction(rng, 5)
        fd = _central_matrix_difference(_log_at, x, e)
        exact = _log_derivative(x, e.entries)
        assert np.linalg.norm(fd - exact) <= 1e-6 * (1.0 + np.linalg.norm(exact))

    @pytest.mark.parametrize("i", range(5))
    def test_newton_direction_solves_the_frechet_equation(self, i):
        rng = trial_rng(112, i)
        h, a = sample_lieb_instance(rng, 5)
        x = sample_pd(rng, 5, 0.1)
        k = (h + mat_log(a)).entries
        u = x.spectrum.vectors
        # a stack of one
        kt, grad_norm, dt, slope = (
            r[0] for r in _newton_step(k[None], x.spectrum.eigenvalues[None], u[None]))
        # K~ = U* K U, exactly self-adjoint; D = U D~ U* back in the standard basis.
        assert np.array_equal(kt, kt.conj().T)
        assert np.linalg.norm(kt - u.conj().T @ k @ u) <= 1e-14 * np.linalg.norm(k)
        d = u @ dt @ u.conj().T
        g = lieb_gradient(x, h, a)
        assert grad_norm == pytest.approx(g.frobenius_norm(), rel=1e-12)
        assert slope == pytest.approx(trace_product(g, HermitianMatrix(d)), rel=1e-12)
        assert slope > 0.0
        # Dlog(X)[D] = G, checked against finite differences of mat_log along D.
        step = 1e-5 / np.linalg.norm(d)
        fd = _central_matrix_difference(_log_at, x, HermitianMatrix(d), step)
        assert np.linalg.norm(fd - g.entries) <= 1e-6 * (1.0 + g.frobenius_norm())

    def test_stacked_reductions_equal_the_one_matrix_formulas(self):
        # Each row's objective, gradient norm and slope is what np.vdot,
        # np.linalg.norm and np.diag give for its matrices alone, bit for bit.
        rng = trial_rng(114, 0)
        x = [sample_pd(rng, 5, 0.1) for _ in range(3)]
        k = np.stack([sample_hermitian(rng, 5, 3.0).entries for _ in range(3)])
        w, u = np.stack([m.eigenvalues for m in x]), np.stack([m.spectrum.vectors for m in x])
        kt, norms, dt, slopes = _newton_step(k, w, u)
        # the objective's formula, at X = D~ with the eigenvalues w
        objectives = variational._objectives(kt, dt, w)
        for r in range(3):
            g = kt[r] - np.diag(np.log(w[r]))
            assert norms[r] == np.linalg.norm(g) and slopes[r] == np.vdot(g, dt[r]).real
            assert objectives[r] == (float(np.vdot(kt[r], dt[r]).real) - float(entropy(x[r]))
                                     + float(np.sum(w[r])))

    @pytest.mark.parametrize("i", range(5))
    def test_gradients_have_the_frechet_derivative_as_directional_derivative(self, i):
        # Both gradients are a constant minus log X, so along E their
        # derivative is exactly -Dlog(X)[E].
        rng = trial_rng(113, i)
        h, a = sample_lieb_instance(rng, 4)
        x = sample_pd(rng, 4, 0.1)
        e = unit_direction(rng, 4)
        exact = -_log_derivative(x, e.entries)
        scale = 1.0 + np.linalg.norm(exact)
        for grad in (lambda m: lieb_gradient(validate_pd(m), h, a),
                     lambda m: variational_gradient(validate_pd(m), a)):
            fd = _central_matrix_difference(grad, x, e)
            assert np.linalg.norm(fd - exact) <= 1e-6 * scale


class TestNewtonConvergence:
    @pytest.mark.parametrize("seed", range(10))
    def test_converges_in_a_handful_of_iterations(self, seed):
        h, a = sample_lieb_instance(np.random.default_rng(seed), 16)
        res = maximize_lieb(h, a)
        assert res.converged
        assert res.iters <= 12
        direct = trace_exp_log(h, a)
        assert res.value == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("i", range(20))
    def test_maximizer_near_the_floor_at_a_large_norm_does_not_raise(self, i):
        # exp(H) has the spectrum e^-22.5 = 1.7e-10 ... e^16 = 8.9e6: forming
        # U diag(w) U* errs by about eps ||X|| = 2e-9, which can take its
        # smallest eigenvalue below PD_FLOOR; the iterate's spectrum then stays.
        rng = trial_rng(7, i)
        u = random_unitary(rng, 4)
        h = HermitianMatrix((u * np.array([-22.5, -1.0, 2.0, 16.0])) @ u.conj().T)
        a = PdMatrix.identity(4)
        res = maximize_lieb(h, a)
        assert res.maximizer.min_eigenvalue > 1e-12
        if res.converged:
            assert res.value == pytest.approx(trace_exp_log(h, a), rel=1e-10)

    def test_ill_conditioned_instance_converges(self):
        # dim 16, A with spectrum 1e-6 ... 1e3 in a random basis.
        rng = trial_rng(110, 0)
        u = random_unitary(rng, 16)
        a = as_pd((u * np.logspace(-6.0, 3.0, 16)) @ u.conj().T)
        h = sample_hermitian(rng, 16, 1.7)
        res = maximize_lieb(h, a)
        assert res.converged
        direct = trace_exp_log(h, a)
        x_star = mat_exp(h + mat_log(a))
        assert res.value == pytest.approx(direct, rel=1e-6)
        gap = (res.maximizer.base - x_star.base).frobenius_norm()
        assert gap <= 1e-4 * (1.0 + x_star.frobenius_norm())


def _mixed_stack():
    """``(h, a, init)``: four problems at dim 4 whose ascents end in four ways.

    Row 0 starts at its maximizer ``Y`` (no iteration).  Rows 1 and 2 have
    an eigenvalue of ``exp(H)`` far below the eigenvalue floor, so they
    stall, after 35 and 26 iterations.  Row 3 is the large-norm instance
    whose maximizer carries the iterate's spectrum (22 iterations).
    """
    from conftest import trial_rng

    u = random_unitary(trial_rng(7, 7), 4)
    h = np.stack([
        np.zeros((4, 4), dtype=complex),
        HermitianMatrix.diagonal([-28.0, 0.5, 0.2, -0.3]).entries,
        HermitianMatrix.diagonal([-35.0, 0.5, 0.2, -0.3]).entries,
        HermitianMatrix((u * np.array([-22.5, -1.0, 2.0, 16.0])) @ u.conj().T).entries,
    ])
    y = random_pd(4, 87, 0.1)
    eye = PdMatrix.identity(4)
    return h, pd_stack((y, eye, eye, eye)), pd_stack((y, eye, eye, eye))


class TestStackedAscent:
    def test_each_row_equals_its_problem_alone(self, monkeypatch):
        # With a cap of 27 iterations, row 1 is stopped by the cap, row 2
        # stalls at the smallest step first, and rows 0 and 3 converge.
        monkeypatch.setattr(variational, "_MAX_ITERS", 27)
        h, a, init = _mixed_stack()
        k = h + a.log
        tol = np.full(4, 1e-8)
        stacked = _ascend(k, init.eigenvalues, init.vectors, tol)
        alone = [_ascend(k[r:r + 1], init.eigenvalues[r:r + 1], init.vectors[r:r + 1], tol[:1])
                 for r in range(4)]
        for r, one in enumerate(alone):
            assert stacked[0][r].tobytes() == one[0][0].tobytes()
            assert stacked[1][r].tobytes() == one[1][0].tobytes()
            assert (stacked[2][r], stacked[3][r], stacked[4][r]) == (one[2][0], one[3][0], one[4][0])

        runs = maximize_liebs(h, a, init)
        assert runs.iters.tolist() == [0, 27, 26, 22]
        assert runs.converged.tolist() == [True, False, False, True]
        x = runs.maximizer
        for r in range(4):
            one = maximize_lieb(HermitianMatrix._exact(h[r]), a.point(r), init.point(r))
            assert x.entries[r].tobytes() == one.maximizer.entries.tobytes()
            assert x.eigenvalues[r].tobytes() == one.maximizer.eigenvalues.tobytes()
            assert x.vectors[r].tobytes() == one.maximizer.spectrum.vectors.tobytes()
            assert (runs.value[r], runs.iters[r], runs.grad_norm_final[r], runs.converged[r],
                    runs.objective_history[r]) == (one.value, one.iters, one.grad_norm_final,
                                                   one.converged, one.objective_history)
        # Row 3's maximizer carries the last iterate's spectrum: forming it
        # took an eigenvalue to PD_FLOOR or under.
        grad_tol = 1e-8 * (1.0 + (np.linalg.norm(h[3]) + 2.0))
        w, u = _ascend(k[3:], init.eigenvalues[3:], init.vectors[3:], np.array([grad_tol]))[:2]
        assert x.eigenvalues[3].tobytes() == w[0].tobytes()
        with pytest.raises(DomainError):
            validate_pd(HermitianMatrix(x.entries[3]))

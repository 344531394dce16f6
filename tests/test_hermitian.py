"""Hermitian core: symmetrization, spectral calculus, random generation."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelent import (
    PD_FLOOR,
    ConvergenceError,
    DimMismatchError,
    DomainError,
    HermitianMatrix,
    NotHermitianError,
    PdMatrix,
    eig,
    eigvals,
    entropy,
    mat_exp,
    mat_log,
    matrix_fn,
    maximize_lieb,
    pointwise,
    random_pd,
    relative_entropy,
    segment_test,
    symmetrize,
    trace_exp_log,
    trace_product,
    validate_pd,
)
from qrelent import convexity, hermitian
from qrelent.hermitian import _ginibre
from qrelent.convexity import sample_lieb_instance
from qrelent.variational import _ascend
from conftest import random_unitary, sample_hermitian, sample_pd, trial_rng


class TestSymmetrize:
    def test_identity_unchanged(self):
        m = symmetrize(np.eye(3))
        assert np.array_equal(m.entries, np.eye(3, dtype=complex))

    def test_exactly_self_adjoint_unchanged(self):
        raw = np.array([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        m = symmetrize(raw)
        assert np.array_equal(m.entries, raw)

    def test_small_asymmetry_averaged(self):
        m = symmetrize(np.array([[1.0, 1e-13], [0.0, 1.0]]))
        assert m.entries[0, 1] == 5e-14
        assert m.entries[1, 0] == 5e-14

    def test_large_asymmetry_rejected(self):
        with pytest.raises(NotHermitianError):
            symmetrize(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(NotHermitianError):
            symmetrize(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(NotHermitianError):
            symmetrize(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
    def test_output_exactly_self_adjoint_and_idempotent(self, seed, dim):
        g = trial_rng(seed, 0)
        raw = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
        m = HermitianMatrix((raw + raw.conj().T) / 2.0)
        assert np.array_equal(m.entries, m.entries.conj().T)
        assert np.array_equal(symmetrize(m.entries).entries, m.entries)

    def test_entries_are_read_only(self):
        m = symmetrize(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestExactArithmetic:
    """Results that are self-adjoint by construction skip the anti-self-adjoint check.

    Sums, differences and real multiples also skip the symmetrization, which
    would change nothing; arrays the library builds (spectral reconstructions,
    samples, the maximizer) are symmetrized without the check.
    """

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        t=st.floats(-1e3, 1e3, allow_nan=False),
        real=st.booleans(),
    )
    def test_results_equal_symmetrize_of_the_same_array(self, seed, dim, t, real):
        rng = trial_rng(seed, 0)
        a = sample_hermitian(rng, dim, 3.0)
        b = sample_hermitian(rng, dim, 3.0) * t
        if real:
            a = HermitianMatrix(a.entries.real)
        for result, raw in (
            (a + b, a.entries + b.entries),
            (a - b, a.entries - b.entries),
            (a * t, a.entries * t),
            (-a, -a.entries),
        ):
            # Equal as finite doubles: bit for bit, except that a zero may
            # carry either sign.
            assert np.array_equal(result.entries, symmetrize(raw).entries)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
    def test_internally_built_results_equal_symmetrize_of_the_same_array(self, seed, dim):
        def rebuilt(dec, vals):
            return (dec.vectors * vals) @ dec.vectors.conj().T

        rng = trial_rng(seed, 0)
        h = sample_hermitian(rng, dim, 3.0)
        a = sample_pd(rng, dim, 0.1)
        dec = eig(h)
        pairs = [
            (mat_log(a), rebuilt(a.spectrum, np.log(a.spectrum.eigenvalues))),
            (mat_exp(h), rebuilt(dec, np.exp(dec.eigenvalues))),
            (matrix_fn(h, np.square), rebuilt(dec, np.square(dec.eigenvalues))),
        ]

        # The samplers, against the raw arrays of an identically seeded twin.
        rng, twin = trial_rng(seed, 1), trial_rng(seed, 1)
        g = _ginibre(twin, dim)
        pairs.append((sample_pd(rng, dim, 0.1), g @ g.conj().T / dim + 0.1 * np.eye(dim)))
        g = _ginibre(twin, dim)
        sampled = sample_hermitian(rng, dim, 1.0)
        expected = symmetrize((g + g.conj().T) / 2.0)
        rho = float(np.max(np.abs(np.linalg.eigvalsh(expected.entries))))
        if rho > 1.0:
            expected = expected * (1.0 / rho)
        assert sampled.entries.tobytes() == expected.entries.tobytes()

        # The maximizer, against the last iterate of the ascent it comes from.
        grad_tol = 1e-8 * (1.0 + (h.frobenius_norm() + a.frobenius_norm()))
        x = _ascend((h + mat_log(a)).entries, None, grad_tol)[0]
        pairs.append((maximize_lieb(h, a).maximizer, x))

        for result, raw in pairs:
            assert result.entries.tobytes() == symmetrize(raw).entries.tobytes()

    def test_non_finite_result_rejected(self):
        big = HermitianMatrix.identity(2) * 1e308
        with np.errstate(over="ignore"), pytest.raises(NotHermitianError):
            big + big


class TestEig:
    def test_identity(self):
        dec = eig(HermitianMatrix.identity(2))
        np.testing.assert_array_equal(dec.eigenvalues, [1.0, 1.0])

    def test_diagonal_sorted_ascending_with_permutation_vectors(self):
        dec = eig(HermitianMatrix.diagonal([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0])
        np.testing.assert_allclose(np.abs(dec.vectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_reconstruction_random(self):
        m = sample_hermitian(trial_rng(1, 0), 6, 5.0)
        dec = eig(m)
        err = np.linalg.norm(dec.reconstruct() - m.entries)
        assert err <= 1e-10 * (1.0 + m.frobenius_norm())

    def test_unitarity_random(self):
        m = sample_hermitian(trial_rng(2, 0), 6, 5.0)
        u = eig(m).vectors
        err = np.linalg.norm(u.conj().T @ u - np.eye(6))
        assert err <= 1e-10 * 6


class TestMatrixFn:
    def test_square_fixes_identity(self):
        out = matrix_fn(HermitianMatrix.identity(3), lambda t: t**2)
        np.testing.assert_allclose(out.entries, np.eye(3), atol=1e-14)

    def test_sqrt_diagonal(self):
        out = matrix_fn(HermitianMatrix.diagonal([1.0, 4.0]), np.sqrt)
        np.testing.assert_allclose(out.entries, np.diag([1.0, 2.0]), atol=1e-14)

    def test_log_exp_round_trip(self):
        a = random_pd(5, 11, 0.1)
        back = matrix_fn(matrix_fn(a.base, np.log), np.exp)
        err = np.linalg.norm(back.entries - a.entries)
        assert err <= 1e-9 * (1.0 + a.frobenius_norm())

    def test_scalar_callable_accepted(self):
        out = matrix_fn(HermitianMatrix.diagonal([1.0, 4.0]), math.sqrt)
        np.testing.assert_allclose(out.entries, np.diag([1.0, 2.0]), atol=1e-14)

    def test_domain_error_on_log_of_indefinite(self):
        m = HermitianMatrix.diagonal([-1.0, 1.0])
        with pytest.raises(DomainError):
            matrix_fn(m, np.log)
        with pytest.raises(DomainError):
            matrix_fn(m, math.log)

    def test_spectral_commutation_with_unitary_conjugation(self):
        rng = trial_rng(3, 0)
        m = sample_hermitian(rng, 5, 2.0)
        u = random_unitary(rng, 5)
        conjugated = HermitianMatrix(u @ m.entries @ u.conj().T)
        lhs = matrix_fn(conjugated, np.exp).entries
        rhs = u @ matrix_fn(m, np.exp).entries @ u.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1.0 + np.linalg.norm(rhs))

    def test_trace_equals_eigenvalue_sum(self):
        m = sample_hermitian(trial_rng(4, 0), 6, 2.0)
        out = matrix_fn(m, np.exp)
        expected = float(np.sum(np.exp(eig(m).eigenvalues)))
        assert abs(out.trace() - expected) <= 1e-10 * (1.0 + abs(expected))


class TestMatExp:
    def test_zero_gives_identity(self):
        out = mat_exp(HermitianMatrix.zeros(3))
        np.testing.assert_allclose(out.entries, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        out = mat_exp(HermitianMatrix.diagonal([0.0, 1.0]))
        np.testing.assert_allclose(out.entries, np.diag([1.0, math.e]), atol=1e-14)

    def test_determinant_trace_identity(self):
        # det(exp M) and exp(tr M) computed along independent routes
        m = sample_hermitian(trial_rng(5, 0), 5, 2.0)
        det = np.linalg.det(mat_exp(m).entries).real
        assert det == pytest.approx(math.exp(m.trace()), rel=1e-8)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            mat_exp(HermitianMatrix.diagonal([701.0]))

    def test_result_is_positive_definite(self):
        m = sample_hermitian(trial_rng(6, 0), 4, 3.0)
        out = mat_exp(m)
        assert out.min_eigenvalue > 0.0
        assert np.linalg.eigvalsh(out.entries)[0] > 0.0


class TestMatLog:
    def test_identity_gives_zero(self):
        out = mat_log(PdMatrix.identity(3))
        np.testing.assert_allclose(out.entries, np.zeros((3, 3)), atol=1e-14)

    def test_diagonal(self):
        out = mat_log(PdMatrix.diagonal([math.e, math.e**2]))
        np.testing.assert_allclose(out.entries, np.diag([1.0, 2.0]), atol=1e-14)

    def test_scaling_shifts_spectrum_only(self):
        # log(tA) - log(A) = (log t) I: same eigenvectors, shifted eigenvalues
        a = random_pd(4, 21, 0.1)
        for t in (0.25, 3.7):
            shift = mat_log(a.scaled(t)) - mat_log(a)
            np.testing.assert_allclose(
                shift.entries, math.log(t) * np.eye(4), atol=1e-12
            )

    def test_log_is_built_once_and_cached(self, monkeypatch):
        a = random_pd(4, 33, 0.1)
        builds = []
        rebuild = hermitian._rebuild
        monkeypatch.setattr(hermitian, "_rebuild", lambda u, v: builds.append(1) or rebuild(u, v))
        first = mat_log(a)
        assert mat_log(a) is first
        assert len(builds) == 1

    def test_round_trips(self):
        a = random_pd(4, 22, 0.1)
        back = mat_exp(mat_log(a))
        assert (back.base - a.base).frobenius_norm() <= 1e-9 * (1.0 + a.frobenius_norm())
        m = sample_hermitian(trial_rng(7, 0), 4, 2.0)
        back2 = mat_log(mat_exp(m))
        assert (back2 - m).frobenius_norm() <= 1e-9 * (1.0 + m.frobenius_norm())


def _pd_via_maximize_lieb() -> PdMatrix:
    rng = trial_rng(31, 0)
    h = sample_hermitian(rng, 4, 1.5)
    return maximize_lieb(h, random_pd(4, 32, 0.3)).maximizer


# Every way a spectrum reaches a PdMatrix.
PD_CONSTRUCTIONS = {
    "validate_pd": lambda: validate_pd(HermitianMatrix(random_pd(5, 23, 0.1).entries)),
    "identity": lambda: PdMatrix.identity(4),
    "diagonal": lambda: PdMatrix.diagonal([3.0, 0.5, 1e-3]),
    "scaled": lambda: random_pd(5, 24, 0.1).scaled(2.7),
    "eigenvalues_only": lambda: sample_pd(trial_rng(36, 0), 5, 0.1, vectors=False),
    "scaled_eigenvalues_only": lambda: sample_pd(trial_rng(37, 0), 5, 0.1, vectors=False).scaled(2.7),
    "mat_exp": lambda: mat_exp(sample_hermitian(trial_rng(25, 0), 5, 3.0)),
    "maximize_lieb": _pd_via_maximize_lieb,
}


class TestPdMatrix:
    def test_sub_floor_spectrum_raises_domain_error(self):
        # No PdMatrix, and so no argument of mat_log, carries a spectrum at
        # or below the floor: there is no way around the validation.
        base = HermitianMatrix.diagonal([-1.0, 1.0])
        vectors = np.eye(2, dtype=complex)
        for smallest in (-1.0, 0.0, PD_FLOOR, math.nan):
            with pytest.raises(DomainError):
                PdMatrix(base, np.array([smallest, 1.0]), vectors)
            with pytest.raises(DomainError):
                PdMatrix(base, np.array([smallest, 1.0]))
        with pytest.raises(DomainError):
            validate_pd(base)

    @pytest.mark.parametrize("build", PD_CONSTRUCTIONS.values(), ids=PD_CONSTRUCTIONS.keys())
    def test_carried_spectrum_reconstructs_entries(self, build):
        a = build()
        w = a.spectrum.eigenvalues
        assert np.all(np.diff(w) >= 0.0)
        assert a.min_eigenvalue == w[0] > PD_FLOOR
        err = np.linalg.norm(a.spectrum.reconstruct() - a.entries)
        assert err <= 1e-10 * (1.0 + a.frobenius_norm())

    def test_min_eigenvalue_is_read_only(self):
        a = PdMatrix.identity(2)
        with pytest.raises(AttributeError):
            a.min_eigenvalue = 5.0
        with pytest.raises(ValueError):
            a.spectrum.eigenvalues[0] = 5.0


@pytest.fixture
def decompositions(monkeypatch):
    """Count the calls of numpy's Hermitian eigensolvers."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _solver(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestDecompositionCounts:
    def test_validate_pd_decomposes_once(self, decompositions):
        m = HermitianMatrix(random_pd(4, 26, 0.1).entries)
        decompositions.update(eigh=0, eigvalsh=0)
        a = validate_pd(m)
        assert validate_pd(a) is a
        assert decompositions == {"eigh": 1, "eigvalsh": 0}

    def test_relative_entropy_and_mat_log_read_the_carried_spectrum(self, decompositions):
        x, y = random_pd(4, 27, 0.1), random_pd(4, 28, 0.1)
        decompositions.update(eigh=0, eigvalsh=0)
        relative_entropy(x, y)
        mat_log(x)
        assert decompositions == {"eigh": 0, "eigvalsh": 0}

    def test_scaled_carries_the_scaled_spectrum(self, decompositions):
        a = random_pd(4, 35, 0.1)
        decompositions.update(eigh=0, eigvalsh=0)
        b = a.scaled(2.5)
        assert decompositions == {"eigh": 0, "eigvalsh": 0}
        assert b.spectrum.eigenvalues.tobytes() == (a.spectrum.eigenvalues * 2.5).tobytes()
        assert b.spectrum.vectors is a.spectrum.vectors
        assert b.entries.tobytes() == (a.base * 2.5).entries.tobytes()

    def test_trace_exp_log_decomposes_once(self, decompositions):
        h = sample_hermitian(trial_rng(29, 0), 4, 2.0)
        a = random_pd(4, 30, 0.1)
        decompositions.update(eigh=0, eigvalsh=0)
        trace_exp_log(h, a)
        assert decompositions == {"eigh": 0, "eigvalsh": 1}

    def test_eigenvalues_only_pd_matrix_decomposes_for_its_first_log(self, decompositions):
        entries = random_pd(5, 38, 0.1).entries
        decompositions.update(eigh=0, eigvalsh=0)
        a = validate_pd(HermitianMatrix(entries), vectors=False)
        assert decompositions == {"eigh": 0, "eigvalsh": 1}
        twin = validate_pd(HermitianMatrix(entries))
        decompositions.update(eigh=0, eigvalsh=0)
        first = mat_log(a)
        assert decompositions == {"eigh": 1, "eigvalsh": 0}
        assert mat_log(a) is first and a.spectrum is a.spectrum
        assert decompositions == {"eigh": 1, "eigvalsh": 0}
        # The validated eigenvalues stay; the vectors come from eig.
        assert a.spectrum.eigenvalues is a.eigenvalues
        bound = 1e-12 * (1.0 + a.frobenius_norm())
        assert (first - twin.log).frobenius_norm() <= bound
        assert abs(entropy(a) - entropy(twin)) <= bound

    def test_segment_with_eigenvalues_only_endpoints_stacks_eigvalsh(self, decompositions):
        # The joint-convexity segment as the suite draws it: X's mixtures are
        # one eigvalsh stack, Y's one eigh stack, and D(X;Y) decomposes
        # nothing else.  Alone, the X side costs one eigvalsh and no eigh.
        rng = trial_rng(39, 0)
        p1 = (sample_pd(rng, 4, 0.1, vectors=False), sample_pd(rng, 4, 0.1))
        p2 = (sample_pd(rng, 4, 0.1, vectors=False), sample_pd(rng, 4, 0.1))
        decompositions.update(eigh=0, eigvalsh=0)
        f = lambda x, y: relative_entropy(x, y).value
        assert len(segment_test(pointwise(f), p1, p2, [0.1, 0.3, 0.5, 0.9], "convex")) == 4
        assert decompositions == {"eigh": 1, "eigvalsh": 1}

        decompositions.update(eigh=0, eigvalsh=0)
        segment_test(pointwise(lambda x: x.trace()), p1[:1], p2[:1], [0.1, 0.3], "convex")
        assert decompositions == {"eigh": 0, "eigvalsh": 1}

    @pytest.mark.parametrize("kind, pd_components", [("joint", 2), ("lieb", 1), ("fenchel", 0)])
    def test_segment_decomposes_its_mixtures_once_per_pd_component(
        self, decompositions, kind, pd_components
    ):
        rng = trial_rng(34, 0)
        if kind == "fenchel":
            p1, p2 = (sample_hermitian(rng, 4, 3.0),), (sample_hermitian(rng, 4, 3.0),)
        else:
            p1 = tuple(sample_pd(rng, 4, 0.1) for _ in range(pd_components))
            p2 = tuple(sample_pd(rng, 4, 0.1) for _ in range(pd_components))
        decompositions.update(eigh=0, eigvalsh=0)
        trials = segment_test(
            pointwise(lambda *m: m[0].trace()), p1, p2, [0.1, 0.3, 0.5, 0.9], "convex"
        )
        assert len(trials) == 4
        assert decompositions == {"eigh": pd_components, "eigvalsh": 0}

    @pytest.mark.parametrize("grid", [(0.5,), (0.1, 0.3, 0.5, 0.9), convexity.T_GRID])
    @pytest.mark.parametrize("trial, counts", [
        # sampling: X1, X2 eigvalsh, Y1, Y2 eigh; segment: one stack each side
        (convexity.joint_convexity_trial, {"eigh": 3, "eigvalsh": 3}),
        # sampling: H eigvalsh, A1, A2 eigh; segment: the A stack, then one
        # eigvalsh of H + log A for the endpoints and one for the mixtures
        (functools.partial(convexity.lieb_concavity_trial, orientation="concave"),
         {"eigh": 3, "eigvalsh": 3}),
        # sampling: A eigh, H1, H2 eigvalsh; segment: as lieb, no stack to decompose
        (convexity.fenchel_trial, {"eigh": 1, "eigvalsh": 4}),
    ])
    def test_segment_trial_decomposes_in_stacks_whatever_the_grid(
        self, decompositions, monkeypatch, trial, counts, grid
    ):
        # One trial of each closed-form claim, on grids of 1, 4 and 9 points
        # plus the drawn t: the counts stay the same, so no evaluation falls
        # back to one decomposition per point.
        monkeypatch.setattr(convexity, "T_GRID", grid)
        decompositions.update(eigh=0, eigvalsh=0)
        records, _ = trial(trial_rng(41, 0), 6, 1e-9)
        assert len(records) == len(grid) + 1
        assert decompositions == counts

    def test_maximize_lieb_decomposes_each_trial_point_once(self, monkeypatch):
        # Neither the default identity start, nor log A, nor the maximizer
        # is decomposed apart from the ascent's trial points.
        points = []
        solver = np.linalg.eigh

        def recorded(m, *args, **kwargs):
            points.append(np.array(m))
            return solver(m, *args, **kwargs)

        h = sample_hermitian(trial_rng(31, 0), 4, 1.7)
        a = random_pd(4, 32, 0.3)
        monkeypatch.setattr(np.linalg, "eigh", recorded)
        res = maximize_lieb(h, a)
        assert res.converged and len(points) >= res.iters >= 1
        distinct = {p.tobytes() for p in points}
        assert len(distinct) == len(points)
        assert np.eye(4, dtype=complex).tobytes() not in distinct
        assert points[-1].tobytes() == res.maximizer.entries.tobytes()

        # Started next to the maximizer, every full Newton step is accepted:
        # one decomposition per iteration.
        near = a.scaled(1.1)
        points.clear()
        res = maximize_lieb(HermitianMatrix.zeros(4), a, near)
        assert res.converged and len(points) == res.iters >= 2

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_default_start_is_the_identity_without_its_decomposition(self, decompositions, n):
        h, a = sample_lieb_instance(trial_rng(40, n), n)
        decompositions.update(eigh=0, eigvalsh=0)
        default = maximize_lieb(h, a)
        counts = dict(decompositions)
        decompositions.update(eigh=0, eigvalsh=0)
        given = maximize_lieb(h, a, PdMatrix.identity(n))
        assert decompositions == {"eigh": counts["eigh"] + 1, "eigvalsh": counts["eigvalsh"]}
        for res in (default, given):
            assert res.converged and res.iters >= 1
        assert default.maximizer.entries.tobytes() == given.maximizer.entries.tobytes()
        assert default.maximizer.eigenvalues.tobytes() == given.maximizer.eigenvalues.tobytes()
        assert (default.value, default.iters) == (given.value, given.iters)
        assert default.objective_history == given.objective_history


class TestTraceProduct:
    def test_identity_pair(self):
        for n in (1, 3, 7):
            assert trace_product(HermitianMatrix.identity(n), HermitianMatrix.identity(n)) == n

    def test_diagonal(self):
        a = HermitianMatrix.diagonal([1.0, 2.0])
        b = HermitianMatrix.diagonal([3.0, 4.0])
        assert trace_product(a, b) == pytest.approx(11.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            trace_product(HermitianMatrix.identity(2), HermitianMatrix.identity(3))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetry(self, seed):
        rng = trial_rng(seed, 1)
        a = sample_hermitian(rng, 4, 3.0)
        b = sample_hermitian(rng, 4, 3.0)
        scale = 1.0 + a.frobenius_norm() * b.frobenius_norm()
        assert abs(trace_product(a, b) - trace_product(b, a)) <= 1e-12 * scale

    def test_against_dense_oracle(self):
        rng = trial_rng(8, 0)
        a = sample_hermitian(rng, 5, 2.0)
        b = sample_hermitian(rng, 5, 2.0)
        expected = np.trace(a.entries @ b.entries).real
        assert trace_product(a, b) == pytest.approx(expected, rel=1e-12)


class TestRandomPd:
    def test_deterministic_bit_identical(self):
        a = random_pd(4, 1234567, 0.1)
        b = random_pd(4, 1234567, 0.1)
        assert np.array_equal(a.entries, b.entries)

    def test_different_seed_differs(self):
        a = random_pd(4, 1, 0.1)
        b = random_pd(4, 2, 0.1)
        assert not np.array_equal(a.entries, b.entries)

    def test_min_eigenvalue_at_least_spread(self):
        for seed in range(10):
            a = random_pd(4, seed, 0.1)
            assert a.min_eigenvalue >= 0.1 - 1e-12

    def test_mean_trace_monte_carlo(self):
        # E tr(G G*/n) = n, so E tr(sample) = n (1 + spread)
        traces = [random_pd(4, s, 0.1).trace() for s in range(1000)]
        assert np.mean(traces) == pytest.approx(4 * 1.1, rel=0.05)

    def test_negative_seed_accepted(self):
        a = random_pd(3, -17, 0.2)
        assert a.dim == 3

    def test_validation_rejects_indefinite(self):
        with pytest.raises(DomainError):
            validate_pd(HermitianMatrix.diagonal([1.0, -0.5]))

    def test_validation_rejects_near_singular(self):
        with pytest.raises(DomainError):
            validate_pd(HermitianMatrix.diagonal([1.0, 1e-13]))


def test_pd_scaled_requires_positive_factor():
    a = random_pd(3, 5, 0.1)
    for t in (-1.0, 0.0, math.nan):
        with pytest.raises(DomainError):
            a.scaled(t)


def test_sample_hermitian_spectral_radius_capped():
    for i in range(10):
        h = sample_hermitian(trial_rng(9, i), 6, 3.0)
        assert np.max(np.abs(np.linalg.eigvalsh(h.entries))) <= 3.0 + 1e-12


@pytest.mark.parametrize(
    "name", ["eig", "eigvals", "validate_pd_eigenvalues_only", "sample_hermitian", "trace_exp_log"]
)
def test_solver_failure_raises_convergence_error(monkeypatch, name):
    # numpy's solvers essentially never fail on finite self-adjoint input;
    # a failure is injected to check that it is reported as ConvergenceError.
    m, a = HermitianMatrix.identity(3), PdMatrix.identity(3)
    calls = {
        "eig": lambda: eig(m),
        "eigvals": lambda: eigvals(m),
        "validate_pd_eigenvalues_only": lambda: validate_pd(m, vectors=False),
        "sample_hermitian": lambda: sample_hermitian(trial_rng(10, 0), 3, 3.0),
        "trace_exp_log": lambda: trace_exp_log(m, a),
    }

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    for solver in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(ConvergenceError) as err:
        calls[name]()
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

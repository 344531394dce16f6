"""Dense self-adjoint matrix arithmetic and spectral matrix functions.

All matrices are complex Hermitian; real symmetric inputs are treated as
Hermitian matrices with zero imaginary part.  Values are immutable after
construction (the underlying arrays are marked read-only) and safe to share
across threads.  Every ingestion path symmetrizes, so drift from floating
point arithmetic never accumulates.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    ConvergenceError,
    DimMismatchError,
    DomainError,
    NotHermitianError,
)

# Frobenius tolerance for accepting a nearly-self-adjoint input.
SYMMETRIZE_RTOL = 1e-8
# Eigenvalue threshold for positive-definite validation; guards log(0).
PD_FLOOR = 1e-12
# Largest admissible eigenvalue of an exp argument (double overflows near e^709).
EXP_OVERFLOW_LIMIT = 700.0

_SEED_MASK = 0xFFFFFFFFFFFFFFFF


@dataclasses.dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A dense n-by-n self-adjoint matrix.

    The constructor accepts anything convertible to a square complex array,
    verifies that the anti-self-adjoint part is within ``SYMMETRIZE_RTOL``
    of zero (relative to the Frobenius norm), and stores the exactly
    symmetrized form ``(M + M*)/2``.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise NotHermitianError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(m)):
            raise NotHermitianError("matrix has non-finite entries")
        anti = np.linalg.norm(m - m.conj().T)
        if anti > SYMMETRIZE_RTOL * (1.0 + np.linalg.norm(m)):
            raise NotHermitianError(
                f"anti-self-adjoint part too large: ||M - M*||_F = {anti:.3e}"
            )
        sym = (m + m.conj().T) / 2.0
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def zeros(cls, dim: int) -> "HermitianMatrix":
        return cls(np.zeros((dim, dim)))

    @classmethod
    def identity(cls, dim: int) -> "HermitianMatrix":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values: Sequence[float]) -> "HermitianMatrix":
        return cls(np.diag(np.asarray(values, dtype=np.float64)))

    def trace(self) -> float:
        # Diagonal is exactly real after symmetrization.
        return float(np.trace(self.entries).real)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    @classmethod
    def _exact(cls, m: np.ndarray) -> "HermitianMatrix":
        # Sums, differences and real multiples of exactly self-adjoint arrays
        # are exactly self-adjoint: symmetrizing would change at most the sign
        # of a zero, so only finiteness is checked.
        if not np.all(np.isfinite(m)):
            raise NotHermitianError("matrix has non-finite entries")
        m.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "entries", m)
        return out

    @classmethod
    def _symmetrized(cls, m: np.ndarray) -> "HermitianMatrix":
        # For complex arrays the library builds self-adjoint up to rounding:
        # stores (M + M*)/2 as the constructor does, without the
        # anti-self-adjoint norm check, which costs about an eigh at small n.
        return cls._exact((m + m.conj().T) / 2.0)

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        _check_dims(self, other)
        return HermitianMatrix._exact(self.entries + other.entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        _check_dims(self, other)
        return HermitianMatrix._exact(self.entries - other.entries)

    def __mul__(self, scalar: float) -> "HermitianMatrix":
        return HermitianMatrix._exact(self.entries * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianMatrix":
        return HermitianMatrix._exact(-self.entries)

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"


@dataclasses.dataclass(frozen=True, eq=False)
class PdMatrix:
    """A positive-definite matrix with the eigenvalues that prove it.

    Construction raises DomainError unless the smallest of the ascending
    ``eigenvalues`` exceeds ``PD_FLOOR``.  ``vectors``, when given, are the
    matching eigenvectors; when omitted, the first read of ``spectrum``
    (and so of ``log``) computes them with one :func:`eig` of ``base`` and
    caches them.  ``entropy`` and ``log`` read the eigenvalues instead of
    recomputing them.
    """

    base: HermitianMatrix
    eigenvalues: np.ndarray
    vectors: dataclasses.InitVar[np.ndarray | None] = None

    def __post_init__(self, vectors):
        self.eigenvalues.setflags(write=False)
        smallest = self.min_eigenvalue
        if not smallest > PD_FLOOR:
            raise DomainError(
                f"matrix is not positive definite: smallest eigenvalue {smallest:.6g}"
            )
        if vectors is not None:
            # Given vectors fill the cache of ``spectrum``.
            self.__dict__["spectrum"] = SpectralDecomposition(self.eigenvalues, vectors)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def entries(self) -> np.ndarray:
        return self.base.entries

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @functools.cached_property
    def spectrum(self) -> SpectralDecomposition:
        """The carried eigenvalues with their eigenvectors, computed on first read if not given."""
        return SpectralDecomposition(self.eigenvalues, eig(self.base).vectors)

    def _known_vectors(self) -> np.ndarray | None:
        # The eigenvectors if given or already computed, without computing them.
        spectrum = self.__dict__.get("spectrum")
        return None if spectrum is None else spectrum.vectors

    @classmethod
    def identity(cls, dim: int) -> "PdMatrix":
        return validate_pd(HermitianMatrix.identity(dim))

    @classmethod
    def diagonal(cls, values: Sequence[float]) -> "PdMatrix":
        return validate_pd(HermitianMatrix.diagonal(values))

    @functools.cached_property
    def log(self) -> HermitianMatrix:
        """The matrix logarithm, built once from the carried spectrum."""
        return _rebuild(self.spectrum.vectors, np.log(self.eigenvalues))

    def trace(self) -> float:
        return self.base.trace()

    def frobenius_norm(self) -> float:
        return self.base.frobenius_norm()

    def scaled(self, t: float) -> "PdMatrix":
        """Scalar multiple ``t * A`` with eigenvalues ``t w`` and the same eigenvectors.

        Vectors not yet computed stay deferred; t <= 0 raises DomainError.
        """
        t = float(t)
        if not t > 0.0:
            raise DomainError(f"scale factor must be positive, got {t!r}")
        return PdMatrix(self.base * t, self.eigenvalues * t, self._known_vectors())

    def __repr__(self):
        return f"PdMatrix(dim={self.dim}, min_eigenvalue={self.min_eigenvalue:.3e})"


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in ascending order and the unitary matrix of eigenvectors, read-only."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return ``U diag(lambda) U*`` as a plain array."""
        u = self.vectors
        return (u * self.eigenvalues) @ u.conj().T


MatrixLike = Union[HermitianMatrix, PdMatrix]


def _check_dims(a: MatrixLike, b: MatrixLike) -> None:
    if a.entries.shape != b.entries.shape:
        raise DimMismatchError(
            f"dimension mismatch: {a.entries.shape[0]} vs {b.entries.shape[0]}"
        )


def symmetrize(m) -> HermitianMatrix:
    """Return ``(M + M*)/2`` as a HermitianMatrix.

    Raises NotHermitianError when the anti-self-adjoint part of ``M``
    exceeds ``SYMMETRIZE_RTOL * (1 + ||M||_F)``.
    """
    return HermitianMatrix(np.asarray(m))


def eig(m: MatrixLike) -> SpectralDecomposition:
    """Hermitian eigendecomposition with ascending eigenvalues.

    The output satisfies the reconstruction and unitarity bounds
    ``||U L U* - M||_F <= 1e-10 (1 + ||M||_F)`` and
    ``||U* U - I||_F <= 1e-10 n``; a solver failure raises
    ConvergenceError with the numpy diagnostics attached.
    """
    w, u = _eigh(m.entries)
    return SpectralDecomposition(np.asarray(w, dtype=np.float64), u)


def eigvals(m: MatrixLike) -> np.ndarray:
    """Ascending eigenvalues only, without eigenvectors (numpy's ``eigvalsh``).

    About half the cost of :func:`eig` at n = 64.  A solver failure raises
    ConvergenceError with the numpy diagnostics attached.
    """
    return _eigh(m.entries, vectors=False)[0]


def _eigh(entries: np.ndarray, vectors: bool = True):
    # numpy's eigh, or eigvalsh with u = None when the vectors are not
    # wanted, on one matrix or a stack of them; failures as ConvergenceError.
    try:
        if vectors:
            return np.linalg.eigh(entries)
        return np.linalg.eigvalsh(entries), None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigen-decomposition failed for dim={entries.shape[-1]}, "
            f"||M||_F={np.linalg.norm(entries):.3e}: {exc}"
        ) from exc


def pd_mixtures(
    a: PdMatrix, b: PdMatrix, ts: Sequence[float]
) -> Callable[[int], PdMatrix]:
    """The mixtures ``t A + (1-t) B`` for every ``t`` in ``ts``, decomposed as one stack.

    One ``eigh`` call decomposes all of them, which at small n costs about
    half as much per matrix as separate calls.  When neither endpoint has
    its eigenvectors at hand, the mixtures follow them: one ``eigvalsh``
    call computes their eigenvalues only.  The returned ``mixture(k)``
    builds the PdMatrix for ``ts[k]`` when asked, so only one is alive at a
    time; like :func:`validate_pd` it raises DomainError when that
    mixture's smallest eigenvalue is at or below ``PD_FLOOR``.  A solver
    failure raises ConvergenceError.  Each mixture equals
    ``validate_pd(a.base * t + b.base * (1 - t))`` bit for bit, validated
    with ``vectors=False`` when the stack is eigenvalues only.
    """

    def entries(t: float) -> np.ndarray:
        return a.entries * t + b.entries * (1.0 - t)

    # Only the decomposition is kept; a mixture's entries are computed again
    # when it is built, because holding the stack as well raised the peak
    # memory of the segment suites at n = 64 by about 1.3 MB.
    stack = np.empty((len(ts),) + a.entries.shape, dtype=np.complex128)
    for k, t in enumerate(ts):
        stack[k] = entries(t)
    vectors = a._known_vectors() is not None or b._known_vectors() is not None
    w, u = _eigh(stack, vectors)

    def mixture(k: int) -> PdMatrix:
        base = HermitianMatrix._exact(entries(ts[k]))
        return PdMatrix(base, w[k], None if u is None else u[k])

    return mixture


def _rebuild(u: np.ndarray, vals: np.ndarray) -> HermitianMatrix:
    # U diag(vals) U* with real vals; re-symmetrized so storage is exact.
    return HermitianMatrix._symmetrized((u * vals) @ u.conj().T)


def matrix_fn(m: HermitianMatrix, f: Callable[[float], float]) -> HermitianMatrix:
    """Apply a real scalar function through the spectral decomposition.

    ``f`` may be a vectorized ufunc or a plain scalar callable.  Raises
    DomainError when any eigenvalue falls outside the domain of ``f``
    (signalled by an exception from ``f`` or a non-finite value).
    """
    dec = eig(m)
    with np.errstate(all="ignore"):
        try:
            vals = np.asarray(f(dec.eigenvalues), dtype=np.float64)
            if vals.shape != dec.eigenvalues.shape:
                raise TypeError
        except (TypeError, ValueError, ZeroDivisionError, ArithmeticError):
            try:
                vals = np.asarray(
                    [float(f(x)) for x in dec.eigenvalues], dtype=np.float64
                )
            except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
                raise DomainError(f"scalar function failed on an eigenvalue: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        bad = dec.eigenvalues[~np.isfinite(vals)]
        raise DomainError(f"eigenvalues outside the function domain: {bad}")
    return _rebuild(dec.vectors, vals)


def mat_exp(m: HermitianMatrix) -> PdMatrix:
    """Spectral matrix exponential, carrying the spectrum ``(exp w, U)``.

    Raises OverflowError when any eigenvalue exceeds ``EXP_OVERFLOW_LIMIT``;
    failing loudly beats returning infinities.  Raises DomainError when an
    eigenvalue below about -27.6 takes the result to ``PD_FLOOR`` or under.
    """
    dec = eig(m)
    w = exp_eigenvalues(dec.eigenvalues)
    return PdMatrix(_rebuild(dec.vectors, w), w, dec.vectors)


def exp_eigenvalues(w: np.ndarray) -> np.ndarray:
    """``exp`` of ascending eigenvalues ``w``.

    Raises OverflowError when the largest exceeds ``EXP_OVERFLOW_LIMIT``.
    """
    top = float(w[-1])
    if top > EXP_OVERFLOW_LIMIT:
        raise OverflowError(
            f"eigenvalue {top:.6g} exceeds the exp-overflow guard {EXP_OVERFLOW_LIMIT}"
        )
    return np.exp(w)


def mat_log(a: PdMatrix) -> HermitianMatrix:
    """Spectral matrix logarithm of a positive-definite matrix: its cached ``a.log``."""
    return a.log


def trace_product(a: MatrixLike, b: MatrixLike) -> float:
    """The trace inner product ``tr(AB)`` of two self-adjoint matrices.

    The result is real up to rounding; the imaginary residue is checked
    against ``1e-10 (1 + ||A||_F ||B||_F)`` and then discarded.
    """
    _check_dims(a, b)
    ae, be = a.entries, b.entries
    # vdot conjugates its first argument: sum conj(B_ij) A_ij = tr(AB).
    t = np.vdot(be, ae)
    bound = 1e-10 * (1.0 + np.linalg.norm(ae) * np.linalg.norm(be))
    if abs(t.imag) > bound:
        raise NotHermitianError(
            f"trace product has imaginary residue {t.imag:.3e} beyond {bound:.3e}"
        )
    return float(t.real)


def validate_pd(m: MatrixLike, vectors: bool = True) -> PdMatrix:
    """Validate positive definiteness with one eigendecomposition, which the result carries.

    Raises DomainError when any eigenvalue is at or below ``PD_FLOOR``.
    With ``vectors=False`` only the eigenvalues are computed (:func:`eigvals`);
    the eigenvectors then cost one :func:`eig` when ``spectrum`` or ``log``
    is first read.  A PdMatrix is returned as it is.
    """
    if isinstance(m, PdMatrix):
        return m
    if not vectors:
        return PdMatrix(m, eigvals(m))
    dec = eig(m)
    return PdMatrix(m, dec.eigenvalues, dec.vectors)


def seeded_rng(seed: int) -> np.random.Generator:
    """PCG64 generator from a 64-bit seed (negative seeds wrap to unsigned)."""
    return np.random.default_rng(int(seed) & _SEED_MASK)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for trial ``index`` of a suite keyed by ``seed``.

    Derived from the pair, so trials are reproducible regardless of
    evaluation order or parallelism.
    """
    return np.random.default_rng([int(seed) & _SEED_MASK, int(index)])


def _ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    # Independent standard complex normal entries: E|g|^2 = 1.
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g / math.sqrt(2.0)


def sample_pd(
    rng: np.random.Generator, dim: int, spread: float, vectors: bool = True
) -> PdMatrix:
    """Draw ``G G*/dim + spread I`` with standard complex normal ``G``.

    ``vectors`` is passed to :func:`validate_pd`: False when the caller
    never reads the sample's ``log``.
    """
    if dim < 1:
        raise DomainError(f"dimension must be at least 1, got {dim}")
    if spread <= 0.0:
        raise DomainError(f"spread must be positive, got {spread}")
    g = _ginibre(rng, dim)
    m = g @ g.conj().T / dim + spread * np.eye(dim)
    return validate_pd(HermitianMatrix._symmetrized(m), vectors)


def random_pd(dim: int, seed: int, spread: float) -> PdMatrix:
    """Deterministic random positive-definite matrix.

    The result is a pure function of ``(dim, seed, spread)``: a Ginibre
    matrix ``G`` with standard complex normal entries is drawn from the
    seeded generator and the sample is ``G G*/dim + spread I``, so the
    smallest eigenvalue is at least ``spread``.
    """
    return sample_pd(seeded_rng(seed), dim, spread)


def sample_hermitian(
    rng: np.random.Generator, dim: int, radius: float = 3.0
) -> HermitianMatrix:
    """Draw a random self-adjoint matrix, rescaled to spectral radius <= radius."""
    g = _ginibre(rng, dim)
    h = HermitianMatrix._symmetrized((g + g.conj().T) / 2.0)
    rho = float(np.max(np.abs(eigvals(h))))
    if rho > radius:
        h = h * (radius / rho)
    return h

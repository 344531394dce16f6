"""Dense self-adjoint matrix arithmetic and spectral matrix functions.

All matrices are complex Hermitian; real symmetric inputs are treated as
Hermitian matrices with zero imaginary part.  Values are immutable after
construction (the underlying arrays are marked read-only) and safe to share
across threads.  Every ingestion path symmetrizes, so drift from floating
point arithmetic never accumulates.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import math
import os
import threading
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
# Largest block of a stack that the stacked kernels take at once.  The
# temporaries of a block stay below glibc's 128 KB mmap threshold, so they
# reuse freed heap memory; a stack-sized temporary (655 KB for ten 64 x 64
# matrices) gets fresh pages, at one page fault per 4 KB (about 2 us each
# on a 2-core x86-64 VM).
_BLOCK_BYTES = 1 << 16


@dataclasses.dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A dense n-by-n self-adjoint matrix.

    The constructor accepts anything convertible to a square complex array,
    verifies that the anti-self-adjoint part is within ``SYMMETRIZE_RTOL``
    of zero (relative to the Frobenius norm, which must not overflow), and
    stores the exactly symmetrized form ``(M + M*)/2``.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise NotHermitianError("matrix dimension must be at least 1")
        if not np.isfinite(m).all():
            raise NotHermitianError("matrix has non-finite entries")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(m)
        # A finite norm keeps every entry of M - M* and of (M + M*)/2 finite.
        if not np.isfinite(norm):
            raise NotHermitianError("matrix entries overflow: ||M||_F exceeds the float64 range")
        anti = np.linalg.norm(m - m.conj().T)
        if anti > SYMMETRIZE_RTOL * (1.0 + norm):
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
        return float(traces(self.entries))

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    @classmethod
    def _exact(cls, m: np.ndarray) -> "HermitianMatrix":
        # Sums, differences and real multiples of exactly self-adjoint arrays
        # are exactly self-adjoint: symmetrizing would change at most the sign
        # of a zero, so only finiteness is checked.
        if not np.isfinite(m).all():
            raise NotHermitianError("matrix has non-finite entries")
        m.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "entries", m)
        return out

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
    """Positive-definite matrices with the spectra that prove them: one, or a stack.

    ``entries`` holds one matrix ``(n, n)`` or a stack along leading axes.
    ``entries[k]`` has the ascending eigenvalues ``eigenvalues[k]`` and,
    when ``vectors`` is given, the eigenvectors ``vectors[k]``, for any
    index ``k`` over the leading axes; ``a[k]`` is that matrix, or that
    part of the stack.  Construction raises DomainError unless every
    smallest eigenvalue exceeds ``PD_FLOOR``.  The arrays are read-only.
    ``log`` reads the spectra instead of recomputing them; eigenvectors
    not given cost one stacked ``eigh`` first.  ``base``,
    ``min_eigenvalue``, ``trace`` and ``scaled`` are for one matrix.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray | None = None

    def __post_init__(self):
        _check_floor(self.eigenvalues)
        for a in (self.entries, self.eigenvalues, self.vectors):
            if a is not None:
                a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, rows) -> "PdMatrix":
        vectors = None if self.vectors is None else self.vectors[rows]
        return PdMatrix(self.entries[rows], self.eigenvalues[rows], vectors)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    @functools.cached_property
    def base(self) -> HermitianMatrix:
        """The entries as a HermitianMatrix, sharing them."""
        return HermitianMatrix._exact(self.entries)

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @classmethod
    def identity(cls, dim: int) -> "PdMatrix":
        return validate_pd(HermitianMatrix.identity(dim))

    @classmethod
    def diagonal(cls, values: Sequence[float]) -> "PdMatrix":
        return validate_pd(HermitianMatrix.diagonal(values))

    @functools.cached_property
    def log(self) -> np.ndarray:
        """The entries of every matrix logarithm, built once from the carried spectra."""
        vectors = _eigh(self.entries)[1] if self.vectors is None else self.vectors
        out = _reconstruct(vectors, np.log(self.eigenvalues))
        out.setflags(write=False)
        return out

    def trace(self) -> float:
        return self.base.trace()

    def frobenius_norm(self) -> float:
        return self.base.frobenius_norm()

    def scaled(self, t: float) -> "PdMatrix":
        """Scalar multiple ``t * A`` with eigenvalues ``t w`` and the same eigenvectors.

        t <= 0 raises DomainError.
        """
        t = float(t)
        if not t > 0.0:
            raise DomainError(f"scale factor must be positive, got {t!r}")
        return PdMatrix((self.base * t).entries, self.eigenvalues * t, self.vectors)

    def __repr__(self):
        smallest = float(np.min(self.eigenvalues[..., 0]))
        return f"PdMatrix(shape={self.entries.shape}, min_eigenvalue={smallest:.3e})"


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


def _check_floor(eigenvalues: np.ndarray) -> None:
    # DomainError unless every smallest of the ascending eigenvalues (along
    # the last axis) exceeds PD_FLOOR, naming the first that does not in
    # row-major order.
    smallest = eigenvalues[..., 0]
    ok = smallest > PD_FLOOR
    if not ok.all():
        raise DomainError(
            f"matrix is not positive definite: smallest eigenvalue {smallest[~ok][0]:.6g}"
        )


def _check_dims(a: MatrixLike | np.ndarray, b: MatrixLike | np.ndarray) -> None:
    # DimMismatchError unless two matrices or stacks (or their entries) have
    # one shape; it names the dimensions when only they differ, else the shapes.
    sa, sb = (m.shape if isinstance(m, np.ndarray) else m.entries.shape for m in (a, b))
    if sa != sb:
        named = f"{sa[-1]} vs {sb[-1]}" if sa[:-2] == sb[:-2] else f"shapes {sa} vs {sb}"
        raise DimMismatchError(f"dimension mismatch: {named}")


def symmetrize(m) -> HermitianMatrix:
    """Return ``(M + M*)/2`` as a HermitianMatrix.

    Raises NotHermitianError when the anti-self-adjoint part of ``M``
    exceeds ``SYMMETRIZE_RTOL * (1 + ||M||_F)``, or ``||M||_F`` overflows.
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


@functools.cache
def _openblas_threads() -> tuple | None:
    # The (get, set) thread-count functions of the OpenBLAS bundled with
    # numpy, in the numpy.libs directory beside it, or None if not found.
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        paths = sorted(os.path.join(libs, f) for f in os.listdir(libs) if "openblas" in f)
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("scipy_", ""), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
                return get, put
    return None


# Holds of one BLAS thread in progress, and the count the first one found.
_blas_hold = {"lock": threading.Lock(), "holders": 0, "saved": None}


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread for the block; yield whether it could.

    The count is process-wide, so other threads of the host see one BLAS
    thread meanwhile.  Overlapping holds share one: the first sets one
    thread, and the last restores the count the first found, also when
    the block raises.  Yields False, changing nothing, where the control
    is not found.
    """
    control = _openblas_threads()
    if control is None:
        yield False
        return
    get, put = control
    hold = _blas_hold
    with hold["lock"]:
        if hold["holders"] == 0:
            hold["saved"] = get()
            put(1)
        hold["holders"] += 1
    try:
        yield True
    finally:
        with hold["lock"]:
            hold["holders"] -= 1
            if hold["holders"] == 0:
                put(hold["saved"])


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pd_stack(points: Sequence[PdMatrix], axis: int = 0) -> PdMatrix:
    """The positive-definite ``points`` as one stack along ``axis``, with their carried spectra.

    The points are matrices, or stacks of one shape.  The stack has
    eigenvectors unless a point is eigenvalues only.
    """
    vectors = [p.vectors for p in points]
    return PdMatrix(
        np.stack([p.entries for p in points], axis),
        np.stack([p.eigenvalues for p in points], axis),
        None if any(v is None for v in vectors) else np.stack(vectors, axis),
    )


def validate_pd_stack(entries: np.ndarray, vectors: bool = True) -> PdMatrix:
    """:func:`validate_pd` of every matrix of a stack, with one stacked ``eigh`` (or ``eigvalsh``)."""
    return PdMatrix(entries, *_eigh(entries, vectors))


def mixtures(a: np.ndarray, b: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The entries of ``t A_s + (1-t) B_s`` for every ``t`` in row ``s`` of ``ts``.

    ``a`` and ``b`` are stacks of S matrices and ``ts`` has shape (S, T);
    the result has shape (S, T, n, n).  Each mixture equals the entries of
    ``A * t + B * (1 - t)`` in HermitianMatrix arithmetic bit for bit.
    Callers keep the result within one ``_BLOCK_BYTES`` block, so that
    its temporaries reuse heap memory.
    """
    _check_dims(a, b)
    t = np.asarray(ts, dtype=np.float64)[..., None, None]
    out = a[:, None] * t
    out += b[:, None] * (1.0 - t)
    return out


def pd_mixtures(a: PdMatrix, b: PdMatrix, ts: np.ndarray) -> PdMatrix:
    """The mixtures ``t A_s + (1-t) B_s`` of :func:`mixtures`, decomposed as one stack.

    One ``eigh`` call decomposes all of them, which at small n costs about
    half as much per matrix as separate calls.  When neither endpoint stack
    has its eigenvectors at hand, the mixtures follow them: one ``eigvalsh``
    call computes their eigenvalues only.  (The suites build such mixtures
    as entries instead, which a segment test decomposes a segment at a
    time: :class:`qrelent.segments.ByEigenvalues`.)  Like
    :func:`validate_pd` it raises DomainError when a mixture has its
    smallest eigenvalue at or below ``PD_FLOOR``, and a solver failure
    raises ConvergenceError.  Each mixture equals
    ``validate_pd(a.base * t + b.base * (1 - t))`` bit for bit, its
    eigenvalues those of :func:`eigvals` when the stack is eigenvalues
    only.
    """
    entries = mixtures(a.entries, b.entries, ts)
    return PdMatrix(entries, *_eigh(entries, a.vectors is not None or b.vectors is not None))


def _reconstruct(u: np.ndarray, vals: np.ndarray) -> np.ndarray:
    # U diag(vals) U* with real vals, for one matrix or a stack, stored as
    # its Hermitian part (M + M*)/2 so that it is exactly self-adjoint.
    n = u.shape[-1]
    out = np.empty(u.shape, dtype=np.complex128)
    us, ms, vs = u.reshape(-1, n, n), out.reshape(-1, n, n), vals.reshape(-1, 1, n)
    step = _block_rows(n)
    for k in range(0, len(us), step):
        ub, m = us[k:k + step], ms[k:k + step]
        conj = ub.conj()
        np.matmul(ub * vs[k:k + step], conj.transpose(0, 2, 1), out=m)
        # conj's buffer takes M*.
        np.conjugate(m.transpose(0, 2, 1), out=conj)
        m += conj
        m /= 2.0
    return out


def _block_rows(n: int) -> int:
    # n x n complex matrices in one block of at most _BLOCK_BYTES, at least one.
    return max(1, _BLOCK_BYTES // (16 * n * n))


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
    return HermitianMatrix._exact(_reconstruct(dec.vectors, vals))


def mat_exp(m: HermitianMatrix) -> PdMatrix:
    """Spectral matrix exponential, carrying the spectrum ``(exp w, U)``: :func:`pd_exp` of one matrix."""
    return pd_exp(m.entries)


def pd_exp(entries: np.ndarray) -> PdMatrix:
    """Spectral exponentials of self-adjoint entries, carrying their spectra ``(exp w, U)``.

    ``entries`` is one matrix or a stack; one ``eigh`` call decomposes
    it.  Raises OverflowError when any eigenvalue exceeds
    ``EXP_OVERFLOW_LIMIT``; failing loudly beats returning infinities.
    Raises DomainError when an eigenvalue below about -27.6 takes a result
    to ``PD_FLOOR`` or under.
    """
    w, u = _eigh(entries)
    w = exp_eigenvalues(w)
    return PdMatrix(_reconstruct(u, w), w, u)


def exp_eigenvalues(w: np.ndarray) -> np.ndarray:
    """``exp`` of ascending eigenvalues ``w``, of one matrix or along the last axis of a stack.

    Raises OverflowError when the largest exceeds ``EXP_OVERFLOW_LIMIT``.
    """
    top = float(np.max(w[..., -1]))
    if top > EXP_OVERFLOW_LIMIT:
        raise OverflowError(
            f"eigenvalue {top:.6g} exceeds the exp-overflow guard {EXP_OVERFLOW_LIMIT}"
        )
    return np.exp(w)


def mat_log(a: PdMatrix) -> HermitianMatrix:
    """Spectral matrix logarithm of a positive-definite matrix: its cached ``a.log``, not copied."""
    return HermitianMatrix._exact(a.log)


def trace_product(a: MatrixLike, b: MatrixLike) -> float:
    """The trace inner product ``tr(AB)`` of two self-adjoint matrices.

    The result is real up to rounding; the imaginary residue is checked
    against ``1e-10 (1 + ||A||_F ||B||_F)`` and then discarded.
    """
    _check_dims(a, b)
    return float(trace_products(a.entries, b.entries))


def trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``tr(A B)`` for self-adjoint entries, of one pair or of each pair of two stacks.

    Checked as :func:`trace_product` is: NotHermitianError when an
    imaginary residue exceeds ``1e-10 (1 + ||A||_F ||B||_F)``.
    """
    n = a.shape[-1]
    flat_a, flat_b = a.reshape(-1, n * n), b.reshape(-1, n * n)
    # vdot conjugates its first argument: sum conj(B_ij) A_ij = tr(AB).  One
    # call per pair, each summing in the order of a single product.
    t = np.array([np.vdot(bk, ak) for ak, bk in zip(flat_a, flat_b)])
    # Every bound is at least 1e-10, so the norms are computed only when a
    # residue exceeds that.
    if (np.abs(t.imag) > 1e-10).any():
        bound = 1e-10 * (1.0 + np.linalg.norm(flat_a, axis=-1) * np.linalg.norm(flat_b, axis=-1))
        beyond = np.abs(t.imag) > bound
        if beyond.any():
            k = int(np.argmax(beyond))
            raise NotHermitianError(
                f"trace product has imaginary residue {t.imag[k]:.3e} beyond {bound[k]:.3e}"
            )
    return t.real.reshape(a.shape[:-2])


def traces(entries: np.ndarray) -> np.ndarray:
    """Traces of self-adjoint entries, of one matrix or of each matrix of a stack."""
    # The diagonal is exactly real after symmetrization.
    return np.trace(entries, axis1=-2, axis2=-1).real


def validate_pd(m: MatrixLike) -> PdMatrix:
    """Validate positive definiteness with one eigendecomposition, which the result carries.

    Raises DomainError when any eigenvalue is at or below ``PD_FLOOR``.
    A PdMatrix is returned as it is.
    """
    if isinstance(m, PdMatrix):
        return m
    dec = eig(m)
    return PdMatrix(m.entries, dec.eigenvalues, dec.vectors)


def seeded_rng(seed: int) -> np.random.Generator:
    """PCG64 generator from a 64-bit seed (negative seeds wrap to unsigned)."""
    return np.random.default_rng(int(seed) & _SEED_MASK)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for trial ``index`` of a suite keyed by ``seed``.

    Derived from the pair, so trials are reproducible regardless of
    evaluation order or parallelism.
    """
    return np.random.default_rng([int(seed) & _SEED_MASK, int(index)])


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _ginibre_draws(rngs: Sequence[np.random.Generator], dim: int, count: int,
                   build: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    # build of count Ginibre matrices G (E|g|^2 = 1) from each generator in
    # turn, on blocks so that build's temporaries reuse heap memory.  One
    # call a generator draws, into out, the real then imaginary part of each G.
    out = np.empty((len(rngs), count, dim, dim), dtype=np.complex128)
    x = out.view(np.float64).reshape(len(rngs), count, 2, dim, dim)
    for rng, xs in zip(rngs, x):
        rng.standard_normal(out=xs)
    out, x = out.reshape(-1, dim, dim), x.reshape(-1, 2, dim, dim)
    step = _block_rows(dim)
    for k in range(0, len(out), step):
        g = x[k:k + step]
        out[k:k + step] = build((g[:, 0] + 1j * g[:, 1]) / math.sqrt(2.0))
    return out.reshape(len(rngs), count, dim, dim)


def pd_draws(rngs: Sequence[np.random.Generator], dim: int, spread: float,
             count: int = 1) -> np.ndarray:
    """Entries of ``count`` draws of ``G G*/dim + spread I`` from each generator, in turn.

    ``G`` has standard complex normal entries; the shape is (len(rngs),
    count, dim, dim).  :func:`validate_pd_stack` validates them.
    """
    if dim < 1:
        raise DomainError(f"dimension must be at least 1, got {dim}")
    if spread <= 0.0:
        raise DomainError(f"spread must be positive, got {spread}")
    return _ginibre_draws(rngs, dim, count, lambda g: _hermitian_part(
        g @ g.conj().swapaxes(-1, -2) / dim + spread * np.eye(dim)))


def hermitian_draws(rngs: Sequence[np.random.Generator], dim: int, radius: float,
                    count: int = 1) -> np.ndarray:
    """Entries of ``count`` random self-adjoint matrices from each generator, in turn.

    Each is rescaled to spectral radius at most ``radius``, all radii from
    one stacked ``eigvalsh``; the shape is (len(rngs), count, dim, dim).
    """
    h = _ginibre_draws(rngs, dim, count, lambda g: _hermitian_part(_hermitian_part(g)))
    rho = np.max(np.abs(_eigh(h, vectors=False)[0]), axis=-1)
    for i in zip(*np.nonzero(rho > radius)):
        h[i] *= radius / rho[i]
    return h


def sample_pd(rng: np.random.Generator, dim: int, spread: float) -> PdMatrix:
    """Draw ``G G*/dim + spread I`` with standard complex normal ``G`` (:func:`pd_draws`)."""
    return validate_pd(HermitianMatrix._exact(pd_draws([rng], dim, spread)[0, 0]))


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
    """Draw a random self-adjoint matrix, rescaled to spectral radius <= radius (:func:`hermitian_draws`)."""
    return HermitianMatrix._exact(hermitian_draws([rng], dim, radius)[0, 0])

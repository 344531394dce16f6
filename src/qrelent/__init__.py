"""Quantum relative entropy numerics and convexity certification.

A small dense-matrix toolkit for the positive-definite cone: spectral
matrix functions, the quantum relative entropy with its Bregman structure,
variational representations of the trace exponential with a certified
maximizer, and randomized suites that stress the associated convexity and
concavity claims.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DimMismatchError,
    DomainError,
    MatrixParseError,
    NotHermitianError,
    QrelentError,
    SegmentEvaluationError,
)
from .hermitian import (
    EXP_OVERFLOW_LIMIT,
    PD_FLOOR,
    SYMMETRIZE_RTOL,
    HermitianMatrix,
    PdMatrix,
    SpectralDecomposition,
    eig,
    eigvals,
    mat_exp,
    mat_log,
    matrix_fn,
    random_pd,
    sample_hermitian,
    sample_pd,
    seeded_rng,
    symmetrize,
    trace_product,
    trial_rng,
    validate_pd,
)
from .divergence import (
    DivergenceBreakdown,
    KleinCheck,
    bregman_residual,
    entropy,
    entropy_gradient,
    klein_check,
    relative_entropy,
)
from .variational import (
    OptimizeResult,
    lieb_gradient,
    lieb_objective,
    maximize_lieb,
    maximize_variational,
    trace_exp_log,
    variational_gradient,
    variational_objective,
)
from .segments import ByEigenvalues, SegmentTrial, pointwise, segment_test
from .convexity import (
    SUITES,
    BoundTrial,
    SuiteReport,
    T_GRID,
    fenchel_convexity_suite,
    joint_convexity_suite,
    klein_suite,
    lieb_concavity_suite,
    partial_max_concavity_suite,
    run_suite,
    sample_lieb_instance,
    variational_suite,
)
from .matrixio import (
    matrix_from_dict,
    matrix_to_dict,
    read_matrix,
    write_matrix,
    write_report,
)

__all__ = [
    "__version__",
    # errors
    "QrelentError", "NotHermitianError", "DimMismatchError", "DomainError",
    "ConvergenceError", "MatrixParseError", "SegmentEvaluationError",
    # hermitian core
    "HermitianMatrix", "PdMatrix", "SpectralDecomposition",
    "symmetrize", "eig", "eigvals", "matrix_fn", "mat_exp", "mat_log", "trace_product",
    "validate_pd", "random_pd", "sample_pd", "sample_hermitian",
    "seeded_rng", "trial_rng",
    "SYMMETRIZE_RTOL", "PD_FLOOR", "EXP_OVERFLOW_LIMIT",
    # divergence
    "DivergenceBreakdown", "KleinCheck", "entropy", "entropy_gradient",
    "relative_entropy", "bregman_residual", "klein_check",
    # variational
    "OptimizeResult", "trace_exp_log",
    "variational_objective", "variational_gradient", "lieb_objective",
    "lieb_gradient", "maximize_variational", "maximize_lieb",
    # convexity suites
    "SegmentTrial", "BoundTrial", "SuiteReport", "T_GRID", "segment_test", "pointwise",
    "ByEigenvalues",
    "SUITES", "klein_suite", "joint_convexity_suite",
    "lieb_concavity_suite", "partial_max_concavity_suite",
    "fenchel_convexity_suite", "variational_suite", "run_suite", "sample_lieb_instance",
    # io
    "read_matrix", "write_matrix", "write_report",
    "matrix_to_dict", "matrix_from_dict",
]

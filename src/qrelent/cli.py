"""Command-line entry point: property-suite runs and one-shot evaluations.

``qrelent verify`` runs the randomized certification suites and writes a
deterministic JSON report; ``qrelent eval`` evaluates a single expression
on matrices read from files.  Exit statuses: 0 all checks pass, 1 a
violation was found, 2 a usage/config/parse error found before any suite
runs, 3 an error raised inside a suite's trial, printed as one line that
names the trial, or a fault of the library: any other exception, printed
as one line that names its type.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
# klein_suite and variational_suite stay importable from qrelent.cli.
from .convexity import SUITES, klein_suite, run_suite, suite_args, variational_suite  # noqa: F401
from .divergence import entropy, relative_entropy
from .errors import QrelentError
from .hermitian import HermitianMatrix, PdMatrix, validate_pd
from .matrixio import read_matrix, write_report
from .variational import lieb_objective, trace_exp_log


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the selected suite(s), print one line each, persist the report.

    The arguments of every selected suite, and the directory of ``--out``,
    are checked before any suite runs; ``--flip-orientation`` applies to
    lieb-concavity only.
    """
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.flip_orientation and "lieb-concavity" not in names:
        raise ValueError(f"--flip-orientation applies to lieb-concavity, not {args.suite}")
    for name in names:
        suite_args(name, args.dim, args.trials, args.seed, args.tol)
    if args.out is not None:
        if os.path.isdir(args.out):
            raise ValueError(f"--out {args.out} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ValueError(f"--out {args.out}: no such directory")
    reports = []
    for name in names:
        flip = args.flip_orientation and name == "lieb-concavity"
        kwargs = {"orientation": "convex"} if flip else {}
        report = run_suite(name, args.dim, args.trials, args.seed, args.tol, **kwargs)
        reports.append(report)
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{report.suite_name}: {status}  "
            f"max_violation={report.max_violation:.3e}  "
            f"trials={len(report.trials)}  invalid={report.invalid_trials}"
        )
    all_pass = all(r.passed for r in reports)
    print(f"summary: {'all suites pass' if all_pass else 'VIOLATIONS FOUND'}")

    document = {
        "summary": {
            "suites_run": [r.suite_name for r in reports],
            "all_pass": all_pass,
            "versions": {"qrelent": __version__, "numpy": np.__version__},
            "config": {
                "suite": args.suite,
                "dim": args.dim,
                "trials": args.trials,
                "seed": args.seed,
                "tol": args.tol,
                "flip_orientation": args.flip_orientation,
            },
        },
        "reports": [r.to_json_dict() for r in reports],
    }
    if args.out is not None:
        write_report(document, args.out)
        print(f"report written to {args.out}")
    return 0 if all_pass else 1


def _read(path: str, label: str, pd: bool = True) -> HermitianMatrix | PdMatrix:
    # The matrix of file ``path``, validated positive definite when ``pd``;
    # parse and validation errors are prefixed with ``label`` and ``path``.
    try:
        m = read_matrix(path)
        return validate_pd(m) if pd else m
    except QrelentError as exc:
        raise QrelentError(f"{label} ({path}): {exc}") from exc


def cmd_eval(op: str, h_path: str | None, a_path: str | None, x_path: str | None) -> int:
    """Evaluate one expression and print the value with 17 significant digits.

    The operands are read in the order X, A (Y for relent), H.
    """
    if a_path is None:
        raise QrelentError(f"operation {op!r} requires --a")
    if h_path is not None and op in ("relent", "entropy"):
        raise QrelentError(f"operation {op!r} does not read --h")
    if x_path is not None and op in ("trexplog", "entropy"):
        raise QrelentError(f"operation {op!r} does not read --x")
    if x_path is None and op in ("relent", "objective"):
        raise QrelentError(f"operation {op!r} requires --x")
    x = None if x_path is None else _read(x_path, "X")
    a = _read(a_path, "Y" if op == "relent" else "A")
    h = _read(h_path, "H", pd=False) if h_path else HermitianMatrix.zeros(a.dim)
    if op == "entropy":
        value = entropy(a)
    elif op == "trexplog":
        value = trace_exp_log(h, a)
    elif op == "relent":
        value = relative_entropy(x, a).value
    elif op == "objective":
        value = lieb_objective(x, h, a)
    else:
        raise QrelentError(f"unknown operation {op!r}")
    print(f"{value:.17g}")
    return 0


def _per_suite(field: str) -> str:
    return "per-suite default: " + ", ".join(
        f"{name} {getattr(suite, field):g}" for name, suite in SUITES.items()
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrelent",
        allow_abbrev=False,
        description="Certify trace-function convexity claims by randomized property testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run property suites and write a report")
    verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    verify.add_argument("--dim", type=int, default=6)
    verify.add_argument("--trials", type=int, default=None, help=_per_suite("trials"))
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--tol", type=float, default=None, help=_per_suite("tol"))
    verify.add_argument("--out", default=None, help="write the JSON report here")
    verify.add_argument("--flip-orientation", action="store_true",
                        help="self-test hook: test the concavity suite with the "
                             "wrong orientation; a healthy build must then exit 1")

    ev = sub.add_parser("eval", help="evaluate a single expression on matrix files")
    ev.add_argument("op", choices=("trexplog", "relent", "entropy", "objective"))
    ev.add_argument("--h", default=None, help="self-adjoint H (defaults to zero)")
    ev.add_argument("--a", default=None, help="positive-definite A (Y for relent)")
    ev.add_argument("--x", default=None, help="positive-definite X")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process (about 0.4 ms), for callers that run main often.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_eval(args.op, args.h, args.a, args.x)
    except (QrelentError, ValueError, OverflowError, OSError) as exc:
        _print_error(exc, str(exc))
        # An error of a trial is not a usage error: the arguments passed.
        return 3 if hasattr(exc, "trial_key") else 2
    except Exception as exc:  # noqa: BLE001 - a library fault, not a claim violated
        _print_error(exc, f"{type(exc).__name__}: {exc}")
        return 3


def _print_error(exc: Exception, message: str) -> None:
    # An error of a suite's trial names it: suite, kind and index.
    where = getattr(exc, "trial_key", None)
    print(f"error: {where}: {message}" if where else f"error: {message}", file=sys.stderr)


def entry() -> None:
    sys.exit(main())

"""The default reports and the flipped self-test against ``tests/golden.json``.

``verify --suite all --seed 42`` at dims 1, 6 and 16, the self-test
``verify --suite lieb-concavity --flip-orientation --dim 4 --trials 20
--seed 42`` (exit 1, every trial a witness), and ``verify --suite all
--dim 64 --trials 3 --seed 42`` (chunks on two threads) must reproduce the
golden sha256 where the numerics are the golden file's: the same numpy
version, OpenBLAS build and CPU features, all read through
``np.show_config(mode="dicts")``.  Elsewhere another BLAS kernel may round
differently, so the verdicts and record counts must match exactly and every
float within ``RTOL`` relative, or ``ATOL`` absolute for the values that
sit at rounding level (klein's ``max_violation`` is about 1e-15).  With
numpy 2.4.6 on five other OpenBLAS kernels (``OPENBLAS_CORETYPE`` from
Prescott to Zen) the floats moved by at most 1.1e-9 relative, and the
rounding-level ones by at most 7.1e-15 absolute.

After a change that moves a pinned report, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` and say which floats moved.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qrelent.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
DIMS = (1, 6, 16)
# The self-test's arguments, its key in the golden file and its exit status.
FLIPPED = ("flipped-4", ["--suite", "lieb-concavity", "--flip-orientation", "--dim", "4",
                         "--trials", "20"], 1)
# A run at a dim whose chunks run on two threads.
THREADED = ("all-64", ["--suite", "all", "--dim", "64", "--trials", "3"], 0)
RTOL, ATOL = 1e-6, 1e-12


def environment() -> dict:
    """What decides the rounding: numpy, its BLAS build, the CPU features it found."""
    try:
        config = np.show_config(mode="dicts")
        return {
            "numpy": np.__version__,
            "blas": config["Build Dependencies"]["blas"].get("openblas configuration"),
            "cpu_features": config["SIMD Extensions"]["found"],
        }
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        return {"numpy": np.__version__}


def summarize(path) -> dict:
    """The sha256 of a report, and per suite its verdict, counts, maximum and extras."""
    text = Path(path).read_bytes()
    return {
        "sha256": hashlib.sha256(text).hexdigest(),
        "suites": {
            r["suite_name"]: {
                "pass": r["pass"],
                "records": len(r["trials"]),
                "invalid_trials": r["invalid_trials"],
                "max_violation": r["max_violation"],
                "extras": r["extras"],
            }
            for r in json.loads(text)["reports"]
        },
    }


def pinned_report(args: list, status: int, path) -> dict:
    assert main(["verify", "--seed", "42", *args, "--out", str(path)]) == status
    return summarize(path)


def default_report(dim: int, path) -> dict:
    return pinned_report(["--suite", "all", "--dim", str(dim)], 0, path)


def check(key: str, got: dict) -> None:
    """``got``, a :func:`summarize`, against the golden entry ``key``."""
    golden = json.loads(GOLDEN.read_text())
    want = golden["reports"][key]
    if environment() == golden["environment"]:
        assert got["sha256"] == want["sha256"]
    assert got["suites"].keys() == want["suites"].keys()
    for name, suite in want["suites"].items():
        have = got["suites"][name]
        assert [have[k] for k in ("pass", "records", "invalid_trials")] == \
               [suite[k] for k in ("pass", "records", "invalid_trials")], name
        assert have["max_violation"] == pytest.approx(suite["max_violation"], rel=RTOL, abs=ATOL), name
        assert have["extras"] == pytest.approx(suite["extras"], rel=RTOL, abs=ATOL), name


@pytest.mark.parametrize("dim", DIMS)
def test_default_report_matches_golden(dim, tmp_path):
    check(str(dim), default_report(dim, tmp_path / "report.json"))


def test_flipped_report_matches_golden(tmp_path):
    key, args, status = FLIPPED
    check(key, pinned_report(args, status, tmp_path / "report.json"))


def test_threaded_report_matches_golden(tmp_path):
    key, args, status = THREADED
    check(key, pinned_report(args, status, tmp_path / "report.json"))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = {str(d): default_report(d, Path(tmp) / "report.json") for d in DIMS}
        for key, args, status in (FLIPPED, THREADED):
            reports[key] = pinned_report(args, status, Path(tmp) / "report.json")
    GOLDEN.write_text(json.dumps({"environment": environment(), "reports": reports},
                                 indent=1, sort_keys=True) + "\n")

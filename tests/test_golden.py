"""The default reports against ``tests/golden.json``.

``verify --suite all --seed 42`` at dims 1, 6 and 16 must reproduce the
golden sha256 where the numerics are the golden file's: the same numpy
version, OpenBLAS build and CPU features, all read through
``np.show_config(mode="dicts")``.  Elsewhere another BLAS kernel may round
differently, so the verdicts and record counts must match exactly and every
float within ``RTOL`` relative, or ``ATOL`` absolute for the values that
sit at rounding level (klein's ``max_violation`` is about 1e-15).  With
numpy 2.4.6 on five other OpenBLAS kernels (``OPENBLAS_CORETYPE`` from
Prescott to Zen) the floats moved by at most 1.1e-9 relative, and the
rounding-level ones by at most 7.1e-15 absolute.

After a change that moves a default report, regenerate the file with
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


def default_report(dim: int, path) -> dict:
    args = ["verify", "--suite", "all", "--seed", "42", "--dim", str(dim), "--out", str(path)]
    assert main(args) == 0
    return summarize(path)


@pytest.mark.parametrize("dim", DIMS)
def test_default_report_matches_golden(dim, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    want = golden["reports"][str(dim)]
    got = default_report(dim, tmp_path / "report.json")
    if environment() == golden["environment"]:
        assert got["sha256"] == want["sha256"]
    assert got["suites"].keys() == want["suites"].keys()
    for name, suite in want["suites"].items():
        have = got["suites"][name]
        assert [have[k] for k in ("pass", "records", "invalid_trials")] == \
               [suite[k] for k in ("pass", "records", "invalid_trials")], name
        assert have["max_violation"] == pytest.approx(suite["max_violation"], rel=RTOL, abs=ATOL), name
        assert have["extras"] == pytest.approx(suite["extras"], rel=RTOL, abs=ATOL), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = {str(d): default_report(d, Path(tmp) / "report.json") for d in DIMS}
    GOLDEN.write_text(json.dumps({"environment": environment(), "reports": reports},
                                 indent=1, sort_keys=True) + "\n")

"""Tests of the benchmark itself (not collected by the repository's test run).

    PYTHONPATH=src python -m pytest -q perfbench

The traced-run tests start the real benchmark twice per workload and take
about two minutes on two cores; select with ``-k`` to run fewer.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spans
from checks import check_report, failures
from run import END_TO_END
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert NAME.match(metric["name"]), metric
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_self_time_excludes_children_and_edges_record_parents():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap("linalg.leaf", leaf)

    def outer():
        traced_leaf()
        traced_leaf()
        time.sleep(0.01)

    tracer.wrap("hermitian.outer", outer)()
    calls, total_s = tracer.totals()
    assert calls == {"linalg.leaf": 2, "hermitian.outer": 1}
    assert tracer.edges == {("hermitian.outer", "linalg.leaf"): 2, (None, "hermitian.outer"): 1}
    assert tracer.top_level_s() == total_s["hermitian.outer"]
    assert math.isclose(tracer.self_s["hermitian.outer"],
                        total_s["hermitian.outer"] - total_s["linalg.leaf"])
    assert 0.005 < tracer.self_s["hermitian.outer"] < total_s["linalg.leaf"]
    tracer.reset()
    assert not tracer.edges and tracer.top_level_s() == 0.0


def test_install_rebinds_every_import_path_and_uninstall_restores():
    import numpy as np
    from qrelent import cli, convexity, divergence, hermitian

    original, eigh = divergence.relative_entropy, np.linalg.eigh
    tracer = spans.Tracer()
    undo, missing = spans.install(tracer)
    try:
        assert missing == []
        assert convexity.relative_entropy is divergence.relative_entropy is not original
        assert cli.relative_entropy is divergence.relative_entropy
        x = hermitian.PdMatrix.identity(3)
        divergence.relative_entropy(x, x)
        assert tracer.totals()[0]["divergence.relative_entropy"] == 1
        assert tracer.edges[("hermitian.eig", "linalg.eigh")] == 1
    finally:
        spans.uninstall(undo)
    assert divergence.relative_entropy is original and cli.relative_entropy is original
    assert np.linalg.eigh is eigh


def test_report_check_rejects_a_wrong_verdict():
    call = WORKLOADS["segments-d6"].calls[1]
    doc = {
        "summary": {"suites_run": [call.suite], "all_pass": True,
                    "config": {"seed": 5, "dim": call.dim, "trials": call.trials,
                               "flip_orientation": False}},
        "reports": [{"suite_name": call.suite, "pass": True, "max_violation": -0.5,
                     "config_echo": {"tol": 1e-9},
                     "trials": [{"t": 0.5, "lhs": 1.0, "rhs": 2.0, "violation": -0.5,
                                 "scale": 1.0}] * (call.trials * 10)}],
    }
    assert check_report(doc, call, 5, 0) == []
    doc["reports"][0]["trials"][3] = {"t": 0.5, "lhs": 2.0, "rhs": 1.0, "violation": 0.5,
                                      "scale": 1.0}
    assert any("max_violation" in p for p in check_report(doc, call, 5, 0))
    doc["reports"][0]["trials"][3] = {"t": 0.5, "lhs": math.nan, "rhs": 1.0,
                                      "violation": math.nan, "scale": 1.0}
    assert check_report(doc, call, 5, 0) == ["non-finite value in a valid record"]
    assert check_report(doc, call, 6, 0)[0].startswith("config echo")


def test_failures_count_wrong_exits_and_drifting_reports(tmp_path):
    workload = WORKLOADS["selftest-d6"]
    call = workload.calls[0]
    doc = {
        "summary": {"suites_run": [call.suite], "all_pass": False,
                    "config": {"seed": 2, "dim": call.dim, "trials": call.trials,
                               "flip_orientation": True}},
        "reports": [{"suite_name": call.suite, "pass": False, "max_violation": 0.5,
                     "config_echo": {"tol": 1e-9},
                     "trials": [{"t": 0.5, "lhs": 2.0, "rhs": 1.0, "violation": 0.5,
                                 "scale": 1.0, "witness": {}}] * (call.trials * 10)}],
    }
    for digest in ("a", "b"):
        (tmp_path / f"report-0-{digest}.json").write_text(json.dumps(doc))
    outcomes = [[(1, "a", None), (1, "a", None), (1, "b", None), (0, "a", None),
                 (None, None, "RuntimeError: boom")]]
    found = failures(workload, 2, outcomes, tmp_path)
    assert [line.split(": ")[1] for line in found] == [
        "report differs from the other passes", "exit 0, expected 1", "raised RuntimeError"]
    assert failures(workload, 2, [outcomes[0][:2]], tmp_path) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_traced_runs_on_one_seed_give_the_same_counts(workload):
    runs = [run_bench("--workload", workload, "--seed", "11", "--seconds", "0.1",
                      "--trace", "1") for _ in range(2)]
    results = []
    for done in runs:
        assert done.returncode == 0, done.stderr
        assert "repeat exactly across 2 passes: True" in done.stdout
        assert "trace coverage: ok" in done.stdout
        results.append(json.loads(done.stdout.splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(spans.PER_LAYER)
    counts = [{n: r["metrics"][n]["value"] for n in spans.COUNTS} for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eigh.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    done = run_bench("--workload", "segments-d6", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

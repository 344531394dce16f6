"""Correctness of a run: which ``verify`` calls count as failed operations.

A call fails when it raised, when its exit status is not the workload's
expected one, when it wrote no report, when its report differs from the
report the same call wrote in most passes, or when the report's content
does not hold up against the call (see :func:`check_report`).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

# Suites whose records are one SegmentTrial per t value: 9 grid points + 1 random.
SEGMENT_SUITES = {"joint-convexity", "lieb-concavity", "fenchel", "partial-max"}
T_SAMPLES = 10


def check_report(doc: dict, call, seed: int, expected_exit: int) -> list[str]:
    """Problems with one report, re-deriving its verdict from its records."""
    problems = []
    summary = doc["summary"]
    config = summary["config"]
    want_pass = expected_exit == 0
    if summary["suites_run"] != [call.suite] or len(doc["reports"]) != 1:
        problems.append(f"suites_run {summary['suites_run']} != [{call.suite}]")
    if (config["seed"], config["dim"], config["trials"], config["flip_orientation"]) != (
            seed, call.dim, call.trials, call.flip_orientation):
        problems.append(f"config echo {config} does not match the call")
    if summary["all_pass"] is not want_pass:
        problems.append(f"verdict all_pass={summary['all_pass']}, expected {want_pass}")
    for report in doc["reports"]:
        trials = report["trials"]
        if call.suite in SEGMENT_SUITES and len(trials) != call.trials * T_SAMPLES:
            problems.append(f"{len(trials)} records for {call.trials} trials")
        valid = [t for t in trials if t.get("valid", True)]
        numbers = [t[k] for t in valid for k in ("violation", "lhs", "rhs", "value")
                   if k in t]
        if not all(math.isfinite(v) for v in numbers):
            problems.append("non-finite value in a valid record")
            continue
        worst = max(t["violation"] for t in valid) if valid else math.nan
        if worst != report["max_violation"]:
            problems.append(f"max_violation {report['max_violation']} != recomputed {worst}")
        tol = report["config_echo"]["tol"]
        if report["pass"] is not want_pass or (worst <= tol) is not want_pass:
            problems.append(f"suite {report['suite_name']}: pass={report['pass']}, "
                            f"max violation {worst} against tol {tol}")
        if not want_pass and not any("witness" in t for t in trials):
            problems.append("failing report carries no witness")
    return problems


def _problems(path: Path, call, seed: int, expected_exit: int) -> list[str]:
    try:
        return check_report(json.loads(path.read_text(encoding="utf-8")), call, seed,
                            expected_exit)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def failures(workload, seed: int, outcomes: list, report_dir: Path) -> list[str]:
    """One line per failed call.

    ``outcomes[i]`` lists ``(exit code, report sha256 or None, error text or
    None)`` for call ``i``, one entry per pass; the first report of each
    distinct sha256 is ``report_dir / f"report-{i}-{sha256}.json"``.
    """
    out = []
    expected = workload.expected_exit
    for i, (call, passes) in enumerate(zip(workload.calls, outcomes)):
        modal = Counter(digest for _, digest, _ in passes).most_common(1)[0][0]
        checked = {}
        for n, (code, digest, error) in enumerate(passes):
            where = f"call {i} ({call.suite}) pass {n}"
            if digest is not None and digest not in checked:
                checked[digest] = _problems(report_dir / f"report-{i}-{digest}.json",
                                            call, seed, expected)
            if error is not None:
                out.append(f"{where}: raised {error}")
            elif code != expected:
                out.append(f"{where}: exit {code}, expected {expected}")
            elif digest is None:
                out.append(f"{where}: no report written")
            elif digest != modal:
                out.append(f"{where}: report differs from the other passes")
            elif checked[digest]:
                out.append(f"{where}: {'; '.join(checked[digest])}")
    return out

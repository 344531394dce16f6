"""Benchmark of ``qrelent verify``: time to a verdict, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh worker
process (``worker.py``) as a closed loop of ``verify`` calls, each with
``--seed N``, until S seconds are spent.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics from a traced half of the run, and the tracing overhead.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import failures
from spans import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "qrelent"

END_TO_END = {
    "verify_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Fresh processes timed for setup_s, after one untimed process that lets
# the interpreter write its bytecode caches.
SETUP_PROBES = 7
# The whole run must end within 180 s; the worker gets what is left of this.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Benchmark of qrelent verify.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of the program's sources, which identifies it where git does not."""
    h = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # No more BLAS threads than cores; unset means the library's default,
    # which OpenBLAS caps at the CPUs this process may run on.
    for var in THREAD_VARS:
        if var in env and env[var].isdigit() and int(env[var]) > nproc:
            env[var] = str(nproc)
    return env


def worker_cmd(args, run_dir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), "--run-dir", str(run_dir), *extra]


def measure_setup(args, run_dir: Path, env: dict) -> list[float]:
    samples = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(worker_cmd(args, run_dir, "--probe"), env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(done.stdout.split()[-1]))
    return samples


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4f} .. {q3:.4f}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "cli.py").is_file():
        print(f"error: no qrelent sources under {SOURCE}; run from a full checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    run_dir = HERE / f".run-{os.getpid()}"
    try:
        shutil.rmtree(run_dir, ignore_errors=True)  # left by a killed run with this pid
        run_dir.mkdir()
        setup = [] if args.trace else measure_setup(args, run_dir, env)
        timeout = DEADLINE_S - (time.monotonic() - started)
        done = subprocess.run(worker_cmd(args, run_dir), env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            print(f"error: worker exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads((run_dir / "result.json").read_text())
        workload = WORKLOADS[args.workload]
        failed_calls = failures(workload, args.seed, result["outcomes"], run_dir)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env_info = {"nproc": nproc, "cpu_count": os.cpu_count(), **result["env"],
                **{var: env.get(var) for var in THREAD_VARS},
                "git_commit": git_commit(), "source_sha256": source_sha256()}
    print(f"environment: {json.dumps(env_info, sort_keys=True)}")
    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s): "
          + "; ".join(" ".join(c.argv(args.seed, "REPORT.json")) for c in workload.calls))

    metrics = {}
    if args.trace:
        layer = result["per_layer"]
        print(f"per-layer metrics: counts from one traced pass (repeat exactly across "
              f"{result['traced_passes']} passes: {result['counts_repeat']}), "
              f"times are medians over those passes")
        for name, (unit, _) in PER_LAYER.items():
            metrics[name] = {"value": layer[name], "unit": unit}
            print(f"  {name} = {layer[name]} {unit}")
        if result["missing_targets"]:
            print(f"untraced (not in the program): {', '.join(result['missing_targets'])}")
        overhead = layer["trace.overhead_s"]
        print(f"trace overhead: {overhead:.4f} s = traced verify_s "
              f"{layer['trace.verify_s']:.4f} s - untraced {layer['trace.untraced_verify_s']:.4f} s"
              f" ({overhead / layer['trace.untraced_verify_s']:+.1%})")
        allowance = max(overhead, 0.01 * layer["trace.verify_s"])
        unaccounted = layer["trace.unaccounted_s"]
        print(f"trace coverage: {'ok' if unaccounted <= allowance else 'INCOMPLETE'}: "
              f"{unaccounted:.4f} s of traced verify_s outside top-level spans, "
              f"allowance {allowance:.4f} s")
    else:
        times = result["verify_s"]
        values = {
            "verify_s": (statistics.median(times),
                         f"median of {len(times)} passes, {quartiles(times)}"),
            "setup_s": (statistics.median(setup),
                        f"median of {len(setup)} fresh processes, {quartiles(setup)}"),
            "peak_rss_mb": (result["peak_rss_mb"], "worker process"),
        }
        for name, (unit, _) in END_TO_END.items():
            value, note = values[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name} = {value} {unit} ({note})")

    attempted = sum(len(passes) for passes in result["outcomes"])
    failed = len(failed_calls)
    print(f"failed operations: {failed}/{attempted} ({failed / attempted:.2%})")
    for line in failed_calls[:20]:
        print(f"  FAILED {line}")
    print(f"report bytes per pass: {result['report_bytes']}; sha256 per call: "
          + " ".join(passes[0][1] or "-" for passes in result["outcomes"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

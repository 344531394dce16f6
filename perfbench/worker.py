"""One workload in one fresh process: a closed loop of ``qrelent verify`` calls.

Started by ``run.py``, never by hand.  A pass makes the workload's calls
once, one after another, through ``qrelent.cli.main``; passes repeat until
the time budget is spent.  Every pass uses the same seed, so each call must
write a report byte-identical to the one it wrote in every other pass.

With ``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is measured in one process under the same conditions.  The
result goes to ``<run-dir>/result.json``; the program's own printing goes
to this process's stdout, which the runner discards.

``--probe`` stops right before the first ``verify`` call and prints the
set-up time: the runner starts several probes to measure ``setup_s``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
from qrelent.cli import main as qrelent_main  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
MIN_TRACE_PASSES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--probe", action="store_true")
    return p.parse_args(argv)


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
    }


class Loop:
    """The closed loop of passes, recording what each call returned and wrote.

    The first report of each distinct content is kept in the run directory
    as ``report-<call>-<sha256>.json`` for the runner to check; the others
    are deleted once hashed, so this process never parses a report and its
    peak memory is the program's.
    """

    def __init__(self, workload, seed: int, run_dir: str):
        self.run_dir = run_dir
        self.paths = [os.path.join(run_dir, f"call{i}.json")
                      for i in range(len(workload.calls))]
        self.argvs = [c.argv(seed, p) for c, p in zip(workload.calls, self.paths)]
        # Per call: one (exit code, sha256 or None, error text) per pass.
        self.outcomes: list[list[tuple]] = [[] for _ in self.argvs]
        self.report_bytes = 0

    def run_pass(self) -> float:
        """Make every call once; return the wall time from first call to last report."""
        codes, errors = [], []
        start = time.perf_counter()
        for argv in self.argvs:
            try:
                codes.append(qrelent_main(argv))
                errors.append(None)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                codes.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        self.report_bytes = 0
        for i, path in enumerate(self.paths):
            digest = None
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                digest = hashlib.sha256(data).hexdigest()
                self.report_bytes += len(data)
                kept = os.path.join(self.run_dir, f"report-{i}-{digest}.json")
                if os.path.exists(kept):
                    os.unlink(path)
                else:
                    os.replace(path, kept)
            self.outcomes[i].append((codes[i], digest, errors[i]))
        return elapsed

    def run_for(self, seconds: float) -> list[float]:
        """Run passes for ``seconds``, at least MIN_PASSES; return their times."""
        times = []
        start = time.perf_counter()
        while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
            times.append(self.run_pass())
        return times


def traced_run(loop: Loop, seconds: float) -> tuple[list[float], list[dict], list[str]]:
    """Alternate untraced and traced passes, so both see the same machine.

    Returns the untraced pass times, the layer metrics of each traced pass,
    and the traced names the program does not have.
    """
    tracer = spans.Tracer()
    untraced, traced, missing = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACE_PASSES or time.perf_counter() - start < seconds:
        untraced.append(loop.run_pass())
        tracer.reset()
        undo, missing = spans.install(tracer)
        try:
            pass_s = loop.run_pass()
        finally:
            spans.uninstall(undo)
        metrics = spans.pass_metrics(tracer)
        metrics["trace.verify_s"] = pass_s
        metrics["trace.unaccounted_s"] = pass_s - tracer.top_level_s()
        metrics["matrixio.report_bytes"] = loop.report_bytes
        traced.append(metrics)
    return untraced, traced, missing


def layer_summary(passes: list[dict], untraced: list[float]) -> dict:
    """Counts from the first traced pass, timings as medians over traced passes."""
    out = {}
    for name, (unit, _) in spans.PER_LAYER.items():
        if name in ("trace.untraced_verify_s", "trace.overhead_s"):
            continue
        values = [p[name] for p in passes]
        out[name] = values[0] if unit in ("count", "bytes") else statistics.median(values)
    out["trace.untraced_verify_s"] = statistics.median(untraced)
    out["trace.overhead_s"] = out["trace.verify_s"] - out["trace.untraced_verify_s"]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.makedirs(args.run_dir, exist_ok=True)
    loop = Loop(workload, args.seed, args.run_dir)
    if args.probe:
        print(repr(time.perf_counter() - T0))
        return 0

    result = {"env": environment()}
    if args.trace:
        untraced, passes, missing = traced_run(loop, args.seconds)
        result["per_layer"] = layer_summary(passes, untraced)
        result["traced_passes"] = len(passes)
        result["missing_targets"] = missing
        result["counts_repeat"] = all(
            p[name] == passes[0][name] for p in passes for name in spans.COUNTS)
    else:
        times = loop.run_for(args.seconds)
        result["verify_s"] = times
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(outcomes=loop.outcomes, report_bytes=loop.report_bytes)
    with open(os.path.join(args.run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

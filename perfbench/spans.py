"""Span tracing of qrelent from outside: wrap the names each module calls.

No file of the program changes.  :func:`install` replaces every binding of
a traced function in the ``qrelent`` modules (and ``numpy.linalg.eigh`` /
``eigvalsh``, which the modules reach through ``np.linalg``) with a wrapper
that records a span: its name, its duration and its parent span.  A span's
self time is its duration minus the time its child spans cover.  Spans are
aggregated in memory, per name, and read out once per pass.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Span name -> (module, attribute) bindings that carry it.  Names are
# "<layer>.<function>", the layer being the module that defines the
# function, or ``linalg`` for the numpy boundary.  Several bindings may
# share one span name (both maximizers are ``variational.maximize``).
TARGETS = {
    "linalg.eigh": [("numpy.linalg", "eigh")],
    "linalg.eigvalsh": [("numpy.linalg", "eigvalsh")],
    "hermitian.HermitianMatrix": [("qrelent.hermitian", "HermitianMatrix.__post_init__")],
    "hermitian.eig": [("qrelent.hermitian", "eig")],
    "hermitian.mat_log": [("qrelent.hermitian", "mat_log")],
    "hermitian.mat_exp": [("qrelent.hermitian", "mat_exp")],
    "hermitian.validate_pd": [("qrelent.hermitian", "validate_pd")],
    "hermitian.trace_product": [("qrelent.hermitian", "trace_product")],
    "hermitian.sample_pd": [("qrelent.hermitian", "sample_pd")],
    "hermitian.sample_hermitian": [("qrelent.hermitian", "sample_hermitian")],
    "divergence.relative_entropy": [("qrelent.divergence", "relative_entropy")],
    "divergence.entropy": [("qrelent.divergence", "entropy")],
    "divergence.klein_check": [("qrelent.divergence", "klein_check")],
    "variational.trace_exp_log": [("qrelent.variational", "trace_exp_log")],
    "variational.maximize": [
        ("qrelent.variational", "maximize_lieb"),
        ("qrelent.variational", "maximize_variational"),
    ],
    "variational.lieb_objective": [("qrelent.variational", "lieb_objective")],
    "variational.variational_objective": [("qrelent.variational", "variational_objective")],
    "convexity.segment_test": [("qrelent.convexity", "segment_test")],
    "convexity.sample_lieb_instance": [("qrelent.convexity", "sample_lieb_instance")],
    "convexity.joint_convexity": [("qrelent.convexity", "joint_convexity_suite")],
    "convexity.lieb_concavity": [("qrelent.convexity", "lieb_concavity_suite")],
    "convexity.fenchel_convexity": [("qrelent.convexity", "fenchel_convexity_suite")],
    "convexity.partial_max_concavity": [("qrelent.convexity", "partial_max_concavity_suite")],
    "cli.klein_suite": [("qrelent.cli", "klein_suite")],
    "cli.variational_suite": [("qrelent.cli", "variational_suite")],
    "cli.cmd_verify": [("qrelent.cli", "cmd_verify")],
    "matrixio.write_report": [("qrelent.matrixio", "write_report")],
}

# Spans whose individual durations are kept, for percentiles.
KEEP_DURATIONS = ("variational.maximize", "convexity.segment_test")
# Spans whose return value is a SuiteReport.
SUITE_SPANS = (
    "convexity.joint_convexity", "convexity.lieb_concavity",
    "convexity.fenchel_convexity", "convexity.partial_max_concavity",
    "cli.klein_suite", "cli.variational_suite",
)


class Tracer:
    """In-memory span aggregation for one process; reset between passes."""

    def __init__(self):
        # Each open span is a frame [name, time covered by its children].
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        # (parent name, child name) -> count and summed duration; the parent
        # of a top-level span is None.  Per-name totals are sums over edges.
        self.edges: dict[tuple, int] = defaultdict(int)
        self.edge_s: dict[tuple, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = {n: [] for n in KEEP_DURATIONS}
        self.iters: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span; containers are cleared in place, as wrappers hold them."""
        for container in (self.stack, self.self_s, self.edges, self.edge_s, self.iters,
                          *self.durations.values()):
            container.clear()
        self.converged = 0
        self.suite_trials = 0
        self.suite_invalid = 0

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        clock = time.perf_counter
        stack, self_s, edges, edge_s = self.stack, self.self_s, self.edges, self.edge_s
        durations = self.durations.get(name)
        is_maximize = name == "variational.maximize"
        is_suite = name in SUITE_SPANS
        tracer = self

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                    edge = (stack[-1][0], name)
                else:
                    edge = (None, name)
                edges[edge] += 1
                edge_s[edge] += elapsed
                if durations is not None:
                    durations.append(elapsed)
            if is_maximize:
                tracer.iters.append(int(result.iters))
                tracer.converged += bool(result.converged)
            elif is_suite:
                tracer.suite_trials += len(result.trials)
                tracer.suite_invalid += int(result.invalid_trials)
            return result

        return traced

    def totals(self) -> tuple[dict, dict]:
        """Calls and summed duration per span name."""
        calls, total_s = defaultdict(int), defaultdict(float)
        for edge, count in self.edges.items():
            calls[edge[1]] += count
            total_s[edge[1]] += self.edge_s[edge]
        return calls, total_s

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(t for (parent, _), t in self.edge_s.items() if parent is None)


def _resolve(module_name: str, attr: str):
    """Return ``(owner, attribute name, current value)`` or None if absent."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if last not in vars(owner):
        return None
    return owner, last, vars(owner)[last]


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every target; return ``(undo list, names of missing targets)``.

    A module-level function is rebound wherever a ``qrelent`` module holds
    it, under any name, so calls through every import path are traced.  Targets the
    program no longer has are skipped and reported, not fatal.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "qrelent" or n.startswith("qrelent."))]
    undo: list = []
    missing: list[str] = []
    for name, bindings in TARGETS.items():
        for module_name, attr in bindings:
            found = _resolve(module_name, attr)
            if found is None:
                missing.append(f"{module_name}.{attr}")
                continue
            owner, last, original = found
            wrapped = tracer.wrap(name, original)
            bindings_of = [(owner, last)]
            if "." not in attr and module_name.startswith("qrelent"):
                bindings_of += [(m, key) for m in modules for key, value in vars(m).items()
                                if value is original and (m, key) != (owner, last)]
            for holder, key in bindings_of:
                undo.append((holder, key, original))
                setattr(holder, key, wrapped)
    return undo, missing


def uninstall(undo: list) -> None:
    for holder, last, original in reversed(undo):
        setattr(holder, last, original)


LAYERS = ("linalg", "hermitian", "divergence", "variational", "convexity", "cli", "matrixio")

# Per-layer metrics: name -> (unit, better).  Units "count" are exact
# counts of one pass and must repeat between passes and runs on one seed.
PER_LAYER = {
    "linalg.eigh.calls": ("count", "lower"),
    "linalg.eigvalsh.calls": ("count", "lower"),
    "linalg.eigh.self_s": ("s", "lower"),
    "linalg.eigvalsh.self_s": ("s", "lower"),
    "linalg.decomp_per_eval": ("ratio", "lower"),
    "hermitian.HermitianMatrix.calls": ("count", "lower"),
    "hermitian.HermitianMatrix.self_s": ("s", "lower"),
    "hermitian.eig.calls": ("count", "lower"),
    "hermitian.validate_pd.calls": ("count", "lower"),
    "hermitian.validate_pd.self_s": ("s", "lower"),
    "hermitian.mat_log.calls": ("count", "lower"),
    "hermitian.mat_log.self_s": ("s", "lower"),
    "hermitian.mat_exp.calls": ("count", "lower"),
    "hermitian.trace_product.calls": ("count", "lower"),
    "hermitian.trace_product.self_s": ("s", "lower"),
    "hermitian.sample_pd.calls": ("count", "lower"),
    "hermitian.sample_pd.self_s": ("s", "lower"),
    "divergence.relative_entropy.calls": ("count", "lower"),
    "divergence.relative_entropy.self_s": ("s", "lower"),
    "divergence.entropy.calls": ("count", "lower"),
    "divergence.entropy.self_s": ("s", "lower"),
    "variational.trace_exp_log.calls": ("count", "lower"),
    "variational.trace_exp_log.self_s": ("s", "lower"),
    "variational.maximize.calls": ("count", "lower"),
    "variational.maximize.self_s": ("s", "lower"),
    "variational.maximize.p50_ms": ("ms", "lower"),
    "variational.maximize.p90_ms": ("ms", "lower"),
    "variational.iters.total": ("count", "lower"),
    "variational.iters.p50": ("count", "lower"),
    "variational.iters.p90": ("count", "lower"),
    "variational.ascent_evals": ("count", "lower"),
    "variational.ascent_eigh_s": ("s", "lower"),
    "variational.backtracks.total": ("count", "lower"),
    "variational.accept_ratio": ("ratio", "higher"),
    "variational.converged_ratio": ("ratio", "higher"),
    "convexity.segment_test.calls": ("count", "lower"),
    "convexity.segment_test.self_s": ("s", "lower"),
    "convexity.segment_test.p50_ms": ("ms", "lower"),
    "convexity.segment_test.p90_ms": ("ms", "lower"),
    "convexity.suite_s.joint_convexity": ("s", "lower"),
    "convexity.suite_s.lieb_concavity": ("s", "lower"),
    "convexity.suite_s.fenchel_convexity": ("s", "lower"),
    "convexity.suite_s.partial_max_concavity": ("s", "lower"),
    "convexity.suite_self_s.joint_convexity": ("s", "lower"),
    "convexity.suite_self_s.lieb_concavity": ("s", "lower"),
    "convexity.suite_self_s.fenchel_convexity": ("s", "lower"),
    "convexity.suite_self_s.partial_max_concavity": ("s", "lower"),
    "convexity.invalid_ratio": ("ratio", "lower"),
    "cli.klein_suite.s": ("s", "lower"),
    "cli.variational_suite.s": ("s", "lower"),
    "cli.cmd_verify.self_s": ("s", "lower"),
    "matrixio.write_report.s": ("s", "lower"),
    "matrixio.report_bytes": ("bytes", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.verify_s": ("s", "lower"),
    "trace.untraced_verify_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unaccounted_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

COUNTS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit == "count")


def _rank(values, q: float):
    """Nearest-rank percentile (an element of ``values``); 0 when empty."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def pass_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass, except the ``trace.*`` ones."""
    calls, total_s = tr.totals()
    self_s = tr.self_s
    m = {}
    for span in ("linalg.eigh", "linalg.eigvalsh", "hermitian.HermitianMatrix",
                 "hermitian.validate_pd", "hermitian.mat_log", "hermitian.trace_product",
                 "hermitian.sample_pd", "divergence.relative_entropy", "divergence.entropy",
                 "variational.trace_exp_log", "variational.maximize",
                 "convexity.segment_test"):
        m[f"{span}.calls"] = calls[span]
        m[f"{span}.self_s"] = self_s[span]
    m["hermitian.eig.calls"] = calls["hermitian.eig"]
    m["hermitian.mat_exp.calls"] = calls["hermitian.mat_exp"]

    evals = calls["divergence.relative_entropy"] + calls["variational.trace_exp_log"]
    decomps = calls["linalg.eigh"] + calls["linalg.eigvalsh"]
    m["linalg.decomp_per_eval"] = decomps / evals if evals else 0.0

    for span in KEEP_DURATIONS:
        ms = [d * 1e3 for d in tr.durations[span]]
        m[f"{span}.p50_ms"] = float(_rank(ms, 50))
        m[f"{span}.p90_ms"] = float(_rank(ms, 90))

    # The ascent's trial points are the eigh calls made by a maximizer
    # directly: every other eigh in its span sits under mat_log or eig.
    ascent = ("variational.maximize", "linalg.eigh")
    ascent_evals = tr.edges[ascent]
    runs = calls["variational.maximize"]
    m["variational.iters.total"] = sum(tr.iters)
    m["variational.iters.p50"] = _rank(tr.iters, 50)
    m["variational.iters.p90"] = _rank(tr.iters, 90)
    m["variational.ascent_evals"] = ascent_evals
    m["variational.ascent_eigh_s"] = tr.edge_s[ascent]
    m["variational.backtracks.total"] = ascent_evals - sum(tr.iters) - runs if runs else 0
    m["variational.accept_ratio"] = sum(tr.iters) / ascent_evals if ascent_evals else 0.0
    m["variational.converged_ratio"] = tr.converged / runs if runs else 0.0

    for suite in ("joint_convexity", "lieb_concavity", "fenchel_convexity",
                  "partial_max_concavity"):
        m[f"convexity.suite_s.{suite}"] = total_s[f"convexity.{suite}"]
        m[f"convexity.suite_self_s.{suite}"] = self_s[f"convexity.{suite}"]
    m["convexity.invalid_ratio"] = (
        tr.suite_invalid / tr.suite_trials if tr.suite_trials else 0.0)

    m["cli.klein_suite.s"] = total_s["cli.klein_suite"]
    m["cli.variational_suite.s"] = total_s["cli.variational_suite"]
    m["cli.cmd_verify.self_s"] = self_s["cli.cmd_verify"]
    m["matrixio.write_report.s"] = total_s["matrixio.write_report"]

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    m["trace.spans"] = sum(calls.values())
    return m

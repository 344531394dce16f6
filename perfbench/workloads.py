"""The benchmark's workloads: which ``qrelent verify`` calls one pass makes.

A pass runs the calls of its workload once, one after another, each with
the benchmark seed as ``--seed`` and its own report file.  The trial
counts fix the amount of work; they are passed explicitly so that a change
of the CLI defaults does not change the workload.  This module imports
nothing heavy, so the runner can read it before numpy is loaded.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Call:
    """One ``qrelent verify`` invocation, minus ``--seed`` and ``--out``."""

    suite: str
    dim: int
    trials: int
    flip_orientation: bool = False

    def argv(self, seed: int, out_path: str) -> list[str]:
        argv = [
            "verify", "--suite", self.suite, "--dim", str(self.dim),
            "--trials", str(self.trials), "--seed", str(seed), "--out", out_path,
        ]
        if self.flip_orientation:
            argv.append("--flip-orientation")
        return argv


@dataclasses.dataclass(frozen=True)
class Workload:
    calls: tuple[Call, ...]
    # 0 when every suite must pass; 1 for the self-test that must fail.
    expected_exit: int
    why: str


_SEGMENT_SUITES = ("klein", "joint-convexity", "lieb-concavity", "fenchel")

WORKLOADS = {
    "segments-d6": Workload(
        tuple(Call(s, 6, 200) for s in _SEGMENT_SUITES),
        0,
        "Four segment suites at dim 6: Python wrappers and validation dominate, "
        "LAPACK is about a third; wrapper and stacked-eigh cuts show here",
    ),
    "segments-d64": Workload(
        tuple(Call(s, 64, 20) for s in _SEGMENT_SUITES),
        0,
        "The same suites at dim 64: LAPACK is about 85% of the time, so fewer "
        "eigendecompositions show and wrapper cuts barely do",
    ),
    "optimizer-d16": Workload(
        (Call("partial-max", 16, 10), Call("variational", 16, 60)),
        0,
        "partial-max and variational at dim 16: the ascent inside maximize_* "
        "does nearly all the work; optimizer changes show here only",
    ),
    "selftest-d6": Workload(
        (Call("lieb-concavity", 6, 200, flip_orientation=True),),
        1,
        "lieb-concavity with flipped orientation at dim 6, exit 1 expected: every "
        "trial builds a witness and the report is about 25x larger",
    ),
}

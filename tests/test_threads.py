"""Chunks on two threads from each suite's ``threaded_dim`` on, BLAS held at one thread.

The threaded schedule must give the bytes of the serial one, leave the
BLAS thread count and the thread count of the process as it found them,
fall back to the serial schedule where it cannot hold BLAS, has one CPU or
one chunk, and raise the error of the lowest failing trial.  No test here
depends on the order in which the threads make their calls.
"""

import json
import sys
import threading
import time

import pytest

from qrelent import SUITES, run_suite
from qrelent import convexity, hermitian
from qrelent.cli import main
from qrelent.matrixio import json_default

# Trials per suite at its threaded dim: a few chunks each, ten per chunk
# for variational (at dim 14), two for partial-max, one for the others.
TRIALS = {"klein": 4, "joint-convexity": 3, "lieb-concavity": 3, "partial-max": 5,
          "fenchel": 3, "variational": 13}
CASES = [*((name, {}) for name in SUITES), ("lieb-concavity", {"orientation": "convex"})]
OPTIMIZER_SUITES = ("partial-max", "variational")


def _report_bytes(name, dim, options, trials=None):
    report = run_suite(name, dim, trials or TRIALS[name], 42, None, **options)
    return json.dumps(report.to_json_dict(), default=json_default, sort_keys=True)


def _schedules(monkeypatch) -> list:
    # The thread count each run_suite call hands _run_tasks.
    seen = []
    run_tasks = convexity._run_tasks

    def spy(run, tasks, threads):
        seen.append(threads)
        return run_tasks(run, tasks, threads)

    monkeypatch.setattr(convexity, "_run_tasks", spy)
    return seen


def _blas_puts(monkeypatch) -> list:
    # The counts run_suite sets numpy's OpenBLAS to, recorded as they are set.
    puts = []
    control = hermitian._openblas_threads()
    if control is not None:
        get, put = control
        monkeypatch.setattr(hermitian, "_openblas_threads",
                            lambda: (get, lambda n: (puts.append(n), put(n))))
    return puts


def _serial_from_now_on(monkeypatch, name):
    # Row ``name`` runs serially at its threaded dim.
    row = SUITES[name]
    monkeypatch.setitem(convexity.SUITES, name, row._replace(threaded_dim=row.threaded_dim + 1))


def _blas_threads() -> int:
    control = hermitian._openblas_threads()
    if control is None:
        pytest.skip("numpy's OpenBLAS thread control is not found here")
    return control[0]()


def _trial_index(rng) -> int:
    # trial_rng(seed, i) seeds its generator with the entropy [seed, i].
    return int(rng.bit_generator.seed_seq.entropy[1])


def _failing_fenchel(monkeypatch, slow: dict):
    """Make fenchel trials 13 and 17 raise; trial ``i`` first sleeps ``slow.get(i, 0)`` s."""
    row = SUITES["fenchel"]

    def trial(rngs, *args, **options):
        for rng in rngs:
            i = _trial_index(rng)
            if i in (13, 17):
                time.sleep(slow.get(i, 0.0))
                raise OverflowError(f"eigenvalue too large in {i}")
        return row.trial(rngs, *args, **options)

    monkeypatch.setitem(convexity.SUITES, "fenchel", row._replace(trial=trial))


@pytest.fixture
def two_cpus(monkeypatch):
    # The threaded schedule on any machine: two usable CPUs.
    monkeypatch.setattr(convexity, "usable_cpus", lambda: 2)


@pytest.mark.parametrize("name, options", CASES)
def test_threaded_report_equals_the_serial_one(monkeypatch, two_cpus, name, options):
    dim = SUITES[name].threaded_dim
    seen = _schedules(monkeypatch)
    threaded = _report_bytes(name, dim, options)
    _serial_from_now_on(monkeypatch, name)
    serial = _report_bytes(name, dim, options)
    assert threaded == serial
    held = hermitian._openblas_threads() is not None
    assert seen == [2 if held else 1, 1]


def test_optimizer_rows_thread_at_dim_16_and_segment_rows_do_not(monkeypatch, two_cpus):
    # The ascents' eigh calls and matmuls release the GIL; the segment
    # suites' chunks hold it at dim 16, their eigvalsh stacks being small.
    # The default reports at dims 1 and 6 stay serial.
    held = hermitian._openblas_threads() is not None
    seen = _schedules(monkeypatch)
    for name in OPTIMIZER_SUITES:
        assert 6 < SUITES[name].threaded_dim <= 16
        run_suite(name, 16, TRIALS[name], 42, None)
        run_suite(name, SUITES[name].threaded_dim - 1, TRIALS[name], 42, None)
    assert seen == [2 if held else 1, 1] * len(OPTIMIZER_SUITES)
    seen.clear()
    segment_suites = [name for name in SUITES if name not in OPTIMIZER_SUITES]
    for name in segment_suites:
        assert SUITES[name].threaded_dim > 16
        run_suite(name, 16, TRIALS[name], 42, None)
        run_suite(name, SUITES[name].threaded_dim - 1, TRIALS[name], 42, None)
    assert seen == [1, 1] * len(segment_suites)


def test_a_single_chunk_runs_serially_and_leaves_blas_alone(monkeypatch, two_cpus):
    # Five variational trials at dim 16 are one chunk of eight.
    puts = _blas_puts(monkeypatch)
    seen = _schedules(monkeypatch)
    before = threading.active_count()
    assert main(["verify", "--suite", "variational", "--dim", "16", "--trials", "5"]) == 0
    assert seen == [1]
    assert puts == []
    assert threading.active_count() == before


@pytest.mark.parametrize("fallback", ["no BLAS control", "one CPU"])
def test_fallbacks_run_serially_with_the_same_bytes(monkeypatch, fallback):
    reference = {name: _report_bytes(name, SUITES[name].threaded_dim, {}) for name in SUITES}
    puts = []
    if fallback == "one CPU":
        monkeypatch.setattr(convexity, "usable_cpus", lambda: 1)
        puts = _blas_puts(monkeypatch)
    else:
        monkeypatch.setattr(convexity, "usable_cpus", lambda: 2)
        monkeypatch.setattr(hermitian, "_openblas_threads", lambda: None)
    seen = _schedules(monkeypatch)
    for name, want in reference.items():
        assert _report_bytes(name, SUITES[name].threaded_dim, {}) == want, name
    assert seen == [1] * len(SUITES)
    assert puts == []


class TestBlasHold:
    def test_chunks_see_one_blas_thread_and_the_count_comes_back(self, monkeypatch, two_cpus):
        before = _blas_threads()
        row = SUITES["joint-convexity"]
        during = []

        def trial(rngs, *args, **options):
            during.append(_blas_threads())
            return row.trial(rngs, *args, **options)

        monkeypatch.setitem(convexity.SUITES, "joint-convexity", row._replace(trial=trial))
        run_suite("joint-convexity", SUITES["joint-convexity"].threaded_dim, 3, 42, None)
        assert during == [1, 1, 1]
        assert _blas_threads() == before

    def test_count_comes_back_after_a_raising_run(self, monkeypatch, two_cpus):
        before = _blas_threads()
        _failing_fenchel(monkeypatch, {})
        with pytest.raises(OverflowError):
            run_suite("fenchel", SUITES["fenchel"].threaded_dim, 20, 42, None)
        assert _blas_threads() == before

    def test_overlapping_holds_restore_the_count_the_first_found(self):
        before = _blas_threads()
        outer = hermitian.one_blas_thread()
        inner = hermitian.one_blas_thread()
        assert outer.__enter__() is True
        assert inner.__enter__() is True
        assert _blas_threads() == 1
        outer.__exit__(None, None, None)
        assert _blas_threads() == 1
        inner.__exit__(None, None, None)
        assert _blas_threads() == before

    def test_without_control_nothing_is_held(self, monkeypatch):
        monkeypatch.setattr(hermitian, "_openblas_threads", lambda: None)
        with hermitian.one_blas_thread() as held:
            assert held is False


class TestNoThreadOutlivesTheRun:
    def test_after_a_normal_run(self, two_cpus):
        before = threading.active_count()
        run_suite("lieb-concavity", SUITES["lieb-concavity"].threaded_dim, 4, 42, None)
        assert threading.active_count() == before

    def test_after_a_raising_run(self, monkeypatch, two_cpus):
        before = threading.active_count()
        _failing_fenchel(monkeypatch, {13: 0.2})
        with pytest.raises(OverflowError):
            run_suite("fenchel", SUITES["fenchel"].threaded_dim, 20, 42, None)
        assert threading.active_count() == before


def _stacked_only_fenchel_bug(monkeypatch):
    # fenchel chunks of more than one trial raise IndexError; single trials run.
    row = SUITES["fenchel"]

    def stacked_only_bug(rngs, *args, **options):
        if len(rngs) > 1:
            raise IndexError("stacked path only")
        return row.trial(rngs, *args, **options)

    monkeypatch.setitem(convexity.SUITES, "fenchel", row._replace(trial=stacked_only_bug))


class TestFailingTrialIsNamed:
    @pytest.mark.parametrize("dim", [6, 16, SUITES["fenchel"].threaded_dim])
    def test_lowest_failing_trial_is_raised_and_printed(self, monkeypatch, capsys, two_cpus,
                                                        dim):
        # Trials 13 and 17 raise.  At dim 6 both sit in chunks of 11; from
        # dim 16 on each is a chunk, run serially at dim 16.  At the
        # threaded dim 13 sleeps before it raises, so 17 fails first
        # whichever thread runs it.  The arguments were valid, so the
        # error of a trial exits 3, not 2.
        _failing_fenchel(monkeypatch, {13: 0.2})
        with pytest.raises(OverflowError) as err:
            run_suite("fenchel", dim, 30, 42, None)
        assert str(err.value) == "eigenvalue too large in 13"
        assert err.value.trial_key == "fenchel trial 13"
        assert main(["verify", "--suite", "fenchel", "--dim", str(dim), "--trials", "30"]) == 3
        assert capsys.readouterr().err == "error: fenchel trial 13: eigenvalue too large in 13\n"

    def test_kind_and_index_within_the_kind(self, monkeypatch):
        row = SUITES["klein"]

        def trial(rngs, dim, tol, kind):
            if kind == "separated" and any(_trial_index(r) == 2_000_002 for r in rngs):
                raise ValueError("separated trial failed")
            return row.trial(rngs, dim, tol, kind)

        monkeypatch.setitem(convexity.SUITES, "klein", row._replace(trial=trial))
        with pytest.raises(ValueError) as err:
            run_suite("klein", 6, 30, 42, None)
        assert err.value.trial_key == "klein separated trial 2"

    def test_chunk_error_no_trial_raises_alone_names_the_chunk(self, monkeypatch):
        _stacked_only_fenchel_bug(monkeypatch)
        with pytest.raises(IndexError) as err:
            run_suite("fenchel", 6, 30, 42, None)
        assert err.value.trial_key == "fenchel trials 0-10 as one chunk"

    def test_library_fault_exits_three_in_one_line(self, monkeypatch, capsys):
        # An exception that is not a usage, domain or I/O error is a fault
        # of the library, not a violated claim (1) nor a usage error (2).
        _stacked_only_fenchel_bug(monkeypatch)
        assert main(["verify", "--suite", "fenchel", "--trials", "30", "--seed", "42"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: fenchel trials 0-10 as one chunk: IndexError: stacked path only\n")


def test_run_tasks_raises_the_lowest_failing_task():
    # Task 1 fails slowly, task 4 at once; results are in task order.
    def run(k):
        if k == 1:
            time.sleep(0.2)
            raise KeyError(k)
        if k == 4:
            raise KeyError(k)
        return k * k

    for threads in (1, 2):
        with pytest.raises(KeyError) as err:
            convexity._run_tasks(run, list(range(8)), threads)
        assert err.value.args == (1,)
        assert convexity._run_tasks(lambda k: k * k, list(range(8)), threads) == \
            [k * k for k in range(8)]


def test_run_tasks_runs_each_task_once_under_frequent_switches():
    # Four threads on two cores, switching every microsecond: a task taken
    # twice, or a result lost, breaks the log or the results.
    log = []

    def run(k):
        log.append(k)
        return -k

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = convexity._run_tasks(run, list(range(3000)), 4)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(log) == list(range(3000))
    assert results == [-k for k in range(3000)]
    assert threading.active_count() == before

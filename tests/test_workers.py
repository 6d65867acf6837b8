"""Tasks mapped over this process and forked workers: order, placement, failures and fallbacks."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from rocbench.core import DegenerateMakerError
from rocbench.workers import cpus, map_forked


def _pid_and_square(i):
    return os.getpid(), i * i


@pytest.fixture
def forks(monkeypatch):
    """The pid of every worker ``os.fork`` starts while the test runs, as the caller sees them."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


class TestMapForked:
    @pytest.mark.parametrize("mask", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_results_in_task_order(self, cpu_mask, assert_childless, mask, n):
        cpu_mask(mask)
        assert cpus() == mask
        results = map_forked(_pid_and_square, n)
        assert [square for _, square in results] == [i * i for i in range(n)]
        workers = min(mask, n)
        # the parent runs the first n // workers tasks, and the workers all the others
        own = n // workers if workers > 1 else n
        assert [pid == os.getpid() for pid, _ in results] == [i < own for i in range(n)]
        assert_childless()

    @pytest.mark.parametrize("mask, n, runs", [
        (3, 7, [range(0, 2), range(2, 5), range(5, 7)]),
        (4, 7, [range(0, 1), range(1, 3), range(3, 5), range(5, 7)]),
        (4, 12, [range(0, 3), range(3, 6), range(6, 9), range(9, 12)]),
        (4, 5, [range(0, 1), range(1, 3), range(3, 5)]),
        (2, 7, [range(0, 3), range(3, 7)]),
        (5, 6, [range(0, 1), range(1, 3), range(3, 5), range(5, 6)]),
    ])
    def test_each_process_runs_one_contiguous_run(self, cpu_mask, forks, mask, n, runs):
        cpu_mask(mask)
        pids = map_forked(lambda i: os.getpid(), n)
        assert [sorted(i for i, pid in enumerate(pids) if pid == p) for p in dict.fromkeys(pids)] == [
            list(r) for r in runs
        ]
        assert pids[0] == os.getpid()
        assert forks == list(dict.fromkeys(pids[len(runs[0]):]))  # no worker is forked without a run

    def test_task_reaches_workers_through_the_fork(self, cpu_mask):
        lock = threading.Lock()  # a closure over it cannot be pickled
        cpu_mask(3)
        assert map_forked(lambda i: (lock.locked(), i), 5) == [(False, i) for i in range(5)]

    @pytest.mark.parametrize("mask", [1, 4])
    def test_a_failure_keeps_its_type_and_message(self, cpu_mask, assert_childless, mask):
        def task(i):
            if i == 6:
                raise DegenerateMakerError("maker 'm6': degenerate counts")
            return i

        cpu_mask(mask)
        with pytest.raises(DegenerateMakerError) as info:
            map_forked(task, 7)
        assert type(info.value) is DegenerateMakerError
        assert str(info.value) == "maker 'm6': degenerate counts"
        assert_childless()

    def test_the_lowest_failing_task_is_reported(self, cpu_mask, assert_childless):
        # under four CPUs the parent runs task 0 and three workers tasks 1-2, 3-4 and 5-6;
        # task 2 fails after task 5 has, and it is the one reported, on every run
        def task(i):
            if i in (2, 5):
                time.sleep(0.3 if i == 2 else 0.0)
                raise RuntimeError(f"task {i} failed")
            return i

        cpu_mask(4)
        for _ in range(3):
            with pytest.raises(RuntimeError, match="^task 2 failed$"):
                map_forked(task, 7)
            assert_childless()

    def test_a_failure_in_the_parent_stops_the_workers(self, cpu_mask, assert_childless):
        def task(i):
            if i == 0:
                raise RuntimeError("task 0 failed")
            time.sleep(30.0)
            return i

        cpu_mask(2)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^task 0 failed$"):
            map_forked(task, 4)
        assert time.monotonic() - start < 10.0  # the sleeping worker was killed, not waited for
        assert_childless()

    def test_a_call_inside_a_worker_runs_in_that_worker(self, cpu_mask, assert_childless):
        cpu_mask(2)
        inner = map_forked(lambda i: (os.getpid(), map_forked(lambda j: os.getpid(), 3)), 2)
        me, mine = inner[0]
        assert me == mine[0] == os.getpid() != mine[1] == mine[2]  # the caller's nested call forks as usual...
        worker, nested = inner[1]
        assert worker != os.getpid()
        assert nested == [worker] * 3  # ...but one made in a worker forks no further
        assert_childless()


class TestWorkerFailures:
    """A worker that dies, or whose failure or result does not pickle, gives an error, never a hang."""

    @pytest.mark.parametrize("die, how", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
        (lambda: os._exit(3), "exited with code 3"),
    ])
    def test_a_worker_that_dies_names_its_run(self, cpu_mask, assert_childless, die, how):
        # under three CPUs the parent runs tasks 0-1, and workers tasks 2-4 and 5-6; task 5 dies
        parent = os.getpid()

        def task(i):
            if i == 5 and os.getpid() != parent:
                die()
            return i

        cpu_mask(3)
        with pytest.raises(RuntimeError, match=f"^the worker of tasks 5-6 {how} before reporting task 5$"):
            map_forked(task, 7)
        assert_childless()

    def test_a_lower_failure_wins_over_a_dead_worker(self, cpu_mask, assert_childless):
        def task(i):
            if i == 3:
                raise ValueError("task 3 failed")
            if i == 5:
                os._exit(3)
            return i

        cpu_mask(3)
        with pytest.raises(ValueError, match="^task 3 failed$"):
            map_forked(task, 7)
        assert_childless()

    class Locked(Exception):
        """Holds a lock, so it cannot be pickled."""

        def __init__(self, message):
            super().__init__(message)
            self.lock = threading.Lock()

    class TwoPart(Exception):
        """Pickles, but its class cannot be rebuilt from the one message it pickles."""

        def __init__(self, a, b):
            super().__init__(f"{a} then {b}")

    @pytest.mark.parametrize("mask", [1, 2])
    @pytest.mark.parametrize("make, name, message", [
        (lambda: TestWorkerFailures.Locked("lock held"), "Locked", "lock held"),
        (lambda: TestWorkerFailures.TwoPart("left", "right"), "TwoPart", "left then right"),
    ])
    def test_an_exception_that_cannot_be_sent_keeps_its_name_and_message(
            self, cpu_mask, assert_childless, mask, make, name, message):
        def task(i):
            if i == 1:
                raise make()
            return i

        cpu_mask(mask)
        with pytest.raises(Exception) as info:
            map_forked(task, 2)
        if mask == 1:
            assert (type(info.value).__name__, str(info.value)) == (name, message)  # in-process: as raised
        else:
            assert type(info.value) is RuntimeError
            assert str(info.value) == f"task 1 raised {name}: {message} (the exception cannot be pickled)"
        assert_childless()

    def test_a_result_that_cannot_be_sent_names_its_task(self, cpu_mask, assert_childless):
        cpu_mask(2)
        with pytest.raises(RuntimeError) as info:
            map_forked(lambda i: threading.Lock(), 2)
        assert str(info.value) == "task 1's result cannot be pickled: TypeError: cannot pickle '_thread.lock' object"
        assert_childless()

    @pytest.mark.parametrize("exc", [KeyboardInterrupt(), SystemExit(3)])
    def test_an_interrupt_in_a_worker_never_returns_into_the_caller(self, cpu_mask, assert_childless,
                                                                    tmp_path, exc):
        log, parent = tmp_path / "after", os.getpid()

        def task(i):
            if i == 1:
                raise exc
            return i

        cpu_mask(2)
        try:
            with pytest.raises(type(exc)) as info:
                map_forked(task, 2)
        finally:
            with open(log, "a") as fh:  # every process that comes back from the call gets here
                fh.write(f"{os.getpid()}\n")
            if os.getpid() != parent:  # a worker that came back would run the rest of the test suite
                os._exit(0)
        assert info.value.args == exc.args  # the caller raises it, as the in-process call would
        assert log.read_text() == f"{parent}\n"
        assert_childless()


class TestInProcessFallbacks:
    """Every task runs in the caller; any fork would fail."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)

    def test_one_cpu(self, cpu_mask):
        cpu_mask(1)
        assert map_forked(_pid_and_square, 4) == [(os.getpid(), i * i) for i in range(4)]

    def test_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cpus() == 1
        assert map_forked(_pid_and_square, 4) == [(os.getpid(), i * i) for i in range(4)]

    def test_inside_a_daemonic_process(self, cpu_mask, monkeypatch):
        cpu_mask(3)
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert map_forked(_pid_and_square, 4) == [(os.getpid(), i * i) for i in range(4)]

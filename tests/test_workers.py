"""Tasks mapped over this process and forked workers: order, placement, failures and fallbacks."""

import multiprocessing
import os
import threading
import time

import pytest

from rocbench.core import DegenerateMakerError
from rocbench.workers import cpus, map_forked


def _pid_and_square(i):
    return os.getpid(), i * i


class TestMapForked:
    @pytest.mark.parametrize("mask", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_results_in_task_order(self, cpu_mask, mask, n):
        cpu_mask(mask)
        assert cpus() == mask
        results = map_forked(_pid_and_square, n)
        assert [square for _, square in results] == [i * i for i in range(n)]
        workers = min(mask, n)
        # the parent runs the first n // workers tasks, and the workers all the others
        own = n // workers if workers > 1 else n
        assert [pid == os.getpid() for pid, _ in results] == [i < own for i in range(n)]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mask, n, runs", [
        (3, 7, [range(0, 2), range(2, 5), range(5, 7)]),
        (4, 7, [range(0, 1), range(1, 3), range(3, 5), range(5, 7)]),
        (4, 12, [range(0, 3), range(3, 6), range(6, 9), range(9, 12)]),
        (4, 5, [range(0, 1), range(1, 3), range(3, 5)]),
        (2, 7, [range(0, 3), range(3, 7)]),
        (5, 6, [range(0, 1), range(1, 3), range(3, 5), range(5, 6)]),
    ])
    def test_each_process_runs_one_contiguous_run(self, cpu_mask, monkeypatch, mask, n, runs):
        pool_sizes = []
        fork = multiprocessing.get_context("fork")

        class Recording:
            def Pool(self, processes, *args):
                pool_sizes.append(processes)
                return fork.Pool(processes, *args)

        def task(i):
            time.sleep(0.05)  # slow enough that every worker has taken its run before any finishes one
            return os.getpid()

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: Recording())
        cpu_mask(mask)
        pids = map_forked(task, n)
        assert [sorted(i for i, pid in enumerate(pids) if pid == p) for p in dict.fromkeys(pids)] == [
            list(r) for r in runs
        ]
        assert pids[0] == os.getpid()
        assert pool_sizes == [len(runs) - 1]  # no worker is forked without a run

    def test_task_reaches_workers_through_the_fork(self, cpu_mask):
        lock = threading.Lock()  # a closure over it cannot be pickled
        cpu_mask(3)
        assert map_forked(lambda i: (lock.locked(), i), 5) == [(False, i) for i in range(5)]

    @pytest.mark.parametrize("mask", [1, 4])
    def test_a_failure_keeps_its_type_and_message(self, cpu_mask, mask):
        def task(i):
            if i == 6:
                raise DegenerateMakerError("maker 'm6': degenerate counts")
            return i

        cpu_mask(mask)
        with pytest.raises(DegenerateMakerError) as info:
            map_forked(task, 7)
        assert type(info.value) is DegenerateMakerError
        assert str(info.value) == "maker 'm6': degenerate counts"
        assert multiprocessing.active_children() == []

    def test_the_lowest_failing_task_is_reported(self, cpu_mask):
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
            assert multiprocessing.active_children() == []

    def test_a_failure_in_the_parent_stops_the_workers(self, cpu_mask):
        def task(i):
            if i == 0:
                raise RuntimeError("task 0 failed")
            time.sleep(0.2)
            return i

        cpu_mask(2)
        with pytest.raises(RuntimeError, match="^task 0 failed$"):
            map_forked(task, 4)
        assert multiprocessing.active_children() == []


class TestInProcessFallbacks:
    """Every task runs in the caller; any pool would fail."""

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_context", None)

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

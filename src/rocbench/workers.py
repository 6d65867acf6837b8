"""Independent tasks spread over this process and workers forked from it.

``map_forked(task, n)`` returns ``[task(0), ..., task(n - 1)]``.  It
forks one worker per CPU in the process's affinity mask beyond the
first (``taskset`` narrows the mask), never more processes than tasks.
Each runs one contiguous run of tasks: the caller the first ``n //
processes``, the workers the rest, cut into runs of ``ceil(rest /
workers)``, one per worker.  ``task`` may be a closure over large
arrays: it reaches the workers through the fork, never by pickling;
only the task indices and the results are pickled.

A failure is the failure of the lowest-index task that fails, raised
with its type and message, however the workers' timing falls; no worker
outlives the call.  Where the platform has no affinity mask (macOS,
Windows), where the mask holds one CPU, or where the caller is itself a
daemonic worker (which may not have children), every task runs in the
calling process.
"""

from __future__ import annotations

import os

__all__ = ["cpus", "map_forked"]

_task = None  # a forked worker's task; set only in workers, by ``_adopt``


def _adopt(task):
    global _task
    _task = task


def _run(i):
    return _task(i)


def cpus() -> int:
    """CPUs in the process's affinity mask; 1 where the platform has no mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def map_forked(task, n: int) -> list:
    """``[task(0), ..., task(n - 1)]``, spread over this process and forked workers."""
    workers = min(cpus(), n)
    import multiprocessing

    # a daemonic process (a pool worker) may not have children
    if workers < 2 or multiprocessing.current_process().daemon:
        return [task(i) for i in range(n)]
    own = n // workers
    with multiprocessing.get_context("fork").Pool(workers - 1, _adopt, (task,)) as pool:
        # one chunk per worker; imap yields in task order and a chunk stops at its first failure,
        # so the first failure it raises is the lowest-index one
        rest = pool.imap(_run, range(own, n), chunksize=-(-(n - own) // (workers - 1)))
        head = [task(i) for i in range(own)]
        return head + list(rest)

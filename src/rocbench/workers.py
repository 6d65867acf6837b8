"""Independent tasks spread over this process and workers forked from it.

``map_forked(task, n)`` returns ``[task(0), ..., task(n - 1)]``.  It
spreads the tasks over one process per CPU in the process's affinity
mask (``taskset`` narrows the mask), never more processes than tasks.
Each runs one contiguous run of tasks: the caller the first ``n //
processes``, forked workers the rest, cut into runs of ``ceil(rest /
(processes - 1))``, one per worker; a worker is forked only for a run,
so 5 tasks under 4 CPUs fork 2.  ``task`` may be a closure over large
arrays: it reaches the workers through ``os.fork``, never by pickling;
only the results come back, pickled, one pipe per worker.

A worker runs its tasks in order and stops at its first failure, which
it sends with the task's index in place of the rest.  It leaves through
``os._exit`` whatever happens, so it never returns into the caller's
code and never flushes the buffers it inherited (output a task leaves
buffered in a worker is lost).  The caller runs its own run first, then
reads the pipes in task order, so the failure raised is that of the
lowest-index task that fails, with its type and message, however the
workers' timing falls.  A failure or result that cannot be pickled
comes back as a ``RuntimeError`` naming its type and message, and a
worker that ends without reporting raises one naming its run.  No
worker outlives the call: any still running when the caller stops
reading is killed, and every worker is reaped.

Where the platform has no affinity mask (macOS, Windows), where the
mask holds one CPU, inside a worker and inside a daemonic
``multiprocessing`` process (which may not have children), every task
runs in the calling process.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

__all__ = ["cpus", "map_forked"]

_in_worker = False  # set only in a forked worker, which never returns to the caller


def cpus() -> int:
    """CPUs in the process's affinity mask; 1 where the platform has no mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _in_process() -> bool:
    """Whether every task must run here: in a worker, or in a daemonic ``multiprocessing`` process."""
    mp = sys.modules.get("multiprocessing")  # looked up, never imported: only a process that loaded it can be one
    return _in_worker or (mp is not None and mp.current_process().daemon)


def map_forked(task, n: int) -> list:
    """``[task(0), ..., task(n - 1)]``, spread over this process and forked workers."""
    workers = min(cpus(), n)
    if workers < 2 or _in_process():
        return [task(i) for i in range(n)]
    own = n // workers
    chunk = -(-(n - own) // (workers - 1))
    runs = [range(start, min(start + chunk, n)) for start in range(own, n, chunk)]
    live, pipes = [], []  # the workers not yet reaped; each worker's pipe, in task order
    try:
        for run in runs:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _work(task, run, read, write)
            os.close(write)
            live.append(pid)
            pipes.append(os.fdopen(read, "rb"))
        results = [task(i) for i in range(own)]
        for pid, pipe, run in zip(list(live), pipes, runs):
            results += _receive(pid, pipe, run, live)
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in live:
            os.kill(pid, signal.SIGKILL)  # unreaped, so the pid is still this worker's
            os.waitpid(pid, 0)


def _work(task, run, read, write) -> None:
    """A forked worker: run ``run``, send its records down the pipe, then leave through ``os._exit``.

    The records are sent only once every task has run: the caller reads
    the pipe after its own run, and a worker that wrote as it went would
    wait on a full pipe until then.
    """
    global _in_worker
    code = 1
    try:
        _in_worker = True
        os.close(read)
        records = []
        for i in run:
            try:
                result = task(i)
            except BaseException as exc:  # the caller raises it
                records.append(_failure(i, exc))
                break
            try:
                records.append(pickle.dumps((None, result), pickle.HIGHEST_PROTOCOL))
            except Exception as exc:
                records.append(_failure(i, RuntimeError(
                    f"task {i}'s result cannot be pickled: {type(exc).__name__}: {exc}")))
                break
        with open(write, "wb") as out:
            out.writelines(records)
        code = 0
    finally:
        os._exit(code)


def _failure(i: int, exc: BaseException) -> bytes:
    """The record of task ``i``'s failure: its type name, message and, where it pickles, the exception."""
    try:
        sent = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
    except Exception:
        sent = None
    return pickle.dumps(((i, type(exc).__name__, str(exc), sent), None), pickle.HIGHEST_PROTOCOL)


def _receive(pid: int, pipe, run: range, live: list) -> list:
    """The results of ``run`` read from its worker's ``pipe``; the worker's failure is raised."""
    results = []
    for i in run:
        try:
            failure, result = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            live.remove(pid)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            raise RuntimeError(
                f"the worker of tasks {run.start}-{run.stop - 1} {how} before reporting task {i}"
            ) from None
        if failure is not None:
            raise _rebuilt(*failure)
        results.append(result)
    return results


def _rebuilt(i: int, name: str, message: str, sent: bytes | None) -> BaseException:
    """Task ``i``'s exception as the worker raised it, or a ``RuntimeError`` naming it where it did not pickle."""
    if sent is not None:
        try:
            return pickle.loads(sent)
        except Exception:  # pickled, but its class cannot be rebuilt from its arguments
            pass
    return RuntimeError(f"task {i} raised {name}: {message} (the exception cannot be pickled)")

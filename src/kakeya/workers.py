"""Run tasks on bare forked worker processes.

The oracle's checks run here when more than one CPU is available.  The
workers inherit the tasks through ``os.fork``, so no input is pickled.
They claim tasks from one pipe, one byte per task index, so a worker
takes the next task as soon as it is free, and each pickles its results
back on a pipe of its own.  A task without a result, because its worker
died (say, killed for memory) or its stream was cut, comes out as
WorkerLost, which ``kakeya verify`` reports with exit code 4.  The module
is imported only by a run that forks.
"""

from __future__ import annotations

import gc
import os
import pickle

from .errors import WorkerLost

__all__ = ["map_forked"]


def _work(tasks, claims, out):
    """A forked worker: run each task whose index it claims, one byte read
    from ``claims``, and pickle (index, ok, result or exception) to ``out``.
    It ends with ``os._exit``, never returning into the caller's code."""
    status = 1
    try:
        with open(out, "wb") as pipe:
            while claim := os.read(claims, 1):
                k = claim[0]
                func, args = tasks[k]
                try:
                    record = (k, True, func(*args))
                except Exception as exc:
                    record = (k, False, exc)
                try:
                    blob = pickle.dumps(record)
                except Exception as exc:  # the result or exception does not pickle
                    blob = pickle.dumps((k, False, exc))
                pipe.write(blob)
        status = 0
    finally:
        os._exit(status)


def map_forked(tasks, workers):
    """The results of ``tasks``, (func, args) pairs, in task order, from
    ``workers`` forked processes.

    At most 256 tasks, one claim byte each.  The parent runs no task: it
    reads each worker's result pipe to its end, then reaps the worker.  A
    task's exception is raised as a copy of the same type and message, or
    as the pickling error if it does not pickle.  A task without a result
    raises WorkerLost, naming the exit status or signal of each worker that
    did not end cleanly.  No worker outlives the call, whether it returns
    or raises.
    """
    claims, fill = os.pipe()
    os.write(fill, bytes(range(len(tasks))))
    os.close(fill)
    children = {}  # pid -> its result pipe, until the worker is reaped
    results, endings = {}, []
    # the workers' collections then skip the parent's objects, whose pages
    # they would otherwise copy
    gc.freeze()
    try:
        for _ in range(workers):
            fd, out = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(tasks, claims, out)
            children[pid] = open(fd, "rb")
            os.close(out)
        for pid, pipe in list(children.items()):
            with pipe:
                try:
                    while True:
                        k, ok, value = pickle.load(pipe)
                        results[k] = ok, value
                except (EOFError, pickle.UnpicklingError):  # the end, or a cut record
                    pass
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code:
                endings.append(f"exit status {code}" if code > 0 else f"signal {-code}")
    finally:
        gc.unfreeze()
        os.close(claims)
        if children:  # after an error: stop and reap the workers still running
            import signal

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    out = []
    for k in range(len(tasks)):
        if k not in results:
            how = ", ".join(endings) or "its results were cut short"
            raise WorkerLost(f"a check's worker process ended without a result ({how})")
        ok, value = results[k]
        if not ok:
            raise value
        out.append(value)
    return out

"""How the process uses its CPUs: two halves of a step on a helper thread, and
a whole second computation in a forked child.

``run_pair(a, b)`` runs ``a()`` on the calling thread and ``b()`` on a daemon
worker, and returns once both are done.  The halves are chosen by the caller
and never by timing, so every element gets the same floating-point operations
whether the halves run concurrently or one after the other: numpy releases
the GIL inside its loops, which is where the overlap comes from.  With fewer
than two CPUs in the process's affinity mask both halves run inline.

The worker starts on the first call, never at import, and is started again
in a child process after ``fork``.  Halves must not call ``run_pair``
themselves.

``run_beside(a, b)`` returns ``(a(), b())`` and runs ``b`` in a forked child
process while ``a`` runs in the caller.  It forks only where that overlaps
safely: two or more CPUs, no thread but the calling one, and a ``fork``
start method.  Otherwise, or when the fork fails, ``a()`` and then ``b()``
run inline.  It returns both results or raises, and leaves no child behind.
"""

from __future__ import annotations

import os
import queue
import threading

import numpy as np

__all__ = ["run_pair", "run_beside"]


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Job:
    __slots__ = ("fn", "errstate", "done", "error")

    def __init__(self, fn):
        self.fn = fn
        self.errstate = np.geterr()  # errstate is per thread; b runs under the caller's
        self.done = threading.Lock()
        self.done.acquire()
        self.error = None


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        job = jobs.get()
        try:
            with np.errstate(**job.errstate):
                job.fn()
        except BaseException as exc:  # re-raised on the calling thread
            job.error = exc
        finally:
            # hold nothing of a finished job: its closure may pin large arrays
            done, job = job.done, None
            done.release()


_start_lock = threading.Lock()
_worker: tuple[int, queue.SimpleQueue] | None = None  # (pid, job queue)


def _jobs() -> queue.SimpleQueue:
    global _worker
    with _start_lock:
        if _worker is None or _worker[0] != os.getpid():
            jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), name="qsolsim-pair",
                             daemon=True).start()
            _worker = (os.getpid(), jobs)
        return _worker[1]


def run_pair(a, b) -> None:
    """Run ``a()`` here and ``b()`` on the worker; wait for both.

    An exception from ``b`` is re-raised here once ``a`` has finished; if
    ``a`` raises, ``b`` is still waited for.
    """
    if _cpu_count() < 2:
        a()
        b()
        return
    job = _Job(b)
    _jobs().put(job)
    try:
        a()
    finally:
        job.done.acquire()
    if job.error is not None:
        raise job.error


def _fork_context():
    """The ``fork`` multiprocessing context, or None where forking could not overlap
    or is unsafe: one CPU, another thread running (its locks would be copied held),
    or no ``fork`` start method."""
    if _cpu_count() < 2 or threading.active_count() != 1:
        return None
    import multiprocessing  # only s-pair runs pay for this import

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _send_outcome(fn, conn) -> None:
    """Child side: send ``(True, fn())`` or ``(False, exception)``."""
    try:
        outcome = (True, fn())
    except BaseException as exc:  # re-raised by the parent
        outcome = (False, exc)
    with conn:
        conn.send(outcome)


def run_beside(a, b) -> tuple:
    """Return ``(a(), b())``, with ``b`` in a forked child while ``a`` runs here.

    Where ``_fork_context`` allows no fork, or the fork fails, ``a()`` and then
    ``b()`` run inline.  If ``a`` raises, the child is terminated and reaped
    before the exception leaves; an exception from ``b``, or a child that dies
    without a result, is raised once ``a`` has finished.  No child outlives
    the call.
    """
    ctx = _fork_context()
    if ctx is not None:
        conn, child_end = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_send_outcome, args=(b, child_end), name="qsolsim-forked",
                           daemon=True)
        try:
            proc.start()
        except OSError:  # no process to spare: run inline instead
            conn.close()
            ctx = None
        finally:
            child_end.close()
    if ctx is None:
        return a(), b()
    try:
        first = a()
        try:
            # received before the child is reaped, so a large result cannot
            # leave the child blocked on a full pipe
            ok, second = conn.recv()
        except EOFError:  # killed, or its outcome could not be pickled
            ok, second = False, None
    except BaseException:  # a raised: stop the child still running
        proc.terminate()
        raise
    finally:
        conn.close()
        proc.join()
        exitcode = proc.exitcode
        proc.close()
    if ok:
        return first, second
    if second is None:
        raise RuntimeError(f"forked process ended without a result (exit code {exitcode})")
    raise second

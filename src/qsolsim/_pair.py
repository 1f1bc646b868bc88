"""Fork/join of two fixed halves of work on one helper thread.

``run_pair(a, b)`` runs ``a()`` on the calling thread and ``b()`` on a daemon
worker, and returns once both are done.  The halves are chosen by the caller
and never by timing, so every element gets the same floating-point operations
whether the halves run concurrently or one after the other: numpy releases
the GIL inside its loops, which is where the overlap comes from.  With fewer
than two CPUs in the process's affinity mask both halves run inline.

The worker starts on the first call, never at import, and is started again
in a child process after ``fork``.  Halves must not call ``run_pair``
themselves.
"""

from __future__ import annotations

import os
import queue
import threading

import numpy as np

__all__ = ["run_pair"]


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0))


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
            job.done.release()


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

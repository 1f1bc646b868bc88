"""The two-half fork/join: same bits inline and threaded, and a worker half
behaves like code on the calling thread (exceptions, numpy error state); and
``run_beside``, which runs a second computation in a forked child."""

import functools
import os
import signal
import subprocess
import sys
import threading
import types
import weakref

import numpy as np
import pytest

from qsolsim import _pair
from qsolsim.dynamics import RHSCoefficients, propagate
from qsolsim.state import GridSpec, fundamental_soliton

from conftest import Copies


@pytest.fixture(params=["inline", "threaded"])
def cpus(request, monkeypatch):
    """Force run_pair inline (1 CPU) or onto the worker (2 CPUs)."""
    count = 1 if request.param == "inline" else 2
    monkeypatch.setattr(_pair, "_cpu_count", lambda: count)
    return count


def test_trajectory_is_bit_identical_inline_and_threaded(monkeypatch):
    grid = GridSpec(m=41, dx=0.25)
    state = fundamental_soliton(grid, 1e4, 1e-3, 0.0)
    coeffs = RHSCoefficients(d2=-8.0, chi_t=1e-4, gamma_t=0.05,
                             delta_omega_t=0.0, n_th=1e-3)

    def trajectory():
        states = Copies()
        stats = propagate(state, coeffs, [0.05, 0.1], states)
        return b"".join(st.flatten().tobytes() for st in states), stats.as_dict()

    results = []
    for count in (1, 2):
        monkeypatch.setattr(_pair, "_cpu_count", lambda c=count: c)
        results.append(trajectory())
    assert results[0] == results[1]


def test_both_halves_run_and_threaded_b_runs_on_the_worker(cpus):
    ran = {}
    _pair.run_pair(lambda: ran.setdefault("a", threading.get_ident()),
                   lambda: ran.setdefault("b", threading.get_ident()))
    assert ran["a"] == threading.get_ident()
    assert (ran["b"] == threading.get_ident()) == (cpus == 1)


def test_exception_in_b_reaches_the_caller_after_a(cpus):
    ran = []

    def b():
        raise ValueError("from half b")

    with pytest.raises(ValueError, match="from half b"):
        _pair.run_pair(lambda: ran.append("a"), b)
    assert ran == ["a"]


def test_exception_in_a_waits_for_b(monkeypatch):
    monkeypatch.setattr(_pair, "_cpu_count", lambda: 2)
    release, finished = threading.Event(), []

    def a():
        release.set()
        raise KeyError("from half a")

    def b():
        release.wait(5.0)
        finished.append(True)

    with pytest.raises(KeyError):
        _pair.run_pair(a, b)
    assert finished == [True]


def test_worker_keeps_nothing_of_a_finished_job(monkeypatch):
    # the closure of a finished b (here: the array it captured) must be
    # freed when run_pair returns, not when the next job arrives
    monkeypatch.setattr(_pair, "_cpu_count", lambda: 2)
    payload = np.ones(8)
    captured = weakref.ref(payload)
    _pair.run_pair(lambda: None, functools.partial(np.sum, payload))
    del payload
    assert captured() is None


def test_worker_half_runs_under_the_callers_errstate(cpus):
    seen = []

    def b():
        seen.append(np.geterr()["over"])
        np.float64(1e308) * 10.0  # overflow: silent under "ignore"

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _pair.run_pair(lambda: None, b)
    with np.errstate(all="ignore"):
        _pair.run_pair(lambda: None, b)
    assert seen == ["raise", "ignore"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_starts_its_own_worker(monkeypatch):
    monkeypatch.setattr(_pair, "_cpu_count", lambda: 2)
    _pair.run_pair(lambda: None, lambda: None)  # the parent's worker is running
    pid = os.fork()
    if pid == 0:  # child: the parent's worker thread does not exist here
        signal.alarm(10)  # a job queued for the parent's worker would hang
        ran, ok = [], False
        try:
            _pair.run_pair(lambda: None, lambda: ran.append(threading.get_ident()))
            ok = ran and ran[0] != threading.get_ident()
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_callers_on_several_threads_share_the_worker(monkeypatch):
    # more callers than cores and a short switch interval: every half of
    # every call must run exactly once and each caller must wait for its own
    monkeypatch.setattr(_pair, "_cpu_count", lambda: 2)
    counts = [[0, 0] for _ in range(4)]

    def caller(i):
        for _ in range(300):
            before = counts[i][1]
            _pair.run_pair(lambda: counts[i].__setitem__(0, counts[i][0] + 1),
                           lambda: counts[i].__setitem__(1, counts[i][1] + 1))
            assert counts[i][1] == before + 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert counts == [[300, 300]] * 4


def test_cpu_count_falls_back_without_sched_getaffinity(monkeypatch):
    # macOS and Windows have no affinity mask
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _pair._cpu_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert _pair._cpu_count() == 1


def _beside_pids(monkeypatch, cpus: int, threads: int, methods=("fork", "spawn")):
    import multiprocessing

    monkeypatch.setattr(_pair, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(threading, "active_count", lambda: threads)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: list(methods))
    return _pair.run_beside(os.getpid, os.getpid)


@pytest.mark.parametrize("cpus, threads, methods", [
    (1, 1, ("fork", "spawn")),  # one CPU: nothing to overlap
    (2, 2, ("fork", "spawn")),  # another thread: its locks would be copied held
    (2, 1, ("spawn",)),         # no fork start method
])
def test_run_beside_runs_inline_where_it_must_not_fork(monkeypatch, cpus, threads, methods):
    assert _beside_pids(monkeypatch, cpus, threads, methods) == (os.getpid(), os.getpid())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_run_beside_runs_inline_when_the_fork_fails(monkeypatch):
    import multiprocessing

    ctx = multiprocessing.get_context("fork")

    class Unstartable(ctx.Process):
        def start(self):
            raise BlockingIOError("fork: resource temporarily unavailable")

    fake = types.SimpleNamespace(Pipe=ctx.Pipe, Process=Unstartable)
    monkeypatch.setattr(_pair, "_fork_context", lambda: fake)
    assert _pair.run_beside(os.getpid, os.getpid) == (os.getpid(), os.getpid())


def test_inline_b_runs_after_a_and_raises_there(monkeypatch):
    monkeypatch.setattr(_pair, "_cpu_count", lambda: 1)
    ran = []

    def b():
        ran.append("b")
        raise KeyError("inline")

    with pytest.raises(KeyError):
        _pair.run_beside(lambda: ran.append("a"), b)
    assert ran == ["a", "b"]


FORK_CHECKS = r"""
import os, signal, sys, threading, time
from qsolsim import _pair
from qsolsim.integrator import StepSizeUnderflow

assert threading.active_count() == 1 and _pair._cpu_count() >= 2

# b's result comes back from a child process, a's from here
here, there = _pair.run_beside(os.getpid, os.getpid)
assert here == os.getpid() != there
big = _pair.run_beside(lambda: None, lambda: bytes(3_000_000))[1]  # beyond any pipe buffer
assert big == bytes(3_000_000)

# an exception comes back with its type and fields
def fail():
    raise StepSizeUnderflow("step size underflow", 4.9)
try:
    _pair.run_beside(lambda: None, fail)
except StepSizeUnderflow as exc:
    assert exc.t == 4.9 and str(exc) == "step size underflow (at t = 4.9)"
else:
    raise AssertionError("no exception")

# a child that dies without a result is reported, not waited for forever
try:
    _pair.run_beside(lambda: None, lambda: os.kill(os.getpid(), signal.SIGKILL))
except RuntimeError as exc:
    assert "ended without a result" in str(exc)
else:
    raise AssertionError("no exception")

# when a raises, a child still running is terminated and reaped
def stop():
    raise KeyError("from a")
start = time.monotonic()
try:
    _pair.run_beside(stop, lambda: time.sleep(60))
except KeyError:
    assert time.monotonic() - start < 10
else:
    raise AssertionError("no exception")

try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


@pytest.mark.skipif(not hasattr(os, "fork") or _pair._cpu_count() < 2,
                    reason="needs fork and two CPUs")
def test_run_beside_in_a_fresh_process():
    # a fresh interpreter has one thread, so run_beside forks there
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(_pair.__file__)))
    proc = subprocess.run([sys.executable, "-c", FORK_CHECKS], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "no child left"

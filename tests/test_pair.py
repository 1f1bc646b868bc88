"""The two-half fork/join: same bits inline and threaded, and a worker half
behaves like code on the calling thread (exceptions, numpy error state)."""

import os
import signal
import sys
import threading

import numpy as np
import pytest

from qsolsim import _pair
from qsolsim.dynamics import RHSCoefficients, propagate
from qsolsim.state import GridSpec, fundamental_soliton


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
                             delta_omega_t=0.0, n_th=1e-3, s=0.0)

    def trajectory():
        states, stats = propagate(state, coeffs, 0.1, output_times=[0.05, 0.1])
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

"""The benchmark tracer's hook points must exist in the package.

``perfbench/spans.py`` replaces the module attributes named in its
``TARGETS`` table with recording wrappers; a renamed or folded function
would make every traced benchmark run fail at install time.  Its span stack
is not thread-safe, so no wrapped name may run on the pair worker either.
"""

import importlib
import importlib.util
import threading
from pathlib import Path

from qsolsim import _pair, dynamics
from qsolsim.state import GridSpec, fundamental_soliton

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable():
    targets = load_spans().TARGETS
    assert targets
    for name, (target, _) in targets.items():
        module_name, attr = target.split(":")
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{name}: {target} does not resolve to a callable"


def test_trace_targets_run_on_the_calling_thread_only(monkeypatch):
    # with the halves on the worker thread, every call of a wrapped name
    # during rhs and a whole integration must still come from the main thread
    monkeypatch.setattr(_pair, "_cpu_count", lambda: 2)
    calls = []
    for name, (target, _) in load_spans().TARGETS.items():
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)

        def wrapper(*args, _fn=getattr(module, attr), _name=name, **kwargs):
            calls.append((_name, threading.current_thread() is threading.main_thread()))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)
    state = fundamental_soliton(GridSpec(m=41, dx=0.25), 1e4, 1e-3, 0.0)
    coeffs = dynamics.RHSCoefficients(d2=-8.0, chi_t=1e-4, gamma_t=0.05,
                                      delta_omega_t=0.0, n_th=1e-3)
    dynamics.rhs(state, coeffs)
    dynamics.propagate(state, coeffs, [0.01])
    assert {"dynamics.rhs", "integrator.step"} <= {name for name, _ in calls}
    assert all(on_main for _, on_main in calls), [n for n, on_main in calls if not on_main]

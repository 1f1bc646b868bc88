"""In-memory spans around the public functions of the qsolsim modules.

The tracer is installed from outside the package: it replaces module
attributes (``qsolsim.dynamics.rhs``, ``qsolsim.integrator.step`` and the
names ``qsolsim.cli`` imports or defines) with wrappers that record a span
per call.  Nothing inside ``src/qsolsim`` changes.  Spans are kept in memory
and written once when the run ends; ``summarize`` turns them into per-layer
totals and self times.
"""

from __future__ import annotations

import functools
import os
import time

__all__ = ["Tracer", "install", "summarize", "LAYERS"]

LAYERS = ("cli", "dynamics", "integrator", "observables", "state")

# span name -> (module attribute path, index of the output-path argument or None)
TARGETS = {
    "cli.run": ("qsolsim.cli:run", None),
    "cli.resolve_config": ("qsolsim.cli:resolve_config", None),
    "cli.s_pair_report": ("qsolsim.cli:_s_pair_report", None),
    "cli.emit_state": ("qsolsim.cli:emit_state", 1),
    "cli.emit_intensity": ("qsolsim.cli:emit_intensity", 1),
    "cli.emit_ellipses": ("qsolsim.cli:emit_ellipses", 1),
    "cli.emit_nrparams": ("qsolsim.cli:emit_nrparams", 1),
    "cli.emit_spectrum": ("qsolsim.cli:emit_spectrum", 1),
    "cli.emit_eta": ("qsolsim.cli:emit_eta", 1),
    "dynamics.propagate": ("qsolsim.cli:propagate", None),
    "dynamics.rhs": ("qsolsim.dynamics:rhs", None),
    "integrator.step": ("qsolsim.integrator:step", None),
    "observables.squeezing_spectrum": ("qsolsim.cli:squeezing_spectrum", None),
    "observables.photon_correlation": ("qsolsim.cli:photon_correlation", None),
    "observables.intensity": ("qsolsim.cli:intensity", None),
    "observables.ellipse_arrays": ("qsolsim.cli:ellipse_arrays", None),
    "observables.nr_arrays": ("qsolsim.cli:nr_arrays", None),
    "state.validate": ("qsolsim.cli:validate", None),
    "state.reorder_s": ("qsolsim.cli:reorder_s", None),
    "state.fundamental_soliton": ("qsolsim.cli:fundamental_soliton", None),
    "state.thermal_state": ("qsolsim.cli:thermal_state", None),
}

# spans summed into one per-layer metric
GROUPS = {
    "cli.emit_csv": ("cli.emit_intensity", "cli.emit_ellipses", "cli.emit_nrparams",
                     "cli.emit_spectrum"),
    "observables.local": ("observables.intensity", "observables.ellipse_arrays",
                          "observables.nr_arrays"),
    "state.initial": ("state.fundamental_soliton", "state.thermal_state"),
}


class Tracer:
    """Records (name, start, end, parent index, bytes written) per call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, path_arg: int | None = None):
        spans, stack = self.spans, self._stack
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
                if path_arg is not None:
                    spans[idx][4] = os.path.getsize(args[path_arg])

        return wrapper

    def as_dict(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["name", "start", "end", "parent", "bytes"],
                "spans": self.spans}


def install(tracer: Tracer) -> None:
    """Replace every target attribute with a recording wrapper."""
    import importlib

    for name, (target, path_arg) in TARGETS.items():
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), path_arg))


def summarize(spans: list[list]) -> dict:
    """Per-name totals and per-layer self times.

    Returns ``{"names": {name: {"s", "self_s", "calls", "bytes"}},
    "layers": {layer: self_s}, "root_s": duration of top-level spans}``.
    A span's self time is its duration minus the durations of its direct
    children; spans never overlap because the program is single-threaded.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    names: dict[str, dict] = {}
    layers = {layer: 0.0 for layer in LAYERS}
    root_s = 0.0
    for i, (name, start, end, parent, nbytes) in enumerate(spans):
        dur = end - start
        entry = names.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0})
        entry["s"] += dur
        entry["self_s"] += dur - child_s[i]
        entry["calls"] += 1
        entry["bytes"] += nbytes or 0
        layers[name.split(".")[0]] += dur - child_s[i]
        if parent is None:
            root_s += dur
    return {"names": names, "layers": layers, "root_s": root_s}


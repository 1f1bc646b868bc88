"""The benchmark tracer's hook points must exist in the package.

``perfbench/spans.py`` replaces the module attributes named in its
``TARGETS`` table with recording wrappers; a renamed or folded function
would make every traced benchmark run fail at install time.
"""

import importlib
import importlib.util
from pathlib import Path

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

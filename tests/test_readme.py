"""README's library sketch runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    section = README.read_text().split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md (library sketch)", "exec"), namespace)
    assert [state.t for state in namespace["states"]] == [0.1, 0.2]
    assert np.isfinite(namespace["spectrum"].s_min).all()
    assert np.isfinite(namespace["correlations"].mean_photon).all()

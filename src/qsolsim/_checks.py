"""The one rule for the floats the library takes: each check returns the value
(real or complex, scalar or array) or raises a ValueError naming the argument."""

import numpy as np


def _check(name: str, value, ok, rule: str):
    if not ok.all():
        shown = f", got {name}={value}" if np.ndim(value) == 0 else ""
        raise ValueError(f"{name} must be {rule}{shown}")
    return value


def finite(name: str, value):
    return _check(name, value, np.isfinite(value), "finite")


def non_negative(name: str, value):
    return _check(name, value, np.greater_equal(finite(name, value), 0), "non-negative")


def positive(name: str, value):
    return _check(name, value, np.greater(finite(name, value), 0), "positive")

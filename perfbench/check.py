"""Output check of one benchmark run, through the CSV and manifest contract.

Every run must satisfy the physical invariants:

* ``manifest.json`` parses, and every output it lists exists;
* every CSV value is finite, except eta entries the manifest counts as
  undefined (NaN marks windows with vanishing variance);
* ``min_heisenberg_margin >= -1e-10`` (the floor of acceptance criterion 09);
* each s-pair deviation stays below its ceiling in ``S_PAIR_CEILING``.

A canonical run (seed 0) is also compared against the reference recorded
from the same config: intensity and ellipse CSVs, spectrum ``s_min``, a
strided sample and the row sums of the finite eta entries, and the s-pair
``*_rel_dev`` values.  Arrays must agree to ``RTOL`` of their largest
reference magnitude.  RTOL sits far above the round-off drift between BLAS
thread counts (1.5e-11 relative on eta) and far below the integration error
at the scenarios' tolerance 1e-9 (s-pair ``block_rel_dev`` ~1e-7).  State
snapshots are never read, so a change of snapshot format does not affect
the check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["summarize_outputs", "check_outputs", "RTOL"]

RTOL = 1e-9
HEISENBERG_FLOOR = -1e-10
# s-pair deviations at the scenarios' tolerance 1e-9 are ~1e-7 (blocks,
# spectrum), ~5e-6 (eta) and round-off (intensity); ceilings leave 10-20x room
S_PAIR_CEILING = {"block_rel_dev": 1e-6, "intensity_rel_dev": 1e-10,
                  "spectrum_rel_dev": 1e-5, "eta_rel_dev": 1e-4}
# a rel_dev is itself a difference of two trajectories, so round-off moves it
# by far more than RTOL of its value
S_PAIR_RTOL, S_PAIR_ATOL = 1e-2, 1e-12
ETA_STRIDE = 10


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _label(t: float) -> str:
    return format(float(t), ".12g")


def summarize_outputs(out_dir) -> dict:
    """The values the check compares, read from the manifest and CSVs."""
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    values: dict = {"min_heisenberg_margin": manifest["min_heisenberg_margin"],
                    "outputs": {}, "s_pair": None}
    for entry in manifest["outputs"]:
        kind = entry["kind"]
        if kind == "state":
            continue
        cols = _read_csv(out / entry["path"])
        if kind == "intensity":
            arrays = {"intensity": cols["intensity"]}
        elif kind == "ellipses":
            split = cols["B"] - cols["b"]
            # the angle alone is ill-conditioned where B ~ b; its products
            # with the axis split are smooth functions of the covariances
            arrays = {"B": cols["B"], "b": cols["b"],
                      "split_cos": split * np.cos(2 * cols["phi"]),
                      "split_sin": split * np.sin(2 * cols["phi"])}
        elif kind == "nrparams":
            arrays = {"n": cols["n"], "r": cols["r"], "margin": cols["margin"]}
        elif kind == "spectrum":
            arrays = {"s_min": cols["s_min"]}
        elif kind == "eta":
            k = int(round(math.sqrt(len(cols["eta"]))))
            eta = cols["eta"].reshape(k, k)
            arrays = {"eta_sample": eta[::ETA_STRIDE, ::ETA_STRIDE].ravel(),
                      "eta_row_sums": np.nansum(eta, axis=1),
                      "undefined": int(np.sum(np.isnan(eta))),
                      "declared_undefined": entry["undefined_entries"]}
        else:
            raise ValueError(f"unknown output kind {kind!r}")
        values["outputs"][f"{kind}@{_label(entry['t'])}"] = arrays
    report = manifest.get("s_pair_report")
    if report is not None:
        values["s_pair"] = [{k: v for k, v in c.items() if k.endswith("_rel_dev")}
                            for c in report["comparisons"]]
    values["config"] = manifest["config"]
    return values


def _invariant_problems(values: dict) -> list[str]:
    problems = []
    margin = values["min_heisenberg_margin"]
    if not isinstance(margin, (int, float)) or not margin >= HEISENBERG_FLOOR:
        problems.append(f"min_heisenberg_margin {margin!r} below {HEISENBERG_FLOOR}")
    for key, arrays in values["outputs"].items():
        for name, arr in arrays.items():
            if name == "eta_sample":
                continue  # NaN allowed; counted below
            if not np.all(np.isfinite(arr)):
                problems.append(f"{key}: non-finite {name}")
        if "undefined" in arrays and arrays["undefined"] != arrays["declared_undefined"]:
            problems.append(f"{key}: {arrays['undefined']} NaN eta entries, manifest "
                            f"declares {arrays['declared_undefined']}")
    for i, comp in enumerate(values["s_pair"] or []):
        for name, dev in comp.items():
            if dev is None or not dev <= S_PAIR_CEILING[name]:
                problems.append(f"s_pair[{i}].{name} = {dev!r} above {S_PAIR_CEILING[name]}")
    return problems


def _max_rel_dev(arr, ref) -> float:
    arr, ref = np.asarray(arr, dtype=float), np.asarray(ref, dtype=float)
    if arr.shape != ref.shape:
        return math.inf
    mask = np.isfinite(ref)
    if not np.array_equal(mask, np.isfinite(arr)):
        return math.inf
    scale = float(np.max(np.abs(ref[mask]), initial=0.0)) or 1.0
    return float(np.max(np.abs(arr[mask] - ref[mask]), initial=0.0)) / scale


def _reference_problems(values: dict, ref: dict) -> list[str]:
    if values["config"] != ref["config"]:
        return ["run config differs from the one the reference was recorded for"]
    problems = []
    if set(values["outputs"]) != set(ref["outputs"]):
        problems.append(f"outputs {sorted(values['outputs'])} != reference "
                        f"{sorted(ref['outputs'])}")
    for key in sorted(set(values["outputs"]) & set(ref["outputs"])):
        for name, ref_arr in ref["outputs"][key].items():
            got = values["outputs"][key][name]
            if isinstance(ref_arr, int):
                if got != ref_arr:
                    problems.append(f"{key}: {name} = {got}, reference {ref_arr}")
                continue
            dev = _max_rel_dev(got, ref_arr)
            if not dev <= RTOL:
                problems.append(f"{key}: {name} deviates {dev:.3g} (relative) from reference")
    ref_pairs, got_pairs = ref["s_pair"] or [], values["s_pair"] or []
    if len(ref_pairs) != len(got_pairs):
        problems.append("s-pair comparisons differ in number from reference")
    for i, (got, want) in enumerate(zip(got_pairs, ref_pairs)):
        for name, ref_dev in want.items():
            dev = got.get(name)
            if dev is None or not abs(dev - ref_dev) <= S_PAIR_RTOL * abs(ref_dev) + S_PAIR_ATOL:
                problems.append(f"s_pair[{i}].{name} = {dev!r}, reference {ref_dev!r}")
    return problems


def check_outputs(out_dir, reference: dict | None = None) -> list[str]:
    """Problems found in one run's outputs; an empty list means it passed."""
    try:
        values = summarize_outputs(out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable outputs: {type(exc).__name__}: {exc}"]
    problems = _invariant_problems(values)
    if reference is not None:
        problems += _reference_problems(values, reference)
    return problems


def to_jsonable(values: dict) -> dict:
    """``summarize_outputs`` result with arrays as lists (NaN as None)."""
    def conv(v):
        if isinstance(v, np.ndarray):
            return [None if not math.isfinite(x) else float(x) for x in v.tolist()]
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, list):
            return [conv(x) for x in v]
        return v
    return conv(values)


def from_jsonable(ref: dict) -> dict:
    """Inverse of ``to_jsonable`` for a stored reference."""
    outputs = {
        key: {name: arr if isinstance(arr, int)
              else np.array([math.nan if x is None else x for x in arr], dtype=float)
              for name, arr in arrays.items()}
        for key, arrays in ref["outputs"].items()
    }
    return {**ref, "outputs": outputs}

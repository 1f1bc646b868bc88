"""Reproducible scenario execution: config parsing, run orchestration, output.

A run is described by a flat JSON config (see README for the key reference),
executed with ``qsolsim run config.json`` or ``qsolsim run --scenario NAME``.
Artifacts go to the output directory:

* ``manifest.json``      -- resolved parameters, integrator statistics,
                            package version, config echo, output listing
                            and, for an ``s_pair`` run, the s-pair report;
* ``state_t<label>.npy`` -- full reloadable cumulant state per output time:
                            one 0-d structured array (fields ``format``,
                            ``m``, ``dx``, ``boundary``, ``s``, ``t``, ``cu``,
                            ``cv``, ``cuu``, ``cuv``, ``cvv``), readable with
                            plain numpy as ``np.load(path)["cuu"]``;
* ``<obs>_t<label>.csv`` -- one CSV per requested observable per output time
                            (intensity, ellipses, nrparams, spectrum, eta).

Identical configs produce byte-identical outputs; there is no randomness
anywhere in the pipeline.  Exit codes: 0 success, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from ._checks import finite
from ._pair import run_beside
from .dynamics import RHSCoefficients, propagate
from .integrator import IntegrationError, StepControl
from .observables import (
    LOPulse,
    _eta_window,
    _omega_internal,
    ellipse_arrays,
    frequency_grid,
    intensity,
    nr_arrays,
    photon_correlation,
    squeezing_spectrum,
)
from .params import (
    PhysicalInputs,
    ScaledInputs,
    ScaledParams,
    derive_scales,
    gaussian_validity_ratio,
    rhs_coefficients,
)
from .scenarios import SCENARIOS, format_scenario_table, scenario_config
from .state import (CumulantState, GridSpec, _ordering, fundamental_soliton, reorder_s,
                    thermal_state, validate)
from .tableaus import TABLEAUS

OBSERVABLES = ("intensity", "ellipses", "nrparams", "spectrum", "eta")

_TOP_KEYS = {
    "physical", "scaled", "n_th", "s", "m", "dx", "boundary", "initial",
    "t_end", "output_times", "observables", "spectrum_phase",
    "omega_min", "omega_max", "omega_points", "eta_window",
    "lo_real", "lo_imag", "method", "atol", "rtol", "s_pair", "out_dir",
}

# parameter block -> the input class whose fields are its keys; every member is a number
_ROUTES = {"physical": PhysicalInputs, "scaled": ScaledInputs}
_NUMBER = (int, float)


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending key."""


@dataclasses.dataclass
class RunConfig:
    """Validated, resolved run description."""

    raw: dict
    grid: GridSpec
    scaled: ScaledParams
    coeffs: RHSCoefficients
    s: float
    initial: str
    t_end: float
    output_times: list[float]
    observables: list[str]
    spectrum_phase: object
    omega: np.ndarray
    eta_window: float
    lo: LOPulse
    method: str
    control: StepControl
    s_pair: list[float] | None
    out_dir: str | None = None


def _is_number(val) -> bool:
    """A finite int or float; JSON booleans and NaN/Infinity are not numbers."""
    return isinstance(val, _NUMBER) and not isinstance(val, bool) and math.isfinite(val)


def _get(cfg: dict, key: str, default, types, what: str, ok=None, rule: str = ""):
    """``cfg[key]`` checked for type and range; absent or null gives ``default``."""
    val = cfg.get(key)
    if val is None:
        return default
    if not isinstance(val, types) or (isinstance(val, _NUMBER) and not _is_number(val)):
        raise ConfigError(f"key '{key}': expected {what}, got {val!r}")
    if ok is not None and not ok(val):
        raise ConfigError(f"key '{key}': {rule}, got {val!r}")
    return val


def resolve_config(cfg: dict) -> RunConfig:
    """Validate a raw config dict and resolve every derived quantity.

    This is the one validation boundary: any value the package's own
    constructors reject (grid, parameters, LO, tolerances, frequencies)
    comes back as ``ConfigError``, before anything is propagated or written.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    try:
        return _resolve(cfg)
    except ConfigError:
        raise
    except (ValueError, TypeError, ArithmeticError) as exc:  # e.g. 1 / an underflowed dx**2
        raise ConfigError(str(exc)) from exc


def _resolve(cfg: dict) -> RunConfig:
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    grid = GridSpec(m=_get(cfg, "m", 200, int, "an integer"),
                    dx=float(_get(cfg, "dx", 0.1, _NUMBER, "a number")),
                    boundary=_get(cfg, "boundary", "absorbing", str, "a string"))
    s = _ordering(float(_get(cfg, "s", 0.0, _NUMBER, "a number")))

    modes = [name for name in _ROUTES if cfg.get(name) is not None]
    if len(modes) != 1:
        raise ConfigError("exactly one of 'physical' or 'scaled' must be present")
    mode = modes[0]
    block = {key: val for key, val in _get(cfg, mode, None, dict, "an object").items()
             if val is not None}
    fields = dataclasses.fields(_ROUTES[mode])
    unknown = set(block) - {f.name for f in fields}
    missing = {f.name for f in fields if f.default is dataclasses.MISSING} - set(block)
    if unknown:
        raise ConfigError(f"{mode} block: unknown keys {sorted(unknown)}")
    if missing:
        raise ConfigError(f"{mode} block: missing keys {sorted(missing)}")
    members = {f"{mode}.{key}": val for key, val in block.items()}
    for key in members:
        _get(members, key, None, _NUMBER, "a number")
    n_th = _get(cfg, "n_th", None, _NUMBER, "a number")

    scaled = derive_scales(_ROUTES[mode](**block), grid, n_th=n_th)
    coeffs = rhs_coefficients(scaled, grid)

    initial = _get(cfg, "initial", "soliton", str, "a string",
                   lambda v: v in ("soliton", "thermal"), "must be 'soliton' or 'thermal'")
    t_end = float(_get(cfg, "t_end", 5.0, _NUMBER, "a number",
                       lambda v: v >= 0, "must be non-negative"))
    times = [float(t) + 0.0 for t in _get(  # + 0.0: -0.0 is t = 0, labelled "0"
        cfg, "output_times", [t_end], list, "a list",
        lambda v: v and all(map(_is_number, v)), "must be a non-empty list of numbers")]
    if times != sorted(times):
        raise ConfigError("key 'output_times': must be sorted ascending")
    if times[0] < 0:
        raise ConfigError(f"key 'output_times': first time {times[0]} is negative")
    if times[-1] > t_end:
        raise ConfigError(f"key 'output_times': last time {times[-1]} exceeds t_end {t_end}")
    labels = [_time_label(t) for t in times]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"key 'output_times': times share a file label in {labels}")

    obs = _get(cfg, "observables", ["intensity"], list, "a list",
               lambda v: all(name in OBSERVABLES for name in v),
               f"unknown observable; choose from {OBSERVABLES}")
    if len(set(obs)) != len(obs):
        raise ConfigError(f"key 'observables': repeated entries in {obs}")
    phase = _get(cfg, "spectrum_phase", "optimal", (str, *_NUMBER), "'optimal' or a number",
                 lambda v: v == "optimal" or not isinstance(v, str),
                 "must be 'optimal' or a number")

    omin = _get(cfg, "omega_min", None, _NUMBER, "a number")
    omax = _get(cfg, "omega_max", None, _NUMBER, "a number")
    onum = _get(cfg, "omega_points", None, int, "an integer")
    if (omin, omax, onum) == (None, None, None):
        omega = frequency_grid(grid)
    elif None in (omin, omax, onum):
        raise ConfigError(
            "omega grid: omega_min, omega_max and omega_points must be given together")
    elif not (omax > omin and onum >= 2):
        raise ConfigError("omega grid: need omega_max > omega_min and omega_points >= 2")
    else:
        omega = np.linspace(float(omin), float(omax), onum)
        _omega_internal(grid, omega)  # the observables' sampling-bound check

    eta_window = _eta_window(grid, _get(cfg, "eta_window", None, _NUMBER, "a number"),
                             "eta_window")

    lo_re, lo_im = (_get(cfg, key, None, list, "a list",
                         lambda v: len(v) == grid.m and all(map(_is_number, v)),
                         f"must hold one number per cell ({grid.m})")
                    for key in ("lo_real", "lo_imag"))
    if lo_re is None and lo_im is None:
        lo = LOPulse.soliton(grid, scaled.n0)
    else:
        zeros = [0.0] * grid.m
        lo = LOPulse(np.asarray(lo_re or zeros, dtype=float)
                     + 1j * np.asarray(lo_im or zeros, dtype=float))

    method = _get(cfg, "method", "dp853", str, "a string",
                  lambda v: v in TABLEAUS, f"must be one of {sorted(TABLEAUS)}")
    control = StepControl(atol=float(_get(cfg, "atol", 1e-9, _NUMBER, "a number")),
                          rtol=float(_get(cfg, "rtol", 1e-9, _NUMBER, "a number")))

    s_pair = _get(cfg, "s_pair", None, list, "a list",
                  lambda v: len(v) == 2 and all(map(_is_number, v)),
                  "must be a pair of numbers")
    if s_pair is not None:
        s_pair = [_ordering(float(v), "s_pair") for v in s_pair]
        if s_pair[0] != s:
            raise ConfigError("key 's_pair': first entry must equal 's'")

    return RunConfig(
        raw=cfg, grid=grid, scaled=scaled, coeffs=coeffs, s=s, initial=initial,
        t_end=t_end, output_times=times, observables=list(obs),
        spectrum_phase=phase, omega=omega, eta_window=eta_window, lo=lo, method=method,
        control=control, s_pair=s_pair,
        out_dir=_get(cfg, "out_dir", None, str, "a string path"),
    )


# -- formatting and emission ---------------------------------------------------

def _time_label(t: float) -> str:
    return f"{t:g}"


_STATE_TAG = b"qsolsim-state-v2"
_CSV_BLOCK = 4096


def _state_dtype(m: int) -> np.dtype:
    """Record layout of one snapshot: header scalars, then the five blocks."""
    return np.dtype([
        ("format", "S16"), ("m", "<i8"), ("dx", "<f8"), ("boundary", "S16"),
        ("s", "<f8"), ("t", "<f8"),
        ("cu", "<f8", (m,)), ("cv", "<f8", (m,)),
        ("cuu", "<f8", (m, m)), ("cuv", "<f8", (m, m)), ("cvv", "<f8", (m, m)),
    ])


def emit_state(state: CumulantState, path) -> None:
    """Write the full state as one ``.npy`` record (exact float64, byte-stable)."""
    rec = np.zeros((), dtype=_state_dtype(state.grid.m))
    rec["format"] = _STATE_TAG
    rec["m"] = state.grid.m
    rec["dx"] = state.grid.dx
    rec["boundary"] = state.grid.boundary.encode("ascii")
    for name in ("s", "t", "cu", "cv", "cuu", "cuv", "cvv"):
        rec[name] = getattr(state, name)
    with open(path, "wb") as fh:
        np.save(fh, rec, allow_pickle=False)


def load_state(path) -> CumulantState:
    """Reload a snapshot written by ``emit_state``; never unpickles."""
    try:
        with open(path, "rb") as fh:
            rec = np.load(fh, allow_pickle=False)
        if not (isinstance(rec, np.ndarray) and rec.shape == ()
                and rec.dtype.names == _state_dtype(1).names
                and rec.dtype["m"] == np.dtype("<i8")  # before int(): a float m may be inf
                and rec["format"] == _STATE_TAG
                and rec.dtype == _state_dtype(int(rec["m"]))):
            raise ValueError("not a state record")
        grid = GridSpec(m=int(rec["m"]), dx=float(rec["dx"]),
                        boundary=rec["boundary"].item().decode("ascii"))
        blocks = [finite(name, rec[name]) for name in ("cu", "cv", "cuu", "cuv", "cvv")]
        return CumulantState(grid, float(rec["s"]), float(rec["t"]), *blocks)
    except (ValueError, EOFError) as exc:  # not .npy, pickled, truncated, or corrupt (NaN/inf too)
        raise ValueError(f"{path}: not a state snapshot") from exc


def _write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Integer columns as ``%d``, the rest as 17 significant digits."""
    columns = [np.asarray(col) for col in columns]
    row = ",".join("%d" if np.issubdtype(col.dtype, np.integer) else "%.17g"
                   for col in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, len(columns[0]), _CSV_BLOCK):
            block = zip(*(col[a:a + _CSV_BLOCK].tolist() for col in columns))
            fh.write("".join([row % values for values in block]))


def emit_intensity(state: CumulantState, path) -> None:
    _write_csv(path, ["j", "x", "intensity"],
               [np.arange(state.grid.m), state.grid.positions(), intensity(state)])


def emit_ellipses(state: CumulantState, path) -> None:
    big, small, phi = ellipse_arrays(state)
    _write_csv(path, ["j", "x", "B", "b", "phi"],
               [np.arange(state.grid.m), state.grid.positions(), big, small, phi])


def emit_nrparams(state: CumulantState, path) -> None:
    n, r, theta, margin = nr_arrays(state)
    _write_csv(path, ["j", "x", "n", "r", "theta", "margin"],
               [np.arange(state.grid.m), state.grid.positions(), n, r, theta, margin])


def emit_spectrum(result, path) -> dict:
    """Write the spectrum CSV; return the manifest extras of the entry."""
    _write_csv(path, ["omega", "s", "s_min", "phi_opt"],
               [result.omega, result.s, result.s_min, result.phi_opt])
    return {"i0": result.i0}


def emit_eta(result, path) -> dict:
    """Long-form CSV, one row per frequency pair; return the manifest extras."""
    k = len(result.omega)
    _write_csv(path, ["omega1", "omega2", "eta"],
               [np.repeat(result.omega, k), np.tile(result.omega, k), result.eta.ravel()])
    return {"delta_omega": result.delta_omega, "undefined_entries": result.n_undefined}


# -- run orchestration -----------------------------------------------------------

class _Side(NamedTuple):
    """One trajectory: output states, integrator statistics, per-state results."""

    states: list
    stats: object
    results: list[dict]


def _run_trajectory(rc: RunConfig, s: float) -> _Side:
    """Propagate the run at ordering ``s`` to its last output time and evaluate
    its observables."""
    if rc.initial == "soliton":
        state0 = fundamental_soliton(rc.grid, rc.scaled.n0, rc.scaled.n_th, s)
    else:
        state0 = thermal_state(rc.grid, rc.scaled.n_th, s)
    states, stats = propagate(state0, rc.coeffs, rc.output_times,
                              tableau=TABLEAUS[rc.method], control=rc.control)
    return _Side(states, stats, [_observable_results(rc, state) for state in states])


def _observable_results(rc: RunConfig, state: CumulantState) -> dict:
    """The spectrum and eta results a run emits."""
    out = {}
    if "spectrum" in rc.observables:
        out["spectrum"] = squeezing_spectrum(state, rc.lo, rc.omega, rc.spectrum_phase)
    if "eta" in rc.observables:
        out["eta"] = photon_correlation(state, rc.omega, rc.eta_window)
    return out


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def _s_pair_report(rc: RunConfig, primary: _Side, twin: _Side) -> dict:
    """Compare the primary trajectory at ``rc.s`` with its twin at
    ``rc.s_pair[1]`` in everything that must coincide.

    An eta deviation is None where no window is defined on both sides.
    """
    entries = []
    for st_a, res_a, st_b, res_b in zip(primary.states, primary.results,
                                        twin.states, twin.results):
        back = reorder_s(st_b, rc.s)
        entry = {
            "t": st_a.t,
            "block_rel_dev": max(_rel_diff(getattr(st_a, name), getattr(back, name))
                                 for name in ("cu", "cv", "cuu", "cuv", "cvv")),
            "intensity_rel_dev": _rel_diff(intensity(st_a), intensity(st_b)),
        }
        if "spectrum" in res_a:
            entry["spectrum_rel_dev"] = _rel_diff(res_a["spectrum"].s, res_b["spectrum"].s)
        if "eta" in res_a:
            ea, eb = res_a["eta"].eta, res_b["eta"].eta
            mask = np.isfinite(ea) & np.isfinite(eb)
            entry["eta_rel_dev"] = _rel_diff(ea[mask], eb[mask]) if mask.any() else None
        entries.append(entry)
    return {"s": rc.s, "s_partner": rc.s_pair[1], "comparisons": entries}


def _sanitize(obj):
    """Replace non-finite floats for strict-JSON manifests."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_sanitize(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def run(cfg: dict, out_dir) -> dict:
    """Execute a validated config; write artifacts; return the manifest."""
    rc = resolve_config(cfg)
    out = Path(out_dir if out_dir is not None else (rc.out_dir or "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(out)!r}: {exc}") from exc

    # an s-pair run's twin (at s_pair[1]; s_pair[0] is s) propagates beside the
    # primary; both end before any file is written
    if rc.s_pair is None:
        primary, twin = _run_trajectory(rc, rc.s), None
    else:
        primary, twin = run_beside(*(functools.partial(_run_trajectory, rc, s)
                                     for s in rc.s_pair))

    # kind -> emitter of the state or of that kind's observable result; built
    # here so each name is looked up when the run starts, not at import
    emitters = {"state": emit_state, "intensity": emit_intensity,
                "ellipses": emit_ellipses, "nrparams": emit_nrparams,
                "spectrum": emit_spectrum, "eta": emit_eta}
    outputs = []
    worst_heisenberg = math.inf
    for state, results in zip(primary.states, primary.results):
        label = _time_label(state.t)
        worst_heisenberg = min(worst_heisenberg, validate(state).heisenberg_margin)
        for kind in ("state", *rc.observables):
            path = out / f"{kind}_t{label}{'.npy' if kind == 'state' else '.csv'}"
            extras = emitters[kind](results.get(kind, state), path)
            outputs.append({"path": path.name, "kind": kind, "t": state.t,
                            **(extras or {})})

    scaled = dataclasses.asdict(rc.scaled)
    scaled["t_d_seconds"], scaled["x_d_meters"] = scaled.pop("t_d"), scaled.pop("x_d")
    manifest = {
        "package": "qsolsim",
        "version": __version__,
        "deterministic": True,
        "config": rc.raw,
        "grid": {"m": rc.grid.m, "dx": rc.grid.dx, "boundary": rc.grid.boundary},
        "scaled_params": {**scaled, "s": rc.s},
        "coefficients": {
            "d2": rc.coeffs.d2,
            "chi_t": rc.coeffs.chi_t,
            "gamma_t": rc.coeffs.gamma_t,
            "delta_omega_t": rc.coeffs.delta_omega_t,
            "thermal_src": rc.coeffs.thermal_src(rc.s),
        },
        "closure_validity_ratio": gaussian_validity_ratio(rc.scaled),
        "integrator": {
            "method": rc.method,
            "atol": rc.control.atol,
            "rtol": rc.control.rtol,
            "stats": primary.stats.as_dict(),
        },
        "min_heisenberg_margin": worst_heisenberg,
        "outputs": outputs,
    }
    if twin is not None:
        manifest["s_pair_report"] = _s_pair_report(rc, primary, twin)
    _write_json(out / "manifest.json", manifest)
    return manifest


# -- command line ------------------------------------------------------------------

def _apply_override(cfg: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"override {spec!r}: expected key=value")
    key, _, raw_val = spec.partition("=")
    try:
        value = json.loads(raw_val)
    except json.JSONDecodeError:
        value = raw_val
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {spec!r}: {part} is not an object")
    node[parts[-1]] = value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsolsim",
        description="Damped quantum soliton noise simulator (Gaussian cumulant closure)",
    )
    parser.add_argument("--list-scenarios", action="store_true",
                        help="list canned scenario names and exit")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="execute a run configuration")
    runp.add_argument("config", nargs="?", help="path to a JSON config file")
    runp.add_argument("--scenario", help="name of a canned scenario instead of a file")
    runp.add_argument("--override", action="append", default=[],
                      metavar="KEY=VALUE", help="override a config entry (dots descend)")
    runp.add_argument("--out", help="output directory (default: config out_dir or '.')")
    runp.add_argument("--validate-only", action="store_true",
                      help="validate and resolve the config, write nothing")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_scenarios:
        print(format_scenario_table())
        return 0
    if args.command != "run":
        parser.print_help(sys.stderr)
        return 2

    try:
        if args.scenario is not None:
            if args.config is not None:
                raise ConfigError("give either a config file or --scenario, not both")
            if args.scenario not in SCENARIOS:
                raise ConfigError(f"unknown scenario {args.scenario!r}")
            cfg = scenario_config(args.scenario)
        elif args.config is not None:
            try:
                with open(args.config) as fh:
                    cfg = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
        else:
            raise ConfigError("run needs a config file or --scenario")
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        for spec in args.override:
            _apply_override(cfg, spec)

        if args.validate_only:
            rc = resolve_config(cfg)
            print(f"config ok: m={rc.grid.m} dx={rc.grid.dx} boundary={rc.grid.boundary} "
                  f"s={rc.s} gamma_t={rc.coeffs.gamma_t:g} n0={rc.scaled.n0:g} "
                  f"t_end={rc.t_end:g} outputs={len(rc.output_times)}")
            return 0
        run(cfg, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

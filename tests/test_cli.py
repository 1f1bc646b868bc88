import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qsolsim.cli as cli
from qsolsim import _pair
from qsolsim.cli import (
    ConfigError,
    _write_csv,
    emit_state,
    load_state,
    main,
    resolve_config,
    run,
)
from qsolsim.observables import CorrelationResult, LOPulse
from qsolsim.scenarios import SCENARIOS, scenario_config
from qsolsim.state import GridSpec, thermal_state


def tiny_config(**overrides):
    cfg = {
        "scaled": {"gamma_t": 0.01, "nbar": 1e4},
        "n_th": 1e-16,
        "s": 0.0,
        "m": 12,
        "dx": 0.1,
        "t_end": 0.0,
        "output_times": [0.0],
        "observables": ["intensity"],
    }
    cfg.update(overrides)
    return cfg


class TestConfigValidation:
    def test_minimal_config_resolves(self):
        rc = resolve_config(tiny_config())
        assert rc.grid.m == 12
        assert rc.coeffs.gamma_t == 0.01
        assert rc.scaled.n0 == pytest.approx(1e3)

    @pytest.mark.parametrize("mutation,match", [
        (dict(bogus=1), "unknown config keys"),
        (dict(m="many"), "expected an integer"),
        (dict(observables=["wigner"]), "unknown observable"),
        (dict(output_times=[2.0, 1.0], t_end=2.0), "sorted"),
        (dict(output_times=[3.0], t_end=2.0), "exceeds t_end"),
        (dict(s=1.5), "must lie in"),
        (dict(initial="vacuum"), "initial"),
        (dict(method="euler"), "method"),
        (dict(spectrum_phase="max"), "spectrum_phase"),
        (dict(eta_window=1e-9), "eta_window"),
        (dict(s_pair=[0.5, 0.9]), "first entry must equal"),
        (dict(s_pair=[0.0, 1.5]), r"must lie in \[-1, 1\], got s_pair=1.5"),
    ])
    def test_rejects_bad_keys(self, mutation, match):
        cfg = tiny_config(**mutation)
        with pytest.raises(ConfigError, match=match):
            resolve_config(cfg)

    def test_requires_exactly_one_parameter_block(self):
        cfg = tiny_config()
        cfg["physical"] = {"t0": 2e-12, "D": 20.0, "Gamma": 0.3}
        with pytest.raises(ConfigError, match="exactly one"):
            resolve_config(cfg)
        del cfg["physical"]
        del cfg["scaled"]
        with pytest.raises(ConfigError, match="exactly one"):
            resolve_config(cfg)

    def test_scaled_mode_requires_occupation(self):
        cfg = tiny_config()
        del cfg["n_th"]
        with pytest.raises(ConfigError, match="n_th"):
            resolve_config(cfg)

    def test_physical_mode_resolves_paper_values(self):
        cfg = tiny_config()
        del cfg["scaled"]
        cfg["physical"] = {"t0": 2e-12, "D": 20.0, "Gamma": 0.3}
        cfg["m"] = 200
        rc = resolve_config(cfg)
        assert rc.coeffs.gamma_t == pytest.approx(5.8e-3, rel=0.03)
        assert rc.scaled.n0 == pytest.approx(1e8, rel=1e-12)

    def test_every_scenario_resolves(self):
        for name in SCENARIOS:
            rc = resolve_config(scenario_config(name))
            assert rc.grid.m >= 3, name

    @pytest.mark.parametrize("mutation", [
        dict(t_end=math.nan),
        dict(t_end=math.inf),
        dict(dx=math.inf),
        dict(n_th=math.inf),
        dict(atol=math.inf),
        dict(eta_window=math.inf),
        dict(spectrum_phase=math.nan),
        dict(output_times=[0.0, math.nan]),
        dict(scaled={"gamma_t": math.nan, "nbar": 1e4}),
        dict(scaled={"gamma_t": 0.01, "nbar": 1e4, "delta_omega_t": -math.inf}),
        dict(m=True),
        dict(s=True),
        dict(n_th=False),
        dict(output_times=[False]),
        dict(scaled={"gamma_t": False, "nbar": 1e4}),
        dict(scaled={"gamma_t": 0.01, "nbar": 1e4, "sign_omega2": 0.5}),
        dict(output_times=[-0.5, 0.0]),
        dict(lo_real=["a"] * 12),
        dict(observables=["intensity", "intensity"]),
    ])
    def test_rejects_before_propagation(self, mutation, tmp_path, capsys):
        cfg = tiny_config(**mutation)
        with pytest.raises(ConfigError):
            resolve_config(cfg)
        if cfg["t_end"] == math.inf:  # a run to t = inf would never end
            return
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))  # NaN/Infinity as Python's json writes them
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_omega_grid_beyond_sampling_bound(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config(omega_min=-1.0, omega_max=100.0,
                                               omega_points=5)))
        assert main(["run", str(path), "--validate-only"]) == 2
        assert "sampling bound" in capsys.readouterr().err

    def test_rejects_output_times_sharing_a_file_label(self):
        # both print as 0.005, so both would write state_t0.005.npy
        cfg = tiny_config(t_end=0.01, output_times=[0.0050000001, 0.0050000002])
        with pytest.raises(ConfigError, match="label"):
            resolve_config(cfg)
        # -0.0 and 0.0 are both the start, so both would write state_t0.npy
        cfg = tiny_config(t_end=0.01, output_times=[-0.0, 0.0, 0.01])
        with pytest.raises(ConfigError, match="label"):
            resolve_config(cfg)


class TestArtifacts:
    def test_zero_duration_run_emits_initial_state(self, tmp_path):
        run(tiny_config(observables=["intensity", "ellipses", "nrparams"]), tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert {"manifest.json", "state_t0.npy", "intensity_t0.csv",
                "ellipses_t0.csv", "nrparams_t0.csv"} <= names

    def test_thermal_snapshot_intensity_column(self, tmp_path):
        cfg = tiny_config(initial="thermal", n_th=0.25)
        run(cfg, tmp_path)
        rows = (tmp_path / "intensity_t0.csv").read_text().strip().split("\n")
        assert rows[0] == "j,x,intensity"
        values = [float(r.split(",")[2]) for r in rows[1:]]
        assert values == pytest.approx([0.25] * 12, rel=1e-12)

    def test_vacuum_spectrum_column_zero(self, tmp_path):
        cfg = tiny_config(initial="thermal", n_th=0.0, observables=["spectrum"])
        run(cfg, tmp_path)
        rows = (tmp_path / "spectrum_t0.csv").read_text().strip().split("\n")
        assert rows[0] == "omega,s,s_min,phi_opt"
        s_vals = [float(r.split(",")[1]) for r in rows[1:]]
        assert max(abs(v) for v in s_vals) < 1e-12

    def test_near_coherent_eta_diagonal_zero(self, tmp_path):
        cfg = tiny_config(observables=["eta"])  # initial soliton, n_th ~ 0
        run(cfg, tmp_path)
        rows = (tmp_path / "eta_t0.csv").read_text().strip().split("\n")
        assert rows[0] == "omega1,omega2,eta"
        diag = [float(r.split(",")[2]) for r in rows[1:]
                if r.split(",")[0] == r.split(",")[1]]
        assert max(abs(v) for v in diag if not math.isnan(v)) < 1e-10

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = tiny_config(t_end=0.05, output_times=[0.0, 0.05],
                          observables=["intensity", "spectrum", "eta"])
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for child in sorted((tmp_path / "a").iterdir()):
            twin = tmp_path / "b" / child.name
            assert filecmp.cmp(child, twin, shallow=False), child.name

    def test_state_round_trip_byte_identical(self, tmp_path):
        state = thermal_state(GridSpec(m=7, dx=0.3, boundary="periodic"), 0.4, 0.25)
        rng = np.random.default_rng(8)
        state = type(state)(state.grid, state.s, 1.75,
                            rng.normal(size=7), rng.normal(size=7),
                            state.cuu, rng.normal(size=(7, 7)), state.cvv)
        first = tmp_path / "one.npy"
        second = tmp_path / "two.npy"
        emit_state(state, first)
        reloaded = load_state(first)
        emit_state(reloaded, second)
        assert filecmp.cmp(first, second, shallow=False)
        assert reloaded.t == state.t and reloaded.s == state.s
        assert reloaded.grid == state.grid
        for name in ("cu", "cv", "cuu", "cuv", "cvv"):
            assert np.array_equal(getattr(reloaded, name), getattr(state, name)), name
        # plain numpy reads every field without the package
        record = np.load(first, allow_pickle=False)
        assert record["format"] == b"qsolsim-state-v2"
        assert np.array_equal(record["cuv"], state.cuv)

    def test_load_state_rejects_foreign_files(self, tmp_path, monkeypatch):
        state = thermal_state(GridSpec(m=3, dx=0.5), 0.1, 0.0)
        good = tmp_path / "good.npy"
        emit_state(state, good)
        record = np.load(good)
        record["format"] = b"other-format-v1"
        plain = tmp_path / "plain.npy"
        np.save(plain, np.arange(5.0))
        wrong_tag = tmp_path / "tag.npy"
        np.save(wrong_tag, record)
        old_json = tmp_path / "old.json"
        old_json.write_text(json.dumps({
            "format": "qsolsim-state-v1", "grid": {"m": 1, "dx": 1.0, "boundary": "absorbing"},
            "s": 0.0, "t": 0.0, "cu": [0.0], "cv": [0.0],
            "cuu": [[0.5]], "cuv": [[0.0]], "cvv": [[0.5]]}))
        pickled = tmp_path / "pickled.npy"
        np.save(pickled, np.array([{"format": "qsolsim-state-v2"}], dtype=object),
                allow_pickle=True)
        corrupt = []  # non-finite values, which run never writes
        for field, bad in (("cuu", math.nan), ("cv", math.inf), ("t", -math.inf)):
            rec = np.load(good)
            rec[field].flat[-1] = bad
            corrupt.append(tmp_path / f"corrupt_{field}.npy")
            np.save(corrupt[-1], rec)
        # the header's m as a float: inf must not escape as OverflowError
        fields = [(name, "<f8" if name == "m" else record.dtype.fields[name][0])
                  for name in record.dtype.names]
        float_m = np.zeros((), dtype=fields)
        float_m["format"] = b"qsolsim-state-v2"
        float_m["m"] = math.inf
        corrupt.append(tmp_path / "float_m.npy")
        np.save(corrupt[-1], float_m)
        data = good.read_bytes()
        truncated = []
        for size in (0, 10, 100, len(data) - 8):
            path = tmp_path / f"cut{size}.npy"
            path.write_bytes(data[:size])
            truncated.append(path)

        def no_unpickling(*args, **kwargs):
            raise AssertionError("load_state must never unpickle")

        monkeypatch.setattr("pickle.load", no_unpickling)
        monkeypatch.setattr("pickle.loads", no_unpickling)
        for path in (plain, wrong_tag, old_json, pickled, *corrupt, *truncated):
            with pytest.raises(ValueError, match="not a state snapshot"):
                load_state(path)
        assert np.array_equal(load_state(good).cuu, state.cuu)

    def test_csv_matches_per_value_rendering(self, tmp_path):
        rows = 2 * cli._CSV_BLOCK + 5
        rng = np.random.default_rng(3)
        j = np.arange(rows) - 7
        x = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
        x[:6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]
        y = rng.normal(size=rows)
        path = tmp_path / "out.csv"
        _write_csv(path, ["j", "x", "y"], [j, x, y])
        expected = "j,x,y\n" + "".join(
            f"{int(a)},{format(float(b), '.17g')},{format(float(c), '.17g')}\n"
            for a, b, c in zip(j, x, y))
        assert path.read_text() == expected

    def test_eta_csv_matches_per_value_rendering(self, tmp_path):
        rng = np.random.default_rng(4)
        omega = np.array([-2.5, -0.0, 0.0, 5e-324, 0.1, 3.0])
        eta = rng.normal(size=(6, 6)) * 10.0 ** rng.integers(-300, 300, size=(6, 6))
        eta[0, :4] = [np.nan, -0.0, np.inf, -np.inf]
        eta[3, 5] = np.nan
        path = tmp_path / "eta.csv"
        extras = cli.emit_eta(CorrelationResult(omega, eta, np.ones(6), 0.5, 2), path)
        assert extras == {"delta_omega": 0.5, "undefined_entries": 2}
        expected = "omega1,omega2,eta\n" + "".join(
            ",".join(format(float(v), ".17g") for v in (a, b, eta[i, j])) + "\n"
            for i, a in enumerate(omega) for j, b in enumerate(omega))
        assert path.read_text() == expected

    def test_manifest_rederives_scaled_coefficients(self, tmp_path):
        from qsolsim.params import PhysicalInputs, derive_scales, rhs_coefficients

        cfg = tiny_config()
        del cfg["scaled"]
        cfg["physical"] = {"t0": 2e-12, "D": 20.0, "Gamma": 0.3}
        manifest = run(cfg, tmp_path)
        echo = manifest["config"]
        grid = GridSpec(m=echo["m"], dx=echo["dx"])
        scaled = derive_scales(PhysicalInputs(**echo["physical"]), grid,
                               n_th=echo["n_th"])
        coeffs = rhs_coefficients(scaled, grid)
        assert manifest["scaled_params"]["gamma_t"] == scaled.gamma_t
        assert manifest["scaled_params"]["n0"] == scaled.n0
        assert manifest["coefficients"]["d2"] == coeffs.d2
        assert manifest["coefficients"]["chi_t"] == coeffs.chi_t
        assert manifest["integrator"]["stats"]["accepted_steps"] == 0  # zero duration

    def test_s_pair_report_written(self, tmp_path):
        cfg = tiny_config(s_pair=[0.0, 0.85], t_end=0.1, output_times=[0.1],
                          observables=["intensity", "spectrum"])
        manifest = run(cfg, tmp_path)
        report = json.loads((tmp_path / "manifest.json").read_text())["s_pair_report"]
        assert not (tmp_path / "s_pair_report.json").exists()  # the manifest is its one copy
        assert report["s_partner"] == 0.85
        comp = report["comparisons"][0]
        # integrator-tolerance-level agreement at the default 1e-9 control
        assert comp["block_rel_dev"] < 1e-6
        assert comp["spectrum_rel_dev"] < 1e-6
        assert manifest["s_pair_report"]["comparisons"][0]["t"] == 0.1

    def test_s_pair_run_propagates_twice(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_pair, "_cpu_count", lambda: 1)  # the twin runs inline
        calls = []
        propagate = cli.propagate

        def counting(*args, **kwargs):
            calls.append(args[0].s)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(cli, "propagate", counting)
        spectra = []
        spectrum = cli.squeezing_spectrum

        def counting_spectra(state, *args, **kwargs):
            spectra.append((state.s, state.t))
            return spectrum(state, *args, **kwargs)

        monkeypatch.setattr(cli, "squeezing_spectrum", counting_spectra)
        cfg = tiny_config(s_pair=[0.0, 0.85], t_end=0.05, output_times=[0.0, 0.05],
                          observables=["intensity", "spectrum", "eta"])
        run(cfg, tmp_path)
        # the primary trajectory is reused for the comparison; only the twin is new
        assert calls == [0.0, 0.85]
        # one observable pass per side: each ordering's spectrum once per output time
        assert spectra == [(0.0, 0.0), (0.0, 0.05), (0.85, 0.0), (0.85, 0.05)]

    def test_custom_local_oscillator(self, tmp_path):
        # lo_real equal to the default soliton LO writes the default spectrum;
        # the same profile as lo_imag turns the LO by pi/2, which leaves S_min
        # and moves the optimal phase by pi/2 (modulo pi)
        base = ["run", "--scenario", "spectrum-mid-weak-loss", "--override", "m=16",
                "--override", "dx=0.5", "--override", "t_end=0.2",
                "--override", "output_times=[0.2]"]
        rc = resolve_config(scenario_config("spectrum-mid-weak-loss") | {"m": 16, "dx": 0.5})
        profile = json.dumps(LOPulse.soliton(rc.grid, rc.scaled.n0).amplitudes.real.tolist())
        columns = {}
        for name, lo in (("default", []), ("lo_real", [f"lo_real={profile}"]),
                         ("lo_imag", [f"lo_imag={profile}"])):
            out = tmp_path / name
            overrides = [arg for spec in lo for arg in ("--override", spec)]
            assert main([*base, *overrides, "--out", str(out)]) == 0
            columns[name] = np.loadtxt(out / "spectrum_t0.2.csv", delimiter=",", skiprows=1)
        assert filecmp.cmp(tmp_path / "default" / "spectrum_t0.2.csv",
                           tmp_path / "lo_real" / "spectrum_t0.2.csv", shallow=False)
        default, turned = columns["default"], columns["lo_imag"]
        assert np.array_equal(turned[:, 2], default[:, 2])  # s_min
        shift = np.mod(turned[:, 3] - default[:, 3] - 0.5 * math.pi, math.pi)
        assert np.all(np.minimum(shift, math.pi - shift) < 1e-12)

    def test_s_pair_report_without_a_common_eta_window(self, tmp_path):
        # a thermal vacuum-like state has no eta window defined on both sides
        cfg = {"scaled": {"gamma_t": 0.01, "nbar": 100.0}, "n_th": 0.0, "m": 8, "dx": 0.5,
               "initial": "thermal", "t_end": 0.1, "output_times": [0.1],
               "observables": ["eta"], "s_pair": [0.0, 0.5]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["s_pair_report"]["comparisons"][0]["eta_rel_dev"] is None


class TestCommandLine:
    def test_hooks_are_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # the benchmark times these names by replacing the module attributes
        names = ("resolve_config", "emit_state", "emit_intensity", "emit_ellipses",
                 "emit_nrparams", "emit_spectrum", "emit_eta")
        calls = dict.fromkeys(names, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config(observables=list(cli.OBSERVABLES))))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert all(calls.values()), calls

    def test_list_scenarios(self, capsys):
        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_validate_only(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config()))
        assert main(["run", str(path), "--validate-only"]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_overrides_descend_into_blocks(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config()))
        code = main(["run", str(path), "--override", "scaled.gamma_t=0.5",
                     "--override", "m=16", "--validate-only"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gamma_t=0.5" in out and "m=16" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config(bogus=True)))
        assert main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["run", "/nonexistent/cfg.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_unusable_out_dir_exit_code(self, tmp_path, capsys, monkeypatch, out):
        # an existing file, or a path under one, cannot be the output directory
        (tmp_path / "taken").write_text("")

        def no_propagation(*args, **kwargs):
            raise AssertionError("propagated before the output directory was checked")

        monkeypatch.setattr(cli, "propagate", no_propagation)
        code = main(["run", "--scenario", "intensity-lossless",
                     "--override", "m=8", "--override", "t_end=0.01",
                     "--override", "output_times=[0.01]",
                     "--out", str(tmp_path / out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(tmp_path / out) in err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # hopeless tolerances make every step reject until the controller
        # gives up; that must surface as the numerical-failure exit code
        cfg = tiny_config(t_end=1.0, output_times=[1.0],
                          atol=1e-300, rtol=1e-300)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_tiny_atol_runs_to_completion(self, tmp_path):
        # atol = 1e-200 overflows the integrator's first-step estimate; the
        # run must still finish instead of raising ZeroDivisionError
        cfg = tiny_config(m=4, t_end=1e-9, output_times=[1e-9], atol=1e-200)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_scenario_execution(self, tmp_path):
        code = main(["run", "--scenario", "intensity-lossless",
                     "--override", "m=8", "--override", "t_end=0.0",
                     "--override", "output_times=[0.0]",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "intensity_t0.csv").exists()

    def test_dp54_run_agrees_with_dp853(self, tmp_path):
        # the 5(4) pair reaches its single-estimate error norm only through
        # an adaptive run; both pairs must meet the same tolerance
        profiles = {}
        for method in ("dp54", "dp853"):
            out = tmp_path / method
            code = main(["run", "--scenario", "intensity-weak-loss",
                         "--override", "m=16", "--override", "t_end=0.2",
                         "--override", "output_times=[0.2]",
                         "--override", f'method="{method}"', "--out", str(out)])
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["integrator"]["method"] == method
            profiles[method] = np.loadtxt(out / "intensity_t0.2.csv", delimiter=",",
                                          skiprows=1)[:, 2]
        np.testing.assert_allclose(profiles["dp54"], profiles["dp853"], rtol=1e-7)

    def test_run_stops_at_its_last_output_time(self, tmp_path):
        # a t_end beyond the last output time adds no integration work
        manifests = {}
        for t_end in (0.01, 1.0):
            out = tmp_path / f"t{t_end:g}"
            code = main(["run", "--scenario", "intensity-weak-loss",
                         "--override", "m=16", "--override", f"t_end={t_end}",
                         "--override", "output_times=[0.01]", "--out", str(out)])
            assert code == 0
            manifests[t_end] = json.loads((out / "manifest.json").read_text())
        stats = [manifests[t]["integrator"]["stats"] for t in (0.01, 1.0)]
        assert stats[0] == stats[1]
        assert [o["t"] for o in manifests[1.0]["outputs"]] == [0.01] * 2

    def test_scenario_and_config_conflict(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config()))
        assert main(["run", str(path), "--scenario", "eta-lossless"]) == 2

    @pytest.mark.parametrize("root, override", [([1, 2], "m=10"),
                                                ("abc", "scaled.nbar=1")])
    def test_override_on_a_non_object_config_exit_code(self, tmp_path, capsys,
                                                       root, override):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(root))
        assert main(["run", str(path), "--override", override]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, code, message", [
        pytest.param([], None, 2, "usage: qsolsim", id="no-subcommand"),
        pytest.param(["run"], None, 2, "run needs a config file or --scenario", id="no-config"),
        pytest.param(["run", "CFG", "--scenario", "eta-lossless"], tiny_config(), 2,
                     "give either a config file or --scenario, not both", id="file-and-scenario"),
        pytest.param(["run", "--scenario", "nope"], None, 2, "unknown scenario 'nope'",
                     id="unknown-scenario"),
        pytest.param(["run", "CFG"], '{"m": 12,\n "dx": }\n', 2,
                     "config is not valid JSON (line 2)", id="not-json"),
        pytest.param(["run", "CFG", "--override", "m"], tiny_config(), 2,
                     "override 'm': expected key=value", id="override-without-value"),
        pytest.param(["run", "CFG", "--override", "m.x=1"], tiny_config(), 2,
                     "override 'm.x=1': m is not an object", id="override-through-a-number"),
        pytest.param(["run", "CFG", "--validate-only"], tiny_config(omega_min=-1.0), 2,
                     "omega_min, omega_max and omega_points must be given together",
                     id="omega-min-alone"),
        pytest.param(["run", "CFG", "--validate-only"],
                     tiny_config(omega_min=1.0, omega_max=1.0, omega_points=5), 2,
                     "need omega_max > omega_min", id="empty-omega-range"),
        pytest.param(["run", "CFG", "--validate-only"],
                     tiny_config(scaled={"gamma_t": 0.01, "nbar": 1e4, "bogus": 1}), 2,
                     "scaled block: unknown keys ['bogus']", id="unknown-scaled-key"),
        pytest.param(["run", "CFG", "--validate-only"],
                     {**tiny_config(scaled=None), "physical": {"t0": 2e-12, "D": 20.0}}, 2,
                     "physical block: missing keys ['Gamma']", id="missing-physical-key"),
        pytest.param(["run", "CFG", "--override", "boundary=periodic", "--validate-only"],
                     tiny_config(), 0, "boundary=periodic", id="override-kept-as-string"),
        pytest.param(None, [1, 2], 2, "config must be a JSON object",
                     id="resolve-config-on-a-non-object"),
    ])
    def test_entry_and_config_outcomes(self, tmp_path, capsys, argv, config, code, message):
        if argv is None:  # main rejects a non-object before resolve_config sees it
            with pytest.raises(ConfigError, match=message):
                resolve_config(config)
            return
        path = tmp_path / "cfg.json"
        if config is not None:
            path.write_text(config if isinstance(config, str) else json.dumps(config))
        assert main([str(path) if arg == "CFG" else arg for arg in argv]) == code
        captured = capsys.readouterr()
        assert message in (captured.out if code == 0 else captured.err)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@pytest.mark.parametrize("grid", [["m=60"], ["m=61", "boundary=periodic"]])
def test_outputs_do_not_depend_on_blas_threads_or_cpus(tmp_path, grid):
    # a small Kerr run in fresh interpreters: no BLAS thread variable set
    # (the package's default applies), one BLAS thread set explicitly, empty
    # BLAS variables (which BLAS reads as unset), and one CPU in the affinity
    # mask (the halves run inline); absorbing walls, and a periodic grid at
    # odd m, where the halves' uv row ranges are unequal and each holds one
    # of the stencil's two wrapped end rows
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    args = [sys.executable, "-m", "qsolsim.cli", "run", "--scenario", "intensity-weak-loss",
            *(arg for spec in grid for arg in ("--override", spec)),
            "--override", "t_end=0.1", "--override", "output_times=[0.05, 0.1]", "--out"]
    runs = {"no-blas-env": ([], base),
            "one-blas-thread": ([], dict(base, OPENBLAS_NUM_THREADS="1")),
            "empty-blas-env": ([], dict(base, OPENBLAS_NUM_THREADS="", MKL_NUM_THREADS="",
                                        BLIS_NUM_THREADS=""))}
    if shutil.which("taskset"):
        runs["one-cpu"] = (["taskset", "-c", "0"], base)
    for name, (prefix, env) in runs.items():
        subprocess.run([*prefix, *args, str(tmp_path / name)], env=env, check=True,
                       stdout=subprocess.DEVNULL)
    reference = tmp_path / "no-blas-env"
    names = sorted(p.name for p in reference.iterdir())
    assert sum(n.startswith("state_t") for n in names) == 2
    assert sum(n.endswith(".csv") for n in names) == 2
    for name in runs:
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == names
        for file in names:
            assert filecmp.cmp(reference / file, tmp_path / name / file, shallow=False), \
                (name, file)


# A qsolsim run in a fresh interpreter, where the s-pair twin forks.  The
# script logs each propagation as "pid s", can make one trajectory fail
# (MODE "twin-fails" or "primary-fails", where the twin first sleeps so that
# it is still running), and prints its pid, the forks made and whether a
# child is left.
FORKING_RUN = r"""
import json, os, sys, time
import qsolsim.cli as cli
from qsolsim.integrator import StepSizeUnderflow

log, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
propagate, fork, forks = cli.propagate, os.fork, []

def logged(state0, *args, **kwargs):
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {state0.s}\n")
    twin = state0.s != 0.0
    if mode == "primary-fails" and twin:
        time.sleep(60)
    if (mode, twin) in (("twin-fails", True), ("primary-fails", False)):
        raise StepSizeUnderflow("forced failure", 0.01)
    return propagate(state0, *args, **kwargs)

def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

cli.propagate, os.fork = logged, counted_fork
code = cli.main(argv)
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"pid": os.getpid(), "forks": forks, "child_left": left}))
sys.exit(code)
"""

PAIR_CONFIG = tiny_config(s_pair=[0.0, 0.85], t_end=0.05, output_times=[0.0, 0.05],
                          observables=["intensity", "spectrum", "eta"])

needs_fork = pytest.mark.skipif(not hasattr(os, "fork") or _pair._cpu_count() < 2,
                                reason="the twin forks only with fork and two CPUs")


def run_forking_cli(tmp_path, mode):
    cfg_path = tmp_path / "pair.json"
    cfg_path.write_text(json.dumps(PAIR_CONFIG))
    log = tmp_path / "propagations.txt"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", FORKING_RUN, str(log), mode,
         "run", str(cfg_path), "--out", str(tmp_path / "forked")],
        env=env, capture_output=True, text=True, timeout=45)
    facts = json.loads(proc.stdout.splitlines()[-1])
    calls = [line.split() for line in log.read_text().splitlines()]
    # the s of each propagation, by where it ran
    parent = facts.pop("pid")
    where = {"parent": [s for pid, s in calls if int(pid) == parent]}
    where["child"] = [s for pid, s in calls if int(pid) in facts["forks"]]
    facts["forks"] = len(facts["forks"])
    return proc, facts, where


@needs_fork
def test_forked_twin_writes_the_files_of_an_inline_run(tmp_path, monkeypatch):
    proc, facts, where = run_forking_cli(tmp_path, "ok")
    assert proc.returncode == 0, proc.stderr
    assert facts == {"forks": 1, "child_left": False}
    # the primary propagates in the parent, the twin once in the child
    assert where == {"parent": ["0.0"], "child": ["0.85"]}

    monkeypatch.setattr(_pair, "_cpu_count", lambda: 1)
    run(PAIR_CONFIG, tmp_path / "inline")
    names = sorted(p.name for p in (tmp_path / "inline").iterdir())
    assert "s_pair_report" in json.loads((tmp_path / "inline" / "manifest.json").read_text())
    assert sorted(p.name for p in (tmp_path / "forked").iterdir()) == names
    for name in names:
        assert filecmp.cmp(tmp_path / "inline" / name, tmp_path / "forked" / name,
                           shallow=False), name


@needs_fork
@pytest.mark.parametrize("mode", ["twin-fails", "primary-fails"])
def test_failing_trajectory_exits_3_and_leaves_no_child(tmp_path, mode):
    # a primary failure must not wait out the twin's 60 s sleep
    proc, facts, where = run_forking_cli(tmp_path, mode)
    assert proc.returncode == 3, proc.stderr
    assert "numerical failure: forced failure (at t = 0.01)" in proc.stderr
    assert facts == {"forks": 1, "child_left": False}
    assert where["parent"] == ["0.0"]
    # a primary that fails at once may stop the twin before it propagates
    assert where["child"] == ["0.85"] if mode == "twin-fails" else where["child"] in (["0.85"], [])


@needs_fork
def test_failing_twin_writes_no_output_file(tmp_path):
    # both trajectories end before the first file is written
    proc = run_forking_cli(tmp_path, "twin-fails")[0]
    assert proc.returncode == 3, proc.stderr
    assert list((tmp_path / "forked").iterdir()) == []


def test_failed_single_run_leaves_the_files_of_the_times_it_reached(tmp_path):
    # the t = 0 files are written before the first step; no step at 1e-300 is accepted
    cfg = tiny_config(t_end=1.0, output_times=[0.0, 1.0], atol=1e-300, rtol=1e-300)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["intensity_t0.csv", "state_t0.npy"]
    assert load_state(out / "state_t0.npy").t == 0.0


def test_peak_memory_does_not_grow_with_output_times(tmp_path):
    # a single trajectory writes each output time from views of the
    # integrator's work vector, so it keeps no state per output time
    m = 40

    def peak(n):
        cfg = tiny_config(m=m, t_end=0.2, output_times=np.linspace(0.0, 0.2, n).tolist())
        tracemalloc.start()
        try:
            run(cfg, tmp_path / str(n))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-call allocations
    state_bytes = 8 * (2 * m + 3 * m * m)
    assert abs(peak(21) - peak(2)) < state_bytes


@pytest.mark.parametrize("physical, code", [
    ({"T": 1e-300}, 0),                      # lambda_c * k_B * T underflows: N_th = 0
    ({"lambda_c": 1e300, "T": 1e300}, 2),    # N_th overflows
    ({"lambda_c": 1e300}, 2),                # omega_c ** 2 underflows in derive_scales
    ({"t0": 1e-300, "D": 1e300}, 2),         # x_d underflows: the damping would vanish
])
def test_extreme_physical_inputs_exit_code(tmp_path, physical, code):
    cfg = tiny_config(physical={"t0": 2e-12, "D": 20.0, "Gamma": 0.3, **physical})
    del cfg["scaled"], cfg["n_th"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--validate-only"]) == code

"""Tests of the benchmark itself: workloads, output check, tracing, comparison.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

from qsolsim.cli import resolve_config  # noqa: E402

DECLARED = compare.declared_metrics()

# a small run through every emitter, the s-pair twin and both spectral observables
SMALL_ARGS = ["--scenario", "ordering-pair-check", "--override", "m=48",
              "--override", "t_end=0.1", "--override", "output_times=[0.05,0.1]",
              "--override", 'observables=["intensity","ellipses","nrparams","spectrum","eta"]']


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("small")
    out = work / "out"
    sample = run.run_child(["run", *SMALL_ARGS, "--out", str(out)], work / "child",
                           traced=True, run_id="small", out_dir=out)
    assert sample["problems"] == []
    return sample, out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_every_workload_resolves(name, seed):
    cfg = build_config(name, seed)
    rc = resolve_config(cfg)
    assert rc.output_times[-1] == rc.t_end
    assert (seed == 0) == (cfg == build_config(name, 0))


def test_seed_zero_references_match_workload_configs():
    for name in WORKLOADS:
        ref = run.load_reference(name)
        assert ref is not None, name
        assert ref["config"] == build_config(name, 0), name


def test_check_accepts_own_reference_and_rejects_perturbed_output(small_run):
    _, out = small_run
    reference = check.from_jsonable(json.loads(json.dumps(
        check.to_jsonable(check.summarize_outputs(out)))))
    assert check.check_outputs(out, reference) == []

    path = out / "intensity_t0.1.csv"
    original = path.read_text()
    lines = original.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    path.write_text("\n".join([lines[0]] + [
        f"{j},{x},{format(float(v) * (1 + 1e-6), '.17g')}" for j, x, v in rows]) + "\n")
    try:
        problems = check.check_outputs(out, reference)
        assert any("intensity@0.1" in p for p in problems), problems
        assert check.check_outputs(out) == []  # invariants alone still hold
    finally:
        path.write_text(original)


def test_check_flags_invariant_violations(small_run):
    _, out = small_run
    manifest_path = out / "manifest.json"
    original = manifest_path.read_text()
    manifest = json.loads(original)
    manifest["min_heisenberg_margin"] = -1e-6
    manifest["s_pair_report"]["comparisons"][0]["block_rel_dev"] = 1e-3
    manifest_path.write_text(json.dumps(manifest))
    try:
        problems = check.check_outputs(out)
    finally:
        manifest_path.write_text(original)
    assert any("min_heisenberg_margin" in p for p in problems)
    assert any("block_rel_dev" in p for p in problems)


def test_traced_layer_self_times_cover_wall(small_run):
    sample, _ = small_run
    m = run.layer_metrics(sample)
    assert set(m) | {"trace.overhead_s"} == set(DECLARED["per_layer"])
    layers = sum(m[f"layer.{layer}.self_s"] for layer in spans.LAYERS)
    assert m["cli.run.self_s"] <= m["layer.cli.self_s"]
    # everything from spawn to exit except argument parsing and teardown
    assert 0.85 <= (m["process.import_s"] + layers) / m["trace.wall_s"] <= 1.0
    assert m["trace.coverage"] == pytest.approx((m["process.import_s"] + layers)
                                                / m["trace.wall_s"])
    assert m["dynamics.propagate.calls"] == 3
    assert m["cli.emit_state.calls"] == 2
    assert m["observables.photon_correlation.calls"] == 6
    assert m["integrator.step.self_s"] == pytest.approx(
        m["integrator.step.s"] - sum(
            end - start for name, start, end, parent, _ in sample["spans"]
            if name == "dynamics.rhs" and parent is not None
            and sample["spans"][parent][0] == "integrator.step"))


def test_summarize_self_time_arithmetic():
    s = [["cli.run", 0.0, 10.0, None, None],
         ["dynamics.propagate", 1.0, 8.0, 0, None],
         ["integrator.step", 2.0, 6.0, 1, None],
         ["dynamics.rhs", 3.0, 4.0, 2, None],
         ["cli.emit_state", 8.0, 9.5, 0, 123]]
    summary = spans.summarize(s)
    assert summary["names"]["integrator.step"]["self_s"] == 3.0
    assert summary["names"]["dynamics.propagate"]["self_s"] == 3.0
    assert summary["names"]["cli.run"]["self_s"] == 1.5
    assert summary["names"]["cli.emit_state"]["bytes"] == 123
    assert summary["layers"] == {"cli": 3.0, "dynamics": 4.0, "integrator": 3.0,
                                 "observables": 0.0, "state": 0.0}
    assert summary["root_s"] == sum(summary["layers"].values())


def _doc(values_by_seed, artifact=1.0):
    return {"runs": [{"workload": "w", "seed": seed, "trace": 0, "attempted": 5,
                      "failed": 0, "metrics": {"wall_s": v, "setup_s": 0.2,
                                               "peak_rss_mb": 50.0, "artifact_mb": artifact}}
                     for seed, v in enumerate(values_by_seed)]}


def _verdicts(base, head):
    return {r["metric"]: r["verdict"] for r in compare.compare(base, head, DECLARED)}


def test_compare_verdicts():
    steady = [1.0 + 0.002 * ((3 * i) % 7) for i in range(10)]
    base = _doc(steady)
    assert _verdicts(base, _doc(steady))["wall_s"] == "unchanged"
    assert _verdicts(base, _doc([1.4 * v for v in steady]))["wall_s"] == "worse"
    assert _verdicts(base, _doc([0.7 * v for v in steady]))["wall_s"] == "better"
    wide = [0.5, 1.6, 0.6, 1.5, 0.7, 1.4, 0.8, 1.3, 0.9, 1.2]
    assert _verdicts(base, _doc(wide))["wall_s"] == "unresolved"
    # exact values are compared for equality, not by bound
    assert _verdicts(base, _doc(steady, artifact=1.0 + 1e-6))["artifact_mb"] == "worse"
    assert _verdicts(base, _doc(steady, artifact=0.5))["artifact_mb"] == "better"
    failing = _doc(steady)
    failing["runs"][0]["failed"] = 1
    assert _verdicts(base, failing)["error_rate"] == "worse"


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "propagate-m200",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_run_past_timeout_is_killed_and_failed(tmp_path):
    out = tmp_path / "out"
    sample = run.run_child(["run", *SMALL_ARGS, "--out", str(out)], tmp_path / "child",
                           traced=False, run_id="killed", out_dir=out, timeout=0.05)
    assert sample["exit"] != 0
    assert sample["problems"]

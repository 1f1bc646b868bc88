"""Benchmark of ``qsolsim run``: one client, closed loop, one run at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a fresh interpreter executing ``qsolsim run --scenario ...
--override ...`` (see ``workloads.py``) on the sources in ``src/`` next to
this directory, with every BLAS/OpenMP thread count pinned to 1.  A
measurement first runs the workload once with ``--validate-only`` to fill the
bytecode and file caches, then times ``SETUP_REPEATS`` more validate-only
runs and back-to-back full runs until ``--seconds`` would be exceeded.  Each
full run's outputs are checked (``check.py``) and then deleted.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the runs of this measurement):

* ``wall_s``      -- spawn to exit of one full run;
* ``setup_s``     -- spawn until the config is resolved (interpreter start,
                     imports, scenario and override resolution), every run;
* ``peak_rss_mb`` -- peak resident set of the run process;
* ``artifact_mb`` -- bytes written to the output directory, 1e6 per MB.

With ``--trace 1`` full runs alternate between untraced and traced, and the
last line reports the per-layer metrics of the traced runs (``spans.py``).
The error rate is ``failed / attempted`` of the same line.

``--workload all`` and a seed list such as ``--seed 0-9`` or ``--seed 0,3``
run every combination and print one table.  Every measurement is written,
with the run facts (git SHA, source digest, versions, thread environment,
configs), to ``--result`` or to ``.perfbench/results/``; ``compare.py``
compares two such files.  ``--record-reference`` stores the seed-0 outputs
that later canonical runs are checked against.
"""

from __future__ import annotations

import os

# pinned before numpy is imported here or in any child
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from check import check_outputs, from_jsonable, summarize_outputs, to_jsonable  # noqa: E402
from compare import declared_metrics  # noqa: E402
from spans import GROUPS, LAYERS, summarize  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
MIN_FULL_RUNS = 2
MAX_FAILURES = 3
MEASURE_LIMIT_S = 160.0  # hard cap on one measurement, hung runs included
RESULT_FORMAT = "perfbench-result-v1"


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env


def run_child(qsolsim_args: list[str], work: Path, traced: bool, run_id: str,
              out_dir: Path | None, timeout: float = MEASURE_LIMIT_S) -> dict:
    """Run one qsolsim invocation in a fresh interpreter and time it.

    The child is killed after ``timeout`` seconds and then reported as failed.
    """
    work.mkdir(parents=True, exist_ok=True)
    marks_path = work / "marks.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(marks_path), run_id,
           "1" if traced else "0", "--", *qsolsim_args]
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=_child_env(), cwd=work, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        reaped = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"run_id": run_id, "traced": traced, "exit": proc.returncode,
              "wall_s": reaped - spawn, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "problems": []}
    try:
        doc = json.loads(marks_path.read_text())
    except (OSError, ValueError):
        doc = None
    if proc.returncode != 0 or doc is None:
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        sample["problems"].append(f"exit {proc.returncode}: {tail.strip()}")
        return sample
    marks = doc["marks"]
    if not Path(marks["qsolsim_file"]).resolve().is_relative_to(SRC.resolve()):
        sample["problems"].append(f"imported qsolsim from {marks['qsolsim_file']}, not {SRC}")
    sample["import_s"] = marks["imported"] - spawn
    sample["setup_s"] = marks["resolved"] - spawn
    if out_dir is not None:
        sample["artifact_mb"] = sum(p.stat().st_size for p in out_dir.iterdir()) / 1e6
        try:
            manifest = json.loads((out_dir / "manifest.json").read_text())
            sample["stats"] = manifest["integrator"]["stats"]
        except (OSError, ValueError, KeyError) as exc:
            sample["problems"].append(f"no manifest statistics: {exc}")
    if "trace" in doc:
        sample["spans"] = doc["trace"]["spans"]
    return sample


def layer_metrics(sample: dict) -> dict:
    """Per-layer metrics of one traced run."""
    summary = summarize(sample["spans"])
    names = summary["names"]

    def get(name, field):
        zero = 0 if field in ("calls", "bytes") else 0.0
        return sum((names[n][field] for n in GROUPS.get(name, (name,)) if n in names), zero)

    stats = sample["stats"]
    accepted, rejected = stats["accepted_steps"], stats["rejected_steps"]
    rhs_calls, step_calls = get("dynamics.rhs", "calls"), get("integrator.step", "calls")
    m = {
        "cli.emit_state.s": get("cli.emit_state", "s"),
        "cli.emit_state.calls": get("cli.emit_state", "calls"),
        "cli.emit_state.bytes": get("cli.emit_state", "bytes"),
        "cli.emit_csv.s": get("cli.emit_csv", "s"),
        "cli.emit_csv.bytes": get("cli.emit_csv", "bytes"),
        "cli.emit_eta.s": get("cli.emit_eta", "s"),
        "cli.s_pair_report.s": get("cli.s_pair_report", "s"),
        "cli.resolve_config.s": get("cli.resolve_config", "s"),
        "cli.run.self_s": get("cli.run", "self_s"),
        "dynamics.propagate.calls": get("dynamics.propagate", "calls"),
        "dynamics.rhs.s": get("dynamics.rhs", "s"),
        "dynamics.rhs.calls": rhs_calls,
        "dynamics.rhs.ms_per_call": 1e3 * get("dynamics.rhs", "s") / max(rhs_calls, 1),
        "integrator.step.s": get("integrator.step", "s"),
        "integrator.step.calls": step_calls,
        "integrator.step.self_s": get("integrator.step", "self_s"),
        "integrator.step.self_ms_per_call":
            1e3 * get("integrator.step", "self_s") / max(step_calls, 1),
        "integrator.accepted_steps": accepted,
        "integrator.rejected_steps": rejected,
        "integrator.accept_ratio": accepted / max(accepted + rejected, 1),
        "observables.squeezing_spectrum.s": get("observables.squeezing_spectrum", "s"),
        "observables.squeezing_spectrum.calls": get("observables.squeezing_spectrum", "calls"),
        "observables.photon_correlation.s": get("observables.photon_correlation", "s"),
        "observables.photon_correlation.calls": get("observables.photon_correlation", "calls"),
        "observables.local.s": get("observables.local", "s"),
        "state.validate.s": get("state.validate", "s"),
        "state.reorder_s.s": get("state.reorder_s", "s"),
        "state.initial.s": get("state.initial", "s"),
        "process.import_s": sample["import_s"],
        "trace.wall_s": sample["wall_s"],
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = summary["layers"][layer]
    m["trace.coverage"] = (sample["import_s"] + sum(summary["layers"].values())) / sample["wall_s"]
    return m


def _median(values):
    return statistics.median(values) if values else None


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measurement of one workload: the record stored in the result file."""
    workload = WORKLOADS[name]
    reference = load_reference(name) if seed == 0 else None
    tag = f"{name}-s{seed}-{os.getpid()}"
    work_root = STATE_DIR / "work" / tag
    shutil.rmtree(work_root, ignore_errors=True)
    record = {"workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
              "config": build_config(name, seed), "samples": []}

    def child(kind: str, i: int, traced: bool = False) -> dict:
        work = work_root / f"{kind}{i}"
        out_dir = work / "out"
        args = workload.cli_args(seed, str(out_dir))
        if kind != "run":
            args.append("--validate-only")
        sample = run_child(args, work, traced, f"{tag}-{kind}{i}",
                           out_dir if kind == "run" else None, limit - time.monotonic())
        sample["kind"] = kind
        if kind == "run" and sample["exit"] == 0:
            problems = check_outputs(out_dir, reference)
            if reference is None and seed == 0:
                problems.append(f"no reference recorded for {name}")
            sample["problems"] += problems
        shutil.rmtree(work, ignore_errors=True)
        return sample

    limit = time.monotonic() + MEASURE_LIMIT_S
    try:
        record["warmup"] = child("warmup", 0)
        start = time.monotonic()
        samples = record["samples"]
        for i in range(SETUP_REPEATS):
            samples.append(child("setup", i))
        runs = 0
        while True:
            sample = child("run", runs, traced=trace and runs % 2 == 1)
            samples.append(sample)
            runs += 1
            elapsed = time.monotonic() - start
            failures = sum(1 for s in samples if s["problems"])
            if failures >= MAX_FAILURES or time.monotonic() >= limit:
                break
            if runs >= MIN_FULL_RUNS and elapsed + sample["wall_s"] > seconds:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    record["attempted"] = len(samples)
    record["failed"] = sum(1 for s in samples if s["problems"])
    record["problems"] = [p for s in samples for p in s["problems"]]
    done = [s for s in samples if s["exit"] == 0 and "setup_s" in s]
    full = [s for s in done if s["kind"] == "run" and "artifact_mb" in s]
    plain = [s for s in full if not s["traced"]]
    record["metrics"] = {
        "wall_s": _median([s["wall_s"] for s in plain]),
        "setup_s": _median([s["setup_s"] for s in done if not s["traced"]]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
        "artifact_mb": _median([s["artifact_mb"] for s in plain]),
    }
    traced = [s for s in full if s["traced"] and "stats" in s]
    if traced and plain:
        per_run = [layer_metrics(s) for s in traced]
        layer = {k: _median([m[k] for m in per_run]) for k in per_run[0]}
        layer["trace.overhead_s"] = layer["trace.wall_s"] - record["metrics"]["wall_s"]
        record["per_layer"] = layer
    for s in samples:
        s.pop("spans", None)  # summarized above; raw spans are thousands of entries
    return record


def load_reference(name: str) -> dict | None:
    path = HERE / "reference" / f"{name}.json"
    if not path.is_file():
        return None
    return from_jsonable(json.loads(path.read_text()))


def record_references(names: list[str]) -> None:
    """Run each workload once at seed 0 and store its checked values."""
    for name in names:
        work = STATE_DIR / "work" / f"reference-{name}"
        out_dir = work / "out"
        shutil.rmtree(work, ignore_errors=True)
        sample = run_child(WORKLOADS[name].cli_args(0, str(out_dir)), work, False,
                           f"reference-{name}", out_dir)
        problems = sample["problems"] or check_outputs(out_dir)
        if problems:
            raise SystemExit(f"{name}: cannot record a reference: {problems}")
        values = to_jsonable(summarize_outputs(out_dir))
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"workload": name, "seed": 0, **values}, indent=1) + "\n")
        shutil.rmtree(work, ignore_errors=True)
        print(f"recorded {path.relative_to(ROOT)}")


def run_facts() -> dict:
    """Where and on what a result was measured."""
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qsolsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_env": THREAD_ENV,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def _result_line(record: dict, declared: dict) -> dict:
    kind, values = ("per_layer", record["per_layer"]) if record["trace"] else (
        "end_to_end", record["metrics"])
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": entry["unit"]}
                    for name, entry in declared[kind].items()},
    }


def _complete(record: dict) -> bool:
    """Whether every metric of the record's kind was measured."""
    return record["metrics"]["wall_s"] is not None and (
        not record["trace"] or "per_layer" in record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name or 'all'")
    parser.add_argument("--seed", default="0", help="seed, list '0,3' or range '0-9'")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="result file (default: .perfbench/results/...)")
    parser.add_argument("--record-reference", action="store_true",
                        help="store the seed-0 reference outputs and exit")
    args = parser.parse_args(argv)

    if not (SRC / "qsolsim" / "cli.py").is_file():
        print(f"perfbench: no qsolsim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_references(names)
        return 0

    facts = run_facts()
    records = []
    for name in names:
        for seed in _seeds(args.seed):
            record = measure(name, seed, args.seconds, bool(args.trace))
            records.append(record)
            m = record["metrics"]
            for problem in record["problems"][:5]:
                print(f"{name} seed {seed}: {problem}", file=sys.stderr)
            if not _complete(record):
                print(f"{name} seed {seed}: no run finished", file=sys.stderr)
                continue
            print(f"{name:15s} seed {seed:<3d} wall_s {m['wall_s']:.3f} s  "
                  f"setup_s {m['setup_s']:.3f} s  peak_rss_mb {m['peak_rss_mb']:.1f} MB  "
                  f"artifact_mb {m['artifact_mb']:.3f} MB  error_rate "
                  f"{record['failed'] / record['attempted']:.3f} "
                  f"({record['failed']}/{record['attempted']} runs)", flush=True)

    result_path = Path(args.result) if args.result else (
        STATE_DIR / "results" / f"{args.workload}-s{args.seed}-t{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(
        {"format": RESULT_FORMAT, "facts": facts, "runs": records}, indent=1) + "\n")
    print(f"result file: {result_path}")

    if not all(_complete(r) for r in records):
        return 1
    declared = declared_metrics()
    if len(records) == 1:
        print(json.dumps(_result_line(records[0], declared)))
    else:
        print(json.dumps({
            "correct": all(r["failed"] == 0 for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.s{r['seed']}.{k}": v
                        for r in records
                        for k, v in _result_line(r, declared)["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

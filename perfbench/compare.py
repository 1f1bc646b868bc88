"""Compare two benchmark result files, one row per workload and metric.

    python3 perfbench/compare.py BASE.json HEAD.json

Each result file holds one or more measurements (``run.py --result``); the
runs of one workload are its samples, one value per run, paired across the
two files by seed.  For every workload and end-to-end metric a row gives
both medians and quartiles, the bound from BENCHMARK.json and a verdict:

* ``unresolved`` -- either side's quartile spread, as a share of its median,
  is wider than the bound, unless every head run beats every base run;
* ``worse``      -- the head median is worse than the base median by more
                    than the bound;
* ``better``     -- the head wins at least nine tenths of the seed pairs and
                    the medians differ by more than the base quartile spread;
* ``unchanged``  -- otherwise.

Exact values (``artifact_mb`` and, where both files hold traced runs, the
per-layer counts) repeat identically for a seed, so they are compared for
equality per seed instead: ``unchanged`` when every pair is equal, else
``better`` or ``worse`` by the direction of the median change.  An
``error_rate`` row compares failed over attempted runs.  Exits 1 when any
row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_END_TO_END = {"artifact_mb"}
EXACT_SUFFIXES = (".calls", ".bytes", "_steps", "accept_ratio")


def declared_metrics() -> dict:
    """BENCHMARK.json's metric declarations: {"end_to_end": {name: entry}, ...}."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {e["name"]: e for e in doc[kind]} for kind in ("end_to_end", "per_layer")}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _by_workload(result: dict, trace: int, field: str) -> dict:
    """{workload: {seed: {metric: value}}} of the runs with the given trace flag."""
    out: dict = {}
    for run in result["runs"]:
        if run["trace"] == trace and run.get(field):
            out.setdefault(run["workload"], {})[run["seed"]] = run[field]
    return out


def _sign(better: str) -> int:
    return 1 if better == "lower" else -1


def timed_verdict(base: list[float], head: list[float], pairs: list[tuple[float, float]],
                  bound: float, better: str) -> str:
    sign = _sign(better)
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    spread = max((bq3 - bq1) / abs(bmed), (hq3 - hq1) / abs(hmed))
    if spread > bound:
        every_better = all(sign * h < sign * b for h in head for b in base)
        return "better" if every_better else "unresolved"
    if sign * (hmed - bmed) > bound * abs(bmed):
        return "worse"
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(hmed - bmed) > bq3 - bq1:
        return "better"
    return "unchanged"


def exact_verdict(pairs: list[tuple[float, float]], base: list[float], head: list[float],
                  better: str) -> str:
    if all(b == h for b, h in pairs) and (pairs or base == head):
        return "unchanged"
    delta = statistics.median(head) - statistics.median(base)
    return "better" if _sign(better) * delta < 0 else "worse"


def _row(workload, metric, entry, base_runs, head_runs, exact):
    seeds = sorted(set(base_runs) & set(head_runs))
    base = [base_runs[s][metric] for s in sorted(base_runs)]
    head = [head_runs[s][metric] for s in sorted(head_runs)]
    pairs = [(base_runs[s][metric], head_runs[s][metric]) for s in seeds]
    bq, hq = quartiles(base), quartiles(head)
    if exact:
        verdict = exact_verdict(pairs, base, head, entry["better"])
    else:
        verdict = timed_verdict(base, head, pairs, entry["bound"], entry["better"])
    return {"workload": workload, "metric": metric, "unit": entry["unit"],
            "base_median": bq[1], "base_q1": bq[0], "base_q3": bq[2], "base_n": len(base),
            "head_median": hq[1], "head_q1": hq[0], "head_q3": hq[2], "head_n": len(head),
            "bound": None if exact else entry["bound"], "verdict": verdict}


def compare(base: dict, head: dict, declared: dict) -> list[dict]:
    """Rows comparing two result documents (see module docstring)."""
    rows = []
    b_e2e, h_e2e = _by_workload(base, 0, "metrics"), _by_workload(head, 0, "metrics")
    b_lay, h_lay = _by_workload(base, 1, "per_layer"), _by_workload(head, 1, "per_layer")
    for workload in sorted(set(b_e2e) & set(h_e2e)):
        for metric, entry in declared["end_to_end"].items():
            rows.append(_row(workload, metric, entry, b_e2e[workload], h_e2e[workload],
                             metric in EXACT_END_TO_END))
    for workload in sorted(set(b_lay) & set(h_lay)):
        for metric, entry in declared["per_layer"].items():
            if metric.endswith(EXACT_SUFFIXES):
                rows.append(_row(workload, metric, entry, b_lay[workload], h_lay[workload],
                                 True))
    for workload in sorted({r["workload"] for r in rows}):
        rates = []
        for doc in (base, head):
            runs = [r for r in doc["runs"] if r["workload"] == workload]
            attempted = sum(r["attempted"] for r in runs)
            rates.append(sum(r["failed"] for r in runs) / max(attempted, 1))
        rows.append({"workload": workload, "metric": "error_rate", "unit": "ratio",
                     "base_median": rates[0], "head_median": rates[1], "bound": 0.0,
                     "verdict": "worse" if rates[1] > rates[0] else
                     "better" if rates[1] < rates[0] else "unchanged"})
    return rows


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, head = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(base, head, declared_metrics())
    print(f"{'workload':15s} {'metric':38s} {'unit':6s} {'base median [q1, q3]':40s} "
          f"{'head median [q1, q3]':40s} {'bound':6s} verdict")
    for r in rows:
        cells = []
        for side in ("base", "head"):
            q = f" [{_fmt(r.get(side + '_q1'))}, {_fmt(r.get(side + '_q3'))}]" \
                if side + "_q1" in r else ""
            cells.append(f"{_fmt(r[side + '_median'])}{q}")
        print(f"{r['workload']:15s} {r['metric']:38s} {r['unit']:6s} {cells[0]:40s} "
              f"{cells[1]:40s} {_fmt(r['bound']):6s} {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

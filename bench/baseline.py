"""Measure the baseline: two sets of ten seeds per workload, then one traced run each.

    python3 bench/baseline.py [--out bench/BASELINE.json]

Runs ``bench/run.py`` once per (workload, seed) for every workload of
BENCHMARK.json and seeds 1 to 10, with its ``run_seconds``, and then the
same runs a second time.  Per end-to-end metric it prints and writes the
first set's median, quartiles (``statistics.quantiles(values, n=4)``) and
spread, which is the distance between the quartiles over the median, and
the second set's median, spread and relative change of the median.  A
spread above a third of the metric's bound is flagged, except for
``setup_s``, which is judged by its median alone; so is a second median
that is worse than the first by more than the bound.  One traced run per
workload (seed 0) adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
from run import BENCH_DIR, ROOT

SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result\n{proc.stdout}")
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def measure_set(spec: dict, workload: str, label: str) -> tuple[dict, int, int]:
    """(values per end-to-end metric, attempted, failed) over SEEDS."""
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    attempted = failed = 0
    for seed in SEEDS:
        start = time.time()
        result = run_once(workload, seed, spec["run_seconds"], 0)
        attempted += result["attempted"]
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"{label} {workload} seed {seed} ({time.time() - start:.0f} s): "
              + " ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
    return values, attempted, failed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", default=str(BENCH_DIR / "BASELINE.json"))
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]

    first = {w: measure_set(spec, w, "set 1") for w in names}
    second = {w: measure_set(spec, w, "set 2") for w in names}

    baseline = {"environment": run.environment(), "run_seconds": spec["run_seconds"],
                "seeds": list(SEEDS), "workloads": {},
                "repeat": {"note": "a second set of the same runs on the same code, "
                                   "run after the first set of every workload",
                           "workloads": {}}}
    ok = True
    for workload in names:
        values, attempted, failed = first[workload]
        values2, attempted2, failed2 = second[workload]
        ok &= failed == failed2 == 0
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {}}
        repeat = {"attempted": attempted2, "failed": failed2}
        for m in spec["end_to_end"]:
            one, two = summarize(values[m["name"]]), summarize(values2[m["name"]])
            change = two["median"] / one["median"] - 1.0
            entry["end_to_end"][m["name"]] = {"unit": m["unit"], "bound": m["bound"], **one}
            repeat[m["name"]] = {"median": two["median"], "spread": two["spread"],
                                 "median_change": change, "values": two["values"]}
            steady = m["name"] == "setup_s" or max(one["spread"], two["spread"]) < m["bound"] / 3.0
            agrees = change <= m["bound"]
            ok &= steady and agrees
            print(f"  {workload} {m['name']}: median {one['median']:.4f} {m['unit']}, "
                  f"spread {one['spread']:.4f} / {two['spread']:.4f}, "
                  f"second median {change:+.4f} (bound {m['bound']})"
                  + ("" if steady else "  NOT STEADY") + ("" if agrees else "  WORSE"),
                  flush=True)
        traced = run_once(workload, 0, spec["run_seconds"], 1)
        entry["per_layer_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
        baseline["repeat"]["workloads"][workload] = repeat
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

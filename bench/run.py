"""bicchain benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload propagate --seed 0 --seconds 22 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
same checkout.  Jobs run one after another in this process (closed loop, one
client) with BLAS/OpenMP threads pinned to 1.  A pass runs the workload's
job list once; passes repeat until ``--seconds`` have elapsed, and each
pass's outputs are checked against independent references outside the
timed region.

Times are reported at a reference core speed.  On a shared host the speed
of one core can change by more than half within a second, so a short
calibration kernel runs between jobs (at least every CAL_EVERY_S of job
time) and each stretch of job time is scaled by CAL_REF_S over the mean of
the kernel times around it.  The raw wall times are kept in the record
file next to the scaled ones.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
SETUP_PROBES fresh processes), median and tail pass time, and peak resident
memory.  ``--trace 1`` spends the first half of the time on untraced passes
and the second half on traced passes, reports the per-layer metrics, and
writes the spans to ``.bench_out/``.  The last line of standard output is
the JSON result; BENCHMARK.json names the metrics.
"""

from __future__ import annotations

import os

# pin library threads before numpy is imported (here or in a set-up probe)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cmath  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("propagate", "farzone", "crosscheck", "spectrum_sweep")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
#: passes that must lie above the reported tail value
TAIL_BEYOND = 10

#: calibration kernel time that defines the reference core speed
CAL_REF_S = 0.0014
#: job time after which the kernel runs again
CAL_EVERY_S = 0.05
_CAL_X = np.linspace(0.0, 1.0, 64)


def calibration_kernel() -> complex:
    """Fixed work in the program's mix: a Python loop over small numpy and cmath calls."""
    acc = 0j
    for i in range(300):
        y = np.exp(1j * _CAL_X * (i % 7))
        acc += complex(np.dot(y, _CAL_X))
        acc += cmath.sqrt(acc + i) * 1e-9
    return acc


def calibrate(repeats: int = 2) -> float:
    """Mean time of one calibration kernel run, in seconds."""
    start = time.perf_counter()
    for _ in range(repeats):
        calibration_kernel()
    return (time.perf_counter() - start) / repeats


def import_program():
    """Import bicchain from this checkout's src/, refusing any other copy."""
    if not (SRC / "bicchain" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'bicchain'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bicchain
    if Path(bicchain.__file__).resolve().parent != (SRC / "bicchain").resolve():
        raise SystemExit(f"error: imported bicchain from {bicchain.__file__}, not {SRC}")
    return bicchain


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    k = len(ordered) - 1 - TAIL_BEYOND
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * k / max(len(ordered) - 1, 1)


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """(scaled, raw) set-up times of fresh processes: start, import, one warm-up job."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, repr(t0)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        elapsed, cal = (float(x) for x in proc.stdout.split())
        raw.append(elapsed)
        scaled.append(elapsed * CAL_REF_S / cal)
    return scaled, raw


class Runner:
    """Runs passes over one job list, checks every output, keeps the tallies."""

    def __init__(self, jobs, outdir: Path) -> None:
        self.jobs = jobs
        self.outdir = outdir
        self.recorder = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.raw_times: list[float] = []

    def one_pass(self, index: int) -> float:
        """Run every job once, then check the outputs; return the scaled pass time."""
        returned = []
        raw = scaled = segment = 0.0
        before = calibrate()
        for i, job in enumerate(self.jobs):
            if self.recorder is not None:
                self.recorder.job = f"{index}:{job.name}"
            start = time.perf_counter()
            try:
                returned.append(job.run(self.outdir))
            except Exception as exc:  # a failing job is counted, the run goes on
                returned.append(exc)
            segment += time.perf_counter() - start
            if segment >= CAL_EVERY_S or i == len(self.jobs) - 1:
                after = calibrate()
                scaled += segment * CAL_REF_S / (0.5 * (before + after))
                raw += segment
                segment, before = 0.0, after
        self.raw_times.append(raw)
        for job, value in zip(self.jobs, returned):
            self.attempted += 1
            if isinstance(value, Exception):
                error = f"{job.name}: raised {type(value).__name__}: {value}"
            else:
                try:
                    error = job.check(job.load(self.outdir, value))
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    error = f"{job.name}: output unreadable: {type(exc).__name__}: {exc}"
            if error is not None:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"pass {index}: {error}")
        return scaled

    def passes(self, seconds: float, first_index: int = 0, after_pass=None) -> list[float]:
        """Run passes until ``seconds`` have elapsed (at least one)."""
        times = []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            if self.recorder is not None:
                self.recorder.start_pass()
            times.append(self.one_pass(first_index + len(times)))
            if after_pass is not None:
                after_pass(times[-1], self.raw_times[-1])
        return times


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_metrics(runner: Runner, seconds: float, record: dict, trace_path: Path) -> dict:
    import spans

    untraced = runner.passes(seconds / 2.0)
    recorder = spans.Recorder()
    missing = recorder.install()
    runner.recorder = recorder
    per_pass = []

    def collect(scaled: float, raw: float) -> None:
        # layer times on the same reference-speed scale as the pass times
        factor = scaled / raw if raw > 0 else 1.0
        values = recorder.pass_metrics(raw)
        per_pass.append({k: v * factor if k.endswith("self_s") else v
                         for k, v in values.items()})

    try:
        traced = runner.passes(seconds / 2.0, len(untraced), collect)
    finally:
        recorder.uninstall()
        runner.recorder = None
    for name in missing:
        runner.failed += 1
        runner.errors.append(f"traced name missing: {name}")
    metrics = {}
    for m in load_spec()["per_layer"]:
        if m["name"] == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        else:
            value = statistics.median(p[m["name"]] for p in per_pass)
        metrics[m["name"]] = metric(value, m["unit"])
    record.update(pass_times_s=untraced, traced_pass_times_s=traced, missing_names=missing)
    recorder.dump(trace_path, {"workload": record["workload"], "seed": record["seed"]})
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, out_root: Path = OUT_ROOT,
        setup_probes: bool = True) -> tuple[dict, dict]:
    """Measure one workload; return (result line, detailed record)."""
    import workloads

    outdir = out_root / f"{workload}-seed{seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        setup, setup_raw = measure_setup(workload) if (setup_probes and not trace) else ([], [])
        jobs = workloads.WORKLOADS[workload](seed)
        workloads.warm_up(workload, outdir)
        runner = Runner(jobs, outdir)
        record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "environment": environment(),
                  "cal_ref_s": CAL_REF_S,
                  "jobs": [{"name": j.name, **j.params} for j in jobs]}
        if trace:
            metrics = _traced_metrics(runner, seconds, record,
                                      out_root / f"trace-{workload}-seed{seed}.json")
        else:
            times = runner.passes(seconds)
            tail_s, tail_pct = tail(times)
            metrics = {
                "setup_s": metric(statistics.median(setup) if setup else 0.0, "s"),
                "wall_s": metric(statistics.median(times), "s"),
                "wall_tail_s": metric(tail_s, "s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            record.update(setup_samples_s=setup, setup_raw_s=setup_raw, pass_times_s=times,
                          wall_tail_percentile=tail_pct)
        record["raw_pass_times_s"] = runner.raw_times
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    record["errors"] = runner.errors
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT_ROOT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n")
    for error in record["errors"]:
        print(f"FAILED {error}")
    raw = record["raw_pass_times_s"]
    print(f"passes={len(raw)} raw_wall_median_s={statistics.median(raw):.4f}"
          + (f" wall_tail_s=p{record['wall_tail_percentile']:.0f}"
             if "wall_tail_percentile" in record else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

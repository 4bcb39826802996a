"""Set-up probe: import bicchain, run one warm-up job, report the time taken.

    python3 bench/setup_probe.py <workload> <t0>

``t0`` is the parent's ``time.time()`` taken just before it started this
process.  Prints two numbers: the seconds from ``t0`` to the end of the
warm-up job (interpreter start, imports, warm-up), and the mean calibration
kernel time measured before and after the bicchain import and warm-up,
which run.py uses to scale the first to the reference core speed.
Started by run.py, which pins the library threads through the environment
this process inherits.
"""

import sys
import tempfile
import time
from pathlib import Path

from run import OUT_ROOT, calibrate, import_program


def main() -> int:
    workload, t0 = sys.argv[1], float(sys.argv[2])
    # the core speed can change within the set-up, so calibrate on both sides
    # of it; the first calibration's own time is left out of the set-up time
    start = time.perf_counter()
    before = calibrate(repeats=5)
    calibration_s = time.perf_counter() - start
    import_program()
    import workloads

    OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="setup-", dir=OUT_ROOT) as outdir:
        workloads.warm_up(workload, Path(outdir))
        elapsed = time.time() - t0 - calibration_s
    after = calibrate(repeats=5)
    print(repr(elapsed), repr(0.5 * (before + after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop benchmark for overlaysim.

    python3 perfbench/run.py --workload <lu_coarse|lu_fine|vgg_batch|all> \
        --seed <n> --seconds <s> --trace <0|1>

One client in one process sets up, verifies, then runs the workload over and
over, each run starting after the previous one ended, until `--seconds`
seconds after the process started.  With `--trace 0` it
alternates runs at 2 and at 1 worker and reports the end-to-end metrics;
with `--trace 1` it alternates untraced and traced runs at 2 workers and
reports the per-layer metrics.  The metric names and units are the ones in
BENCHMARK.json.  Every run's result is compared bit for bit with a result
verified against an independent reference; the last line printed is a JSON
object with `correct`, `attempted`, `failed` and `metrics`.

The program is imported from `src/` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("lu_coarse", "lu_fine", "vgg_batch")
# one BLAS thread, so the overlay's worker pool is the only parallelism
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once, print the set-up seconds, exit")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "overlaysim" / "__init__.py").is_file():
        print(f"error: no overlaysim sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    start = time.perf_counter()  # set-up time counts the imports of numpy and overlaysim
    import closed_loop
    return closed_loop.main(args, start)


if __name__ == "__main__":
    sys.exit(main())

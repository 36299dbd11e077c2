#!/usr/bin/env python3
"""Sweep worker counts on a blocked LU run and report virtual makespans.

Shows how much cross-queue overlap the dependence structure allows: the
results are bit-identical at every worker count, only the schedule changes.
Exits 1 if any worker count's result differs from the first one's.
"""

import argparse
import sys

import numpy as np

from overlaysim.apps import LuProblem, dominant_matrix, lu_generate_tasks, lu_overlay
from overlaysim.runtime import build_task_graph, run


def makespan(trace):
    return max(r.vend for r in trace.records) - min(r.vstart for r in trace.records)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8, help="blocks along the diagonal")
    parser.add_argument("--m", type=int, default=32, help="block size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 3, 4])
    args = parser.parse_args()

    reference = None
    all_identical = True
    print(f"blocked LU, n={args.n}, m={args.m} ({args.n * args.m}x{args.n * args.m})")
    for workers in args.workers:
        problem = LuProblem(dominant_matrix(args.n, args.m, args.seed), args.n, args.m)
        overlay = lu_overlay()
        tasks, rules = lu_generate_tasks(problem, overlay)
        graph = build_task_graph(tasks, rules)
        trace = run(overlay, graph, worker_count=workers)
        if reference is None:
            reference = problem.a.data.copy()
            identical = True
        else:
            identical = bool(np.array_equal(reference, problem.a.data))
            all_identical &= identical
        print(f"  workers={workers}: {len(trace.records)} tasks, "
              f"virtual makespan {makespan(trace)}, "
              f"results identical to workers={args.workers[0]}: {identical}")
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())

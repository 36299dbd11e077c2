#!/usr/bin/env python3
"""Show the aliasing-safety checker catching a missing dependence rule.

The blocked LU dependence set orders every pair of tasks that touch common
matrix elements.  Dropping the cross-iteration rule (the next diagonal factor
waiting on the previous trailing update) leaves those pairs unordered, and
the checker names the exact block they collide on.

Exits 1 unless the full rule set reports no conflict and the weakened set
reports at least one, so a checker that stops finding the race fails.
"""

import argparse
import sys

from overlaysim.apps import LuProblem, dominant_matrix, lu_generate_tasks, lu_overlay
from overlaysim.runtime import build_task_graph, check_dependence_sufficiency


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--m", type=int, default=4)
    args = parser.parse_args()

    problem = LuProblem(dominant_matrix(args.n, args.m, 0), args.n, args.m)
    overlay = lu_overlay()
    tasks, rules = lu_generate_tasks(problem, overlay)

    full = check_dependence_sufficiency(build_task_graph(tasks, rules))
    print(f"full rule set: {len(full)} conflicts")

    weakened = [r for r in rules
                if not (r.dependent_kind == "factor" and r.prerequisite_kind == "update")]
    graph = build_task_graph(tasks, weakened)
    conflicts = check_dependence_sufficiency(graph)
    print(f"without the factor<-update rule: {len(conflicts)} conflicts")
    for c in conflicts:
        print("  " + c.describe())
    return 0 if not full and conflicts else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repeat the benchmark in fresh processes and keep the spread: BENCH files.

    python scripts/bench.py --tag <name> [--repeats K] [--seconds S]
    python scripts/bench.py --compare BENCH_a.json BENCH_b.json
    python scripts/bench.py --pairs OTHER_CHECKOUT --workload W|all [--repeats K] [--seconds S]

The first form runs `perfbench/run.py --workload W --seed 1 --trace T` of
the checkout this script sits in, K times for each workload and each trace
mode (0: end-to-end metrics, 1: per-layer metrics), one fresh process per
run.  Each repeat runs every workload once, so a drift in the machine's speed
touches all workloads alike.  It writes BENCH_<name>.json beside perfbench/:
the machine, the git commit, the command lines, the `model ...` digest lines
of every workload, and for each workload and metric the median and
quartiles across processes, with the values they come from.  It exits 1 if
any process failed or reported an incorrect result.

The second form prints, for each workload and metric that is not zero in
both files, the ratio of medians (b over a) and whether the interquartile
ranges overlap, then whether the digest lines agree.  Spread is measured across processes, not within one,
because one process's runs share its memory layout and the machine's state
at the time.

The third form measures a change against another checkout of the project
(say, its parent commit, from `git archive`): K pairs of `--trace 0`
processes of workload W (or of every workload, one after the other within
each pair, with `--workload all`), one of the other checkout's
perfbench/run.py and one of this checkout's, back to back.  The pairs
alternate which one runs first, so a drift in the machine's speed favours
neither.  It prints each pair's run_s; then, for each workload and each
end-to-end metric of BENCHMARK.json, each side's median and interquartile
range, how many pairs this checkout won (the better value), the verdict of
the claim rule for a gain of this checkout (won at least 9 pairs in 10, and
a median better by more than the other checkout's interquartile range), and
the verdict of the regression rule: REGRESSED when this checkout's median is
worse than the other's by more than the metric's `bound` in BENCHMARK.json,
a fraction of the other's median, else within bound.  Last, whether the
digest lines agree.  It exits 1 if any process failed or reported an
incorrect result.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "perfbench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("lu_coarse", "lu_fine", "vgg_batch")
# end-to-end metric -> 1 when lower is better, -1 when higher is
END_TO_END = {m["name"]: 1 if m["better"] == "lower" else -1 for m in BENCHMARK["end_to_end"]}
# end-to-end metric -> the largest worsening allowed, a fraction of the other median
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
SEED = 1
CLAIM_WIN_SHARE = 0.9  # the claim rule: at least 9 pairs in 10 won


def git_commit() -> str | None:
    """HEAD of the checkout, with "-dirty" when tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_once(cmd: list[str], timeout: float, cwd: Path = ROOT) -> dict:
    """One benchmark process: its exit code, final JSON line, machine and model lines."""
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"timed out after {timeout:.0f} s: {' '.join(cmd)}\n")
        return {"returncode": None, "report": {}, "machine": None, "model": []}
    lines = done.stdout.splitlines()
    report = {}
    if lines and lines[-1].startswith("{"):
        report = json.loads(lines[-1])
    machine = next((ln[len("machine: "):] for ln in lines if ln.startswith("machine: ")), None)
    if done.returncode or not report.get("correct"):
        sys.stderr.write(done.stderr)
    return {
        "returncode": done.returncode,
        "report": report,
        "machine": machine,
        "model": [ln for ln in lines if ln.startswith("model ")],
    }


def succeeded(one: dict) -> bool:
    return one["returncode"] == 0 and one["report"].get("correct") is True


def summary(values: list[float]) -> dict:
    """Median and quartiles; with one value all three are that value."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def bench(args) -> int:
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    timeout = 10 * args.seconds + 300  # set-up probes and verification come on top
    commands, machines = {}, set()
    results = {w: {"runs": 0, "failed_runs": 0, "model": set(), "metrics": {}}
               for w in WORKLOADS}
    for rep in range(args.repeats):
        for trace in (0, 1):
            for w in WORKLOADS:
                cmd = [sys.executable, str(RUNNER.relative_to(ROOT)), "--workload", w,
                       "--seed", str(SEED), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
                commands[f"{w} trace {trace}"] = " ".join(cmd[1:])
                print(f"[{rep + 1}/{args.repeats}] {commands[f'{w} trace {trace}']}",
                      flush=True)
                one = run_once(cmd, timeout)
                res = results[w]
                res["runs"] += 1
                res["failed_runs"] += not succeeded(one)
                res["model"].update(one["model"])
                if one["machine"]:
                    machines.add(one["machine"])
                for name, metric in one["report"].get("metrics", {}).items():
                    entry = res["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})
                    entry["values"].append(metric["value"])
    workloads = {}
    for w, res in results.items():
        workloads[w] = {
            "runs": res["runs"],
            "failed_runs": res["failed_runs"],
            "model": sorted(res["model"]),
            "metrics": {name: {"unit": m["unit"], **summary(m["values"])}
                        for name, m in sorted(res["metrics"].items())},
        }
    doc = {
        "tag": args.tag,
        "commit": git_commit(),
        "started": started,
        "machine": {"cpu": cpu_model(), "perfbench": sorted(machines)},
        "repeats": args.repeats,
        "seconds": args.seconds,
        "seed": SEED,
        "commands": commands,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    failed = sum(res["failed_runs"] for res in results.values())
    print(f"wrote {out.relative_to(ROOT)}: {args.repeats} repeat(s), {failed} failed process(es)")
    return 1 if failed else 0


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    print(f"a = {path_a} ({a['commit']}, {a['repeats']} repeats)")
    print(f"b = {path_b} ({b['commit']}, {b['repeats']} repeats)")
    print(f"{'workload':<10} {'metric':<28} {'median a':>11} {'median b':>11} "
          f"{'b/a':>7}  IQRs")
    for w in WORKLOADS:
        ma, mb = a["workloads"][w]["metrics"], b["workloads"][w]["metrics"]
        for name in (n for n in ma if n in mb):
            x, y = ma[name], mb[name]
            if not (x["median"] or y["median"]):
                continue  # a layer this workload does not use
            ratio = f"{y['median'] / x['median']:7.3f}" if x["median"] else "    n/a"
            overlap = x["q1"] <= y["q3"] and y["q1"] <= x["q3"]
            print(f"{w:<10} {name:<28} {x['median']:11.5g} {y['median']:11.5g} {ratio}  "
                  f"{'overlap' if overlap else 'disjoint'}")
    for w in WORKLOADS:
        same = a["workloads"][w]["model"] == b["workloads"][w]["model"]
        print(f"{w}: model digest lines {'identical' if same else 'DIFFER'}")
    return 0


def claim_verdict(metric: str, wins: int, complete: int, other: dict, this: dict) -> str:
    """The claim rule for a gain of this checkout on one metric."""
    gap = END_TO_END[metric] * (other["median"] - this["median"])
    iqr = other["q3"] - other["q1"]
    met = complete > 0 and wins >= CLAIM_WIN_SHARE * complete and gap > iqr
    return f"gap {gap:+.4g}, other IQR {iqr:.4g}: {'MET' if met else 'not met'}"


def regression_verdict(metric: str, other: dict, this: dict) -> str:
    """The regression rule for this checkout on one metric: its median worse
    than the other's by more than the metric's bound times the other's median."""
    worse = END_TO_END[metric] * (this["median"] - other["median"]) / other["median"]
    return (f"worse by {worse:+.1%}, bound {BOUND[metric]:.0%}: "
            f"{'REGRESSED' if worse > BOUND[metric] else 'within bound'}")


def pairs(args) -> int:
    timeout = 10 * args.seconds + 300
    roots = {"other": Path(args.pairs).resolve(), "this": ROOT}
    if not (roots["other"] / "perfbench" / "run.py").is_file():
        sys.stderr.write(f"no perfbench/run.py under {roots['other']}\n")
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    # workload -> side -> metric -> values, and workload -> pairs with both sides
    values = {w: {side: {m: [] for m in END_TO_END} for side in roots} for w in workloads}
    got_pairs: dict[str, list[dict]] = {w: [] for w in workloads}
    model = {w: {side: set() for side in roots} for w in workloads}
    failed = 0
    print(f"other = {roots['other']}\nthis  = {ROOT}")
    print(f"{'pair':>4}  {'first':<5}  {'workload':<10}  {'other run_s':>11}  {'this run_s':>10}  "
          f"{'this/other':>10}")
    for k in range(args.repeats):
        order = ("other", "this") if k % 2 == 0 else ("this", "other")
        for w in workloads:
            got = {}
            for side in order:
                cmd = [sys.executable, str(roots[side] / "perfbench" / "run.py"),
                       "--workload", w, "--seed", str(SEED),
                       "--seconds", str(args.seconds), "--trace", "0"]
                one = run_once(cmd, timeout, cwd=roots[side])
                if not succeeded(one):
                    failed += 1
                    continue
                got[side] = {m: one["report"]["metrics"][m]["value"] for m in END_TO_END}
                for m in END_TO_END:
                    values[w][side][m].append(got[side][m])
                model[w][side].update(one["model"])
            if len(got) < 2:
                print(f"{k + 1:>4}  {order[0]:<5}  {w:<10}  a process failed")
                continue
            got_pairs[w].append(got)
            other, this = got["other"]["run_s"], got["this"]["run_s"]
            print(f"{k + 1:>4}  {order[0]:<5}  {w:<10}  {other:11.4f}  {this:10.4f}  "
                  f"{this / other:10.3f}", flush=True)
    print(f"claim rule for a gain of this checkout: at least {CLAIM_WIN_SHARE:.0%} of the "
          f"pairs won, and the medians' gap larger than the other checkout's IQR")
    print("regression rule for this checkout: REGRESSED when its median is worse than the "
          "other's by more than the metric's bound in BENCHMARK.json")
    for w in workloads:
        complete = len(got_pairs[w])
        print(f"{w}: {complete} complete pair(s)")
        print(f"  {'metric':<12} {'other median (IQR)':>26} {'this median (IQR)':>26} "
              f"{'this/other':>10} {'won':>7}  claim rule; regression rule")
        for m in END_TO_END:
            if not (values[w]["other"][m] and values[w]["this"][m]):
                continue
            q = {side: summary(values[w][side][m]) for side in roots}
            wins = sum(END_TO_END[m] * (p["this"][m] - p["other"][m]) < 0 for p in got_pairs[w])
            cells = [f"{q[side]['median']:.4f} ({q[side]['q1']:.4f}-{q[side]['q3']:.4f})"
                     for side in roots]
            print(f"  {m:<12} {cells[0]:>26} {cells[1]:>26} "
                  f"{q['this']['median'] / q['other']['median']:10.3f} "
                  f"{f'{wins}/{complete}':>7}  "
                  f"{claim_verdict(m, wins, complete, q['other'], q['this'])}; "
                  f"{regression_verdict(m, q['other'], q['this'])}")
        same = model[w]["this"] == model[w]["other"]
        print(f"  model digest lines {'identical' if same else 'DIFFER'}")
    if failed:
        print(f"{failed} failed process(es)")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tag", help="write BENCH_<tag>.json")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two BENCH files")
    mode.add_argument("--pairs", metavar="OTHER_CHECKOUT",
                      help="run alternating pairs of processes against another checkout")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="the workload of --pairs, or all of them")
    parser.add_argument("--repeats", type=int, default=5,
                        help="processes per workload and mode, or pairs with --pairs")
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"],
                        help="each process's time budget (default: BENCHMARK.json's)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.pairs:
        if not args.workload:
            parser.error("--pairs needs --workload")
        return pairs(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())

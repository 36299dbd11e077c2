"""Set-up, verification, the closed loop and the report of one workload.

Imported by run.py once `src/` is on the path and BLAS is pinned to one thread.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import layers
import overlaysim
import workloads
from overlaysim import runtime, tensors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKERS = 2  # the core count of the machine the benchmark was tuned on
SETUP_PROBES = 2  # extra set-ups, each in a fresh process, beside this process's own
DISPATCH_REPEATS = 3


def sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')}-{blas.get('version')}",
        "blas_threads": blas_threads(),
        "workers": WORKERS,
    }


def blas_threads():
    """The thread count OpenBLAS reports, or the requested count if it cannot be asked."""
    import ctypes
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                return int(getattr(dll, symbol)())
    return f"{os.environ['OPENBLAS_NUM_THREADS']}(requested,not-queried)"


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return f"median of {n} runs; no percentile has 10 runs beyond it"
    q = int(100 * (1 - 10 / n))
    return f"median of {n} runs; p{q} {statistics.quantiles(samples, n=100)[q - 1]:.4f} s"


class Bench:
    """One workload in one process: the runs, their output checks and failure count."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = self.failed = 0
        self.reference: str | None = None  # digest of the cold run's result
        # workers -> (tasks, edges, virtual makespan, trace digest) of the first run
        self.model: dict[int, tuple[int, int, int, str]] = {}

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAILED run {self.attempted}: {why}", file=sys.stderr)

    def check(self, workers: int, trace, graph, result) -> None:
        """Compare one run's result bit for bit with the cold run's, which was
        verified, and its simulated statistics with the first run's at the same
        worker count.  A difference counts the run as failed."""
        problems = []
        if sha256(result.data) != self.reference:
            problems.append(f"result at {workers} worker(s) differs from the verified one")
        path = OUT / f"{self.wl.name}.w{workers}.trace"
        runtime.emit_trace(trace, path)
        stats = (len(graph.tasks), len(graph.edges),
                 max(r.vend for r in trace.records) - min(r.vstart for r in trace.records),
                 sha256(path.read_bytes()))
        first = self.model.setdefault(workers, stats)
        if stats != first:
            problems.append(f"simulated statistics at {workers} worker(s) changed: "
                            f"{stats} vs {first}")
        if problems:
            self.fail("; ".join(problems))

    def timed(self, workers: int) -> float | None:
        """One untraced full run; returns its seconds, or None if it failed."""
        self.attempted += 1
        state, overlay = self.wl.prepare(), self.wl.base_overlay()
        gc.collect()
        try:
            start = time.perf_counter()
            trace, graph, _, result = workloads.full_run(self.wl, state, overlay, workers)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # any failure of the program counts against it
            self.fail(repr(exc))
            return None
        self.check(workers, trace, graph, result)
        return elapsed

    def traced(self, tracer: layers.Tracer, workers: int):
        """One full run with a span per layer call.

        Calls the conflict check itself, then `run(unsafe=True)`, so the check
        gets its own span; the work done is the same as `run()`'s.  Returns
        (spans, tasks, graph, trace, result), or None if the run failed.
        """
        self.attempted += 1
        state = self.wl.prepare()
        overlay = tracer.traced_overlay(self.wl.base_overlay())
        gc.collect()
        try:
            spans = {"root": tracer.begin("full_run")}
            with tracer.span("apps.generate_tasks", spans["root"]) as spans["gen"]:
                tasks, rules, result = self.wl.generate(state, overlay)
            with tracer.span("runtime.build_task_graph", spans["root"]) as spans["graph"]:
                graph = runtime.build_task_graph(tasks, rules)
            with tracer.span("runtime.check_dependence_sufficiency",
                             spans["root"]) as spans["check"]:
                conflicts = runtime.check_dependence_sufficiency(graph)
            if conflicts:
                self.fail(f"conflict report has {len(conflicts)} pair(s)")
                return None
            with tracer.span("runtime.run", spans["root"]) as spans["run"]:
                tracer.kernel_parent = spans["run"]
                trace = runtime.run(overlay, graph, workers, unsafe=True)
            tracer.end(spans["root"])
        except Exception as exc:  # any failure of the program counts against it
            self.fail(repr(exc))
            return None
        self.check(workers, trace, graph, result)
        return spans, tasks, graph, trace, result


def setup_probe_seconds(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=150, check=True)
    return float(done.stdout.split()[-1])


def end_to_end(bench: Bench, args, setup: float, deadline: float) -> dict:
    setups = [setup] + [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
    runs: dict[int, list[float]] = {WORKERS: [], 1: []}
    while True:
        for workers in runs:
            elapsed = bench.timed(workers)
            if elapsed is not None:
                runs[workers].append(elapsed)
        if time.perf_counter() >= deadline:
            break
    if not runs[WORKERS] or not runs[1]:
        return {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"run_s        {statistics.median(runs[WORKERS]):.4f} s   "
          f"{tail_note(runs[WORKERS])}, {WORKERS} workers")
    print(f"run_1w_s     {statistics.median(runs[1]):.4f} s   {tail_note(runs[1])}, 1 worker")
    print(f"peak_rss_mb  {rss_mb:.1f} MB  peak resident memory of this process")
    print(f"setup_s      {statistics.median(setups):.4f} s   median of {len(setups)} set-ups "
          f"(import, inputs, overlay, cold run), each in a fresh process")
    print(f"fail_ratio   {bench.failed / bench.attempted:.4f}   "
          f"{bench.failed} failed of {bench.attempted} attempted")
    return {
        "run_s": statistics.median(runs[WORKERS]),
        "run_1w_s": statistics.median(runs[1]),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }


def per_layer(bench: Bench, args, info: dict, verify_s: float, deadline: float) -> dict:
    wl, tracer = bench.wl, layers.Tracer()
    untraced, traced, waits = [], [], []
    last = None
    while True:
        elapsed = bench.timed(WORKERS)
        if elapsed is not None:
            untraced.append(elapsed)
        done = bench.traced(tracer, WORKERS)
        if done is not None:
            last = done
            figures, run_waits = layers.analyse_run(tracer, done[0], done[1], done[2], WORKERS)
            traced.append(figures)
            waits += run_waits
        if time.perf_counter() >= deadline:
            break
    if not traced or not untraced:
        return {}
    _, tasks, graph, trace, result = last
    m = {key: statistics.median(r[key] for r in traced) for key in traced[0]}

    # the layers outside the full run, once each
    noop = layers.noop_overlay(wl.base_overlay())
    dispatch = []
    for _ in range(DISPATCH_REPEATS):
        with tracer.span("runtime.run[noop kernels]") as index:
            runtime.run(noop, graph, WORKERS, unsafe=True)
        dispatch.append(tracer.seconds(index) / len(tasks) * 1e6)
    tracemalloc.start()
    runtime.check_dependence_sufficiency(graph)
    check_alloc = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    path = OUT / f"{wl.name}.trace"
    with tracer.span("runtime.emit_trace+parse_trace+validate_trace") as io_index:
        runtime.emit_trace(trace, path)
        problems = runtime.validate_trace(runtime.parse_trace(path))
    if problems:
        bench.fail(f"trace does not validate: {problems[:3]}")
    dump = OUT / f"{wl.name}.dump.txt"
    with tracer.span("tensors.write_tensor_text") as dump_index:
        tensors.write_tensor_text(result, dump)
    dump.unlink()
    with tracer.span("kernels.gemm.ceiling"):
        ceiling = layers.gemm_ceiling(wl.base_overlay(), tasks)

    run_s = statistics.median(untraced)
    m.update({
        "apps.tasks": len(tasks),
        "runtime.edges": len(graph.edges),
        "runtime.check_alloc_mb": check_alloc,
        "runtime.dispatch_us": statistics.median(dispatch),
        "runtime.wait_us_p50": float(np.percentile(waits, 50)),
        "runtime.wait_us_p90": float(np.percentile(waits, 90)),
        "kernels.gemm.ceiling_gflops": ceiling,
        "kernels.gemm.ceiling_frac": m["kernels.gemm.gflops"] / ceiling if ceiling else 0.0,
        "tensors.dump_s": tracer.seconds(dump_index),
        "runtime.trace_io_s": tracer.seconds(io_index),
        "oracles.verify_s": verify_s,
        "trace.run_s": run_s,
        "trace.overhead_s": m["traced_total_s"] - run_s,
    })
    spans_path = OUT / f"{wl.name}-seed{args.seed}.spans.json"
    tracer.write_chrome(spans_path, {"workload": wl.name, "seed": args.seed, **info})
    print(f"spans: {len(tracer.spans)} -> {spans_path.relative_to(ROOT)}")
    report_accounting(m, len(traced), len(untraced))
    return m


def report_accounting(m: dict, n_traced: int, n_untraced: int) -> None:
    """Print how the traced run's phases add up, and which layer dominates."""
    phases = {
        "apps.generate_tasks": m["apps.gen_s"],
        "runtime.build_task_graph": m["runtime.graph_s"],
        "runtime.check_dependence_sufficiency": m["runtime.check_s"],
        "kernels (union of kernel spans)": m["runtime.exec_s"] - m["runtime.sched_self_s"],
        "runtime.run outside kernels, to the last kernel end": m["runtime.sched_self_s"],
        "runtime.run after the last kernel (shutdown, replay)": m["runtime.replay_s"],
    }
    total = m["traced_total_s"]
    print(f"accounting (medians of {n_traced} traced and {n_untraced} untraced runs):")
    for name, seconds in phases.items():
        print(f"  {name:<54} {seconds:9.4f} s {100 * seconds / total:5.1f}%")
    print(f"  {'sum of phases':<54} {sum(phases.values()):9.4f} s")
    print(f"  {'traced run':<54} {total:9.4f} s = run_s {m['trace.run_s']:.4f} s "
          f"+ tracing overhead {m['trace.overhead_s']:.4f} s")
    name = max(phases, key=phases.get)
    print(f"dominant layer: {name}, {100 * phases[name] / total:.0f}% of the traced run")


def main(args, start: float) -> int:
    """Set up (timed from `start`, before the imports), verify, loop, report.

    The loop stops starting runs `--seconds` after `start`, so set-up and
    verification come out of the same time budget and a slow machine does
    not make the process run longer.
    """
    deadline = start + args.seconds
    src = ROOT / "src" / "overlaysim"
    if Path(overlaysim.__file__).resolve().parent != src:
        print(f"error: imported overlaysim from {overlaysim.__file__}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    wl.make_inputs(args.seed)
    trace, graph, _, result = workloads.full_run(wl, wl.prepare(), wl.base_overlay(), WORKERS)
    setup = time.perf_counter() - start
    if args.setup_probe:
        print(setup)
        return 0

    OUT.mkdir(exist_ok=True)
    info = machine_info()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {wl.name} seed {args.seed}: {wl.command} (closed loop, one client)")
    start = time.perf_counter()
    correct, verdict = wl.verify(result.data)
    verify_s = time.perf_counter() - start
    print(f"verify: {verdict}")

    # the cold run is the first attempted run, and the reference for the others
    bench = Bench(wl)
    bench.attempted, bench.reference = 1, sha256(result.data)
    if not correct:
        bench.fail("the cold run's result failed verification")
    bench.check(WORKERS, trace, graph, result)
    if args.trace:
        metrics = per_layer(bench, args, info, verify_s, deadline)
    else:
        metrics = end_to_end(bench, args, setup, deadline)
    for workers, (tasks, edges, makespan, digest) in sorted(bench.model.items()):
        print(f"model at {workers} worker(s): tasks={tasks} edges={edges} "
              f"makespan={makespan} trace_sha256={digest}")
    print(f"model result_sha256={bench.reference}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if metrics:
        metrics = {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in wanted}
        if args.trace:
            width = max(len(s["name"]) for s in wanted)
            for name, v in metrics.items():
                print(f"{name:<{width}} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": bool(metrics) and bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0

"""Per-layer measurement from outside the program.

Spans are taken around calls into each layer's public functions.  Kernel
spans come from rebinding every `IpDescriptor.run` of an overlay to a timing
wrapper through the public `IpDescriptor`/`command`/`Overlay` constructors,
so nothing under `src/` is touched.  Spans stay in memory while the run goes
and are written once, as Chrome trace-event JSON, after it ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

import numpy as np

from overlaysim import IpDescriptor, Overlay, command

# IP name -> kernel metric name; the Convolution IP runs FC layers too
KERNEL_OF_IP = {
    "LU": "lu_factor",
    "TransformRowPanel": "row_panel",
    "TransformColumnPanel": "col_panel",
    "GEMM": "gemm",
    "Convolution": "conv",
    "Maxpool": "maxpool",
}
KERNELS = ("lu_factor", "row_panel", "col_panel", "gemm", "conv", "fc", "maxpool")


def kernel_name(ip_name: str, args) -> str:
    if ip_name == "Convolution" and args[6]:  # the is_FC_layer flag
        return "fc"
    return KERNEL_OF_IP[ip_name]


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, thread, args]."""

    def __init__(self):
        self.spans: list[list] = []
        self.kernel_parent: int | None = None

    def begin(self, name: str, parent: int | None = None) -> int:
        self.spans.append([name, time.perf_counter_ns(), None, parent,
                           threading.get_ident(), {}])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        index = self.begin(name, parent)
        try:
            yield index
        finally:
            self.end(index)

    def seconds(self, index: int) -> float:
        _, start, end, *_ = self.spans[index]
        return (end - start) / 1e9

    def traced_overlay(self, overlay):
        """A copy of the overlay whose kernels record a span per call."""
        interfaces = []
        for q, iface in sorted(overlay.interfaces.items()):
            ip = iface.ip
            interfaces.append(command(IpDescriptor(
                ip.name, ip.signature, self._timed(ip), ip.access_sets,
                ip.uses_feature_buffer), q))
        return Overlay(overlay.name, interfaces)

    def _timed(self, ip):
        inner, spans = ip.run, self.spans

        def run(args, fb):
            start = time.perf_counter_ns()
            flops = inner(args, fb)
            end = time.perf_counter_ns()
            # list.append is atomic under the interpreter lock; worker threads share it
            spans.append(["kernels." + kernel_name(ip.name, args), start, end,
                          self.kernel_parent, threading.get_ident(),
                          {"args_key": id(args), "flops": int(flops)}])
            return flops
        return run

    def write_chrome(self, path, metadata: dict) -> None:
        """Chrome trace-event JSON ("X" complete events), loadable by Perfetto."""
        base = min(s[1] for s in self.spans)
        threads: dict[int, int] = {}
        events = []
        for index, (name, start, end, parent, thread, args) in enumerate(self.spans):
            if end is None:  # a span left open by a failed run
                continue
            extra = {k: v for k, v in args.items() if k != "args_key"}
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1,
                "tid": threads.setdefault(thread, len(threads)),
                "ts": (start - base) / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": index, "parent": parent, **extra},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, fh)


def noop_overlay(overlay):
    """Same queues as `overlay`, every kernel a no-op: isolates dispatch cost."""
    interfaces = [
        command(IpDescriptor(f"Noop{q}", (), lambda args, fb: 1, lambda args, fb: ()), q)
        for q in sorted(overlay.interfaces)
    ]
    return Overlay(f"noop-{overlay.name}", interfaces)


def union_ns(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    covered, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def analyse_run(tracer: Tracer, spans: dict, tasks, graph, workers: int):
    """Per-layer figures of one traced full run, and each task's wait in µs.

    `spans` maps phase name -> span index.  Execution is taken as the
    `runtime.run` call up to the end of its last kernel; the rest of the call
    (pool shutdown and virtual replay) is reported as replay.
    """
    run_index = spans["run"]
    _, run_start, run_end, *_ = tracer.spans[run_index]
    kernel_spans = [s for s in tracer.spans if s[3] == run_index and s[0].startswith("kernels.")]
    last_end = max(s[2] for s in kernel_spans)
    exec_ns = last_end - run_start
    busy_ns = sum(s[2] - s[1] for s in kernel_spans)

    task_of = {id(t.args): t.id for t in tasks}
    start_of, end_of = {}, {}
    for s in kernel_spans:
        tid = task_of[s[5]["args_key"]]
        start_of[tid], end_of[tid] = s[1], s[2]
        s[5]["task"] = tid
    waits = [(start_of[t] - max(end_of[p] for p in graph.preds[t])) / 1e3
             for t in start_of if graph.preds[t]]

    out = {
        "apps.gen_s": tracer.seconds(spans["gen"]),
        "runtime.graph_s": tracer.seconds(spans["graph"]),
        "runtime.check_s": tracer.seconds(spans["check"]),
        "runtime.exec_s": exec_ns / 1e9,
        "runtime.replay_s": (run_end - last_end) / 1e9,
        "runtime.sched_self_s": (exec_ns - union_ns((s[1], s[2]) for s in kernel_spans)) / 1e9,
        "runtime.worker_util": busy_ns / (exec_ns * workers),
        "traced_total_s": tracer.seconds(spans["root"]),
    }
    for kernel in KERNELS:
        mine = [s for s in kernel_spans if s[0] == "kernels." + kernel]
        busy = sum(s[2] - s[1] for s in mine) / 1e9
        flops = sum(s[5]["flops"] for s in mine)
        out[f"kernels.{kernel}.calls"] = len(mine)
        out[f"kernels.{kernel}.busy_s"] = busy
        out[f"kernels.{kernel}.gflops"] = flops / busy / 1e9 if busy else 0.0
    return out, waits


def gemm_ceiling(overlay, tasks, repeats: int = 3) -> float:
    """GFLOP/s of a plain numpy `a @ b` at every gemm shape the workload runs.

    Each distinct shape is timed `repeats` times and its best time counted
    once per task of that shape, so the figure is weighted like the workload.
    """
    shapes: dict[tuple[int, int, int], int] = {}
    for t in tasks:
        if overlay.interface(t.queue_no).ip.name == "GEMM":
            _, a, b, *_ = t.args
            key = (a.shape[0], a.shape[1], b.shape[1])
            shapes[key] = shapes.get(key, 0) + 1
    if not shapes:
        return 0.0
    rng = np.random.default_rng(0)
    flops = seconds = 0.0
    for (m, k, n), count in shapes.items():
        a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            a @ b
            best = min(best, time.perf_counter() - start)
        flops += count * 2 * m * k * n
        seconds += count * best
    return flops / seconds / 1e9


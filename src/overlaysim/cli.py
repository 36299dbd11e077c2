"""Command-line front end: build overlays, run the applications, inspect traces.

Exit codes: 0 success, 1 verification, kernel or file failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .apps import (
    LuProblem,
    dominant_matrix,
    lu_generate_tasks,
    lu_overlay,
    random_input,
    seeded_weights,
    small_config,
    tiny_config,
    vgg_generate_tasks,
    vgg_overlay,
)
from .errors import OverlayError, TaskExecutionError
from .oracles import compare, oracle_cnn_forward, oracle_lu
from .overlay import load_overlay
from .runtime import (
    build_task_graph,
    check_dependence_sufficiency,
    describe_region,
    emit_trace,
    parse_trace,
    run,
    validate_trace,
)
from .tensors import read_tensor_text, write_tensor_text

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

VERIFY_TOLERANCE = {
    ("lu", "f64"): 1e-10,
    ("lu", "f32"): 1e-4,
    ("vgg", "f64"): 1e-6,
    ("vgg", "f32"): 1e-3,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlay-sim",
        description="Simulate command-queue overlays: blocked LU and a VGG-style pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write an overlay manifest")
    p_build.add_argument("app", choices=("lu", "vgg"))
    p_build.add_argument("--out", help="manifest path (default <app>.overlay.json)")

    p_run = sub.add_parser("run", help="generate tasks, schedule, and execute")
    p_run.add_argument("app", choices=("lu", "vgg"))
    p_run.add_argument("--n", type=int, default=4, help="blocks along the diagonal (lu)")
    p_run.add_argument("--m", type=int, default=8, help="block size in elements (lu)")
    p_run.add_argument("--scale", choices=("tiny", "small"), default="tiny",
                       help="network preset (vgg)")
    p_run.add_argument("--batch", type=int, default=1, help="input feature maps (vgg)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--workers", type=int, default=1,
                       help="virtual IP slots in the schedule model")
    p_run.add_argument("--precision", choices=("f32", "f64"), default="f64")
    p_run.add_argument("--input", help="tensor-text file for the input buffer")
    p_run.add_argument("--dump", help="write the result buffer as tensor-text")
    p_run.add_argument("--trace", help="write the execution trace")
    p_run.add_argument("--overlay", help="load this manifest instead of building in-process")
    p_run.add_argument("--verify", action="store_true",
                       help="compare against the reference oracle")
    p_run.add_argument("--check-races", action="store_true",
                       help="print the conflict report and fail if non-empty")

    p_inspect = sub.add_parser("inspect-trace", help="summarize and validate a trace file")
    p_inspect.add_argument("path")
    return parser


def cmd_build(args) -> int:
    overlay = lu_overlay() if args.app == "lu" else vgg_overlay()
    out = args.out or f"{args.app}.overlay.json"
    overlay.save_manifest(out)
    print(f"wrote {out}: {len(overlay.interfaces)} queues")
    return EXIT_OK


def _prepare_lu(args, dtype):
    if args.input:
        buf = read_tensor_text(args.input, dtype=dtype)
        if len(buf.shape) != 2 or buf.shape[0] != buf.shape[1] or buf.shape[0] % args.m:
            raise OverlayError(
                f"--input matrix shaped {buf.shape} does not split into blocks of {args.m}"
            )
        n = buf.shape[0] // args.m
    else:
        buf, n = dominant_matrix(args.n, args.m, args.seed, dtype=dtype), args.n
    problem = LuProblem(buf, n, args.m)
    overlay = load_overlay(args.overlay) if args.overlay else lu_overlay()
    tasks, rules = lu_generate_tasks(problem, overlay)
    # the run overwrites the input: copy it for the oracle only under --verify
    original = buf.data.copy() if args.verify else None
    return overlay, tasks, rules, buf, lambda: oracle_lu(original)


def _prepare_vgg(args, dtype):
    config = tiny_config(args.batch) if args.scale == "tiny" else small_config(args.batch)
    if args.input:
        x = read_tensor_text(args.input, dtype=dtype)
    else:
        x = random_input(config, args.seed, dtype=dtype)
    weights = seeded_weights(config, args.seed + 1, dtype=dtype)
    overlay = load_overlay(args.overlay) if args.overlay else vgg_overlay()
    tasks, rules, outputs = vgg_generate_tasks(config, x, weights, overlay)
    return overlay, tasks, rules, outputs.y, lambda: oracle_cnn_forward(config, x, weights)


def cmd_run(args) -> int:
    if args.workers < 1 or args.n < 1 or args.m < 1 or args.batch < 1:
        print("workers, n, m and batch must all be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print(f"seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE

    dtype = np.float32 if args.precision == "f32" else np.float64
    prepare = _prepare_lu if args.app == "lu" else _prepare_vgg
    overlay, tasks, rules, result_buf, oracle = prepare(args, dtype)

    graph = build_task_graph(tasks, rules)

    if args.check_races:
        conflicts = check_dependence_sufficiency(graph)
        if conflicts:
            print(f"conflict report: {len(conflicts)} unordered conflicting pair(s)")
            for c in conflicts:
                print("  " + c.describe())
            return EXIT_FAIL
        print("conflict report: empty")

    # an empty report above already cleared the graph, so run() need not check again
    trace = run(overlay, graph, args.workers, unsafe=args.check_races)
    if args.trace:
        emit_trace(trace, args.trace)
        print(f"trace: {len(trace.records)} records -> {args.trace}")
    if args.dump:
        write_tensor_text(result_buf, args.dump)
        print(f"dump: {result_buf.shape} -> {args.dump}")

    if args.verify:
        tol = VERIFY_TOLERANCE[(args.app, args.precision)]
        report = compare(oracle(), result_buf.data, tol)
        print(f"verify {args.app}: {report}")
        if not report.passed:
            return EXIT_FAIL
    return EXIT_OK


def cmd_inspect(args) -> int:
    trace = parse_trace(args.path)
    problems = validate_trace(trace)
    if trace.records:
        _print_summary(trace)
    elif not problems:
        print("empty trace")
        return EXIT_OK
    if problems:
        print(f"validation FAILED ({len(problems)} problem(s)):")
        for p in problems:
            print("  " + p)
        return EXIT_FAIL
    print("validation OK: records form a linear extension of the recorded edges")
    return EXIT_OK


def _print_summary(trace) -> None:
    """Span, busy time per queue and per worker, and the critical path."""
    span_start = min(r.vstart for r in trace.records)
    span_end = max(r.vend for r in trace.records)
    span = max(1, span_end - span_start)
    print(f"{len(trace.records)} tasks, {len(trace.edges)} edges, "
          f"virtual span [{span_start}, {span_end})")

    for unit in ("queue", "worker"):
        busy: dict[int, int] = {}
        for r in trace.records:
            key = getattr(r, unit)
            busy[key] = busy.get(key, 0) + (r.vend - r.vstart)
        for k in sorted(busy):
            print(f"  {unit} {k}: busy {busy[k]} ({100.0 * busy[k] / span:.1f}% of span)")

    # longest duration-weighted path over the recorded edges
    duration = {r.id: r.vend - r.vstart for r in trace.records}
    order = sorted(trace.records, key=lambda r: r.vstart)
    longest = {r.id: duration[r.id] for r in trace.records}
    preds: dict[int, list[int]] = {r.id: [] for r in trace.records}
    for pre, dep in trace.edges:
        if pre in duration and dep in duration:
            preds[dep].append(pre)
    for rec in order:
        if preds[rec.id]:
            longest[rec.id] = duration[rec.id] + max(longest[p] for p in preds[rec.id])
    print(f"critical path: {max(longest.values())} virtual time units")


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            return cmd_build(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_inspect(args)
    except (OverlayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, TaskExecutionError):
            _print_failure(exc)
        return EXIT_FAIL


def _print_failure(exc: TaskExecutionError) -> None:
    """What the failed task's body raised, its iteration and the regions it writes."""
    cause = exc.__cause__
    if cause is not None:
        print(f"  cause: {type(cause).__name__}: {cause}", file=sys.stderr)
    print(f"  iteration: {exc.iteration}", file=sys.stderr)
    for acc in exc.access_sets:
        if acc.writes:
            print(f"  writes: {describe_region(acc.buffer_id, acc.ranges)}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

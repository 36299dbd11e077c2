"""Task graph construction, dependence-respecting scheduling, and trace emission.

Tasks enqueued on an overlay become nodes; edges come from two sources:
distance-d dependence rules between task kinds, and the FIFO order of each
command queue.  A task may start once all its graph predecessors have
completed; the FIFO edges make such a task the oldest unfinished one of its
queue.  One list-scheduling loop, _list_schedule, applies that rule in
virtual time: run() drives it at worker_count virtual IP slots, running each
task body on the calling thread as the task starts, and a graph with an edge
from a higher id to a lower one takes its topological order from it at one
slot with unit-length tasks.  Traces report virtual times, computed from the
kernels' work estimates, not wall-clock times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import NamedTuple

from .errors import (
    CyclicDependenceError,
    DependenceConflictError,
    InvocationError,
    OverlayError,
    ParseError,
    RuleError,
    TaskExecutionError,
)
from .tensors import AccessSet, read_text

VIRTUAL_TIME_DIVISOR = 1_000_000  # duration = max(1, flop estimate // divisor)


class TaskInstance(NamedTuple):
    """One enqueued command: a kind tag, its queue, and bound arguments."""

    id: int
    kind: str
    queue_no: int
    iteration: int
    args: tuple
    access_sets: tuple[AccessSet, ...] = ()


@dataclass(frozen=True)
class DependenceRule:
    """dependent_kind at iteration i depends on prerequisite_kind at i - distance."""

    dependent_kind: str
    prerequisite_kind: str
    distance: int

    def __post_init__(self):
        for kind in (self.dependent_kind, self.prerequisite_kind):
            if not isinstance(kind, str):
                raise RuleError(f"dependence kinds must be str, got {kind!r}")
        if not isinstance(self.distance, int) or isinstance(self.distance, bool):
            raise RuleError(f"dependence distance must be an int, got {self.distance!r}")
        if self.distance < 0:
            raise RuleError(f"dependence distance must be >= 0, got {self.distance}")


def depend(dependent_kind: str, prerequisite_kind: str, distance: int) -> DependenceRule:
    """Declare a dependence rule; distance counts iterations backwards."""
    return DependenceRule(dependent_kind, prerequisite_kind, distance)


class GraphEdge(NamedTuple):
    pre: int
    dep: int
    provenance: str  # "rule" | "queue-order"


class TaskGraph:
    """Acyclic task graph with queue-order chains embedded as edges.

    Construction checks its input, whoever built it: duplicate task ids and
    an edge to an unknown task raise InvocationError, and a cycle, a
    self-edge included, raises CyclicDependenceError with a witness.  It
    records `succs`, each task's successors as a list with one entry per
    edge, in edge order (a rule edge and a queue-order edge may join the
    same pair, which is then listed twice), and `topo_order`, the
    topological order that always takes the lowest ready id.  `preds`, each
    task's set of predecessors, is derived from `succs` on first read.
    """

    def __init__(self, tasks: list[TaskInstance], edges: list[GraphEdge]):
        self.tasks = list(tasks)
        self.edges = list(edges)
        self.by_id = {t.id: t for t in self.tasks}
        if len(self.by_id) != len(self.tasks):
            raise InvocationError("duplicate task ids in graph input")
        succs: dict[int, list[int]] = {tid: [] for tid in self.by_id}
        forward = True
        for pre, dep, _ in self.edges:
            if pre not in succs or dep not in succs:
                raise InvocationError(f"edge ({pre}, {dep}) references an unknown task")
            succs[pre].append(dep)
            forward = forward and pre < dep
        self.succs = succs
        # with every edge running from a lower id to a higher one, the lowest
        # ready id is always the lowest id not yet taken: its predecessors
        # all have lower ids, so all are taken already
        self.topo_order = sorted(self.by_id) if forward else self._topological_order()

    @cached_property
    def preds(self) -> dict[int, set[int]]:
        """Each task's set of predecessors, built on first read."""
        preds: dict[int, set[int]] = {tid: set() for tid in self.by_id}
        for pre, deps in self.succs.items():
            for dep in deps:
                preds[dep].add(pre)
        return preds

    def _topological_order(self) -> list[int]:
        """The order in which one slot starts unit-length tasks; the tasks it
        never starts are those on a cycle or behind one."""
        order: list[int] = []
        _list_schedule(self.succs, 1, lambda tid, clock, slot: order.append(tid) or 1)
        if len(order) != len(self.tasks):
            stuck = set(self.by_id).difference(order)
            raise CyclicDependenceError(_find_cycle(self.preds, stuck))
        return order

    def edge_pairs(self) -> list[tuple[int, int]]:
        """The distinct (pre, dep) pairs of the edges, in ascending order."""
        pairs = sorted((pre, dep) for pre, deps in self.succs.items() for dep in deps)
        return list(dict.fromkeys(pairs))


def _list_schedule(succs: dict[int, list[int]], slot_count: int, start) -> None:
    """The one scheduling loop: list scheduling in virtual time.

    succs maps every task id to its successors, one entry per edge, so a
    pair joined by two edges is counted and completed twice.  While a slot
    is free and a task is ready, the lowest ready id starts on the lowest
    free slot, and start(tid, clock, slot) returns its duration, at least
    1.  Then the clock jumps to the earliest end, and every task ending
    then completes.  Tasks on a cycle, or behind one, never start.
    """
    waiting = dict.fromkeys(succs, 0)  # incoming edges not yet completed
    for deps in succs.values():
        for dep in deps:
            waiting[dep] += 1
    ready = [tid for tid, d in waiting.items() if not d]
    heapify(ready)
    # ascending, hence a heap; lowest-first use never needs more slots than tasks
    free = list(range(min(slot_count, len(waiting))))
    running: list[tuple[int, int, int]] = []  # (end, slot, task id)
    # starts happen in (vstart, id) order: nothing becomes ready while the
    # slots fill, and every duration is at least 1
    clock = 0
    while ready or running:
        while ready and free:
            tid = heappop(ready)
            slot = heappop(free)
            heappush(running, (clock + start(tid, clock, slot), slot, tid))
        clock = running[0][0]
        while running and running[0][0] == clock:
            _, slot, tid = heappop(running)
            heappush(free, slot)
            for nxt in succs[tid]:
                left = waiting[nxt] = waiting[nxt] - 1
                if not left:
                    heappush(ready, nxt)


def _find_cycle(preds: dict[int, set[int]], candidates: set[int]) -> list[int]:
    """One witness cycle among the candidates, the tasks the loop never
    started: each has a predecessor among them, so walking back stays inside."""
    start = min(candidates)
    path: list[int] = []
    on_path: set[int] = set()
    node = start
    while node not in on_path:
        path.append(node)
        on_path.add(node)
        node = min(p for p in preds[node] if p in candidates)
    cycle = path[path.index(node):] + [node]
    cycle.reverse()
    return cycle


def build_task_graph(tasks, rules) -> TaskGraph:
    """Materialize edges from dependence rules plus per-queue FIFO chains.

    A rule contributes an edge only where the prerequisite instance exists:
    rules pointing at negative iterations or at skipped tasks are silently
    inert.  Rules are read once, a repeat counting once (distinct rules never
    give the same edge), and TaskGraph checks the ids and the cycles.
    """
    tasks = list(tasks)
    rules = dict.fromkeys(rules)
    rules_of: dict[str, list[tuple[str, int]]] = {}
    for rule in rules:
        rules_of.setdefault(rule.dependent_kind, []).append(
            (rule.prerequisite_kind, rule.distance))
    # the ids of each (kind, iteration) slot that some rule points at
    by_slot: dict[tuple[str, int], list[int]] = {}
    prerequisite_kinds = {rule.prerequisite_kind for rule in rules}
    for t in tasks:
        if t.kind in prerequisite_kinds:
            by_slot.setdefault((t.kind, t.iteration), []).append(t.id)

    # _make, which takes a tuple, skips GraphEdge's Python-level __new__
    edges: list[GraphEdge] = []
    for t in tasks:
        for kind, distance in rules_of.get(t.kind, ()):
            for pre in by_slot.get((kind, t.iteration - distance), ()):
                edges.append(GraphEdge._make((pre, t.id, "rule")))

    last_of_queue: dict[int, int] = {}
    for t in sorted(tasks, key=attrgetter("id")):
        earlier = last_of_queue.get(t.queue_no)
        if earlier is not None:
            edges.append(GraphEdge._make((earlier, t.id, "queue-order")))
        last_of_queue[t.queue_no] = t.id

    return TaskGraph(tasks, edges)


@dataclass(frozen=True)
class Conflict:
    """Two tasks that touch overlapping elements without an ordering path."""

    first: int
    second: int
    buffer_id: int
    overlap: tuple[tuple[int, int], ...]
    modes: tuple[str, str]

    def describe(self) -> str:
        return (f"tasks {self.first} and {self.second} touch "
                f"{describe_region(self.buffer_id, self.overlap)} "
                f"as {self.modes[0]}/{self.modes[1]} with no ordering")


def describe_region(buffer_id: int, ranges) -> str:
    """`buffer B region [lo,hi) x ...`, as conflict and failure reports name a region."""
    return f"buffer {buffer_id} region " + " x ".join(f"[{lo},{hi})" for lo, hi in ranges)


def check_dependence_sufficiency(graph: TaskGraph) -> list[Conflict]:
    """Report every conflicting task pair the transitive closure leaves unordered.

    An empty report means the declared dependences (plus queue order) are
    sufficient to make the shared-buffer accesses race-free.  The closure is
    one descendant bitset per task, bit i standing for the i-th task of the
    topological order.  A task's descendants all come after it in that
    order, so the tasks unordered with it are exactly the later ones outside
    its bitset.  Only those pairs have their access sets compared, lower id
    first, and the report lists the pairs in ascending id order.
    """
    order = [graph.by_id[tid] for tid in graph.topo_order]
    position = {tid: i for i, tid in enumerate(graph.topo_order)}
    desc = [0] * len(order)
    for i in reversed(range(len(order))):
        bits = 0
        for s in graph.succs[order[i].id]:
            j = position[s]
            bits |= desc[j] | (1 << j)
        desc[i] = bits

    everyone = (1 << len(order)) - 1
    conflicts: list[Conflict] = []
    for i, t1 in enumerate(order):
        unordered = (everyone ^ desc[i]) >> (i + 1)
        while unordered:
            low = unordered & -unordered
            unordered ^= low
            t2 = order[i + low.bit_length()]
            first, second = (t1, t2) if t1.id < t2.id else (t2, t1)
            seen = set()
            for s1 in first.access_sets:
                for s2 in second.access_sets:
                    overlap = s1.conflict(s2)
                    if overlap is None:
                        continue
                    key = (s1.buffer_id, overlap, s1.mode, s2.mode)
                    if key in seen:
                        continue
                    seen.add(key)
                    conflicts.append(Conflict(first.id, second.id, s1.buffer_id,
                                              overlap, (s1.mode, s2.mode)))
    # stable: each pair's own lines keep their order
    conflicts.sort(key=attrgetter("first", "second"))
    return conflicts


class TraceRecord(NamedTuple):
    id: int
    kind: str
    iteration: int
    queue: int
    vstart: int
    vend: int
    worker: int


@dataclass
class ExecutionTrace:
    records: list[TraceRecord] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)


def run(overlay, graph: TaskGraph, worker_count: int = 1,
        unsafe: bool = False) -> ExecutionTrace:
    """Execute the graph on the overlay's kernels and return its trace.

    worker_count is the number of virtual IP slots of _list_schedule.  When
    the loop starts a task, its body runs there and then, on the calling
    thread, and the flop count it returns sets the task's virtual end.  A
    failing body stops scheduling and is re-raised with the task id
    attached.  A task on a queue the overlay lacks raises InvocationError
    before any body runs.

    Unless unsafe is set, refuses to run a graph whose conflict report is
    non-empty, since unordered conflicting tasks would make results depend
    on the schedule.
    """
    if worker_count < 1:
        raise InvocationError(f"worker_count must be >= 1, got {worker_count}")
    if not unsafe:
        conflicts = check_dependence_sufficiency(graph)
        if conflicts:
            raise DependenceConflictError(conflicts)
    # one lookup per queue, before any body runs
    bodies = {q: overlay.interface(q).ip.run for q in {t.queue_no for t in graph.tasks}}
    fb = overlay.feature_buffer
    by_id = graph.by_id
    records: list[TraceRecord] = []

    def start(tid: int, clock: int, slot: int) -> int:
        _, kind, queue_no, iteration, args, access_sets = by_id[tid]
        try:
            flops = int(bodies[queue_no](args, fb))
        except Exception as exc:
            raise TaskExecutionError(tid, kind, iteration, access_sets) from exc
        duration = max(1, flops // VIRTUAL_TIME_DIVISOR)
        records.append(TraceRecord(tid, kind, iteration, queue_no, clock, clock + duration, slot))
        return duration

    _list_schedule(graph.succs, worker_count, start)
    if len(records) != len(graph.tasks):
        raise OverlayError("scheduler stalled with tasks remaining (graph inconsistent)")
    return ExecutionTrace(records=records, edges=graph.edge_pairs())


# --- trace files -----------------------------------------------------------
#
# One JSON object per task, in virtual-start order, then one closing object
# holding the edge list.  An empty trace is an empty file.

# TraceRecord's fields as the file spells them, in field order
_RECORD_KEYS = ("id", "kind", "iter", "queue", "vstart", "vend", "worker")


def emit_trace(trace: ExecutionTrace, path) -> None:
    lines = [json.dumps(dict(zip(_RECORD_KEYS, r))) for r in trace.records]
    if trace.records or trace.edges:
        lines.append(json.dumps({"edges": [list(e) for e in sorted(trace.edges)]}))
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def parse_trace(path) -> ExecutionTrace:
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        return ExecutionTrace()
    records: list[TraceRecord] = []
    edges: list[tuple[int, int]] = []
    saw_edges = False
    for lineno, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: not valid JSON") from exc
        if not isinstance(obj, dict):
            raise ParseError(f"{path}:{lineno}: expected a JSON object")
        if "edges" in obj:
            saw_edges = True
            if lineno != len(lines):
                raise ParseError(f"{path}:{lineno}: edges object must be the last line")
            if not isinstance(obj["edges"], list):
                raise ParseError(f"{path}:{lineno}: edges must be a list")
            for pair in obj["edges"]:
                if (not isinstance(pair, list) or len(pair) != 2
                        or not all(type(v) is int for v in pair)):
                    raise ParseError(f"{path}:{lineno}: bad edge entry {pair!r}")
                edges.append((pair[0], pair[1]))
            continue
        if set(obj) != set(_RECORD_KEYS):
            raise ParseError(f"{path}:{lineno}: record keys {sorted(obj)} do not match schema")
        if not isinstance(obj["kind"], str) or not all(
                type(obj[k]) is int for k in _RECORD_KEYS if k != "kind"):
            raise ParseError(f"{path}:{lineno}: record field types do not match schema")
        records.append(TraceRecord(*(obj[k] for k in _RECORD_KEYS)))
    if records and not saw_edges:
        raise ParseError(f"{path}: missing closing edges line")
    return ExecutionTrace(records=records, edges=edges)


def validate_trace(trace: ExecutionTrace) -> list[str]:
    """Check the trace invariants; returns human-readable violations (empty = valid)."""
    problems: list[str] = []
    by_id = {}
    for r in trace.records:
        if r.id in by_id:
            problems.append(f"task id {r.id} appears more than once")
        by_id[r.id] = r
        if r.vend < r.vstart:
            problems.append(f"task {r.id}: vend {r.vend} before vstart {r.vstart}")
        elif r.vend == r.vstart:
            problems.append(f"task {r.id}: zero length at vstart {r.vstart}")
        if r.worker < 0:
            problems.append(f"task {r.id}: worker {r.worker} is negative")
    starts = [r.vstart for r in trace.records]
    if starts != sorted(starts):
        problems.append("records are not in virtual-start order")
    for unit in ("queue", "worker"):
        groups: dict[int, list[TraceRecord]] = {}
        for r in trace.records:
            groups.setdefault(getattr(r, unit), []).append(r)
        for g, recs in groups.items():
            for a, b in zip(recs, recs[1:]):
                if a.vend > b.vstart:
                    problems.append(
                        f"{unit} {g}: tasks {a.id} and {b.id} overlap in virtual time")
                if unit == "queue" and a.id > b.id:
                    problems.append(f"queue {g}: tasks {a.id} and {b.id} violate FIFO order")
    for pre, dep in trace.edges:
        if pre not in by_id or dep not in by_id:
            problems.append(f"edge ({pre}, {dep}) references an unknown task")
            continue
        if by_id[pre].vend > by_id[dep].vstart:
            problems.append(
                f"edge ({pre}, {dep}): predecessor ends at {by_id[pre].vend}, "
                f"successor starts at {by_id[dep].vstart}")
    return problems

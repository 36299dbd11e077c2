"""The checker's promise, end to end: an empty conflict report guarantees
schedule-independent results.

That promise rests on the checker, on each IP's declared access sets and on
the kernels.  Two properties state it without pinning any literal:

- schedule independence: whenever the report on a random program is empty,
  every order the graph allows gives the same bytes;
- a footprint contract: a task's body reads nothing outside its declared
  access sets and writes nothing outside its declared write sets.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlaysim.apps import (
    LuProblem,
    dominant_matrix,
    lu_generate_tasks,
    lu_overlay,
    random_input,
    seeded_weights,
    tiny_config,
    vgg_generate_tasks,
    vgg_overlay,
)
from overlaysim.errors import CyclicDependenceError
from overlaysim.overlay import IP_REGISTRY, Overlay, command
from overlaysim.runtime import build_task_graph, check_dependence_sufficiency, depend, run
from overlaysim.tensors import READ, BlockView, TensorBuffer, bcropped

DTYPES = {"f32": np.float32, "f64": np.float64}


def buffers_of(tasks):
    """Every buffer a task argument views, each once, in first-use order."""
    found = {}
    for t in tasks:
        for arg in t.args:
            if isinstance(arg, BlockView):
                found.setdefault(arg.buffer.id, arg.buffer)
    return list(found.values())


class Program:
    """A task graph on its overlay, with the buffers' and the feature-buffer
    slot's starting state, so that one program runs again and again."""

    def __init__(self, overlay, tasks, graph):
        self.overlay, self.graph = overlay, graph
        self.fb = overlay.feature_buffer
        self.buffers = buffers_of(tasks)
        self.start = self.snapshot()

    def snapshot(self):
        slot = None if self.fb is None else self.fb.slot
        return [b.data.copy() for b in self.buffers], slot

    def restore(self, state):
        data, slot = state
        for buf, saved in zip(self.buffers, data):
            buf.data[...] = saved
        if self.fb is not None:
            self.fb.slot = slot

    def state_bytes(self):
        slot = None if self.fb is None else self.fb.slot
        return (tuple(b.data.tobytes() for b in self.buffers),
                None if slot is None else (slot.shape, slot.tobytes()))

    def run_body(self, task):
        self.overlay.interface(task.queue_no).ip.run(task.args, self.fb)

    def bytes_after_run(self, workers):
        self.restore(self.start)
        run(self.overlay, self.graph, workers, unsafe=True)
        return self.state_bytes()

    def bytes_after_extension(self, rng):
        """Run the bodies one by one in a random order the graph allows."""
        self.restore(self.start)
        preds = self.graph.preds
        waiting = {tid: len(preds[tid]) for tid in self.graph.by_id}
        ready = sorted(tid for tid, count in waiting.items() if not count)
        while ready:
            tid = ready.pop(rng.randrange(len(ready)))
            self.run_body(self.graph.by_id[tid])
            for nxt in set(self.graph.succs[tid]):
                waiting[nxt] -= 1
                if not waiting[nxt]:
                    ready.append(nxt)
        return self.state_bytes()


def assert_schedule_independent(overlay, tasks, rules, seed):
    """When the report is empty, workers 1, 2, 3 and 8 and four random
    linear extensions all give the same bytes."""
    try:
        graph = build_task_graph(tasks, rules)
    except CyclicDependenceError:
        return
    if check_dependence_sufficiency(graph):
        return
    program = Program(overlay, tasks, graph)
    rng = random.Random(seed)
    with np.errstate(all="ignore"):
        outcomes = [program.bytes_after_run(w) for w in (1, 2, 3, 8)]
        outcomes += [program.bytes_after_extension(rng) for _ in range(4)]
    assert all(o == outcomes[0] for o in outcomes[1:])


GEMM_KINDS = ("g0", "g1", "g2")


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_gemm_programs_are_schedule_independent(data):
    """Three GEMM queues on one 8x8 buffer: 2-8 updates C -= A B on random
    2x2 blocks (C apart from A and B) and 0-6 random rules."""
    buf = TensorBuffer(np.random.default_rng(data.draw(st.integers(0, 3)))
                       .uniform(-1.0, 1.0, (8, 8)))
    overlay = Overlay("gemm3", [command(IP_REGISTRY["GEMM"], q) for q in range(3)])
    block = st.tuples(st.integers(0, 3), st.integers(0, 3))
    tasks = []
    for _ in range(data.draw(st.integers(2, 8))):
        queue = data.draw(st.integers(0, 2))
        c = data.draw(block)
        a, b = (data.draw(block.filter(lambda blk: blk != c)) for _ in range(2))
        views = [bcropped(buf, 2, r, r, col, col) for r, col in (c, a, b)]
        tasks.append(overlay.enqueue(queue, views + [1.0, -1.0, 1.0],
                                     data.draw(st.integers(0, 3)), GEMM_KINDS[queue]))
    kind = st.sampled_from(GEMM_KINDS)
    rules = data.draw(st.lists(st.builds(depend, kind, kind, st.integers(0, 2)), max_size=6))
    assert_schedule_independent(overlay, tasks, rules, data.draw(st.integers(0, 2**16)))


def rule_subset(data, rules):
    dropped = data.draw(st.sets(st.sampled_from(range(len(rules))), max_size=2))
    return [r for k, r in enumerate(rules) if k not in dropped]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lu_programs_are_schedule_independent(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.sampled_from([2, 3, 4]))
    dtype = data.draw(st.sampled_from(list(DTYPES.values())))
    problem = LuProblem(dominant_matrix(n, m, data.draw(st.integers(0, 3)), dtype=dtype), n, m)
    overlay = lu_overlay()
    tasks, rules = lu_generate_tasks(problem, overlay)
    assert_schedule_independent(overlay, tasks, rule_subset(data, rules),
                                data.draw(st.integers(0, 2**16)))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_vgg_programs_are_schedule_independent(data):
    config = tiny_config(data.draw(st.integers(1, 2)))
    seed = data.draw(st.integers(0, 3))
    overlay = vgg_overlay()
    tasks, rules, _ = vgg_generate_tasks(config, random_input(config, seed),
                                         seeded_weights(config, seed + 1), overlay)
    assert_schedule_independent(overlay, tasks, rule_subset(data, rules),
                                data.draw(st.integers(0, 2**16)))


def declared_masks(program, task):
    """Per buffer, the elements the task declares it touches and those it
    declares it writes; and the slot's declared modes, if any."""
    cell = None if program.fb is None else program.fb.cell.buffer.id
    touched = {b.id: np.zeros(b.shape, bool) for b in program.buffers}
    written = {b.id: np.zeros(b.shape, bool) for b in program.buffers}
    slot_modes = set()
    for acc in task.access_sets:
        if acc.buffer_id == cell:
            slot_modes.add(acc.mode)
            continue
        index = tuple(slice(lo, hi) for lo, hi in acc.ranges)
        touched[acc.buffer_id][index] = True
        if acc.writes:
            written[acc.buffer_id][index] = True
    return touched, written, slot_modes


def bits(arr):
    return arr.view(f"u{arr.dtype.itemsize}")


def assert_footprints_hold(program):
    """Runs the tasks in topological order.  Each body runs twice: on the
    clean state, and on a copy that holds NaN in every element outside the
    task's declared access sets, the slot included.  Neither run changes an
    element outside the declared write sets; the clean run is checked too,
    since a NaN the body writes over a NaN changes no bit.  The poisoned run
    leaves the declared writes bit-identical to the clean run's."""
    program.restore(program.start)
    for tid in program.graph.topo_order:
        task = program.graph.by_id[tid]
        name = f"task {tid} ({task.kind})"
        before = program.snapshot()
        program.run_body(task)
        clean = program.snapshot()

        touched, written, slot_modes = declared_masks(program, task)
        program.restore(before)
        for buf in program.buffers:
            buf.data[~touched[buf.id]] = np.nan
        if not slot_modes and program.fb is not None and program.fb.slot is not None:
            program.fb.slot = np.full_like(program.fb.slot, np.nan)
        poisoned = program.snapshot()
        program.run_body(task)
        after = program.snapshot()

        for k, buf in enumerate(program.buffers):
            mask = written[buf.id]
            for was, now in ((before, clean), (poisoned, after)):
                outside = (bits(now[0][k]) != bits(was[0][k])) & ~mask
                assert not outside.any(), (
                    f"{name} wrote {np.argwhere(outside)[:3].tolist()} "
                    f"of buffer {buf.id} outside its declared writes")
            assert np.array_equal(bits(after[0][k])[mask], bits(clean[0][k])[mask]), (
                f"{name}: declared writes of buffer {buf.id} differ from a clean run's")
        if program.fb is not None:
            if slot_modes <= {READ}:
                assert clean[1] is before[1] and after[1] is poisoned[1], (
                    f"{name} replaced the slot")
            else:
                assert after[1].tobytes() == clean[1].tobytes(), (
                    f"{name}: slot differs from a clean run's")
        program.restore(clean)


@pytest.mark.parametrize("precision", sorted(DTYPES))
@pytest.mark.parametrize("n, m", [(3, 4), (4, 8), (2, 40), (3, 64)])
def test_lu_footprints(n, m, precision):
    problem = LuProblem(dominant_matrix(n, m, 5, dtype=DTYPES[precision]), n, m)
    overlay = lu_overlay()
    tasks, rules = lu_generate_tasks(problem, overlay)
    with np.errstate(all="ignore"):
        assert_footprints_hold(Program(overlay, tasks, build_task_graph(tasks, rules)))


@pytest.mark.parametrize("batch", [1, 3])
def test_vgg_footprints(batch):
    config = tiny_config(batch)
    overlay = vgg_overlay()
    tasks, rules, _ = vgg_generate_tasks(config, random_input(config, 2),
                                         seeded_weights(config, 3), overlay)
    with np.errstate(all="ignore"):
        assert_footprints_hold(Program(overlay, tasks, build_task_graph(tasks, rules)))

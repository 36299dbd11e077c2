"""Graph construction, conflict checking, scheduling, and trace handling."""

import dataclasses
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlaysim import errors
from overlaysim.apps import (
    LuProblem,
    dominant_matrix,
    lu_generate_tasks,
    lu_overlay,
    lu_rules,
    random_input,
    seeded_weights,
    tiny_config,
    vgg_generate_tasks,
    vgg_overlay,
)
from overlaysim.overlay import IpDescriptor, Overlay, command
from overlaysim.runtime import (
    build_task_graph,
    check_dependence_sufficiency,
    depend,
    emit_trace,
    parse_trace,
    run,
    validate_trace,
    DependenceRule,
    ExecutionTrace,
    GraphEdge,
    TaskGraph,
    TaskInstance,
    TraceRecord,
)
from overlaysim.tensors import MODES, AccessSet

from helpers import (
    element_level_races,
    noop_overlay,
    reference_conflicts,
    reference_topological_order,
    reference_virtual_schedule,
)


def lu_setup(n, m, seed=0, dtype=np.float64):
    problem = LuProblem(dominant_matrix(n, m, seed, dtype=dtype), n, m)
    overlay = lu_overlay()
    tasks, rules = lu_generate_tasks(problem, overlay)
    return problem, overlay, tasks, rules


class TestDepend:
    def test_negative_distance(self):
        with pytest.raises(errors.RuleError, match="must be >= 0, got -1"):
            depend("a", "b", -1)

    @pytest.mark.parametrize("distance", [1.5, "1", True])
    def test_distance_that_is_not_an_int(self, distance):
        """A float would match no iteration, a string cannot be subtracted and
        True would pass for 1: each is refused."""
        with pytest.raises(errors.RuleError, match="must be an int"):
            depend("factor", "update", distance)

    def test_rule_built_directly_is_checked(self):
        with pytest.raises(errors.RuleError, match="must be >= 0, got -1"):
            DependenceRule("a", "b", -1)

    @pytest.mark.parametrize("kinds", [(1, "b"), ("a", None)])
    def test_kind_that_is_not_a_str(self, kinds):
        """enqueue takes only str kinds, so such a rule could never match."""
        with pytest.raises(errors.RuleError, match="kinds must be str"):
            DependenceRule(*kinds, 0)


class TestBuildTaskGraph:
    def test_lu_n2_exact_rule_edges(self):
        _, _, tasks, rules = lu_setup(2, 2)
        graph = build_task_graph(tasks, rules)
        assert len(graph.tasks) == 5
        by_slot = {(t.kind, t.iteration): t.id for t in tasks}
        rule_edges = {(e.pre, e.dep) for e in graph.edges if e.provenance == "rule"}
        assert rule_edges == {
            (by_slot[("factor", 0)], by_slot[("row_solve", 0)]),
            (by_slot[("factor", 0)], by_slot[("col_solve", 0)]),
            (by_slot[("row_solve", 0)], by_slot[("update", 0)]),
            (by_slot[("col_solve", 0)], by_slot[("update", 0)]),
            (by_slot[("update", 0)], by_slot[("factor", 1)]),
        }
        queue_edges = {(e.pre, e.dep) for e in graph.edges if e.provenance == "queue-order"}
        assert queue_edges == {(by_slot[("factor", 0)], by_slot[("factor", 1)])}

    def test_two_cycle_detected(self):
        ov = noop_overlay(2)
        tasks = [ov.enqueue(0, [], 0, kind="a"), ov.enqueue(1, [], 0, kind="b")]
        rules = [depend("a", "b", 0), depend("b", "a", 0)]
        with pytest.raises(errors.CyclicDependenceError) as exc:
            build_task_graph(tasks, rules)
        assert len(exc.value.cycle) >= 2

    def test_no_rules_single_queue_chain(self):
        ov = noop_overlay(1)
        tasks = [ov.enqueue(0, [], i) for i in range(3)]
        graph = build_task_graph(tasks, [])
        assert graph.edge_pairs() == [(tasks[0].id, tasks[1].id), (tasks[1].id, tasks[2].id)]

    def test_missing_prerequisite_instance_no_edge(self):
        ov = noop_overlay(2)
        a = ov.enqueue(0, [], 0, kind="a")
        b = ov.enqueue(1, [], 0, kind="b")
        # rule points at iteration -2; no such instance, so no edge
        graph = build_task_graph([a, b], [depend("b", "a", 2)])
        assert graph.edge_pairs() == []

    def test_duplicate_task_ids_rejected(self):
        ov1, ov2 = noop_overlay(1), noop_overlay(1)
        t1 = ov1.enqueue(0, [], 0)
        t2 = ov2.enqueue(0, [], 0)  # fresh overlay restarts ids at 0
        assert t1.id == t2.id
        with pytest.raises(errors.InvocationError):
            build_task_graph([t1, t2], [])

    def test_rules_as_an_iterator_give_the_same_edges(self):
        """The rules are read once: a generator gives the list's edges."""
        _, _, tasks, rules = lu_setup(3, 2)
        graph = build_task_graph(tasks, (r for r in rules))
        assert graph.edges == build_task_graph(tasks, rules).edges
        assert sum(e.provenance == "rule" for e in graph.edges) == 10
        assert check_dependence_sufficiency(graph) == []

    def test_repeated_rule_counts_once(self):
        _, _, tasks, rules = lu_setup(3, 2)
        assert build_task_graph(tasks, rules + rules).edges == \
            build_task_graph(tasks, rules).edges

    @pytest.mark.parametrize("kind, witness", [("factor", [0, 0]), ("update", [3, 3]),
                                               ("row_solve", [1, 1])])
    def test_self_rule_is_a_cycle(self, kind, witness):
        """A rule that makes a task its own prerequisite gives a self-edge,
        which the graph reports as a cycle through that task alone."""
        _, _, tasks, rules = lu_setup(4, 2)
        with pytest.raises(errors.CyclicDependenceError) as exc:
            build_task_graph(tasks, rules + [depend(kind, kind, 0)])
        assert exc.value.cycle == witness


class TestTaskGraphInput:
    """A directly built TaskGraph checks its input as build_task_graph's does."""

    def test_duplicate_task_ids_rejected(self):
        tasks = [TaskInstance(tid, "k", 0, 0, ()) for tid in (0, 1, 0)]
        with pytest.raises(errors.InvocationError, match="duplicate task ids"):
            TaskGraph(tasks, [])

    @pytest.mark.parametrize("pre, dep", [(0, 7), (7, 0)])
    def test_edge_to_an_unknown_task_rejected(self, pre, dep):
        tasks = [TaskInstance(tid, "k", 0, 0, ()) for tid in (0, 1)]
        with pytest.raises(errors.InvocationError) as exc:
            TaskGraph(tasks, [GraphEdge(0, 1, "rule"), GraphEdge(pre, dep, "rule")])
        assert str(exc.value) == f"edge ({pre}, {dep}) references an unknown task"

    def test_self_edge_is_a_cycle(self):
        tasks = [TaskInstance(tid, "k", 0, 0, ()) for tid in range(4)]
        with pytest.raises(errors.CyclicDependenceError) as exc:
            TaskGraph(tasks, [GraphEdge(0, 1, "rule"), GraphEdge(2, 2, "rule")])
        assert exc.value.cycle == [2, 2]

    def test_cycle_witness_with_a_chord(self):
        """The walk starts at the lowest stuck id and steps back to the lowest
        stuck predecessor, so the chord (1, 3) cuts the three-cycle short."""
        tasks = [TaskInstance(tid, "k", 0, 0, ()) for tid in range(4)]
        pairs = [(1, 2), (2, 3), (3, 1), (1, 3)]
        with pytest.raises(errors.CyclicDependenceError) as exc:
            TaskGraph(tasks, [GraphEdge(a, b, "rule") for a, b in pairs])
        assert exc.value.cycle == [1, 3, 1]

    @pytest.mark.parametrize("pairs, witness", [
        ([(3, 0), (1, 3), (3, 1)], [3, 1, 3]),
        ([(4, 2), (2, 4), (4, 0), (0, 1)], [4, 2, 4]),
    ])
    def test_cycle_witness_with_a_lower_id_stuck_behind_it(self, pairs, witness):
        """Task 0 waits on the cycle, so it never starts either; the witness
        walks back from it into the cycle, through stuck tasks only."""
        tasks = [TaskInstance(tid, "k", 0, 0, ()) for tid in range(5)]
        with pytest.raises(errors.CyclicDependenceError) as exc:
            TaskGraph(tasks, [GraphEdge(a, b, "rule") for a, b in pairs])
        assert exc.value.cycle == witness


@given(st.data())
@settings(max_examples=60)
def test_distance_semantics(data):
    """Every rule edge joins iterations exactly distance apart."""
    n_kinds = data.draw(st.integers(1, 3))
    iters = data.draw(st.integers(1, 5))
    ov = noop_overlay(n_kinds)
    tasks = []
    for i in range(iters):
        for k in range(n_kinds):
            if data.draw(st.booleans()):
                tasks.append(ov.enqueue(k, [], i, kind=f"k{k}"))
    rules = []
    for dep_k in range(n_kinds):
        for pre_k in range(n_kinds):
            if pre_k < dep_k and data.draw(st.booleans()):
                rules.append(depend(f"k{dep_k}", f"k{pre_k}", 0))
            if data.draw(st.booleans()):
                rules.append(depend(f"k{dep_k}", f"k{pre_k}", data.draw(st.integers(1, 2))))
    graph = build_task_graph(tasks, rules)
    by_slot = {(t.kind, t.iteration): t for t in tasks}
    expected = set()
    for rule in rules:
        for t in tasks:
            if t.kind != rule.dependent_kind:
                continue
            pre = by_slot.get((rule.prerequisite_kind, t.iteration - rule.distance))
            if pre is not None:
                expected.add((pre.id, t.id))
    got = {(e.pre, e.dep) for e in graph.edges if e.provenance == "rule"}
    assert got == expected


class TestSufficiency:
    def test_disjoint_tasks_no_conflict(self):
        ov = lu_overlay()
        from overlaysim.tensors import new_buffer
        a = ov.enqueue(0, [new_buffer([2, 2], fill=1.0).view()], 0, kind="a")
        b = ov.enqueue(1, [new_buffer([2, 4], fill=1.0).view()], 0, kind="b")
        graph = build_task_graph([a, b], [])
        assert check_dependence_sufficiency(graph) == []

    def test_lu_rules_are_sufficient(self):
        _, _, tasks, rules = lu_setup(3, 2)
        graph = build_task_graph(tasks, rules)
        assert check_dependence_sufficiency(graph) == []

    def test_removing_cross_iteration_rule_exposes_diagonal_block(self):
        problem, _, tasks, rules = lu_setup(3, 4)
        weakened = [r for r in rules if not (r.dependent_kind == "factor"
                                             and r.prerequisite_kind == "update")]
        graph = build_task_graph(tasks, weakened)
        conflicts = check_dependence_sufficiency(graph)
        assert conflicts
        by_slot = {(t.kind, t.iteration): t.id for t in tasks}
        m = problem.m
        # the update at step 0 and the factor at step 1 collide on block (1,1)
        hits = [c for c in conflicts
                if {c.first, c.second} == {by_slot[("update", 0)], by_slot[("factor", 1)]}]
        assert hits
        assert hits[0].overlap == ((m, 2 * m), (m, 2 * m))
        assert hits[0].buffer_id == problem.a.id

    def test_conflict_is_frozen(self):
        _, _, tasks, rules = lu_setup(3, 2)
        weakened = [r for r in rules if r.dependent_kind != "factor"]
        conflict = check_dependence_sufficiency(build_task_graph(tasks, weakened))[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            conflict.first = 0

    def test_conflict_report_text(self):
        problem, _, tasks, rules = lu_setup(3, 2)
        weakened = [r for r in rules if not (r.dependent_kind == "factor"
                                             and r.prerequisite_kind == "update")]
        conflicts = check_dependence_sufficiency(build_task_graph(tasks, weakened))
        b = problem.a.id
        assert [c.describe() for c in conflicts] == [
            f"tasks 3 and 4 touch buffer {b} region [2,4) x [2,4) as read_write/read_write "
            "with no ordering",
            f"tasks 3 and 5 touch buffer {b} region [2,4) x [2,4) as read_write/read "
            "with no ordering",
            f"tasks 3 and 5 touch buffer {b} region [2,4) x [4,6) as read_write/read_write "
            "with no ordering",
            f"tasks 3 and 6 touch buffer {b} region [2,4) x [2,4) as read_write/read "
            "with no ordering",
            f"tasks 3 and 6 touch buffer {b} region [4,6) x [2,4) as read_write/read_write "
            "with no ordering",
            f"tasks 3 and 8 touch buffer {b} region [4,6) x [4,6) as read_write/read_write "
            "with no ordering",
            f"tasks 7 and 8 touch buffer {b} region [4,6) x [4,6) as read_write/read_write "
            "with no ordering",
        ]

    def test_agrees_with_element_level_brute_force(self):
        for n, m in [(2, 2), (3, 2), (3, 4)]:
            _, _, tasks, rules = lu_setup(n, m)
            graph = build_task_graph(tasks, rules)
            report = check_dependence_sufficiency(graph)
            races = element_level_races(graph)
            assert (len(report) == 0) == (len(races) == 0)
            assert races == set()

    def test_brute_force_agreement_on_weakened_rules(self):
        _, _, tasks, rules = lu_setup(3, 2)
        weakened = [r for r in rules if not (r.dependent_kind == "factor"
                                             and r.prerequisite_kind == "update")]
        graph = build_task_graph(tasks, weakened)
        report_pairs = {tuple(sorted((c.first, c.second)))
                        for c in check_dependence_sufficiency(graph)}
        races = {tuple(sorted(p)) for p in element_level_races(graph)}
        assert report_pairs == races
        assert report_pairs


class TestCheckerMatchesReference:
    """The bitset checker returns the quadratic reference's list, order included."""

    def test_rule_edge_from_higher_to_lower_id_orders_the_pair(self):
        writes = (AccessSet(0, ((0, 2),), "write"),)
        a = TaskInstance(0, "a", 0, 0, (), writes)
        b = TaskInstance(1, "b", 1, 0, (), writes)
        graph = build_task_graph([a, b], [depend("a", "b", 0)])
        assert graph.edge_pairs() == [(1, 0)]
        assert check_dependence_sufficiency(graph) == reference_conflicts(graph) == []

    # n=64: 253 tasks, and 63 to 9,828 conflicts with one rule dropped
    @pytest.mark.parametrize("n,m", [(3, 2), (4, 4), (64, 2)])
    @pytest.mark.parametrize("drop", range(5))
    def test_lu_with_one_rule_dropped(self, n, m, drop):
        _, _, tasks, rules = lu_setup(n, m)
        assert len(rules) == 5
        graph = build_task_graph(tasks, rules[:drop] + rules[drop + 1:])
        report = check_dependence_sufficiency(graph)
        assert report
        assert report == reference_conflicts(graph)

    @pytest.mark.parametrize("drop", range(10))
    def test_vgg_batch2_with_one_rule_dropped(self, drop):
        config = tiny_config(2)
        tasks, rules, _ = vgg_generate_tasks(config, random_input(config, 0),
                                             seeded_weights(config, 1), vgg_overlay())
        assert len(rules) == 10
        graph = build_task_graph(tasks, rules[:drop] + rules[drop + 1:])
        report = check_dependence_sufficiency(graph)
        assert report
        assert report == reference_conflicts(graph)

    def test_back_edge_keeps_the_later_pairs(self):
        """Task 1 has one descendant, as many as it has later tasks, but the
        descendant is task 0 through a back edge: the pair (1, 2) stays
        unordered and is reported."""
        writes = (AccessSet(0, ((0, 2),), "write"),)
        tasks = [TaskInstance(tid, "k", 0, 0, (), writes) for tid in range(3)]
        graph = TaskGraph(tasks, [GraphEdge(1, 0, "rule")])
        assert any(pre > dep for pre, dep in graph.edge_pairs())
        report = check_dependence_sufficiency(graph)
        assert [(c.first, c.second) for c in report] == [(0, 2), (1, 2)]
        assert report == reference_conflicts(graph)

    def test_report_follows_the_ids_not_the_topological_order(self):
        """The order [1, 0, 2, 3] meets the pair (1, 2) before (0, 3); the
        report still lists (0, 3) first."""
        a = (AccessSet(0, ((0, 2),), "write"),)
        b = (AccessSet(0, ((2, 4),), "write"),)
        tasks = [TaskInstance(tid, "k", 0, 0, (), sets)
                 for tid, sets in enumerate((b, a, a, b))]
        graph = TaskGraph(tasks, [GraphEdge(1, 0, "rule")])
        assert graph.topo_order == [1, 0, 2, 3]
        report = check_dependence_sufficiency(graph)
        assert [(c.first, c.second) for c in report] == [(0, 3), (1, 2)]
        assert report == reference_conflicts(graph)

    def test_back_edge_pair_names_the_lower_id_first(self):
        """Task 1 comes before task 0 in the order [1, 2, 0], and the two are
        unordered: the report names task 0 first, with its mode first."""
        tasks = [TaskInstance(0, "k", 0, 0, (), (AccessSet(0, ((0, 2),), "write"),)),
                 TaskInstance(1, "k", 0, 0, (), (AccessSet(0, ((1, 3),), "read"),)),
                 TaskInstance(2, "k", 0, 0, ())]
        graph = TaskGraph(tasks, [GraphEdge(2, 0, "rule")])
        assert graph.topo_order == [1, 2, 0]
        report = check_dependence_sufficiency(graph)
        assert [(c.first, c.second, c.overlap, c.modes) for c in report] == [
            (0, 1, ((1, 2),), ("write", "read"))]
        assert report == reference_conflicts(graph)


ACCESS_EXTENTS = {0: (4, 4), 1: (6,), 2: (1,)}  # buffer 2 is the one-cell feature buffer


def draw_access_set(data, buffers):
    buffer_id = data.draw(st.sampled_from(buffers))
    ranges = []
    for extent in ACCESS_EXTENTS[buffer_id]:
        lo = data.draw(st.integers(0, extent - 1))
        ranges.append((lo, data.draw(st.integers(lo + 1, extent))))
    return AccessSet(buffer_id, tuple(ranges), data.draw(st.sampled_from(MODES)))


def draw_random_graph(data, max_access_sets=3):
    """Random tasks, access sets and rules on up to 3 queues, with gaps in the
    ids and rule edges that run from a higher id to a lower one.  Each task's
    args are its own id."""
    n_kinds = data.draw(st.integers(2, 5))
    n_queues = data.draw(st.integers(2, 3))
    iters = data.draw(st.integers(1, 4))
    kind_queue = [data.draw(st.integers(0, n_queues - 1)) for _ in range(n_kinds)]
    # same-iteration rules follow a random rank of the kinds; the kinds that share
    # a queue keep their FIFO (id) order in it, so the graph stays acyclic
    rank = data.draw(st.permutations(range(n_kinds)))
    for q in range(n_queues):
        on_q = [k for k in range(n_kinds) if kind_queue[k] == q]
        for k, r in zip(on_q, sorted(rank[k] for k in on_q)):
            rank[k] = r

    buffers = data.draw(st.sampled_from([(0, 2), (0, 1, 2)]))
    present = st.sampled_from([True, True, True, False])
    slots = [(i, k) for i in range(iters) for k in range(n_kinds) if data.draw(present)]
    ids = sorted(data.draw(st.sets(st.integers(0, 200), min_size=len(slots),
                                   max_size=len(slots))))
    tasks = [TaskInstance(tid, f"k{k}", kind_queue[k], i, (tid,),
                          tuple(draw_access_set(data, buffers)
                                for _ in range(data.draw(st.integers(0, max_access_sets)))))
             for tid, (i, k) in zip(ids, slots)]
    rules = []
    for dep_k in range(n_kinds):
        for pre_k in range(n_kinds):
            if rank[pre_k] < rank[dep_k] and data.draw(st.booleans()):
                rules.append(depend(f"k{dep_k}", f"k{pre_k}", 0))
            if data.draw(st.booleans()):
                rules.append(depend(f"k{dep_k}", f"k{pre_k}", data.draw(st.integers(1, 2))))
    return build_task_graph(tasks, rules)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_checker_matches_reference_on_random_graphs(data):
    graph = draw_random_graph(data)
    assert check_dependence_sufficiency(graph) == reference_conflicts(graph)


def draw_linked_graph(data, ranked):
    """Tasks with gaps in the ids on a chain of links, some left out, plus
    random edges.  The chain and the edges follow the ids, or with ranked a
    random rank of them, so that many edges run from a higher id to a lower
    one.  Links make tasks ordered with every later one common; the links
    left out and the random edges leave other pairs unordered."""
    ids = sorted(data.draw(st.sets(st.integers(0, 60), min_size=1, max_size=14)))
    chain = data.draw(st.permutations(ids)) if ranked else ids
    rank = {tid: i for i, tid in enumerate(chain)}
    linked = st.sampled_from([True, True, False])
    pairs = [(a, b) for a, b in zip(chain, chain[1:]) if data.draw(linked)]
    pairs += [(a, b) for a, b in data.draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=20))
        if rank[a] < rank[b]]
    tasks = [TaskInstance(tid, "k", 0, 0, (tid,),
                          tuple(draw_access_set(data, (0, 1))
                                for _ in range(data.draw(st.integers(0, 2)))))
             for tid in ids]
    return TaskGraph(tasks, [GraphEdge(a, b, "rule") for a, b in pairs])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_checker_matches_reference_on_forward_graphs(data):
    graph = draw_linked_graph(data, ranked=False)
    assert all(pre < dep for pre, dep in graph.edge_pairs())
    assert check_dependence_sufficiency(graph) == reference_conflicts(graph)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_checker_matches_reference_on_ranked_graphs(data):
    """The topological order often differs from the id order, so the
    checker meets unordered pairs higher id first and out of the report's
    order."""
    graph = draw_linked_graph(data, ranked=True)
    assert check_dependence_sufficiency(graph) == reference_conflicts(graph)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_topological_order_matches_kahn_reference(data):
    """TaskGraph's order is the heap-based Kahn pass's on random graphs with
    gaps in the ids, whether every edge runs forward (the sorted-ids
    shortcut), edges follow a random rank (back edges, no cycle) or edges
    are arbitrary (often a cycle, which is rejected with a witness)."""
    ids = data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=16, unique=True))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                               max_size=30))
    shape = data.draw(st.sampled_from(["forward", "ranked", "arbitrary"]))
    if shape == "forward":
        pairs = [(a, b) for a, b in pairs if a < b]
    elif shape == "ranked":
        rank = dict(zip(ids, data.draw(st.permutations(range(len(ids))))))
        pairs = [(a, b) for a, b in pairs if rank[a] < rank[b]]
    tasks = [TaskInstance(tid, "k", 0, 0, (tid,)) for tid in ids]
    edges = [GraphEdge(a, b, data.draw(st.sampled_from(["rule", "queue-order"])))
             for a, b in pairs]
    expected = reference_topological_order(ids, pairs)
    if len(expected) < len(ids):
        with pytest.raises(errors.CyclicDependenceError) as exc:
            TaskGraph(tasks, edges)
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(zip(cycle, cycle[1:])) <= set(pairs)
        return
    graph = TaskGraph(tasks, edges)
    assert graph.topo_order == expected
    assert graph.edge_pairs() == sorted(set(pairs))
    assert sorted((a, b) for a, deps in graph.succs.items() for b in deps) == sorted(pairs)


def assert_adjacency_matches_edges(graph):
    """succs lists each edge's successor once, in edge order, and preds,
    edge_pairs() and topo_order equal references built from the edges."""
    pairs = {(e.pre, e.dep) for e in graph.edges}
    preds = {tid: set() for tid in graph.by_id}
    for pre, dep in pairs:
        preds[dep].add(pre)
    assert graph.succs == {tid: [e.dep for e in graph.edges if e.pre == tid]
                           for tid in graph.by_id}
    assert graph.preds == preds
    assert graph.edge_pairs() == sorted(pairs)
    assert graph.topo_order == reference_topological_order(list(graph.by_id), pairs)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_adjacency_matches_the_edges_on_random_graphs(data):
    """Random graphs with back edges, where a rule edge may also join two
    tasks that queue order joins already."""
    assert_adjacency_matches_edges(draw_random_graph(data, max_access_sets=0))


def test_rule_and_queue_order_edge_on_one_pair_count_once():
    tasks = [TaskInstance(tid, kind, 0, 0, ()) for tid, kind in enumerate("abc")]
    graph = build_task_graph(tasks, [depend("b", "a", 0), depend("c", "a", 0)])
    assert sorted(graph.edges) == [(0, 1, "queue-order"), (0, 1, "rule"),
                                   (0, 2, "rule"), (1, 2, "queue-order")]
    assert graph.succs == {0: [1, 2, 1], 1: [2], 2: []}
    assert graph.preds == {0: set(), 1: {0}, 2: {0, 1}}
    assert_adjacency_matches_edges(graph)


@pytest.mark.parametrize("app", ["lu", "vgg"])
def test_build_and_run_leave_preds_unbuilt(app):
    """preds is derived only when read: neither the build, the check nor a
    run reads it."""
    if app == "lu":
        _, overlay, tasks, rules = lu_setup(4, 2)
    else:
        cfg = tiny_config(batch=2)
        overlay = vgg_overlay()
        tasks, rules, _ = vgg_generate_tasks(cfg, random_input(cfg, 0),
                                             seeded_weights(cfg, 1), overlay)
    graph = build_task_graph(tasks, rules)
    assert "preds" not in vars(graph)
    run(overlay, graph, worker_count=2)
    assert "preds" not in vars(graph)
    assert graph.preds is graph.preds
    assert "preds" in vars(graph)


def test_wide_fan_out_builds_in_linear_time():
    """One task ordered before 50 000 others by a rule edge and a queue-order
    edge each: a dedupe that scanned a task's successors for every new edge
    would take more than a billion comparisons here."""
    n = 50_000
    tasks = [TaskInstance(tid, "k", 0, 0, ()) for tid in range(n + 1)]
    edges = [GraphEdge(0, dep, provenance)
             for provenance in ("rule", "queue-order") for dep in range(1, n + 1)]
    start = time.perf_counter()
    graph = TaskGraph(tasks, edges)
    assert time.perf_counter() - start < 1.0
    assert graph.succs[0] == list(range(1, n + 1)) * 2
    assert graph.edge_pairs() == [(0, dep) for dep in range(1, n + 1)]


def assert_repeated_edges_change_nothing(data, tasks, edges):
    """TaskGraph(tasks, edges + repeats), the repeats drawn from the edges
    themselves in any order, gives what TaskGraph(tasks, edges) gives: the
    same topo_order or cycle witness, edge_pairs(), preds and conflict
    report, and the same run() trace at 1, 2, 3 and 8 workers."""
    repeats = data.draw(st.lists(st.sampled_from(edges), max_size=2 * len(edges))
                        if edges else st.just([]))
    try:
        graph = TaskGraph(tasks, edges)
    except errors.CyclicDependenceError as exc:
        with pytest.raises(errors.CyclicDependenceError) as twin_exc:
            TaskGraph(tasks, edges + repeats)
        assert twin_exc.value.cycle == exc.cycle
        return
    twin = TaskGraph(tasks, edges + repeats)
    assert twin.topo_order == graph.topo_order
    assert twin.edge_pairs() == graph.edge_pairs()
    assert twin.preds == graph.preds
    assert check_dependence_sufficiency(twin) == check_dependence_sufficiency(graph)
    overlay = flops_overlay(draw_tied_flops(data, graph))
    for workers in (1, 2, 3, 8):
        assert (run(overlay, twin, workers, unsafe=True)
                == run(overlay, graph, workers, unsafe=True))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_repeated_edges_change_nothing_on_random_graphs(data):
    """Rule and queue-order edges of generated tasks, with back edges."""
    graph = draw_random_graph(data)
    assert_repeated_edges_change_nothing(data, graph.tasks, graph.edges)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_repeated_edges_change_nothing_on_arbitrary_graphs(data):
    """Arbitrary edges, self-edges included, which often close a cycle."""
    ids = data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True))
    tasks = [TaskInstance(tid, "k", data.draw(st.integers(0, 2)), 0, (tid,),
                          tuple(draw_access_set(data, (0, 1))
                                for _ in range(data.draw(st.integers(0, 2)))))
             for tid in ids]
    edges = [GraphEdge(a, b, data.draw(st.sampled_from(["rule", "queue-order"])))
             for a, b in data.draw(st.lists(st.tuples(st.sampled_from(ids),
                                                       st.sampled_from(ids)), max_size=20))]
    assert_repeated_edges_change_nothing(data, tasks, edges)


class TestTaskInstance:
    def test_fields_default_and_repr(self):
        t = TaskInstance(3, "k", 1, 2, ("a",))
        assert TaskInstance._fields == ("id", "kind", "queue_no", "iteration", "args",
                                        "access_sets")
        assert t.access_sets == ()
        assert repr(t) == ("TaskInstance(id=3, kind='k', queue_no=1, iteration=2, "
                           "args=('a',), access_sets=())")
        assert t == TaskInstance(3, "k", 1, 2, ("a",), ()) and hash(t) == hash(
            TaskInstance(3, "k", 1, 2, ("a",), ()))
        with pytest.raises(AttributeError):
            t.kind = "other"

    def test_every_task_has_its_own_args_tuple(self):
        """One args object per task, for LU and for VGG, so a kernel call can
        be mapped back to its task by the identity of its args."""
        _, _, lu_tasks, _ = lu_setup(4, 2)
        config = tiny_config(3)
        vgg_tasks, _, _ = vgg_generate_tasks(config, random_input(config, 0),
                                             seeded_weights(config, 1), vgg_overlay())
        for tasks in (lu_tasks, vgg_tasks):
            assert len({id(t.args) for t in tasks}) == len(tasks)


def flops_overlay(flops):
    """Three queues whose kernels return the flops given for the task id in args[0]."""
    return Overlay("flops", [
        command(IpDescriptor(f"Flops{q}", ("scalar",), lambda args, fb: flops[args[0]],
                             lambda args, fb: ()), q)
        for q in range(3)])


def draw_tied_flops(data, graph):
    """Flops per task from a small set, so that virtual end times tie."""
    return {tid: data.draw(st.sampled_from([0, 1_000_000, 2_000_000, 7_000_000]))
            for tid in sorted(graph.by_id)}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_replay_matches_reference_on_random_graphs(data):
    """run() returns the queue-scanning reference's records, order included,
    for kernels that return the drawn flops.  A serial run follows topo_order."""
    graph = draw_random_graph(data, max_access_sets=0)
    flops = draw_tied_flops(data, graph)
    overlay = flops_overlay(flops)
    for workers in (1, 2, 3, 8):
        assert (run(overlay, graph, worker_count=workers).records
                == reference_virtual_schedule(graph, flops, workers))
    trace = run(noop_overlay(3), graph, worker_count=1)
    assert [r.id for r in trace.records] == graph.topo_order


def recording_overlay(overlay, calls):
    """The overlay's kernels, each call first appending (args, fb, thread ident) to calls."""
    def recorded(ip):
        def body(args, fb):
            calls.append((args, fb, threading.get_ident()))
            return ip.run(args, fb)
        return IpDescriptor(ip.name, ip.signature, body, ip.access_sets,
                            ip.uses_feature_buffer)
    return Overlay(overlay.name, [command(recorded(iface.ip), q)
                                  for q, iface in sorted(overlay.interfaces.items())])


class TestRun:
    def test_virtual_times_of_a_small_lu_are_pinned(self):
        """Literal times, so that neither the divisor nor the default slot
        count can move unseen: at m = 100 the update's 2e6 flops last 2 units,
        and at the default single slot the two panel solves run one after the
        other."""
        _, overlay, tasks, rules = lu_setup(2, 100)
        trace = run(overlay, build_task_graph(tasks, rules))
        assert trace.records == [
            TraceRecord(0, "factor", 0, 0, 0, 1, 0),
            TraceRecord(1, "row_solve", 0, 1, 1, 2, 0),
            TraceRecord(2, "col_solve", 0, 2, 2, 3, 0),
            TraceRecord(3, "update", 0, 3, 3, 5, 0),
            TraceRecord(4, "factor", 1, 0, 5, 6, 0),
        ]

    def test_single_queue_runs_in_enqueue_order(self):
        ov = noop_overlay(1)
        tasks = [ov.enqueue(0, [], i) for i in range(3)]
        graph = build_task_graph(tasks, [])
        trace = run(ov, graph, worker_count=2)
        assert [r.id for r in trace.records] == [t.id for t in tasks]

    def test_lu_trace_is_linear_extension(self):
        _, overlay, tasks, rules = lu_setup(2, 2)
        graph = build_task_graph(tasks, rules)
        trace = run(overlay, graph, worker_count=4)
        assert len(trace.records) == 5
        assert sorted(r.id for r in trace.records) == [0, 1, 2, 3, 4]
        assert validate_trace(trace) == []
        by_slot = {(t.kind, t.iteration): t.id for t in tasks}
        pos = {r.id: i for i, r in enumerate(trace.records)}
        # the update of step 0 never precedes its row solve
        assert pos[by_slot[("update", 0)]] > pos[by_slot[("row_solve", 0)]]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_count_does_not_change_results(self, workers):
        problem, overlay, tasks, rules = lu_setup(4, 4, seed=9)
        graph = build_task_graph(tasks, rules)
        run(overlay, graph, worker_count=workers)
        reference_problem, ref_overlay, ref_tasks, ref_rules = lu_setup(4, 4, seed=9)
        ref_graph = build_task_graph(ref_tasks, ref_rules)
        run(ref_overlay, ref_graph, worker_count=2)
        np.testing.assert_array_equal(problem.a.data, reference_problem.a.data)

    def test_kernel_failure_reports_task_id(self):
        overlay = lu_overlay()
        from overlaysim.tensors import TensorBuffer
        buf = TensorBuffer(np.array([[0.0, 1.0], [1.0, 0.0]]))
        problem = LuProblem(buf, 1, 2)
        tasks, rules = lu_generate_tasks(problem, overlay)
        graph = build_task_graph(tasks, rules)
        with pytest.raises(errors.TaskExecutionError) as exc:
            run(overlay, graph, worker_count=2)
        assert exc.value.task_id == tasks[0].id
        assert isinstance(exc.value.__cause__, errors.SingularPivotError)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_failure_starts_no_dependent_task(self, workers):
        """A raising task in a FIFO chain: neither its queue follower nor its
        rule successor on another queue ever runs."""
        class Boom(Exception):
            pass

        ran = []

        def tagged(args, fb):
            ran.append(args[0])
            if args[0] == 1:
                raise Boom("task body failed")
            return 1

        ov = Overlay("tagged", [
            command(IpDescriptor(f"Tagged{q}", ("scalar",), tagged, lambda args, fb: ()), q)
            for q in range(2)])
        chain = [ov.enqueue(0, [i], i, kind="step") for i in range(3)]
        after = ov.enqueue(1, [3], 1, kind="after")
        graph = build_task_graph(chain + [after], [depend("after", "step", 0)])
        assert (1, after.id) in graph.edge_pairs()
        with pytest.raises(errors.TaskExecutionError) as exc:
            run(ov, graph, worker_count=workers)
        assert (exc.value.task_id, exc.value.kind) == (1, "step")
        assert str(exc.value) == "task 1 (step) failed"
        assert isinstance(exc.value.__cause__, Boom)
        assert sorted(ran) == [0, 1]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bodies_run_on_calling_thread_in_trace_order(self, workers):
        calls = []
        problem = LuProblem(dominant_matrix(4, 2, 0), 4, 2)
        overlay = recording_overlay(lu_overlay(), calls)
        tasks, rules = lu_generate_tasks(problem, overlay)
        trace = run(overlay, build_task_graph(tasks, rules), worker_count=workers)
        task_of = {id(t.args): t.id for t in tasks}
        assert [task_of[id(args)] for args, _, _ in calls] == [r.id for r in trace.records]
        assert {ident for _, _, ident in calls} == {threading.get_ident()}

    @pytest.mark.parametrize("app", ["lu", "vgg"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_body_gets_its_tasks_own_args_and_the_feature_buffer(self, app, workers):
        """run() calls each body once per task, in trace order, with the task's
        own args object (kernel spans are matched to tasks by id(args)) and
        the overlay's feature buffer."""
        calls = []
        overlay = recording_overlay(lu_overlay() if app == "lu" else vgg_overlay(), calls)
        if app == "lu":
            tasks, rules = lu_generate_tasks(LuProblem(dominant_matrix(3, 2, 0), 3, 2), overlay)
        else:
            cfg = tiny_config(batch=2)
            tasks, rules, _ = vgg_generate_tasks(cfg, random_input(cfg, 0),
                                                 seeded_weights(cfg, 1), overlay)
            assert overlay.feature_buffer is not None
        by_id = {t.id: t for t in tasks}
        trace = run(overlay, build_task_graph(tasks, rules), worker_count=workers)
        assert len(calls) == len(tasks) == len(trace.records)
        for (args, fb, _), record in zip(calls, trace.records):
            assert args is by_id[record.id].args
            assert fb is overlay.feature_buffer

    def test_unsafe_run_is_deterministic(self):
        """Without the factor<-update rule the LU tasks race on the diagonal
        blocks; an unsafe run still gives the same bits every time."""
        results = []
        for _ in range(2):
            problem, overlay, tasks, rules = lu_setup(4, 2, seed=3)
            weakened = [r for r in rules if not (r.dependent_kind == "factor"
                                                 and r.prerequisite_kind == "update")]
            graph = build_task_graph(tasks, weakened)
            assert check_dependence_sufficiency(graph)
            run(overlay, graph, worker_count=2, unsafe=True)
            results.append(problem.a.data.tobytes())
        assert results[0] == results[1]

    def test_conflicting_graph_refused_without_unsafe(self):
        _, overlay, tasks, rules = lu_setup(3, 2)
        weakened = [r for r in rules if not (r.dependent_kind == "factor"
                                             and r.prerequisite_kind == "update")]
        graph = build_task_graph(tasks, weakened)
        with pytest.raises(errors.DependenceConflictError):
            run(overlay, graph, worker_count=2)
        # unsafe override executes anyway
        _, overlay2, tasks2, _ = lu_setup(3, 2)
        graph2 = build_task_graph(tasks2, weakened)
        trace = run(overlay2, graph2, worker_count=1, unsafe=True)
        assert len(trace.records) == len(tasks2)

    def test_huge_worker_count_allocates_no_more_slots_than_tasks(self):
        _, overlay, tasks, rules = lu_setup(2, 2)
        expected = run(overlay, build_task_graph(tasks, rules), len(tasks)).records
        _, overlay, tasks, rules = lu_setup(2, 2)
        graph = build_task_graph(tasks, rules)
        tracemalloc.start()
        try:
            records = run(overlay, graph, worker_count=10**6).records
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert records == expected
        assert peak < 2**20

    def test_bad_worker_count(self):
        ov = noop_overlay(1)
        graph = build_task_graph([ov.enqueue(0, [], 0)], [])
        with pytest.raises(errors.InvocationError, match="^worker_count must be >= 1, got 0$"):
            run(ov, graph, worker_count=0)

    def test_unknown_queue_raises_before_any_body(self):
        ran = []
        ov = noop_overlay(2)
        graph = build_task_graph([ov.enqueue(q, [], 0, kind=f"q{q}") for q in (0, 1)], [])
        record = IpDescriptor("Record", (), lambda args, fb: ran.append(1) or 1,
                              lambda args, fb: ())
        one_queue = Overlay("one", [command(record, 0)])
        with pytest.raises(errors.InvocationError, match="has no queue 1"):
            run(one_queue, graph)
        assert ran == []

    def test_serial_schedule_is_back_to_back_on_worker_zero(self):
        _, overlay, tasks, rules = lu_setup(3, 2)
        graph = build_task_graph(tasks, rules)
        trace = run(overlay, graph, worker_count=1)
        assert all(r.worker == 0 for r in trace.records)
        for a, b in zip(trace.records, trace.records[1:]):
            assert a.vend == b.vstart

    def test_edge_added_after_construction_stalls_the_run(self):
        """A back edge appended to succs after the cycle check leaves tasks
        1 and 2 waiting on each other: only task 0 runs."""
        ran = []
        ov = Overlay("tagged", [command(IpDescriptor(
            "Tagged", ("scalar",), lambda args, fb: ran.append(args[0]) or 1,
            lambda args, fb: ()), 0)])
        graph = build_task_graph([ov.enqueue(0, [i], i) for i in range(3)], [])
        graph.succs[2].append(1)
        with pytest.raises(errors.OverlayError, match="scheduler stalled"):
            run(ov, graph, worker_count=2)
        assert ran == [0]

    def test_queue_intervals_disjoint_and_fifo(self):
        _, overlay, tasks, rules = lu_setup(4, 2)
        graph = build_task_graph(tasks, rules)
        trace = run(overlay, graph, worker_count=3)
        recs = {}
        for r in trace.records:
            recs.setdefault(r.queue, []).append(r)
        for q, rs in recs.items():
            for a, b in zip(rs, rs[1:]):
                assert a.vend <= b.vstart
                assert a.id < b.id


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_scheduler_soundness_on_random_graphs(data):
    """Traces are linear extensions with serial queues, for arbitrary acyclic rule sets."""
    n_kinds = data.draw(st.integers(1, 4))
    n_queues = data.draw(st.integers(1, 3))
    iters = data.draw(st.integers(1, 4))
    kind_queue = {k: data.draw(st.integers(0, n_queues - 1)) for k in range(n_kinds)}
    ov = noop_overlay(n_queues)
    tasks = []
    for i in range(iters):
        for k in range(n_kinds):
            if data.draw(st.booleans()):
                tasks.append(ov.enqueue(kind_queue[k], [], i, kind=f"k{k}"))
    if not tasks:
        tasks.append(ov.enqueue(0, [], 0, kind="k0"))
    rules = []
    for dep_k in range(n_kinds):
        for pre_k in range(dep_k):
            if data.draw(st.booleans()):
                rules.append(depend(f"k{dep_k}", f"k{pre_k}", 0))
        if data.draw(st.booleans()):
            rules.append(depend(f"k{dep_k}", f"k{data.draw(st.integers(0, n_kinds - 1))}",
                                data.draw(st.integers(1, 2))))
    graph = build_task_graph(tasks, rules)
    workers = data.draw(st.sampled_from([1, 2, 3, 8]))
    trace = run(ov, graph, worker_count=workers)

    assert sorted(r.id for r in trace.records) == sorted(t.id for t in tasks)
    assert validate_trace(trace) == []
    finish = {r.id: r.vend for r in trace.records}
    start = {r.id: r.vstart for r in trace.records}
    for pre, dep in graph.edge_pairs():
        assert finish[pre] <= start[dep]


class TestTraceFiles:
    def test_emit_trace_golden_bytes(self, tmp_path):
        trace = ExecutionTrace(
            records=[TraceRecord(0, "factor", 0, 0, 0, 3, 0),
                     TraceRecord(1, "pool[2]", 4, 1, 3, 4, 1)],
            edges=[(0, 1)])
        path = tmp_path / "t.trace"
        emit_trace(trace, path)
        assert path.read_bytes() == (
            b'{"id": 0, "kind": "factor", "iter": 0, "queue": 0, "vstart": 0, "vend": 3, '
            b'"worker": 0}\n'
            b'{"id": 1, "kind": "pool[2]", "iter": 4, "queue": 1, "vstart": 3, "vend": 4, '
            b'"worker": 1}\n'
            b'{"edges": [[0, 1]]}\n')

    def test_record_and_edge_fields(self):
        rec = TraceRecord(1, "k", 2, 3, 4, 5, 6)
        assert (rec.id, rec.kind, rec.iteration, rec.queue, rec.vstart, rec.vend,
                rec.worker) == (1, "k", 2, 3, 4, 5, 6)
        assert TraceRecord._fields == ("id", "kind", "iteration", "queue", "vstart", "vend",
                                       "worker")
        edge = GraphEdge(7, 8, "rule")
        assert (edge.pre, edge.dep, edge.provenance) == (7, 8, "rule")
        assert GraphEdge._fields == ("pre", "dep", "provenance")

    def test_empty_trace_empty_file(self, tmp_path):
        path = tmp_path / "t.trace"
        emit_trace(ExecutionTrace(), path)
        assert path.read_text() == ""
        assert parse_trace(path).records == []

    def test_one_record_without_edges_round_trips(self, tmp_path):
        trace = ExecutionTrace([TraceRecord(0, "k", 0, 0, 0, 1, 0)], [])
        path = tmp_path / "t.trace"
        emit_trace(trace, path)
        assert parse_trace(path) == trace

    def test_lu_n2_trace_has_five_records(self, tmp_path):
        _, overlay, tasks, rules = lu_setup(2, 2)
        graph = build_task_graph(tasks, rules)
        trace = run(overlay, graph, worker_count=2)
        path = tmp_path / "t.trace"
        emit_trace(trace, path)
        back = parse_trace(path)
        assert sorted(r.id for r in back.records) == [0, 1, 2, 3, 4]
        assert back.records == trace.records
        assert back.edges == trace.edges

    @pytest.mark.parametrize("app", ["lu", "vgg"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_run_trace_round_trips(self, tmp_path, app, workers):
        if app == "lu":
            _, overlay, tasks, rules = lu_setup(5, 2)
        else:
            cfg, overlay = tiny_config(batch=2), vgg_overlay()
            tasks, rules, _ = vgg_generate_tasks(cfg, random_input(cfg, 0),
                                                 seeded_weights(cfg, 1), overlay)
        trace = run(overlay, build_task_graph(tasks, rules), worker_count=workers)
        path = tmp_path / "t.trace"
        emit_trace(trace, path)
        assert parse_trace(path) == trace

    def test_edges_respect_virtual_times(self, tmp_path):
        _, overlay, tasks, rules = lu_setup(3, 2)
        graph = build_task_graph(tasks, rules)
        trace = run(overlay, graph, worker_count=4)
        path = tmp_path / "t.trace"
        emit_trace(trace, path)
        back = parse_trace(path)
        vend = {r.id: r.vend for r in back.records}
        vstart = {r.id: r.vstart for r in back.records}
        for pre, dep in back.edges:
            assert vend[pre] <= vstart[dep]

    def test_record_field_order_is_deterministic(self, tmp_path):
        ov = noop_overlay(1)
        graph = build_task_graph([ov.enqueue(0, [], 0, kind="k")], [])
        trace = run(ov, graph)
        path = tmp_path / "t.trace"
        emit_trace(trace, path)
        first = path.read_text().splitlines()[0]
        assert first.index('"id"') < first.index('"kind"') < first.index('"iter"')

    def test_parse_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("{oops\n")
        with pytest.raises(errors.ParseError) as exc:
            parse_trace(path)
        assert str(exc.value) == f"{path}:1: not valid JSON"

    def test_parse_rejects_missing_edges_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"id":0,"kind":"k","iter":0,"queue":0,"vstart":0,"vend":1,"worker":0}\n')
        with pytest.raises(errors.ParseError):
            parse_trace(path)

    def test_parse_rejects_wrong_keys(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"id":0,"kind":"k"}\n{"edges":[]}\n')
        with pytest.raises(errors.ParseError) as exc:
            parse_trace(path)
        assert str(exc.value) == f"{path}:1: record keys ['id', 'kind'] do not match schema"

    @pytest.mark.parametrize("text, message", [
        ('[0, 1]\n{"edges": []}\n', ":1: expected a JSON object"),
        ('{"edges": []}\n{"id":0,"kind":"k","iter":0,"queue":0,"vstart":0,"vend":1,'
         '"worker":0}\n', ":1: edges object must be the last line"),
        ('{"id":0,"kind":"k","iter":0,"queue":0,"vstart":0,"vend":1,"worker":0}\n'
         '{"edges": {"0": 1}}\n', ":2: edges must be a list"),
        ('{"edges": [[1, 2, 3]]}\n', ":1: bad edge entry [1, 2, 3]"),
    ], ids=["not-an-object", "edges-not-last", "edges-not-a-list", "three-element-edge"])
    def test_parse_rejects_misplaced_or_mistyped_lines(self, tmp_path, text, message):
        path = tmp_path / "bad.trace"
        path.write_text(text)
        with pytest.raises(errors.ParseError) as exc:
            parse_trace(path)
        assert str(exc.value) == f"{path}{message}"

    @pytest.mark.parametrize("text, lineno", [
        ('{"id":true,"kind":"k","iter":0,"queue":0,"vstart":0,"vend":1,"worker":false}\n'
         '{"edges":[]}\n', 1),
        ('{"id":0,"kind":"k","iter":0,"queue":0,"vstart":0,"vend":1,"worker":0}\n'
         '{"edges":[[0,true]]}\n', 2),
    ], ids=["record", "edge"])
    def test_parse_rejects_booleans_as_integers(self, tmp_path, text, lineno):
        path = tmp_path / "bad.trace"
        path.write_text(text)
        with pytest.raises(errors.ParseError, match=f":{lineno}: "):
            parse_trace(path)

    def test_validate_catches_swapped_times(self):
        rec = TraceRecord(0, "k", 0, 0, 5, 2, 0)
        problems = validate_trace(ExecutionTrace([rec], []))
        assert any("before vstart" in p for p in problems)

    def test_validate_catches_queue_overlap(self):
        rs = [TraceRecord(0, "k", 0, 0, 0, 5, 0), TraceRecord(1, "k", 1, 0, 3, 6, 1)]
        problems = validate_trace(ExecutionTrace(rs, []))
        assert any("overlap" in p for p in problems)

    def test_validate_catches_worker_overlap_across_queues(self):
        rs = [TraceRecord(3, "k", 0, 0, 0, 10, 0), TraceRecord(5, "k", 0, 1, 5, 8, 0)]
        problems = validate_trace(ExecutionTrace(rs, []))
        assert problems == ["worker 0: tasks 3 and 5 overlap in virtual time"]

    def test_validate_accepts_back_to_back_on_one_worker(self):
        rs = [TraceRecord(0, "k", 0, 0, 0, 5, 0), TraceRecord(1, "k", 0, 1, 5, 8, 0)]
        assert validate_trace(ExecutionTrace(rs, [])) == []

    def test_validate_catches_zero_length_records(self):
        rs = [TraceRecord(0, "k", 0, 0, 5, 5, 0), TraceRecord(1, "k", 0, 0, 5, 5, 0)]
        problems = validate_trace(ExecutionTrace(rs, []))
        assert problems == ["task 0: zero length at vstart 5",
                            "task 1: zero length at vstart 5"]

    def test_validate_catches_duplicated_id(self):
        rs = [TraceRecord(2, "k", 0, 0, 0, 1, 0), TraceRecord(2, "k", 0, 1, 1, 2, 0)]
        problems = validate_trace(ExecutionTrace(rs, []))
        assert problems == ["task id 2 appears more than once"]

    def test_duplicated_id_on_one_queue_is_not_a_fifo_violation(self):
        rs = [TraceRecord(2, "k", 0, 0, 0, 1, 0), TraceRecord(2, "k", 1, 0, 1, 2, 0)]
        problems = validate_trace(ExecutionTrace(rs, []))
        assert problems == ["task id 2 appears more than once"]

    def test_validate_catches_negative_worker(self):
        rs = [TraceRecord(4, "k", 0, 0, 0, 1, -3)]
        problems = validate_trace(ExecutionTrace(rs, []))
        assert problems == ["task 4: worker -3 is negative"]

    def test_validate_reports_negative_workers_with_the_record_checks(self):
        rs = [TraceRecord(5, "k", 0, 0, 2, 3, -1), TraceRecord(4, "k", 0, 0, 0, 1, 0)]
        problems = validate_trace(ExecutionTrace(rs, []))
        assert problems == ["task 5: worker -1 is negative",
                            "records are not in virtual-start order",
                            "queue 0: tasks 5 and 4 overlap in virtual time",
                            "queue 0: tasks 5 and 4 violate FIFO order"]

    def test_validate_catches_fifo_violation(self):
        rs = [TraceRecord(1, "k", 0, 0, 0, 1, 0), TraceRecord(0, "k", 0, 0, 1, 2, 0)]
        problems = validate_trace(ExecutionTrace(rs, []))
        assert problems == ["queue 0: tasks 1 and 0 violate FIFO order"]

    @pytest.mark.parametrize("edge", [(9, 0), (0, 9)], ids=["pre", "dep"])
    def test_validate_reports_an_edge_with_one_unknown_end(self, edge):
        rs = [TraceRecord(0, "k", 0, 0, 0, 1, 0)]
        problems = validate_trace(ExecutionTrace(rs, [edge]))
        assert problems == [f"edge {edge} references an unknown task"]

    def test_edges_after_an_unknown_endpoint_are_still_checked(self):
        rs = [TraceRecord(0, "k", 0, 0, 0, 2, 0), TraceRecord(1, "k", 0, 1, 0, 2, 1)]
        problems = validate_trace(ExecutionTrace(rs, [(9, 0), (0, 1)]))
        assert problems == ["edge (9, 0) references an unknown task",
                            "edge (0, 1): predecessor ends at 2, successor starts at 0"]

    def test_validate_catches_edge_violation(self):
        rs = [TraceRecord(0, "k", 0, 0, 0, 2, 0), TraceRecord(1, "k", 0, 1, 0, 2, 1)]
        problems = validate_trace(ExecutionTrace(rs, [(0, 1)]))
        assert any("predecessor" in p for p in problems)

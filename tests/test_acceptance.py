"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""

import time

import numpy as np

from overlaysim.apps import (
    LuProblem,
    dominant_matrix,
    lu_decompose,
    lu_generate_tasks,
    lu_overlay,
    random_input,
    seeded_weights,
    tiny_config,
    vgg_generate_tasks,
    vgg_overlay,
)
from overlaysim.kernels import (
    convolution,
    gemm,
    lu_factor_block,
    maxpool,
    transform_column_panel,
    transform_row_panel,
    FeatureBuffer,
)
from overlaysim.oracles import (
    compare,
    conv2d_naive,
    maxpool2x2_naive,
    oracle_cnn_forward,
    oracle_lu,
    unpack_lu,
)
from overlaysim.runtime import (
    build_task_graph,
    check_dependence_sufficiency,
    depend,
    run,
    validate_trace,
)
from overlaysim.tensors import TensorBuffer, bcropped

from helpers import element_level_races, noop_overlay


def verdict(number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {tag}{suffix}")
    assert ok, f"criterion {number} [{name}] failed{suffix}"


def lu_case(n, m, seed):
    problem = LuProblem(dominant_matrix(n, m, seed), n, m)
    overlay = lu_overlay()
    tasks, rules = lu_generate_tasks(problem, overlay)
    return problem, overlay, tasks, rules


def test_criterion_1_blocked_lu_correctness():
    """20 seeded dominant matrices across three block splits, against the oracle."""
    t0 = time.monotonic()
    sizes = [(2, 2), (4, 8), (8, 16)]
    worst_oracle, worst_recon = 0.0, 0.0
    for seed in range(20):
        n, m = sizes[seed % 3]
        problem = LuProblem(dominant_matrix(n, m, seed), n, m)
        original = problem.a.data.copy()
        lu_decompose(problem, worker_count=2)
        report = compare(oracle_lu(original), problem.a.data, 1e-10)
        assert report.passed, (n, m, seed, report)
        worst_oracle = max(worst_oracle, report.rel_fro_err)
        lower, upper = unpack_lu(problem.a.data)
        recon = np.linalg.norm(lower @ upper - original) / np.linalg.norm(original)
        worst_recon = max(worst_recon, recon)
        assert recon <= 1e-10, (n, m, seed, recon)
    elapsed = time.monotonic() - t0
    verdict(1, "blocked-LU correctness", elapsed < 5.0,
            f"worst oracle err {worst_oracle:.2e}, worst recon {worst_recon:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_2_blocked_vs_unblocked_equivalence():
    problem = LuProblem(dominant_matrix(4, 8, seed=42), 4, 8)
    original = problem.a.data.copy()
    lu_decompose(problem, worker_count=4)
    report = compare(oracle_lu(original), problem.a.data, 1e-10)
    verdict(2, "blocked equals unblocked on 32x32", report.passed,
            f"rel_fro_err {report.rel_fro_err:.2e}")


def test_criterion_3_dependence_semantics():
    """n=3 graph: exactly 9 nodes and the exact enumerated edge set."""
    _, _, tasks, rules = lu_case(3, 2, seed=0)
    graph = build_task_graph(tasks, rules)
    assert len(graph.tasks) == 9

    slot = {(t.kind, t.iteration): t.id for t in tasks}
    expected_rule = set()
    for i in (0, 1):
        expected_rule |= {
            (slot[("factor", i)], slot[("row_solve", i)]),
            (slot[("factor", i)], slot[("col_solve", i)]),
            (slot[("row_solve", i)], slot[("update", i)]),
            (slot[("col_solve", i)], slot[("update", i)]),
        }
    expected_rule |= {
        (slot[("update", 0)], slot[("factor", 1)]),
        (slot[("update", 1)], slot[("factor", 2)]),
    }
    expected_queue = {
        (slot[("factor", 0)], slot[("factor", 1)]),
        (slot[("factor", 1)], slot[("factor", 2)]),
        (slot[("row_solve", 0)], slot[("row_solve", 1)]),
        (slot[("col_solve", 0)], slot[("col_solve", 1)]),
        (slot[("update", 0)], slot[("update", 1)]),
    }
    rule_edges = {(e.pre, e.dep) for e in graph.edges if e.provenance == "rule"}
    queue_edges = {(e.pre, e.dep) for e in graph.edges if e.provenance == "queue-order"}
    assert rule_edges == expected_rule
    assert queue_edges == expected_queue
    # guard i > 0: nothing points into the first factor
    assert not any(dep == slot[("factor", 0)] for _, dep in rule_edges)
    verdict(3, "dependence semantics", True,
            f"9 nodes, {len(rule_edges)} rule edges, {len(queue_edges)} queue edges")


def _random_graph(rng):
    n_kinds = int(rng.integers(1, 5))
    n_queues = int(rng.integers(1, 4))
    iters = int(rng.integers(1, 5))
    kind_queue = {k: int(rng.integers(0, n_queues)) for k in range(n_kinds)}
    ov = noop_overlay(n_queues)
    tasks = []
    for i in range(iters):
        for k in range(n_kinds):
            if rng.random() < 0.8:
                tasks.append(ov.enqueue(kind_queue[k], [], i, kind=f"k{k}"))
    if not tasks:
        tasks.append(ov.enqueue(0, [], 0, kind="k0"))
    rules = []
    for dep_k in range(n_kinds):
        for pre_k in range(dep_k):
            if rng.random() < 0.4:
                rules.append(depend(f"k{dep_k}", f"k{pre_k}", 0))
        if rng.random() < 0.4:
            rules.append(depend(f"k{dep_k}", f"k{int(rng.integers(0, n_kinds))}",
                                int(rng.integers(1, 3))))
    return ov, build_task_graph(tasks, rules)


def _assert_sound(trace, graph):
    assert sorted(r.id for r in trace.records) == sorted(t.id for t in graph.tasks)
    assert validate_trace(trace) == []
    start = {r.id: r.vstart for r in trace.records}
    end = {r.id: r.vend for r in trace.records}
    for pre, dep in graph.edge_pairs():
        assert end[pre] <= start[dep]


def test_criterion_4_scheduler_soundness():
    """Linear extension plus serial FIFO queues, over 120 random graphs and both apps."""
    rng = np.random.default_rng(2024)
    for case in range(120):
        ov, graph = _random_graph(rng)
        trace = run(ov, graph, worker_count=int(rng.choice([1, 2, 3, 8])))
        _assert_sound(trace, graph)

    _, overlay, tasks, rules = lu_case(4, 2, seed=1)
    graph = build_task_graph(tasks, rules)
    _assert_sound(run(overlay, graph, worker_count=4), graph)

    cfg = tiny_config(batch=2)
    overlay = vgg_overlay()
    tasks, rules, _ = vgg_generate_tasks(cfg, random_input(cfg, 2),
                                         seeded_weights(cfg, 3), overlay)
    graph = build_task_graph(tasks, rules)
    _assert_sound(run(overlay, graph, worker_count=2), graph)
    verdict(4, "scheduler soundness", True, "120 random graphs + both applications")


def test_criterion_5_determinism_across_worker_counts():
    for seed in range(10):
        results = []
        for workers in (1, 2, 4):
            problem, overlay, tasks, rules = lu_case(3, 4, seed)
            graph = build_task_graph(tasks, rules)
            run(overlay, graph, worker_count=workers)
            results.append(problem.a.data.copy())
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

    cfg = tiny_config()
    for seed in range(10):
        x = random_input(cfg, seed)
        w = seeded_weights(cfg, seed + 50)
        outs = []
        for workers in (1, 2, 4):
            overlay = vgg_overlay()
            tasks, rules, outputs = vgg_generate_tasks(cfg, x, w, overlay)
            graph = build_task_graph(tasks, rules)
            run(overlay, graph, worker_count=workers)
            outs.append(outputs.y.data.copy())
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])
    verdict(5, "bit-identical results for workers 1/2/4", True, "10 seeds x both apps")


def test_criterion_6_aliasing_safety_checker():
    # both applications come out clean under the declared rules
    _, _, tasks, rules = lu_case(3, 4, seed=0)
    lu_graph = build_task_graph(tasks, rules)
    assert check_dependence_sufficiency(lu_graph) == []

    cfg = tiny_config(batch=2)
    overlay = vgg_overlay()
    vtasks, vrules, _ = vgg_generate_tasks(cfg, random_input(cfg, 1),
                                           seeded_weights(cfg, 2), overlay)
    vgg_graph = build_task_graph(vtasks, vrules)
    assert check_dependence_sufficiency(vgg_graph) == []

    # deleting the cross-iteration rule exposes the diagonal block
    problem, _, tasks, rules = lu_case(3, 4, seed=0)
    weakened = [r for r in rules if not (r.dependent_kind == "factor"
                                         and r.prerequisite_kind == "update")]
    weak_graph = build_task_graph(tasks, weakened)
    conflicts = check_dependence_sufficiency(weak_graph)
    assert conflicts
    m = problem.m
    slot = {(t.kind, t.iteration): t.id for t in tasks}
    diagonal_hits = [
        c for c in conflicts
        if {c.first, c.second} == {slot[("update", 0)], slot[("factor", 1)]}
        and c.overlap == ((m, 2 * m), (m, 2 * m))
    ]
    assert diagonal_hits, conflicts

    # element-level brute force agrees with the closure-based report (n<=3, m<=4)
    for n, mm in [(2, 2), (2, 4), (3, 2), (3, 4)]:
        _, _, tasks, rules = lu_case(n, mm, seed=n * 10 + mm)
        good = build_task_graph(tasks, rules)
        assert element_level_races(good) == set()
        assert check_dependence_sufficiency(good) == []
        weakened = [r for r in rules if not (r.dependent_kind == "factor"
                                             and r.prerequisite_kind == "update")]
        bad = build_task_graph(tasks, weakened)
        report_pairs = {tuple(sorted((c.first, c.second)))
                        for c in check_dependence_sufficiency(bad)}
        brute_pairs = {tuple(sorted(p)) for p in element_level_races(bad)}
        assert report_pairs == brute_pairs
        assert report_pairs
    verdict(6, "aliasing-safety checker", True,
            "clean for both apps; weakened rules flag the diagonal block")


def test_criterion_7_vgg_pipeline():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(5):
        cfg = tiny_config()
        x = random_input(cfg, seed)
        w = seeded_weights(cfg, seed + 500)
        overlay = vgg_overlay()
        tasks, rules, outputs = vgg_generate_tasks(cfg, x, w, overlay)
        graph = build_task_graph(tasks, rules)
        trace = run(overlay, graph, worker_count=2)

        report = compare(oracle_cnn_forward(cfg, x, w), outputs.y.data, 1e-6)
        assert report.passed, (seed, report)
        worst = max(worst, report.rel_fro_err)

        per_queue = {}
        for r in trace.records:
            per_queue[r.queue] = per_queue.get(r.queue, 0) + 1
        assert per_queue == {0: 16, 1: 5}

        extents = [(s[0], s[1]) for s in overlay.feature_buffer.shape_log]
        h, wd = cfg.height, cfg.width
        expected = []
        for layer in range(13):
            expected.append((h, wd))
            if layer in (1, 3, 6, 9, 12):
                h, wd = h // 2, wd // 2
                if layer != 12:
                    expected.append((h, wd))
        assert extents == expected
        assert (h, wd) == (cfg.height // 32, cfg.width // 32)
    elapsed = time.monotonic() - t0
    verdict(7, "VGG pipeline vs oracle", elapsed < 10.0,
            f"worst rel err {worst:.2e}, extents halve at each pool, {elapsed:.2f}s")


def test_criterion_8_kernel_unit_suites():
    rng = np.random.default_rng(99)

    # GEMM against a hand-computed product
    c = TensorBuffer(np.eye(2)).view()
    gemm(c, TensorBuffer(np.array([[1.0, 2.0], [3.0, 4.0]])).view(),
         TensorBuffer(np.eye(2)).view(), 1.0, 1.0, 1.0)
    assert np.max(np.abs(c.array() - [[2.0, 2.0], [3.0, 5.0]])) <= 1e-12

    # panel solves against dense triangular solves
    m = 4
    packed = rng.uniform(-1, 1, (m, m)) + m * np.eye(m)
    pview = TensorBuffer(packed.copy()).view()
    lu_factor_block(pview)
    stored = pview.array()
    lower, upper = unpack_lu(stored)

    rest = rng.uniform(-1, 1, (m, 2 * m))
    row = TensorBuffer(np.hstack([stored, rest])).view()
    transform_row_panel(row)
    assert np.linalg.norm(row.array()[:, m:] - np.linalg.solve(lower, rest)) <= 1e-12

    rest_c = rng.uniform(-1, 1, (2 * m, m))
    col = TensorBuffer(np.vstack([stored, rest_c])).view()
    transform_column_panel(col)
    assert np.linalg.norm(col.array()[m:] - np.linalg.solve(upper.T, rest_c.T).T) <= 1e-12

    # convolution and pooling against nested-loop oracles
    x0 = rng.uniform(-1, 1, (6, 6, 3))
    w0 = rng.uniform(-1, 1, (3, 3, 3, 2))
    y = TensorBuffer(np.zeros((6, 6, 2))).view()
    convolution(TensorBuffer(x0.copy()).view(), y, TensorBuffer(w0.copy()).view(),
                False, False, False, False, None)
    assert np.max(np.abs(y.array() - conv2d_naive(x0, w0))) <= 1e-12

    fb = FeatureBuffer()
    fb.store(x0.copy())
    pooled = TensorBuffer(np.zeros((3, 3, 3))).view()
    maxpool(pooled, False, fb)
    assert np.array_equal(pooled.array(), maxpool2x2_naive(x0))

    # in-place containment via guard bands around every linalg kernel
    guard = TensorBuffer(rng.uniform(1, 2, (8, 8)) + 8 * np.eye(8))
    before = guard.data.copy()
    inner = bcropped(guard, 2, 1, 1, 1, 1)
    lu_factor_block(inner)
    row_panel = bcropped(guard, 2, 1, 1, 1, 3)
    transform_row_panel(row_panel)
    col_panel = bcropped(guard, 2, 1, 3, 1, 1)
    transform_column_panel(col_panel)
    trailing = bcropped(guard, 2, 2, 3, 2, 3)
    gemm(trailing, bcropped(guard, 2, 2, 3, 1, 1), bcropped(guard, 2, 1, 1, 2, 3),
         1.0, -1.0, 1.0)
    mask = np.ones((8, 8), dtype=bool)
    mask[2:4, 2:4] = False  # factored block
    mask[2:4, 4:8] = False  # row panel tail
    mask[4:8, 2:4] = False  # column panel tail
    mask[4:8, 4:8] = False  # trailing update
    assert np.array_equal(guard.data[mask], before[mask])
    verdict(8, "kernel unit suites", True,
            "gemm, panel solves, conv, pool, guard bands all within 1e-12")

"""Blocked LU driver: task generation, dependence shape, and numerics."""

import numpy as np
import pytest

from overlaysim import errors
from overlaysim.apps import (
    LuProblem,
    dominant_matrix,
    lu_decompose,
    lu_generate_tasks,
    lu_overlay,
    lu_rules,
)
from overlaysim.oracles import compare, oracle_lu, unpack_lu
from overlaysim.runtime import build_task_graph
from overlaysim.tensors import TensorBuffer, new_buffer

from helpers import reference_dominant_matrix, reference_split_lu


def make_problem(n, m, seed=0):
    return LuProblem(dominant_matrix(n, m, seed), n, m)


class TestProblem:
    def test_shape_must_match_blocks(self):
        with pytest.raises(errors.ConfigurationError):
            LuProblem(new_buffer([4, 4], fill=1.0), 3, 2)

    def test_n_must_be_positive(self):
        with pytest.raises(errors.ConfigurationError):
            LuProblem(new_buffer([2, 2], fill=1.0), 0, 2)

    def test_dominant_matrix_reproducible(self):
        a = dominant_matrix(2, 3, seed=5)
        b = dominant_matrix(2, 3, seed=5)
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, m, seed", [(1, 1, 0), (1, 1, 3), (2, 3, 5), (8, 32, 1),
                                            (64, 2, 2), (3, 7, 11)])
    def test_dominant_matrix_bits_equal_the_one_expression(self, n, m, seed, dtype):
        got = dominant_matrix(n, m, seed, dtype=dtype).data
        expected = reference_dominant_matrix(n, m, seed, dtype)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


class TestTaskGeneration:
    def test_single_block_problem(self):
        tasks, _ = lu_generate_tasks(make_problem(1, 2), lu_overlay())
        assert len(tasks) == 1
        assert tasks[0].kind == "factor"

    def test_counts_for_three_blocks(self):
        tasks, _ = lu_generate_tasks(make_problem(3, 2), lu_overlay())
        counts = {}
        for t in tasks:
            counts[t.kind] = counts.get(t.kind, 0) + 1
        assert counts == {"factor": 3, "row_solve": 2, "col_solve": 2, "update": 2}
        assert len(tasks) == 9

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_task_total_formula(self, n):
        tasks, _ = lu_generate_tasks(make_problem(n, 2), lu_overlay())
        assert len(tasks) == n + 3 * (n - 1)

    def test_update_coefficients(self):
        tasks, _ = lu_generate_tasks(make_problem(2, 2), lu_overlay())
        update = next(t for t in tasks if t.kind == "update")
        assert update.args[3:] == (1.0, -1.0, 1.0)

    def test_queue_assignment(self):
        tasks, _ = lu_generate_tasks(make_problem(3, 2), lu_overlay())
        queue_of = {"factor": 0, "row_solve": 1, "col_solve": 2, "update": 3}
        for t in tasks:
            assert t.queue_no == queue_of[t.kind]

    def test_rule_set(self):
        rules = lu_rules()
        assert len(rules) == 5
        cross = [r for r in rules if r.distance == 1]
        assert len(cross) == 1
        assert cross[0].dependent_kind == "factor"
        assert cross[0].prerequisite_kind == "update"
        assert all(r.distance == 0 for r in rules if r is not cross[0])

    def test_first_factor_has_no_rule_predecessor(self):
        """Iteration 0 has no update at iteration -1, so the distance-1 rule
        is inert there without any guard."""
        tasks, rules = lu_generate_tasks(make_problem(3, 2), lu_overlay())
        graph = build_task_graph(tasks, rules)
        first = next(t for t in tasks if t.kind == "factor" and t.iteration == 0)
        assert not [e for e in graph.edges if e.dep == first.id]


class TestAccessFootprints:
    def test_factor_touches_only_its_diagonal_block(self):
        problem = make_problem(3, 4)
        tasks, _ = lu_generate_tasks(problem, lu_overlay())
        m = problem.m
        for t in tasks:
            if t.kind != "factor":
                continue
            i = t.iteration
            assert len(t.access_sets) == 1
            acc = t.access_sets[0]
            assert acc.ranges == ((i * m, (i + 1) * m), (i * m, (i + 1) * m))
            assert acc.mode == "read_write"

    def test_update_writes_exactly_the_trailing_submatrix(self):
        problem = make_problem(3, 4)
        tasks, _ = lu_generate_tasks(problem, lu_overlay())
        n, m = problem.n, problem.m
        for t in tasks:
            if t.kind != "update":
                continue
            i = t.iteration
            writes = [acc for acc in t.access_sets if acc.writes]
            assert len(writes) == 1
            assert writes[0].ranges == (((i + 1) * m, n * m), ((i + 1) * m, n * m))


class TestDecompose:
    def test_identity_unchanged(self):
        size = 6
        problem = LuProblem(TensorBuffer(np.eye(size)), 3, 2)
        lu_decompose(problem)
        np.testing.assert_array_equal(problem.a.data, np.eye(size))

    def test_small_reconstruction(self):
        problem = make_problem(2, 2, seed=1)
        original = problem.a.data.copy()
        lu_decompose(problem, worker_count=2)
        lower, upper = unpack_lu(problem.a.data)
        err = np.linalg.norm(lower @ upper - original) / np.linalg.norm(original)
        assert err <= 1e-10

    def test_matches_unblocked_oracle(self):
        problem = make_problem(4, 8, seed=2)
        original = problem.a.data.copy()
        lu_decompose(problem, worker_count=4)
        expected = oracle_lu(original)
        report = compare(expected, problem.a.data, 1e-10)
        assert report.passed, report

    def test_singular_matrix_propagates_pivot_error(self):
        problem = LuProblem(TensorBuffer(np.zeros((4, 4))), 2, 2)
        with pytest.raises(errors.TaskExecutionError) as exc:
            lu_decompose(problem)
        assert isinstance(exc.value.__cause__, errors.SingularPivotError)

    def test_float32_problem(self):
        problem = LuProblem(dominant_matrix(2, 4, seed=3, dtype=np.float32), 2, 4)
        original = problem.a.data.copy()
        lu_decompose(problem, worker_count=2)
        assert problem.a.dtype == np.float32
        lower, upper = unpack_lu(problem.a.data)
        err = np.linalg.norm(lower @ upper - original) / np.linalg.norm(original)
        assert err <= 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_result_bits_above_the_loop_order(self, dtype):
        """The result of `overlay-sim run lu --n 3 --m 64` has the bytes of
        tests/helpers.reference_split_lu, which runs the same split with its
        own code on the same BLAS, so that any change to how the kernels
        split or solve blocks above their loop order shows, whichever BLAS
        build the test runs on."""
        problem = LuProblem(dominant_matrix(3, 64, 0, dtype=dtype), 3, 64)
        expected = problem.a.data.copy()
        reference_split_lu(expected, 3, 64)
        lu_decompose(problem)
        assert problem.a.data.tobytes() == expected.tobytes()


def test_rule_edge_count_scales_with_n():
    for n in (2, 3, 5):
        tasks, rules = lu_generate_tasks(make_problem(n, 2), lu_overlay())
        graph = build_task_graph(tasks, rules)
        rule_edges = [e for e in graph.edges if e.provenance == "rule"]
        assert len(rule_edges) == 5 * (n - 1)

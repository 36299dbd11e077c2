"""Blocked LU decomposition driven through the four-kernel overlay.

The matrix is split into n*n blocks of m*m elements.  Step i factors the
diagonal block, solves the row and column panels against it, then applies a
rank update to the trailing submatrix.  Four task kinds map onto the four
kernels; dependence rules order them across queues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..overlay import IP_REGISTRY, Overlay, command
from ..runtime import DependenceRule, TaskInstance, build_task_graph, depend, run
from ..tensors import DEFAULT_DTYPE, TensorBuffer, bcropped

# task kinds, by what each step does
FACTOR = "factor"
ROW_SOLVE = "row_solve"
COL_SOLVE = "col_solve"
UPDATE = "update"


@dataclass
class LuProblem:
    """A square matrix buffer of n*n blocks, each m*m elements."""

    a: TensorBuffer
    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigurationError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        expected = (self.n * self.m, self.n * self.m)
        if self.a.shape != expected:
            raise ConfigurationError(
                f"matrix shape {self.a.shape} does not match n*m = {expected}"
            )


def dominant_matrix(n: int, m: int, seed: int, dtype=DEFAULT_DTYPE) -> TensorBuffer:
    """Seeded uniform(-1, 1) matrix made strictly diagonally dominant.

    Adding n*m on the diagonal guarantees nonzero pivots, which the
    no-pivoting factorization requires.  It is added in place, with no
    identity matrix: the draw is never -0.0, so the bits equal those of
    `draw + size * np.eye(size)`.
    """
    size = n * m
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (size, size))
    a[np.diag_indices(size)] += size
    return TensorBuffer(a.astype(dtype, copy=False))


def lu_overlay() -> Overlay:
    return Overlay("lu", [
        command(IP_REGISTRY["LU"], 0),
        command(IP_REGISTRY["TransformRowPanel"], 1),
        command(IP_REGISTRY["TransformColumnPanel"], 2),
        command(IP_REGISTRY["GEMM"], 3),
    ])


def lu_rules() -> list[DependenceRule]:
    """Cross-queue ordering: same-iteration fan through the panels into the
    update, and the next factor waits on the previous update."""
    return [
        depend(FACTOR, UPDATE, 1),
        depend(ROW_SOLVE, FACTOR, 0),
        depend(COL_SOLVE, FACTOR, 0),
        depend(UPDATE, ROW_SOLVE, 0),
        depend(UPDATE, COL_SOLVE, 0),
    ]


def lu_generate_tasks(problem: LuProblem, overlay: Overlay):
    """Enqueue the per-step task set and return (tasks, rules).

    At the last step only the diagonal factor remains: the panel and update
    crops would be empty, so those tasks are skipped rather than enqueued.
    """
    a, n, m = problem.a, problem.n, problem.m
    tasks: list[TaskInstance] = []
    for i in range(n):
        diag = bcropped(a, m, i, i, i, i)
        tasks.append(overlay.enqueue(0, [diag], i, kind=FACTOR))
        if i < n - 1:
            row_panel = bcropped(a, m, i, i, i, n - 1)
            col_panel = bcropped(a, m, i, n - 1, i, i)
            col_tail = bcropped(a, m, i + 1, n - 1, i, i)
            row_tail = bcropped(a, m, i, i, i + 1, n - 1)
            trailing = bcropped(a, m, i + 1, n - 1, i + 1, n - 1)
            tasks.append(overlay.enqueue(1, [row_panel], i, kind=ROW_SOLVE))
            tasks.append(overlay.enqueue(2, [col_panel], i, kind=COL_SOLVE))
            tasks.append(overlay.enqueue(
                3, [trailing, col_tail, row_tail, 1.0, -1.0, 1.0], i, kind=UPDATE))
    return tasks, lu_rules()


def lu_decompose(problem: LuProblem, worker_count: int = 1) -> None:
    """Factor the matrix in place; afterwards its storage holds packed L\\U."""
    overlay = lu_overlay()
    tasks, rules = lu_generate_tasks(problem, overlay)
    graph = build_task_graph(tasks, rules)
    run(overlay, graph, worker_count)

"""The benchmark's three workloads: seeded inputs, one full run, verification.

A full run is what `overlay-sim run` does between preparing its inputs and
writing its outputs: task generation, graph build, then `runtime.run`
(conflict check, threaded execution, virtual replay).  Inputs are made from
the benchmark seed once per process; `prepare` restores a fresh copy of the
mutable state before each run, outside the timed region.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from overlaysim import TensorBuffer, compare, oracle_cnn_forward, oracle_lu, runtime
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
from overlaysim.cli import VERIFY_TOLERANCE

# maps of the VGG batch checked against the nested-loop oracle (~0.12 s each):
# the first, one from the middle and the last
VGG_VERIFIED_MAPS = (0, 31, 63)


class LuWorkload:
    """Blocked LU of an n*m square, diagonally dominant f64 matrix."""

    def __init__(self, name: str, n: int, m: int, oracle: bool):
        self.name, self.n, self.m = name, n, m
        self.oracle = oracle
        self.command = f"overlay-sim run lu --n {n} --m {m} --precision f64"
        self.original: np.ndarray | None = None

    def make_inputs(self, seed: int) -> None:
        self.original = dominant_matrix(self.n, self.m, seed).data

    def base_overlay(self):
        return lu_overlay()

    def prepare(self) -> LuProblem:
        return LuProblem(TensorBuffer(self.original.copy()), self.n, self.m)

    def generate(self, problem: LuProblem, overlay):
        tasks, rules = lu_generate_tasks(problem, overlay)
        return tasks, rules, problem.a

    def verify(self, result: np.ndarray) -> tuple[bool, str]:
        tol = VERIFY_TOLERANCE[("lu", "f64")]
        if self.oracle:
            report = compare(oracle_lu(self.original), result, tol)
            return report.passed, f"oracle_lu: {report}"
        # ||A - L*U|| / ||A||, computed with plain numpy: oracle_lu is cubic in
        # Python, about 4 s at 1024^2 and so about 35 s at 2048^2
        lower = np.tril(result, -1) + np.eye(result.shape[0])
        residual = np.linalg.norm(self.original - lower @ np.triu(result))
        rel = float(residual / np.linalg.norm(self.original))
        verdict = "PASS" if rel <= tol else "FAIL"
        return rel <= tol, f"residual ||A-LU||/||A||={rel:.3e} tol={tol:.1e} {verdict}"


class VggWorkload:
    """The tiny VGG-style pipeline over a batch of seeded f64 feature maps."""

    def __init__(self, name: str, batch: int):
        self.name = name
        self.command = f"overlay-sim run vgg --scale tiny --batch {batch} --precision f64"
        self.config = tiny_config(batch)

    def make_inputs(self, seed: int) -> None:
        # the same seeding as `overlay-sim run vgg --seed <seed>`
        self.x = random_input(self.config, seed)
        self.weights = seeded_weights(self.config, seed + 1)

    def base_overlay(self):
        return vgg_overlay()

    def prepare(self) -> None:
        return None

    def generate(self, _state, overlay):
        tasks, rules, outputs = vgg_generate_tasks(self.config, self.x, self.weights, overlay)
        return tasks, rules, outputs.y

    def verify(self, result: np.ndarray) -> tuple[bool, str]:
        maps = list(VGG_VERIFIED_MAPS)
        subset = dataclasses.replace(self.config, batch=len(maps))
        x = TensorBuffer(np.ascontiguousarray(self.x.data[..., maps]))
        expected = oracle_cnn_forward(subset, x, self.weights)
        report = compare(expected, result[:, maps], VERIFY_TOLERANCE[("vgg", "f64")])
        return report.passed, f"oracle_cnn_forward on maps {maps}: {report}"


# Why each workload (perfbench/README.md has the full reasons):
WORKLOADS = {
    w.name: w for w in (
        # kernel-bound: the LU kernels and compute-bound gemm; bypasses the checker
        LuWorkload("lu_coarse", 8, 256, oracle=False),
        # many distinct block regions on one buffer; gemm memory-bound
        LuWorkload("lu_fine", 256, 2, oracle=True),
        # runtime-bound by the quadratic conflict check; conv/pool kernels, no gemm
        VggWorkload("vgg_batch", 64),
    )
}


def full_run(workload, state, overlay, workers: int):
    """One timed unit: generate tasks, build the graph, run it.  Returns
    (trace, graph, tasks, result buffer)."""
    tasks, rules, result = workload.generate(state, overlay)
    graph = runtime.build_task_graph(tasks, rules)
    trace = runtime.run(overlay, graph, workers)
    return trace, graph, tasks, result

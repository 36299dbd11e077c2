"""Overlay construction, manifests, and the enqueue surface."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlaysim import errors, kernels
from overlaysim.overlay import (
    IP_REGISTRY,
    IpDescriptor,
    Overlay,
    command,
    load_overlay,
)
from overlaysim.apps import (
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
from overlaysim.runtime import build_task_graph, run
from overlaysim.tensors import BlockView, TensorBuffer, new_buffer, bcropped

from helpers import reference_flops


def test_command_binds_queue():
    ci = command(IP_REGISTRY["LU"], 0)
    assert ci.queue_no == 0
    assert ci.ip.name == "LU"


def test_duplicate_queue_rejected():
    with pytest.raises(errors.ConfigurationError):
        Overlay("dup", [command(IP_REGISTRY["LU"], 1),
                        command(IP_REGISTRY["GEMM"], 1)])


def test_gap_in_queue_numbering_rejected():
    with pytest.raises(errors.ConfigurationError):
        Overlay("gap", [command(IP_REGISTRY["LU"], 0),
                        command(IP_REGISTRY["GEMM"], 2)])


def test_empty_interface_list_rejected():
    with pytest.raises(errors.ConfigurationError):
        Overlay("none", [])


def test_negative_queue_rejected():
    with pytest.raises(errors.ConfigurationError):
        command(IP_REGISTRY["LU"], -1)


def test_lu_overlay_has_four_queues_and_no_feature_buffer():
    ov = lu_overlay()
    assert sorted(ov.interfaces) == [0, 1, 2, 3]
    assert ov.feature_buffer is None


def test_vgg_overlay_has_two_queues_and_feature_buffer():
    ov = vgg_overlay()
    assert sorted(ov.interfaces) == [0, 1]
    assert ov.feature_buffer is not None
    assert ov.feature_buffer.slot is None


def test_unknown_parameter_kind_rejected():
    with pytest.raises(errors.ConfigurationError):
        IpDescriptor("Bad", ("tensor",), lambda a, f: 0, lambda a, f: ())


class TestManifests:
    def test_round_trip(self, tmp_path):
        ov = lu_overlay()
        path = tmp_path / "lu.overlay.json"
        ov.save_manifest(path)
        back = load_overlay(path)
        assert back.manifest() == ov.manifest()
        assert sorted(back.interfaces) == sorted(ov.interfaces)
        for q in ov.interfaces:
            assert back.interfaces[q].ip.name == ov.interfaces[q].ip.name

    def test_load_twice_equivalent(self, tmp_path):
        path = tmp_path / "vgg.overlay.json"
        vgg_overlay().save_manifest(path)
        first = load_overlay(path)
        second = load_overlay(path)
        assert first.manifest() == second.manifest()

    def test_unknown_ip_name(self, tmp_path):
        path = tmp_path / "fft.overlay.json"
        path.write_text(json.dumps(
            {"name": "fft", "ips": [{"name": "FFT", "queue": 0, "signature": ["view"]}]}))
        with pytest.raises(errors.ConfigurationError):
            load_overlay(path)

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / "bad.overlay.json"
        path.write_text("{not json")
        with pytest.raises(errors.ParseError):
            load_overlay(path)
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(errors.ParseError):
            load_overlay(path)

    @pytest.mark.parametrize("field, value", [
        ("queue", False), ("queue", True), ("queue", "1"), ("queue", 2.9), ("queue", None),
        ("name", ["LU"]), ("name", 5),
        ("signature", 5), ("signature", "view"), ("signature", [1]),
        ("overlay name", 5), ("ips", 5),
    ])
    def test_field_types_checked(self, tmp_path, field, value):
        doc = lu_overlay().manifest()
        if field == "overlay name":
            doc["name"] = value
        elif field == "ips":
            doc["ips"] = value
        else:
            doc["ips"][0][field] = value
        path = tmp_path / "typed.overlay.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.ParseError) as exc:
            load_overlay(path)
        assert str(path) in str(exc.value)
        if field in ("queue", "name", "signature"):
            assert repr(doc["ips"][0]) in str(exc.value)

    def test_signature_mismatch_in_manifest(self, tmp_path):
        path = tmp_path / "bad.overlay.json"
        path.write_text(json.dumps(
            {"name": "lu", "ips": [{"name": "LU", "queue": 0, "signature": ["scalar"]}]}))
        with pytest.raises(errors.ConfigurationError):
            load_overlay(path)


class TestEnqueue:
    def test_single_enqueue(self):
        ov = lu_overlay()
        buf = new_buffer([4, 4], fill=1.0)
        diag = bcropped(buf, 2, 0, 0, 0, 0)
        task = ov.enqueue(0, [diag], 0, kind="factor")
        assert task.queue_no == 0
        assert task.kind == "factor"
        assert task.iteration == 0
        assert task.access_sets  # computed at enqueue time

    def test_gemm_enqueue(self):
        ov = lu_overlay()
        buf = new_buffer([6, 6], fill=1.0)
        trailing = bcropped(buf, 2, 1, 2, 1, 2)
        col = bcropped(buf, 2, 1, 2, 0, 0)
        row = bcropped(buf, 2, 0, 0, 1, 2)
        task = ov.enqueue(3, [trailing, col, row, 1.0, -1.0, 1.0], 0, kind="update")
        assert task.queue_no == 3
        assert task.args[3:] == (1.0, -1.0, 1.0)

    def test_scalars_stored_as_python_floats(self):
        """An np.float64 coefficient on f32 operands gives the bits of the
        same Python float: enqueue stores every scalar with float()."""
        results = []
        for coeffs in ([0.3, -0.7, 1.3], [np.float64(0.3), np.float64(-0.7), np.float64(1.3)]):
            ov = lu_overlay()
            buf = TensorBuffer(np.random.default_rng(5).uniform(-1, 1, (6, 6)).astype(np.float32))
            c, a, b = (bcropped(buf, 2, 1, 2, 1, 2), bcropped(buf, 2, 1, 2, 0, 0),
                       bcropped(buf, 2, 0, 0, 1, 2))
            task = ov.enqueue(3, [c, a, b] + coeffs, 0)
            assert all(type(v) is float for v in task.args[3:])
            ov.interface(3).ip.run(task.args, None)
            results.append(buf.data)
        np.testing.assert_array_equal(results[0], results[1])
        assert results[0].dtype == np.float32

    def test_scalar_too_large_for_a_float(self):
        ov = lu_overlay()
        buf = new_buffer([4, 4])
        views = [bcropped(buf, 2, 1, 1, 1, 1), bcropped(buf, 2, 1, 1, 0, 0),
                 bcropped(buf, 2, 0, 0, 1, 1)]
        with pytest.raises(errors.InvocationError):
            ov.enqueue(3, views + [10 ** 400, 1.0, 1.0], 0)

    @pytest.mark.parametrize("coeff", [np.float32(0.5), np.int64(2), np.float64(0.25), 3,
                                       Fraction(1, 4)])
    def test_any_real_scalar_is_stored_as_a_python_float(self, coeff):
        ov = lu_overlay()
        buf = new_buffer([4, 4])
        views = [bcropped(buf, 2, 1, 1, 1, 1), bcropped(buf, 2, 1, 1, 0, 0),
                 bcropped(buf, 2, 0, 0, 1, 1)]
        task = ov.enqueue(3, views + [coeff, -1.0, 1.0], 0)
        assert type(task.args[3]) is float and task.args[3] == float(coeff)

    @pytest.mark.parametrize("coeff", [True, np.bool_(True), 1j, "1.0", None])
    def test_bool_and_non_real_scalars_refused(self, coeff):
        ov = lu_overlay()
        buf = new_buffer([4, 4])
        views = [bcropped(buf, 2, 1, 1, 1, 1), bcropped(buf, 2, 1, 1, 0, 0),
                 bcropped(buf, 2, 0, 0, 1, 1)]
        with pytest.raises(errors.InvocationError, match="parameter 3 must be a scalar"):
            ov.enqueue(3, views + [coeff, -1.0, 1.0], 0)
        assert ov.enqueue(3, views + [1.0, -1.0, 1.0], 0).id == 0

    def test_unknown_queue(self):
        ov = lu_overlay()
        with pytest.raises(errors.InvocationError):
            ov.enqueue(5, [new_buffer([2, 2]).view()], 0)

    def test_arity_mismatch(self):
        ov = lu_overlay()
        with pytest.raises(errors.InvocationError):
            ov.enqueue(0, [], 0)

    def test_view_kind_enforced(self):
        ov = lu_overlay()
        with pytest.raises(errors.InvocationError):
            ov.enqueue(0, [3.14], 0)

    def test_scalar_kind_enforced(self):
        ov = lu_overlay()
        buf = new_buffer([4, 4])
        views = [bcropped(buf, 2, 1, 1, 1, 1), bcropped(buf, 2, 1, 1, 0, 0),
                 bcropped(buf, 2, 0, 0, 1, 1)]
        with pytest.raises(errors.InvocationError):
            ov.enqueue(3, views + [1.0, True, 1.0], 0)

    def test_flag_kind_enforced(self):
        ov = vgg_overlay()
        x = new_buffer([2, 2, 1]).view()
        w = new_buffer([1, 1, 1, 1]).view()
        with pytest.raises(errors.InvocationError):
            ov.enqueue(0, [x, x, w, 1, True, True, False], 0)

    def test_kind_defaults_to_ip_name(self):
        ov = lu_overlay()
        task = ov.enqueue(0, [new_buffer([2, 2], fill=1.0).view()], 0)
        assert task.kind == "LU"

    def test_ids_dense_from_zero(self):
        ov = lu_overlay()
        v = new_buffer([2, 2], fill=1.0).view()
        ids = [ov.enqueue(0, [v], i).id for i in range(4)]
        assert ids == [0, 1, 2, 3]

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=24))
    @settings(max_examples=40)
    def test_fifo_order_preserved(self, queue_sequence):
        """The graph chains each queue's tasks in exactly the order they were
        enqueued, which is the order the scheduler drains them in."""
        ov = lu_overlay()
        # a 2x2 block for the factor, a 2x4 row and a 4x2 column panel
        args_by_queue = {
            0: [new_buffer([2, 2], fill=1.0).view()],
            1: [new_buffer([2, 4], fill=1.0).view()],
            2: [new_buffer([4, 2], fill=1.0).view()],
            3: [bcropped(new_buffer([4, 4]), 2, 1, 1, 1, 1),
                bcropped(new_buffer([4, 4]), 2, 1, 1, 0, 0),
                bcropped(new_buffer([4, 4]), 2, 0, 0, 1, 1), 1.0, 1.0, 1.0],
        }
        enqueued = {q: [] for q in range(4)}
        tasks = []
        for i, q in enumerate(queue_sequence):
            tasks.append(ov.enqueue(q, args_by_queue[q], i))
            enqueued[q].append(tasks[-1].id)
        chained = sorted((a, b) for ids in enqueued.values() for a, b in zip(ids, ids[1:]))
        assert build_task_graph(tasks, []).edge_pairs() == chained


@pytest.mark.parametrize("queue, shape", [
    (1, (4, 2)), (1, (4, 4)), (1, (4, 6)),
    (2, (2, 4)), (2, (4, 4)), (2, (6, 4)),
], ids=["row-4x2", "row-4x4", "row-4x6", "col-2x4", "col-4x4", "col-6x4"])
def test_malformed_panel_rejected_at_enqueue(queue, shape):
    """A panel that is not m x (k*m) (row, queue 1) or (k*m) x m (column,
    queue 2) with k >= 2 fails at enqueue, as its kernel would, and the
    rejected call uses up no task id."""
    ov = lu_overlay()
    block = new_buffer([2, 2], fill=1.0).view()
    assert ov.enqueue(0, [block], 0).id == 0
    with pytest.raises(errors.ShapeError):
        ov.enqueue(queue, [new_buffer(list(shape), fill=1.0).view()], 0)
    assert ov.enqueue(0, [block], 1).id == 1


def view_shaped(*shape):
    return new_buffer(list(shape), fill=1.0).view()


GEMM_COEFFICIENTS = [1.0, -1.0, 1.0]


def aliasing_gemm_args():
    """C = rows [0,2) x cols [0,2) and A = rows [0,2) x cols [1,3) of one buffer."""
    buf = new_buffer([4, 4], fill=1.0)
    c, a = BlockView(buf, ((0, 2), (0, 2))), BlockView(buf, ((0, 2), (1, 3)))
    return [c, a, view_shaped(2, 2)] + GEMM_COEFFICIENTS


@pytest.mark.parametrize("queue, make_args, error", [
    (0, lambda: [BlockView(new_buffer([4, 4], fill=1.0), ((0, 4), (0, 2)))], errors.ShapeError),
    (0, lambda: [view_shaped(2, 2, 1)], errors.ShapeError),
    (3, lambda: [view_shaped(2, 2), view_shaped(2, 3), view_shaped(2, 2)] + GEMM_COEFFICIENTS,
     errors.ShapeError),
    (3, lambda: [view_shaped(3, 2), view_shaped(2, 3), view_shaped(3, 2)] + GEMM_COEFFICIENTS,
     errors.ShapeError),
    (3, lambda: [view_shaped(2, 2), view_shaped(2, 2, 1), view_shaped(2, 2)] + GEMM_COEFFICIENTS,
     errors.ShapeError),
    (3, aliasing_gemm_args, errors.AliasingError),
], ids=["lu-4x2", "lu-rank3", "gemm-inner", "gemm-result", "gemm-rank3", "gemm-aliasing"])
def test_malformed_dense_operands_rejected_at_enqueue(queue, make_args, error):
    """A factor block that is not square, GEMM operands whose shapes do not
    chain, or a GEMM whose C overlaps A, fail at enqueue with the kernel's
    error, and the rejected call uses up no task id."""
    ov = lu_overlay()
    block = view_shaped(2, 2)
    assert ov.enqueue(0, [block], 0).id == 0
    with pytest.raises(error):
        ov.enqueue(queue, make_args(), 0)
    assert ov.enqueue(0, [block], 1).id == 1


@pytest.mark.parametrize("iteration, kind", [
    (np.int64(0), None), (0.0, None), (True, None), (0, 7), (0, b"factor"),
], ids=["iter-int64", "iter-float", "iter-bool", "kind-int", "kind-bytes"])
def test_untraceable_iteration_or_kind_rejected_at_enqueue(iteration, kind):
    """Only an int iteration and a str kind can be written to a trace and
    parsed back; anything else fails at enqueue, naming the IP, and uses up
    no task id."""
    ov = lu_overlay()
    block = view_shaped(2, 2)
    assert ov.enqueue(0, [block], 0).id == 0
    with pytest.raises(errors.InvocationError, match="^LU: "):
        ov.enqueue(0, [block], iteration, kind=kind)
    assert ov.enqueue(0, [block], 1).id == 1


def buffer_shapes(overlay, tasks):
    """Buffer id -> shape for every buffer a task's views reach, plus the
    feature buffer's one-cell slot."""
    shapes = {arg.buffer.id: arg.buffer.shape
              for task in tasks for arg in task.args if isinstance(arg, BlockView)}
    if overlay.feature_buffer is not None:
        shapes[overlay.feature_buffer.cell.buffer.id] = (1,)
    return shapes


@pytest.mark.parametrize("build", [
    lambda: lu_graph(3, 2),
    lambda: lu_graph(2, 64),
    lambda: lu_graph(5, 33),
    lambda: vgg_graph(tiny_config(2)),
    lambda: vgg_graph(small_config(1)),
], ids=["lu-3-2", "lu-2-64", "lu-5-33", "vgg-tiny-2", "vgg-small-1"])
def test_access_sets_lie_inside_their_buffers(build):
    """Every generated access set names a known buffer and covers a
    non-empty range inside it on every axis."""
    overlay, graph = build()
    shapes = buffer_shapes(overlay, graph.tasks)
    for task in graph.tasks:
        for acc in task.access_sets:
            shape = shapes[acc.buffer_id]
            assert len(acc.ranges) == len(shape), (task.id, acc)
            for (lo, hi), extent in zip(acc.ranges, shape):
                assert 0 <= lo < hi <= extent, (task.id, task.kind, acc)


def test_feature_buffer_access_sets_ignore_dummies():
    """When flags route I/O through the feature buffer, view args contribute nothing."""
    ov = vgg_overlay()
    x = new_buffer([4, 4, 1, 2])
    y = new_buffer([4, 2])
    w = new_buffer([3, 3, 1, 1])
    task = ov.enqueue(0, [x.view(), y.view(), w.view(), True, True, True, False], 0)
    touched = {acc.buffer_id for acc in task.access_sets}
    assert x.id not in touched
    assert y.id not in touched
    assert w.id in touched
    assert ov.feature_buffer.cell.buffer.id in touched


def lu_graph(n, m):
    overlay = lu_overlay()
    tasks, rules = lu_generate_tasks(LuProblem(dominant_matrix(n, m, 0), n, m), overlay)
    return overlay, build_task_graph(tasks, rules)


def vgg_graph(config):
    overlay = vgg_overlay()
    tasks, rules, _ = vgg_generate_tasks(config, random_input(config, 0),
                                         seeded_weights(config, 1), overlay)
    return overlay, build_task_graph(tasks, rules)


@pytest.mark.parametrize("build", [
    lambda: lu_graph(3, 2),
    lambda: lu_graph(3, 33),
    lambda: lu_graph(2, 64),
    lambda: vgg_graph(tiny_config(2)),
    lambda: vgg_graph(small_config(1)),
], ids=["lu-3-2", "lu-3-33", "lu-2-64", "vgg-tiny-2", "vgg-small-1"])
def test_kernels_report_reference_flops(build):
    """Each kernel's own flop estimate equals the old adapter formula, taken
    before the call, for every task in dependence order."""
    overlay, graph = build()
    fb = overlay.feature_buffer
    for tid in graph.topo_order:
        task = graph.by_id[tid]
        ip = overlay.interface(task.queue_no).ip
        expected = reference_flops(ip.name, task.args, fb)
        assert ip.run(task.args, fb) == expected, (task.id, task.kind)


def test_gemm_access_sets_are_derived_once_per_task_at_enqueue(monkeypatch):
    """The GEMM binding runs gemm_update, which trusts the operands enqueue
    checked: run() derives no access set again."""
    derived = []
    real = kernels.gemm_access_sets
    monkeypatch.setattr(kernels, "gemm_access_sets",
                        lambda *args: derived.append(args) or real(*args))
    overlay = lu_overlay()
    tasks, rules = lu_generate_tasks(LuProblem(dominant_matrix(4, 2, 0), 4, 2), overlay)
    updates = [t.args for t in tasks if t.kind == "update"]
    assert len(updates) == 3
    assert derived == updates
    run(overlay, build_task_graph(tasks, rules))
    assert derived == updates

"""VGG-style pipeline: configuration, task generation, flags, and numerics."""

import dataclasses

import numpy as np
import pytest

from overlaysim import errors
from overlaysim.apps import (
    VggConfig,
    VggWeights,
    random_input,
    seeded_weights,
    tiny_config,
    vgg_forward,
    vgg_generate_tasks,
    vgg_overlay,
    vgg_rules,
)
from overlaysim.oracles import compare, oracle_cnn_forward
from overlaysim.runtime import build_task_graph, check_dependence_sufficiency, run
from overlaysim.tensors import TensorBuffer


class TestConfig:
    def test_tiny_preset(self):
        cfg = tiny_config()
        assert (cfg.height, cfg.width) == (32, 32)
        assert cfg.stage_channels == (2, 2, 4, 4, 4)
        assert cfg.fc_widths == (8, 8, 4)

    def test_spatial_divisibility_enforced(self):
        with pytest.raises(errors.ConfigurationError):
            VggConfig(30, 32, 3, (2, 2, 4, 4, 4), (8, 8, 4))

    @pytest.mark.parametrize("stages, fc, batch, message", [
        ((2, 2, 4, 4), (8, 8, 4), 1, "need 5 positive stage channels"),
        ((2, 2, 4, 4, 4), (8, 8), 1, "need 3 positive FC widths"),
        ((2, 2, 4, 4, 4), (8, 8, 4), 0, "in_channels and batch must be >= 1"),
    ], ids=["four-stages", "two-fc-widths", "batch-0"])
    def test_bad_plan_rejected(self, stages, fc, batch, message):
        with pytest.raises(errors.ConfigurationError, match=message):
            VggConfig(32, 32, 3, stages, fc, batch)

    def test_channel_plan_threads_through_stages(self):
        cfg = tiny_config()
        plan = cfg.conv_channel_plan()
        assert plan[0] == (3, 2)       # input channels into stage 0
        assert plan[1] == (2, 2)
        assert plan[2] == (2, 2)       # stage boundary keeps previous width
        assert plan[4] == (2, 4)
        assert len(plan) == 13

    def test_fc_plan_starts_from_pooled_volume(self):
        cfg = tiny_config()
        assert cfg.pooled_extents() == (1, 1)
        assert cfg.fc_dim_plan() == [(8, 4), (8, 8), (4, 8)]


def build_pipeline(batch=1, seed=0):
    cfg = tiny_config(batch)
    x = random_input(cfg, seed)
    w = seeded_weights(cfg, seed + 100)
    overlay = vgg_overlay()
    tasks, rules, outputs = vgg_generate_tasks(cfg, x, w, overlay)
    return cfg, x, w, overlay, tasks, rules, outputs


class TestTaskGeneration:
    def test_twelve_conv_buffers_rejected(self):
        cfg = tiny_config()
        w = seeded_weights(cfg, 0)
        with pytest.raises(errors.ConfigurationError, match="need 13 conv and 3 fc weight"):
            vgg_generate_tasks(cfg, random_input(cfg, 0), VggWeights(w.conv[:12], w.fc),
                               vgg_overlay())

    def test_misshaped_fc_matrix_rejected(self):
        cfg = tiny_config()
        w = seeded_weights(cfg, 0)
        fc = [*w.fc[:2], TensorBuffer(w.fc[2].data.T)]
        with pytest.raises(errors.ConfigurationError,
                           match=r"fc layer 2: weights shaped \(8, 4\), expected \(4, 8\)"):
            vgg_generate_tasks(cfg, random_input(cfg, 0), VggWeights(w.conv, fc),
                               vgg_overlay())

    def test_twenty_one_tasks_per_map(self):
        _, _, _, _, tasks, _, _ = build_pipeline(batch=1)
        assert len(tasks) == 21
        assert sum(1 for t in tasks if t.queue_no == 0) == 16
        assert sum(1 for t in tasks if t.queue_no == 1) == 5

    def test_batch_scales_task_count(self):
        _, _, _, _, tasks, _, _ = build_pipeline(batch=3)
        assert len(tasks) == 63

    def test_first_conv_reads_ddr(self):
        cfg, x, _, _, tasks, _, _ = build_pipeline()
        first = next(t for t in tasks if t.kind == "conv[0]")
        # flags: read_fb, store_fb, relu, fc
        assert first.args[3:] == (False, True, True, False)
        assert first.args[0].buffer is x
        assert first.args[0].elem_ranges[3] == (0, 1)

    def test_middle_conv_uses_feature_buffer(self):
        _, _, _, _, tasks, _, _ = build_pipeline()
        mid = next(t for t in tasks if t.kind == "conv[1]")
        assert mid.args[3:] == (True, True, True, False)

    def test_last_pool_writes_ddr(self):
        _, _, _, _, tasks, _, outputs = build_pipeline()
        last_pool = next(t for t in tasks if t.kind == "pool[4]")
        assert last_pool.args[0].buffer is outputs.pool_out
        assert last_pool.args[1] is False
        early_pool = next(t for t in tasks if t.kind == "pool[0]")
        assert early_pool.args[1] is True

    def test_fc_tail_flags(self):
        _, _, _, _, tasks, _, _ = build_pipeline()
        for k in range(3):
            fc = next(t for t in tasks if t.kind == f"fc[{k}]")
            assert fc.args[3:] == (False, False, True, True)

    def test_rules_are_ten_distance_zero_handoffs(self):
        rules = vgg_rules()
        assert len(rules) == 10
        assert all(r.distance == 0 for r in rules)
        pairs = {(r.dependent_kind, r.prerequisite_kind) for r in rules}
        assert ("pool[0]", "conv[1]") in pairs
        assert ("conv[2]", "pool[0]") in pairs
        assert ("fc[0]", "pool[4]") in pairs

    def test_declared_rules_are_sufficient(self):
        _, _, _, _, tasks, rules, _ = build_pipeline(batch=2)
        graph = build_task_graph(tasks, rules)
        assert check_dependence_sufficiency(graph) == []

    def test_wrong_weight_shape_rejected(self):
        cfg = tiny_config()
        x = random_input(cfg, 0)
        w = seeded_weights(cfg, 1)
        w.conv[3] = TensorBuffer(np.zeros((3, 3, 7, 7)))
        with pytest.raises(errors.ConfigurationError):
            vgg_generate_tasks(cfg, x, w, vgg_overlay())

    def test_wrong_input_shape_rejected(self):
        cfg = tiny_config()
        w = seeded_weights(cfg, 1)
        bad = TensorBuffer(np.zeros((16, 16, 3, 1)))
        with pytest.raises(errors.ConfigurationError):
            vgg_generate_tasks(cfg, bad, w, vgg_overlay())


class TestForward:
    def test_zero_weights_give_zero_output(self):
        cfg = tiny_config()
        x = random_input(cfg, 0)
        w = seeded_weights(cfg, 1)
        for buf in w.conv + w.fc:
            buf.data[...] = 0.0
        y = vgg_forward(cfg, x, w)
        assert np.all(y.data == 0.0)

    def test_matches_direct_oracle(self):
        cfg = tiny_config()
        x = random_input(cfg, 7)
        w = seeded_weights(cfg, 8)
        y = vgg_forward(cfg, x, w, worker_count=2)
        expected = oracle_cnn_forward(cfg, x, w)
        report = compare(expected, y.data, 1e-6)
        assert report.passed, report

    def test_batch_equals_independent_runs(self):
        cfg = tiny_config(batch=2)
        x = random_input(cfg, 11)
        w = seeded_weights(cfg, 12)
        y = vgg_forward(cfg, x, w, worker_count=2)
        single = dataclasses.replace(cfg, batch=1)
        for i in range(2):
            xi = TensorBuffer(x.data[:, :, :, i:i + 1].copy())
            yi = vgg_forward(single, xi, w)
            np.testing.assert_array_equal(y.data[:, i], yi.data[:, 0])

    def test_spatial_extents_halve_after_each_pool(self):
        cfg, x, w, overlay, tasks, rules, _ = build_pipeline(seed=5)
        graph = build_task_graph(tasks, rules)
        run(overlay, graph, worker_count=1)
        stored = overlay.feature_buffer.shape_log
        # conv stores keep extents, pool stores halve them; walk the log
        extents = [(s[0], s[1]) for s in stored]
        h, w_ = cfg.height, cfg.width
        expected = []
        for layer in range(13):
            expected.append((h, w_))            # conv output
            if layer in (1, 3, 6, 9, 12):
                h, w_ = h // 2, w_ // 2
                if layer != 12:
                    expected.append((h, w_))    # pool output stays on chip
        assert extents == expected
        assert (h, w_) == (cfg.height // 32, cfg.width // 32)

    def test_workers_do_not_change_output(self):
        cfg = tiny_config(batch=2)
        x = random_input(cfg, 21)
        w = seeded_weights(cfg, 22)
        outs = [vgg_forward(cfg, x, w, worker_count=k).data.copy() for k in (1, 2, 4)]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])

"""The brute-force references themselves, pinned on hand-checked values."""

import numpy as np
import pytest

from overlaysim import errors
from overlaysim.apps import random_input, seeded_weights, tiny_config
from overlaysim.oracles import (
    ComparisonReport,
    compare,
    conv2d_naive,
    fc_naive,
    maxpool2x2_naive,
    oracle_cnn_forward,
    oracle_lu,
    unpack_lu,
)


class TestOracleLu:
    def test_identity(self):
        np.testing.assert_array_equal(oracle_lu(np.eye(4)), np.eye(4))

    def test_hand_elimination(self):
        packed = oracle_lu(np.array([[4.0, 3.0], [6.0, 3.0]]))
        np.testing.assert_allclose(packed, [[4.0, 3.0], [1.5, -1.5]])
        lower, upper = unpack_lu(packed)
        np.testing.assert_allclose(lower @ upper, [[4.0, 3.0], [6.0, 3.0]])

    def test_dominant_8x8_reconstructs(self):
        rng = np.random.default_rng(31)
        a = rng.uniform(-1, 1, (8, 8)) + 8 * np.eye(8)
        lower, upper = unpack_lu(oracle_lu(a))
        err = np.linalg.norm(lower @ upper - a) / np.linalg.norm(a)
        assert err <= 1e-12

    def test_singular_pivot(self):
        with pytest.raises(errors.SingularPivotError):
            oracle_lu(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(errors.ShapeError):
            oracle_lu(np.ones((2, 3)))


class TestNaiveLayers:
    def test_zero_weights_zero_output(self):
        out = conv2d_naive(np.ones((4, 4, 2)), np.zeros((3, 3, 2, 3)))
        assert np.all(out == 0.0)

    def test_identity_1x1_passthrough(self):
        rng = np.random.default_rng(32)
        x = rng.uniform(0, 1, (4, 4, 2))  # non-negative, so ReLU is a no-op
        w = np.zeros((1, 1, 2, 2))
        w[0, 0, 0, 0] = w[0, 0, 1, 1] = 1.0
        np.testing.assert_allclose(np.maximum(conv2d_naive(x, w), 0), x)

    def test_pool_hand_case(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        assert maxpool2x2_naive(x)[0, 0, 0] == 4.0

    def test_fc_hand_case(self):
        w = np.array([[1.0, 2.0], [0.0, -1.0]])
        np.testing.assert_allclose(fc_naive(w, np.array([3.0, 4.0])), [11.0, -4.0])

    def test_conv_channel_mismatch(self):
        with pytest.raises(errors.ShapeError, match="conv2d_naive: channel mismatch 2 vs 3"):
            conv2d_naive(np.ones((4, 4, 2)), np.zeros((3, 3, 3, 1)))

    def test_pool_odd_extents(self):
        with pytest.raises(errors.ShapeError, match="maxpool2x2_naive: odd spatial extents"):
            maxpool2x2_naive(np.ones((3, 4, 1)))

    def test_fc_wrong_vector_length(self):
        with pytest.raises(errors.ShapeError, match="fc_naive: weights expect 2 inputs"):
            fc_naive(np.ones((2, 2)), np.ones(3))


class TestCnnForward:
    def test_zero_weights(self):
        cfg = tiny_config()
        x = random_input(cfg, 0)
        w = seeded_weights(cfg, 1)
        for buf in w.conv + w.fc:
            buf.data[...] = 0.0
        assert np.all(oracle_cnn_forward(cfg, x, w) == 0.0)

    def test_output_shape(self):
        cfg = tiny_config(batch=2)
        x = random_input(cfg, 2)
        w = seeded_weights(cfg, 3)
        assert oracle_cnn_forward(cfg, x, w).shape == (4, 2)

    def test_input_shape_checked(self):
        cfg = tiny_config()
        w = seeded_weights(cfg, 4)
        with pytest.raises(errors.ShapeError):
            oracle_cnn_forward(cfg, np.zeros((8, 8, 3, 1)), w)


class TestCompare:
    def test_identical(self):
        report = compare(np.ones((2, 2)), np.ones((2, 2)), 1e-6)
        assert report == ComparisonReport(0.0, 0.0, 1e-6, True)

    def test_within_tolerance(self):
        report = compare(np.array([1.0]), np.array([1.0 + 1e-7]), 1e-6)
        assert report.passed

    def test_failure_reports_magnitude(self):
        report = compare(np.zeros(3), np.ones(3), 1e-6)
        assert not report.passed
        assert report.max_abs_err == 1.0

    def test_zero_reference(self):
        assert compare(np.zeros(2), np.zeros(2), 1e-9).passed
        assert not compare(np.zeros(2), np.full(2, 1e-3), 1e-9).passed

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeError):
            compare(np.zeros(2), np.zeros(3), 1e-6)

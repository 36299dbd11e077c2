"""Kernel bodies against hand values, dense-solve references, and guard bands."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    reference_conv2d_same,
    reference_conv2d_taps,
    reference_gemm,
    reference_lu_factor_block,
    reference_maxpool,
    reference_transform_column_panel,
    reference_transform_row_panel,
)
from overlaysim import errors
from overlaysim.apps.vgg import STAGE_OF_LAYER, small_config, tiny_config
from overlaysim.kernels import (
    FeatureBuffer,
    convolution,
    gemm,
    lu_factor_block,
    maxpool,
    transform_column_panel,
    transform_row_panel,
)
from overlaysim.oracles import conv2d_naive, maxpool2x2_naive, fc_naive, unpack_lu
from overlaysim.tensors import BlockView, TensorBuffer, bcropped, cropped


def buffer_of(values):
    return TensorBuffer(np.array(values, dtype=np.float64))


def view_of(values):
    return buffer_of(values).view()


def dominant(size, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (size, size)) + size * np.eye(size)


class TestLuFactorBlock:
    def test_hand_example(self):
        view = view_of([[4.0, 3.0], [6.0, 3.0]])
        lu_factor_block(view)
        np.testing.assert_allclose(view.array(), [[4.0, 3.0], [1.5, -1.5]])

    def test_identity_is_fixed_point(self):
        view = view_of(np.eye(3))
        lu_factor_block(view)
        np.testing.assert_array_equal(view.array(), np.eye(3))

    def test_zero_leading_pivot(self):
        view = view_of([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(errors.SingularPivotError) as exc:
            lu_factor_block(view)
        assert exc.value.index == 0

    def test_non_square_rejected(self):
        with pytest.raises(errors.ShapeError):
            lu_factor_block(view_of(np.ones((2, 3))))

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 16, 33, 64, 100, 256])
    def test_reconstruction(self, m):
        a = dominant(m, seed=m)
        view = view_of(a)
        lu_factor_block(view)
        lower, upper = unpack_lu(view.array())
        err = np.linalg.norm(lower @ upper - a) / np.linalg.norm(a)
        assert err <= 1e-12


class TestTransformRowPanel:
    def test_identity_block_leaves_panel_alone(self):
        panel = np.hstack([np.eye(2), [[5.0, 6.0], [7.0, 8.0]]])
        view = view_of(panel)
        transform_row_panel(view)
        np.testing.assert_array_equal(view.array(), panel)

    def test_hand_forward_substitution(self):
        # L = [[1,0],[0.5,1]], solve L x = [2,3]^T -> [2,2]^T
        panel = view_of([[1.0, 0.0, 2.0, 0.0], [0.5, 1.0, 3.0, 0.0]])
        transform_row_panel(panel)
        np.testing.assert_allclose(panel.array()[:, 2], [2.0, 2.0])

    def test_against_dense_solve(self):
        m, k = 4, 3
        packed = dominant(m, seed=2)
        pview = view_of(packed)
        lu_factor_block(pview)
        packed = pview.array()
        rest = np.random.default_rng(3).uniform(-1, 1, (m, (k - 1) * m))
        panel = np.hstack([packed, rest])
        view = view_of(panel)
        transform_row_panel(view)
        lower, _ = unpack_lu(packed)
        expected = np.linalg.solve(lower, rest)
        err = np.linalg.norm(view.array()[:, m:] - expected) / np.linalg.norm(expected)
        assert err <= 1e-12

    def test_first_block_untouched(self):
        packed = dominant(3, seed=5)
        pview = view_of(packed)
        lu_factor_block(pview)
        first = pview.array().copy()
        panel = view_of(np.hstack([first, np.ones((3, 3))]))
        transform_row_panel(panel)
        np.testing.assert_array_equal(panel.array()[:, :3], first)

    def test_needs_trailing_blocks(self):
        with pytest.raises(errors.ShapeError):
            transform_row_panel(view_of(np.eye(3)))

    def test_width_must_be_block_multiple(self):
        with pytest.raises(errors.ShapeError):
            transform_row_panel(view_of(np.ones((2, 5))))


class TestTransformColumnPanel:
    def test_identity_block_leaves_panel_alone(self):
        panel = np.vstack([np.eye(2), [[5.0, 6.0], [7.0, 8.0]]])
        view = view_of(panel)
        transform_column_panel(view)
        np.testing.assert_array_equal(view.array(), panel)

    def test_diagonal_divide(self):
        # U = diag(2, 4); row [2, 8] * U^-1 = [1, 2]
        view = view_of([[2.0, 0.0], [0.0, 4.0], [2.0, 8.0], [0.0, 0.0]])
        transform_column_panel(view)
        np.testing.assert_allclose(view.array()[2], [1.0, 2.0])

    def test_against_dense_solve(self):
        m, k = 4, 3
        packed = dominant(m, seed=4)
        pview = view_of(packed)
        lu_factor_block(pview)
        packed = pview.array()
        rest = np.random.default_rng(5).uniform(-1, 1, ((k - 1) * m, m))
        view = view_of(np.vstack([packed, rest]))
        transform_column_panel(view)
        _, upper = unpack_lu(packed)
        # X U = rest  <=>  U^T X^T = rest^T
        expected = np.linalg.solve(upper.T, rest.T).T
        err = np.linalg.norm(view.array()[m:] - expected) / np.linalg.norm(expected)
        assert err <= 1e-12

    def test_zero_diagonal(self):
        view = view_of([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(errors.SingularPivotError) as exc:
            transform_column_panel(view)
        assert exc.value.index == 1


def embedded(arr, seed):
    """A view of arr inside a larger buffer, so kernels see strided rows."""
    rows, cols = arr.shape
    pad = np.random.default_rng(seed).uniform(-1, 1, (rows + 3, cols + 5))
    buf = TensorBuffer(pad.astype(arr.dtype))
    buf.data[1:rows + 1, 2:cols + 2] = arr
    return BlockView(buf, ((1, rows + 1), (2, cols + 2)))


def factored(m, seed):
    packed = dominant(m, seed)
    reference_lu_factor_block(packed)
    return packed


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


# the order up to which the blocked kernels promise the loops' exact bits
LOOP_ORDER = 32
# block orders around the loop/recursion boundary and its multiples
BLOCK_ORDERS = st.one_of(st.sampled_from([31, 32, 33, 64, 65, 97]), st.integers(1, 100))


class TestBlockedAgainstLoops:
    """The recursive kernels against the row/column loops they replace.

    Up to LOOP_ORDER they run the same arithmetic, so the results are equal
    bit for bit; above it the sums are regrouped into matmuls.
    """

    def check(self, kernel, reference, arr, seed):
        view = embedded(arr, seed)
        kernel(view)
        want = arr.copy()
        reference(want)
        got = view.array()
        if min(arr.shape) <= LOOP_ORDER:
            np.testing.assert_array_equal(got, want)
        else:
            assert relative_error(got, want) <= (1e-12 if arr.dtype == np.float64 else 1e-5)

    @given(BLOCK_ORDERS, st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_lu_factor_block(self, m, seed):
        self.check(lu_factor_block, reference_lu_factor_block, dominant(m, seed), seed)

    @given(BLOCK_ORDERS, st.sampled_from([2, 3]), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_row_panel(self, m, k, seed):
        rest = np.random.default_rng(seed).uniform(-1, 1, (m, (k - 1) * m))
        panel = np.hstack([factored(m, seed), rest])
        self.check(transform_row_panel, reference_transform_row_panel, panel, seed)

    @given(BLOCK_ORDERS, st.sampled_from([2, 3]), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_column_panel(self, m, k, seed):
        rest = np.random.default_rng(seed).uniform(-1, 1, ((k - 1) * m, m))
        panel = np.vstack([factored(m, seed), rest])
        self.check(transform_column_panel, reference_transform_column_panel, panel, seed)

    @pytest.mark.parametrize("kernel", ["lu", "row", "column"])
    @given(st.integers(LOOP_ORDER + 1, 100), st.sampled_from([2, 3]), st.integers(0, 2 ** 31))
    @settings(max_examples=15, deadline=None)
    def test_float32_above_loop_order(self, kernel, m, k, seed):
        rest = np.random.default_rng(seed).uniform(-1, 1, ((k - 1) * m, m))
        kernel, reference, arr = {
            "lu": (lu_factor_block, reference_lu_factor_block, dominant(m, seed)),
            "row": (transform_row_panel, reference_transform_row_panel,
                    np.hstack([factored(m, seed), rest.T])),
            "column": (transform_column_panel, reference_transform_column_panel,
                       np.vstack([factored(m, seed), rest])),
        }[kernel]
        self.check(kernel, reference, arr.astype(np.float32), seed)


class TestHeadBlockAboveBlock:
    """Above LOOP_ORDER, the recursion reads only the head block's documented triangle
    and reports pivot indices relative to the whole block."""

    M = 70

    def check_unread_triangle(self, kernel, reference, panel, head, trailing, unread):
        clean = panel.copy()
        reference(clean)
        poisoned = panel.copy()
        poisoned[head][unread] = np.nan
        view = embedded(poisoned, seed=1)
        kernel(view)
        out = view.array()
        assert out[head].tobytes() == poisoned[head].tobytes()
        assert np.all(np.isfinite(out[trailing]))
        assert relative_error(out[trailing], clean[trailing]) <= 1e-12

    def test_row_panel_ignores_upper_triangle(self):
        m = self.M
        rest = np.random.default_rng(2).uniform(-1, 1, (m, 2 * m))
        self.check_unread_triangle(
            transform_row_panel, reference_transform_row_panel,
            np.hstack([factored(m, 3), rest]),
            np.s_[:, :m], np.s_[:, m:], np.triu(np.ones((m, m), dtype=bool)))

    def test_column_panel_ignores_strict_lower_triangle(self):
        m = self.M
        rest = np.random.default_rng(4).uniform(-1, 1, (2 * m, m))
        self.check_unread_triangle(
            transform_column_panel, reference_transform_column_panel,
            np.vstack([factored(m, 5), rest]),
            np.s_[:m, :], np.s_[m:, :], np.tril(np.ones((m, m), dtype=bool), -1))

    def assert_pivot(self, kernel, arr, index):
        view = embedded(arr, seed=6)
        with pytest.raises(errors.SingularPivotError) as exc:
            kernel(view)
        assert exc.value.index == index
        assert abs(exc.value.value) < 1e-12
        return view.array()

    @pytest.mark.parametrize("m, index", [(64, 40), (130, 100)])
    def test_lu_zero_pivot_index_on_diagonal(self, m, index):
        a = np.eye(m)
        a[index, index] = 0.0
        self.assert_pivot(lu_factor_block, a, index)

    def test_lu_zero_pivot_index_of_product(self):
        rng = np.random.default_rng(7)
        lower = np.tril(rng.uniform(-0.1, 0.1, (64, 64)), -1) + np.eye(64)
        upper = np.triu(rng.uniform(-1, 1, (64, 64))) + 4 * np.eye(64)
        upper[40, 40] = 0.0
        self.assert_pivot(lu_factor_block, lower @ upper, 40)

    def test_column_panel_zero_diagonal_index(self):
        m = self.M
        head = factored(m, 8)
        head[45, 45] = 0.0
        rest = np.random.default_rng(9).uniform(-1, 1, (2 * m, m))
        self.assert_pivot(transform_column_panel, np.vstack([head, rest]), 45)

    @pytest.mark.parametrize("pivot", [0.0, 1e-14])
    def test_column_panel_zero_diagonal_in_a_later_leaf(self, pivot):
        """Order 100 halves into leaves of order 25.  The pivot at 70 lies in
        the third leaf, which raises before it writes any of its columns.
        With U's top right quarter zero, nothing else writes them either.
        A pivot of 1e-14 leaves the triangle invertible, so only the check
        can catch it."""
        m = 100
        head = factored(m, 10)
        head[:50, 50:] = 0.0
        head[70, 70] = pivot
        panel = np.vstack([head, np.random.default_rng(11).uniform(-1, 1, (m, m))])
        out = self.assert_pivot(transform_column_panel, panel, 70)
        np.testing.assert_array_equal(out[m:, 50:], panel[m:, 50:])
        assert not np.array_equal(out[m:, :50], panel[m:, :50])

    def test_lu_zero_pivot_in_a_later_leaf(self):
        rng = np.random.default_rng(12)
        lower = np.tril(rng.uniform(-0.1, 0.1, (100, 100)), -1) + np.eye(100)
        upper = np.triu(rng.uniform(-1, 1, (100, 100))) + 4 * np.eye(100)
        upper[70, 70] = 0.0
        self.assert_pivot(lu_factor_block, lower @ upper, 70)

    def test_row_panel_with_inf_below_the_diagonal(self):
        """np.linalg.inv raises on a unit triangle with an inf below its
        diagonal.  That leaf runs the row loop instead: the kernel raises
        nothing, and the rows above the inf stay finite."""
        m = self.M
        head = factored(m, 13)
        head[10, 3] = np.inf
        panel = np.hstack([head, np.random.default_rng(14).uniform(-1, 1, (m, 2 * m))])
        view = embedded(panel, seed=1)
        with np.errstate(invalid="ignore"):
            assert transform_row_panel(view) == m * m * 2 * m
        out = view.array()[:, m:]
        assert np.all(np.isfinite(out[:10]))
        assert not np.all(np.isfinite(out[10:]))


COEFFICIENTS = st.one_of(st.sampled_from([1, -1, 0, 0.5, 2]),
                         st.floats(-4, 4, allow_nan=False, allow_infinity=False))


class TestGemm:
    def test_annihilated_product(self):
        c = view_of([[3.0, 1.0], [2.0, 7.0]])
        before = c.array().copy()
        gemm(c, view_of(np.ones((2, 2))), view_of(np.ones((2, 2))),
             1.0, 0.0, 1.0)
        np.testing.assert_array_equal(c.array(), before)

    def test_hand_example(self):
        c = view_of(np.eye(2))
        a = view_of([[1.0, 2.0], [3.0, 4.0]])
        b = view_of(np.eye(2))
        gemm(c, a, b, 1.0, 1.0, 1.0)
        np.testing.assert_allclose(c.array(), [[2.0, 2.0], [3.0, 5.0]])

    def test_trailing_update_form(self):
        # alpha=1, beta=-1, gamma=1 computes C - A*B
        rng = np.random.default_rng(6)
        c0, a0, b0 = rng.normal(size=(3, 3)), rng.normal(size=(3, 2)), rng.normal(size=(2, 3))
        c = view_of(c0)
        gemm(c, view_of(a0), view_of(b0), 1.0, -1.0, 1.0)
        np.testing.assert_allclose(c.array(), c0 - a0 @ b0, atol=1e-12)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(errors.ShapeError):
            gemm(view_of(np.ones((2, 2))), view_of(np.ones((2, 3))),
                 view_of(np.ones((2, 2))), 1, 1, 1)

    def test_result_shape_mismatch(self):
        with pytest.raises(errors.ShapeError):
            gemm(view_of(np.ones((3, 2))), view_of(np.ones((2, 3))),
                 view_of(np.ones((3, 2))), 1, 1, 1)

    def test_aliasing_rejected(self):
        buf = TensorBuffer(np.ones((4, 4)))
        c = bcropped(buf, 2, 0, 0, 0, 1)        # rows [0,2) x cols [0,4)
        a_overlap = bcropped(buf, 2, 0, 0, 0, 0)  # rows [0,2) x cols [0,2)
        with pytest.raises(errors.AliasingError):
            gemm(c, a_overlap, view_of(np.ones((2, 4))), 1, 1, 1)
        b_overlap = bcropped(buf, 2, 0, 0, 0, 1)  # same region as c
        with pytest.raises(errors.AliasingError):
            gemm(c, view_of(np.ones((2, 2))), b_overlap, 1, 1, 1)
        # disjoint regions of the same buffer are fine
        c2 = bcropped(buf, 2, 0, 0, 0, 0)
        a2 = bcropped(buf, 2, 1, 1, 0, 0)
        gemm(c2, a2, view_of(np.ones((2, 2))), 1.0, 1.0, 1.0)

    def test_non_finite_coefficients(self):
        c = view_of(np.eye(2))
        before = c.array().copy()
        for name, coefficients in (("alpha", (float("nan"), 1.0, 1.0)),
                                   ("beta", (1.0, float("inf"), 1.0)),
                                   ("gamma", (1.0, 1.0, -float("inf")))):
            with pytest.raises(ValueError, match=f"coefficient {name} must be finite"):
                gemm(c, view_of(np.ones((2, 2))), view_of(np.ones((2, 2))), *coefficients)
        np.testing.assert_array_equal(c.array(), before)
        # checked before the operands: these shapes would raise ShapeError
        with pytest.raises(ValueError, match="coefficient beta"):
            gemm(view_of(np.ones((3, 2))), view_of(np.ones((2, 3))),
                 view_of(np.ones((2, 2))), 1.0, float("nan"), 1.0)

    @given(st.integers(0, 2 ** 31), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=40)
    def test_bilinearity(self, seed, b_coef, g_coef):
        rng = np.random.default_rng(seed)
        c0 = rng.normal(size=(3, 3))
        a0 = rng.normal(size=(3, 3))
        b0 = rng.normal(size=(3, 3))
        left = view_of(c0)
        gemm(left, view_of(a0), view_of(b0), 1.0, b_coef, g_coef)
        right = view_of(c0)
        gemm(right, view_of(a0), view_of(b0), 1.0, b_coef * g_coef, 1.0)
        np.testing.assert_allclose(left.array(), right.array(), atol=1e-12)

    @given(st.integers(1, 40), st.one_of(st.integers(1, 3), st.integers(4, 40)),
           st.integers(1, 300), st.integers(0, 3), st.sampled_from([np.float32, np.float64]),
           COEFFICIENTS, COEFFICIENTS, COEFFICIENTS, st.integers(0, 2 ** 31))
    # LU's trailing update with a one-row A, where an unscaled strided B
    # takes another BLAS path
    @example(1, 2, 64, 1, np.float64, 1.0, -1.0, 1.0, 0)
    @example(1, 3, 100, 0, np.float32, 1.0, -1.0, 1.0, 0)
    # LU update shapes with rows longer than the drawn ones, which the
    # in-place passes stream through numpy's ufunc buffer in several chunks
    @example(300, 300, 2, 0, np.float32, 1.0, -1.0, 1.0, 0)
    @example(300, 300, 2, 0, np.float64, 1.0, -1.0, 1.0, 0)
    @example(130, 130, 64, 3, np.float32, 1.0, -1.0, 1.0, 0)
    @example(130, 130, 64, 3, np.float64, 1.0, -1.0, 1.0, 0)
    @example(130, 130, 64, 3, np.float32, 0.5, 1.75, -0.3, 1)
    @example(300, 300, 2, 0, np.float64, -2.0, 0.3, 1.0, 1)
    @settings(max_examples=200, deadline=None)
    def test_matches_one_expression(self, m, n, k, lead, dtype, alpha, beta, gamma, seed):
        """The in-place update gives the bits of the one expression it
        replaced, on disjoint strided views of one buffer laid out as LU crops
        them: C the trailing block, A the column tail left of it and B the row
        tail above it, below `lead` rows and columns already factored."""
        data = np.random.default_rng(seed).normal(
            size=(lead + k + m, lead + k + n)).astype(dtype)
        buf = TensorBuffer(data.copy())
        inner, rows, cols = (lead, lead + k), (lead + k, lead + k + m), (lead + k, lead + k + n)
        gemm(BlockView(buf, (rows, cols)), BlockView(buf, (rows, inner)),
             BlockView(buf, (inner, cols)), alpha, beta, gamma)
        reference_gemm(data[slice(*rows), slice(*cols)], data[slice(*rows), slice(*inner)],
                       data[slice(*inner), slice(*cols)], alpha, beta, gamma)
        np.testing.assert_array_equal(buf.data, data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_restores_the_ufunc_buffer_size(self, dtype):
        # a size of its own, so that a size gemm left behind cannot pass
        outside = np.setbufsize(4096)
        try:
            buf = TensorBuffer(np.full((4, 6), 10.0, dtype=dtype))
            c, a, b = (BlockView(buf, ranges) for ranges in
                       (((0, 2), (2, 6)), ((0, 2), (0, 2)), ((2, 4), (2, 6))))
            gemm(c, a, b, 2.0, 0.5, 1.0)
            assert np.getbufsize() == 4096
            # numpy 2 restores the size on leaving errstate, so check it inside
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError):
                    gemm(c, a, b, 1e308, -1.0, 1.0)
                assert np.getbufsize() == 4096
        finally:
            np.setbufsize(outside)


def fresh_fb():
    return FeatureBuffer()


# read_input_from_buffer, store_output_to_buffer, with_relu, is_fc_layer
DDR_FLAGS = (False, False, False, False)

# (h, w, cin, cout, strided) of every conv layer of the shipped VGG presets;
# the first layer reads one map of the batched input, a strided crop
PRESET_CONV_SHAPES = sorted({
    (cfg.height >> STAGE_OF_LAYER[layer], cfg.width >> STAGE_OF_LAYER[layer], cin, cout,
     layer == 0)
    for cfg in (tiny_config(), small_config())
    for layer, (cin, cout) in enumerate(cfg.conv_channel_plan())
})


def conv_of_crop(x0, w0, batch):
    """The convolution kernel on the last map of x0 (H x W x Cin x batch),
    read through a crop of the batch axis, into a fresh H x W x Cout view."""
    y = TensorBuffer(np.zeros(x0.shape[:2] + w0.shape[3:], dtype=x0.dtype)).view()
    convolution(cropped(TensorBuffer(x0), 3, batch - 1, 1), y, TensorBuffer(w0).view(),
                *DDR_FLAGS, None)
    return y.array()


class TestConvolution:
    def test_degenerate_1x1(self):
        x = view_of(np.full((1, 1, 1), 3.0))
        y = view_of(np.zeros((1, 1, 1)))
        w = TensorBuffer(np.full((1, 1, 1, 1), 2.0)).view()
        convolution(x, y, w, *DDR_FLAGS, None)
        assert y.array()[0, 0, 0] == 6.0

    def test_relu_clamps_negative_field(self):
        x = view_of(np.full((4, 4, 2), -1.0))
        y = view_of(np.zeros((4, 4, 3)))
        w = TensorBuffer(np.abs(np.random.default_rng(7).normal(size=(3, 3, 2, 3)))).view()
        flags = (False, False, True, False)
        convolution(x, y, w, *flags, None)
        assert np.all(y.array() == 0.0)
        # same weights without ReLU give strictly negative sums somewhere
        y2 = view_of(np.zeros((4, 4, 3)))
        convolution(x, y2, w, *DDR_FLAGS, None)
        assert np.min(y2.array()) < 0.0

    def test_averaging_kernel_matches_nested_loops(self):
        rng = np.random.default_rng(8)
        x0 = rng.uniform(-1, 1, (4, 4, 1))
        w0 = np.full((3, 3, 1, 1), 1.0 / 9.0)
        y = view_of(np.zeros((4, 4, 1)))
        convolution(view_of(x0), y, view_of(w0), *DDR_FLAGS, None)
        expected = conv2d_naive(x0, w0)
        assert np.max(np.abs(y.array() - expected)) <= 1e-12

    def test_multichannel_matches_nested_loops(self):
        rng = np.random.default_rng(9)
        x0 = rng.uniform(-1, 1, (5, 6, 3))
        w0 = rng.uniform(-1, 1, (3, 3, 3, 4))
        y = view_of(np.zeros((5, 6, 4)))
        convolution(view_of(x0), y, view_of(w0), *DDR_FLAGS, None)
        np.testing.assert_allclose(y.array(), conv2d_naive(x0, w0), atol=1e-12)

    def test_flop_count_is_two_per_weight_per_pixel(self):
        # 2 H W x #weights, on a map whose height and width differ
        x = view_of(np.ones((4, 6, 2)))
        y = view_of(np.zeros((4, 6, 5)))
        w = view_of(np.ones((3, 3, 2, 5)))
        assert convolution(x, y, w, *DDR_FLAGS, None) == 2 * 4 * 6 * 90

    def test_channel_mismatch(self):
        x = view_of(np.zeros((4, 4, 2)))
        y = view_of(np.zeros((4, 4, 1)))
        w = view_of(np.zeros((3, 3, 3, 1)))
        with pytest.raises(errors.ShapeError):
            convolution(x, y, w, *DDR_FLAGS, None)

    def test_rank2_input_rejected(self):
        x = view_of(np.zeros((4, 4)))
        y = view_of(np.zeros((4, 4, 1)))
        with pytest.raises(errors.ShapeError,
                           match=r"convolution input: expected rank 3, got shape \(4, 4\)"):
            convolution(x, y, view_of(np.zeros((1, 1, 1, 1))), *DDR_FLAGS, None)

    def test_store_without_a_feature_buffer(self):
        x = view_of(np.zeros((2, 2, 1)))
        with pytest.raises(errors.EmptyFeatureBufferError,
                           match="no feature buffer available for store"):
            convolution(x, x, view_of(np.zeros((1, 1, 1, 1))), False, True, False, False, None)

    def test_output_view_of_the_wrong_size(self):
        x = view_of(np.zeros((2, 2, 1)))
        y = view_of(np.zeros((2, 2, 2)))
        with pytest.raises(errors.ShapeError,
                           match="output view holds 8 elements, result has 4"):
            convolution(x, y, view_of(np.zeros((1, 1, 1, 1))), *DDR_FLAGS, None)

    def test_read_from_empty_feature_buffer(self):
        flags = (True, False, False, False)
        x = view_of(np.zeros((2, 2, 1)))
        with pytest.raises(errors.EmptyFeatureBufferError):
            convolution(x, x, view_of(np.zeros((1, 1, 1, 1))), *flags, fresh_fb())

    def test_feature_buffer_routing(self):
        fb = fresh_fb()
        x0 = np.random.default_rng(10).uniform(0, 1, (4, 4, 2))
        w_id = np.zeros((1, 1, 2, 2))
        w_id[0, 0, 0, 0] = w_id[0, 0, 1, 1] = 1.0
        dummy = view_of(np.zeros((1,)))
        # store pass: DDR -> feature buffer
        convolution(view_of(x0), dummy, view_of(w_id),
                    False, True, False, False, fb)
        assert fb.slot is not None and fb.slot.shape == (4, 4, 2)
        # read pass: feature buffer -> DDR
        y = view_of(np.zeros((4, 4, 2)))
        convolution(dummy, y, view_of(w_id),
                    True, False, False, False, fb)
        np.testing.assert_allclose(y.array(), x0)

    def test_fc_mode_matches_naive(self):
        rng = np.random.default_rng(11)
        x0 = rng.uniform(-1, 1, (2, 2, 3))
        w0 = rng.uniform(-1, 1, (5, 12))
        y = view_of(np.zeros(5))
        convolution(view_of(x0), y, view_of(w0),
                    False, False, False, True, None)
        np.testing.assert_allclose(y.array(), fc_naive(w0, x0.reshape(-1)), atol=1e-12)

    def test_fc_width_mismatch(self):
        x = view_of(np.zeros((2, 2, 1)))
        w = view_of(np.zeros((5, 7)))
        with pytest.raises(errors.ShapeError):
            convolution(x, x, w, False, False, False, True, None)

    def test_relu_idempotent_through_identity_weights(self):
        rng = np.random.default_rng(12)
        x0 = rng.uniform(-1, 1, (4, 4, 2))
        w_id = np.zeros((1, 1, 2, 2))
        w_id[0, 0, 0, 0] = w_id[0, 0, 1, 1] = 1.0
        flags = (False, False, True, False)
        once = view_of(np.zeros((4, 4, 2)))
        convolution(view_of(x0), once, view_of(w_id), *flags, None)
        twice = view_of(np.zeros((4, 4, 2)))
        convolution(once, twice, view_of(w_id), *flags, None)
        np.testing.assert_array_equal(once.array(), twice.array())

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 8), st.integers(1, 8),
           st.sampled_from([1, 3]), st.sampled_from([np.float32, np.float64]),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_tensordot_loop(self, h, w, cin, cout, k, dtype, strided, seed):
        """Within rounding of the tensordot tap loop, on a dense input and on
        one map of a batched input, the strided crop the first VGG layer reads."""
        rng = np.random.default_rng(seed)
        batch = 3 if strided else 1
        x0 = rng.uniform(-1, 1, (h, w, cin, batch)).astype(dtype)
        w0 = rng.uniform(-1, 1, (k, k, cin, cout)).astype(dtype)
        got = conv_of_crop(x0, w0, batch)
        want = reference_conv2d_same(x0[..., batch - 1], w0)
        tol = 1e-12 if dtype is np.float64 else 1e-5
        assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h, w, cin, cout, strided", PRESET_CONV_SHAPES)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_stacked_taps_keep_tap_loop_bits_on_presets(self, h, w, cin, cout, strided,
                                                        dtype, seed):
        """Bit for bit the per-tap loop it replaces, on every conv layer shape
        of the tiny and small VGG presets."""
        rng = np.random.default_rng(seed)
        batch = 3 if strided else 1
        x0 = rng.uniform(-1, 1, (h, w, cin, batch)).astype(dtype)
        w0 = rng.uniform(-1, 1, (3, 3, cin, cout)).astype(dtype)
        np.testing.assert_array_equal(conv_of_crop(x0, w0, batch),
                                      reference_conv2d_taps(x0[..., batch - 1], w0))

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 8), st.integers(1, 8),
           st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]),
           st.sampled_from([np.float32, np.float64]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @example(1, 1, 1, 1, 3, 1, np.float64, False, 0)  # each tap's product is one number
    @settings(max_examples=60, deadline=None)
    def test_stacked_taps_match_tap_loop(self, h, w, cin, cout, kh, kw, dtype, strided,
                                         seed):
        """Within rounding of the per-tap loop on any shape, square kernel or
        not, where BLAS may sum a tap's channels in another order."""
        rng = np.random.default_rng(seed)
        batch = 3 if strided else 1
        x0 = rng.uniform(-1, 1, (h, w, cin, batch)).astype(dtype)
        w0 = rng.uniform(-1, 1, (kh, kw, cin, cout)).astype(dtype)
        got = conv_of_crop(x0, w0, batch)
        want = reference_conv2d_taps(x0[..., batch - 1], w0)
        assert got.dtype == want.dtype
        tol = 1e-12 if dtype is np.float64 else 1e-5
        assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("k", [1, 3])
    def test_all_negative_zero_sums_to_positive_zero(self, k):
        """The tap sum starts from +0.0, as the zeroed output of the tap loop did."""
        x0 = np.full((4, 4, 2, 1), -0.0)
        w0 = np.ones((k, k, 2, 2))
        got = conv_of_crop(x0, w0, 1)
        assert np.all(got == 0.0) and not np.any(np.signbit(got))

    @pytest.mark.parametrize("is_fc, store", [(False, False), (False, True), (True, False)])
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_in_place_relu_keeps_the_bytes_of_a_fresh_clamp(self, is_fc, store, data):
        """The ReLU clamps the kernel's own result array in place; the bytes
        it delivers, to a view or to the feature buffer, are those of
        np.maximum(result, 0) into a new array, on maps and weights holding
        -0.0 and NaN."""
        special = st.sampled_from([0.0, -0.0, float("nan"), 1.0, -1.0, 0.5])
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        h, w, cin, cout = (data.draw(st.integers(1, 4)) for _ in range(4))
        x0 = np.array(data.draw(st.lists(special, min_size=h * w * cin, max_size=h * w * cin)),
                      dtype=dtype).reshape(h, w, cin)
        w_shape = (cout, h * w * cin) if is_fc else (3, 3, cin, cout)
        size = int(np.prod(w_shape))
        w0 = np.array(data.draw(st.lists(special, min_size=size, max_size=size)),
                      dtype=dtype).reshape(w_shape)
        out_shape = (cout,) if is_fc else (h, w, cout)

        def delivered(with_relu):
            fb = fresh_fb()
            y = TensorBuffer(np.zeros(out_shape, dtype=dtype)).view()
            convolution(TensorBuffer(x0).view(), y, TensorBuffer(w0).view(),
                        False, store, with_relu, is_fc, fb)
            return fb.slot if store else y.array()

        with np.errstate(invalid="ignore"):
            plain, clamped = delivered(False), delivered(True)
            assert clamped.tobytes() == np.maximum(plain, 0).tobytes()


# ties, signed zeros and the default NaN, where the order of the maxima shows
POOL_SPECIAL_VALUES = [0.0, -0.0, float("nan"), 1.0, -1.0, 2.0]


class TestMaxpool:
    def seeded_fb(self, arr):
        fb = fresh_fb()
        fb.store(np.asarray(arr, dtype=np.float64))
        return fb

    def test_max_of_four(self):
        fb = self.seeded_fb(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
        y = view_of(np.zeros((1, 1, 1)))
        maxpool(y, False, fb)
        assert y.array()[0, 0, 0] == 4.0

    def test_constant_field(self):
        fb = self.seeded_fb(np.full((6, 4, 2), 2.5))
        y = view_of(np.zeros((3, 2, 2)))
        maxpool(y, False, fb)
        assert np.all(y.array() == 2.5)
        assert y.shape == (3, 2, 2)

    def test_matches_windowed_brute_force(self):
        x0 = np.random.default_rng(13).uniform(-1, 1, (8, 8, 3))
        fb = self.seeded_fb(x0)
        y = view_of(np.zeros((4, 4, 3)))
        maxpool(y, False, fb)
        np.testing.assert_array_equal(y.array(), maxpool2x2_naive(x0))

    def test_store_back_to_feature_buffer(self):
        fb = self.seeded_fb(np.random.default_rng(14).uniform(0, 1, (4, 4, 2)))
        dummy = view_of(np.zeros((1,)))
        maxpool(dummy, True, fb)
        assert fb.slot.shape == (2, 2, 2)
        assert fb.shape_log[-1] == (2, 2, 2)

    def test_empty_feature_buffer(self):
        with pytest.raises(errors.EmptyFeatureBufferError):
            maxpool(view_of(np.zeros((1, 1, 1))), False, fresh_fb())

    def test_odd_extents(self):
        fb = self.seeded_fb(np.zeros((3, 4, 1)))
        with pytest.raises(errors.ShapeError):
            maxpool(view_of(np.zeros((1, 2, 1))), False, fb)

    @pytest.mark.parametrize("shape", [(3, 4, 1), (4, 3, 1), (6, 5, 2)])
    def test_odd_extent_in_one_axis(self, shape):
        fb = self.seeded_fb(np.zeros(shape))
        y = view_of(np.full((3, 2, 2), 7.0))
        with pytest.raises(errors.ShapeError, match="spatial extents must be even"):
            maxpool(y, False, fb)
        assert np.all(y.array() == 7.0)

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 8),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_axis_reduce(self, half_h, half_w, c, dtype, seed):
        """Byte for byte the reshape-and-reduce pool it replaced, on maps that
        mix special values with random floats."""
        rng = np.random.default_rng(seed)
        shape = (2 * half_h, 2 * half_w, c)
        special = rng.choice(np.array(POOL_SPECIAL_VALUES, dtype=dtype), shape)
        x0 = np.where(rng.random(shape) < 0.5, special, rng.standard_normal(shape).astype(dtype))
        fb = fresh_fb()
        fb.store(x0)
        maxpool(view_of(np.zeros((1,))), True, fb)
        assert fb.slot.dtype == x0.dtype
        assert fb.slot.tobytes() == reference_maxpool(x0).tobytes()


class TestInPlaceContainment:
    """Kernels must write only inside their declared output views."""

    def guarded(self, seed=0):
        rng = np.random.default_rng(seed)
        buf = TensorBuffer(rng.uniform(1, 2, (8, 8)))
        return buf

    def assert_outside_unchanged(self, buf, view, before):
        mask = np.ones(buf.shape, dtype=bool)
        (r0, r1), (c0, c1) = view.elem_ranges
        mask[r0:r1, c0:c1] = False
        np.testing.assert_array_equal(buf.data[mask], before[mask])

    def test_lu_factor_block(self):
        buf = self.guarded(20)
        buf.data += 8 * np.eye(8)
        before = buf.data.copy()
        view = bcropped(buf, 2, 1, 1, 1, 1)
        lu_factor_block(view)
        self.assert_outside_unchanged(buf, view, before)

    def test_row_panel(self):
        buf = self.guarded(21)
        buf.data += 8 * np.eye(8)
        prep = bcropped(buf, 2, 1, 1, 1, 1)
        lu_factor_block(prep)
        before = buf.data.copy()
        view = bcropped(buf, 2, 1, 1, 1, 3)
        transform_row_panel(view)
        self.assert_outside_unchanged(buf, view, before)

    def test_column_panel(self):
        buf = self.guarded(22)
        buf.data += 8 * np.eye(8)
        prep = bcropped(buf, 2, 1, 1, 1, 1)
        lu_factor_block(prep)
        before = buf.data.copy()
        view = bcropped(buf, 2, 1, 3, 1, 1)
        transform_column_panel(view)
        self.assert_outside_unchanged(buf, view, before)

    def test_gemm(self):
        buf = self.guarded(23)
        before = buf.data.copy()
        c = bcropped(buf, 2, 1, 2, 1, 2)
        a = view_of(np.ones((4, 4)))
        b = view_of(np.ones((4, 4)))
        gemm(c, a, b, 0.5, 1.0, 1.0)
        self.assert_outside_unchanged(buf, c, before)

    def test_convolution_output_view(self):
        buf = TensorBuffer(np.full((6, 6, 2), 9.0))
        before = buf.data.copy()
        y = BlockView(buf, ((1, 5), (1, 5), (0, 2)))
        x = view_of(np.random.default_rng(24).uniform(0, 1, (4, 4, 2)))
        w = view_of(np.random.default_rng(25).uniform(0, 1, (3, 3, 2, 2)))
        convolution(x, y, w, *DDR_FLAGS, None)
        mask = np.ones(buf.shape, dtype=bool)
        mask[1:5, 1:5, :] = False
        np.testing.assert_array_equal(buf.data[mask], before[mask])


def test_float32_pipeline_stays_float32():
    a = (np.random.default_rng(26).uniform(-1, 1, (4, 4)) + 4 * np.eye(4)).astype(np.float32)
    view = TensorBuffer(a).view()
    lu_factor_block(view)
    assert view.array().dtype == np.float32

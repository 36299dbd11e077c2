"""Software bodies of the six overlay kernels, their access sets, and the
on-chip feature buffer model.

The four dense linear-algebra kernels update their operands in place: results
land in the same storage the input views expose.  The LU factor and the two
panel solves are recursive blocked algorithms.  A block of order BLOCK or less
runs the row (or column, or rank-1) loop the recursion replaced, and so gives
the loop's bits.  Above BLOCK a block splits in half, and the off-diagonal
work becomes one matmul.  Inside the recursion each triangular solve of order
BLOCK or less is one more matmul, by the inverse of its triangle, and each
factor of that order runs the rank-1 loop.  Both panel solves go through one
lower triangular solver, with a unit or a stored diagonal; the column panel
solves U^T X^T = T^T on transposed views.  A stored diagonal is checked
against the pivot epsilon row by row in the loop, and a whole leaf at a time
inside the recursion, before the leaf writes anything.

The CNN kernels route their input/output through either DDR views or the
single-slot feature buffer, which holds the stored result array itself.  In
access sets the slot is a view of a one-element buffer, with an id from the
same counter as every other buffer's.

Every kernel takes a task's arguments as the task tuple carries them: views,
then plain scalar coefficients (gemm's alpha, beta, gamma) or plain bool
control flags (convolution's four, maxpool's one), then the feature buffer
for the CNN kernels.  Every kernel returns its flop estimate, computed from
the operand shapes it has checked; the runtime turns that count into the
task's virtual duration.

Below each kernel, X_access_sets takes its arguments and returns the element
ranges it reads and writes.  Each dense kernel and its access sets share one
shape check, so operands the kernel would reject have no footprint either,
and the overlay rejects them at enqueue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AliasingError,
    EmptyFeatureBufferError,
    ShapeError,
    SingularPivotError,
)
from .tensors import READ, READ_WRITE, WRITE, AccessSet, BlockView, access_set, new_buffer

# pivots below this magnitude count as singular (no pivoting is performed)
PIVOT_EPSILON = {
    np.dtype(np.float64): 1e-12,
    np.dtype(np.float32): 1e-6,
}


def pivot_epsilon(dtype) -> float:
    return PIVOT_EPSILON[np.dtype(dtype)]


# order at or below which the triangular solves and the LU factor stop
# splitting in half
BLOCK = 32


@dataclass
class FeatureBuffer:
    """Single on-chip slot carrying an intermediate feature map between layers.

    slot holds the stored array itself, not a copy: every kernel stores a
    freshly allocated result, which nothing else references.  cell is a view
    of a one-element buffer that stands for the slot in access sets, so any
    two uses of the slot with a write conflict.  shape_log records every
    stored shape, in order, so tests can follow the spatial extents through
    a pipeline.
    """

    slot: np.ndarray | None = None
    cell: BlockView = field(default_factory=lambda: new_buffer([1]).view())
    shape_log: list = field(default_factory=list)

    def store(self, arr: np.ndarray) -> None:
        self.slot = arr
        self.shape_log.append(tuple(arr.shape))


def _stored_map(fb: FeatureBuffer | None, what: str) -> np.ndarray:
    """The feature buffer's current map; raises when nothing has been stored."""
    if fb is None or fb.slot is None:
        raise EmptyFeatureBufferError(f"{what} reads the feature buffer, which is empty")
    return fb.slot


def _rank2(view: BlockView, what: str) -> tuple[int, int]:
    shape = view.shape
    if len(shape) != 2:
        raise ShapeError(f"{what}: expected a rank-2 view, got shape {shape}")
    return shape


def _lower_solve(lower: np.ndarray, x: np.ndarray, eps: float | None = None,
                 offset: int = 0) -> None:
    """x <- L^-1 x in place, for L the lower triangle of `lower`.

    With eps None, L has an implicit unit diagonal and only the strict lower
    triangle is read.  Otherwise the diagonal is read and divided out, and a
    diagonal entry below eps raises SingularPivotError(offset + r).  A solve
    of order BLOCK or less runs the row loop, which checks each diagonal entry
    before row r of x is written.  Above BLOCK rows the solve splits in half:
    the off-diagonal block becomes one matmul, and each leaf of order BLOCK
    or less another, by the inverse of its triangle (_inverse_leaf).  A leaf
    checks its whole diagonal before it writes any row of its part of x; the
    leaves before it have been written by then.
    """
    if lower.shape[0] <= BLOCK:
        _row_loop(lower, x, eps, offset)
    else:
        _split_solve(lower, x, eps, offset)


def _row_loop(lower: np.ndarray, x: np.ndarray, eps: float | None, offset: int) -> None:
    """_lower_solve by forward substitution, one row of x at a time."""
    # a dense copy in x's own memory order: the row loop then streams, and
    # runs the same BLAS calls as it would on x itself
    slab = x.copy(order="K")
    for r in range(lower.shape[0]):
        if eps is not None:
            diag = lower[r, r]
            if abs(diag) < eps:
                raise SingularPivotError(offset + r, float(diag))
        if r:
            slab[r, :] -= lower[r, :r] @ slab[:r, :]
        if eps is not None:
            slab[r, :] /= diag
    x[...] = slab


def _split_solve(lower: np.ndarray, x: np.ndarray, eps: float | None, offset: int) -> None:
    """_lower_solve halved down to leaves of order BLOCK or less."""
    n = lower.shape[0]
    if n <= BLOCK:
        _inverse_leaf(lower, x, eps, offset)
        return
    h = n // 2
    _split_solve(lower[:h, :h], x[:h], eps, offset)
    # the product in x's memory order, so the subtraction streams
    x[h:] -= np.matmul(lower[h:, :h], x[:h], out=np.empty_like(x[h:]))
    _split_solve(lower[h:, h:], x[h:], eps, offset + h)


def _inverse_leaf(lower: np.ndarray, x: np.ndarray, eps: float | None, offset: int) -> None:
    """_lower_solve as one matmul by the inverse of L.

    np.tril zeroes the triangle that is not read, so whatever it holds, NaN
    included, stays out of the product.  np.linalg.inv pivots, and raises on
    some triangles the row loop solves, such as a unit triangle with an inf
    below its diagonal; that leaf then runs the row loop.  A NaN or inf that
    does reach the product can make more of the leaf non-finite than the
    row loop would, since the inverse's zeros times inf are NaN.
    """
    if eps is None:
        tri = np.tril(lower, -1)
        np.fill_diagonal(tri, 1)
    else:
        diag = np.diagonal(lower)
        small = np.flatnonzero(np.abs(diag) < eps)
        if small.size:
            r = small[0]
            raise SingularPivotError(offset + int(r), float(diag[r]))
        tri = np.tril(lower)
    try:
        inverse = np.linalg.inv(tri)
    except np.linalg.LinAlgError:
        _row_loop(lower, x, eps, offset)
        return
    x[...] = np.matmul(inverse, x, out=np.empty_like(x))


def _lu_factor(a: np.ndarray, eps: float, offset: int) -> None:
    """Unpivoted LU of a in place; pivot indices are reported plus offset."""
    m = a.shape[0]
    if m <= BLOCK:
        for k in range(m):
            pivot = a[k, k]
            if abs(pivot) < eps:
                raise SingularPivotError(offset + k, float(pivot))
            col = a[k + 1:, k]
            col /= pivot
            # the products np.outer(col, a[k, k + 1:]) forms, without its copies
            a[k + 1:, k + 1:] -= col[:, None] * a[k, k + 1:]
        return
    h = m // 2
    _lu_factor(a[:h, :h], eps, offset)
    _split_solve(a[:h, :h], a[:h, h:], None, 0)
    _split_solve(a[:h, :h].T, a[h:, :h].T, eps, offset)  # X U = T  <=>  U^T X^T = T^T
    a[h:, h:] -= a[h:, :h] @ a[:h, h:]
    _lu_factor(a[h:, h:], eps, offset + h)


def lu_factor_block(block: BlockView) -> int:
    """Factor a square block into L and U stored in place; returns 2m^3/3 flops.

    The strict lower triangle holds L's sub-diagonal entries (its unit
    diagonal is implicit); the upper triangle including the diagonal holds U.
    No pivoting: a near-zero pivot raises instead, with its index in the block.
    """
    m = _block_order(block)
    a = block.array()
    _lu_factor(a, pivot_epsilon(a.dtype), 0)
    return (2 * m ** 3) // 3


def _block_order(block: BlockView) -> int:
    """The order m of a square m x m block; any other shape raises ShapeError."""
    rows, cols = _rank2(block, "lu_factor_block")
    if rows != cols:
        raise ShapeError(f"lu_factor_block: block must be square, got {block.shape}")
    return rows


def lu_factor_block_access_sets(block: BlockView) -> tuple[AccessSet, ...]:
    _block_order(block)
    return (access_set(block, READ_WRITE),)


def _panel_order(panel: BlockView, row: bool) -> int:
    """The order m of the head block of an m x (k*m) row panel or a (k*m) x m
    column panel, k >= 2; any other shape raises ShapeError."""
    what = "transform_row_panel" if row else "transform_column_panel"
    shape = _rank2(panel, what)
    m, length = shape if row else shape[::-1]
    if length <= m or length % m:
        form = "m x (k*m)" if row else "(k*m) x m"
        raise ShapeError(f"{what}: panel must be {form} with k >= 2, got {shape}")
    return m


def transform_row_panel(panel: BlockView) -> int:
    """Apply L_ii^-1 to the trailing blocks of an m x (k*m) row panel, in place.

    The first m x m block must hold a prior lu_factor_block result; only its
    strict lower triangle (plus the implicit unit diagonal) is read.  Returns
    m^2 (width - m) flops.
    """
    m = _panel_order(panel, row=True)
    a = panel.array()
    _lower_solve(a[:, :m], a[:, m:])
    return m * m * (a.shape[1] - m)


def transform_row_panel_access_sets(panel: BlockView) -> tuple[AccessSet, ...]:
    """Reads the head block, reads and writes the trailing blocks."""
    m = _panel_order(panel, row=True)
    rows, (c0, c1) = panel.elem_ranges
    return (AccessSet(panel.buffer.id, (rows, (c0, c0 + m)), READ),
            AccessSet(panel.buffer.id, (rows, (c0 + m, c1)), READ_WRITE))


def transform_column_panel(panel: BlockView) -> int:
    """Apply U_ii^-1 from the right to the trailing blocks of a (k*m) x m column panel.

    The first m x m block must hold U_ii in its upper triangle (a
    lu_factor_block result); the strict lower part is ignored.  Returns
    m^2 (height - m) flops.
    """
    m = _panel_order(panel, row=False)
    a = panel.array()
    # X U = T  <=>  U^T X^T = T^T, solved on transposed views
    _lower_solve(a[:m, :].T, a[m:, :].T, pivot_epsilon(a.dtype))
    return m * m * (a.shape[0] - m)


def transform_column_panel_access_sets(panel: BlockView) -> tuple[AccessSet, ...]:
    """Reads the head block, reads and writes the trailing blocks."""
    m = _panel_order(panel, row=False)
    (r0, r1), cols = panel.elem_ranges
    return (AccessSet(panel.buffer.id, ((r0, r0 + m), cols), READ),
            AccessSet(panel.buffer.id, ((r0 + m, r1), cols), READ_WRITE))


def gemm(c: BlockView, a: BlockView, b: BlockView,
         alpha: float, beta: float, gamma: float) -> int:
    """C = alpha*C + beta*A*(gamma*B), in place on C; returns 2 m k n flops.

    The coefficients must be finite; they are checked before any operand is
    read.  C must not share elements with A or B, as the product is accumulated
    into C's storage directly; gemm_access_sets checks that and the shapes,
    and gemm_update then updates C.
    """
    _check_coefficients(alpha, beta, gamma)
    gemm_access_sets(c, a, b, alpha, beta, gamma)
    return gemm_update(c, a, b, alpha, beta, gamma)


def gemm_update(c: BlockView, a: BlockView, b: BlockView,
                alpha: float, beta: float, gamma: float) -> int:
    """gemm on operands whose shapes and aliasing gemm_access_sets has passed,
    as those of an enqueued GEMM task have: checks the coefficients, then
    updates C.

    The product A(gamma*B) is the one C-sized temporary: C is scaled and
    updated in place, as a BLAS gemm does, and a unit alpha or beta costs no
    pass, so LU's C - A*B streams C once.  The bits equal those of
    `alpha * C + beta * (A @ (gamma * B))`, since x*1 = x and c + (-1*p) =
    c - p exactly.  B is scaled even when gamma is 1: a strided B handed
    straight to the matmul can take another BLAS path and change the bits.

    The passes over C run with numpy's ufunc buffer set to 64 elements.  C is
    a crop of a larger buffer, with rows shorter than the default 8192-element
    buffer, and numpy then runs an in-place ufunc on it through that buffer,
    two to four times slower than on contiguous storage; a small buffer lets
    it stream the rows in place.  The passes stay elementwise and in the same
    order, so the bits do not change.  The old size is put back in a
    `finally`, since numpy 1.x's errstate does not restore it.
    """
    _check_coefficients(alpha, beta, gamma)
    cm, am, bm = c.array(), a.array(), b.array()
    prod = am @ (gamma * bm)
    old = np.setbufsize(64)
    try:
        if alpha != 1:
            cm *= alpha
        if beta == -1:
            cm -= prod
        else:
            if beta != 1:
                prod *= beta
            cm += prod
    finally:
        np.setbufsize(old)
    return 2 * am.shape[0] * am.shape[1] * bm.shape[1]


def _check_coefficients(alpha: float, beta: float, gamma: float) -> None:
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not math.isfinite(value):
            raise ValueError(f"coefficient {name} must be finite")


def gemm_access_sets(c: BlockView, a: BlockView, b: BlockView,
                     alpha: float, beta: float, gamma: float) -> tuple[AccessSet, ...]:
    """C (m x n) is read and written, A (m x k) and B (k x n) are read; any
    other shapes raise ShapeError, and a C sharing elements with A or B
    raises AliasingError."""
    cs, (m, k), (kb, n) = _rank2(c, "gemm C"), _rank2(a, "gemm A"), _rank2(b, "gemm B")
    if k != kb:
        raise ShapeError(f"gemm: inner dimensions {a.shape} x {b.shape} disagree")
    if cs != (m, n):
        raise ShapeError(f"gemm: C has shape {cs}, expected {(m, n)}")
    written, *read = sets = (access_set(c, READ_WRITE), access_set(a, READ), access_set(b, READ))
    if any(written.conflict(s) is not None for s in read):
        raise AliasingError("gemm: C overlaps an input operand")
    return sets


def _squeeze_to(arr: np.ndarray, rank: int, what: str) -> np.ndarray:
    """Drop trailing unit axes down to the target rank (crops keep full rank)."""
    while arr.ndim > rank and arr.shape[-1] == 1:
        arr = arr.reshape(arr.shape[:-1])
    if arr.ndim != rank:
        raise ShapeError(f"{what}: expected rank {rank}, got shape {arr.shape}")
    return arr


def _conv2d_same(arr: np.ndarray, wt: np.ndarray, relu: bool) -> np.ndarray:
    """Stride-1 cross-correlation with zero padding that preserves H x W,
    clamped at zero when relu is set.

    The taps run as one stacked matmul.  The map is padded once into an
    (H + Kh) x W' x Cin array, W' = W + Kw - 1.  Flattened over its pixels,
    tap (u, v) reads the H W' pixels that start at pixel u W' + v, so the Kh Kw
    tap windows are one strided view of the padded map, with no copy; the
    spare row keeps the last window in bounds.  One np.matmul multiplies each
    window by its tap's weights, and np.add.reduce sums the products over
    the leading tap axis, which numpy does one tap after the other onto the
    +0.0 initial value: the taps are summed in tap order from zero, as a
    `+=` loop over the taps into a zeroed output sums them.  The ReLU runs
    in place on that fresh contiguous sum, which gives the bytes of a clamp
    of the sliced result into a new array, since the clamp is elementwise.
    The W' - W trailing columns of each row, which wrap around into the
    next row, are sliced off last.  The small maps of the VGG pipeline cost
    per call, not per flop, so two numpy calls do the work of 2 Kh Kw.  The
    view comes from the ndarray constructor, since as_strided costs more
    than a small map's matmul.  im2col was not taken: it sums taps and
    channels together in BLAS order, so its bits differ, and its column
    temporary raises the process's peak memory.

    The bits equal those of that loop with one `@` per tap on a window of the
    padded map (tests/helpers.reference_conv2d_taps) on every conv layer
    shape of the tiny and small VGG presets, at f32 and f64.  On other shapes
    BLAS may sum a tap's channels in another order for the H W' rows of a
    stacked product than for the W rows of a window, which moves the last
    bits of some maps with two or more input channels.
    """
    h, w, cin = arr.shape
    kh, kw, wcin, cout = wt.shape
    if wcin != cin:
        raise ShapeError(f"convolution: input has {cin} channels, weights expect {wcin}")
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    wide = w + kw - 1
    padded = np.zeros((h + kh, wide, cin), dtype=np.result_type(arr, wt))
    padded[ph:ph + h, pw:pw + w, :] = arr
    row, pixel, channel = padded.strides
    windows = np.ndarray((kh, kw, h * wide, cin), padded.dtype, buffer=padded,
                         strides=(row, pixel, pixel, channel))
    prods = np.matmul(windows, wt).reshape(kh * kw, h * wide, cout)
    out = np.add.reduce(prods, axis=0, initial=0.0)
    if relu:
        np.maximum(out, 0.0, out=out)
    return out.reshape(h, wide, cout)[:, :w]


def _deliver(out: np.ndarray, y: BlockView, store_to_buffer: bool,
             fb: FeatureBuffer | None) -> None:
    if store_to_buffer:
        if fb is None:
            raise EmptyFeatureBufferError("no feature buffer available for store")
        fb.store(out)
        return
    dst = y.array()
    if dst.size != out.size:
        raise ShapeError(f"output view holds {dst.size} elements, result has {out.size}")
    dst[...] = out.reshape(dst.shape)


def convolution(x: BlockView, y: BlockView, w: BlockView,
                read_input_from_buffer: bool, store_output_to_buffer: bool,
                with_relu: bool, is_fc_layer: bool, fb: FeatureBuffer | None) -> int:
    """Convolution / fully-connected kernel with flag-selected I/O routing.

    Plain mode: H x W x Cin input, Kh x Kw x Cin x Cout weights, stride-1
    zero-padded cross-correlation preserving H x W.  FC mode: the input is
    flattened and the weights act as an (out, in) matrix; is_fc_layer picks
    it.  Input comes from the feature buffer or the X view, output goes to
    the feature buffer or the Y view, as read_input_from_buffer and
    store_output_to_buffer say; with_relu clamps the result at zero, in
    place on the fresh result array.  When a flag routes I/O through the
    feature buffer the corresponding view argument is ignored entirely.
    Returns 2 x #weights flops for FC, else 2 H W x #weights for the H x W
    map actually read.
    """
    if read_input_from_buffer:
        src = _stored_map(fb, "convolution")
    else:
        src = x.array()
    if is_fc_layer:
        wt = _squeeze_to(w.array(), 2, "FC weights")
        vec = src.reshape(-1)
        if wt.shape[1] != vec.size:
            raise ShapeError(f"FC layer: weights expect {wt.shape[1]} inputs, got {vec.size}")
        out = wt @ vec
        if with_relu:
            np.maximum(out, 0.0, out=out)
        flops = 2 * wt.size
    else:
        arr = _squeeze_to(src, 3, "convolution input")
        wt = _squeeze_to(w.array(), 4, "convolution weights")
        out = _conv2d_same(arr, wt, with_relu)
        flops = 2 * arr.shape[0] * arr.shape[1] * wt.size
    _deliver(out, y, store_output_to_buffer, fb)
    return flops


def convolution_access_sets(x: BlockView, y: BlockView, w: BlockView,
                            read_input_from_buffer: bool, store_output_to_buffer: bool,
                            with_relu: bool, is_fc_layer: bool,
                            fb: FeatureBuffer) -> tuple[AccessSet, ...]:
    """The input, the weights and the output; a view that a flag routes
    through the feature buffer is not touched, so it has no access set."""
    return (access_set(fb.cell if read_input_from_buffer else x, READ),
            access_set(w, READ),
            access_set(fb.cell if store_output_to_buffer else y, WRITE))


def maxpool(y: BlockView, store_output_to_buffer: bool, fb: FeatureBuffer | None) -> int:
    """2x2 stride-2 max pooling per channel; always reads the feature buffer.

    The pool is three elementwise maxima over the four strided corners of the
    windows, which costs less per call than an axis reduction over a
    reshaped map.  np.maximum returns its second argument on ties and its
    first NaN, so each window yields the last of its tied maxima (or its
    first NaN) in row-major order, as max over the window axes does: the
    bytes are the same, signed zeros and the default NaN included.  Only a
    NaN with another sign bit or payload can differ: the axis reduction may
    return the default NaN for it, where the maxima keep it.  Returns one
    flop per element of the map read.
    """
    arr = _squeeze_to(_stored_map(fb, "maxpool"), 3, "maxpool input")
    h, w, c = arr.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool: spatial extents must be even, got {arr.shape}")
    pooled = np.maximum(np.maximum(arr[0::2, 0::2], arr[0::2, 1::2]),
                        np.maximum(arr[1::2, 0::2], arr[1::2, 1::2]))
    _deliver(pooled, y, store_output_to_buffer, fb)
    return arr.size


def maxpool_access_sets(y: BlockView, store_output_to_buffer: bool,
                        fb: FeatureBuffer) -> tuple[AccessSet, ...]:
    if store_output_to_buffer:
        return (access_set(fb.cell, READ_WRITE),)
    return (access_set(fb.cell, READ), access_set(y, WRITE))

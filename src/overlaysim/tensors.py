"""Dense buffers and zero-copy cropped views with computable access footprints.

A buffer is a row-major numpy array wrapped with a process-unique id.  A view
is an immutable per-axis range descriptor into one buffer; reading or writing
through a view touches the underlying storage directly, so any number of views
can be taken without allocating element storage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlockMisalignmentError,
    InvalidCropError,
    InvalidShapeError,
    ParseError,
)

DEFAULT_DTYPE = np.float64
FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

READ = "read"
WRITE = "write"
READ_WRITE = "read_write"
MODES = (READ, WRITE, READ_WRITE)

_id_counter = itertools.count()


def _checked_shape(shape) -> tuple[int, ...]:
    shape = tuple(int(e) for e in shape)
    if not shape:
        raise InvalidShapeError("buffer shape needs at least one axis")
    if any(e < 1 for e in shape):
        raise InvalidShapeError(f"all extents must be >= 1, got {shape}")
    return shape


class TensorBuffer:
    """Owned dense N-d float storage, row-major with the last axis fastest.

    data is bound once: views store numpy windows of it.  full_ranges is the
    whole-buffer (0, extent) range of every axis, which crops splice into.
    """

    def __init__(self, data):
        arr = np.ascontiguousarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        _checked_shape(arr.shape)
        self.id = next(_id_counter)
        self.data = arr
        self.full_ranges = tuple((0, e) for e in arr.shape)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def view(self) -> "BlockView":
        """Whole-buffer view."""
        return BlockView(self, self.full_ranges)

    def __reduce__(self):
        # deepcopy and pickle copy the storage, so the copy is another
        # resource: rebuilding through the constructor draws a fresh id
        return TensorBuffer, (self.data,)

    def __copy__(self):
        # a shallow copy shares the storage, so it keeps the id
        twin = TensorBuffer.__new__(TensorBuffer)
        twin.__dict__.update(self.__dict__)
        return twin

    def __repr__(self):
        return f"TensorBuffer(id={self.id}, shape={self.shape}, dtype={self.dtype})"


def new_buffer(shape, fill: float = 0.0, dtype=DEFAULT_DTYPE) -> TensorBuffer:
    """Allocate a buffer filled with a constant (zeros by default)."""
    shape = _checked_shape(shape)
    return TensorBuffer(np.full(shape, float(fill), dtype=dtype))


def random_buffer(shape, lo: float, hi: float, seed: int, dtype=DEFAULT_DTYPE) -> TensorBuffer:
    """Allocate a buffer of seeded uniform values in [lo, hi)."""
    shape = _checked_shape(shape)
    rng = np.random.default_rng(seed)
    return TensorBuffer(rng.uniform(lo, hi, shape).astype(dtype))


@dataclass(frozen=True)
class BlockView:
    """Rectangular window into a TensorBuffer; never copies element storage.

    elem_ranges is one half-open (start, stop) pair per buffer axis.  Ranges
    are validated eagerly so a bad crop fails at construction, not when some
    task finally runs.  The numpy window is taken at construction too and
    stored, since a buffer's array is never replaced, and so are the view's
    access sets, one per mode, as access_set() first asks for them; neither
    is a field, so neither takes part in equality, hashing or repr.
    """

    __slots__ = ("buffer", "elem_ranges", "_window", "_access")

    buffer: TensorBuffer
    elem_ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        data = self.buffer.data
        elem_ranges = self.elem_ranges
        if len(elem_ranges) != data.ndim:
            raise InvalidCropError(
                f"{len(elem_ranges)} ranges for a rank-{data.ndim} buffer"
            )
        index = []
        for axis, ((lo, hi), extent) in enumerate(zip(elem_ranges, data.shape)):
            _check_range(axis, lo, hi, extent)
            index.append(slice(lo, hi))
        _set_window(self, data[tuple(index)])
        _set_access(self, {})

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since the default
        # slot-state restore would assign through the frozen __setattr__
        return BlockView, (self.buffer, self.elem_ranges)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._window.shape

    def array(self) -> np.ndarray:
        """The numpy window sharing storage with the underlying buffer."""
        return self._window

    def to_buffer_coord(self, coord) -> tuple[int, ...]:
        """Translate a view coordinate into the owning buffer's coordinate."""
        return tuple(lo + c for c, (lo, _) in zip(coord, self.elem_ranges))


_ALL = slice(None)


def _check_range(axis: int, lo: int, hi: int, extent: int) -> None:
    if lo < 0 or hi > extent or lo >= hi:
        raise InvalidCropError(f"axis {axis}: range [{lo}, {hi}) invalid for extent {extent}")


_set_buffer, _set_elem_ranges, _set_window, _set_access = (
    getattr(BlockView, name).__set__ for name in BlockView.__slots__)


def _checked_view(buffer: TensorBuffer, elem_ranges, window: np.ndarray) -> BlockView:
    """A view whose ranges the caller has already checked, and its window."""
    view = object.__new__(BlockView)
    _set_buffer(view, buffer)
    _set_elem_ranges(view, elem_ranges)
    _set_window(view, window)
    _set_access(view, {})
    return view


def bcropped(buf: TensorBuffer, m: int, start_row: int, end_row: int,
             start_col: int, end_col: int) -> BlockView:
    """Crop a rank-2 buffer in m*m blocks; block indices are inclusive.

    The view covers element rows [start_row*m, (end_row+1)*m) and the matching
    column range.
    """
    if len(buf.shape) != 2:
        raise InvalidCropError(f"block crop needs a rank-2 buffer, got shape {buf.shape}")
    if m < 1:
        raise BlockMisalignmentError(f"block size must be >= 1, got {m}")
    rows, cols = buf.shape
    if rows % m or cols % m:
        raise BlockMisalignmentError(f"extents {buf.shape} not divisible by block size {m}")
    nrow, ncol = rows // m, cols // m
    for name, start, end, count in (("row", start_row, end_row, nrow),
                                    ("col", start_col, end_col, ncol)):
        if start < 0 or start > end or end >= count:
            raise InvalidCropError(
                f"{name} blocks [{start}, {end}] out of range for {count} blocks"
            )
    # in range by the block checks above
    (r0, r1), (c0, c1) = ranges = ((start_row * m, (end_row + 1) * m),
                                   (start_col * m, (end_col + 1) * m))
    return _checked_view(buf, ranges, buf.data[r0:r1, c0:c1])


def cropped(buf: TensorBuffer, axis: int, start: int, extent: int) -> BlockView:
    """Restrict a single axis to [start, start+extent); all other axes stay full."""
    full = buf.full_ranges
    rank = len(full)
    if axis < 0 or axis >= rank:
        raise InvalidCropError(f"axis {axis} out of range for rank-{rank} buffer")
    stop = start + extent
    _check_range(axis, start, stop, full[axis][1])  # every other axis stays full
    ranges = full[:axis] + ((start, stop),) + full[axis + 1:]
    return _checked_view(buf, ranges, buf.data[(_ALL,) * axis + (slice(start, stop),)])


@dataclass(frozen=True)
class AccessSet:
    """The element ranges one task touches in one buffer, tagged read/write."""

    __slots__ = ("buffer_id", "ranges", "mode")

    buffer_id: int
    ranges: tuple[tuple[int, int], ...]
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidCropError(f"unknown access mode {self.mode!r}")

    def __reduce__(self):
        return AccessSet, (self.buffer_id, self.ranges, self.mode)

    @property
    def writes(self) -> bool:
        return self.mode != READ

    def conflict(self, other: "AccessSet"):
        """The region both sets touch when they share a buffer and at least
        one writes; None otherwise, including when the ranges are disjoint."""
        if self.buffer_id != other.buffer_id or self.mode == other.mode == READ:
            return None
        out = []
        for (lo1, hi1), (lo2, hi2) in zip(self.ranges, other.ranges):
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo >= hi:
                return None
            out.append((lo, hi))
        return tuple(out)


def access_set(view: BlockView, mode: str) -> AccessSet:
    """The exact element ranges a view exposes, tagged with an access mode.

    Made once per view and mode, then handed back from the view's store.
    """
    stored = view._access
    acc = stored.get(mode)
    if acc is None:
        acc = stored[mode] = AccessSet(view.buffer.id, view.elem_ranges, mode)
    return acc


def read_text(path) -> str:
    """A whole file as UTF-8 text; undecodable bytes raise ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc


# --- tensor-text v1 -------------------------------------------------------
#
# Line 1:  dims d e1 e2 ... ed, and nothing else.
# Then whitespace-separated decimal floats in row-major order.

def write_tensor_text(buf: TensorBuffer, path) -> None:
    arr = buf.data
    with open(path, "w") as fh:
        fh.write("dims %d %s\n" % (arr.ndim, " ".join(str(e) for e in arr.shape)))
        flat = arr.reshape(-1)
        per_line = arr.shape[-1]
        for start in range(0, flat.size, per_line):
            fh.write(" ".join(repr(float(v)) for v in flat[start:start + per_line]))
            fh.write("\n")


def read_tensor_text(path, dtype=DEFAULT_DTYPE) -> TensorBuffer:
    header, _, rest = read_text(path).partition("\n")
    tokens = header.split()
    if not tokens or tokens[0] != "dims":
        raise ParseError(f"{path}: expected leading 'dims' header")
    try:
        rank = int(tokens[1])
        extents = [int(t) for t in tokens[2:]]
    except (IndexError, ValueError) as exc:
        raise ParseError(f"{path}: malformed dims header") from exc
    if len(extents) != rank:
        word = "shorter" if len(extents) < rank else "longer"
        raise ParseError(f"{path}: dims header {word} than declared rank {rank}")
    shape = _checked_shape(extents)
    body = rest.split()
    count = int(np.prod(shape))
    if len(body) != count:
        raise ParseError(f"{path}: expected {count} values, found {len(body)}")
    try:
        values = np.array([float(t) for t in body], dtype=dtype)
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric value in body") from exc
    return TensorBuffer(values.reshape(shape))

"""Buffers, views, access sets, and the tensor-text file format."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlaysim import errors
from overlaysim.tensors import (
    READ,
    READ_WRITE,
    WRITE,
    AccessSet,
    BlockView,
    TensorBuffer,
    access_set,
    bcropped,
    cropped,
    new_buffer,
    random_buffer,
    read_tensor_text,
    write_tensor_text,
)

from helpers import element_footprint


def test_new_buffer_zeros():
    buf = new_buffer([2, 2])
    assert buf.shape == (2, 2)
    assert np.all(buf.data == 0.0)


def test_new_buffer_constant():
    buf = new_buffer([4, 4], fill=1.0)
    assert buf.data.size == 16
    assert np.all(buf.data == 1.0)


def test_seeded_random_reproducible():
    a = random_buffer([3], 0.0, 1.0, seed=7)
    b = random_buffer([3], 0.0, 1.0, seed=7)
    np.testing.assert_array_equal(a.data, b.data)
    assert np.all((a.data >= 0.0) & (a.data < 1.0))


def test_fresh_ids():
    assert new_buffer([1]).id != new_buffer([1]).id


@pytest.mark.parametrize("shape", [[0], [2, 0], [-1, 3], []])
def test_bad_shapes_rejected(shape):
    with pytest.raises(errors.InvalidShapeError):
        new_buffer(shape)


def test_float32_selectable():
    buf = new_buffer([2, 2], fill=0.5, dtype=np.float32)
    assert buf.dtype == np.float32


def test_integer_data_becomes_float64():
    buf = TensorBuffer(np.arange(4))
    assert buf.dtype == np.float64
    assert buf.data.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_view_needs_one_range_per_axis():
    with pytest.raises(errors.InvalidCropError, match="1 ranges for a rank-2 buffer"):
        BlockView(new_buffer([2, 2]), ((0, 1),))


class TestBcropped:
    def test_first_block(self):
        buf = new_buffer([4, 4])
        view = bcropped(buf, 2, 0, 0, 0, 0)
        assert view.elem_ranges == ((0, 2), (0, 2))

    def test_ranges_expand_by_definition(self):
        buf = new_buffer([6, 6])
        view = bcropped(buf, 2, 1, 2, 1, 1)
        assert view.elem_ranges == ((2, 6), (2, 4))
        assert view.shape == (4, 2)

    def test_misaligned_block_size(self):
        buf = new_buffer([4, 4])
        with pytest.raises(errors.BlockMisalignmentError):
            bcropped(buf, 3, 0, 0, 0, 0)

    @pytest.mark.parametrize("shape", [[6, 4], [4, 6]], ids=["rows", "cols"])
    def test_one_misaligned_axis(self, shape):
        with pytest.raises(errors.BlockMisalignmentError):
            bcropped(new_buffer(shape), 4, 0, 0, 0, 0)

    @pytest.mark.parametrize("args", [(1, 0, 0, 0), (0, 0, 2, 1), (0, 2, 0, 0), (-1, 0, 0, 0)])
    def test_bad_block_ranges(self, args):
        buf = new_buffer([4, 4])
        with pytest.raises(errors.InvalidCropError):
            bcropped(buf, 2, *args)

    def test_row_blocks_past_the_buffer(self):
        with pytest.raises(errors.InvalidCropError, match="row blocks"):
            bcropped(new_buffer([4, 4]), 2, 1, 2, 0, 0)

    def test_rank2_only(self):
        with pytest.raises(errors.InvalidCropError):
            bcropped(new_buffer([4, 4, 4]), 2, 0, 0, 0, 0)

    def test_block_size_zero(self):
        with pytest.raises(errors.BlockMisalignmentError, match="block size must be >= 1, got 0"):
            bcropped(new_buffer([4, 4]), 0, 0, 0, 0, 0)


class TestCropped:
    def test_single_channel_of_rank4(self):
        buf = new_buffer([8, 8, 3, 10])
        view = cropped(buf, 3, 2, 1)
        assert view.elem_ranges == ((0, 8), (0, 8), (0, 3), (2, 3))

    def test_identity_crop(self):
        buf = new_buffer([5, 7])
        view = cropped(buf, 0, 0, 5)
        assert view.elem_ranges == buf.view().elem_ranges
        assert view.shape == buf.shape

    def test_start_at_extent(self):
        buf = new_buffer([8, 8, 3, 10])
        with pytest.raises(errors.InvalidCropError):
            cropped(buf, 3, 10, 1)

    def test_empty_crop_rejected(self):
        with pytest.raises(errors.InvalidCropError):
            cropped(new_buffer([4]), 0, 1, 0)

    def test_bad_axis(self):
        with pytest.raises(errors.InvalidCropError):
            cropped(new_buffer([4]), 1, 0, 1)


def test_views_never_copy():
    buf = random_buffer([6, 6], -1, 1, seed=0)
    views = [bcropped(buf, 2, r, r, c, c) for r in range(3) for c in range(3)]
    for v in views:
        assert np.shares_memory(v.array(), buf.data)
    assert buf.data.size == 36


@given(st.data())
@settings(max_examples=60)
def test_view_transparency(data):
    """Writing through a view is visible at the translated buffer coordinate,
    and back; the view's shape is its range extents."""
    rank = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(1, 5)) for _ in range(rank))
    buf = new_buffer(shape)
    ranges = []
    for extent in shape:
        lo = data.draw(st.integers(0, extent - 1))
        hi = data.draw(st.integers(lo + 1, extent))
        ranges.append((lo, hi))
    view = BlockView(buf, tuple(ranges))
    assert view.shape == view.array().shape == tuple(hi - lo for lo, hi in ranges)
    coord = tuple(data.draw(st.integers(0, hi - lo - 1)) for lo, hi in ranges)
    value = data.draw(st.floats(-100, 100))

    view.array()[coord] = value
    assert buf.data[view.to_buffer_coord(coord)] == value
    buf.data[view.to_buffer_coord(coord)] = value + 1
    assert view.array()[coord] == value + 1


def test_view_equality_ignores_the_stored_window():
    buf = new_buffer([4, 4])
    a, b = BlockView(buf, ((0, 2), (1, 4))), bcropped(buf, 2, 0, 0, 0, 1)
    assert a == BlockView(buf, ((0, 2), (1, 4))) and hash(a) == hash(BlockView(buf, a.elem_ranges))
    assert a != b
    assert repr(a) == f"BlockView(buffer={buf!r}, elem_ranges=((0, 2), (1, 4)))"


# plain frozen dataclasses with BlockView's and AccessSet's fields, the reference
# for their equality, hashing and repr
@dataclasses.dataclass(frozen=True)
class DataclassView:
    buffer: object
    elem_ranges: tuple


@dataclasses.dataclass(frozen=True)
class DataclassAccessSet:
    buffer_id: int
    ranges: tuple
    mode: str


@pytest.mark.parametrize("make, make_old, fields", [
    (lambda buf, r: BlockView(buf, r), DataclassView, ("buffer", "elem_ranges")),
    (lambda buf, r: AccessSet(buf.id, r, READ), lambda buf, r: DataclassAccessSet(buf.id, r, READ),
     ("buffer_id", "ranges", "mode")),
])
def test_slotted_values_behave_as_frozen_dataclasses(make, make_old, fields):
    """Equality, hashing, repr and assignment are the frozen dataclass's."""
    buf = new_buffer([4, 4])
    ranges, other = ((0, 2), (1, 4)), ((0, 2), (0, 4))
    value, old = make(buf, ranges), make_old(buf, ranges)
    assert value == make(buf, ranges) and hash(value) == hash(make(buf, ranges))
    assert hash(value) == hash(old)
    assert value != make(buf, other)
    assert value != old and value != dataclasses.astuple(old)
    assert repr(value) == type(value).__name__ + repr(old)[len(type(old).__name__):]
    for name in (*fields, "unknown"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert value == make(buf, ranges)


def test_stored_and_derived_attributes_are_frozen():
    view, acc = BlockView(new_buffer([2]), ((0, 2),)), AccessSet(0, ((0, 2),), READ)
    for value, name in ((view, "_window"), (view, "_access"), (acc, "writes")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)


def test_copies_and_pickles_rebuild_through_the_constructor():
    buf = new_buffer([4, 4])
    view = bcropped(buf, 2, 1, 1, 0, 1)
    acc = access_set(view, READ_WRITE)
    for value in (view, acc):
        twin = copy.copy(value)
        assert twin == value and hash(twin) == hash(value)
    twin = pickle.loads(pickle.dumps(acc))
    assert twin == acc and hash(twin) == hash(acc)
    # a pickled view brings its own copy of the buffer: it equals a view of that copy
    twin = pickle.loads(pickle.dumps(view))
    again = BlockView(twin.buffer, view.elem_ranges)
    assert twin == again and hash(twin) == hash(again)
    assert twin.elem_ranges == view.elem_ranges
    assert np.shares_memory(twin.array(), twin.buffer.data)
    np.testing.assert_array_equal(twin.array(), view.array())


def test_buffer_copies_keep_the_id_only_with_the_storage():
    """A shallow copy shares the storage and is the same resource; a deep
    copy or an unpickled buffer has its own storage and a fresh id."""
    buf = new_buffer([4, 4], fill=2.0, dtype=np.float32)
    twin = copy.copy(buf)
    assert twin is not buf and twin.id == buf.id
    assert twin.data is buf.data and twin.full_ranges == buf.full_ranges
    for twin in (copy.deepcopy(buf), pickle.loads(pickle.dumps(buf))):
        assert twin.id != buf.id
        assert not np.shares_memory(twin.data, buf.data)
        assert twin.dtype == buf.dtype and twin.full_ranges == buf.full_ranges
        np.testing.assert_array_equal(twin.data, buf.data)


def test_pickled_view_brings_a_buffer_with_a_fresh_id():
    buf = new_buffer([4, 4])
    view = bcropped(buf, 2, 1, 1, 0, 1)
    twin = pickle.loads(pickle.dumps(view))
    assert twin.buffer.id != buf.id
    assert access_set(twin, READ_WRITE).buffer_id == twin.buffer.id
    assert access_set(twin, READ_WRITE).conflict(access_set(view, READ_WRITE)) is None
    # views deep-copied together keep sharing their one copied buffer
    left, right = copy.deepcopy([view, buf.view()])
    assert left.buffer is right.buffer and left.buffer.id != buf.id


def test_access_set_is_stored_per_view_and_mode():
    buf = new_buffer([4, 4])
    view = bcropped(buf, 2, 0, 0, 0, 1)
    assert access_set(view, READ) is access_set(view, READ)
    assert access_set(view, WRITE) is not access_set(view, READ)
    twin = bcropped(buf, 2, 0, 0, 0, 1)
    assert access_set(twin, READ) == access_set(view, READ)
    assert access_set(twin, READ) is not access_set(view, READ)


@given(st.data())
@settings(max_examples=150)
def test_crops_match_the_checked_constructor(data):
    """cropped and bcropped build their views without BlockView's checks;
    each gives the view, window and error that BlockView gives for the
    same ranges."""
    rank = data.draw(st.integers(1, 4))
    shape = tuple(data.draw(st.integers(1, 5)) for _ in range(rank))
    buf = random_buffer(shape, -1, 1, seed=0)
    axis = data.draw(st.integers(0, rank - 1))
    start, extent = data.draw(st.integers(-1, 6)), data.draw(st.integers(-1, 6))
    ranges = tuple((start, start + extent) if a == axis else (0, e) for a, e in enumerate(shape))
    expect_error = None
    try:
        expect = BlockView(buf, ranges)
    except errors.InvalidCropError as exc:
        expect_error = str(exc)
    if expect_error is not None:
        with pytest.raises(errors.InvalidCropError) as exc:
            cropped(buf, axis, start, extent)
        assert str(exc.value) == expect_error
    else:
        view = cropped(buf, axis, start, extent)
        assert view == expect and view.shape == expect.shape
        assert np.shares_memory(view.array(), expect.array())
        np.testing.assert_array_equal(view.array(), expect.array())

    m = data.draw(st.integers(1, 3))
    blocks = new_buffer([m * data.draw(st.integers(1, 3)), m * data.draw(st.integers(1, 3))])
    nrow, ncol = (e // m for e in blocks.shape)
    r0 = data.draw(st.integers(0, nrow - 1))
    r1 = data.draw(st.integers(r0, nrow - 1))
    c0 = data.draw(st.integers(0, ncol - 1))
    c1 = data.draw(st.integers(c0, ncol - 1))
    view = bcropped(blocks, m, r0, r1, c0, c1)
    expect = BlockView(blocks, ((r0 * m, (r1 + 1) * m), (c0 * m, (c1 + 1) * m)))
    assert view == expect and view.shape == expect.shape
    assert np.shares_memory(view.array(), blocks.data)


class TestAccessSets:
    def test_restates_view(self):
        buf = new_buffer([6, 6])
        view = BlockView(buf, ((2, 4), (2, 4)))
        acc = access_set(view, WRITE)
        assert acc == AccessSet(buf.id, ((2, 4), (2, 4)), WRITE)

    def test_whole_buffer_read(self):
        buf = new_buffer([3, 5])
        acc = access_set(buf.view(), READ)
        assert acc.ranges == ((0, 3), (0, 5))
        assert not acc.writes

    def test_disjoint_views_do_not_intersect(self):
        buf = new_buffer([4, 4])
        a = access_set(bcropped(buf, 2, 0, 0, 0, 0), WRITE)
        b = access_set(bcropped(buf, 2, 1, 1, 1, 1), WRITE)
        assert a.conflict(b) is None

    def test_reads_never_conflict(self):
        buf = new_buffer([4])
        a = access_set(buf.view(), READ)
        assert a.conflict(a) is None

    def test_different_buffers_never_conflict(self):
        a = access_set(new_buffer([4]).view(), WRITE)
        b = access_set(new_buffer([4]).view(), WRITE)
        assert a.conflict(b) is None

    def test_bad_mode(self):
        with pytest.raises(errors.InvalidCropError):
            access_set(new_buffer([4]).view(), "modify")

    @pytest.mark.parametrize("mode, writes", [(READ, False), (WRITE, True), (READ_WRITE, True)])
    def test_writes_follows_the_mode(self, mode, writes):
        assert AccessSet(0, ((0, 4),), mode).writes is writes


@given(st.data())
@settings(max_examples=120)
def test_conflict_matches_per_element_brute_force(data):
    """Interval-based conflict detection agrees with element enumeration: the
    returned region holds exactly the elements both sets touch."""
    rank = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(1, 4)) for _ in range(rank))

    def draw_set(buffer_id):
        ranges = []
        for extent in shape:
            lo = data.draw(st.integers(0, extent - 1))
            hi = data.draw(st.integers(lo + 1, extent))
            ranges.append((lo, hi))
        mode = data.draw(st.sampled_from([READ, WRITE, READ_WRITE]))
        return AccessSet(buffer_id, tuple(ranges), mode)

    same_buffer = data.draw(st.booleans())
    a = draw_set(0)
    b = draw_set(0 if same_buffer else 1)

    ra, wa = element_footprint(a)
    rb, wb = element_footprint(b)
    brute = bool((wa & (rb | wb)) or (wb & (ra | wa)))
    region = a.conflict(b)
    assert (region is not None) == brute
    if region is not None:
        common, _ = element_footprint(AccessSet(a.buffer_id, region, READ))
        assert common == (ra | wa) & (rb | wb)


class TestTensorText:
    def test_round_trip(self, tmp_path):
        buf = random_buffer([3, 4, 2], -5, 5, seed=11)
        path = tmp_path / "t.txt"
        write_tensor_text(buf, path)
        back = read_tensor_text(path)
        np.testing.assert_array_equal(back.data, buf.data)
        assert back.shape == buf.shape

    def test_header_format(self, tmp_path):
        buf = new_buffer([2, 2], fill=1.5)
        path = tmp_path / "t.txt"
        write_tensor_text(buf, path)
        first = path.read_text().splitlines()[0]
        assert first == "dims 2 2 2"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 1.0 2.0 3.0 4.0\n")
        with pytest.raises(errors.ParseError):
            read_tensor_text(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(errors.ParseError):
            read_tensor_text(path)

    @pytest.mark.parametrize("header, message", [
        ("dims 2 2 2 1.0", "malformed dims header"),
        ("dims 2 2 2 1", "dims header longer than declared rank 2"),
    ], ids=["extra-float", "extra-integer"])
    def test_extra_token_on_the_header_line(self, tmp_path, header, message):
        """Line 1 holds the header alone; a value on it is not the first of the body."""
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n2.0 3.0 4.0\n")
        with pytest.raises(errors.ParseError) as exc:
            read_tensor_text(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims 2 2 2\n1.0 2.0 3.0\n")
        with pytest.raises(errors.ParseError):
            read_tensor_text(path)

    def test_non_numeric_body(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims 1 2\n1.0 xyz\n")
        with pytest.raises(errors.ParseError):
            read_tensor_text(path)

"""Unit tests for the disk descriptor."""

import pytest
from hypothesis import given, strategies as st

from repro.disk import tiny_test_disk
from repro.errors import FileFormatError
from repro.fs.allocator import PageAllocator
from repro.fs.descriptor import DiskDescriptor
from repro.fs.names import FileId, FullName, make_serial
from repro.words import WORD_MASK


@pytest.fixture
def shape():
    return tiny_test_disk(cylinders=6)


def build(shape, counter=100):
    allocator = PageAllocator(shape)
    allocator.mark_busy(3)
    return DiskDescriptor(
        shape=shape,
        serial_counter=counter,
        root_directory=FullName(FileId(make_serial(2, directory=True)), 0, 9),
        free_map_words=allocator.pack(),
    )


class TestRoundTrip:
    def test_pack_unpack(self, shape):
        descriptor = build(shape)
        again = DiskDescriptor.unpack(shape, descriptor.pack())
        assert again.serial_counter == 100
        assert again.root_directory == descriptor.root_directory
        assert again.free_map_words == descriptor.free_map_words

    def test_allocator_reconstruction(self, shape):
        descriptor = build(shape)
        allocator = descriptor.allocator()
        assert not allocator.is_free(3)
        assert allocator.is_free(4)

    def test_with_map(self, shape):
        descriptor = build(shape)
        fresh = PageAllocator(shape)
        fresh.mark_busy(7)
        descriptor.with_map(fresh)
        assert not descriptor.allocator().is_free(7)

    def test_fixed_size(self, shape):
        """The descriptor's size depends only on the shape, so rewriting it
        can never change its own page count."""
        assert len(build(shape).pack()) == DiskDescriptor.data_word_count(shape)


class TestValidation:
    def test_bad_magic(self, shape):
        words = build(shape).pack()
        words[0] = 0
        with pytest.raises(FileFormatError):
            DiskDescriptor.unpack(shape, words)

    def test_bad_version(self, shape):
        words = build(shape).pack()
        words[1] = 99
        with pytest.raises(FileFormatError):
            DiskDescriptor.unpack(shape, words)

    def test_shape_mismatch(self, shape):
        """The disk shape is absolute: mounting a pack on the wrong drive
        model must fail loudly."""
        words = build(shape).pack()
        with pytest.raises(FileFormatError):
            DiskDescriptor.unpack(tiny_test_disk(cylinders=7), words)

    def test_truncated_map(self, shape):
        words = build(shape).pack()
        with pytest.raises(FileFormatError):
            DiskDescriptor.unpack(shape, words[:-2])

    def test_too_short(self, shape):
        with pytest.raises(FileFormatError):
            DiskDescriptor.unpack(shape, [1, 2, 3])

    def test_undecodable_root_name(self, shape):
        words = build(shape).pack()
        words[9] = 0  # root version 0 is reserved
        with pytest.raises(FileFormatError, match="root directory"):
            DiskDescriptor.unpack(shape, words)

    @given(st.dictionaries(st.integers(0, 11), st.integers(0, WORD_MASK), max_size=4),
           st.none() | st.integers(0, 40))
    def test_any_damage_decodes_or_raises_file_format_error(self, damage, keep):
        """Whatever the words, unpack's only failure is FileFormatError,
        the one error the checker turns into a ``bad-descriptor`` issue."""
        shape = tiny_test_disk(cylinders=6)
        words = build(shape).pack()
        for index, value in damage.items():
            words[index] = value
        try:
            DiskDescriptor.unpack(shape, words[:keep])
        except FileFormatError:
            pass

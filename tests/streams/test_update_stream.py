"""Tests for random-access update streams."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk import DiskDrive, DiskImage, tiny_test_disk
from repro.errors import EndOfStream, StreamError
from repro.fs import FileSystem
from repro.streams import (open_read_stream, open_update_stream, open_write_stream,
                           read_string, write_string)


@pytest.fixture
def file(fs):
    f = fs.create_file("doc.dat")
    f.write_data(b"0123456789" * 130)  # 1300 bytes, crosses 2 page boundaries
    return f


def contents(file):
    stream = open_read_stream(file, update_dates=False)
    data = bytes(stream.get() for _ in range(stream.call("length")))
    stream.close()
    return data


class TestReadModifyWrite:
    def test_overwrite_middle(self, file):
        stream = open_update_stream(file)
        stream.call("set_position", 700)
        for b in b"PATCH":
            stream.put(b)
        stream.close()
        data = contents(file)
        assert data[700:705] == b"PATCH"
        assert data[:700] == (b"0123456789" * 130)[:700]
        assert data[705:] == (b"0123456789" * 130)[705:]
        assert len(data) == 1300

    def test_patch_across_page_boundary(self, file):
        stream = open_update_stream(file)
        stream.call("set_position", 508)
        for b in b"SPANNING":  # bytes 508..515 cross the 512 boundary
            stream.put(b)
        stream.close()
        assert contents(file)[508:516] == b"SPANNING"

    def test_read_back_through_same_stream(self, file):
        stream = open_update_stream(file)
        stream.call("set_position", 10)
        stream.put(ord("X"))
        stream.call("set_position", 10)
        assert stream.get() == ord("X")
        stream.close()

    def test_interleaved_reads_and_writes(self, file):
        stream = open_update_stream(file)
        total = stream.call("length")
        # Uppercase every '0' in place.
        stream.call("set_position", 0)
        position = 0
        while position < total:
            byte = stream.get()
            if byte == ord("0"):
                stream.call("set_position", position)
                stream.put(ord("O"))
            position += 1
        stream.close()
        assert contents(file) == b"O123456789" * 130


class TestGrowth:
    def test_append_at_end(self, file):
        stream = open_update_stream(file)
        stream.call("set_position", stream.call("length"))
        for b in b"+tail":
            stream.put(b)
        stream.close()
        assert contents(file).endswith(b"9+tail")
        assert file.byte_length == 1305

    def test_grow_from_empty_across_pages(self, fs):
        f = fs.create_file("empty.dat")
        stream = open_update_stream(f)
        for i in range(1200):
            stream.put(i % 256)
        stream.close()
        assert contents(f) == bytes(i % 256 for i in range(1200))

    def test_growth_reads_no_page_that_starts_at_the_end(self, file):
        """A page that starts at the end of the file holds no bytes, so
        growing the file into it reads nothing from the disk."""
        reads = []
        read_page = file.read_page

        def spy(page_number):
            reads.append((page_number, file.byte_length))
            return read_page(page_number)

        file.read_page = spy
        stream = open_update_stream(file)
        stream.call("set_position", 1300)
        for i in range(1000):  # fills page 3, then grows into pages 4 and 5
            stream.put(i % 256)
        stream.close()
        assert reads == [(3, 1300)]
        assert contents(file) == b"0123456789" * 130 + bytes(i % 256 for i in range(1000))

    def test_no_holes(self, file):
        stream = open_update_stream(file)
        with pytest.raises(StreamError):
            stream.call("set_position", 5000)

    def test_get_past_end(self, fs):
        f = fs.create_file("tiny.dat")
        f.write_data(b"a")
        stream = open_update_stream(f)
        stream.get()
        assert stream.endof()
        with pytest.raises(EndOfStream):
            stream.get()


class TestDurability:
    def test_flush_makes_writes_visible(self, fs, file):
        stream = open_update_stream(file)
        stream.call("set_position", 3)
        stream.put(ord("Z"))
        stream.call("flush")
        # Another reader sees it before close.
        assert contents(file)[3] == ord("Z")
        stream.close()

    def test_close_updates_written_date(self, fs, file):
        stream = open_update_stream(file, now=4321)
        stream.put(ord("q"))
        stream.close()
        assert file.leader.written == 4321


class TestUpdateStreamProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=1500),
                      st.integers(min_value=0, max_value=255)),
            min_size=1,
            max_size=30,
        )
    )
    def test_random_patches_match_a_bytearray_model(self, patches):
        drive = DiskDrive(DiskImage(tiny_test_disk(cylinders=30)))
        fs = FileSystem.format(drive)
        file = fs.create_file("prop.dat")
        base = bytes(range(256)) * 5  # 1280 bytes
        file.write_data(base)
        model = bytearray(base)
        stream = open_update_stream(file)
        for position, value in patches:
            position = min(position, len(model))  # clamp to append-at-end
            stream.call("set_position", position)
            stream.put(value)
            if position == len(model):
                model.append(value)
            else:
                model[position] = value
        stream.close()
        again = FileSystem.mount(DiskDrive(drive.image, clock=drive.clock))
        assert again.open_file("prop.dat").read_data() == bytes(model)

"""Tests for buffered disk file streams."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk import DiskDrive, DiskImage, tiny_test_disk
from repro.errors import EndOfStream, StreamError
from repro.fs import FileSystem
from repro.streams import (
    WORD_ITEMS,
    open_read_stream,
    open_write_stream,
    read_string,
    write_string,
)
from repro.words import bytes_to_words


@pytest.fixture
def file(fs):
    return fs.create_file("stream.dat")


class TestWriteThenRead:
    def test_byte_round_trip(self, file):
        ws = open_write_stream(file)
        write_string(ws, "the quick brown fox " * 40)  # 800 bytes
        ws.close()
        rs = open_read_stream(file)
        assert read_string(rs) == "the quick brown fox " * 40
        rs.close()

    def test_word_round_trip(self, file):
        ws = open_write_stream(file, items=WORD_ITEMS)
        for w in range(300):
            ws.put(w * 3)
        ws.close()
        rs = open_read_stream(file, items=WORD_ITEMS)
        assert [rs.get() for _ in range(300)] == [w * 3 for w in range(300)]
        assert rs.endof()

    def test_empty_write(self, file):
        open_write_stream(file).close()
        rs = open_read_stream(file)
        assert rs.endof()

    def test_exact_page_boundary(self, file):
        ws = open_write_stream(file)
        for i in range(512):
            ws.put(i % 256)
        ws.close()
        assert file.byte_length == 512
        rs = open_read_stream(file)
        assert len(read_string(rs)) == 512

    def test_append_mode(self, file):
        ws = open_write_stream(file)
        write_string(ws, "first")
        ws.close()
        ws = open_write_stream(file, append=True)
        write_string(ws, "|second")
        ws.close()
        rs = open_read_stream(file)
        assert read_string(rs) == "first|second"

    def test_append_across_page_boundary(self, file):
        ws = open_write_stream(file)
        write_string(ws, "x" * 500)
        ws.close()
        ws = open_write_stream(file, append=True)
        write_string(ws, "y" * 100)
        ws.close()
        rs = open_read_stream(file)
        data = read_string(rs)
        assert data == "x" * 500 + "y" * 100

    def test_item_validation(self, file):
        ws = open_write_stream(file)
        with pytest.raises(StreamError):
            ws.put(256)
        ws_words = open_write_stream(file, items=WORD_ITEMS)
        with pytest.raises(StreamError):
            ws_words.put(0x10000)

    def test_unknown_item_kind(self, file):
        with pytest.raises(StreamError):
            open_read_stream(file, items="dword")


class TestPositioning:
    def test_set_position(self, file):
        ws = open_write_stream(file)
        write_string(ws, "0123456789" * 120)  # 1200 bytes
        ws.close()
        rs = open_read_stream(file)
        rs.call("set_position", 1000)
        assert read_string(rs, 5) == "0123"[0:4] + "4"  # position 1000 => digit 0
        assert rs.call("read_position") == 1005

    def test_length_operation(self, file):
        ws = open_write_stream(file)
        write_string(ws, "abc")
        ws.close()
        rs = open_read_stream(file)
        assert rs.call("length") == 3

    def test_word_alignment_enforced(self, file):
        ws = open_write_stream(file, items=WORD_ITEMS)
        ws.put(1)
        ws.close()
        rs = open_read_stream(file, items=WORD_ITEMS)
        with pytest.raises(StreamError):
            rs.call("set_position", 1)

    def test_reset(self, file):
        ws = open_write_stream(file)
        write_string(ws, "abcdef")
        ws.close()
        rs = open_read_stream(file)
        rs.get()
        rs.reset()
        assert rs.get() == ord("a")


class TestDates:
    def test_close_updates_dates(self, fs, file):
        ws = open_write_stream(file, now=1000)
        write_string(ws, "z")
        ws.close()
        assert file.leader.written == 1000
        rs = open_read_stream(file, now=2000)
        rs.get()
        rs.close()
        assert file.leader.read == 2000

    def test_dates_can_be_left_alone(self, fs, file):
        before = file.leader.read
        rs = open_read_stream(file, update_dates=False)
        rs.close()
        assert file.leader.read == before


class TestFlush:
    def test_flush_commits_the_tail_page_before_close(self, file):
        ws = open_write_stream(file)
        write_string(ws, "x" * 600)
        ws.call("flush")
        assert file.read_data() == b"x" * 600  # visible to another reader
        write_string(ws, "y")
        ws.close()
        assert file.read_data() == b"x" * 600 + b"y"


class TestAppendOntoAnEmptyTailPage:
    def test_appending_to_a_512_byte_file_issues_no_page_read(self, file):
        """A 512-byte file ends in a tail page with no bytes, so a write
        stream appended to it reads nothing from the disk."""
        file.write_data(b"x" * 512)
        drive = file.page_io.drive
        reads = drive.stats()["disk.drive.value_reads"]
        ws = open_write_stream(file, append=True)
        write_string(ws, "y" * 10)
        ws.close()
        assert drive.stats()["disk.drive.value_reads"] == reads
        assert file.read_data() == b"x" * 512 + b"y" * 10


class TestOddLengthAppend:
    def test_a_word_appended_to_a_page_of_511_bytes_spans_two_pages(self, file):
        file.write_data(b"x" * 511)
        ws = open_write_stream(file, items=WORD_ITEMS, append=True)
        ws.put(0x4142)
        ws.put(0x4344)
        ws.close()
        assert file.read_data() == b"x" * 511 + b"ABCD"


class TestClosedStreams:
    def test_a_put_after_close_is_refused_and_writes_nothing(self, file):
        ws = open_write_stream(file)
        ws.put(65)
        ws.close()
        with pytest.raises(StreamError):
            ws.put(66)
        ws.close()  # closing again stays harmless
        assert file.read_data() == b"A"

    def test_a_get_after_close_is_refused(self, file):
        file.write_data(b"abc")
        rs = open_read_stream(file)
        assert rs.get() == ord("a")
        rs.close()
        with pytest.raises(StreamError):
            rs.get()


class TestOddLengthWords:
    def test_the_last_half_word_has_a_zero_low_byte(self, file):
        file.write_data(b"abc")
        rs = open_read_stream(file, items=WORD_ITEMS)
        assert rs.get() == 0x6162
        assert not rs.endof()
        assert rs.get() == 0x6300
        assert rs.endof()
        with pytest.raises(EndOfStream):
            rs.get()


class TestCrashWindow:
    def test_unclosed_write_stream_loses_only_the_tail(self, fs, file):
        """A crash before close loses the buffered partial page; the file
        structure stays consistent (mountable, scavenger finds nothing)."""
        ws = open_write_stream(file)
        for i in range(512 + 100):  # one full page flushed + 100 buffered
            ws.put(i % 256)
        # No close: the machine dies here.
        from repro.fs.scavenger import Scavenger

        report = Scavenger(DiskDrive(fs.drive.image)).scavenge()
        assert report.links_repaired == 0
        fs2 = FileSystem.mount(DiskDrive(fs.drive.image))
        data = fs2.open_file("stream.dat").read_data()
        assert len(data) == 512  # the flushed page survived; the tail is gone


class TestStreamProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=1500))
    def test_any_payload_round_trips(self, payload):
        drive = DiskDrive(DiskImage(tiny_test_disk(cylinders=30)))
        fs = FileSystem.format(drive)
        file = fs.create_file("prop.dat")
        ws = open_write_stream(file)
        for b in payload:
            ws.put(b)
        ws.close()
        rs = open_read_stream(file)
        out = bytes(rs.get() for _ in range(len(payload)))
        assert out == payload
        assert rs.endof()

    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=1500))
    def test_a_word_stream_reads_bytes_to_words_of_the_file(self, payload):
        drive = DiskDrive(DiskImage(tiny_test_disk(cylinders=30)))
        file = FileSystem.format(drive).create_file("words.dat")
        file.write_data(payload)
        rs = open_read_stream(file, items=WORD_ITEMS)
        out = [rs.get() for _ in range((len(payload) + 1) // 2)]
        assert out == bytes_to_words(payload)
        assert rs.endof()

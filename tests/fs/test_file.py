"""Unit and property tests for AltoFile: structure invariants of section 3.2."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk import DiskDrive, DiskImage, tiny_test_disk
from repro.disk.geometry import NIL
from repro.errors import HintFailed
from repro.fs.allocator import PageAllocator
from repro.fs.file import AltoFile, FULL_PAGE
from repro.fs.names import FileId, make_serial
from repro.fs.page import PageIO
from repro.words import PAGE_DATA_BYTES


@pytest.fixture
def env():
    drive = DiskDrive(DiskImage(tiny_test_disk(cylinders=30)))
    return PageIO(drive), PageAllocator(drive.shape)


def new_file(env, name="f.dat", counter=1):
    pio, alloc = env
    return AltoFile.create(pio, alloc, FileId(make_serial(counter)), name, now=100)


def structure_ok(file):
    """Check the paper's representation invariants on disk."""
    pio = file.page_io
    n = file.last_page_number
    for pn in range(0, n + 1):
        label = pio.read_label(file.page_name(pn))
        if pn == 0:
            assert label.length == FULL_PAGE, "leader is full"
        elif pn < n:
            assert label.length == FULL_PAGE, f"interior page {pn} must be full"
        else:
            assert label.length < FULL_PAGE, "last page must have L < 512"
            assert label.next_link == NIL
    return True


class TestCreation:
    def test_empty_file_has_leader_and_one_data_page(self, env):
        file = new_file(env)
        assert file.page_count() == 2
        assert file.byte_length == 0
        assert file.read_data() == b""
        assert structure_ok(file)

    def test_leader_contents(self, env):
        file = new_file(env, name="hello.txt")
        assert file.name == "hello.txt"
        assert file.leader.created == 100

    def test_create_consumes_pages(self, env):
        pio, alloc = env
        before = alloc.count_free()
        new_file(env)
        assert alloc.count_free() == before - 2


class TestWriteRead:
    @pytest.mark.parametrize("size", [0, 1, 511, 512, 513, 1024, 1300, 2048, 3000])
    def test_round_trip_various_sizes(self, env, size):
        file = new_file(env)
        data = bytes(i % 256 for i in range(size))
        file.write_data(data)
        assert file.byte_length == size
        assert file.read_data() == data
        assert structure_ok(file)

    def test_multiple_of_page_size_gets_empty_last_page(self, env):
        """L < 512 on the last page forces an empty tail page for aligned
        sizes (so EOF is decidable from L alone)."""
        file = new_file(env)
        file.write_data(b"x" * 1024)
        assert file.last_page_number == 3  # 2 full + 1 empty
        assert structure_ok(file)

    def test_rewrite_shrinks(self, env):
        pio, alloc = env
        file = new_file(env)
        file.write_data(b"y" * 2000)
        pages_large = file.page_count()
        free_before = alloc.count_free()
        file.write_data(b"z" * 10)
        assert file.page_count() < pages_large
        assert alloc.count_free() > free_before
        assert file.read_data() == b"z" * 10

    def test_rewrite_grows(self, env):
        file = new_file(env)
        file.write_data(b"a" * 10)
        file.write_data(b"b" * 2000)
        assert file.read_data() == b"b" * 2000

    def test_write_updates_written_date(self, env):
        file = new_file(env)
        file.write_data(b"x", now=555)
        assert file.leader.written == 555


class TestPageOps:
    def test_append_page(self, env):
        """Appending promotes the old last page to a full interior page, so
        the file gains that page's 512 bytes plus the new tail."""
        file = new_file(env)
        file.append_page([0x4142], 2)
        assert file.last_page_number == 2
        data = file.read_data()
        assert len(data) == PAGE_DATA_BYTES + 2
        assert data[-2:] == b"AB"

    def test_truncate_last_page(self, env):
        file = new_file(env)
        file.write_data(b"q" * 1000)
        file.truncate_last_page()
        assert structure_ok(file)

    def test_truncate_to_minimum_rejected(self, env):
        file = new_file(env)
        with pytest.raises(ValueError):
            file.truncate_last_page()

    def test_write_last_page_length_bounds(self, env):
        file = new_file(env)
        with pytest.raises(ValueError):
            file.write_last_page([], FULL_PAGE)

    def test_oversized_page_refused_before_any_disk_pass(self, env):
        pio, alloc = env
        file = new_file(env)
        file.write_data(b"eleven byte")
        free, commands = alloc.count_free(), pio.drive.stats()["disk.drive.commands"]
        with pytest.raises(ValueError):
            file.append_page([0x4142] * 300, 0)
        with pytest.raises(ValueError):
            file.write_last_page([0x4142] * 300, 400)
        assert alloc.count_free() == free
        assert pio.drive.stats()["disk.drive.commands"] == commands
        assert file.read_data() == b"eleven byte"

    def test_float_words_are_refused_at_the_append(self, env):
        """Not stored on the platter, to make a later read_data() raise."""
        file = new_file(env)
        file.write_data(b"eleven byte")
        with pytest.raises(ValueError, match="must be an int"):
            file.append_page([3.0] * 10, 20)
        assert file.read_data() == b"eleven byte"

    def test_refused_float_appends_leak_no_page(self, env):
        """The allocator checks the words before it marks a page busy."""
        pio, alloc = env
        file = new_file(env)
        free = alloc.count_free()
        for _ in range(5):
            with pytest.raises(ValueError):
                file.append_page([3.0] * 10, 20)
        assert alloc.count_free() == free

    def test_refused_float_tail_write_leaves_the_file_unchanged(self, env):
        """The words are checked before the change-length label rewrite."""
        pio, alloc = env
        file = new_file(env)
        file.write_data(b"eleven byte")
        commands = pio.drive.stats()["disk.drive.commands"]
        with pytest.raises(ValueError):
            file.write_last_page([3.0] * 10, 20)
        assert pio.drive.stats()["disk.drive.commands"] == commands
        assert file.byte_length == 11
        assert file.read_data() == b"eleven byte"

    def test_interior_write_requires_full_page(self, env):
        file = new_file(env)
        file.write_data(b"x" * 1200)
        with pytest.raises(ValueError):
            file.write_full_page(1, [1, 2, 3])
        with pytest.raises(ValueError):
            file.write_full_page(file.last_page_number, [0] * 256)


class TestReopen:
    def test_open_from_full_name(self, env):
        pio, alloc = env
        file = new_file(env)
        file.write_data(b"persistent")
        again = AltoFile.open(pio, alloc, file.full_name())
        assert again.name == "f.dat"
        assert again.read_data() == b"persistent"

    def test_open_with_stale_last_page_hint_walks_links(self, env):
        pio, alloc = env
        file = new_file(env)
        file.write_data(b"k" * 1500)
        # Sabotage the leader's last-page hint (it is only a hint).
        file.leader = file.leader.with_last_page(1, 63)
        file._write_leader()
        again = AltoFile.open(pio, alloc, file.full_name())
        assert again.read_data() == b"k" * 1500

    def test_page_name_cache_self_heals(self, env):
        pio, alloc = env
        file = new_file(env)
        file.write_data(b"m" * 1500)
        # Poison the cache; reads must recover by walking links.
        true_addr = file.page_name(2).address
        file._addresses[2] = (true_addr + 5) % pio.drive.shape.total_sectors()
        assert file.read_data() == b"m" * 1500

    def test_missing_page_number_rejected(self, env):
        file = new_file(env)
        with pytest.raises(HintFailed):
            file.page_name(5)


class TestDelete:
    def test_delete_frees_everything(self, env):
        pio, alloc = env
        before = alloc.count_free()
        file = new_file(env)
        file.write_data(b"d" * 3000)
        file.delete()
        assert alloc.count_free() == before

    def test_deleted_pages_unreadable(self, env):
        pio, alloc = env
        file = new_file(env)
        name = file.full_name()
        file.delete()
        with pytest.raises(HintFailed):
            pio.read(name)


class TestLeaderMaintenance:
    def test_touch(self, env):
        file = new_file(env)
        file.touch(read=777)
        assert file.leader.read == 777

    def test_rename(self, env):
        pio, alloc = env
        file = new_file(env)
        file.rename("new-name")
        again = AltoFile.open(pio, alloc, file.full_name())
        assert again.name == "new-name"

    def test_consecutive_hint(self, env):
        file = new_file(env)
        file.set_consecutive_hint(True)
        assert file.leader.maybe_consecutive


class TestFileProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=5))
    def test_write_read_sequence_property(self, sizes):
        """Any sequence of rewrites preserves the invariants and the data."""
        drive = DiskDrive(DiskImage(tiny_test_disk(cylinders=30)))
        env = (PageIO(drive), PageAllocator(drive.shape))
        file = new_file(env)
        for i, size in enumerate(sizes):
            data = bytes((i + j) % 256 for j in range(size))
            file.write_data(data)
            assert file.read_data() == data
            assert structure_ok(file)

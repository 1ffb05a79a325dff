"""Unit tests for the FileSystem facade: format, mount, naming, serials."""

import pytest

from repro.disk import DiskDrive, DiskImage, tiny_test_disk
from repro.errors import DirectoryError, FileFormatError, FileNotFound
from repro.fs import (
    BOOT_PAGE_ADDRESS,
    DESCRIPTOR_LEADER_ADDRESS,
    DESCRIPTOR_NAME,
    FileSystem,
    ROOT_DIRECTORY_NAME,
)


class TestFormat:
    def test_fresh_format(self, fs):
        assert set(fs.list_files()) == {ROOT_DIRECTORY_NAME, DESCRIPTOR_NAME}
        assert fs.free_pages() > 0

    def test_descriptor_pinned_at_standard_address(self, fs):
        descriptor = fs.open_file(DESCRIPTOR_NAME)
        assert descriptor.leader_address() == DESCRIPTOR_LEADER_ADDRESS

    def test_boot_page_reserved(self, fs):
        assert not fs.allocator.is_free(BOOT_PAGE_ADDRESS)

    def test_root_is_self_listed(self, fs):
        entry = fs.root.require(ROOT_DIRECTORY_NAME)
        assert entry.fid == fs.root.file.fid

    def test_format_requires_fresh_pack(self, fs):
        with pytest.raises(FileFormatError):
            FileSystem.format(fs.drive)


class TestMount:
    def test_mount_round_trip(self, fs, image):
        fs.create_file("x.txt").write_data(b"hello")
        fs.sync()
        mounted = FileSystem.mount(DiskDrive(image))
        assert mounted.open_file("x.txt").read_data() == b"hello"

    def test_mount_unformatted_fails(self):
        drive = DiskDrive(DiskImage(tiny_test_disk()))
        with pytest.raises(FileFormatError):
            FileSystem.mount(drive)

    def test_mount_with_clobbered_descriptor_fails(self, fs, image, fault_plan):
        fs.sync()
        fault_plan.scramble_label(DESCRIPTOR_LEADER_ADDRESS)
        with pytest.raises(FileFormatError):
            FileSystem.mount(DiskDrive(image))


class TestFileOperations:
    def test_create_open_delete(self, fs):
        fs.create_file("a.txt").write_data(b"abc")
        assert fs.open_file("a.txt").read_data() == b"abc"
        fs.delete_file("a.txt")
        with pytest.raises(FileNotFound):
            fs.open_file("a.txt")

    def test_duplicate_create_rejected(self, fs):
        fs.create_file("a.txt")
        with pytest.raises(DirectoryError):
            fs.create_file("a.txt")

    def test_rename(self, fs):
        fs.create_file("old.txt").write_data(b"data")
        fs.rename_file("old.txt", "new.txt")
        assert fs.open_file("new.txt").read_data() == b"data"
        assert fs.open_file("new.txt").name == "new.txt"  # leader renamed too
        with pytest.raises(FileNotFound):
            fs.open_file("old.txt")

    def test_rename_collision_rejected(self, fs):
        fs.create_file("a.txt")
        fs.create_file("b.txt")
        with pytest.raises(DirectoryError):
            fs.rename_file("a.txt", "b.txt")

    def test_subdirectories(self, fs):
        sub = fs.create_directory("Sub")
        fs.create_file("inner.txt", directory=sub).write_data(b"inner")
        assert "inner.txt" not in fs.list_files()
        assert fs.open_file("inner.txt", directory=fs.open_directory("Sub")).read_data() == b"inner"

    def test_delete_frees_pages(self, fs):
        before = fs.free_pages()
        fs.create_file("big.dat").write_data(b"x" * 4000)
        fs.delete_file("big.dat")
        assert fs.free_pages() == before


class TestSerialDiscipline:
    def test_fids_never_repeat(self, fs):
        seen = {fs.new_fid().serial for _ in range(200)}
        assert len(seen) == 200

    def test_serials_survive_remount(self, fs, image):
        before = {fs.new_fid().serial for _ in range(10)}
        fs.sync()
        mounted = FileSystem.mount(DiskDrive(image))
        after = {mounted.new_fid().serial for _ in range(10)}
        assert not before & after

    def test_serials_never_reused_even_without_sync(self, fs, image):
        """The lease protocol: a crash (no sync) may skip serials but can
        never hand one out twice."""
        fs.sync()
        used = {fs.new_fid().serial for _ in range(30)}  # beyond one lease
        # Crash: no sync.  Remount from the stale descriptor.
        mounted = FileSystem.mount(DiskDrive(image))
        fresh = {mounted.new_fid().serial for _ in range(200)}
        assert not used & fresh

    def test_directory_bit(self, fs):
        assert fs.new_fid(directory=True).is_directory
        assert not fs.new_fid().is_directory


class TestSync:
    def test_sync_freshens_the_map(self, fs, image):
        fs.create_file("f.dat").write_data(b"y" * 1000)
        fs.sync()
        mounted = FileSystem.mount(DiskDrive(image))
        assert mounted.free_pages() == fs.free_pages()

    def test_stale_map_is_harmless(self, fs, image):
        """Skipping sync leaves the on-disk map stale -- a hint, not a
        hazard: allocation still label-checks everything."""
        fs.sync()
        fs.create_file("after-sync.dat").write_data(b"z" * 2000)
        mounted = FileSystem.mount(DiskDrive(image))  # stale map!
        # Allocating through the stale map must not clobber the file.
        mounted.create_file("new.dat").write_data(b"w" * 2000)
        assert mounted.open_file("after-sync.dat").read_data() == b"z" * 2000
        assert mounted.allocator.map_lies > 0  # the lies were caught

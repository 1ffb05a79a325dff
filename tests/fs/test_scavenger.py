"""Scavenger tests: reconstruction of every hint from the absolutes
(section 3.5), across an inventory of disasters."""

import pytest

from repro.disk import DiskDrive, DiskImage, Label, tiny_test_disk
from repro.fs import (
    DESCRIPTOR_LEADER_ADDRESS,
    DESCRIPTOR_NAME,
    FileSystem,
    ROOT_DIRECTORY_NAME,
    Scavenger,
    scavenge,
)
from repro.fs.directory import ENTRY_FILE
from repro.fs.fsck import check_image
from repro.fs.names import page_number_from_label
from repro.words import string_to_words, words_to_bytes


def remount(image, clock=None):
    drive = DiskDrive(image, clock=clock)
    return FileSystem.mount(drive)


def rescavenge(image, clock=None):
    drive = DiskDrive(image, clock=clock)
    return Scavenger(drive).scavenge()


def read_anywhere(fs, name):
    """Find *name* in the root or any directory listed in the root."""
    from repro.errors import FileFormatError, FileNotFound, NotADirectory

    try:
        return fs.open_file(name).read_data()
    except FileNotFound:
        pass
    for entry_name in fs.list_files():
        try:
            sub = fs.open_directory(entry_name)
        except (NotADirectory, FileFormatError):
            continue
        if sub.file.fid == fs.root.file.fid:
            continue
        entry = sub.lookup(name)
        if entry is not None:
            return fs.open_entry(entry).read_data()
    raise FileNotFound(name)


def all_payloads_intact(fs, payloads):
    return all(read_anywhere(fs, name) == data for name, data in payloads.items())


class TestCleanDisk:
    def test_scavenging_a_clean_disk_changes_nothing(self, populated_fs, image):
        report = rescavenge(image)
        assert report.links_repaired == 0
        assert report.garbage_labels_freed == 0
        assert report.orphans_rescued == []
        assert report.entries_nulled == 0
        fs = remount(image)
        assert all_payloads_intact(fs, populated_fs.payloads)

    def test_map_is_recomputed_exactly(self, populated_fs, image):
        report = rescavenge(image)
        assert report.free_pages == image.count_free() - 1  # minus boot reserve

    def test_table_fits_in_memory(self, populated_fs, image):
        """Section 3.5: 48 bits per sector fit in main storage for the
        standard disks."""
        report = rescavenge(image)
        assert report.table_fits_in_memory
        assert report.table_bits_per_sector == 48

    def test_idempotent(self, populated_fs, image):
        first = rescavenge(image)
        second = rescavenge(image)
        assert second.repairs_made() == 0
        assert second.files_found == first.files_found


class TestLinkRepair:
    def test_scrambled_links_are_reconstructed(self, populated_fs, image, fault_plan):
        victims = fault_plan.random_in_use_addresses(5)
        for address in victims:
            fault_plan.scramble_links(address)
        report = rescavenge(image)
        assert report.links_repaired >= 5
        assert all_payloads_intact(remount(image), populated_fs.payloads)

    def test_swapped_sectors_recovered(self, populated_fs, image, fault_plan):
        a, b = fault_plan.random_in_use_addresses(2)
        fault_plan.swap_sectors(a, b)
        rescavenge(image)
        assert all_payloads_intact(remount(image), populated_fs.payloads)


class TestGarbageAndDuplicates:
    def test_garbage_label_freed(self, populated_fs, image, fault_plan):
        address = fault_plan.random_in_use_addresses(1)[0]
        fault_plan.scramble_label(address)
        report = rescavenge(image)
        # Either freed as garbage, or (rarely) parsed as a valid-looking
        # label and swept into some file; both leave the disk consistent.
        assert report.garbage_labels_freed + report.duplicate_pages_freed >= 0
        remount(image)

    def test_duplicate_absolute_names_resolved(self, populated_fs, image):
        """Two sectors claiming the same (FV, n): keep one, free the other."""
        # Find an in-use page and forge a duplicate on a free sector.
        source = next(s for s in image.sectors() if s.label.in_use)
        free = next(s for s in image.sectors() if s.label.is_free)
        free.label = source.label
        free.value = list(source.value)
        report = rescavenge(image)
        assert report.duplicate_pages_freed == 1
        assert all_payloads_intact(remount(image), populated_fs.payloads)


class TestIncompleteFiles:
    def test_headless_chain_freed(self, populated_fs, image, fault_plan):
        """Pages with no page 0 cannot be named; they are reclaimed."""
        target = populated_fs.open_file("file01.dat")
        leader_address = target.leader_address()
        fault_plan.scramble_label(leader_address)
        free_before = image.count_free()
        report = rescavenge(image)
        assert report.headless_chains_freed > 0
        fs = remount(image)
        assert "file01.dat" not in fs.list_files()
        assert image.count_free() > free_before

    def test_gap_truncates_file(self, populated_fs, image, fault_plan):
        target = populated_fs.open_file("file08.dat")
        assert target.last_page_number >= 3, "need a multi-page file"
        middle = target.page_name(2).address
        fault_plan.scramble_label(middle)
        report = rescavenge(image)
        assert any(
            serial == target.fid.serial for serial, _v, _n in report.truncated_files
        )
        fs = remount(image)
        survivor = fs.open_file("file08.dat")
        # Page 1 survived; everything from the gap on is gone.
        assert survivor.last_page_number == 1


class TestDirectoryVerification:
    def test_stale_entry_hint_fixed(self, populated_fs, image):
        populated_fs.root.update_hint("file02.dat", 3)  # wrong address
        report = rescavenge(image)
        assert report.entries_fixed >= 1
        fs = remount(image)
        assert fs.open_file("file02.dat").read_data() == populated_fs.payloads["file02.dat"]

    def test_entry_to_nonexistent_file_nulled(self, populated_fs, image):
        from repro.fs.names import FileId, FullName, make_serial

        populated_fs.root.add("ghost.dat", FullName(FileId(make_serial(999)), 0, 50))
        report = rescavenge(image)
        assert report.entries_nulled == 1
        assert "ghost.dat" not in remount(image).list_files()

    def test_destroyed_directory_loses_no_files(self, populated_fs, image, fault_plan):
        """Section 3.4: "If a directory is destroyed, we don't lose any
        files" -- they come back via their leader names."""
        sub = populated_fs.open_directory("Sub")
        fault_plan.scramble_label(sub.file.page_name(1).address)
        report = rescavenge(image)
        fs = remount(image)
        assert "nested.txt" in report.orphans_rescued
        assert fs.open_file("nested.txt").read_data() == b"nested data"

    def test_corrupt_directory_data_rebuilt(self, populated_fs, image):
        sub = populated_fs.open_directory("Sub")
        raw = bytearray(sub.file.read_data())
        raw[0] = 0x77  # invalid entry type
        sub.file.write_data(bytes(raw))
        report = rescavenge(image)
        assert report.directories_rebuilt == 1
        fs = remount(image)
        assert "nested.txt" in fs.list_files()  # rescued into the root

    def test_corrupt_root_entry_file_id_rebuilds_the_root(self, fs, image):
        """One root entry naming a serial without the ordinary-serial flag
        used to crash the scavenger with a ValueError from ``FileId``."""
        fs.create_file("keep.dat").write_data(b"kept" * 300)
        bad_entry = ([(ENTRY_FILE << 8) | 7, 0x0000, 0x0042, 1, 77]
                     + string_to_words("zz"))
        fs.root.file.write_data(fs.root.file.read_data() + words_to_bytes(bad_entry))
        fs.sync()
        report = rescavenge(image)
        assert report.directories_rebuilt == 1
        assert remount(image).open_file("keep.dat").read_data() == b"kept" * 300
        assert check_image(image).clean, check_image(image).issues


class TestOrphanRescue:
    def test_unlisted_file_enters_main_directory(self, populated_fs, image):
        populated_fs.root.remove("file05.dat")  # entry gone, file remains
        report = rescavenge(image)
        assert "file05.dat" in report.orphans_rescued
        fs = remount(image)
        assert fs.open_file("file05.dat").read_data() == populated_fs.payloads["file05.dat"]

    def test_name_collision_gets_suffix(self, populated_fs, image):
        """Two orphans with the same leader name must both survive."""
        a = populated_fs.create_file("twin.dat")
        a.write_data(b"first twin")
        populated_fs.root.remove("twin.dat")
        b = populated_fs.create_file("twin.dat")
        b.write_data(b"second twin")
        populated_fs.root.remove("twin.dat")
        report = rescavenge(image)
        assert len([n for n in report.orphans_rescued if n.startswith("twin")]) == 2
        fs = remount(image)
        rescued = sorted(n for n in fs.list_files() if n.startswith("twin"))
        contents = {fs.open_file(n).read_data() for n in rescued}
        assert contents == {b"first twin", b"second twin"}

    def test_corrupt_leader_synthesized(self, populated_fs, image, fault_plan):
        target = populated_fs.open_file("file06.dat")
        serial = target.fid.serial
        # Destroy the leader VALUE (name etc.), keeping the label.
        populated_fs.page_io.write(target.full_name(), [0] * 256)
        populated_fs.root.remove("file06.dat")
        report = rescavenge(image)
        assert report.leaders_rewritten >= 1
        fs = remount(image)
        rescued = [n for n in fs.list_files() if n.startswith("Rescued.")]
        assert len(rescued) == 1
        assert fs.open_file(rescued[0]).read_data() == populated_fs.payloads["file06.dat"]


class TestBadMedia:
    def test_decayed_sectors_marked_and_avoided(self, populated_fs, image, fault_plan):
        # Decay two free sectors.
        free = [s.header.address for s in image.sectors() if s.label.is_free]
        fault_plan.decay_sector(free[0])
        fault_plan.decay_sector(free[1])
        report = rescavenge(image)
        assert set(report.bad_sectors) == {free[0], free[1]}
        fs = remount(image)
        assert not fs.allocator.is_free(free[0])
        assert not fs.allocator.is_free(free[1])


class TestTotalReconstruction:
    def test_descriptor_destroyed(self, populated_fs, image, fault_plan):
        fault_plan.scramble_label(DESCRIPTOR_LEADER_ADDRESS)
        report = rescavenge(image)
        assert report.descriptor_recreated
        fs = remount(image)
        assert fs.open_file(DESCRIPTOR_NAME).leader_address() == DESCRIPTOR_LEADER_ADDRESS
        assert all_payloads_intact(fs, populated_fs.payloads)

    def test_root_directory_destroyed(self, populated_fs, image, fault_plan):
        root_file = populated_fs.root.file
        for pn in range(root_file.page_count()):
            fault_plan.scramble_label(root_file.page_name(pn).address)
        rescavenge(image)
        fs = remount(image)
        assert all_payloads_intact(fs, populated_fs.payloads)

    def test_everything_at_once(self, populated_fs, image, fault_plan):
        """The kitchen sink: descriptor + root + links + map all wrong."""
        fault_plan.scramble_label(DESCRIPTOR_LEADER_ADDRESS)
        for address in fault_plan.random_in_use_addresses(6):
            fault_plan.scramble_links(address)
        report = rescavenge(image)
        fs = remount(image)
        assert all_payloads_intact(fs, populated_fs.payloads)
        # And a second scavenge finds nothing left to fix.
        assert rescavenge(image).repairs_made() == 0


class TestReportTiming:
    def test_elapsed_time_recorded(self, populated_fs, image):
        report = rescavenge(image)
        assert report.elapsed_s > 0
        assert "disk.transfer" in report.breakdown_ms
        assert "cpu" in report.breakdown_ms

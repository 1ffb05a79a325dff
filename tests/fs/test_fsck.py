"""Tests for the read-only consistency checker."""

import pytest

from repro.disk import DiskDrive, FaultInjector, FaultPlan
from repro.disk.sector import DIRECTORY_SERIAL_FLAG
from repro.fs import FileSystem, Scavenger
from repro.fs.descriptor import DESCRIPTOR_LEADER_ADDRESS
from repro.fs.fsck import PackIndex, check_image
from repro.fs.names import ORDINARY_SERIAL_FLAG, FileId, FullName, make_serial
from tests.fs.fsck_reference import check_image as reference_check


class TestCleanImages:
    def test_fresh_format_is_clean(self, fs, image):
        fs.sync()
        report = check_image(image)
        assert report.clean, [str(i) for i in report.issues]

    def test_populated_fs_is_clean(self, populated_fs, image):
        report = check_image(image)
        assert report.clean, [str(i) for i in report.issues]
        assert report.files >= 10
        assert report.directories >= 2  # root + Sub

    def test_counts(self, populated_fs, image):
        report = check_image(image)
        assert report.free_pages == image.count_free()
        assert report.bad_pages == 0


@pytest.fixture
def check(populated_fs, image):
    """The checker each detection case runs after its damage, on two
    inputs: a fresh call, and one carrying an index that checked the pack
    before the damage.  Both reports must equal the full pass's."""
    index = PackIndex()
    assert check_image(image, index).clean

    def run():
        report = check_image(image)
        assert check_image(image, index) == report == reference_check(image)
        return report

    return run


class TestDetection:
    def test_garbage_label(self, check, injector):
        injector.scramble_label(injector.random_in_use_addresses(1)[0])
        kinds = check().kinds()
        # A scramble lands as garbage, or (rarely) as a valid-looking label
        # creating some structural violation; either way, not clean.
        assert kinds

    def test_scrambled_links(self, check, injector):
        injector.scramble_links(injector.random_in_use_addresses(1)[0])
        assert "bad-link" in check().kinds()

    def test_duplicate_page(self, check, image):
        source = next(s for s in image.sectors() if s.label.in_use)
        free = next(s for s in image.sectors() if s.label.is_free)
        free.label = source.label
        free.value = list(source.value)
        assert "duplicate-page" in check().kinds()

    def test_stale_map(self, check, populated_fs, image):
        busy = next(s.header.address for s in image.sectors() if s.label.in_use)
        populated_fs.allocator.mark_free(busy)
        populated_fs.sync()
        assert "map-lies-free" in check().kinds()

    def test_stale_directory_hint(self, check, populated_fs):
        populated_fs.root.update_hint("file02.dat", 3)
        assert "stale-entry-hint" in check().kinds()

    def test_dangling_entry(self, check, populated_fs):
        populated_fs.root.add("ghost", FullName(FileId(make_serial(9999)), 0, 11))
        assert "dangling-entry" in check().kinds()

    def test_missing_descriptor(self, check, injector):
        injector.scramble_label(1)
        kinds = check().kinds()
        assert "no-descriptor" in kinds or "garbage-label" in kinds

    def test_corrupt_leader_value(self, check, populated_fs):
        target = populated_fs.open_file("file02.dat")
        populated_fs.page_io.write(target.full_name(), [0] * 256)
        assert "bad-leader" in check().kinds()

    def test_root_serial_without_its_flags(self, check, image):
        # Descriptor word 7 is the root directory serial's high word.
        flags = (DIRECTORY_SERIAL_FLAG | ORDINARY_SERIAL_FLAG) >> 16
        rewrite_descriptor_word(image, 7, lambda high: high & ~flags)
        assert "bad-descriptor" in check().kinds()

    def test_root_version_zero(self, check, image):
        rewrite_descriptor_word(image, 9, lambda version: 0)
        assert "bad-descriptor" in check().kinds()

    def test_off_pack_header(self, check, image):
        # Bit 15 of a data page's header address word names an address
        # past the end of the pack: reported, never raised.
        address = next(a for a, s in enumerate(image.sectors())
                       if s.label.in_use and s.label.page_number > 1)
        FaultPlan(image).flip_bits(address, "header", 1, 1 << 15)
        issues = [i for i in check().issues if i.kind == "off-pack-header"]
        assert [i.address for i in issues] == [address]


def rewrite_descriptor_word(image, index, change):
    """Rewrite one word of the descriptor's first data page, behind the drive."""
    leader = image.sector(DESCRIPTOR_LEADER_ADDRESS).label
    sector = next(s for s in image.sectors()
                  if (s.label.serial, s.label.version, s.label.page_number)
                  == (leader.serial, leader.version, leader.page_number + 1))
    value = list(sector.value)
    value[index] = change(value[index])
    sector.value = value


class TestScavengerContract:
    def test_scavenge_leaves_a_clean_image(self, populated_fs, image, injector):
        """The scavenger's postcondition, stated once and for all: whatever
        the damage, afterwards fsck finds nothing."""
        for address in injector.random_in_use_addresses(4):
            injector.scramble_links(address)
        injector.swap_sectors(*injector.random_in_use_addresses(2))
        populated_fs.root.update_hint("file04.dat", 9)
        Scavenger(DiskDrive(image)).scavenge()
        report = check_image(image)
        assert report.clean, [str(i) for i in report.issues]

    def test_compaction_leaves_a_clean_image(self, populated_fs, image):
        from repro.fs import Compactor

        Compactor(DiskDrive(image)).compact()
        report = check_image(image)
        assert report.clean, [str(i) for i in report.issues]

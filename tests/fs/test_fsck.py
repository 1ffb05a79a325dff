"""Tests for the read-only consistency checker."""

import pytest

from repro.disk import DiskDrive, FaultPlan
from repro.disk.sector import DIRECTORY_SERIAL_FLAG, Label, Sector
from repro.fs import FileSystem, OnlineMaintenance, Scavenger
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
    def test_garbage_label(self, check, fault_plan):
        fault_plan.scramble_label(fault_plan.random_in_use_addresses(1)[0])
        kinds = check().kinds()
        # A scramble lands as garbage, or (rarely) as a valid-looking label
        # creating some structural violation; either way, not clean.
        assert kinds

    def test_scrambled_links(self, check, fault_plan):
        fault_plan.scramble_links(fault_plan.random_in_use_addresses(1)[0])
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

    def test_missing_descriptor(self, check, fault_plan):
        fault_plan.scramble_label(1)
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


@pytest.fixture
def view_reads(monkeypatch):
    """Every read of a ``Sector.header`` or ``Sector.label`` view, by name."""
    reads = []
    for name in ("header", "label"):
        view = getattr(Sector, name)

        def counted(sector, name=name, read=view.fget):
            reads.append(name)
            return read(sector)

        monkeypatch.setattr(Sector, name, property(counted, view.fset))
    return reads


class TestCarriedCost:
    """A carried check reads the views of the addresses the pack logged
    as changed, and no others."""

    def test_a_slice_that_changed_nothing_costs_no_view(self, populated_fs, image,
                                                        view_reads):
        maint = OnlineMaintenance(populated_fs)
        assert maint.step()
        index = PackIndex()
        check_image(image, index)
        stamp = image.changes.stamp
        assert maint.step()  # a sweep slice: reads labels, writes none
        assert image.changes.stamp == stamp
        view_reads.clear()
        report = check_image(image, index)
        assert view_reads == []
        assert report == reference_check(image)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_k_changed_addresses_cost_k_header_and_label_views(self, populated_fs,
                                                                image, view_reads, k):
        index = PackIndex()
        check_image(image, index)
        free = [a for a, sector in enumerate(image.sectors()) if sector.label.is_free]
        for address in free[:k]:
            image.sector(address).label = Label.bad()
        view_reads.clear()
        report = check_image(image, index)
        assert sorted(view_reads) == ["header"] * k + ["label"] * k
        assert report == reference_check(image)
        assert report.bad_pages == k

    def test_full_passes_on_first_sight_restore_and_another_pack(self, populated_fs,
                                                                 image, fault_plan):
        index = PackIndex()
        earlier = image.snapshot()

        def carried(pack, full_passes):
            assert check_image(pack, index) == reference_check(pack)
            assert index.full_passes == full_passes

        carried(image, 1)
        fault_plan.scramble_links(fault_plan.random_in_use_addresses(1)[0])
        carried(image, 1)
        image.restore(earlier)
        carried(image, 2)
        carried(earlier, 3)
        carried(image, 4)
        carried(image, 4)


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
    def test_scavenge_leaves_a_clean_image(self, populated_fs, image, fault_plan):
        """The scavenger's postcondition, stated once and for all: whatever
        the damage, afterwards fsck finds nothing."""
        for address in fault_plan.random_in_use_addresses(4):
            fault_plan.scramble_links(address)
        fault_plan.swap_sectors(*fault_plan.random_in_use_addresses(2))
        populated_fs.root.update_hint("file04.dat", 9)
        Scavenger(DiskDrive(image)).scavenge()
        report = check_image(image)
        assert report.clean, [str(i) for i in report.issues]

    def test_compaction_leaves_a_clean_image(self, populated_fs, image):
        from repro.fs import Compactor

        Compactor(DiskDrive(image)).compact()
        report = check_image(image)
        assert report.clean, [str(i) for i in report.issues]

"""Unit tests for the platter state."""

import gc
import weakref

import pytest

from repro.disk import DiskImage, Header, Label, Sector, tiny_test_disk
from repro.disk.sector import VALUE_WORDS
from repro.errors import AddressOutOfRange


@pytest.fixture
def image():
    return DiskImage(tiny_test_disk())


class TestAccess:
    def test_every_sector_fresh(self, image):
        assert len(image) == image.shape.total_sectors()
        assert all(s.label.is_free for s in image.sectors())

    def test_headers_match_addresses(self, image):
        for address in image.shape.addresses():
            assert image.sector(address).header.address == address

    def test_out_of_range(self, image):
        with pytest.raises(AddressOutOfRange):
            image.sector(len(image))

    def test_set_sector(self, image):
        sector = Sector.fresh(image.pack_id, 3)
        sector.value = [42] * VALUE_WORDS
        image.set_sector(3, sector)
        assert image.sector(3).value[0] == 42


class TestSnapshots:
    def test_snapshot_is_independent(self, image):
        snap = image.snapshot()
        image.sector(0).value = [123] * VALUE_WORDS
        assert snap.sector(0).value[0] == 0xFFFF

    def test_restore(self, image):
        snap = image.snapshot()
        image.sector(5).label = Label(serial=0x4000_0001, version=1, page_number=1, length=0)
        image.bad_media.add(7)
        image.restore(snap)
        assert image.sector(5).label.is_free
        assert not image.bad_media

    def test_restore_rejects_different_shape(self, image):
        other = DiskImage(tiny_test_disk(cylinders=9))
        with pytest.raises(ValueError):
            image.restore(other)


class TestChangeLog:
    def test_every_setter_logs_its_address(self, image):
        stamp = image.changes.stamp
        image.sector(3).label = Label.bad()
        image.sector(5).header = Header(image.pack_id, 5)
        image.sector(7).set_label_words(Label.bad().pack())
        image.sector(9).set_header_words([image.pack_id, 9])
        image.sector(11).value = [0] * VALUE_WORDS  # values are not logged
        assert image.changes.since(stamp) == [9, 7, 5, 3]

    def test_readers_share_the_log_without_consuming_it(self, image):
        stamp = image.changes.stamp
        image.sector(2).label = Label.bad()
        assert image.changes.since(stamp) == [2]
        assert image.changes.since(stamp) == [2]
        assert image.changes.since(image.changes.stamp) == []

    def test_the_log_holds_one_entry_per_address_however_many_writes(self, image):
        for _ in range(3):
            for address in range(len(image)):
                image.sector(address).label = Label.free()
        image.sector(0).label = Label.bad()
        changed = image.changes.since(0)
        assert len(changed) == len(image)
        assert changed[0] == 0  # the newest change comes first

    def test_restore_tells_readers_to_start_over(self, image):
        snap = image.snapshot()
        stamp = image.changes.stamp
        image.restore(snap)
        assert image.changes.since(stamp) is None
        assert image.changes.since(image.changes.stamp) == []

    def test_snapshot_sectors_log_to_the_snapshot(self, image):
        image.sector(4).label = Label.bad()
        snap = image.snapshot()
        stamp = image.changes.stamp
        snap.sector(4).label = Label.free()
        assert image.changes.since(stamp) == []
        assert snap.changes.since(0) == [4]
        assert image.sector(4).label.is_bad

    def test_a_dropped_image_is_freed_at_once(self, image):
        """Sectors point at the log, not at their image: no reference
        cycle keeps a dropped snapshot alive until the cycle collector
        runs."""
        image.sector(4).label = Label.bad()
        snap = image.snapshot()
        gone = weakref.ref(snap)
        gc.disable()
        try:
            del snap
            assert gone() is None
        finally:
            gc.enable()


class TestSetSectorCopies:
    """``set_sector`` installs a copy: no sector object sits at two
    addresses or in two images, so no write can log to the wrong place."""

    def test_a_sector_placed_at_a_second_address(self, image):
        source = image.sector(3)
        stamp = image.changes.stamp
        image.set_sector(8, source)
        assert image.changes.since(stamp) == [8]
        placed = image.sector(8)
        assert placed is not source
        stamp = image.changes.stamp
        placed.label = Label.bad()
        source.label = Label.bad()
        assert image.changes.since(stamp) == [3, 8]

    def test_a_sector_placed_in_a_second_image(self, image):
        other = DiskImage(image.shape)
        source = other.sector(3)
        image.set_sector(3, source)
        stamp, other_stamp = image.changes.stamp, other.changes.stamp
        image.sector(3).label = Label.bad()
        assert image.changes.since(stamp) == [3]
        assert other.changes.since(other_stamp) == []
        assert other.sector(3).label.is_free


class TestStatistics:
    def test_counts(self, image):
        total = len(image)
        assert image.count_free() == total
        image.sector(0).label = Label(serial=0x4000_0001, version=1, page_number=1, length=0)
        image.sector(1).label = Label.bad()
        assert image.count_in_use() == 1
        assert image.count_bad() == 1
        assert image.count_free() == total - 2

    def test_labels_by_serial(self, image):
        for address, pn in ((0, 1), (4, 2)):
            image.sector(address).label = Label(
                serial=0x4000_0009, version=1, page_number=pn, length=0
            )
        grouped = image.labels_by_serial()
        assert len(grouped) == 1
        assert len(grouped[0x4000_0009]) == 2

"""Page values at rest are shared immutable tuples.

A sector's 256 value words change only when the head writes them
(section 3.3), so ``Sector.value`` is a tuple that a write replaces.
Whatever holds a value -- a copy, a snapshot, a restored pack, a cache
entry -- shares the platter's tuple instead of copying it, and CPython's
cyclic collector stops tracking a tuple of ints once a collection has
seen it, so values at rest cost the collector nothing.
"""

import gc

import pytest

from repro import FileSystem
from repro.disk import CachedDrive, DiskImage, Label, Sector, tiny_test_disk
from repro.disk.sector import VALUE_WORDS

LABEL = Label(serial=0x4000_0001, version=1, page_number=1, length=512)


def test_value_is_an_immutable_tuple():
    sector = Sector.fresh(1, 3)
    assert sector.value is Sector.fresh(1, 4).value  # one all-ones tuple
    with pytest.raises(TypeError):
        sector.value[0] = 1
    sector.value = [7] * VALUE_WORDS
    assert type(sector.value) is tuple
    assert sector.value == (7,) * VALUE_WORDS


def test_copy_shares_the_value():
    sector = Sector.fresh(1, 3)
    sector.value = list(range(VALUE_WORDS))
    assert sector.copy().value is sector.value


def test_snapshot_and_restore_share_the_platter_values():
    image = DiskImage(tiny_test_disk())
    image.sector(4).value = list(range(VALUE_WORDS))
    snap = image.snapshot()
    assert snap.sector(4).value is image.sector(4).value
    other = DiskImage(tiny_test_disk())
    other.restore(snap)
    assert other.sector(4).value is image.sector(4).value


def test_cache_entry_shares_the_platter_value():
    image = DiskImage(tiny_test_disk())
    drive = CachedDrive(image, cache_sectors=8)
    drive.write_label_value(5, LABEL, list(range(VALUE_WORDS)))  # write-through
    assert drive._entries[5].value is image.sector(5).value
    drive.invalidate(5)
    drive.check_label_read_value(5, LABEL)  # a miss
    assert drive._entries[5].value is image.sector(5).value
    drive.check_label_write_value(5, LABEL, [9] * VALUE_WORDS)  # deferred
    assert image.sector(5).value[0] == 0  # still buffered
    drive.flush()
    assert image.sector(5).value is drive._entries[5].value


def test_collector_stops_tracking_values_at_rest():
    drive = CachedDrive(DiskImage(tiny_test_disk()), cache_sectors=16)
    fs = FileSystem.format(drive)
    for index in range(3):
        fs.create_file(f"memo{index}").write_data(bytes(range(256)) * (index + 2))
    fs.flush()
    fs.open_file("memo0").write_full_page(1, [7] * VALUE_WORDS)  # left dirty
    gc.collect()
    values = [sector.value for sector in drive.image._sectors if sector is not None]
    values += [entry.value for entry in drive._entries.values() if entry.value is not None]
    assert len(values) > 16
    assert [value for value in values if gc.is_tracked(value)] == []

"""FaultPlan: the deterministic crash/fault schedule.

Everything here drives a drive directly -- no file system -- so each fault's
hardware-level semantics can be pinned exactly: which parts landed, what
the checksum state is, and that the machine stays down until revived.
"""

import pytest

from repro.disk import (
    Action,
    CachedDrive,
    DiskDrive,
    DiskImage,
    FaultPlan,
    Header,
    Label,
    MAX_READ_RETRIES,
    PartCommand,
    TRACE_POINTS,
    check_point,
    tiny_test_disk,
)
from repro.errors import (
    PowerFailure,
    ReadRetriesExhausted,
    SectorChecksumError,
    TornWriteError,
)
from repro.words import ones_words
from repro.disk.sector import VALUE_WORDS


def full_write(drive, address, pack_id=7, fill=0o1234):
    drive.write_header_label_value(
        address, Header(pack_id, address), Label.free(), [fill] * VALUE_WORDS
    )


class TestCleanCrash:
    def test_crash_at_write_boundary(self, image, planned_drive, fault_plan):
        fault_plan.crash_at_write(2)
        with pytest.raises(PowerFailure):
            full_write(planned_drive, 5)
        # Write 1 (header) landed; write 2 (label) and after did not.
        assert image.sector(5).header.pack_id == 7
        assert image.sector(5).label.is_free
        assert image.sector(5).value == tuple(ones_words(VALUE_WORDS))  # untouched
        assert fault_plan.crashed

    def test_machine_stays_down_until_revived(self, planned_drive, fault_plan):
        fault_plan.crash_at_write(1)
        with pytest.raises(PowerFailure):
            full_write(planned_drive, 5)
        with pytest.raises(PowerFailure):
            planned_drive.read_label(0)
        fault_plan.revive()
        planned_drive.read_label(0)  # boots again

    def test_memory_served_read_dies_with_the_machine(self, image, fault_plan):
        drive = CachedDrive(image, fault_injector=fault_plan)
        full_write(drive, 5)  # a header write goes through and warms the cache
        drive.read_sector(5)
        assert drive.stats()["disk.cache.hits"] == 1  # served from memory
        fault_plan.crash_at_write(fault_plan.writes_seen + 1)
        with pytest.raises(PowerFailure) as crash:
            full_write(drive, 6)
        with pytest.raises(PowerFailure) as down:
            drive.read_sector(5)
        assert down.value.crash_point == crash.value.crash_point == fault_plan.writes_seen

    def test_crash_point_counts_are_absolute(self, planned_drive, fault_plan):
        full_write(planned_drive, 3)
        assert fault_plan.writes_seen == 3
        with pytest.raises(ValueError):
            fault_plan.crash_at_write(2)  # already in the past
        fault_plan.crash_at_write(5)
        with pytest.raises(PowerFailure):
            full_write(planned_drive, 4)
        # header (4) landed, label (5) did not.
        assert image_header_pack_id(planned_drive, 4) == 7


def image_header_pack_id(drive, address):
    return drive.image.sector(address).header.pack_id


class TestTornWrite:
    def test_torn_value_fails_checksum_until_rewritten(
        self, image, planned_drive, fault_plan
    ):
        fault_plan.tear_at_write(3)
        with pytest.raises(TornWriteError):
            full_write(planned_drive, 5)
        assert (5, "value") in image.checksum_bad
        fault_plan.revive()

        # The torn part is unreadable; the others are fine.
        with pytest.raises(SectorChecksumError):
            planned_drive.read_sector(5)
        planned_drive.read_label(5)

        # Rewriting the part lays down a fresh checksum.
        planned_drive.transfer(
            5, value=PartCommand(Action.WRITE, ones_words(VALUE_WORDS))
        )
        assert (5, "value") not in image.checksum_bad
        planned_drive.read_sector(5)

    def test_torn_value_is_prefix_plus_garbage(self, image, planned_drive, fault_plan):
        fault_plan.tear_at_write(3)
        with pytest.raises(TornWriteError):
            full_write(planned_drive, 5, fill=0o4242)
        value = image.sector(5).value
        # Some (possibly empty) prefix of the new words landed.
        prefix = 0
        while prefix < VALUE_WORDS and value[prefix] == 0o4242:
            prefix += 1
        assert prefix < VALUE_WORDS  # the tail is garbage, not the new data

    def test_tear_is_deterministic_given_seed(self):
        def torn_value(seed):
            image = DiskImage(tiny_test_disk(cylinders=30))
            plan = FaultPlan(image, seed=seed).tear_at_write(3)
            drive = DiskDrive(image, fault_injector=plan)
            with pytest.raises(TornWriteError):
                full_write(drive, 5)
            return list(image.sector(5).value)

        assert torn_value(11) == torn_value(11)
        assert torn_value(11) != torn_value(12)

    def test_tear_between_label_and_value(self, image, planned_drive, fault_plan):
        old_value = [0o777] * VALUE_WORDS
        new_label = Label(serial=0x40000001, version=1, page_number=1, length=512)
        planned_drive.transfer(
            4,
            label=PartCommand(Action.WRITE, Label.free().pack()),
            value=PartCommand(Action.WRITE, old_value),
        )
        fault_plan.tear_between_label_and_value()
        with pytest.raises(PowerFailure):
            planned_drive.transfer(
                4,
                label=PartCommand(Action.WRITE, new_label.pack()),
                value=PartCommand(Action.WRITE, [0o111] * VALUE_WORDS),
            )
        # New identity on disk, old data: the exact inconsistency the
        # scavenger's label discipline is designed to survive.
        assert image.sector(4).label.pack() == new_label.pack()
        assert image.sector(4).value == tuple(old_value)


class TestTracePoints:
    def test_crash_at_named_point(self, planned_drive, fault_plan):
        fault_plan.crash_at_point("value:write", occurrence=2)
        full_write(planned_drive, 1)  # first value:write passes
        with pytest.raises(PowerFailure):
            full_write(planned_drive, 2)
        # Second command's header and label landed, value did not.
        assert planned_drive.image.sector(2).header.pack_id == 7
        assert planned_drive.image.sector(2).value == tuple(ones_words(VALUE_WORDS))

    def test_point_names_validated(self):
        assert "label:write" in TRACE_POINTS
        with pytest.raises(ValueError):
            check_point("label:wrote")


class TestTransientReads:
    def test_bounded_retry_absorbs_transients(self, planned_drive, fault_plan):
        full_write(planned_drive, 5, fill=0o555)
        clean_us = planned_drive.clock.now_us
        planned_drive.read_label(5)
        clean_read_us = planned_drive.clock.now_us - clean_us

        fault_plan.schedule_transient_reads(3)
        t0 = planned_drive.clock.now_us
        result = planned_drive.read_sector(5)
        assert result.value == [0o555] * VALUE_WORDS
        stats = planned_drive.stats()
        assert stats["disk.drive.transient_read_errors"] == 3
        assert stats["disk.drive.read_retries"] == 3
        # The backoff charged real (simulated) time: revolutions, not magic.
        assert planned_drive.clock.now_us - t0 > clean_read_us

    def test_retries_exhaust_into_typed_error(self, planned_drive, fault_plan):
        full_write(planned_drive, 5)
        fault_plan.schedule_transient_reads(100)
        with pytest.raises(ReadRetriesExhausted) as info:
            planned_drive.read_label(5)
        assert info.value.address == 5
        assert info.value.attempts == MAX_READ_RETRIES + 1

    def test_schedule_names_a_real_part_and_address(self, fault_plan):
        last = fault_plan.image.shape.total_sectors() - 1
        for where in ({"part": "lable"}, {"address": last + 1}, {"address": 10**6},
                      {"address": -1}):
            with pytest.raises(ValueError):
                fault_plan.schedule_transient_reads(3, **where)
        assert not fault_plan.pending_faults()  # nothing that could never fire
        fault_plan.schedule_transient_reads(3, address=last, part="label")
        assert fault_plan.pending_faults()

    def test_targeted_transients_only_hit_their_address(
        self, planned_drive, fault_plan
    ):
        full_write(planned_drive, 5)
        full_write(planned_drive, 6)
        fault_plan.schedule_transient_reads(2, address=6)
        planned_drive.read_label(5)
        assert planned_drive.stats()["disk.drive.transient_read_errors"] == 0
        planned_drive.read_label(6)
        assert planned_drive.stats()["disk.drive.transient_read_errors"] == 2


class TestDirectCorruption:
    def test_flip_bits_round_trip(self, image, planned_drive, fault_plan):
        full_write(planned_drive, 5, fill=0)
        fault_plan.flip_bits(5, "value", 10, 0b101)
        assert image.sector(5).value[10] == 0b101
        fault_plan.flip_bits(5, "value", 10, 0b101)
        assert image.sector(5).value[10] == 0

    def test_pending_faults_and_clear(self, fault_plan):
        assert not fault_plan.pending_faults()
        fault_plan.crash_at_write(9).schedule_transient_reads(1)
        assert fault_plan.pending_faults()
        fault_plan.clear()
        assert not fault_plan.pending_faults()

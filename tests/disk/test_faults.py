"""Unit tests for the fault plan's scheduled power failures and its
direct corruption (the crash-point schedules are in test_fault_plan)."""

import pytest

from repro.disk import (
    DiskDrive,
    DiskImage,
    FaultPlan,
    Label,
    tiny_test_disk,
    value_words,
)
from repro.errors import BadSectorError, PowerFailure, TornWriteError


@pytest.fixture
def image():
    return DiskImage(tiny_test_disk())


def attach(image, injector):
    d = DiskDrive(image, fault_injector=injector)
    d.injector = injector
    return d


@pytest.fixture
def drive(image):
    return attach(image, FaultPlan(image, seed=42))


def in_use(serial=0x4000_0001, page=1):
    return Label(serial=serial, version=1, page_number=page, length=0)


class TestTornWrites:
    def test_power_failure_tears_the_scheduled_write(self, drive):
        drive.injector.schedule_power_failure(after_writes=1)
        with pytest.raises(TornWriteError):
            drive.check_label_then_rewrite(3, Label.free(), in_use(), value_words([]))
        assert drive.injector.torn_writes == 1

    def test_later_write_scheduling(self, drive):
        drive.check_label_then_rewrite(3, Label.free(), in_use(), value_words([]))
        drive.injector.schedule_power_failure(after_writes=3)
        # Write 1 and 2 (label + value of one rewrite) succeed, 3 tears.
        drive.check_label_then_rewrite(
            3, in_use(), in_use().with_links(next_link=5)
        )
        with pytest.raises(TornWriteError):
            drive.check_label_write_value(3, in_use().with_links(next_link=5), value_words([1]))

    def test_cancel(self, drive):
        drive.injector.schedule_power_failure(after_writes=1)
        drive.injector.cancel_power_failure()
        drive.check_label_then_rewrite(3, Label.free(), in_use(), value_words([]))

    def test_bad_schedule_rejected(self, drive):
        with pytest.raises(ValueError):
            drive.injector.schedule_power_failure(after_writes=0)


class TestTornWritesOnAPlan:
    def test_scheduled_tear_is_tear_at_write_counted_from_now(self):
        outcomes = []
        for schedule in ("power_failure", "tear_at_write"):
            image = DiskImage(tiny_test_disk())
            drive = attach(image, FaultPlan(image, seed=42))
            drive.check_label_then_rewrite(3, Label.free(), in_use(), value_words([]))
            if schedule == "power_failure":
                drive.injector.schedule_power_failure(after_writes=2)
            else:
                drive.injector.tear_at_write(drive.injector.writes_seen + 2)
            with pytest.raises(TornWriteError) as torn:
                drive.check_label_then_rewrite(3, in_use(), in_use(page=2), value_words([7]))
            assert (3, "value") in image.checksum_bad
            with pytest.raises(PowerFailure):  # the machine is down
                drive.read_sector(4)
            outcomes.append((str(torn.value), torn.value.crash_point, image.digest()))
        assert outcomes[0] == outcomes[1]


class TestDirectCorruption:
    def test_decay_and_heal(self, drive):
        drive.injector.decay_sector(5)
        with pytest.raises(BadSectorError):
            drive.read_sector(5)
        drive.injector.heal_sector(5)
        drive.read_sector(5)

    def test_scramble_label_returns_old(self, drive):
        drive.check_label_then_rewrite(4, Label.free(), in_use(), value_words([]))
        old = drive.injector.scramble_label(4)
        assert old == in_use()
        assert drive.image.sector(4).label != in_use()

    def test_scramble_links_keeps_absolutes(self, drive):
        drive.check_label_then_rewrite(4, Label.free(), in_use(), value_words([]))
        drive.injector.scramble_links(4)
        label = drive.image.sector(4).label
        assert label.serial == 0x4000_0001 and label.page_number == 1

    def test_scramble_value_changes_words(self, drive):
        drive.check_label_then_rewrite(4, Label.free(), in_use(), value_words([0] * 256))
        drive.injector.scramble_value(4, nwords=8)
        assert any(w != 0 for w in drive.image.sector(4).value)

    def test_swap_sectors_keeps_headers(self, drive):
        drive.check_label_then_rewrite(4, Label.free(), in_use(page=1), value_words([1]))
        drive.check_label_then_rewrite(9, Label.free(), in_use(page=2), value_words([2]))
        drive.injector.swap_sectors(4, 9)
        assert drive.image.sector(4).header.address == 4
        assert drive.image.sector(9).header.address == 9
        assert drive.image.sector(4).label.page_number == 2

    def test_random_in_use_sampling(self, drive):
        for address, page in ((2, 1), (6, 2), (10, 3)):
            drive.check_label_then_rewrite(
                address, Label.free(), in_use(page=page), value_words([])
            )
        sample = drive.injector.random_in_use_addresses(2)
        assert len(sample) == 2 and set(sample) <= {2, 6, 10}
        with pytest.raises(ValueError):
            drive.injector.random_in_use_addresses(4)

    def test_reproducible_with_same_seed(self, image):
        a = FaultPlan(image, seed=5)
        b = FaultPlan(image, seed=5)
        assert a.rng.random() == b.rng.random()

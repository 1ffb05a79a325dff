"""Unit tests for the drive's hardware contract (section 3.3)."""

import pytest

from repro.clock import SimClock
from repro.disk import (
    Action,
    DiskDrive,
    DiskImage,
    Header,
    Label,
    PartCommand,
    tiny_test_disk,
    value_words,
)
from repro.errors import AddressOutOfRange, BadSectorError, CheckError, LabelCheckError


@pytest.fixture
def drive():
    return DiskDrive(DiskImage(tiny_test_disk()))


def in_use_label(serial=0x4000_0001, page=1, **kw):
    return Label(serial=serial, version=1, page_number=page, length=0, **kw)


def claim(drive, address, label, data=()):
    drive.check_label_then_rewrite(address, Label.free(), label, value_words(list(data)))


class TestRawWordWrites:
    """A raw header or label write whose words are not all words is
    refused at the write, and the sector keeps what it held."""

    @pytest.mark.parametrize("bad", [1.5, 70_000])
    def test_label_write_of_a_non_word_is_refused(self, drive, bad):
        label = in_use_label()
        claim(drive, 4, label)
        words = label.pack()
        words[2] = bad  # the version word
        with pytest.raises(ValueError):
            drive.transfer(4, label=PartCommand(Action.WRITE, words),
                           value=PartCommand(Action.WRITE, value_words([])))
        assert drive.read_label(4) == label

    def test_header_write_of_a_float_is_refused(self, drive):
        digest = drive.image.digest()
        with pytest.raises(ValueError):
            drive.transfer(4, header=PartCommand(Action.WRITE, [1, 2.5]),
                           label=PartCommand(Action.WRITE, Label.free().pack()),
                           value=PartCommand(Action.WRITE, value_words([])))
        assert drive.read_sector(4).header_object() == Header(1, 4)
        assert drive.image.digest() == digest


class TestPartActions:
    def test_read_fresh_sector(self, drive):
        result = drive.read_sector(5)
        assert result.header_object() == Header(1, 5)
        assert result.label_object().is_free
        assert result.value == [0xFFFF] * 256

    def test_write_then_read_value(self, drive):
        label = in_use_label()
        claim(drive, 5, label, [10, 20, 30])
        result = drive.check_label_read_value(5, label)
        assert result.value[:3] == [10, 20, 30]

    def test_read_label_only(self, drive):
        label = in_use_label()
        claim(drive, 7, label)
        assert drive.read_label(7) == label

    def test_independent_part_actions(self, drive):
        """Header read + label check + value write in one command."""
        label = in_use_label()
        claim(drive, 3, label)
        result = drive.transfer(
            3,
            header=PartCommand(Action.READ),
            label=PartCommand(Action.CHECK, label.pack()),
            value=PartCommand(Action.WRITE, value_words([1])),
        )
        assert result.header_object().address == 3

    def test_label_object_requires_label_read(self, drive):
        result = drive.transfer(3, value=PartCommand(Action.READ))
        with pytest.raises(ValueError):
            result.label_object()


class TestCheckSemantics:
    def test_check_mismatch_aborts(self, drive):
        label = in_use_label()
        claim(drive, 4, label, [5])
        wrong = in_use_label(serial=0x4000_0002)
        with pytest.raises(LabelCheckError):
            drive.check_label_read_value(4, wrong)

    def test_zero_word_is_wildcard_and_replaced(self, drive):
        """Section 3.3: "If a memory word is 0, however, it is replaced by
        the corresponding disk word"."""
        label = in_use_label(next_link=9, prev_link=8)
        claim(drive, 4, label)
        pattern = label.pack()
        pattern[5] = 0  # wildcard the next link
        pattern[6] = 0  # and the previous link
        result = drive.transfer(4, label=PartCommand(Action.CHECK, pattern))
        effective = result.label_object()
        assert effective.next_link == 9 and effective.prev_link == 8

    def test_check_failure_aborts_before_write(self, drive):
        """"a subsequent write operation can be aborted before anything is
        written" -- a failed label check must leave the value untouched."""
        label = in_use_label()
        claim(drive, 4, label, [111])
        wrong = in_use_label(page=2)
        with pytest.raises(LabelCheckError):
            drive.check_label_write_value(4, wrong, value_words([222]))
        assert drive.check_label_read_value(4, label).value[0] == 111

    def test_value_check(self, drive):
        label = in_use_label()
        claim(drive, 4, label, [7, 8, 9])
        drive.transfer(4, value=PartCommand(Action.CHECK, value_words([7, 8, 9])))
        with pytest.raises(CheckError):
            drive.transfer(4, value=PartCommand(Action.CHECK, value_words([7, 8, 1])))

    def test_check_error_carries_location(self, drive):
        label = in_use_label()
        claim(drive, 4, label)
        wrong = in_use_label(serial=0x4000_0002)
        with pytest.raises(LabelCheckError) as excinfo:
            drive.check_label_read_value(4, wrong)
        assert excinfo.value.part == "label"
        assert excinfo.value.index == 1  # serial low word differs

    def test_stats_count_check_failures(self, drive):
        label = in_use_label()
        claim(drive, 4, label)
        before = drive.stats()["disk.drive.label_check_failures"]
        with pytest.raises(LabelCheckError):
            drive.check_label_read_value(4, in_use_label(page=3))
        assert drive.stats()["disk.drive.label_check_failures"] == before + 1


class TestWriteContinuation:
    """"once a write is begun, it must continue through the rest of the
    sector"."""

    def test_label_write_requires_value_write(self, drive):
        with pytest.raises(ValueError):
            drive.transfer(3, label=PartCommand(Action.WRITE, Label.free().pack()))

    def test_header_write_requires_all_writes(self, drive):
        with pytest.raises(ValueError):
            drive.transfer(
                3,
                header=PartCommand(Action.WRITE, Header(1, 3).pack()),
                label=PartCommand(Action.READ),
                value=PartCommand(Action.WRITE, value_words([])),
            )

    def test_full_format_write_allowed(self, drive):
        drive.write_header_label_value(3, Header(1, 3), in_use_label(), value_words([1]))
        assert drive.read_label(3) == in_use_label()

    def test_check_then_write_later_parts_allowed(self, drive):
        label = in_use_label()
        claim(drive, 3, label)
        drive.transfer(
            3,
            label=PartCommand(Action.CHECK, label.pack()),
            value=PartCommand(Action.WRITE, value_words([5])),
        )


class TestBufferValidation:
    def test_wrong_buffer_sizes_rejected(self, drive):
        with pytest.raises(ValueError):
            drive.transfer(3, label=PartCommand(Action.CHECK, [0] * 6))
        with pytest.raises(ValueError):
            drive.transfer(3, value=PartCommand(Action.WRITE, [0] * 255))

    def test_check_and_write_need_data(self):
        with pytest.raises(ValueError):
            PartCommand(Action.CHECK)
        with pytest.raises(ValueError):
            PartCommand(Action.WRITE)

    def test_bad_address_rejected(self, drive):
        with pytest.raises(AddressOutOfRange):
            drive.read_sector(drive.shape.total_sectors())


class TestBadMedia:
    def test_bad_sector_raises(self, drive):
        drive.image.bad_media.add(9)
        with pytest.raises(BadSectorError):
            drive.read_sector(9)

    def test_bad_sector_still_charges_time(self, drive):
        drive.image.bad_media.add(9)
        before = drive.clock.now_us
        with pytest.raises(BadSectorError):
            drive.read_sector(9)
        assert drive.clock.now_us > before


class TestConvenienceCommands:
    def test_check_label_then_rewrite_preserves_value_by_default(self, drive):
        label = in_use_label()
        claim(drive, 6, label, [42, 43])
        relabeled = label.with_links(next_link=11)
        drive.check_label_then_rewrite(6, label, relabeled)
        result = drive.check_label_read_value(6, relabeled)
        assert result.value[:2] == [42, 43]

    def test_free_then_reclaim(self, drive):
        label = in_use_label()
        claim(drive, 6, label, [1])
        drive.check_label_then_rewrite(6, label, Label.free(), [0xFFFF] * 256)
        assert drive.read_label(6).is_free
        claim(drive, 6, in_use_label(serial=0x4000_0003), [2])

    def test_reclaim_of_busy_sector_fails(self, drive):
        claim(drive, 6, in_use_label())
        with pytest.raises(LabelCheckError):
            claim(drive, 6, in_use_label(serial=0x4000_0004))

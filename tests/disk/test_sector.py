"""Unit tests for sector structure: headers, labels, values."""

import pytest
from hypothesis import given, strategies as st

from repro.disk.geometry import NIL
from repro.disk.sector import (
    DIRECTORY_SERIAL_FLAG,
    HEADER_WORDS,
    LABEL_WORDS,
    SERIAL_BAD,
    SERIAL_FREE,
    VALUE_WORDS,
    Header,
    Label,
    Sector,
    _page_value,
    value_words,
)


class TestHeader:
    def test_pack_unpack(self):
        header = Header(pack_id=3, address=42)
        assert Header.unpack(header.pack()) == header

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            Header.unpack([1])


class TestLabel:
    def test_seven_words(self):
        """Section 3.1 enumerates exactly seven label words."""
        assert LABEL_WORDS == 7
        assert len(Label().pack()) == 7

    def test_pack_unpack_round_trip(self):
        label = Label(serial=0x4001_0002, version=3, page_number=5, length=100,
                      next_link=9, prev_link=7)
        assert Label.unpack(label.pack()) == label

    def test_free_label_is_all_ones(self):
        """Freeing writes ones into the label (section 3.3)."""
        assert Label.free().pack() == [0xFFFF] * 7
        assert Label.free().is_free
        assert not Label.free().in_use

    def test_bad_label(self):
        label = Label.bad()
        assert label.is_bad and not label.is_free and not label.in_use
        assert label.serial == SERIAL_BAD

    def test_directory_flag(self):
        plain = Label(serial=0x4000_0001, version=1, page_number=1, length=0)
        directory = Label(serial=0x4000_0001 | DIRECTORY_SERIAL_FLAG, version=1,
                          page_number=1, length=0)
        assert not plain.is_directory
        assert directory.is_directory

    def test_free_and_bad_are_never_directories(self):
        assert not Label.free().is_directory
        assert not Label.bad().is_directory

    def test_is_last(self):
        assert Label(serial=0x4000_0001, version=1, page_number=1, length=0).is_last
        assert not Label(serial=0x4000_0001, version=1, page_number=1, length=0,
                         next_link=5).is_last

    def test_with_links(self):
        label = Label(serial=0x4000_0001, version=1, page_number=1, length=0)
        linked = label.with_links(next_link=3, prev_link=4)
        assert (linked.next_link, linked.prev_link) == (3, 4)
        assert (label.next_link, label.prev_link) == (NIL, NIL)  # original intact
        only_next = label.with_links(next_link=8)
        assert (only_next.next_link, only_next.prev_link) == (8, NIL)

    def test_absolute_key_orders_by_fv_then_page(self):
        a = Label(serial=0x4000_0001, version=1, page_number=2, length=0)
        b = Label(serial=0x4000_0001, version=1, page_number=3, length=0)
        c = Label(serial=0x4000_0002, version=1, page_number=0, length=0)
        assert sorted([c, b, a], key=Label.absolute_key) == [a, b, c]

    def test_wrong_word_count_rejected(self):
        with pytest.raises(ValueError):
            Label.unpack([0] * 6)

    @given(
        st.integers(min_value=0x4000_0001, max_value=0xBFFF_FFFF),
        st.integers(min_value=1, max_value=0xFFFE),
        st.integers(min_value=1, max_value=0xFFFE),
        st.integers(min_value=0, max_value=512),
    )
    def test_round_trip_property(self, serial, version, page, length):
        label = Label(serial=serial, version=version, page_number=page, length=length)
        assert Label.unpack(label.pack()) == label


class TestSector:
    def test_fresh_sector_is_free(self):
        sector = Sector.fresh(pack_id=1, address=10)
        assert sector.label.is_free
        assert sector.value == (0xFFFF,) * VALUE_WORDS
        assert sector.header == Header(1, 10)

    def test_copy_is_deep_for_value(self):
        sector = Sector.fresh(1, 0)
        clone = sector.copy()
        clone.value = [0] * VALUE_WORDS  # a write replaces the shared tuple
        assert sector.value[0] == 0xFFFF

    def test_wrong_value_size_rejected(self):
        with pytest.raises(ValueError):
            Sector(header=Header(1, 0), value=[0] * 10)


class TestValueWords:
    def test_pads_to_full_value(self):
        padded = value_words([1, 2, 3])
        assert len(padded) == VALUE_WORDS
        assert padded[:3] == [1, 2, 3]
        assert padded[3] == 0

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            value_words([0] * (VALUE_WORDS + 1))

    def test_non_word_rejected(self):
        with pytest.raises(ValueError):
            value_words([0x1_0000])


class TestPageValue:
    """The builder for words already past a door: value_words' length rule
    and padding, as a tuple."""

    def test_pads_to_a_full_value_tuple(self):
        assert _page_value([1, 2, 3]) == (1, 2, 3) + (0,) * (VALUE_WORDS - 3)
        assert _page_value(()) == (0,) * VALUE_WORDS

    def test_a_full_tuple_is_handed_on_as_is(self):
        words = tuple(range(VALUE_WORDS))
        assert _page_value(words) is words

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            _page_value((0,) * (VALUE_WORDS + 1))

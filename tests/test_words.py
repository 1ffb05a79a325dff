"""Unit tests for the 16-bit word discipline."""

import re
from array import array

import pytest
from hypothesis import given, strategies as st

from repro import words
from repro.words import (
    bytes_to_words,
    check_word,
    check_words,
    checksum,
    from_double_word,
    ones_words,
    string_to_words,
    string_word_count,
    to_double_word,
    word,
    words_to_bytes,
    words_to_string,
    zero_words,
)
from tests.word_strategies import bad, good


class TestWordBasics:
    def test_word_masks_to_16_bits(self):
        assert word(0x1_2345) == 0x2345
        assert word(-1) == 0xFFFF
        assert word(0xFFFF) == 0xFFFF

    def test_check_word_accepts_range(self):
        assert check_word(0) == 0
        assert check_word(0xFFFF) == 0xFFFF

    @pytest.mark.parametrize("bad", [-1, 0x10000, 1.5, "3", None])
    def test_check_word_rejects(self, bad):
        with pytest.raises(ValueError):
            check_word(bad)

    @given(st.lists(st.one_of(good, bad), max_size=6))
    def test_check_words_is_check_word_on_every_word(self, values):
        try:
            for value in values:
                check_word(value, "w")
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                check_words(values, "w")
        else:
            assert check_words(values, "w") is values

    def test_page_constants(self):
        assert words.PAGE_DATA_WORDS == 256
        assert words.PAGE_DATA_BYTES == 512


class TestDoubleWords:
    def test_round_trip(self):
        high, low = to_double_word(0x1234_5678)
        assert (high, low) == (0x1234, 0x5678)
        assert from_double_word(high, low) == 0x1234_5678

    def test_extremes(self):
        assert to_double_word(0) == (0, 0)
        assert to_double_word(0xFFFF_FFFF) == (0xFFFF, 0xFFFF)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            to_double_word(0x1_0000_0000)
        with pytest.raises(ValueError):
            to_double_word(-1)
        with pytest.raises(ValueError):
            to_double_word(3.0)

    @given(st.integers(min_value=0, max_value=0xFFFF_FFFF))
    def test_round_trip_property(self, value):
        assert from_double_word(*to_double_word(value)) == value


class TestBytePacking:
    def test_even_bytes(self):
        assert bytes_to_words(b"\x01\x02\x03\x04") == [0x0102, 0x0304]

    def test_odd_bytes_padded(self):
        assert bytes_to_words(b"\x01\x02\x03") == [0x0102, 0x0300]
        assert bytes_to_words(b"\x01\x02\x03", pad=0xFF) == [0x0102, 0x03FF]

    def test_empty(self):
        assert bytes_to_words(b"") == []
        assert words_to_bytes([]) == b""

    def test_a_signed_byte_buffer_packs_its_raw_bytes_into_words(self):
        # A client's WRITE payload is bytes_to_words output and is not
        # checked again: an odd trailing byte of -3 must be 0xFD, not -768.
        signed = array("b", [-1, 5, -3])
        assert bytes_to_words(signed) == bytes_to_words(bytes(signed)) == [0xFF05, 0xFD00]

    def test_words_to_bytes_truncation(self):
        assert words_to_bytes([0x4142, 0x4300], nbytes=3) == b"ABC"

    def test_truncation_beyond_available_rejected(self):
        with pytest.raises(ValueError):
            words_to_bytes([0x4142], nbytes=3)

    def test_negative_nbytes_rejected_up_front(self):
        # -1 is the "no truncation" sentinel; anything else negative is an
        # error, reported before any byte is packed.
        with pytest.raises(ValueError, match="nbytes must be -1"):
            words_to_bytes([0x4142, 0x4344], nbytes=-2)
        with pytest.raises(ValueError, match="got -100"):
            words_to_bytes([0x4142], nbytes=-100)

    def test_overflow_nbytes_error_names_the_shortfall(self):
        with pytest.raises(ValueError, match="asked for 5 bytes from 4 available"):
            words_to_bytes([0x4142, 0x4344], nbytes=5)
        # Boundary: exactly 2 * len(words) is fine, one more is not.
        assert words_to_bytes([0x4142, 0x4344], nbytes=4) == b"ABCD"
        with pytest.raises(ValueError):
            words_to_bytes([], nbytes=1)

    def test_nbytes_zero_is_valid(self):
        assert words_to_bytes([0x4142], nbytes=0) == b""

    @given(st.binary(max_size=600))
    def test_round_trip_property(self, data):
        assert words_to_bytes(bytes_to_words(data), nbytes=len(data)) == data


class TestBcplStrings:
    def test_round_trip(self):
        for text in ("", "a", "hello", "x" * 255):
            assert words_to_string(string_to_words(text)) == text

    def test_length_limit(self):
        with pytest.raises(ValueError):
            string_to_words("x" * 256)

    def test_custom_limit(self):
        with pytest.raises(ValueError):
            string_to_words("hello", max_bytes=4)

    def test_word_count(self):
        assert string_word_count("") == 1  # length byte + pad
        assert string_word_count("abc") == 2

    def test_corrupt_length_byte(self):
        # Claims 10 chars but only 1 byte follows.
        with pytest.raises(ValueError):
            words_to_string([0x0A41])

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=200))
    def test_round_trip_property(self, text):
        assert words_to_string(string_to_words(text)) == text

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=140))
    def test_arbitrary_words_raise_only_value_error(self, data):
        # The server's OPEN decode catches ValueError alone, so a name off
        # the wire must not fail any other way (UnicodeDecodeError is one).
        try:
            words_to_string(data)
        except ValueError:
            pass


class TestFillsAndChecksum:
    def test_zero_and_ones(self):
        assert zero_words(3) == [0, 0, 0]
        assert ones_words(2) == [0xFFFF, 0xFFFF]

    def test_checksum_detects_change(self):
        data = list(range(100))
        base = checksum(data)
        data[50] ^= 0x0400
        assert checksum(data) != base

    def test_checksum_of_empty(self):
        assert checksum([]) == 0xFFFF

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=64))
    def test_checksum_is_a_word(self, data):
        assert 0 <= checksum(data) <= 0xFFFF

"""Tests for world-image serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BadStateFile, MessageTooLong
from repro.fs.names import FileId, FullName, make_serial
from repro.memory.core import MEMORY_WORDS
from repro.world.statefile import (
    FULL_NAME_WORDS,
    MESSAGE_WORDS,
    STATE_FILE_BYTES,
    check_message,
    full_name_from_words,
    full_name_to_words,
    pack_state,
    unpack_state,
)

REGISTERS = [1, 2, 3, 4, 5, 6, 7, 8]


def sample_memory():
    memory = [0] * MEMORY_WORDS
    memory[0x100] = 0xDEAD
    memory[0xFFFF] = 0xBEEF
    return memory


class TestPackUnpack:
    def test_round_trip(self):
        data = pack_state(sample_memory(), REGISTERS, "editor", "resume", "ls\n")
        memory, registers, program, phase, typeahead = unpack_state(data)
        assert memory[0x100] == 0xDEAD and memory[0xFFFF] == 0xBEEF
        assert registers == REGISTERS
        assert (program, phase, typeahead) == ("editor", "resume", "ls\n")

    def test_size_is_constant(self):
        data = pack_state(sample_memory(), REGISTERS, "p", "s", "")
        assert len(data) == STATE_FILE_BYTES

    def test_memory_size_enforced(self):
        with pytest.raises(BadStateFile):
            pack_state([0] * 100, REGISTERS, "p", "s", "")

    def test_register_count_enforced(self):
        with pytest.raises(BadStateFile):
            pack_state(sample_memory(), [1, 2], "p", "s", "")


class TestValidation:
    def test_truncated(self):
        data = pack_state(sample_memory(), REGISTERS, "p", "s", "")
        with pytest.raises(BadStateFile):
            unpack_state(data[:-10])

    def test_bad_magic(self):
        data = bytearray(pack_state(sample_memory(), REGISTERS, "p", "s", ""))
        data[0] ^= 0xFF
        with pytest.raises(BadStateFile):
            unpack_state(bytes(data))

    def test_checksum_catches_torn_image(self):
        """A torn OutLoad must never be silently resumed (section 4)."""
        data = bytearray(pack_state(sample_memory(), REGISTERS, "p", "s", ""))
        data[-3] ^= 0x40  # flip a bit deep in the memory image
        with pytest.raises(BadStateFile):
            unpack_state(bytes(data))

    def test_empty_program_name(self):
        with pytest.raises(BadStateFile):
            pack_unpack = unpack_state(pack_state(sample_memory(), REGISTERS, "", "s", ""))


class TestMessages:
    def test_none_becomes_empty(self):
        assert check_message(None) == []

    def test_limit(self):
        check_message([0] * MESSAGE_WORDS)
        with pytest.raises(MessageTooLong):
            check_message([0] * (MESSAGE_WORDS + 1))

    def test_word_range(self):
        with pytest.raises(MessageTooLong):
            check_message([0x10000])

    def test_float_words_are_refused(self):
        with pytest.raises(MessageTooLong):
            check_message([1.5])

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=MESSAGE_WORDS))
    def test_valid_messages_pass_through(self, message):
        assert check_message(message) == message


class TestFullNameEncoding:
    def test_round_trip(self):
        name = FullName(FileId(make_serial(77), version=3), 0, 1234)
        words = full_name_to_words(name)
        assert len(words) == FULL_NAME_WORDS
        assert full_name_from_words(words) == name

    def test_fits_in_message(self):
        name = FullName(FileId(make_serial(1)))
        message = check_message(full_name_to_words(name) + [42])
        assert full_name_from_words(message) == name

    def test_too_short(self):
        with pytest.raises(BadStateFile):
            full_name_from_words([1, 2])

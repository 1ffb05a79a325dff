"""The on-disk layout of a world image (sections 4, 4.1).

A state file is an ordinary Alto file whose data is:

* one 512-byte header page -- magic, format version, a checksum of the
  memory image, the saved registers, the resumption phase and program name
  (the stand-in for the saved program counter, which on the real machine
  was "inside the OutLoad procedure itself"), and the saved type-ahead
  buffer;
* 256 pages of memory image (65536 words, word-exact).

The message vector is NOT part of the file: InLoad delivers it to the
restored program in registers, per section 4.1 ("passes a message (about 20
words) to the restored program").  Helpers here encode full names into
message words, the idiom for return addresses ("often the message contains
a return address, that is, the full name of a file to restore upon
return").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import BadStateFile, MessageTooLong
from ..fs.names import FileId, FullName
from ..memory.core import MEMORY_WORDS
from ..words import (
    bytes_to_words,
    check_words,
    checksum,
    from_double_word,
    string_to_words,
    to_double_word,
    words_to_bytes,
    words_to_string,
)
from .machine import REGISTER_COUNT

#: Maximum words in an InLoad message ("about 20 words").
MESSAGE_WORDS = 20

_MAGIC = 0xA170  # "Alto"
_FORMAT_VERSION = 1
_HEADER_PAGE_WORDS = 256
_NAME_FIELD_WORDS = 20
_TYPEAHEAD_FIELD_WORDS = 64

#: Total data bytes of a state file: header page + memory image.
STATE_FILE_BYTES = (_HEADER_PAGE_WORDS + MEMORY_WORDS) * 2


def check_message(message: Optional[Sequence[int]]) -> List[int]:
    """Validate and normalize a message vector (None becomes empty): at
    most :data:`MESSAGE_WORDS` words, each one a word
    (:func:`~repro.words.check_words`), or :class:`MessageTooLong`."""
    if message is None:
        return []
    message = list(message)
    if len(message) > MESSAGE_WORDS:
        raise MessageTooLong(f"message has {len(message)} words, limit is {MESSAGE_WORDS}")
    try:
        return check_words(message, "message word")
    except ValueError as exc:
        raise MessageTooLong(str(exc)) from exc


def pack_state(
    memory_words: Sequence[int],
    registers: Sequence[int],
    program: str,
    phase: str,
    typeahead: str,
) -> bytes:
    """Serialize a captured machine state to state-file bytes."""
    if len(memory_words) != MEMORY_WORDS:
        raise BadStateFile(f"memory image has {len(memory_words)} words, need {MEMORY_WORDS}")
    if len(registers) != REGISTER_COUNT:
        raise BadStateFile(f"need {REGISTER_COUNT} registers, got {len(registers)}")
    header = [0] * _HEADER_PAGE_WORDS
    header[0] = _MAGIC
    header[1] = _FORMAT_VERSION
    header[2] = checksum(memory_words)
    header[3 : 3 + REGISTER_COUNT] = list(registers)
    cursor = 3 + REGISTER_COUNT
    header[cursor : cursor + _NAME_FIELD_WORDS] = _string_field(program, _NAME_FIELD_WORDS)
    cursor += _NAME_FIELD_WORDS
    header[cursor : cursor + _NAME_FIELD_WORDS] = _string_field(phase, _NAME_FIELD_WORDS)
    cursor += _NAME_FIELD_WORDS
    header[cursor : cursor + _TYPEAHEAD_FIELD_WORDS] = _string_field(
        typeahead, _TYPEAHEAD_FIELD_WORDS
    )
    return words_to_bytes(header + list(memory_words))


def unpack_state(data: bytes) -> Tuple[List[int], List[int], str, str, str]:
    """Parse state-file bytes; returns (memory, registers, program, phase,
    typeahead).  Raises :class:`BadStateFile` on any validation failure --
    a torn OutLoad must never be silently resumed."""
    if len(data) != STATE_FILE_BYTES:
        raise BadStateFile(f"state file has {len(data)} bytes, need {STATE_FILE_BYTES}")
    words = bytes_to_words(data)
    header, memory_words = words[:_HEADER_PAGE_WORDS], words[_HEADER_PAGE_WORDS:]
    if header[0] != _MAGIC:
        raise BadStateFile(f"bad state-file magic {header[0]:#06x}")
    if header[1] != _FORMAT_VERSION:
        raise BadStateFile(f"unknown state-file version {header[1]}")
    if header[2] != checksum(memory_words):
        raise BadStateFile("memory image checksum mismatch (torn OutLoad?)")
    registers = header[3 : 3 + REGISTER_COUNT]
    cursor = 3 + REGISTER_COUNT
    try:
        program = words_to_string(header[cursor : cursor + _NAME_FIELD_WORDS])
        phase = words_to_string(header[cursor + _NAME_FIELD_WORDS : cursor + 2 * _NAME_FIELD_WORDS])
        typeahead = words_to_string(
            header[cursor + 2 * _NAME_FIELD_WORDS : cursor + 2 * _NAME_FIELD_WORDS + _TYPEAHEAD_FIELD_WORDS]
        )
    except ValueError as exc:
        raise BadStateFile(f"corrupt state-file strings: {exc}") from exc
    if not program:
        raise BadStateFile("state file names no program")
    return memory_words, registers, program, phase, typeahead


def _string_field(text: str, width: int) -> List[int]:
    max_bytes = width * 2 - 1
    if len(text) > max_bytes:
        raise BadStateFile(f"string too long for state file field: {len(text)} > {max_bytes}")
    words = string_to_words(text, max_bytes=max_bytes)
    return words + [0] * (width - len(words))


# ----------------------------------------------------------------------------
# Full names in message vectors (the return-address idiom)
# ----------------------------------------------------------------------------

#: Words one encoded full name occupies in a message.
FULL_NAME_WORDS = 4


def full_name_to_words(name: FullName) -> List[int]:
    """Encode (serial, version, leader address) into four message words."""
    high, low = to_double_word(name.fid.serial)
    return [high, low, name.fid.version, name.address]


def full_name_from_words(words: Sequence[int]) -> FullName:
    """Decode the first four message words back into a leader's full name
    (page 0): the inverse of :func:`full_name_to_words`."""
    if len(words) < FULL_NAME_WORDS:
        raise BadStateFile(f"need {FULL_NAME_WORDS} words for a full name, got {len(words)}")
    return FullName(
        FileId(from_double_word(words[0], words[1]), words[2]),
        page_number=0,
        address=words[3],
    )

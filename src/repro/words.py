"""16-bit word arithmetic and packing helpers.

The Alto is a 16-bit word machine; every on-disk and in-memory structure in
this reproduction is ultimately a sequence of 16-bit words, exactly as in the
paper ("each object can be represented by a 16-bit machine word", section 2).
This module centralizes the word discipline: masking, double-word packing,
byte packing (two bytes per word, big-endian within the word as on the Alto),
and BCPL-style string coding.

**The word rule**: a word is an ``int`` (an int subclass included) in
0..0xFFFF, never a float or a numpy integer, whatever its value.
:func:`check_word` (one word) and :func:`check_words` (a sequence) state
it, and each door words come in by runs it once, so a non-word fails at
its write: ``Packet`` and the word ``Packet.relayed`` replaces; the
protocol's ``Request`` and ``Response`` frames, whose packets the
encoders cut unchecked; ``value_words``, the file system's door for
data words; the ``Header`` and ``Label`` constructors and
``Sector.set_header_words`` / ``set_label_words``, where every raw header
and label write lands; ``DiskImage(pack_id=...)``; memory, registers,
state-file messages, Swat's ``write_word`` and ``write_register``, and a
word stream's ``put``.  Each door keeps its own error class.

Words past a door are not checked again.  Page values on the platter are
words by provenance (see ``repro.disk.drive.DiskDrive``), and four routes
carry such words to the wire without the per-word loop: a READ answer's
payload (page values from ``AltoFile.read_page``), a client's WRITE
payload (``bytes_to_words`` output), a frame the ``FrameAssembler``
builds (words of received packets) and a replication journal packet (the
part-writes the drive's journal tap saw land).  Each still checks the
words it makes itself, such as a frame's header words.  So do a WRITE's
payload, a leader's pack and ``AltoFile.write_data``'s words on their way
to the platter, past ``value_words``' loop.

The packing, checksum and random-content hot loops run as *bulk
operations* in C (``struct``, ``array('H')``, ``sum``, big-int shifts and
the ``latin-1`` codec), with no per-item Python loop and no optional
dependency.  Each helper has one path: packing takes a bytes-like buffer
and unpacking takes 16-bit int words, and anything else raises.  The
original word-at-a-time forms survive in ``tests/equivalence/reference.py``,
and ``tests/equivalence/`` asserts fast == reference on arbitrary inputs;
see ARCHITECTURE.md, "Fast paths and the differential harness".
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Iterable, List, Sequence

#: Host byte order: the wire/disk order is big-endian within each word, so
#: a little-endian host byteswaps the C array in one C call.
_LITTLE_ENDIAN = sys.byteorder == "little"

#: One 32-bit lane of :func:`random_bytes`' scan mask, little-endian:
#: the candidate byte (bits 0-7) and the reject bit (bit 8).
_DRAW_LANE = b"\xff\x01\x00\x00"

WORD_BITS = 16
WORD_MASK = 0xFFFF
WORD_MODULUS = 0x10000
BYTES_PER_WORD = 2
MAX_WORD = WORD_MASK

#: Size of the Alto address space in words: all that a 16-bit address
#: reaches (section 2, "64k words of 800 ns memory").
MEMORY_WORDS = WORD_MODULUS

#: Number of data words in a disk page (section 3.1: "a value -- 256 data
#: words") and the corresponding byte count ("pages ... have L=512").
PAGE_DATA_WORDS = 256
PAGE_DATA_BYTES = PAGE_DATA_WORDS * BYTES_PER_WORD


def word(value: int) -> int:
    """Truncate *value* to an unsigned 16-bit word (modular arithmetic)."""
    return value & WORD_MASK


def check_word(value: int, what: str = "value") -> int:
    """Validate that *value* fits in a word; return it unchanged.

    Raises ValueError otherwise.  Used at package boundaries so that errors
    surface where they are introduced rather than as corrupt disk data.
    """
    if not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {type(value).__name__}")
    if not 0 <= value <= WORD_MASK:
        raise ValueError(f"{what} must fit in 16 bits, got {value}")
    return value


def check_words(words: Sequence[int], what: str = "word") -> Sequence[int]:
    """Validate each word of the sequence *words* as :func:`check_word`
    does (a plain ``int`` in range costs one inline test); return *words*.

    >>> check_words([1, 3.0], "value word")
    Traceback (most recent call last):
        ...
    ValueError: value word must be an int, got float
    """
    for w in words:
        if type(w) is not int or w < 0 or w > WORD_MASK:
            check_word(w, what)
    return words


def to_double_word(value: int) -> tuple:
    """Split a 32-bit value into (high word, low word).

    File serial numbers are "two words" (section 3.1); this is the packing
    used for them and for any other 32-bit on-disk quantity.  Like a word,
    a double word is an ``int``: anything else raises ``ValueError``.
    """
    if not isinstance(value, int) or not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"double-word value out of range: {value!r}")
    return value >> WORD_BITS, value & WORD_MASK


def from_double_word(high: int, low: int) -> int:
    """Combine (high word, low word) into a 32-bit value."""
    if type(high) is int and type(low) is int and 0 <= high <= WORD_MASK and 0 <= low <= WORD_MASK:
        return (high << WORD_BITS) | low
    return (check_word(high, "high") << WORD_BITS) | check_word(low, "low")


def bytes_to_words(data: bytes, pad: int = 0) -> List[int]:
    """Pack bytes into words, two per word, high byte first.

    An odd trailing byte is padded with *pad* (default 0) in the low byte,
    matching the Alto convention that the byte count -- not the word count --
    records the true length.  *data* must be a bytes-like buffer; anything
    else (a list of ints, say) raises ``TypeError``.

    Bulk implementation; reference twin:
    ``bytes_to_words_reference`` in ``tests/equivalence/reference.py``.
    """
    n = len(data)
    packed = array("H")
    packed.frombytes(data if not n & 1 else memoryview(data)[:n - 1])
    if _LITTLE_ENDIAN:
        packed.byteswap()
    words = packed.tolist()
    if n & 1:
        # The raw byte, as frombytes read the rest: a signed buffer's -3 is 0xFD.
        words.append(((data[-1] & 0xFF) << 8) | (pad & 0xFF))
    return words


def words_to_bytes(words: Sequence[int], nbytes: int = -1) -> bytes:
    """Unpack words into bytes, high byte first.

    When *nbytes* is given, the result is truncated to that many bytes (used
    to honour a page's byte length L, which may be odd).  ``nbytes`` is
    validated up front: it must be ``-1`` (no truncation) or at most the
    ``2 * len(words)`` bytes actually available.  Every word must be an
    int in 0..0xFFFF: a word out of range raises ``OverflowError`` and a
    non-int word raises ``TypeError``.

    Bulk implementation: one ``struct`` pack, which accepts exactly the
    words ``array('H')`` accepts.  Reference twin:
    ``words_to_bytes_reference`` in ``tests/equivalence/reference.py``.
    """
    if nbytes != -1 and nbytes < 0:
        raise ValueError(f"nbytes must be -1 (no truncation) or >= 0, got {nbytes}")
    if nbytes > 2 * len(words):
        raise ValueError(f"asked for {nbytes} bytes from {2 * len(words)} available")
    try:
        out = struct.pack(f">{len(words)}H", *words)
    except struct.error:
        # array('H') refuses the same words, with the OverflowError or
        # TypeError documented above instead of struct's one error type.
        array("H", words)
        raise
    return out if nbytes == -1 else out[:nbytes]


def string_to_words(text: str, max_bytes: int = 255) -> List[int]:
    """Encode a string as a BCPL string: length byte, then character bytes.

    BCPL strings carry their length in the first byte, so they are limited to
    255 characters.  Leader names and directory entry names use this coding.
    """
    data = text.encode("ascii")
    if len(data) > max_bytes:
        raise ValueError(f"string too long for BCPL coding: {len(data)} > {max_bytes}")
    return bytes_to_words(bytes([len(data)]) + data)


def words_to_string(words: Sequence[int]) -> str:
    """Decode a BCPL string (length byte + characters) from words."""
    data = words_to_bytes(words)
    if not data:
        return ""
    length = data[0]
    if length > len(data) - 1:
        raise ValueError(f"corrupt BCPL string: length byte {length}, only {len(data) - 1} bytes follow")
    return data[1 : 1 + length].decode("ascii")


def string_word_count(text: str) -> int:
    """Number of words the BCPL coding of *text* occupies."""
    return (1 + len(text.encode("ascii")) + 1) // 2


def zero_words(count: int) -> List[int]:
    """A fresh list of *count* zero words."""
    return [0] * count


def ones_words(count: int) -> List[int]:
    """A fresh list of *count* all-ones words.

    Freeing a page writes "ones ... into label and value" (section 3.3); this
    is the pattern used.
    """
    return [WORD_MASK] * count


def random_bytes(rng, count: int) -> bytes:
    """*count* bytes drawn exactly as ``bytes(rng.randrange(256) for ...)``.

    The benchmark and workload generators share one :class:`random.Random`
    between content bytes and structural draws (file sizes, fault picks),
    so the content generator must consume the underlying bit stream
    draw-for-draw identically or every later decision shifts.

    ``randrange(256)`` is ``getrandbits(9)`` with rejection of values >=
    256 -- i.e. one 32-bit Mersenne Twister output per draw, accepted when
    its top bit is clear, yielding bits 23..30.  ``getrandbits(32 * n)``
    consumes exactly *n* such outputs, least significant first, so each
    round draws one block of ``need`` outputs and scans it in C: shifted
    down 23 bits and masked to 9 per 32-bit lane, every output becomes
    its candidate byte plus the reject bit; read as UTF-32 code points,
    the accepted draws are 0..255 and the rejected ones 256..511, which
    ``encode("latin-1", "ignore")`` drops.  A block of ``need`` draws
    yields at most ``need`` bytes, which the sequential process would
    also have consumed the whole block to produce: same values, same
    stream position, one path for every count.

    Reference twin: ``random_bytes_reference`` in
    ``tests/equivalence/reference.py``.
    """
    mask = int.from_bytes(_DRAW_LANE * count, "little")  # wide enough for every round
    chunks = []
    need = count
    while need > 0:
        lanes = (rng.getrandbits(32 * need) >> 23) & mask
        text = lanes.to_bytes(4 * need, "little").decode("utf-32-le")
        accepted = text.encode("latin-1", "ignore")  # drops the rejected draws
        chunks.append(accepted)
        need -= len(accepted)
    return b"".join(chunks)


def checksum(words: Iterable[int]) -> int:
    """One's-complement-style 16-bit checksum over a word sequence.

    Used by the world-swap state files to detect torn writes; the Alto disk
    hardware kept a checksum per record, which we fold into the same role.

    Because each step only adds then masks, the running mask commutes with
    the sum: ``(((a + b) & M) + c) & M == (a + b + c) & M``.  The bulk form
    therefore sums once in C and masks at the end -- bit-identical to the
    word-at-a-time reference (``checksum_reference`` in
    ``tests/equivalence/reference.py``), which the equivalence suite
    asserts on arbitrary word sequences.
    """
    return (sum(words) & WORD_MASK) ^ WORD_MASK

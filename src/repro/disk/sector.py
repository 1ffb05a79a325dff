"""Sectors: header, label, value.

Section 3.3: "The physical representation of a page on the disk is called a
sector, and consists of three parts: a header, which contains the disk pack
number ... and the disk address; a label, which contains the seven words
specified in Section 3.1; a value, which contains the 256 data words."

This module defines the word-exact layouts of those three parts.  The label
is the load-bearing structure of the whole system: it is the *absolute*
identity of the page, against which every hint is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

from ..words import (
    PAGE_DATA_WORDS,
    WORD_MASK,
    check_words,
    from_double_word,
    to_double_word,
    zero_words,
)
from .geometry import NIL

#: Words in each sector part.
HEADER_WORDS = 2
LABEL_WORDS = 7
VALUE_WORDS = PAGE_DATA_WORDS

#: The all-ones value of a fresh or freed sector ("ones ... into label and
#: value", section 3.3), one tuple that every such sector shares.
FREE_VALUE: Tuple[int, ...] = (WORD_MASK,) * VALUE_WORDS

#: Serial number of a free page: freeing writes "ones ... into label and
#: value" (section 3.3), so the all-ones serial means free.
SERIAL_FREE = 0xFFFFFFFF

#: Serial number marking a permanently bad page: "During scavenging any
#: permanently bad pages are marked in the label with a special value so
#: that they will never be used again" (section 3.5).
SERIAL_BAD = 0xFFFFFFFE

#: High-word bit reserved to mark directory files: "we reserve a subset of
#: the file identifiers for directory files" (section 3.4).
DIRECTORY_SERIAL_FLAG = 0x8000_0000

#: Highest serial a normal (allocatable) file may carry; keeps the special
#: values above out of the ordinary namespace.
MAX_ORDINARY_SERIAL = 0xFFFF_FFF0


@dataclass(frozen=True)
class Header:
    """Sector header: pack number and disk address (both hints, H), two
    words checked when the header is built."""

    pack_id: int
    address: int

    def __post_init__(self) -> None:
        check_words((self.pack_id, self.address), "header word")

    def pack(self) -> List[int]:
        """The two on-disk words."""
        return [self.pack_id, self.address]

    @staticmethod
    def unpack(words: Sequence[int]) -> "Header":
        """The header of words already past a word door: the intern lookup
        matches by equality, so it would take ``3.0`` for ``3``."""
        if len(words) != HEADER_WORDS:
            raise ValueError(f"header needs {HEADER_WORDS} words, got {len(words)}")
        # Intern: frozen, and every sweep/restore re-derives the same few
        # hundred (pack, address) pairs (see Label.unpack).
        try:
            key = (words[0], words[1])
            cached = _HEADER_CACHE.get(key)
        except TypeError:
            key = cached = None
        if cached is not None:
            return cached
        header = Header(pack_id=words[0], address=words[1])
        if len(_HEADER_CACHE) >= _UNPACK_CACHE_MAX:
            _HEADER_CACHE.clear()
        _HEADER_CACHE[key] = header
        return header


@dataclass(frozen=True)
class Label:
    """The seven-word label of section 3.1.

    F (serial, two words) + V (version) + PN (page number) + L (byte length)
    are absolutes (A); NL and PL (next/previous links) are hints (H).
    All seven words are checked when the label is built.
    """

    serial: int = SERIAL_FREE
    version: int = WORD_MASK
    page_number: int = WORD_MASK
    length: int = WORD_MASK
    next_link: int = NIL
    prev_link: int = NIL

    def __post_init__(self) -> None:
        # The check lays out the seven on-disk words, and pack() keeps them.
        self.__dict__["_packed"] = check_words(
            [*to_double_word(self.serial), self.version, self.page_number,
             self.length, self.next_link, self.prev_link], "label word")

    # -- predicates -----------------------------------------------------------

    @property
    def is_free(self) -> bool:
        return self.serial == SERIAL_FREE

    @property
    def is_bad(self) -> bool:
        return self.serial == SERIAL_BAD

    @property
    def in_use(self) -> bool:
        return not self.is_free and not self.is_bad

    @property
    def is_directory(self) -> bool:
        """True when the serial is in the reserved directory subset."""
        return self.in_use and bool(self.serial & DIRECTORY_SERIAL_FLAG)

    @property
    def is_last(self) -> bool:
        """True when this label names the last page of its file."""
        return self.in_use and self.next_link == NIL

    # -- packing --------------------------------------------------------------

    def pack(self) -> List[int]:
        """The seven on-disk words (laid out when the label was built)."""
        return list(self._packed)

    @staticmethod
    def unpack(words: Sequence[int]) -> "Label":
        """The label of words already past a word door: the intern lookup
        matches by equality, so it would take ``3.0`` for ``3``."""
        if len(words) != LABEL_WORDS:
            raise ValueError(f"label needs {LABEL_WORDS} words, got {len(words)}")
        # Intern: Label is frozen, so identical on-disk words can share one
        # object (a sweep unpacks the same few thousand labels over and
        # over).  Unhashable words fall through to the constructor, which
        # refuses them.
        try:
            key = tuple(words)
            cached = _UNPACK_CACHE.get(key)
        except TypeError:
            key = cached = None
        if cached is not None:
            return cached
        label = Label(
            serial=from_double_word(words[0], words[1]),
            version=words[2],
            page_number=words[3],
            length=words[4],
            next_link=words[5],
            prev_link=words[6],
        )
        if len(_UNPACK_CACHE) >= _UNPACK_CACHE_MAX:
            _UNPACK_CACHE.clear()
        _UNPACK_CACHE[key] = label
        return label

    @staticmethod
    def free() -> "Label":
        """The all-ones label written when a page is freed.

        Returns a shared singleton: Label is frozen, so every fresh or
        freed sector can carry the same object (pack formatting creates
        thousands at once).
        """
        return _FREE_LABEL

    @staticmethod
    def bad() -> "Label":
        """The label marking a permanently bad sector."""
        return Label(serial=SERIAL_BAD, version=WORD_MASK, page_number=WORD_MASK, length=0)

    def with_links(self, next_link: int = None, prev_link: int = None) -> "Label":
        """A copy with one or both links replaced."""
        if next_link is None and prev_link is None:
            return self
        return Label(
            serial=self.serial,
            version=self.version,
            page_number=self.page_number,
            length=self.length,
            next_link=self.next_link if next_link is None else next_link,
            prev_link=self.prev_link if prev_link is None else prev_link,
        )

    def absolute_key(self):
        """The absolute name (serial, version, page number) for sorting.

        Section 3.5: the scavenger creates "a list of all the labels not
        marked free and sort[s] it by absolute name."
        """
        return (self.serial, self.version, self.page_number)


#: Interned labels/headers by their exact packed words (see the
#: ``unpack`` methods).
_UNPACK_CACHE: dict = {}
_HEADER_CACHE: dict = {}
_UNPACK_CACHE_MAX = 8192

#: The shared free label (see :meth:`Label.free`).
_FREE_LABEL = Label(
    serial=SERIAL_FREE,
    version=WORD_MASK,
    page_number=WORD_MASK,
    length=WORD_MASK,
    next_link=NIL,
    prev_link=NIL,
)


class Sector:
    """The full on-disk state of one sector.

    Internally the header and label are held as their *packed word lists*
    -- what the platter actually stores and what the drive's per-part
    commands move -- with the ``Header``/``Label`` object views
    materialized lazily and cached.  ``sector.header`` / ``sector.label``
    read and assign exactly as before; the drive's hot paths use
    :meth:`header_words` / :meth:`label_words` and skip object
    construction entirely.  The two representations are kept in lockstep:
    writing either one invalidates the other's cache.

    A sector placed in a :class:`~repro.disk.image.DiskImage` knows its
    address and its image's :class:`~repro.disk.image.ChangeLog`, and each
    of the four setters below logs the address there: they are the only
    routes to a sector's header and label, so the log is complete whoever
    the writer is.

    The value is an immutable tuple of words that only a write replaces,
    as on the oxide, where the 256 data words change only when the head
    writes them.  Assigning any word sequence stores it as a tuple, so a
    snapshot, a cache entry or a checker shares the platter's tuple rather
    than copying it, and sees an unchanged value by identity.  Values are
    not logged.

    >>> sector = Sector.fresh(pack_id=1, address=7)
    >>> type(sector.value), len(sector.value), sector.value is FREE_VALUE
    (<class 'tuple'>, 256, True)
    >>> sector.copy().value is sector.value
    True
    >>> sector.value[0] = 0
    Traceback (most recent call last):
      ...
    TypeError: 'tuple' object does not support item assignment
    >>> sector.value = [0] * 256          # a write replaces the whole value
    >>> type(sector.value)
    <class 'tuple'>
    """

    __slots__ = ("_header_obj", "_header_words", "_label_obj", "_label_words", "_value",
                 "_log", "_address")

    def __init__(self, header: Header, label: Label = None, value: Sequence[int] = None) -> None:
        self._header_obj = header
        self._header_words = None
        self._label_obj = label if label is not None else _FREE_LABEL
        self._label_words = None
        self._log = self._address = None
        if value is None:
            value = FREE_VALUE
        elif len(value) != VALUE_WORDS:
            raise ValueError(f"sector value needs {VALUE_WORDS} words, got {len(value)}")
        self._value = tuple(value)

    @property
    def value(self) -> Tuple[int, ...]:
        """The data words, as stored (see the class docstring)."""
        return self._value

    @value.setter
    def value(self, words: Sequence[int]) -> None:
        self._value = tuple(words)

    # -- object views (cached) -----------------------------------------------

    @property
    def header(self) -> Header:
        obj = self._header_obj
        if obj is None:
            obj = self._header_obj = Header.unpack(self._header_words)
        return obj

    @header.setter
    def header(self, header: Header) -> None:
        self._header_obj = header
        self._header_words = None
        if self._log is not None:
            self._log.note(self._address)

    @property
    def label(self) -> Label:
        obj = self._label_obj
        if obj is None:
            obj = self._label_obj = Label.unpack(self._label_words)
        return obj

    @label.setter
    def label(self, label: Label) -> None:
        self._label_obj = label
        self._label_words = None
        if self._log is not None:
            self._log.note(self._address)

    # -- packed views (what the head reads and writes) ------------------------

    def header_words(self) -> List[int]:
        """The packed header, as stored.  The drive treats the returned
        list as read-only; replace it only through :meth:`set_header_words`."""
        packed = self._header_words
        if packed is None:
            packed = self._header_words = self._header_obj.pack()
        return packed

    def label_words(self) -> List[int]:
        """The packed label, as stored (read-only; see :meth:`set_label_words`)."""
        packed = self._label_words
        if packed is None:
            packed = self._label_words = self._label_obj.pack()
        return packed

    def set_header_words(self, data: List[int]) -> None:
        """Install *data* (length-validated by the caller) as the header,
        once :func:`~repro.words.check_words` admits it."""
        self._header_words = check_words(data, "header word")
        self._header_obj = None
        if self._log is not None:
            self._log.note(self._address)

    def set_label_words(self, data: List[int]) -> None:
        """Install *data* (length-validated by the caller) as the label,
        once :func:`~repro.words.check_words` admits it."""
        self._label_words = check_words(data, "label word")
        self._label_obj = None
        if self._log is not None:
            self._log.note(self._address)

    # -- copying ---------------------------------------------------------------

    def copy(self, log=None, address: int = None) -> "Sector":
        """A copy (header and label words fresh; the value tuple and frozen
        objects shared), logging its header and label changes at *address*
        in *log* when given."""
        clone = Sector.__new__(Sector)
        clone._header_obj = self._header_obj
        clone._header_words = list(self._header_words) if self._header_words is not None else None
        clone._label_obj = self._label_obj
        clone._label_words = list(self._label_words) if self._label_words is not None else None
        clone._value = self._value
        clone._log = log
        clone._address = address
        return clone

    @staticmethod
    def fresh(pack_id: int, address: int, log=None) -> "Sector":
        """A factory-fresh (never-written) sector: free label, ones value,
        logging its header and label changes in *log* when given.

        Pack formatting creates one per sector in a tight loop, so the header
        words go in unchecked: a ``DiskImage`` checks its pack id once.
        """
        sector = Sector.__new__(Sector)
        sector._log = log
        sector._address = address
        sector._header_obj = None
        sector._header_words = [pack_id, address]
        sector._label_obj = _FREE_LABEL
        sector._label_words = None
        sector._value = FREE_VALUE
        return sector

    def __repr__(self) -> str:
        return f"Sector(header={self.header!r}, label={self.label!r}, value=<{len(self.value)} words>)"


def value_words(data: Sequence[int]) -> List[int]:
    """*data* as one sector value: at most 256 words, each checked
    (:func:`~repro.words.check_words`), padded with zeros to 256.

    The file system's door for data words: ``PageIO.write`` and ``claim``,
    ``PageAllocator.allocate`` and ``AltoFile``'s page writes pass their
    buffers through it before they touch anything.
    """
    data = list(data)
    if len(data) > VALUE_WORDS:
        raise ValueError(f"value too long: {len(data)} > {VALUE_WORDS}")
    check_words(data, "value word")
    return data + zero_words(VALUE_WORDS - len(data))


def _page_value(words: Sequence[int]) -> Tuple[int, ...]:
    """*words*, already past a word door, as one sector value: at most 256
    words, padded with zeros, with no loop over them; a 256-word tuple is
    handed on as is.  ``tests/test_private_builders.py`` pins the callers."""
    if len(words) > VALUE_WORDS:
        raise ValueError(f"value too long: {len(words)} > {VALUE_WORDS}")
    return tuple(words) + (0,) * (VALUE_WORDS - len(words))

"""Absolute names, hint names, and full names (section 3.1).

"Thus a page has a unique absolute name, which is the file identifier,
version number and page number (represented by (FV, n) ...), and it has a
hint name, which is the address.  The full name (FN) of a page is the pair
(absolute name, hint name)."

One encoding note.  The drive's check action treats a memory word of 0 as a
wildcard (section 3.3), so an expected-label buffer can never distinguish
"page number 0" from "any page number".  To keep identity checks exact we
bias the page number by +1 in the on-disk label word, and construct serial
numbers so that both serial words and the version word are always nonzero.
The logical structures here always speak in unbiased page numbers; only
:meth:`FileId.label_for` and :meth:`page_number_from_label` touch the bias.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..disk.geometry import NIL
from ..disk.sector import DIRECTORY_SERIAL_FLAG, Label
from ..errors import FileFormatError
from ..words import PAGE_DATA_BYTES, WORD_MASK, check_word

#: Marker bit present in every ordinary serial number, guaranteeing the high
#: serial word is nonzero (see module docstring).
ORDINARY_SERIAL_FLAG = 0x4000_0000

#: First version number; 0 is reserved so the version word is never a
#: wildcard.
FIRST_VERSION = 1

#: Bias applied to page numbers in on-disk label words.
PAGE_NUMBER_BIAS = 1

#: Largest unbiased page number representable in a label word.
MAX_PAGE_NUMBER = WORD_MASK - 1 - PAGE_NUMBER_BIAS


def make_serial(counter: int, directory: bool = False) -> int:
    """Build a serial number from an allocation counter.

    Counters whose low word is zero are unusable (the low serial word would
    be a check wildcard); callers should skip them -- see
    :func:`next_usable_counter`.
    """
    if counter < 1 or counter > 0x3FFF_FFFF:
        raise ValueError(f"serial counter out of range: {counter}")
    if counter & WORD_MASK == 0:
        raise ValueError(f"serial counter {counter:#x} would make the low serial word a wildcard")
    serial = ORDINARY_SERIAL_FLAG | counter
    if directory:
        serial |= DIRECTORY_SERIAL_FLAG
    return serial


def next_usable_counter(counter: int) -> int:
    """The next counter value whose serial has no zero words."""
    counter += 1
    if counter & WORD_MASK == 0:
        counter += 1
    return counter


def serial_counter(serial: int) -> int:
    """Recover the allocation counter from a serial (for max-scans)."""
    return serial & 0x3FFF_FFFF


@dataclass(frozen=True)
class FileId:
    """FV: a file's identity -- serial number plus version (section 3.1)."""

    serial: int
    version: int = FIRST_VERSION

    def __post_init__(self) -> None:
        if self.serial & ORDINARY_SERIAL_FLAG == 0:
            raise ValueError(f"serial {self.serial:#x} lacks the ordinary-serial marker")
        if not FIRST_VERSION <= self.version <= WORD_MASK - 1:
            raise ValueError(f"version out of range: {self.version}")

    @property
    def is_directory(self) -> bool:
        """True when the serial is in the reserved directory subset (3.4)."""
        return bool(self.serial & DIRECTORY_SERIAL_FLAG)

    # -- label construction/matching -------------------------------------------

    def label_for(
        self,
        page_number: int,
        length: int = 0,
        next_link: int = NIL,
        prev_link: int = NIL,
    ) -> Label:
        """The exact on-disk label for page (self, page_number)."""
        if not 0 <= page_number <= MAX_PAGE_NUMBER:
            raise ValueError(f"page number out of range: {page_number}")
        return Label(
            serial=self.serial,
            version=self.version,
            page_number=page_number + PAGE_NUMBER_BIAS,
            length=length,
            next_link=next_link,
            prev_link=prev_link,
        )

    def check_label(self, page_number: int) -> Label:
        """An expected-label pattern identifying page (self, page_number)
        while wildcarding length and links (the caller does not know them).

        Memoized per page number on the (frozen) instance: full names are
        rebuilt for every page operation, but the patterns they derive are
        pure functions of (fid, page)."""
        cache = self.__dict__.get("_check_labels")
        if cache is None:
            cache = self.__dict__["_check_labels"] = {}
        label = cache.get(page_number)
        if label is None:
            if not 0 <= page_number <= MAX_PAGE_NUMBER:
                raise ValueError(f"page number out of range: {page_number}")
            label = cache[page_number] = Label(
                serial=self.serial,
                version=self.version,
                page_number=page_number + PAGE_NUMBER_BIAS,
                length=0,  # wildcard
                next_link=0,  # wildcard
                prev_link=0,  # wildcard
            )
        return label

    def owns(self, label: Label) -> bool:
        """True when *label* belongs to any page of this file."""
        return label.in_use and label.serial == self.serial and label.version == self.version

    @staticmethod
    def from_label(label: Label) -> "FileId":
        if not label.in_use:
            raise FileFormatError("label does not describe an in-use page")
        return FileId(serial=label.serial, version=label.version)


def parseable_label(label: Label) -> bool:
    """Is this a structurally valid in-use label?

    The one label-validity rule: the checker, the scavenger and the
    online maintainer all call it.
    """
    if not label.serial & ORDINARY_SERIAL_FLAG:
        return False
    if label.serial & 0xFFFF == 0:  # low serial word must be nonzero
        return False
    if not 1 <= label.version <= 0xFFFE:
        return False
    if label.page_number < PAGE_NUMBER_BIAS or label.page_number == 0xFFFF:
        return False
    if label.length > PAGE_DATA_BYTES:
        return False
    return True


def page_number_from_label(label: Label) -> int:
    """The unbiased page number recorded in an in-use label."""
    if not label.in_use:
        raise FileFormatError("label does not describe an in-use page")
    if label.page_number < PAGE_NUMBER_BIAS:
        raise FileFormatError(f"label page-number word {label.page_number} below bias")
    return label.page_number - PAGE_NUMBER_BIAS


@dataclass(frozen=True)
class FullName:
    """FN: (absolute name, hint name) -- the handle for every page operation.

    ``address`` is a hint (H); everything else is absolute (A).  A file's
    full name is the full name of its leader page: "The name of page (FV, 0)
    is also the name of the file" (section 3.2).
    """

    fid: FileId
    page_number: int = 0
    address: int = NIL

    def __post_init__(self) -> None:
        if not 0 <= self.page_number <= MAX_PAGE_NUMBER:
            raise ValueError(f"page number out of range: {self.page_number}")
        check_word(self.address, "address hint")

    @property
    def is_leader(self) -> bool:
        return self.page_number == 0

    @property
    def has_address_hint(self) -> bool:
        return self.address != NIL

    def sibling(self, page_number: int, address: int = NIL) -> "FullName":
        """The full name of another page of the same file."""
        return FullName(fid=self.fid, page_number=page_number, address=address)

    def with_address(self, address: int) -> "FullName":
        return replace(self, address=address)

    def check_label(self) -> Label:
        """Expected-label pattern for the drive's check action.

        Memoized on the (frozen) instance: every guarded page operation
        re-derives this pattern, and reusing one Label lets its packed
        form be memoized too.
        """
        label = self.__dict__.get("_check_label")
        if label is None:
            label = self.fid.check_label(self.page_number)
            self.__dict__["_check_label"] = label
        return label

    def __str__(self) -> str:
        hint = f"@{self.address}" if self.has_address_hint else "@?"
        return f"({self.fid.serial:#x}v{self.fid.version}, {self.page_number}){hint}"

"""Page-level operations by full name (section 3.1).

"The basic operations on a page are to read and write the data, and to read
the links, given the full name.  Note that it is easy to go from the full
name of a page to the full names of the next and previous pages."

Every operation here validates the page's absolute identity with a hardware
label check before touching data, and converts a failed check into
:class:`~repro.errors.HintFailed` -- the signal that drives the recovery
ladder of section 3.6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..disk.drive import DiskDrive
from ..disk.geometry import NIL
from ..disk.sector import FREE_VALUE, Label, value_words
from ..errors import AddressOutOfRange, HintFailed, LabelCheckError, PageNotFree
from .names import FileId, FullName, page_number_from_label


@dataclass(frozen=True)
class PageContents:
    """What one page operation yields: the true label and (optionally) data."""

    name: FullName
    label: Label
    value: Optional[List[int]] = None

    @property
    def next_name(self) -> Optional[FullName]:
        """Full name of the next page, from the NL hint (None at end)."""
        if self.label.next_link == NIL:
            return None
        return self.name.sibling(self.name.page_number + 1, self.label.next_link)

    @property
    def prev_name(self) -> Optional[FullName]:
        """Full name of the previous page, from the PL hint (None at start)."""
        if self.label.prev_link == NIL:
            return None
        if self.name.page_number == 0:
            return None
        return self.name.sibling(self.name.page_number - 1, self.label.prev_link)

    @property
    def is_last(self) -> bool:
        return self.label.next_link == NIL

    @property
    def byte_length(self) -> int:
        return self.label.length


class PageIO:
    """Page operations on one drive, all guarded by label checks."""

    def __init__(self, drive: DiskDrive) -> None:
        self.drive = drive

    # -- guarded data operations (one disk pass each) ----------------------------

    def read(self, name: FullName) -> PageContents:
        """Read a page's data, confirming its absolute identity first."""
        self._require_hint(name)
        obs = self.drive.clock.obs
        if obs.tracing:
            with obs.span("fs.page.read", "fs",
                          address=name.address, page=name.page_number):
                return self._read(name)
        return self._read(name)

    def _read(self, name: FullName) -> PageContents:
        try:
            result = self.drive.check_label_read_value(name.address, name.check_label())
        except (LabelCheckError, AddressOutOfRange) as exc:
            raise HintFailed(f"page {name} is not at its hinted address") from exc
        return PageContents(name=name, label=result.label_object(), value=result.value)

    def read_label(self, name: FullName) -> Label:
        """Read (and verify) just the label -- the cheap way to get links."""
        self._require_hint(name)
        obs = self.drive.clock.obs
        if obs.tracing:
            with obs.span("fs.page.read_label", "fs", address=name.address):
                return self._read_label(name)
        return self._read_label(name)

    def _read_label(self, name: FullName) -> Label:
        try:
            result = self.drive.check_label(name.address, name.check_label())
        except (LabelCheckError, AddressOutOfRange) as exc:
            raise HintFailed(f"page {name} is not at its hinted address") from exc
        return result.label_object()

    def write(self, name: FullName, data: Sequence[int]) -> None:
        """Overwrite a page's data words; the label (including L) is untouched.

        "On any other write the label is checked, at no cost in time"
        (section 3.3) -- this is that ordinary, single-pass write.  *data*
        goes through :func:`value_words` before the disk pass.
        """
        self._write_value(name, value_words(data))

    def _write_value(self, name: FullName, value: Sequence[int]) -> None:
        """:meth:`write` of *value*, a sector value already built."""
        self._require_hint(name)
        obs = self.drive.clock.obs
        if obs.tracing:
            with obs.span("fs.page.write", "fs",
                          address=name.address, page=name.page_number):
                return self._write(name, value)
        return self._write(name, value)

    def _write(self, name: FullName, value: Sequence[int]) -> None:
        try:
            self.drive.check_label_write_value(name.address, name.check_label(), value)
        except (LabelCheckError, AddressOutOfRange) as exc:
            raise HintFailed(f"page {name} is not at its hinted address") from exc

    # -- label-rewriting operations (two disk passes: one revolution) -------------

    def claim(self, address: int, new_label: Label, data: Sequence[int]) -> None:
        """First write after allocation: "the check is that the page is free.
        Then the proper label for the page is written" (section 3.3).

        *data* goes through :func:`value_words` before the disk pass.
        Raises :class:`PageNotFree` when the allocation map lied.
        """
        self._claim_value(address, new_label, value_words(data))

    def _claim_value(self, address: int, new_label: Label, value: Sequence[int]) -> None:
        """:meth:`claim` of *value*, a sector value already built: the
        allocator builds its value before it marks a candidate busy."""
        try:
            self.drive.check_label_then_rewrite(address, Label.free(), new_label, value)
        except (LabelCheckError, AddressOutOfRange) as exc:
            raise PageNotFree(f"address {address} is not free") from exc

    def release(self, name: FullName) -> None:
        """Free a page: "its full name must be given, and the check is that
        the label is the right one.  Then ones are written into label and
        value" (section 3.3)."""
        self._require_hint(name)
        try:
            self.drive.check_label_then_rewrite(
                name.address, name.check_label(), Label.free(), FREE_VALUE
            )
        except (LabelCheckError, AddressOutOfRange) as exc:
            raise HintFailed(f"page {name} is not at its hinted address") from exc

    def rewrite_label(self, name: FullName, new_label: Label) -> None:
        """Change a page's label in place (the change-length operation of
        section 3.3): check the old label, then rewrite, keeping the data."""
        self._require_hint(name)
        try:
            self.drive.check_label_then_rewrite(name.address, name.check_label(), new_label)
        except (LabelCheckError, AddressOutOfRange) as exc:
            raise HintFailed(f"page {name} is not at its hinted address") from exc

    def update_label(self, name: FullName, transform) -> Label:
        """Read-check the label and rewrite a transformed version of it.

        Exactly section 3.3's change-length sequence: "the label of the
        last page is read and checked.  Then it is rewritten, possibly with
        new values of L and NL."  The check pass yields the current label
        (via the wildcard mechanism), *transform* maps it to the new label,
        and the second pass writes it -- two passes total, one revolution.
        Returns the new label.
        """
        self._require_hint(name)
        try:
            result = self.drive.check_label(name.address, name.check_label())
            current = result.label_object()
            new_label = transform(current)
            self.drive.write_label_value(
                name.address, new_label, self.drive.current_value(name.address)
            )
            return new_label
        except (LabelCheckError, AddressOutOfRange) as exc:
            raise HintFailed(f"page {name} is not at its hinted address") from exc

    # -- cache passthroughs (no-ops on a plain drive) -----------------------------

    def invalidate(self, address: int) -> None:
        """Tell a caching drive that *address*'s cached copy is moot (the
        page was freed, or its hint proved stale)."""
        invalidate = getattr(self.drive, "invalidate", None)
        if invalidate is not None:
            invalidate(address)

    def pin(self, address: int) -> None:
        """Keep *address* resident in a caching drive (hot singletons)."""
        pin = getattr(self.drive, "pin", None)
        if pin is not None:
            pin(address)

    @staticmethod
    def _require_hint(name: FullName) -> None:
        if not name.has_address_hint:
            raise HintFailed(f"page {name} has no address hint; resolve it first")

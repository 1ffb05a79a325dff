"""Page allocation: the bit-table map, which is only a hint (section 3.3).

"Note that the allocation map is a hint because the absolute information
about which pages are free is contained in the labels.  If the map says
that a page is free, the allocator marks it busy when allocating it, and
when the label check described above fails, the allocator is called again
to obtain another page.  Thus a page improperly marked free in the map
results in a little extra one-time disk activity.  A page improperly marked
busy will never be allocated; such lost pages are recovered by the
Scavenger."

``PageAllocator`` implements exactly that protocol: candidates come from
the map, but the *claim* -- a check-that-free then label write -- is what
actually allocates, and a failed claim just marks the liar busy and moves
on.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from ..disk.geometry import DiskShape, NIL
from ..disk.sector import Label, value_words
from ..errors import DiskFull, PageNotFree
from .page import PageIO

#: Map bits per word when serialized into the disk descriptor.
BITS_PER_WORD = 16


class PageAllocator:
    """The bit-table allocation map plus the claim protocol."""

    def __init__(self, shape: DiskShape, free: Optional[Sequence[bool]] = None) -> None:
        self.shape = shape
        total = shape.total_sectors()
        if free is None:
            self._free: List[bool] = [True] * total
        else:
            if len(free) != total:
                raise ValueError(f"map has {len(free)} bits, disk has {total} sectors")
            self._free = list(free)
        #: Pages whose map bit lied (kept for diagnostics/benchmarks).
        self.map_lies = 0

    # ------------------------------------------------------------------------
    # Map maintenance (hints only; no disk traffic)
    # ------------------------------------------------------------------------

    def is_free(self, address: int) -> bool:
        self.shape.check_address(address)
        return self._free[address]

    def mark_busy(self, address: int) -> None:
        self.shape.check_address(address)
        self._free[address] = False

    def mark_free(self, address: int) -> None:
        self.shape.check_address(address)
        self._free[address] = True

    def reserve(self, addresses: Sequence[int]) -> None:
        """Mark well-known addresses (boot page, descriptor leader) busy."""
        for address in addresses:
            self.mark_busy(address)

    def count_free(self) -> int:
        return sum(self._free)

    # ------------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------------

    def candidates(self, near: Optional[int] = None) -> Iterator[int]:
        """Free addresses, nearest-first to *near* (locality heuristic).

        Addresses are cylinder-major, so address distance tracks arm travel.
        """
        total = self.shape.total_sectors()
        if near is None or near == NIL:
            for address in range(total):
                if self._free[address]:
                    yield address
            return
        self.shape.check_address(near)
        for distance in range(total):
            for address in (near + distance, near - distance):
                if distance == 0 and address != near:
                    continue
                if 0 <= address < total and self._free[address]:
                    yield address

    # ------------------------------------------------------------------------
    # The claim protocol
    # ------------------------------------------------------------------------

    def allocate(
        self,
        page_io: PageIO,
        label: Label,
        data: Sequence[int],
        near: Optional[int] = None,
    ) -> int:
        """Allocate a page and perform its first write, atomically per 3.3.

        *data* goes through :func:`value_words` first, so a buffer it
        refuses leaves the map as it was.  Then picks map candidates
        nearest *near*; each candidate is marked busy, then claimed on disk
        (check-free + label write, costing the allocate revolution).  A
        candidate whose label is not actually free stays marked busy -- the
        map told a lie -- and the next candidate is tried.  Raises
        :class:`DiskFull` when the map offers nothing.
        """
        return self._allocate_value(page_io, label, value_words(data), near)

    def _allocate_value(self, page_io: PageIO, label: Label, value: Sequence[int],
                        near: Optional[int] = None) -> int:
        """:meth:`allocate` of *value*, a sector value already built."""
        obs = page_io.drive.clock.obs
        with obs.span("fs.allocate", "fs",
                      near=near if near is not None else NIL) as span:
            tried = 0
            for address in self.candidates(near):
                tried += 1
                self.mark_busy(address)
                try:
                    page_io._claim_value(address, label, value)
                except PageNotFree:
                    self.map_lies += 1
                    obs.registry.counter("fs.alloc.map_lies").inc()
                    continue
                obs.registry.counter("fs.alloc.allocated").inc()
                span.annotate(address=address, tried=tried)
                return address
            raise DiskFull(f"no free page on {self.shape.name} ({self.count_free()} map bits free)")

    def release(self, page_io: PageIO, name) -> None:
        """Free a page on disk (ones into label and value), then in the map."""
        obs = page_io.drive.clock.obs
        with obs.span("fs.free", "fs", address=name.address):
            page_io.release(name)
            page_io.invalidate(name.address)  # a freed page earns no cache space
            self.mark_free(name.address)
            obs.registry.counter("fs.alloc.freed").inc()

    # ------------------------------------------------------------------------
    # Serialization (for the disk descriptor) and reconstruction
    # ------------------------------------------------------------------------

    def pack(self) -> List[int]:
        """Serialize the map to words, 16 sectors per word, bit set = free."""
        total = self.shape.total_sectors()
        words = []
        for base in range(0, total, BITS_PER_WORD):
            w = 0
            for bit in range(min(BITS_PER_WORD, total - base)):
                if self._free[base + bit]:
                    w |= 1 << bit
            words.append(w)
        return words

    @classmethod
    def unpack(cls, shape: DiskShape, words: Sequence[int]) -> "PageAllocator":
        total = shape.total_sectors()
        expected = (total + BITS_PER_WORD - 1) // BITS_PER_WORD
        if len(words) < expected:
            raise ValueError(f"map needs {expected} words, got {len(words)}")
        free = []
        for address in range(total):
            w = words[address // BITS_PER_WORD]
            free.append(bool(w & (1 << (address % BITS_PER_WORD))))
        return cls(shape, free)

    @classmethod
    def map_word_count(cls, shape: DiskShape) -> int:
        return (shape.total_sectors() + BITS_PER_WORD - 1) // BITS_PER_WORD

    @classmethod
    def from_labels(cls, shape: DiskShape, labels: Sequence[Label]) -> "PageAllocator":
        """Rebuild the map from a label sweep (the scavenger's job): free
        exactly where the label says free; bad pages are never free."""
        if len(labels) != shape.total_sectors():
            raise ValueError("need one label per sector")
        return cls(shape, [label.is_free for label in labels])

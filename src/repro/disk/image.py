"""The platter state: every sector of one removable pack.

``DiskImage`` is pure state -- no timing, no policy.  The drive (drive.py)
imposes the command discipline and charges time; the image is "what is on
the oxide".  Keeping it separate lets crash tests snapshot a pack, lets the
fault plan corrupt it behind the drive's back, and lets two independent
software stacks mount the same pack (the openness property of section 1:
the on-disk representation is the interface).

The image also keeps a :class:`ChangeLog` of the addresses whose headers
or labels changed, so a checker that read the pack before can re-read
only those (section 3.3: the label identifies the page, so labels alone
tell what moved).  Every sector in the image knows its address and logs
its own header and label writes, whoever makes them -- the drive, a
journal replay, a fault plan, a raw test edit.  :meth:`set_sector`
logs the address it replaces, and :meth:`restore`, which replaces every
sector, tells readers to start over.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional

from ..errors import AddressOutOfRange
from ..words import check_word, words_to_bytes
from .geometry import DiskShape, diablo31
from .sector import FREE_VALUE, Label, Sector


class ChangeLog:
    """Which addresses' headers or labels changed, in order.

    Address -> the stamp of its last change, oldest first.  A change moves
    its address to the end, so the log never holds more entries than the
    pack has sectors, read or not.  A reader keeps the :attr:`stamp` it
    read to and asks :meth:`since` for what came after; reading consumes
    nothing, so any number of readers share one log.  Sectors point at the
    log and the log points at nothing, so a dropped image is freed at once,
    not left in a reference cycle.
    """

    __slots__ = ("_changes", "stamp", "_restarted")

    def __init__(self) -> None:
        self._changes: Dict[int, int] = {}
        self.stamp = 0  # of the last change or restart
        self._restarted = 0

    def note(self, address: int) -> None:
        """Log a change at *address* (``Sector`` calls this)."""
        changes = self._changes
        changes.pop(address, None)  # the newest change goes last
        self.stamp = changes[address] = self.stamp + 1

    def restart(self) -> None:
        """Every address changed at once: readers must start over."""
        self._changes.clear()
        self.stamp = self._restarted = self.stamp + 1

    def since(self, stamp: int) -> Optional[List[int]]:
        """The addresses changed after *stamp* (an earlier :attr:`stamp`),
        newest first, at one step per address returned; None when a
        restart came after *stamp*."""
        if stamp < self._restarted:
            return None
        changed = []
        for address, when in reversed(self._changes.items()):
            if when <= stamp:
                break
            changed.append(address)
        return changed


class DiskImage:
    """All sectors of one pack, indexed by linear disk address."""

    def __init__(self, shape: Optional[DiskShape] = None, pack_id: int = 1) -> None:
        self.shape = shape if shape is not None else diablo31()
        self.pack_id = check_word(pack_id, "pack id")
        # Sectors are materialized on first touch: ``None`` stands for a
        # factory-fresh sector (free label, all-ones value), which is what
        # every address holds until something writes or inspects it.
        # Building, snapshotting, and restoring a pack therefore cost
        # nothing for the (typically large) untouched remainder.  The
        # fresh header captures the pack id at construction time.
        self._fresh_pack_id = pack_id
        self._sectors: List[Optional[Sector]] = [None] * self.shape.total_sectors()
        self._whole = False  # no None slot left (see sector_list)
        #: Addresses the fault plan has marked as unreadable media.
        self.bad_media: set = set()
        #: ``(address, part)`` pairs whose checksum a torn write ruined;
        #: reads fail until the part is rewritten (real disks detect an
        #: interrupted write this way -- the CRC never got laid down).
        self.checksum_bad: set = set()
        #: Every header and label change, whoever made it.
        self.changes = ChangeLog()

    # -- access ---------------------------------------------------------------

    def _materialize(self, address: int) -> Sector:
        """The sector at *address*, created fresh on first touch."""
        sector = self._sectors[address]
        if sector is None:
            sector = self._sectors[address] = Sector.fresh(
                self._fresh_pack_id, address, self.changes)
        return sector

    def sector(self, address: int) -> Sector:
        """The sector at *address* (validated against the shape)."""
        self.shape.check_address(address)
        return self._materialize(address)

    def set_sector(self, address: int, sector: Sector) -> None:
        """Install a copy of *sector* at *address*.  A copy, so that no
        sector object sits at two addresses or in two images: each logs
        its writes to exactly one place."""
        self.shape.check_address(address)
        self._sectors[address] = sector.copy(self.changes, address)
        self.changes.note(address)

    def __len__(self) -> int:
        return len(self._sectors)

    def sectors(self) -> Iterator[Sector]:
        """All sectors in physical order."""
        return (self._materialize(address) for address in range(len(self._sectors)))

    def sector_list(self) -> List[Sector]:
        """All sectors in physical order, as the image's own list (read it,
        never modify it).  Materializes exactly as :meth:`sectors` does,
        once; after that a call costs nothing."""
        sectors = self._sectors
        if not self._whole:
            for address in range(len(sectors)):
                self._materialize(address)
            self._whole = True
        return sectors

    # -- whole-pack operations --------------------------------------------------

    def snapshot(self) -> "DiskImage":
        """An independent copy of the pack, for crash/restore experiments
        (the value tuples are shared: a write replaces, never edits, one)."""
        clone = DiskImage.__new__(DiskImage)
        clone.shape = self.shape
        clone.pack_id = self.pack_id
        clone._fresh_pack_id = self._fresh_pack_id
        changes = clone.changes = ChangeLog()
        clone._sectors = [None if s is None else s.copy(changes, address)
                          for address, s in enumerate(self._sectors)]
        clone._whole = self._whole
        clone.bad_media = set(self.bad_media)
        clone.checksum_bad = set(self.checksum_bad)
        return clone

    def digest(self) -> str:
        """A canonical SHA-256 over the full platter state.

        Covers every sector's header, label, and value words (in physical
        order, big-endian packed) plus the fault-tracking sets, so two
        packs digest equal iff they are byte-identical *and* agree on
        which parts are unreadable.  The golden-image suite
        (``tests/equivalence/``) pins workload digests with this.
        """
        h = hashlib.sha256()
        # An unmaterialized sector digests as its factory-fresh words;
        # only the header's address word varies, so the constant parts
        # are packed once.
        fresh_tail = (words_to_bytes(Label.free().pack())
                      + words_to_bytes(FREE_VALUE))
        pack_id = self._fresh_pack_id
        for address, sector in enumerate(self._sectors):
            if sector is None:
                h.update(words_to_bytes([pack_id, address]))
                h.update(fresh_tail)
            else:
                h.update(words_to_bytes(sector.header_words()))
                h.update(words_to_bytes(sector.label_words()))
                h.update(words_to_bytes(sector.value))
        h.update(repr(sorted(self.bad_media)).encode())
        h.update(repr(sorted(self.checksum_bad)).encode())
        return h.hexdigest()

    def restore(self, snapshot: "DiskImage") -> None:
        """Overwrite this pack's state from *snapshot* (same shape required)."""
        if snapshot.shape != self.shape:
            raise ValueError("snapshot is from a different disk shape")
        self.pack_id = snapshot.pack_id
        self._fresh_pack_id = snapshot._fresh_pack_id
        changes = self.changes
        self._sectors = [None if s is None else s.copy(changes, address)
                         for address, s in enumerate(snapshot._sectors)]
        self._whole = snapshot._whole
        self.bad_media = set(snapshot.bad_media)
        self.checksum_bad = set(snapshot.checksum_bad)
        changes.restart()

    # -- statistics (used by tests and benchmarks) -------------------------------

    def count_free(self) -> int:
        return sum(1 for s in self._sectors if s is None or s.label.is_free)

    def count_in_use(self) -> int:
        return sum(1 for s in self._sectors if s is not None and s.label.in_use)

    def count_bad(self) -> int:
        return sum(1 for s in self._sectors if s is not None and s.label.is_bad)

    def labels_by_serial(self) -> Dict[int, List[Label]]:
        """In-use labels grouped by file serial (a scavenger-style sweep,
        but without timing; for test assertions only)."""
        out: Dict[int, List[Label]] = {}
        for sector in self._sectors:
            if sector is not None and sector.label.in_use:
                out.setdefault(sector.label.serial, []).append(sector.label)
        return out

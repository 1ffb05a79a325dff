"""The compacting scavenger (section 3.5).

"We have also written a more elaborate scavenger that does an in-place
permutation of the file pages on the disk so that the pages of each file
are in consecutive sectors.  This arrangement typically increases the speed
with which the files can be read sequentially by an order of magnitude over
what is possible if the pages have become scattered."

The compactor first runs the ordinary scavenger (guaranteeing a consistent
structure and yielding the page table), plans a packing that leaves pinned
pages (the boot page, the descriptor leader) where they are, then executes
the permutation with a one-sector memory buffer: chains are drained from
their free ends, cycles are rotated through the buffer.  Every moved page
is written with links already corrected for the final layout, so a second
scavenger pass afterwards only has to fix directory address hints and the
map -- and the disk is crash-consistent throughout, because a page's new
copy is written before its old label is freed (a crash in between leaves a
duplicate absolute name, which the ordinary scavenger resolves).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..disk.drive import Action, DiskDrive, PartCommand
from ..disk.geometry import NIL
from ..disk.sector import FREE_VALUE, Header, Label
from ..errors import FileFormatError
from .descriptor import BOOT_PAGE_ADDRESS, DESCRIPTOR_LEADER_ADDRESS
from .leader import LeaderPage
from .names import PAGE_NUMBER_BIAS
from .scavenger import Scavenger, ScavengeReport, SweptPage


@dataclass
class CompactionReport:
    """What the compactor did, plus the two scavenger reports."""

    pages_moved: int = 0
    files_compacted: int = 0
    files_already_consecutive: int = 0
    files_pinned: int = 0
    chains: int = 0
    cycles: int = 0
    elapsed_s: float = 0.0
    pre_scavenge: Optional[ScavengeReport] = None
    post_scavenge: Optional[ScavengeReport] = None


class Compactor:
    """In-place permutation of file pages into consecutive runs."""

    def __init__(self, drive: DiskDrive) -> None:
        self.drive = drive
        self.report = CompactionReport()

    # ------------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------------

    def compact(self) -> CompactionReport:
        obs = self.drive.clock.obs
        watch = self.drive.clock.stopwatch()
        with obs.span("fs.compact", "fs") as span:
            scavenger = Scavenger(self.drive)
            self.report.pre_scavenge = scavenger.scavenge()
            files = scavenger._files  # the verified page table
            bad = set(self.report.pre_scavenge.bad_sectors)

            with obs.span("compact.plan", "compact"):
                mapping, final_labels = self._plan(files, bad)
            if mapping:
                with obs.span("compact.execute", "compact"):
                    self._execute(mapping, final_labels)
            self._set_consecutive_flags(files, mapping)
            # A second pass recomputes the map, descriptor, and directory hints
            # from the new layout.
            self.report.post_scavenge = Scavenger(self.drive).scavenge()
            span.annotate(pages_moved=self.report.pages_moved,
                          chains=self.report.chains, cycles=self.report.cycles)
        obs.registry.counter("fs.compact.runs").inc()
        self.report.elapsed_s = watch.elapsed_s
        return self.report

    # ------------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------------

    def _plan(
        self,
        files: Dict[Tuple[int, int], Dict[int, SweptPage]],
        bad: Set[int],
    ) -> Tuple[Dict[int, int], Dict[int, Label]]:
        """Choose target addresses: each file's pages packed consecutively.

        Returns (old address -> new address for every moved page,
        new address -> final label for every page, moved or not).
        """
        shape = self.drive.shape
        forbidden = set(bad)
        forbidden.add(BOOT_PAGE_ADDRESS)

        pinned_keys = set()
        for key, bucket in files.items():
            addresses = {p.address for p in bucket.values()}
            if BOOT_PAGE_ADDRESS in addresses or DESCRIPTOR_LEADER_ADDRESS in addresses:
                pinned_keys.add(key)
                forbidden.update(addresses)
        self.report.files_pinned = len(pinned_keys)

        # Pack files in order of current leader address, so an
        # already-compact disk stays (mostly) in place.
        order = sorted(
            (key for key in files if key not in pinned_keys),
            key=lambda key: files[key][0].address,
        )

        total = shape.total_sectors()
        targets: Dict[Tuple[int, int], int] = {}
        cursor = 0
        for key in order:
            size = len(files[key])
            start = self._find_run(cursor, size, total, forbidden)
            if start is None:
                # Could not pack this file; leave it where it is.
                forbidden.update(p.address for p in files[key].values())
                continue
            targets[key] = start
            for address in range(start, start + size):
                forbidden.add(address)
            cursor = start + size

        mapping: Dict[int, int] = {}
        final_labels: Dict[int, Label] = {}
        for key, bucket in files.items():
            size = len(bucket)
            start = targets.get(key)
            new_addresses = {}
            for pn in range(size):
                old = bucket[pn].address
                new = start + pn if start is not None else old
                new_addresses[pn] = new
                if new != old:
                    mapping[old] = new
            moved_any = any(new_addresses[pn] != bucket[pn].address for pn in range(size))
            if key not in pinned_keys:
                if moved_any:
                    self.report.files_compacted += 1
                else:
                    self.report.files_already_consecutive += 1
            for pn in range(size):
                page = bucket[pn]
                final_labels[new_addresses[pn]] = Label(
                    serial=page.serial,
                    version=page.version,
                    page_number=pn + PAGE_NUMBER_BIAS,
                    length=page.length,
                    next_link=new_addresses[pn + 1] if pn + 1 < size else NIL,
                    prev_link=new_addresses[pn - 1] if pn > 0 else NIL,
                )
        self.report.pages_moved = len(mapping)
        return mapping, final_labels

    @staticmethod
    def _find_run(cursor: int, size: int, total: int, forbidden: Set[int]) -> Optional[int]:
        """First gap of *size* consecutive allowed addresses at or after
        *cursor* (wrapping once to the start)."""
        for base in list(range(cursor, total - size + 1)) + list(range(0, cursor)):
            if base + size > total:
                continue
            if all(address not in forbidden for address in range(base, base + size)):
                return base
        return None

    # ------------------------------------------------------------------------
    # Execution: chains then cycles, one-sector buffer
    # ------------------------------------------------------------------------

    def _execute(self, mapping: Dict[int, int], final_labels: Dict[int, Label]) -> None:
        inverse = {new: old for old, new in mapping.items()}
        if len(inverse) != len(mapping):
            raise FileFormatError("compaction plan maps two pages to one sector")
        done: Set[int] = set()

        # Chains: a target that nothing vacates must be free right now; the
        # chain drains backwards from it.
        for old in list(mapping):
            if old in done or old in inverse:
                continue  # not a chain head (something moves into old)
            self._drain_chain(old, mapping, inverse, final_labels, done)

        # Cycles: whatever remains.
        for old in list(mapping):
            if old not in done:
                self._rotate_cycle(old, mapping, final_labels, done)

        # Free every vacated address that nothing was moved into.
        vacated = set(mapping.keys()) - set(mapping.values())
        for address in vacated:
            self._write_free(address)

    def _drain_chain(
        self,
        head: int,
        mapping: Dict[int, int],
        inverse: Dict[int, int],
        final_labels: Dict[int, Label],
        done: Set[int],
    ) -> None:
        """Move the chain starting (in content-flow order) at *head*:
        head -> m(head) -> m(m(head)) ... ending at a currently-free target.
        Performed back to front so every write lands on a free sector."""
        chain = [head]
        while chain[-1] in mapping:
            nxt = mapping[chain[-1]]
            if nxt == head:
                return  # actually a cycle; handled later
            chain.append(nxt)
        # chain[-1] is the free terminal target; move chain[-2] -> chain[-1],
        # then chain[-3] -> chain[-2], etc.
        for i in range(len(chain) - 2, -1, -1):
            self._move(chain[i], chain[i + 1], final_labels)
            done.add(chain[i])

    def _rotate_cycle(
        self,
        start: int,
        mapping: Dict[int, int],
        final_labels: Dict[int, Label],
        done: Set[int],
    ) -> None:
        """Rotate one cycle through the one-sector memory buffer."""
        cycle = [start]
        while mapping[cycle[-1]] != start:
            cycle.append(mapping[cycle[-1]])
        self.report.cycles += 1
        # Buffer the content of the last element (destined for `start`).
        last = cycle[-1]
        buffered = self.drive.read_sector(last)
        # Move the rest back to front: cycle[i] -> cycle[i+1].
        for i in range(len(cycle) - 2, -1, -1):
            self._move(cycle[i], cycle[i + 1], final_labels)
            done.add(cycle[i])
        # Finally place the buffered sector at `start`.
        self._write_sector(start, final_labels[start], buffered.value)
        done.add(last)

    def _move(self, old: int, new: int, final_labels: Dict[int, Label]) -> None:
        contents = self.drive.read_sector(old)
        value = contents.value
        label = final_labels[new]
        # A moved leader page gets its hints refreshed in flight.
        if label.page_number == PAGE_NUMBER_BIAS:  # page 0
            value = self._refresh_leader(value, final_labels, new)
        self._write_sector(new, label, value)

    def _refresh_leader(
        self, value: List[int], final_labels: Dict[int, Label], leader_address: int
    ) -> List[int]:
        try:
            leader = LeaderPage.unpack(value)
        except FileFormatError:
            return value
        # Follow the final chain from the leader to find the last page.
        address = leader_address
        page_number = 0
        while final_labels[address].next_link != NIL:
            address = final_labels[address].next_link
            page_number += 1
        return leader.with_last_page(page_number, address).with_consecutive(True).pack()

    def _write_sector(self, address: int, label: Label, value: List[int]) -> None:
        self.drive.write_header_label_value(
            address, Header(self.drive.image.pack_id, address), label, value
        )

    def _write_free(self, address: int) -> None:
        self.drive.transfer(
            address,
            label=PartCommand(Action.WRITE, Label.free().pack()),
            value=PartCommand(Action.WRITE, FREE_VALUE),
        )

    # ------------------------------------------------------------------------
    # Consecutive flags for unmoved files
    # ------------------------------------------------------------------------

    def _set_consecutive_flags(self, files, mapping: Dict[int, int]) -> None:
        """Set maybe-consecutive on files whose leader page did not move
        (moved leaders were refreshed in flight by :meth:`_refresh_leader`)."""
        for key, bucket in files.items():
            if bucket[0].address in mapping:
                continue  # leader moved; handled by _refresh_leader
            addresses = [
                mapping.get(bucket[pn].address, bucket[pn].address) for pn in sorted(bucket)
            ]
            consecutive = all(
                addresses[i + 1] == addresses[i] + 1 for i in range(len(addresses) - 1)
            )
            try:
                contents = self.drive.read_sector(addresses[0])
                leader = LeaderPage.unpack(contents.value)
            except (FileFormatError, ValueError):
                continue
            refreshed = leader.with_last_page(len(addresses) - 1, addresses[-1]).with_consecutive(
                consecutive
            )
            if refreshed != leader:
                self.drive.transfer(
                    addresses[0], value=PartCommand(Action.WRITE, refreshed.pack())
                )


def compact(drive: DiskDrive) -> CompactionReport:
    """Convenience wrapper: run the compacting scavenger on *drive*."""
    return Compactor(drive).compact()

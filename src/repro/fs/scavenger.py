"""The Scavenger (section 3.5).

"By reading all the labels on the disk, we can check that all the links are
correct (reconstructing any that prove faulty), obtain full names for all
existing files, and produce a list of free pages. ... We can then read all
the directories and verify that each entry points to page 0 of an existing
file, fixing up the address if necessary and detecting entries which point
elsewhere.  If any file remains unaccounted for by directory entries, we
can make a new entry for it in the ma[i]n directory, using its leader name.
...  When it is complete, all hints have been recomputed from absolutes,
and any inconsistencies ... have been detected."

The scavenger needs no mounted file system -- it *produces* one.  It reads
every label (one revolution per track, since chained label reads follow the
platter), sorts them by absolute name, repairs links, rebuilds the
allocation map, verifies every directory, rescues nameless files into the
main directory under their leader names, marks permanently bad pages, and
rewrites the disk descriptor.  After ``scavenge()`` returns,
``FileSystem.mount`` succeeds.

CPU costs (table inserts, sorting, entry checks) are charged to the
simulated clock so the end-to-end time is comparable with the paper's
"about a minute for a 2.5 megabyte disk".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..disk.drive import Action, DiskDrive, PartCommand
from ..disk.geometry import NIL
from ..disk.sector import FREE_VALUE, Header, Label, SERIAL_BAD, SERIAL_FREE, VALUE_WORDS
from ..errors import (
    BadSectorError,
    DirectoryError,
    FileFormatError,
    FileNotFound,
    HintFailed,
    SectorChecksumError,
)
from ..words import MEMORY_WORDS, bytes_to_words, words_to_bytes, zero_words
from .allocator import PageAllocator
from .descriptor import (
    BOOT_PAGE_ADDRESS,
    DESCRIPTOR_LEADER_ADDRESS,
    DESCRIPTOR_NAME,
    DiskDescriptor,
)
from .directory import Directory, ENTRY_FILE, _FIXED_ENTRY_WORDS
from .file import AltoFile, FULL_PAGE
from .filesystem import ROOT_DIRECTORY_NAME, SERIAL_LEASE
from .leader import LeaderPage, MAX_NAME_LENGTH
from .names import (
    FileId,
    FullName,
    PAGE_NUMBER_BIAS,
    make_serial,
    next_usable_counter,
    page_number_from_label,
    parseable_label,
    serial_counter,
)
from .page import PageIO

#: CPU cost model (microseconds), calibrated to a 16-bit machine with 800 ns
#: memory: inserting one 48-bit table entry, one sort comparison-and-swap,
#: and checking one directory entry.
CPU_PER_LABEL_US = 800
CPU_PER_COMPARE_US = 60
CPU_PER_ENTRY_US = 400
CPU = "cpu"


@dataclass
class SweptPage:
    """One in-use label seen during the sweep (the 48-bit-per-sector table).

    The paper's table stores the absolute name in 48 bits per sector; we
    carry the links and length too (they are re-readable, but keeping them
    saves a second sweep) and account the memory budget separately.
    """

    address: int
    serial: int
    version: int
    page_number: int  # unbiased
    length: int
    next_link: int
    prev_link: int

    def key(self) -> Tuple[int, int, int]:
        return (self.serial, self.version, self.page_number)

    def label(self) -> Label:
        """The label this page was swept with (page number re-biased)."""
        return Label(
            serial=self.serial,
            version=self.version,
            page_number=self.page_number + PAGE_NUMBER_BIAS,
            length=self.length,
            next_link=self.next_link,
            prev_link=self.prev_link,
        )


@dataclass
class ScavengeReport:
    """Everything the scavenger found and did."""

    sectors_swept: int = 0
    files_found: int = 0
    directories_found: int = 0
    free_pages: int = 0
    bad_sectors: List[int] = field(default_factory=list)
    garbage_labels_freed: int = 0
    duplicate_pages_freed: int = 0
    headless_chains_freed: int = 0
    torn_sectors_reclaimed: int = 0
    pages_reconstructed: int = 0
    truncated_files: List[Tuple[int, int, int]] = field(default_factory=list)
    links_repaired: int = 0
    ragged_last_pages: List[Tuple[int, int]] = field(default_factory=list)
    entries_fixed: int = 0
    entries_nulled: int = 0
    directories_rebuilt: int = 0
    orphans_rescued: List[str] = field(default_factory=list)
    leaders_rewritten: int = 0
    descriptor_recreated: bool = False
    root_recreated: bool = False
    elapsed_s: float = 0.0
    breakdown_ms: Dict[str, float] = field(default_factory=dict)
    table_entries: int = 0
    table_bits_per_sector: int = 48
    table_fits_in_memory: bool = True

    def repairs_made(self) -> int:
        return (
            self.garbage_labels_freed
            + self.duplicate_pages_freed
            + self.headless_chains_freed
            + self.torn_sectors_reclaimed
            + self.pages_reconstructed
            + self.links_repaired
            + self.entries_fixed
            + self.entries_nulled
            + len(self.orphans_rescued)
            + self.leaders_rewritten
        )


class Scavenger:
    """Reconstructs a file system's hints (and structure) from absolutes."""

    def __init__(self, drive: DiskDrive) -> None:
        self.drive = drive
        self.page_io = PageIO(drive)
        self.report = ScavengeReport()
        # State built up across phases:
        self._pages: List[SweptPage] = []
        self._free: Set[int] = set()
        self._value_bad: Set[int] = set()
        self._files: Dict[Tuple[int, int], Dict[int, SweptPage]] = {}
        self._allocator: Optional[PageAllocator] = None
        self._max_counter = 0
        self._descriptor_key: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------------

    def scavenge(self) -> ScavengeReport:
        """Run the full pass; afterwards ``FileSystem.mount`` succeeds."""
        obs = self.drive.clock.obs
        watch = self.drive.clock.stopwatch()
        with obs.span("fs.scavenge", "fs") as span:
            # The sweep reads absolutes; a write-back cache on this drive must
            # first put the platter in its logically current state and then get
            # out of the way (every cached copy is just a hint).
            settle = getattr(self.drive, "flush_and_invalidate", None)
            if settle is not None:
                settle()
            with obs.span("scavenge.sweep", "scavenge"):
                self._sweep()
            with obs.span("scavenge.sort", "scavenge"):
                self._sort_and_group()
            with obs.span("scavenge.repair_files", "scavenge"):
                self._repair_files()
            with obs.span("scavenge.rebuild_map", "scavenge"):
                self._rebuild_map()
            with obs.span("scavenge.recover_root", "scavenge"):
                root = self._recover_root()
            with obs.span("scavenge.verify_directories", "scavenge"):
                referenced = self._verify_directories(root)
            with obs.span("scavenge.rescue_orphans", "scavenge"):
                self._rescue_orphans(root, referenced)
            with obs.span("scavenge.rewrite_descriptor", "scavenge"):
                self._rewrite_descriptor(root)
            # Recovery is only recovery if it survives the next crash: push the
            # scavenger's own repairs out of any write-back buffer.
            if settle is not None:
                settle()
            span.annotate(repairs=self.report.repairs_made(),
                          files=self.report.files_found)
        obs.registry.counter("fs.scavenge.runs").inc()
        self.report.elapsed_s = watch.elapsed_s
        self.report.breakdown_ms = watch.breakdown_ms()
        return self.report

    # ------------------------------------------------------------------------
    # Phase 1: the label sweep
    # ------------------------------------------------------------------------

    def _sweep(self) -> None:
        """Read every label in physical order (one revolution per track,
        because chained label reads ride the rotation), deferring repairs."""
        shape = self.drive.shape
        garbage: List[Tuple[int, List[int]]] = []
        # Physical order is linear-address order (compose() is the mixed-
        # radix expansion), so the cylinder/head/sector walk is a flat range
        # taken one cylinder at a time.
        per_cylinder = shape.heads * shape.sectors_per_track
        for cylinder in range(shape.cylinders):
            base = cylinder * per_cylinder
            for address in range(base, base + per_cylinder):
                # Label and value ride the same revolution; reading both
                # costs nothing extra and lets the controller verify the
                # value checksum in passing (torn writes surface here).
                try:
                    result = self.drive.read_label_value(address)
                    label = Label.unpack(result.label)
                except SectorChecksumError as exc:
                    if exc.part == "value":
                        # The label still identifies the page; note the
                        # unreadable value for the file-repair phase.
                        label = self.drive.read_label(address)
                        self._value_bad.add(address)
                    else:
                        # The page's identity itself was torn: reclaim
                        # the sector (fresh writes lay down checksums).
                        self._reclaim_torn(address)
                        continue
                except BadSectorError:
                    self.report.bad_sectors.append(address)
                    continue
                self._classify(address, label, garbage)
            # Table maintenance overlaps the head switch / seek in the real
            # scavenger; we charge it in bulk per cylinder.
            self.drive.clock.advance_us(per_cylinder * CPU_PER_LABEL_US, CPU)
        self.report.sectors_swept = shape.total_sectors()
        self.report.table_entries = len(self._pages)
        # Memory-budget check (section 3.5): 48 bits = 3 words per sector.
        self.report.table_fits_in_memory = 3 * shape.total_sectors() <= MEMORY_WORDS
        # Free the garbage labels now (each costs the free revolution).
        for address, swept_words in garbage:
            self._rewrite_raw(address, swept_words, Label.free(), FREE_VALUE)
            self._free.add(address)
            self.report.garbage_labels_freed += 1

    def _classify(self, address: int, label: Label, garbage) -> None:
        serial = label.serial
        if serial == SERIAL_FREE:
            self._free.add(address)
            return
        if serial == SERIAL_BAD:
            self.report.bad_sectors.append(address)
            return
        if not parseable_label(label):
            garbage.append((address, label.pack()))
            return
        page = SweptPage(
            address=address,
            serial=label.serial,
            version=label.version,
            page_number=page_number_from_label(label),
            length=label.length,
            next_link=label.next_link,
            prev_link=label.prev_link,
        )
        self._pages.append(page)
        self._max_counter = max(self._max_counter, serial_counter(label.serial))

    # ------------------------------------------------------------------------
    # Phase 2: sort by absolute name
    # ------------------------------------------------------------------------

    def _sort_and_group(self) -> None:
        n = len(self._pages)
        if n > 1:
            compares = round(n * (n.bit_length()))
            self.drive.clock.advance_us(compares * CPU_PER_COMPARE_US, CPU)
        self._pages.sort(key=SweptPage.key)
        for page in self._pages:
            self._files.setdefault((page.serial, page.version), {})
            bucket = self._files[(page.serial, page.version)]
            if page.page_number in bucket:
                # Duplicate absolute name: keep the first, free the other.
                self._free_swept(page)
                self.report.duplicate_pages_freed += 1
            else:
                bucket[page.page_number] = page

    # ------------------------------------------------------------------------
    # Phase 3: per-file structure and link repair
    # ------------------------------------------------------------------------

    def _repair_files(self) -> None:
        for (serial, version), bucket in list(self._files.items()):
            if 0 not in bucket:
                # No leader: the chain cannot be named; free it.
                for page in bucket.values():
                    self._free_swept(page)
                    self.report.headless_chains_freed += 1
                del self._files[(serial, version)]
                continue
            # Pages whose value a torn write left unreadable: a data page's
            # contents cannot be reinvented, so the page is freed (the file
            # is truncated at the gap below); a leader is rebuilt in place
            # with a synthesized name so the chain stays reachable.
            if self._value_bad:
                for pn in [p for p, pg in bucket.items() if pg.address in self._value_bad]:
                    page = bucket[pn]
                    self._value_bad.discard(page.address)
                    if pn == 0:
                        fresh = LeaderPage(name=f"Rescued.{serial:08x}.{version}")
                        self.drive.transfer(
                            page.address,
                            value=PartCommand(Action.WRITE, fresh.pack()),
                        )
                        self.report.leaders_rewritten += 1
                    else:
                        self._free_swept(bucket.pop(pn))
                        self.report.torn_sectors_reclaimed += 1
            # Contiguity: keep 0..k-1 up to the first gap.
            last = 0
            while last + 1 in bucket:
                last += 1
            dropped = [pn for pn in bucket if pn > last]
            if dropped:
                self.report.truncated_files.append((serial, version, len(dropped)))
                for pn in dropped:
                    self._free_swept(bucket.pop(pn))
            # A short page (L < 512) is an absolute end-of-file mark: only
            # the change-length operation on a *last* page writes one.  A
            # short page with successors is debris from a crash during an
            # extension (the new page was claimed before the old last page
            # was promoted to L = 512); freeing the successors recovers the
            # pre-extension contents exactly.
            short = next(
                (pn for pn in range(1, last) if bucket[pn].length < FULL_PAGE), None
            )
            if short is not None:
                debris = [pn for pn in bucket if pn > short]
                self.report.truncated_files.append((serial, version, len(debris)))
                for pn in debris:
                    self._free_swept(bucket.pop(pn))
                last = short
            if last == 0:
                # A bare leader with no data page (crash mid-create, or the
                # only data page was torn).  An AltoFile always has at least
                # pages 0 and 1; rather than lose a named file, rebuild an
                # empty page 1.  "We don't lose any files" (section 3.5).
                address = self._claim_free_near(bucket[0].address)
                if address is None:
                    # Pack completely full: nothing to rebuild with.
                    self._free_swept(bucket.pop(0))
                    del self._files[(serial, version)]
                    self.report.headless_chains_freed += 1
                    continue
                fid = FileId(serial, version)
                label = fid.label_for(1, length=0, next_link=NIL, prev_link=bucket[0].address)
                self.drive.write_header_label_value(
                    address,
                    Header(self.drive.image.pack_id, address),
                    label,
                    zero_words(VALUE_WORDS),
                )
                bucket[1] = SweptPage(address, serial, version, 1, 0, NIL, bucket[0].address)
                last = 1
                self.report.pages_reconstructed += 1
            # Links: reconstruct any that prove faulty.
            for pn in range(0, last + 1):
                page = bucket[pn]
                want_next = bucket[pn + 1].address if pn < last else NIL
                want_prev = bucket[pn - 1].address if pn > 0 else NIL
                if page.next_link != want_next or page.prev_link != want_prev:
                    self._repair_links(page, want_next, want_prev)
            # The last page's L should be < 512; a ragged end is reported
            # (L is absolute -- the scavenger will not invent data lengths).
            if bucket[last].length >= FULL_PAGE:
                self.report.ragged_last_pages.append((serial, version))

        self.report.files_found = len(self._files)
        self.report.directories_found = sum(
            1 for (serial, _v) in self._files if FileId(serial).is_directory
        )

    def _repair_links(self, page: SweptPage, want_next: int, want_prev: int) -> None:
        old = page.label()
        new = old.with_links(next_link=want_next, prev_link=want_prev)
        self._rewrite_raw(page.address, old.pack(), new)
        page.next_link, page.prev_link = want_next, want_prev
        self.report.links_repaired += 1

    def _claim_free_near(self, near: int) -> Optional[int]:
        """Deterministically take the free sector closest to *near*."""
        if not self._free:
            return None
        address = min(self._free, key=lambda a: (abs(a - near), a))
        self._free.discard(address)
        return address

    def _reclaim_torn(self, address: int) -> None:
        """A torn write destroyed this sector's identity; rewriting every
        part lays down fresh checksums and returns it to the free pool."""
        self.drive.write_header_label_value(
            address,
            Header(self.drive.image.pack_id, address),
            Label.free(),
            FREE_VALUE,
        )
        self._free.add(address)
        self.report.torn_sectors_reclaimed += 1

    def _free_swept(self, page: SweptPage) -> None:
        self._rewrite_raw(page.address, page.label().pack(), Label.free(), FREE_VALUE)
        self._free.add(page.address)

    def _rewrite_raw(
        self,
        address: int,
        expected_words: List[int],
        new_label: Label,
        new_value: Optional[Sequence[int]] = None,
    ) -> None:
        """Check a label against the exact words we swept, then rewrite it
        (and optionally the value).  Two passes: the free/repair revolution."""
        self.drive.transfer(address, label=PartCommand(Action.CHECK, list(expected_words)))
        value = new_value if new_value is not None else self.drive.current_value(address)
        self.drive.transfer(
            address,
            label=PartCommand(Action.WRITE, new_label.pack()),
            value=PartCommand(Action.WRITE, value),
        )

    # ------------------------------------------------------------------------
    # Phase 4: the allocation map, recomputed from absolutes
    # ------------------------------------------------------------------------

    def _rebuild_map(self) -> None:
        shape = self.drive.shape
        free = [False] * shape.total_sectors()
        for address in self._free:
            free[address] = True
        for address in self.report.bad_sectors:
            free[address] = False
        free[BOOT_PAGE_ADDRESS] = False
        self._allocator = PageAllocator(shape, free)
        self.report.free_pages = self._allocator.count_free()
        # Mark permanently bad pages in their labels so they are never used
        # (best effort: truly dead media rejects even the marking write).
        for address in self.report.bad_sectors:
            try:
                self.drive.transfer(address, label=PartCommand(Action.WRITE, Label.bad().pack()),
                                    value=PartCommand(Action.WRITE, FREE_VALUE))
            except BadSectorError:
                pass

    # ------------------------------------------------------------------------
    # Phase 5: descriptor and root directory recovery
    # ------------------------------------------------------------------------

    def _open_swept_file(self, serial: int, version: int) -> AltoFile:
        bucket = self._files[(serial, version)]
        leader_name = FullName(FileId(serial, version), 0, bucket[0].address)
        file = AltoFile.open(self.page_io, self._allocator, leader_name)
        file.refresh_address_cache({pn: page.address for pn, page in bucket.items()})
        return file

    def _recover_root(self) -> Directory:
        """Find (or rebuild) the descriptor file and the root directory."""
        descriptor_key = self._find_descriptor()
        root_key = None
        if descriptor_key is not None:
            root_key = self._root_from_descriptor(descriptor_key)
        if root_key is None:
            root_key = self._largest_directory()
        if root_key is None:
            root = self._create_root()
        else:
            try:
                root = Directory(self._open_swept_file(*root_key))
            except (FileFormatError, HintFailed):
                root = self._create_root()
            else:
                try:
                    root.entries()
                except DirectoryError:
                    # A crash tore the root's entry list mid-rewrite.  "If a
                    # directory is destroyed, we don't lose any files, but we
                    # do lose some information": truncate it and re-seed the
                    # self-entry; everything it named is rescued as orphans.
                    root.file.write_data(b"")
                    root.add(ROOT_DIRECTORY_NAME, root.file.full_name())
                    self.report.directories_rebuilt += 1
        if descriptor_key is None:
            self._recreate_descriptor()
            # Claiming the standard address may have evicted one of the
            # root's own pages (the root can be created just above, on a
            # pack whose first free sector IS the standard address).
            # _evict_address keeps the swept table current but not this
            # live object, so reopen the root from the table — otherwise
            # the stale leader address ends up inside the new descriptor's
            # root hint and a later mount fails its label check.
            root = Directory(
                self._open_swept_file(root.file.fid.serial, root.file.fid.version)
            )
        # Make the root's DiskDescriptor entry name the true descriptor now,
        # so directory verification and orphan rescue see consistent state
        # (a stale copy elsewhere must not shadow the pinned one).
        descriptor = self._open_swept_file(*self._descriptor_key)
        root.add(DESCRIPTOR_NAME, descriptor.full_name(), replace=True)
        return root

    def _find_descriptor(self) -> Optional[Tuple[int, int]]:
        """The descriptor is the file whose leader sits at the standard
        address (the one absolute location on the pack)."""
        for key, bucket in self._files.items():
            if bucket[0].address == DESCRIPTOR_LEADER_ADDRESS:
                try:
                    file = self._open_swept_file(*key)
                except (FileFormatError, HintFailed):
                    return None
                if file.name == DESCRIPTOR_NAME:
                    self._descriptor_key = key
                    return key
                return None
        return None

    def _root_from_descriptor(self, key: Tuple[int, int]) -> Optional[Tuple[int, int]]:
        try:
            file = self._open_swept_file(*key)
            descriptor = DiskDescriptor.unpack(self.drive.shape, bytes_to_words(file.read_data()))
        except (FileFormatError, HintFailed, ValueError):
            return None
        fid = descriptor.root_directory.fid
        found = (fid.serial, fid.version)
        return found if found in self._files and fid.is_directory else None

    def _largest_directory(self) -> Optional[Tuple[int, int]]:
        """Fallback root: the directory with the most entries; ties go to
        the oldest serial (the main directory is created at format time)."""
        candidates = []
        for key, bucket in self._files.items():
            if not FileId(key[0]).is_directory:
                continue
            try:
                directory = Directory(self._open_swept_file(*key))
                entry_count = len(directory.entries())
            except (FileFormatError, HintFailed, DirectoryError):
                continue
            candidates.append((-entry_count, key[0], key[1], key))
        if not candidates:
            return None
        candidates.sort()
        return candidates[0][3]

    def _next_fid(self, directory: bool = False) -> FileId:
        self._max_counter = next_usable_counter(self._max_counter)
        return FileId(make_serial(self._max_counter, directory=directory))

    def _create_root(self) -> Directory:
        self.report.root_recreated = True
        now = round(self.drive.clock.now_s)
        fid = self._next_fid(directory=True)
        file = AltoFile.create(self.page_io, self._allocator, fid, ROOT_DIRECTORY_NAME, now=now)
        root = Directory(file)
        root.add(ROOT_DIRECTORY_NAME, file.full_name())
        self._register_new_file(file)
        return root

    def _recreate_descriptor(self) -> None:
        """Rebuild the descriptor file, evicting whatever squats at the
        standard address first, then claiming that address directly for the
        new leader (allocate-near cannot pin an exact sector)."""
        from ..disk.geometry import NIL
        from .leader import LeaderPage

        self.report.descriptor_recreated = True
        self._evict_address(DESCRIPTOR_LEADER_ADDRESS)
        now = round(self.drive.clock.now_s)
        fid = self._next_fid()
        leader = LeaderPage(name=DESCRIPTOR_NAME, created=now, written=now, read=now,
                            last_page_number=1)
        leader_label = fid.label_for(0, length=FULL_PAGE, next_link=NIL, prev_link=NIL)
        self.page_io.claim(DESCRIPTOR_LEADER_ADDRESS, leader_label, leader.pack())
        self._allocator.mark_busy(DESCRIPTOR_LEADER_ADDRESS)
        self._free.discard(DESCRIPTOR_LEADER_ADDRESS)
        page1_label = fid.label_for(1, length=0, next_link=NIL,
                                    prev_link=DESCRIPTOR_LEADER_ADDRESS)
        page1_address = self._allocator.allocate(
            self.page_io, page1_label, [], near=DESCRIPTOR_LEADER_ADDRESS
        )
        self._free.discard(page1_address)
        leader_name = FullName(fid, 0, DESCRIPTOR_LEADER_ADDRESS)
        self.page_io.rewrite_label(
            leader_name,
            fid.label_for(0, length=FULL_PAGE, next_link=page1_address, prev_link=NIL),
        )
        file = AltoFile.open(self.page_io, self._allocator, leader_name)
        self._register_new_file(file)
        self._descriptor_key = (fid.serial, fid.version)

    def _evict_address(self, address: int) -> None:
        """Move whichever page occupies *address* somewhere else, fixing its
        neighbours' links and the table."""
        if self._allocator.is_free(address):
            self._allocator.mark_busy(address)
            return
        victim = None
        for bucket in self._files.values():
            for page in bucket.values():
                if page.address == address:
                    victim = page
                    break
            if victim is not None:
                break
        if victim is None:
            # Bad sector or boot page squatting: nothing movable.
            self._allocator.mark_busy(address)
            return
        bucket = self._files.get((victim.serial, victim.version))
        value = self.drive.read_sector(address).value
        new_address = self._allocator.allocate(self.page_io, victim.label(), value)
        # Free the old copy and relink neighbours.
        self._free_swept(victim)
        self._free.discard(new_address)
        victim.address = new_address
        if bucket is not None:
            if victim.page_number - 1 in bucket:
                prev = bucket[victim.page_number - 1]
                self._repair_links(prev, want_next=new_address, want_prev=prev.prev_link)
                self.report.links_repaired -= 1  # bookkeeping move, not a repair
            if victim.page_number + 1 in bucket:
                nxt = bucket[victim.page_number + 1]
                self._repair_links(nxt, want_next=nxt.next_link, want_prev=new_address)
                self.report.links_repaired -= 1
        self._allocator.mark_busy(new_address)
        self._allocator.mark_free(address)
        self._allocator.mark_busy(address)  # reserved for the caller

    def _register_new_file(self, file: AltoFile) -> None:
        """Enter a file created during scavenging into the table."""
        key = (file.fid.serial, file.fid.version)
        bucket: Dict[int, SweptPage] = {}
        for pn in range(0, file.last_page_number + 1):
            name = file.page_name(pn)
            label = self.page_io.read_label(name)
            bucket[pn] = SweptPage(
                address=name.address,
                serial=file.fid.serial,
                version=file.fid.version,
                page_number=pn,
                length=label.length,
                next_link=label.next_link,
                prev_link=label.prev_link,
            )
        self._files[key] = bucket

    # ------------------------------------------------------------------------
    # Phase 6: directory verification
    # ------------------------------------------------------------------------

    def _verify_directories(self, root: Directory) -> Set[Tuple[int, int]]:
        """Check every directory entry against the table; fix stale address
        hints, null entries pointing nowhere.

        Returns the set of files referenced by directories *reachable from
        the root* -- a detached directory subtree does account for its files
        on paper, but they would be unfindable, so rescue treats them as
        orphans (the subtree's directories get re-entered in the root, which
        brings their contents back into view).
        """
        root_key = (root.file.fid.serial, root.file.fid.version)
        # Pass 1: repair every directory's entries (hints, dangling refs).
        per_directory: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
        for key in sorted(self._files):
            fid = FileId(key[0], key[1])
            if not fid.is_directory:
                continue
            directory = root if key == root_key else None
            if directory is None:
                try:
                    directory = Directory(self._open_swept_file(*key))
                except (FileFormatError, HintFailed):
                    per_directory[key] = set()
                    continue  # damaged directory file; orphan rescue still works
            referenced_here: Set[Tuple[int, int]] = set()
            self._verify_one_directory(directory, referenced_here)
            per_directory[key] = referenced_here
        # Pass 2: breadth-first reachability from the root.
        reachable = {root_key}
        frontier = [root_key]
        while frontier:
            key = frontier.pop()
            for child in per_directory.get(key, ()):
                if FileId(child[0]).is_directory and child not in reachable:
                    if child in per_directory:
                        reachable.add(child)
                        frontier.append(child)
        referenced: Set[Tuple[int, int]] = set()
        for key in reachable:
            referenced.update(per_directory.get(key, ()))
        referenced.add(root_key)
        return referenced

    def _verify_one_directory(self, directory: Directory, referenced: Set) -> None:
        try:
            words = directory._words()
            parsed = list(Directory._parse(words))
        except DirectoryError:
            # "If a directory is destroyed, we don't lose any files, but we
            # do lose some information."  Truncate it; files it named will
            # be rescued as orphans.
            directory.file.write_data(b"")
            self.report.directories_rebuilt += 1
            return
        self.drive.clock.advance_us(len(parsed) * CPU_PER_ENTRY_US, CPU)
        changed = False
        for offset, length, entry in parsed:
            if entry is None:
                continue
            key = (entry.fid.serial, entry.fid.version)
            bucket = self._files.get(key)
            if bucket is None:
                # Points to a nonexistent file: null the entry.
                words[offset] = 0x0000 | length  # ENTRY_HOLE
                for i in range(1, length):
                    words[offset + i] = 0
                self.report.entries_nulled += 1
                changed = True
                continue
            referenced.add(key)
            true_address = bucket[0].address
            if entry.full_name.address != true_address:
                words[offset + 4] = true_address
                self.report.entries_fixed += 1
                changed = True
        if changed:
            directory.file.write_data(words_to_bytes(words))

    # ------------------------------------------------------------------------
    # Phase 7: orphan rescue via leader names
    # ------------------------------------------------------------------------

    def _rescue_orphans(self, root: Directory, referenced: Set[Tuple[int, int]]) -> None:
        """"If any file remains unaccounted for by directory entries, we can
        make a new entry for it in the main directory, using its leader
        name.  This is the sole function of the leader name." (section 3.5)
        """
        # Directories first: re-entering a detached directory in the root
        # brings its whole subtree back into view, so its contents need no
        # entries of their own.
        for key in sorted(self._files):
            if key in referenced or not FileId(key[0]).is_directory:
                continue
            self._rescue_one(root, key)
            referenced.add(key)
            self._absorb_directory_entries(key, referenced)
        for key in sorted(self._files):
            if key in referenced:
                continue
            self._rescue_one(root, key)
            referenced.add(key)

    def _absorb_directory_entries(self, key: Tuple[int, int], referenced: Set) -> None:
        """Mark everything reachable from directory *key* as referenced."""
        stack = [key]
        while stack:
            current = stack.pop()
            try:
                directory = Directory(self._open_swept_file(*current))
                entries = directory.entries()
            except (FileFormatError, HintFailed, DirectoryError):
                continue
            for entry in entries:
                child = (entry.fid.serial, entry.fid.version)
                if child in self._files and child not in referenced:
                    referenced.add(child)
                    if FileId(child[0]).is_directory:
                        stack.append(child)

    def _rescue_one(self, root: Directory, key: Tuple[int, int]) -> None:
        serial, version = key
        bucket = self._files[key]
        leader_name = FullName(FileId(serial, version), 0, bucket[0].address)
        try:
            contents = self.page_io.read(leader_name)
            leader = LeaderPage.unpack(contents.value)
            name = leader.name
        except (FileFormatError, HintFailed):
            # Corrupt leader: synthesize a name and rewrite the leader so
            # the file is at least reachable.
            name = f"Rescued.{serial:08x}.{version}"
            leader = LeaderPage(name=name)
            self.page_io.write(leader_name, leader.pack())
            self.report.leaders_rewritten += 1
        unique = self._unique_name(root, name)
        if unique != name:
            # Leader names must stay truthful: rename the leader too.
            try:
                contents = self.page_io.read(leader_name)
                leader = LeaderPage.unpack(contents.value).renamed(unique)
            except FileFormatError:
                leader = LeaderPage(name=unique)
            self.page_io.write(leader_name, leader.pack())
            self.report.leaders_rewritten += 1
        root.add(unique, leader_name)
        self.report.orphans_rescued.append(unique)

    @staticmethod
    def _unique_name(root: Directory, name: str) -> str:
        if root.lookup(name) is None:
            return name
        for attempt in range(2, 1000):
            suffix = f"!{attempt}"
            candidate = name[: MAX_NAME_LENGTH - len(suffix)] + suffix
            if root.lookup(candidate) is None:
                return candidate
        raise DirectoryError(f"could not find a unique name for rescued file {name!r}")

    # ------------------------------------------------------------------------
    # Phase 8: descriptor rewrite
    # ------------------------------------------------------------------------

    def _rewrite_descriptor(self, root: Directory) -> None:
        if self._descriptor_key is None:
            self._recreate_descriptor()
        file = self._open_swept_file(*self._descriptor_key)
        lease = self._max_counter + SERIAL_LEASE
        descriptor = DiskDescriptor(
            shape=self.drive.shape,
            serial_counter=lease,
            root_directory=root.full_name(),
            free_map_words=self._allocator.pack(),
        )
        file.write_data(words_to_bytes(descriptor.pack()))
        # Writing may have consumed pages; store the now-final map.
        descriptor.free_map_words = self._allocator.pack()
        file.write_data(words_to_bytes(descriptor.pack()))
        # Make sure the descriptor is in the root (it may have been lost).
        if root.lookup(DESCRIPTOR_NAME) is None:
            root.add(DESCRIPTOR_NAME, file.full_name())
        else:
            entry = root.require(DESCRIPTOR_NAME)
            if entry.full_name.address != file.leader_address():
                root.update_hint(DESCRIPTOR_NAME, file.leader_address())
                self.report.entries_fixed += 1


def scavenge(drive: DiskDrive) -> ScavengeReport:
    """Convenience wrapper: run a full scavenge on *drive*."""
    return Scavenger(drive).scavenge()

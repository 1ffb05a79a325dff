"""Consistency checking: every invariant of section 3, verified in place.

Where the :class:`~repro.fs.scavenger.Scavenger` *repairs*, ``check_image``
merely *reports*: it inspects a pack's raw state (no timing, no writes) and
returns every violation of the paper's invariants it can find.  Tests use
it as their oracle; users can run it the way one runs fsck read-only.

Checked invariants:

* every label parses as free, bad, or a structurally valid in-use label;
* every file's pages number 0..n with no gaps or duplicates;
* page 0 of every file carries a parseable leader page;
* NL/PL links agree with the absolute page numbering;
* L = 512 on the leader and interior pages, L < 512 on the last page;
* the allocation map (if the descriptor is readable) calls no in-use page
  free, and every in-use page's header names an address on the pack;
* every directory entry names an existing file's leader, and the
  descriptor's root pointer resolves.

A caller that checks the same pack again and again (the online maintainer,
at every slice boundary) passes a :class:`PackIndex`, which carries what
one call derived into the next.  ``check_image(image, index)`` re-derives
only the addresses that changed since the index's last call, then only the
files, duplicate groups, directory checks and map bits they imply, and
returns exactly the report a full pass returns, issue order included.
Without an index the call runs the same code on a fresh one: a fresh
index *is* the full check.  The index contract:

* **Logged by the pack:** which addresses' headers and labels changed.
  Every sector logs its own header and label writes in its image's
  :class:`~repro.disk.image.ChangeLog` (``DiskImage.changes``), so the
  log covers every writer -- the drive, a standby's journal replay,
  a fault plan flipping bits, a raw test edit -- without trusting any
  of them to report.  A call reads the views of the logged addresses
  only.  The log is the image's, not the index's: any number of indexes
  read it, and none consumes it.  An index re-derives in full when it is
  handed another image than last time, or after a ``restore`` replaced
  every sector.
* **Compared by identity:** a logged address's ``Sector.header`` and
  ``Sector.label`` views.  Both are frozen and interned by their words
  (``Header.unpack``, ``Label.unpack``), so a rewrite of the same words
  usually yields the very object the index last read and implies nothing.
* **Values compared by identity:** the few values the check parses --
  each file's leader page, and every page of a directory or of a file
  whose leader sits at the descriptor's address.  Values are not logged,
  but a ``Sector.value`` is an immutable tuple that only a write
  replaces, so the index keeps each watched tuple and a call tests it by
  identity; only a replaced tuple is compared word for word, and one
  that holds the same words is kept in its place.

A call that raises leaves its index fresh, so the next call is a full
check.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..disk.geometry import NIL
from ..disk.image import DiskImage
from ..disk.sector import DIRECTORY_SERIAL_FLAG
from ..errors import DirectoryError, FileFormatError
from ..words import bytes_to_words, words_to_bytes
from .descriptor import DESCRIPTOR_LEADER_ADDRESS, DiskDescriptor
from .directory import Directory
from .file import FULL_PAGE
from .leader import LeaderPage
from .names import page_number_from_label, parseable_label


@dataclass(frozen=True)
class Issue:
    """One invariant violation."""

    kind: str
    address: Optional[int]
    detail: str

    def __str__(self) -> str:
        where = f" @{self.address}" if self.address is not None else ""
        return f"[{self.kind}{where}] {self.detail}"


@dataclass
class CheckReport:
    """Everything ``check_image`` found."""

    issues: List[Issue] = field(default_factory=list)
    files: int = 0
    directories: int = 0
    free_pages: int = 0
    bad_pages: int = 0

    @property
    def clean(self) -> bool:
        return not self.issues

    def kinds(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for issue in self.issues:
            out[issue.kind] = out.get(issue.kind, 0) + 1
        return out

    def note(self, kind: str, address: Optional[int], detail: str) -> None:
        self.issues.append(Issue(kind, address, detail))


def check_image(image: DiskImage, index: Optional["PackIndex"] = None) -> CheckReport:
    """Inspect a pack; returns a :class:`CheckReport` (no writes, no time).

    With *index*, only what changed since the index's last call is
    re-derived (see the module docstring); the report is the same.
    """
    if index is None:
        index = PackIndex()
    try:
        return index._check(image)
    except BaseException:
        index._reset(None)  # never resume from a half-applied update
        raise


#: ``PackIndex.descriptor_key`` before the first read (None means "no
#: candidate", which is a result too).
_UNREAD = object()


class _File:
    """One file's pages, and what the check derived from them."""

    __slots__ = ("pages", "issues", "first", "leader", "values", "entries")

    def __init__(self) -> None:
        #: Page number -> addresses holding that page, ascending; the
        #: first one wins and the rest are duplicates.
        self.pages: Dict[int, List[int]] = {}
        self.issues: List[Issue] = []
        self.first = 0  # lowest address holding any page: full-pass order
        self.leader: Optional[int] = None  # page 0's header address
        #: Watched address -> the value tuple the check last parsed there.
        self.values: Dict[int, Tuple[int, ...]] = {}
        #: A directory's ``(name, fid, hint)`` entries, or its
        #: ``bad-directory`` issue; None for other files and headless ones.
        self.entries = None


class PackIndex:
    """What :func:`check_image` last saw of a pack, and what it implied.

    Hand the same index to every call on one pack; each call then costs
    what changed since the last one: the logged addresses, the watched
    values, and the work they imply.
    """

    def __init__(self) -> None:
        #: Calls that re-derived every address (first sight of an image,
        #: a restore, a raise).
        self.full_passes = 0
        self._reset(None)

    def _reset(self, image: Optional[DiskImage]) -> None:
        self.image = image
        self.stamp = 0  # how far this index has read the image's change log
        total = len(image) if image is not None else 0
        self.headers: List = [None] * total
        self.labels: List = [None] * total
        self.free_pages = self.bad_pages = 0
        self.files: Dict[Tuple[int, int], _File] = {}
        self.order: List[Tuple[int, int]] = []  # file keys, sorted
        self.pass1: Dict[int, Issue] = {}  # garbage and duplicate labels
        self.pass4: List[Issue] = []
        self.descriptor_key: object = _UNREAD
        self.descriptor: Optional[DiskDescriptor] = None
        self.descriptor_issue: Optional[Issue] = None
        self.map_words: Optional[List[int]] = None
        self.allocator = None
        #: In-use address -> its map issue (the map calls it free, or its
        #: header names an address off the pack).
        self.map_issues: Dict[int, Issue] = {}
        self.last: Optional[CheckReport] = None

    def _check(self, image: DiskImage) -> CheckReport:
        logged = image.changes.since(self.stamp) if image is self.image else None
        if logged is None:
            self._reset(image)
            self.full_passes += 1
            logged = range(len(image))
        self.stamp = image.changes.stamp
        sectors = image.sector_list()
        headers, labels, files = self.headers, self.labels, self.files
        dirty = set()  # file keys to re-derive
        for key, file in files.items():
            values = file.values
            for address, seen in values.items():
                value = sectors[address].value
                if value is not seen:
                    if value != seen:
                        dirty.add(key)
                        break
                    values[address] = value  # rewritten with the same words

        # -- pass 1: labels, address by address ------------------------------------
        changed = []  # logged addresses whose header or label view differs
        groups = set()  # (file key, page number) whose holders changed
        for address in logged:
            sector = sectors[address]
            header, label = sector.header, sector.label
            old = labels[address]
            if label is old and header is headers[address]:
                continue
            changed.append(address)
            headers[address] = header
            labels[address] = label
            if old is not None:
                self._tally(address, old, -1, groups, dirty)
            self._tally(address, label, 1, groups, dirty)
        if not changed and not dirty and self.last is not None:
            return replace(self.last, issues=list(self.last.issues))
        pass1 = self.pass1
        for key, page_number in groups:
            file = files.get(key)
            holders = file.pages.get(page_number) if file is not None else None
            if not holders:
                continue
            winner = holders[0]
            pass1.pop(winner, None)
            for loser in holders[1:]:
                pass1[loser] = Issue(
                    "duplicate-page", headers[loser].address,
                    f"(serial {key[0]:#x}, page {page_number}) also at "
                    f"{headers[winner].address}",
                )

        # -- pass 2: per-file structure, for the files that changed -----------------
        for key in dirty:
            file = files[key]
            if file.pages:
                self._derive(key, file, sectors)
            else:
                del files[key]
        if dirty:
            self.order = sorted(files)

        # -- pass 3: the descriptor and map -------------------------------------------
        candidate = min(((file.first, key) for key, file in files.items()
                         if file.leader == DESCRIPTOR_LEADER_ADDRESS), default=None)
        key = candidate[1] if candidate is not None else None
        if key != self.descriptor_key or key in dirty:
            self.descriptor_key = key
            self._read_descriptor(key, sectors)
        descriptor = self.descriptor
        pass3 = [self.descriptor_issue] if self.descriptor_issue else []
        if descriptor is None:
            self.map_words = None
        else:
            recheck = changed
            if descriptor.free_map_words != self.map_words:
                self.allocator = descriptor.allocator()
                self.map_words = descriptor.free_map_words
                self.map_issues.clear()
                recheck = range(len(sectors))  # a new map: every bit
            allocator, issues, total = self.allocator, self.map_issues, len(sectors)
            for address in recheck:
                issues.pop(address, None)
                if labels[address].in_use:
                    named = headers[address].address
                    if named >= total:
                        issues[address] = Issue(
                            "off-pack-header", address,
                            f"header names address {named}, off the pack")
                    elif allocator.is_free(named):
                        issues[address] = Issue(
                            "map-lies-free", named,
                            "allocation map calls an in-use page free")
            pass3 += [issues[address] for address in sorted(issues)]
            root = descriptor.root_directory.fid
            if (root.serial, root.version) not in files:
                pass3.append(Issue("dangling-root", None,
                                   f"descriptor names nonexistent root {root.serial:#x}"))

        # -- pass 4: directory entries, whenever any file changed ---------------------
        if dirty:
            self.pass4 = self._check_entries()

        issues = [pass1[address] for address in sorted(pass1)]
        for key in self.order:
            issues += files[key].issues
        self.last = CheckReport(
            issues=issues + pass3 + self.pass4,
            files=len(files),
            directories=sum(1 for serial, _ in self.order
                            if serial & DIRECTORY_SERIAL_FLAG),
            free_pages=self.free_pages,
            bad_pages=self.bad_pages,
        )
        return replace(self.last, issues=list(self.last.issues))

    def _tally(self, address: int, label, sign: int, groups: set, dirty: set) -> None:
        """Learn (*sign* 1) or retract (-1) what one address's label implies."""
        if label.is_free:
            self.free_pages += sign
        elif label.is_bad:
            self.bad_pages += sign
        elif not parseable_label(label):
            if sign > 0:
                self.pass1[address] = Issue(
                    "garbage-label", self.headers[address].address,
                    f"unparseable in-use label {label.pack()}")
            else:
                del self.pass1[address]
        else:
            key = (label.serial, label.version)
            page_number = page_number_from_label(label)
            groups.add((key, page_number))
            dirty.add(key)
            if sign > 0:
                file = self.files.get(key)
                if file is None:
                    file = self.files[key] = _File()
                insort(file.pages.setdefault(page_number, []), address)
            else:
                self.pass1.pop(address, None)  # a duplicate-page, if it lost
                pages = self.files[key].pages
                pages[page_number].remove(address)
                if not pages[page_number]:
                    del pages[page_number]

    def _derive(self, key: Tuple[int, int], file: _File, sectors) -> None:
        """Re-derive one file's issues, watched values and entries."""
        bucket = {pn: sectors[holders[0]] for pn, holders in file.pages.items()}
        file.issues = _file_issues(key, bucket)
        file.first = min(holders[0] for holders in file.pages.values())
        leader = bucket.get(0)
        file.leader = leader.header.address if leader is not None else None
        directory = bool(key[0] & DIRECTORY_SERIAL_FLAG)
        watched = (bucket if directory or file.leader == DESCRIPTOR_LEADER_ADDRESS
                   else [0] if leader is not None else [])
        file.values = {file.pages[pn][0]: bucket[pn].value for pn in watched}
        file.entries = None
        if directory and leader is not None:
            try:
                file.entries = _parse_directory_bytes(_file_bytes(bucket))
            except DirectoryError as exc:
                file.entries = Issue("bad-directory", leader.header.address,
                                     f"directory serial {key[0]:#x}: {exc}")

    def _read_descriptor(self, key, sectors) -> None:
        self.descriptor = self.descriptor_issue = None
        if key is None:
            self.descriptor_issue = Issue(
                "no-descriptor", DESCRIPTOR_LEADER_ADDRESS,
                "no file's leader sits at the standard address")
            return
        bucket = {pn: sectors[holders[0]]
                  for pn, holders in self.files[key].pages.items()}
        try:
            self.descriptor = DiskDescriptor.unpack(
                self.image.shape, bytes_to_words(_file_bytes(bucket)))
        except FileFormatError as exc:
            self.descriptor_issue = Issue("bad-descriptor", DESCRIPTOR_LEADER_ADDRESS, str(exc))

    def _check_entries(self) -> List[Issue]:
        out: List[Issue] = []
        files = self.files
        for key in self.order:
            entries = files[key].entries
            if isinstance(entries, Issue):
                out.append(entries)
                continue
            for name, fid, address in entries or ():
                target = files.get((fid.serial, fid.version))
                if target is None:
                    out.append(Issue("dangling-entry", None,
                                     f"{name!r} names nonexistent serial {fid.serial:#x}"))
                elif target.leader != address:
                    out.append(Issue("stale-entry-hint", address,
                                     f"{name!r} hint {address} is not the leader address"))
        return out


def _file_issues(key: Tuple[int, int], bucket) -> List[Issue]:
    """One file's structural issues; *bucket* maps page number -> sector."""
    serial, version = key
    report = CheckReport()
    tag = f"serial {serial:#x}v{version}"
    pages = sorted(bucket)
    if pages[0] != 0:
        report.note("headless", bucket[pages[0]].header.address,
                    f"{tag} starts at page {pages[0]}")
        return report.issues
    if pages != list(range(len(pages))):
        missing = sorted(set(range(pages[-1] + 1)) - set(pages))
        report.note("gap", None, f"{tag} missing pages {missing}")
    last = pages[-1]
    for pn in pages:
        sector = bucket[pn]
        label = sector.label
        want_next = bucket[pn + 1].header.address if pn + 1 in bucket else NIL
        want_prev = bucket[pn - 1].header.address if pn - 1 in bucket and pn > 0 else NIL
        if label.next_link != want_next:
            report.note("bad-link", sector.header.address,
                        f"{tag} page {pn} NL={label.next_link}, want {want_next}")
        if label.prev_link != want_prev:
            report.note("bad-link", sector.header.address,
                        f"{tag} page {pn} PL={label.prev_link}, want {want_prev}")
        if pn < last and label.length != FULL_PAGE:
            report.note("bad-length", sector.header.address,
                        f"{tag} page {pn} is interior with L={label.length}")
        if pn == last and pn > 0 and label.length >= FULL_PAGE:
            report.note("ragged-end", sector.header.address,
                        f"{tag} last page has L={label.length}")
    if len(pages) < 2:
        report.note("bare-leader", bucket[0].header.address,
                    f"{tag} has a leader but no data page")
    try:
        LeaderPage.unpack(bucket[0].value)
    except FileFormatError as exc:
        report.note("bad-leader", bucket[0].header.address, f"{tag}: {exc}")
    return report.issues


def _file_bytes(bucket) -> bytes:
    out = bytearray()
    last = max(bucket)
    for pn in range(1, last + 1):
        if pn not in bucket:
            break
        sector = bucket[pn]
        out += words_to_bytes(sector.value, nbytes=min(sector.label.length, FULL_PAGE))
    return bytes(out)


def _parse_directory_bytes(data: bytes):
    words = bytes_to_words(data)
    out = []
    for _offset, _length, entry in Directory._parse(words):
        if entry is not None:
            out.append((entry.name, entry.fid, entry.full_name.address))
    return out

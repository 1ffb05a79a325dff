"""Using hints: the recovery ladder of section 3.6.

"If this direct access fails ..., the program has several options:

  1. It may have a full name for some other portion of the file (typically,
     the leader page) which is correct.  Then it can follow links from that
     page, still avoiding the directory lookup.  Hint addresses can also be
     kept for every k-th page of the file to reduce the number of links
     that must be followed.
  2. If this fails, it may look up the FV in a directory to obtain the
     proper disk address.
  3. If this fails, it may look up the string name of the file in a
     directory to obtain a new FV and disk address.
  4. Finally, it may invoke the Scavenger to reconstruct the entire file
     system and all the directories, and then retry one of the earlier
     steps."

``HintLadder`` implements that exact sequence, counting which rung finally
succeeded (benchmark E3 decomposes access cost by rung).  ``KthPageHints``
is the every-k-pages hint table, and ``ConsecutiveReader`` is the
address-arithmetic trick for files "thought to be allocated consecutively":
compute the address of page j as a_i + j - i and let the label check catch
the lie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..disk.geometry import NIL
from ..errors import FileNotFound, HintFailed
from ..obs import MetricsRegistry
from .directory import Directory
from .names import FileId, FullName
from .page import PageContents, PageIO

#: Ladder rung names, in the order they are tried.
RUNGS = ("direct", "known-page", "directory-fv", "directory-name", "scavenge")


class KthPageHints:
    """Address hints for every k-th page of a file (section 3.6).

    Bounds the link walk after a failed direct hint to at most k-1 follows
    from the nearest kept hint.
    """

    def __init__(self, fid: FileId, k: int) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.fid = fid
        self.k = k
        self._hints: Dict[int, int] = {}

    def note(self, page_number: int, address: int) -> None:
        """Record a verified address; kept only when page_number % k == 0."""
        if page_number % self.k == 0:
            self._hints[page_number] = address

    def build(self, file) -> None:
        """Populate from an open file's verified page addresses."""
        for pn in range(0, file.last_page_number + 1):
            if pn % self.k == 0:
                self.note(pn, file.page_name(pn).address)

    def nearest(self, page_number: int) -> Optional[FullName]:
        """The hinted page closest to *page_number*, if any."""
        if not self._hints:
            return None
        best = min(self._hints, key=lambda pn: abs(pn - page_number))
        return FullName(self.fid, best, self._hints[best])

    def invalidate(self, page_number: int) -> None:
        self._hints.pop(page_number, None)

    def __len__(self) -> int:
        return len(self._hints)


class HintLadder:
    """Resolve and read file pages, falling down the rungs of section 3.6.

    Counts which rung resolved each access (``fs.ladder.rung.<rung>``) and
    the links its walks followed (``fs.ladder.link_follows``) in a registry
    of its own, read back through :meth:`stats`: a fresh ladder starts at
    zero, and the clock's registry sums every ladder.
    """

    def __init__(self, fs, scavenge_allowed: bool = True) -> None:
        self.fs = fs
        self.page_io: PageIO = fs.page_io
        self.registry = MetricsRegistry(parent=fs.drive.clock.obs.registry)
        self._c_link_follows = self.registry.counter("fs.ladder.link_follows")
        self._c_rungs = {rung: self.registry.counter(f"fs.ladder.rung.{rung}")
                         for rung in RUNGS}
        self.scavenge_allowed = scavenge_allowed

    def stats(self) -> Dict[str, int]:
        """This ladder's counters as one flat snapshot, keyed by full name."""
        return self.registry.snapshot()

    # ------------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------------

    def read_page(
        self,
        name: str,
        hint: FullName,
        known: Optional[FullName] = None,
        kth: Optional[KthPageHints] = None,
    ) -> PageContents:
        """Read the page *hint* names, trying each rung in turn.

        ``name`` is the file's string name (for rungs 3-4); ``known`` is a
        correct full name for some other portion of the file (typically the
        leader); ``kth`` is an optional every-k-pages hint table.
        """
        obs = self.fs.drive.clock.obs
        with obs.span("fs.read_page", "fs", file=name,
                      page=hint.page_number) as outer:
            # Rung 0: direct access through the hint.
            try:
                with obs.span("hints.direct", "hints"):
                    contents = self.page_io.read(hint)
                self._c_rungs["direct"].inc()
                outer.annotate(rung="direct")
                return contents
            except HintFailed:
                pass

            # Rung 1: follow links from a known page / the k-th page hints.
            start = None
            if kth is not None:
                start = kth.nearest(hint.page_number)
            if start is None:
                start = known
            if start is not None:
                try:
                    with obs.span("hints.known-page", "hints"):
                        contents = self._walk_and_read(start, hint.page_number)
                    self._c_rungs["known-page"].inc()
                    outer.annotate(rung="known-page")
                    return contents
                except HintFailed:
                    pass

            # Rung 2: look up the FV in a directory for the proper address.
            leader = self._lookup_by_fid(hint.fid)
            if leader is not None:
                try:
                    with obs.span("hints.directory-fv", "hints"):
                        contents = self._walk_and_read(leader, hint.page_number)
                    self._c_rungs["directory-fv"].inc()
                    outer.annotate(rung="directory-fv")
                    return contents
                except HintFailed:
                    pass

            # Rung 3: look up the string name for a (possibly new) FV.
            try:
                with obs.span("hints.directory-name", "hints"):
                    entry = self.fs.root.require(name)
                    contents = self._walk_and_read(entry.full_name, hint.page_number)
                self._c_rungs["directory-name"].inc()
                outer.annotate(rung="directory-name")
                return contents
            except (FileNotFound, HintFailed):
                pass

            # Rung 4: invoke the Scavenger, then retry from the directory.
            if not self.scavenge_allowed:
                raise HintFailed(f"all rungs failed for {name!r} page {hint.page_number}")
            from .filesystem import FileSystem
            from .scavenger import Scavenger

            with obs.span("hints.scavenge", "hints"):
                Scavenger(self.fs.drive).scavenge()
                remounted = FileSystem.mount(self.fs.drive)
                self.fs.__dict__.update(remounted.__dict__)  # refresh in place
                entry = self.fs.root.require(name)
                contents = self._walk_and_read(entry.full_name, hint.page_number)
            self._c_rungs["scavenge"].inc()
            outer.annotate(rung="scavenge")
            return contents

    # ------------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------------

    def _walk_and_read(self, start: FullName, target: int) -> PageContents:
        """Follow links from *start* to *target*, counting follows."""
        current = start
        label = self.page_io.read_label(current)
        while current.page_number != target:
            step = PageContents(current, label)
            nxt = step.next_name if current.page_number < target else step.prev_name
            if nxt is None:
                raise HintFailed(f"chain from {start} ends before page {target}")
            self._c_link_follows.inc()
            current = nxt
            label = self.page_io.read_label(current)
        result = self.page_io.read(current)
        return result

    def _lookup_by_fid(self, fid: FileId) -> Optional[FullName]:
        """Scan the root directory for an entry with this FV."""
        for entry in self.fs.root.entries():
            if entry.fid == fid:
                return entry.full_name
        return None


@dataclass
class ConsecutiveStats:
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ConsecutiveReader:
    """Address arithmetic for files thought to be consecutive (section 3.6).

    "A program is free to assume that a file is consecutive and, knowing
    the address a_i of page i, to compute the address of page j as
    a_i + j - i.  The label check will prevent any incorrect overwriting of
    data, and will inform the program whether the disk access succeeds."
    """

    def __init__(self, page_io: PageIO, file) -> None:
        self.page_io = page_io
        self.file = file
        self.stats = ConsecutiveStats()

    def read_page(self, page_number: int) -> PageContents:
        """Read by arithmetic from the leader address; fall back to links."""
        base = self.file.leader_address()
        guess = base + page_number
        if guess < self.page_io.drive.shape.total_sectors():
            name = FullName(self.file.fid, page_number, guess)
            try:
                contents = self.page_io.read(name)
                self.stats.hits += 1
                return contents
            except HintFailed:
                self.stats.misses += 1
        else:
            self.stats.misses += 1
        return self.file.read_page(page_number)

"""Files: allocation units built from pages (section 3.2).

"A file is a set of pages with absolute names (FV, 0), (FV, 1) ... (FV, n).
The name of page (FV, 0) is also the name of the file.  The basic
operations on files are: create a new, empty file; add a page to the end of
a file; delete one or more pages from the end; delete the entire file."

Representation invariants (exactly the paper's):

* page 0 is the leader page (L = 512, full of properties);
* pages 1 .. n-1 are full data pages (L = 512);
* page n, the last page, has L < 512 -- so a file whose byte length is a
  multiple of 512 ends with an empty page, and end-of-file is decidable
  from L alone;
* every file has at least pages 0 and 1 (an empty file is leader + one
  empty data page).

``AltoFile`` keeps a per-page address cache.  Every entry is a hint: each
disk operation re-verifies identity via the label check, and a stale entry
is dropped and re-derived by walking links -- never trusted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..disk.geometry import NIL
from ..disk.sector import VALUE_WORDS, _page_value, value_words
from ..errors import FileFormatError, HintFailed
from ..words import PAGE_DATA_BYTES, bytes_to_words, words_to_bytes
from .allocator import PageAllocator
from .leader import LeaderPage, check_name
from .names import FileId, FullName
from .page import PageContents, PageIO

#: L of every non-last page.
FULL_PAGE = PAGE_DATA_BYTES  # 512


class AltoFile:
    """One open file: its identity, leader, and page-address hints."""

    def __init__(
        self,
        page_io: PageIO,
        allocator: PageAllocator,
        fid: FileId,
        leader_address: int,
        leader: LeaderPage,
        last_page_number: int,
        last_length: int,
    ) -> None:
        self.page_io = page_io
        self.allocator = allocator
        self.fid = fid
        self.leader = leader
        self._addresses: Dict[int, int] = {0: leader_address}
        self._last_page_number = last_page_number
        self._last_length = last_length

    # ------------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        page_io: PageIO,
        allocator: PageAllocator,
        fid: FileId,
        name: str,
        now: int = 0,
        near: Optional[int] = None,
    ) -> "AltoFile":
        """Create a new, empty file: a leader page plus one empty data page.

        Three label writes -- leader claim, data-page claim, leader link
        rewrite -- each costing the allocate revolution of section 3.3.
        """
        check_name(name)
        leader = LeaderPage(name=name, created=now, written=now, read=now, last_page_number=1)
        # Claim the leader first (its NL is fixed up once page 1 has a home).
        leader_label = fid.label_for(0, length=FULL_PAGE, next_link=NIL, prev_link=NIL)
        # A leader's pack checks each field as it packs it.
        leader_address = allocator._allocate_value(page_io, leader_label, _page_value(leader.pack()), near)
        # Claim the empty data page, linked back to the leader.
        page1_label = fid.label_for(1, length=0, next_link=NIL, prev_link=leader_address)
        page1_address = allocator._allocate_value(page_io, page1_label, _page_value(()), leader_address)
        # Fix the leader's forward link (change-label operation: one revolution).
        leader_name = FullName(fid, 0, leader_address)
        page_io.rewrite_label(
            leader_name, fid.label_for(0, length=FULL_PAGE, next_link=page1_address, prev_link=NIL)
        )
        out = cls(page_io, allocator, fid, leader_address, leader, last_page_number=1, last_length=0)
        out._addresses[1] = page1_address
        out.leader = leader.with_last_page(1, page1_address)
        out._write_leader()
        return out

    @classmethod
    def open(cls, page_io: PageIO, allocator: PageAllocator, leader_name: FullName) -> "AltoFile":
        """Open a file from its full name, reading the leader page.

        The leader's last-page hint is verified (it is only a hint); if it
        is stale the last page is found by walking links.
        """
        contents = page_io.read(leader_name)
        leader = LeaderPage.unpack(contents.value)
        out = cls(
            page_io,
            allocator,
            leader_name.fid,
            leader_name.address,
            leader,
            last_page_number=0,
            last_length=0,
        )
        out._locate_last(contents)
        return out

    def _locate_last(self, leader_contents: PageContents) -> None:
        """Find the true last page, trying the leader hint first."""
        hint_pn = self.leader.last_page_number
        hint_addr = self.leader.last_page_address
        if hint_pn > 0 and hint_addr != NIL:
            try:
                label = self.page_io.read_label(FullName(self.fid, hint_pn, hint_addr))
                if label.next_link == NIL:
                    self._addresses[hint_pn] = hint_addr
                    self._last_page_number = hint_pn
                    self._last_length = label.length
                    return
            except HintFailed:
                pass  # stale hint; fall through to the link walk
        # Walk forward from the leader.
        current = PageContents(FullName(self.fid, 0, self.leader_address()), leader_contents.label)
        label = leader_contents.label
        while label.next_link != NIL:
            nxt = current.next_name
            label = self.page_io.read_label(nxt)
            self._addresses[nxt.page_number] = nxt.address
            current = PageContents(nxt, label)
        if current.name.page_number == 0:
            raise FileFormatError(f"file {self.fid.serial:#x} has no data page after the leader")
        self._last_page_number = current.name.page_number
        self._last_length = label.length

    # ------------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.leader.name

    def leader_address(self) -> int:
        return self._addresses[0]

    def full_name(self) -> FullName:
        """The file's full name (the full name of its leader page)."""
        return FullName(self.fid, 0, self.leader_address())

    @property
    def last_page_number(self) -> int:
        return self._last_page_number

    @property
    def byte_length(self) -> int:
        """Data bytes: full pages 1..n-1 plus L of the last page."""
        return (self._last_page_number - 1) * FULL_PAGE + self._last_length

    def page_count(self) -> int:
        """All pages including the leader."""
        return self._last_page_number + 1

    # ------------------------------------------------------------------------
    # Page name resolution (cache + link walking)
    # ------------------------------------------------------------------------

    def page_name(self, page_number: int) -> FullName:
        """A full name (with verified address) for page *page_number*.

        Uses the cache when possible; otherwise walks links from the nearest
        cached page, caching every step.  Raises :class:`HintFailed` if the
        page does not exist.
        """
        if not 0 <= page_number <= self._last_page_number:
            raise HintFailed(
                f"file {self.fid.serial:#x} has pages 0..{self._last_page_number}, "
                f"asked for {page_number}"
            )
        cached = self._addresses.get(page_number)
        if cached is not None:
            return FullName(self.fid, page_number, cached)
        return self._walk_to(page_number)

    def _walk_to(self, page_number: int) -> FullName:
        start_pn = min(self._addresses, key=lambda pn: abs(pn - page_number))
        current = FullName(self.fid, start_pn, self._addresses[start_pn])
        label = self.page_io.read_label(current)
        while current.page_number != page_number:
            step = PageContents(current, label)
            nxt = step.next_name if current.page_number < page_number else step.prev_name
            if nxt is None:
                raise HintFailed(f"link chain of file {self.fid.serial:#x} ends at {current}")
            label = self.page_io.read_label(nxt)
            self._addresses[nxt.page_number] = nxt.address
            current = nxt
        return current

    def _forget(self, page_number: int) -> None:
        self._addresses.pop(page_number, None)

    def _retrying(self, page_number: int, operation):
        """Run a page operation, re-resolving once if the cache was stale."""
        name = self.page_name(page_number)
        try:
            return operation(name)
        except HintFailed:
            if page_number == 0:
                raise  # the leader hint comes from outside; let the ladder act
            self._forget(page_number)
            # A stale address hint may be mirrored by a stale sector-cache
            # entry on a caching drive; both are hints, both get dropped.
            self.page_io.invalidate(name.address)
            try:
                name = self.page_name(page_number)
            except HintFailed:
                # The neighbour the walk started from moved too (compaction
                # moves pages wholesale): keep only the leader's address,
                # which comes from outside, and walk from there.
                self._addresses = {0: self._addresses[0]}
                name = self.page_name(page_number)
            return operation(name)

    # ------------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------------

    def read_page(self, page_number: int) -> PageContents:
        """Read one page's data (identity-checked)."""
        contents = self._retrying(page_number, self.page_io.read)
        if contents.label.next_link != NIL:
            self._addresses[page_number + 1] = contents.label.next_link
        return contents

    def read_data(self) -> bytes:
        """All data bytes (pages 1..n, honouring L of the last page)."""
        out = bytearray()
        for pn in range(1, self._last_page_number + 1):
            contents = self.read_page(pn)
            out += words_to_bytes(contents.value, nbytes=contents.label.length)
        return bytes(out)

    # ------------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------------

    # Each public page write checks its buffer with value_words and takes
    # the one value path beneath it, which FileServer._do_write and
    # write_data enter with _page_value output.

    def write_full_page(self, page_number: int, data: Sequence[int]) -> None:
        """Overwrite a non-last data page (must already have L = 512)."""
        if len(data) != VALUE_WORDS:
            raise ValueError(f"interior pages take exactly {VALUE_WORDS} words")
        self._write_full_value(page_number, value_words(data))

    def _write_full_value(self, page_number: int, value: Sequence[int]) -> None:
        if not 1 <= page_number < self._last_page_number:
            raise ValueError(f"page {page_number} is not an interior data page")
        self._retrying(page_number, lambda name: self.page_io._write_value(name, value))

    def write_last_page(self, data: Sequence[int], length: int) -> None:
        """Overwrite the last page and set its byte length L.

        When L changes this is the change-length operation of section 3.3
        (label read/check, then rewrite: one revolution); when L is
        unchanged it is an ordinary single-pass write.  *data* goes through
        :func:`value_words` before either, so a buffer it refuses changes
        nothing.
        """
        if len(data) * 2 < length:
            raise ValueError(f"{len(data)} words cannot hold {length} bytes")
        self._write_last_value(value_words(data), length)

    def _write_last_value(self, value: Sequence[int], length: int) -> None:
        if not 0 <= length < FULL_PAGE:
            raise ValueError(f"last-page length must be in [0, {FULL_PAGE}), got {length}")
        pn = self._last_page_number
        if length == self._last_length:
            self._retrying(pn, lambda name: self.page_io._write_value(name, value))
        else:
            def rewrite(name: FullName) -> None:
                self.page_io.update_label(
                    name,
                    lambda label: self.fid.label_for(
                        pn, length=length, next_link=NIL, prev_link=label.prev_link
                    ),
                )
                self.page_io._write_value(name, value)

            self._retrying(pn, rewrite)
            self._last_length = length

    def append_page(self, data: Sequence[int], length: int) -> None:
        """Add a page to the end (section 3.2).

        The old last page becomes a full interior page; the new page carries
        the old last page's data role.  Costs: one allocate revolution for
        the claim, one revolution to rewrite the old last label.  *data*
        goes through :func:`value_words` before a page is marked busy, so a
        buffer it refuses changes nothing.
        """
        self._append_value(value_words(data), length)

    def _append_value(self, value: Sequence[int], length: int) -> None:
        if not 0 <= length < FULL_PAGE:
            raise ValueError(f"last-page length must be in [0, {FULL_PAGE}), got {length}")
        old_last = self.page_name(self._last_page_number)
        new_pn = self._last_page_number + 1
        new_label = self.fid.label_for(new_pn, length=length, next_link=NIL, prev_link=old_last.address)
        new_address = self.allocator._allocate_value(self.page_io, new_label, value, old_last.address)
        # Promote the old last page: L becomes 512 and NL points to the new
        # page (the change-length operation: read-check, then rewrite).
        self.page_io.update_label(
            old_last,
            lambda label: self.fid.label_for(
                old_last.page_number,
                length=FULL_PAGE,
                next_link=new_address,
                prev_link=label.prev_link,
            ),
        )
        self._addresses[new_pn] = new_address
        self._last_page_number = new_pn
        self._last_length = length
        self._update_last_page_hint()

    def truncate_last_page(self) -> None:
        """Delete the last page from the end (section 3.2).

        The freed page's predecessor becomes the new last page.  Its L was
        512 (interior pages are full) and the invariant requires L < 512 on
        a last page, so it is rewritten with L = 0: truncation discards its
        bytes from the file.  Callers that want a specific tail length use
        :meth:`write_last_page` afterwards (as :meth:`write_data` does).
        """
        if self._last_page_number <= 1:
            raise ValueError("cannot delete page 1; delete the file instead")
        last = self.page_name(self._last_page_number)
        self.allocator.release(self.page_io, last)
        self._forget(self._last_page_number)
        new_last_pn = self._last_page_number - 1
        new_last = self.page_name(new_last_pn)
        self.page_io.update_label(
            new_last,
            lambda label: self.fid.label_for(
                new_last_pn, length=0, next_link=NIL, prev_link=label.prev_link
            ),
        )
        self._last_page_number = new_last_pn
        self._last_length = 0
        self._update_last_page_hint()

    def write_data(self, data: bytes, now: Optional[int] = None) -> None:
        """Replace the file's entire contents with *data*.

        Reuses existing pages with ordinary single-pass writes wherever
        possible; extends or truncates at the tail.  The leader's written
        date is updated when *now* is given.  The pages' words come from
        :func:`~repro.words.bytes_to_words`, so no loop checks them.
        """
        n_full, last_bytes = divmod(len(data), PAGE_DATA_BYTES)
        target_last = n_full + 1

        # Resize the page chain first: shrink from the tail, then grow with
        # empty pages (appending promotes each old last page to L = 512).
        while self._last_page_number > target_last:
            self.truncate_last_page()
        while self._last_page_number < target_last:
            self._append_value(_page_value(()), 0)

        # Fill interior pages with ordinary single-pass writes.
        for pn in range(1, target_last):
            chunk = data[(pn - 1) * PAGE_DATA_BYTES : pn * PAGE_DATA_BYTES]
            self._write_full_value(pn, _page_value(bytes_to_words(chunk)))

        # Tail page: the change-length operation sets L = last_bytes.
        tail_words = bytes_to_words(data[n_full * PAGE_DATA_BYTES :])
        self._write_last_value(_page_value(tail_words), last_bytes)
        if now is not None:
            self.touch(written=now)

    # ------------------------------------------------------------------------
    # Whole-file operations
    # ------------------------------------------------------------------------

    def delete(self) -> None:
        """Delete the entire file: free every page, last to first."""
        for pn in range(self._last_page_number, -1, -1):
            name = self.page_name(pn)
            self.allocator.release(self.page_io, name)
            self._forget(pn)
        self._last_page_number = 0
        self._last_length = 0

    # ------------------------------------------------------------------------
    # Leader maintenance
    # ------------------------------------------------------------------------

    def touch(self, written: Optional[int] = None, read: Optional[int] = None) -> None:
        """Update access dates in the leader (one ordinary page write)."""
        self.leader = self.leader.touched(written=written, read=read)
        self._write_leader()

    def rename(self, name: str) -> None:
        """Change the leader name (the file's survival name, section 3.5)."""
        self.leader = self.leader.renamed(name)
        self._write_leader()

    def set_consecutive_hint(self, flag: bool) -> None:
        self.leader = self.leader.with_consecutive(flag)
        self._write_leader()

    def _update_last_page_hint(self) -> None:
        self.leader = self.leader.with_last_page(
            self._last_page_number, self._addresses.get(self._last_page_number, NIL)
        )
        self._write_leader()

    def _write_leader(self) -> None:
        name = FullName(self.fid, 0, self.leader_address())
        self.page_io._write_value(name, _page_value(self.leader.pack()))

    def refresh_address_cache(self, addresses: Dict[int, int]) -> None:
        """Install externally derived address hints (e.g. after scavenging)."""
        self._addresses.update(addresses)

    def __repr__(self) -> str:
        return (
            f"AltoFile({self.name!r}, serial={self.fid.serial:#x}, "
            f"pages={self.page_count()}, bytes={self.byte_length})"
        )

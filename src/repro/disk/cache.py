"""A write-back sector cache above the policy-free drive.

The paper's drive (section 3.3) executes one label-checked command per
revolution-ride; every layer above it pays raw per-sector latency.  This
module adds the classic buffer-cache layer between ``repro.fs`` and the
drive: recently used sectors are kept in memory, ordinary data writes are
buffered and written back in elevator order through a
:class:`~repro.disk.scheduler.RequestScheduler`, and repeated reads of a
working set cost memory time instead of revolutions.

The crash guarantees of sections 3.3-3.5 rest on the *order* in which
labels reach the platter: a page's label (its absolute identity) commits
before or together with the data it guards, and the allocate / free /
change-length label rewrites happen in program order.  The cache preserves
that discipline by construction:

* **Label writes are never deferred.**  Any command that writes a header or
  label -- claim, free, change-length, format, scavenger repair -- goes
  straight through to the drive, in program order, exactly as without the
  cache.  (The hardware's write-continuation rule means such a command
  always carries its value too, so the data a label guards lands with it.)
* **Only ordinary data writes are buffered** (the section 3.3 "label is
  checked, at no cost in time" single-pass write).  Reordering those among
  themselves is harmless: losing one in a crash leaves the page's previous
  contents under an unchanged label, one of the states an uncrashed
  execution could also have produced -- the scavenger and the
  prefix-consistency invariant of :mod:`repro.fs.check` already cover it.
* **The cache itself is a hint.**  Every cached label is re-checked against
  the caller's expectation in memory with the hardware's exact wildcard
  semantics; a failed check on a clean entry drops the entry and retries
  against the platter, which remains the only absolute truth.

A flush writes ``CHECK(cached label) + WRITE(value)`` -- the same one-pass
guarded write the uncached path would have issued, so a stale or corrupted
platter can never be silently overwritten.

Coherency is per-drive: all traffic through one ``CachedDrive`` sees its
own buffered writes.  A second drive on the same image (a scavenger after a
crash, a foreign mount) must flush-and-invalidate first -- which
:class:`~repro.fs.scavenger.Scavenger` does, and which a crash does for
free (the buffer dies with the machine; only the platter survives).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from ..clock import SimClock
from ..errors import CheckError
from .drive import Action, DiskDrive, TransferResult
from .image import DiskImage
from .scheduler import RequestScheduler
from .sector import VALUE_WORDS

#: Default cache size in sectors.  128 sectors is 32k data words plus
#: bookkeeping -- half the real machine's memory, the upper end of what a
#: resident buffer pool could plausibly have claimed.
DEFAULT_CACHE_SECTORS = 128

#: Simulated cost of serving one command from memory: a few hundred
#: word-moves at the machine's 800 ns memory cycle.
CACHE_HIT_US = 200

#: Clock tally category for time spent in cache hits.
CACHE = "disk.cache"


class CacheEntry:
    """One cached sector: whatever parts have been seen, plus dirt and pins.

    The header and label are the entry's own lists; the value is an
    immutable tuple, the platter's own while the entry is clean.
    """

    __slots__ = ("header", "label", "value", "dirty", "pins")

    def __init__(self) -> None:
        self.header: Optional[List[int]] = None
        self.label: Optional[List[int]] = None
        self.value: Optional[Tuple[int, ...]] = None
        self.dirty = False
        self.pins = 0


class CachedDrive(DiskDrive):
    """A drive with an LRU write-back sector cache and an elevator queue.

    Drop-in for :class:`~repro.disk.drive.DiskDrive`: the whole per-part
    command interface works unchanged, and with ``cache_sectors=0`` every
    command passes through untouched.  ``flush()`` drains the dirty queue
    in elevator order; :meth:`repro.fs.filesystem.FileSystem.sync` calls it.
    :meth:`stats` holds the cache's ``disk.cache.*`` and the elevator's
    ``disk.sched.*`` metrics beside ``disk.drive.*``, which still counts
    real disk commands only.  A :class:`~repro.disk.faults.FaultPlan`
    given as ``fault_injector`` sees every platter command; while it has
    the machine down, a command served from memory raises its
    :class:`~repro.errors.PowerFailure` too.
    """

    def __init__(
        self,
        image: DiskImage,
        clock: Optional[SimClock] = None,
        fault_injector=None,
        cache_sectors: int = DEFAULT_CACHE_SECTORS,
    ) -> None:
        super().__init__(image, clock, fault_injector)
        self.cache_sectors = cache_sectors
        registry = self.registry
        self.scheduler = RequestScheduler(image.shape, registry=registry)
        self._entries: "OrderedDict[int, CacheEntry]" = OrderedDict()
        self._c_hits = registry.counter("disk.cache.hits")
        self._c_misses = registry.counter("disk.cache.misses")
        self._c_deferred_writes = registry.counter("disk.cache.deferred_writes")
        self._c_write_through = registry.counter("disk.cache.write_through")
        self._c_flushes = registry.counter("disk.cache.flushes")
        self._c_evictions = registry.counter("disk.cache.evictions")
        self._c_invalidations = registry.counter("disk.cache.invalidations")
        self._c_cancelled_writes = registry.counter("disk.cache.cancelled_writes")
        self._c_overflows = registry.counter("disk.cache.overflows")
        self._drain_hist = registry.histogram("disk.cache.drain_sectors")

    # ------------------------------------------------------------------------
    # The command choke point
    # ------------------------------------------------------------------------

    # Inherited unchanged (it validates, flattens, and calls _command); bound
    # here because perfbench/layers.py wraps ``CachedDrive.transfer`` by
    # reading it from this class's own ``__dict__``.
    transfer = DiskDrive.transfer

    def _command(self, address: int, parts: Sequence) -> TransferResult:
        """Intercept the drive's one command path (see
        :meth:`DiskDrive._command`): the first write decides the route."""
        if self.cache_sectors <= 0:
            return DiskDrive._command(self, address, parts)
        for part, action, _data in parts:
            if action is Action.WRITE:
                if part != "value":
                    return self._structural(address, parts)
                if parts[0][0] == "header":
                    return self._pass_through(address, parts)
                return self._deferred_write(address, parts)
        return self._read(address, parts)

    # ------------------------------------------------------------------------
    # Write-through: label-path commands
    # ------------------------------------------------------------------------

    def _structural(self, address: int, parts: Sequence) -> TransferResult:
        """A command that writes a header or label: the crash discipline
        lives here, so it goes to the platter now, in program order.

        The write-continuation rule guarantees the command also writes the
        value, so any buffered data write for this sector is superseded --
        cancelled, not flushed (flushing first would write data the very
        next pass overwrites, a pass the uncached path never made).
        """
        entry = self._entries.get(address)
        if entry is not None and entry.dirty:
            entry.dirty = False
            self.scheduler.discard(address)
            self._c_cancelled_writes.inc()
        self._c_write_through.inc()
        return self._pass_through(address, parts)

    def _pass_through(self, address: int, parts: Sequence) -> TransferResult:
        """Issue the command on the real drive, then refresh the cache from
        what the platter now provably holds."""
        result = DiskDrive._command(self, address, parts)
        self._install(address, parts, result)
        return result

    # ------------------------------------------------------------------------
    # Write-back: ordinary data writes
    # ------------------------------------------------------------------------

    def _deferred_write(self, address: int, parts: Sequence) -> TransferResult:
        """The section 3.3 single-pass guarded data write, buffered.

        The label check runs now, in memory, against the cached label; the
        data lands in the entry and is queued for write-back.  The flush
        re-issues the same guarded one-pass write, so nothing is ever
        written to the platter unchecked.
        """
        if self.fault_injector is not None:  # memory dies with the machine
            self.fault_injector.require_alive()
        entry = self._entries.get(address)
        if (
            entry is None
            or entry.label is None
            or address in self.image.bad_media
            or (address, "label") in self.image.checksum_bad
        ):
            # Cold (or suspect) sector: the first write costs the same
            # guarded pass it would cost uncached, and warms the cache.
            return self._pass_through(address, parts)
        self._touch(address)
        result = TransferResult()
        # No header part; at most a label READ or CHECK before the value.
        if len(parts) == 2:
            _part, action, expected = parts[0]
            if action is Action.READ:
                result.label = list(entry.label)
            else:
                try:
                    result.label = self._check_part(address, "label", expected, entry.label)
                except CheckError:
                    if entry.dirty:
                        raise  # buffered data under a label we no longer trust
                    self._drop(address)  # the cache was the stale hint; ask the platter
                    return self._pass_through(address, parts)
        data = parts[-1][2]
        if len(data) != VALUE_WORDS:
            raise ValueError(f"value write buffer must be {VALUE_WORDS} words")
        entry.value = tuple(data)
        if not entry.dirty:
            entry.dirty = True
        self.scheduler.enqueue(address)
        self._c_deferred_writes.inc()
        self._hit(address, "write")
        return result

    # ------------------------------------------------------------------------
    # Reads and checks
    # ------------------------------------------------------------------------

    def _read(self, address: int, parts: Sequence) -> TransferResult:
        entry = self._entries.get(address)
        if entry is None or address in self.image.bad_media:
            self._c_misses.inc()
            return self._pass_through(address, parts)
        checksum_bad = self.image.checksum_bad
        for part, _action, _data in parts:
            if getattr(entry, part) is None or (address, part) in checksum_bad:
                self._c_misses.inc()
                return self._pass_through(address, parts)
        if self.fault_injector is not None:  # memory dies with the machine
            self.fault_injector.require_alive()
        self._touch(address)
        result = TransferResult()
        for part, action, expected in parts:
            cached = getattr(entry, part)
            if action is Action.READ:
                setattr(result, part, list(cached))
            else:  # CHECK, with the hardware's exact wildcard semantics
                try:
                    effective = self._check_part(address, part, expected, cached)
                except CheckError:
                    if entry.dirty:
                        raise
                    self._drop(address)
                    self._c_misses.inc()
                    return self._pass_through(address, parts)
                setattr(result, part, effective)
        self._hit(address, "read")
        return result

    def _hit(self, address: int, op: str) -> None:
        """Count a command served from memory and charge its time."""
        self._c_hits.inc()
        obs = self.clock.obs
        if obs.tracing:
            with obs.span("disk.cache.hit", "disk", address=address, op=op):
                self.clock.advance_us(CACHE_HIT_US, CACHE)
            return
        self.clock.advance_us(CACHE_HIT_US, CACHE)

    # ------------------------------------------------------------------------
    # Flushing (write-back through the elevator)
    # ------------------------------------------------------------------------

    def flush(self) -> int:
        """Write back every dirty sector, serviced in elevator order.

        Returns the number of sectors written.  A failure (power, torn
        write, check mismatch) propagates with the unserviced tail still
        queued -- exactly the state a crashed controller leaves behind.
        """
        flushed = 0
        with self.clock.obs.span("disk.cache.flush", "disk") as span:
            while True:
                address = self.scheduler.next_address(self.timer.cylinder)
                if address is None:
                    break
                self.flush_address(address)
                flushed += 1
            span.annotate(drained=flushed)
        self._drain_hist.observe(flushed)
        return flushed

    def flush_address(self, address: int) -> None:
        """Write back one sector now (no-op if it is not dirty)."""
        entry = self._entries.get(address)
        if entry is None or not entry.dirty:
            self.scheduler.discard(address)
            return
        DiskDrive._command(self, address, (
            ("label", Action.CHECK, entry.label),
            ("value", Action.WRITE, entry.value),
        ))
        entry.dirty = False
        self.scheduler.mark_serviced(address)
        self._c_flushes.inc()

    def dirty_addresses(self) -> List[int]:
        return self.scheduler.pending()

    # ------------------------------------------------------------------------
    # Pinning and invalidation
    # ------------------------------------------------------------------------

    def pin(self, address: int) -> None:
        """Exempt a sector from eviction (refcounted).  Hot singletons --
        the disk descriptor leader, the root directory -- stay resident."""
        self.shape.check_address(address)
        entry = self._entries.get(address)
        if entry is None:
            entry = self._insert(address)
        entry.pins += 1

    def unpin(self, address: int) -> None:
        entry = self._entries.get(address)
        if entry is not None and entry.pins > 0:
            entry.pins -= 1

    def invalidate(self, address: int) -> None:
        """Drop a sector from the cache, buffered data and all.

        For sectors whose contents became moot (a freed page) or whose
        cached copy is suspected stale (a hint-failure retry path).
        """
        if self._drop(address):
            self._c_invalidations.inc()

    def invalidate_all(self) -> None:
        """Drop everything, *including unflushed writes* -- what a power
        failure does.  Live callers wanting durability flush first (see
        :meth:`flush_and_invalidate`).  Pin counts survive as empty
        placeholders: pinning is a residency promise, not cached data."""
        self._c_invalidations.inc(len(self._entries))
        pinned = {a: e.pins for a, e in self._entries.items() if e.pins > 0}
        self._entries.clear()
        for address, pins in pinned.items():
            placeholder = CacheEntry()
            placeholder.pins = pins
            self._entries[address] = placeholder
        for address in self.scheduler.pending():
            self.scheduler.discard(address)

    def flush_and_invalidate(self) -> None:
        """Make the platter absolute again: write everything back, then
        forget it.  The scavenger calls this before sweeping."""
        self.flush()
        self.invalidate_all()

    # ------------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------------

    def cached_sectors(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------------

    def _touch(self, address: int) -> None:
        self._entries.move_to_end(address)

    def _drop(self, address: int) -> bool:
        """Forget a sector's cached parts; a pin survives as a placeholder."""
        entry = self._entries.pop(address, None)
        self.scheduler.discard(address)
        if entry is not None and entry.pins > 0:
            placeholder = CacheEntry()
            placeholder.pins = entry.pins
            self._entries[address] = placeholder
        return entry is not None

    def _insert(self, address: int) -> CacheEntry:
        entry = self._entries.get(address)
        if entry is not None:
            self._touch(address)
            return entry
        # Evict down to capacity (pins may have held us above it earlier).
        while len(self._entries) >= self.cache_sectors:
            if not self._evict_one():
                break
        entry = CacheEntry()
        self._entries[address] = entry
        return entry

    def _evict_one(self) -> bool:
        """Evict the least recently used unpinned entry, flushing it first
        if dirty.  All pinned: grow past capacity rather than deadlock."""
        for address, entry in self._entries.items():
            if entry.pins == 0:
                if entry.dirty:
                    self.flush_address(address)
                del self._entries[address]
                self.scheduler.discard(address)
                self._c_evictions.inc()
                return True
        self._c_overflows.inc()
        return False

    def _install(self, address: int, parts: Sequence, result: TransferResult) -> None:
        """Refresh the cache from a completed disk command: the value part
        as the platter's own tuple (a READ or CHECK just matched it, a
        WRITE just stored it), a header or label as a fresh list -- from
        the transfer result when read or checked, from the platter when
        written (the entry must not alias the sector's lists)."""
        entry = self._insert(address)
        sector = self.image.sector(address)
        wrote = False
        for part, action, _data in parts:
            if action is Action.WRITE:
                wrote = True
            if part == "value":
                entry.value = sector.value
            elif action is not Action.WRITE:
                setattr(entry, part, list(getattr(result, part)))
            elif part == "label":
                entry.label = list(sector.label_words())
            else:
                entry.header = list(sector.header_words())
        if wrote:
            entry.dirty = False
            self.scheduler.discard(address)

    # ------------------------------------------------------------------------
    # The current-value hook (see DiskDrive.current_value)
    # ------------------------------------------------------------------------

    def current_value(self, address: int) -> List[int]:
        """The logically current data words: buffered copy if one is
        pending, else the platter."""
        entry = self._entries.get(address)
        if entry is not None and entry.dirty and entry.value is not None:
            return list(entry.value)
        return list(self.image.sector(address).value)

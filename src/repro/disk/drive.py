"""The simulated drive: per-part sector commands with hardware semantics.

Section 3.3: "A single disk operation can perform read, check or write
actions independently on each of these parts [header, label, value], with
the restriction that once a write is begun, it must continue through the
rest of the sector.  A check action compares data on the disk with
corresponding data taken from memory, word by word, and aborts the entire
operation if they don't match.  If a memory word is 0, however, it is
replaced by the corresponding disk word, so that a check action is a simple
kind of pattern match."

The drive is policy-free: it knows nothing about files, allocation, or the
label-write discipline.  Those live in ``repro.fs``.  What the drive does
enforce is the hardware contract above, plus the timing model of
``timing.ArmTimer``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..clock import SimClock
from ..obs import MetricsRegistry
from ..errors import (
    BadSectorError,
    CheckError,
    LabelCheckError,
    ReadRetriesExhausted,
    SectorChecksumError,
    TransientReadError,
)
from .image import DiskImage
from .sector import HEADER_WORDS, LABEL_WORDS, VALUE_WORDS, Header, Label, Sector
from .timing import ROTATION, ArmTimer


class Action(enum.Enum):
    """What to do with one part of a sector during a command."""

    NONE = "none"
    READ = "read"
    CHECK = "check"
    WRITE = "write"


_PART_SIZES = {"header": HEADER_WORDS, "label": LABEL_WORDS, "value": VALUE_WORDS}


def merge_check(expected, disk_words):
    """The check action's compare-and-merge, as a bulk operation.

    Same contract as ``merge_check_reference`` in
    ``tests/equivalence/reference.py`` (the word-at-a-time twin the
    equivalence suite pins this against): returns
    ``(effective, None)`` on success, ``(None, (index, want, have))`` at
    the first non-wildcard mismatch.  *disk_words* may be a list (a
    header or label) or a tuple (a value); the effective buffer is always
    a fresh list.

    The dominant case -- a check against exactly what the platter holds
    -- is one C-level list comparison; a wildcard match is one
    comprehension.  Only a mismatch (the failure path) scans word by word.
    """
    disk = list(disk_words)  # the effective buffer on an exact match
    if type(expected) is not list:
        expected = list(expected)
    if expected == disk:
        return disk, None
    if 0 in expected:
        # On success every non-zero word matched, so the merge equals the
        # disk prefix.
        merged = [have if want == 0 else want
                  for want, have in zip(expected, disk)]
        if merged == (disk if len(merged) == len(disk) else disk[: len(merged)]):
            return merged, None
    for i, (want, have) in enumerate(zip(expected, disk)):
        if want != have and want != 0:
            return None, (i, want, have)
    # No non-wildcard mismatch, yet no match above: the buffers differ in
    # length.  Mirror the reference's zip semantics (effective covers the
    # common prefix).
    return disk[: len(expected)], None


def _parts_summary(parts) -> str:
    """Compact ``header:read,label:check`` form for span annotations."""
    return ",".join(f"{part}:{action.value}" for part, action, _data in parts)


#: The bounded retry budget for transient read errors: a marginal read is
#: retried on later revolutions with linearly growing backoff; past the
#: budget the typed :class:`~repro.errors.ReadRetriesExhausted` surfaces.
MAX_READ_RETRIES = 4


@dataclass(slots=True)
class PartCommand:
    """One part's action and (for CHECK/WRITE) its memory buffer."""

    action: Action = Action.NONE
    data: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        if self.action in (Action.CHECK, Action.WRITE) and self.data is None:
            raise ValueError(f"{self.action.value} requires a data buffer")


#: Static (part, action, data) shapes for the read-only convenience
#: commands (READ carries no buffer, so these are fully constant).
_READ_ALL_PARTS = (
    ("header", Action.READ, None),
    ("label", Action.READ, None),
    ("value", Action.READ, None),
)
_READ_LABEL_PARTS = (("label", Action.READ, None),)
_READ_LABEL_VALUE_PARTS = (
    ("label", Action.READ, None),
    ("value", Action.READ, None),
)


@dataclass(slots=True)
class TransferResult:
    """Buffers produced by a command: disk contents for each READ or CHECK
    part (a CHECK buffer has its 0-wildcards replaced by disk words)."""

    header: Optional[List[int]] = None
    label: Optional[List[int]] = None
    value: Optional[List[int]] = None

    def label_object(self) -> Label:
        if self.label is None:
            raise ValueError("label was not read by this transfer")
        return Label.unpack(self.label)

    def header_object(self) -> Header:
        if self.header is None:
            raise ValueError("header was not read by this transfer")
        return Header.unpack(self.header)


class DiskDrive:
    """One spindle holding one pack, exposing the per-part command interface.

    Header and label words are checked as they land on the platter
    (``Sector.set_header_words``/``set_label_words``); value words are not.
    Every caller in ``repro`` hands a command ``value_words`` output, a
    ``LeaderPage``'s pack (each field checked as it is packed), a WRITE
    frame's payload, ``bytes_to_words`` output, ``zero_words`` (the
    scavenger's), platter words or ``FREE_VALUE``, so page values on the
    platter are words by provenance, and checking them here would check
    each write twice.

    *fault_injector*, if given, is a :class:`~repro.disk.faults.FaultPlan`.
    Every command calls its ``before_parts`` hook, every part its
    ``before_part`` hook and every part-write its ``filter_write`` hook, so
    the plan's crashes, tears and transient reads fire where it schedules
    them.
    """

    def __init__(
        self,
        image: DiskImage,
        clock: Optional[SimClock] = None,
        fault_injector=None,
    ) -> None:
        self.image = image
        self.clock = clock if clock is not None else SimClock()
        self.timer = ArmTimer(image.shape, self.clock)
        self.fault_injector = fault_injector
        #: Optional durability observer: called as ``tap(address, part, data)``
        #: after every part-write lands on the platter (never for torn
        #: writes -- the fault plan raises before the tap).  This is the
        #: replication journal's capture point (:mod:`repro.server.replica`).
        self.journal_tap = None
        #: This drive's metrics, read back through :meth:`stats`: a child of
        #: the clock's registry, so drives sharing a clock sum there while
        #: each keeps its own counts; a cached drive's cache and elevator
        #: count here too.  The hot path bumps the counters held below.
        registry = self.registry = MetricsRegistry(parent=self.clock.obs.registry)
        self._c_commands = registry.counter("disk.drive.commands")
        self._c_label_checks = registry.counter("disk.drive.label_checks")
        self._c_label_check_failures = registry.counter("disk.drive.label_check_failures")
        self._c_label_writes = registry.counter("disk.drive.label_writes")
        self._c_value_reads = registry.counter("disk.drive.value_reads")
        self._c_value_writes = registry.counter("disk.drive.value_writes")
        self._c_transient_read_errors = registry.counter("disk.drive.transient_read_errors")
        self._c_read_retries = registry.counter("disk.drive.read_retries")

    @property
    def shape(self):
        return self.image.shape

    def stats(self) -> Dict[str, int]:
        """This drive's metrics as one flat snapshot, keyed by full name
        (``drive.stats()["disk.drive.commands"]``)."""
        return self.registry.snapshot()

    # ------------------------------------------------------------------------
    # The fundamental command
    # ------------------------------------------------------------------------

    def transfer(
        self,
        address: int,
        header: PartCommand = None,
        label: PartCommand = None,
        value: PartCommand = None,
    ) -> TransferResult:
        """Execute one sector command given as one :class:`PartCommand` per part.

        The public adapter over :meth:`_command`: enforces "once a write is
        begun, it must continue through the rest of the sector", flattens
        the parts to ``(part, Action, data)`` triples in head order, and
        validates the address before any time is charged.
        """
        parts = []
        writing = False
        for part, command in (("header", header), ("label", label), ("value", value)):
            action = Action.NONE if command is None else command.action
            if writing and action is not Action.WRITE:
                raise ValueError(
                    f"write begun before {part} must continue: {part} may not be {action.value}"
                )
            if action is Action.WRITE:
                writing = True
            if action is not Action.NONE:
                parts.append((part, action, command.data))
        self.shape.check_address(address)
        return self._command(address, parts)

    def _command(self, address: int, parts: Sequence) -> TransferResult:
        """The one command path: every sector command, from :meth:`transfer`
        and from each convenience command, runs through here.

        *parts* holds a ``(part, Action, data)`` triple for every non-NONE
        part in head order, obeying write continuation; the address is
        already validated.  Positions the arm and head (charging seek +
        rotation), then processes the parts in passing order, charging one
        sector time.  A failed CHECK aborts the remaining parts -- in
        particular a write scheduled *after* the check never happens, "so
        that a subsequent write operation can be aborted before anything is
        written, without taking an extra revolution" (section 3.3).

        Transient read errors (dust, marginal signal -- injected through the
        fault plan) are absorbed here: the pass is retried with linearly
        growing rotational backoff, up to :data:`MAX_READ_RETRIES` times.  The
        write-continuation rule means writes are always a suffix of the
        parts, so an aborted pass has written nothing and the retry is safe.
        Past the budget, :class:`~repro.errors.ReadRetriesExhausted` surfaces
        to the caller with the last transient error chained.

        Observers (the ``disk.transfer`` span, a fault plan) watch this
        same path; neither changes the route.  While tracing is on, the span
        is the per-command record: its ``address``, ``cylinder`` and
        ``parts`` arguments name what the command did.
        :class:`~repro.disk.cache.CachedDrive` overrides it to serve commands
        from memory and reaches the platter through ``DiskDrive._command``.
        """
        obs = self.clock.obs
        if obs.tracing:
            with obs.span("disk.transfer", "disk", address=address,
                          cylinder=self.shape.decompose(address)[0],
                          parts=_parts_summary(parts)):
                return self._execute(address, parts)
        return self._execute(address, parts)

    def _execute(self, address: int, parts: Sequence) -> TransferResult:
        """The body of :meth:`_command` (span-wrapped when tracing)."""
        self._c_commands.inc(1)
        self.timer.position_and_transfer(address)

        if address in self.image.bad_media:
            raise BadSectorError(f"unrecoverable media error at address {address}")
        if self.fault_injector is not None:
            self.fault_injector.before_parts(self, address, parts)

        attempt = 0
        while True:
            try:
                return self._process_parts(address, parts)
            except TransientReadError as exc:
                attempt += 1
                self._c_transient_read_errors.inc(1)
                if attempt > MAX_READ_RETRIES:
                    raise ReadRetriesExhausted(address, attempt) from exc
                self._c_read_retries.inc(1)
                self._retry_backoff(attempt)

    def _process_parts(self, address: int, parts: list) -> TransferResult:
        """One pass over the sector: parts in head order."""
        injector = self.fault_injector
        # The caller validated the address before any time was charged;
        # index the platter directly rather than re-validating per pass.
        sector = self.image._sectors[address]
        if sector is None:
            sector = self.image._materialize(address)
        checksum_bad = self.image.checksum_bad
        result = TransferResult()
        for part, action, data in parts:
            if injector is not None:
                injector.before_part(self, address, part, action.value)
            # The part's packed words, straight from the sector's storage:
            # the sector's own list (header, label) or tuple (value), never
            # mutated here; READ and CHECK results are fresh lists.
            if part == "value":
                disk_words = sector.value
            elif part == "label":
                disk_words = sector.label_words()
            else:
                disk_words = sector.header_words()
            if action is Action.WRITE:
                self._write_part(sector, address, part, data)
                if checksum_bad:
                    checksum_bad.discard((address, part))
                if part == "label":
                    self._c_label_writes.inc(1)
                elif part == "value":
                    self._c_value_writes.inc(1)
            else:
                # A part a torn write left half-written fails its checksum on
                # every read until something writes it afresh.
                if checksum_bad and (address, part) in checksum_bad:
                    raise SectorChecksumError(address, part)
                if action is Action.READ:
                    buffer = list(disk_words)
                else:
                    buffer = self._check_part(address, part, data, disk_words)
                if part == "value":
                    result.value = buffer
                    self._c_value_reads.inc(1)
                elif part == "label":
                    result.label = buffer
                else:
                    result.header = buffer
        return result

    def _retry_backoff(self, attempt: int) -> None:
        """Wait out *attempt* extra revolutions, then re-read the sector."""
        rotation_us = round(self.shape.rotation_ms * 1000)
        self.clock.advance_us(attempt * rotation_us, ROTATION)
        self.timer.transfer_sector()

    # -- helpers ------------------------------------------------------------

    def _check_part(
        self, address: int, part: str, expected: Sequence[int], disk_words: Sequence[int]
    ) -> List[int]:
        """Pattern match via :func:`merge_check`; 0 in memory is a wildcard."""
        if len(expected) != _PART_SIZES[part]:
            raise ValueError(f"{part} check buffer must be {_PART_SIZES[part]} words")
        effective, mismatch = merge_check(expected, disk_words)
        if mismatch is not None:
            i, want, have = mismatch
            if part == "label":
                self._c_label_checks.inc(1)
                self._c_label_check_failures.inc(1)
                raise LabelCheckError(i, want, have)
            raise CheckError(part, i, want, have)
        if part == "label":
            self._c_label_checks.inc(1)
        return effective

    def _write_part(self, sector: Sector, address: int, part: str, data: Sequence[int]) -> None:
        if len(data) != _PART_SIZES[part]:
            raise ValueError(f"{part} write buffer must be {_PART_SIZES[part]} words")
        if self.fault_injector is not None:
            data = self.fault_injector.filter_write(self, address, part, data)
        # The platter never aliases a caller's buffer: a header or label
        # lands as a fresh list, a value as an immutable tuple.
        if part == "header":
            sector.set_header_words(list(data))
        elif part == "label":
            sector.set_label_words(list(data))
        else:
            sector.value = data
        if self.journal_tap is not None:
            self.journal_tap(address, part, data)

    # ------------------------------------------------------------------------
    # Convenience commands (each is exactly one hardware command)
    # ------------------------------------------------------------------------
    #
    # Each shapes a statically valid command (write continuation holds by
    # construction), so it needs only the address check before handing its
    # (part, action, data) triples to _command -- the same path transfer()
    # takes, whatever the drive's type and whoever is observing it.

    def read_sector(self, address: int) -> TransferResult:
        """Read header, label, and value in one pass."""
        self.shape.check_address(address)
        return self._command(address, _READ_ALL_PARTS)

    def read_label(self, address: int) -> Label:
        """Read just the label (the scavenger's sweep primitive)."""
        self.shape.check_address(address)
        return self._command(address, _READ_LABEL_PARTS).label_object()

    def read_label_value(self, address: int) -> TransferResult:
        """Read the label and value in one pass (the sweep's per-sector
        command: both ride the same revolution, section 3.5)."""
        self.shape.check_address(address)
        return self._command(address, _READ_LABEL_VALUE_PARTS)

    def check_label(self, address: int, expected: Label) -> TransferResult:
        """Check just the label; the result's label buffer has the pattern's
        0-wildcards replaced by the disk words (the first pass of the
        change-length sequence)."""
        self.shape.check_address(address)
        return self._command(address, (("label", Action.CHECK, expected.pack()),))

    def write_label_value(self, address: int, label: Label, value: Sequence[int]) -> None:
        """Write the label and value with no preceding check (the second
        pass of the change-length sequence; the first pass did the check)."""
        self.shape.check_address(address)
        self._command(address, (
            ("label", Action.WRITE, label.pack()),
            ("value", Action.WRITE, value),
        ))

    def check_label_read_value(self, address: int, expected: Label) -> TransferResult:
        """Ordinary page read: confirm identity, then take the data.

        One pass; raises :class:`LabelCheckError` when the hint is stale.
        """
        self.shape.check_address(address)
        return self._command(address, (
            ("label", Action.CHECK, expected.pack()),
            ("value", Action.READ, None),
        ))

    def check_label_write_value(
        self, address: int, expected: Label, value: Sequence[int]
    ) -> TransferResult:
        """Ordinary page write: "On any other write the label is checked, at
        no cost in time" (section 3.3).  One pass; aborts before writing when
        the check fails."""
        self.shape.check_address(address)
        return self._command(address, (
            ("label", Action.CHECK, expected.pack()),
            ("value", Action.WRITE, value),
        ))

    def check_label_then_rewrite(
        self,
        address: int,
        expected: Label,
        new_label: Label,
        value: Optional[Sequence[int]] = None,
    ) -> None:
        """Check the label, then rewrite the label (and optionally the value).

        This is the allocate/free/change-length primitive.  The label has
        already passed under the head when the check completes, so rewriting
        it requires a second pass -- one full revolution later.  The timing
        model charges that revolution automatically (section 3.3: "This
        scheme costs a disk revolution each time a page is allocated or
        freed").
        """
        self.shape.check_address(address)
        self._command(address, (("label", Action.CHECK, expected.pack()),))
        self._command(address, (
            ("label", Action.WRITE, new_label.pack()),
            # Once a write begins it must continue through the sector, so a
            # label rewrite alone still rewrites the value with its current
            # contents (the hardware streams it back out).
            ("value", Action.WRITE,
             value if value is not None else self.current_value(address)),
        ))

    def current_value(self, address: int) -> List[int]:
        """The logically current data words of *address* -- what a value
        READ through this drive would return.  The plain drive answers from
        the platter; a caching drive (:class:`repro.disk.cache.CachedDrive`)
        answers from its buffer when a write is pending, so a label rewrite
        that streams the value back out never resurrects stale words."""
        return list(self.image.sector(address).value)

    def write_header_label_value(
        self, address: int, header: Header, label: Label, value: Sequence[int]
    ) -> None:
        """Full sector format (used only by pack formatting and the
        compacting scavenger, which owns the whole disk)."""
        self.shape.check_address(address)
        self._command(address, (
            ("header", Action.WRITE, header.pack()),
            ("label", Action.WRITE, label.pack()),
            ("value", Action.WRITE, value),
        ))

"""Fault injection for robustness experiments.

The paper's central robustness claims (section 3.3, section 6) are about
what happens when things go wrong: stale hints, lying allocation maps,
crashes between related writes, decaying media.  ``FaultPlan`` produces
those wrongs on demand, both *through* the drive (crashes, torn writes --
a power failure mid-sector -- and transient read errors) and *behind* the
drive's back (label scrambling, media decay -- corruption that no software
action caused).  A power failure is one event however it is scheduled:
the begun write leaves a prefix of new words, that part's checksum is
never laid down, and the machine stays down until :meth:`FaultPlan.revive`.

All randomized behaviour goes through an explicitly seeded ``random.Random``
so every campaign is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import PowerFailure, TornWriteError, TransientReadError
from ..words import WORD_MASK
from .drive import Action
from .image import DiskImage
from .sector import Header, Label

#: A sector's parts, in head order.
_PARTS = ("header", "label", "value")

#: Named trace points: one per (part, action) pair the drive can perform.
#: Fault plans address crash points by these names, e.g. ``"label:write"``
#: = the moment a label write reaches the head.
TRACE_POINTS = tuple(
    f"{part}:{action}" for part in _PARTS for action in ("read", "check", "write")
)


def point_name(part: str, action: str) -> str:
    """The canonical trace-point name for one part action."""
    return f"{part}:{action}"


def check_point(name: str) -> str:
    """Validate a trace-point name; returns it unchanged or raises."""
    if name not in TRACE_POINTS:
        raise ValueError(f"unknown trace point {name!r}; one of {', '.join(TRACE_POINTS)}")
    return name


@dataclass
class _TransientReads:
    """A scheduled burst of transient read failures."""

    remaining: int
    address: Optional[int] = None  # None: any address
    part: Optional[str] = None  # None: any part

    def matches(self, address: int, part: str) -> bool:
        if self.remaining <= 0:
            return False
        if self.address is not None and address != self.address:
            return False
        if self.part is not None and part != self.part:
            return False
        return True


class FaultPlan:
    """A deterministic schedule of faults: the crash-testing engine.

    Attach it to a drive (as its ``fault_injector``) and schedule, ahead of
    time, exactly where the machine dies or the media glitches; its
    direct-corruption methods operate on the image and need no drive at
    all.  Everything is counted deterministically, so a campaign that
    crashes at part-write N is replayable bit-for-bit from (seed, N).

    Crash points:

    * :meth:`crash_at_write` -- die *instead of* performing the Nth
      part-write (clean crash at a write boundary: writes 1..N-1 landed,
      write N and everything after did not);
    * :meth:`tear_at_write` -- the Nth part-write lands *torn* (a prefix of
      new words, then garbage), then the machine dies;
      :meth:`schedule_power_failure` is the same tear counted from now;
    * :meth:`crash_at_point` -- die at the Kth passage of a named trace
      point from :data:`TRACE_POINTS` (e.g. ``"label:write"``);
    * :meth:`tear_between_label_and_value` -- in a command that writes both
      label and value, complete the label write and die before the value
      write: the on-disk identity is new, the data is old.

    Media faults:

    * :meth:`schedule_transient_reads` -- the next K read/check part
      attempts fail transiently; the drive's bounded retry-with-backoff
      must absorb up to its retry budget and surface
      :class:`~repro.errors.ReadRetriesExhausted` beyond it;
    * behind the drive's back: :meth:`decay_sector`, :meth:`flip_bits`,
      the scrambles and :meth:`swap_sectors`.

    After any crash the plan considers the machine *down*: every further
    drive operation raises :class:`~repro.errors.PowerFailure` until
    :meth:`revive` -- recovery code must run on a fresh drive (or revive
    first), exactly like a real reboot.
    """

    def __init__(self, image: DiskImage, seed: int = 1979) -> None:
        self.image = image
        self.rng = random.Random(seed)
        self.torn_writes = 0
        self.crashed = False
        self.crash_reason: Optional[str] = None
        #: Part-writes seen so far (the crash-point coordinate system).
        self.writes_seen = 0
        self._crash_at_write: Optional[int] = None
        self._tear_at_write: Optional[int] = None
        self._crash_points: Dict[str, int] = {}  # point -> remaining passages
        self._tear_label_value: Optional[int] = None  # remaining occurrences
        self._crash_before_value = False  # armed for the current command
        self._transient: List[_TransientReads] = []

    # ------------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------------

    def crash_at_write(self, n: int) -> "FaultPlan":
        """Die cleanly in place of part-write *n* (absolute count, 1-based)."""
        if n <= self.writes_seen:
            raise ValueError(f"write {n} already happened ({self.writes_seen} seen)")
        self._crash_at_write = n
        return self

    def tear_at_write(self, n: int) -> "FaultPlan":
        """Part-write *n* lands torn (new prefix + garbage), then die."""
        if n <= self.writes_seen:
            raise ValueError(f"write {n} already happened ({self.writes_seen} seen)")
        self._tear_at_write = n
        return self

    def schedule_power_failure(self, after_writes: int) -> None:
        """Tear the Nth subsequent part-write (1 = the very next one), as
        :meth:`tear_at_write` does."""
        if after_writes < 1:
            raise ValueError("after_writes must be >= 1")
        self.tear_at_write(self.writes_seen + after_writes)

    def cancel_power_failure(self) -> None:
        self._tear_at_write = None

    def crash_at_point(self, point: str, occurrence: int = 1) -> "FaultPlan":
        """Die at the *occurrence*-th future passage of a named trace point."""
        if occurrence < 1:
            raise ValueError("occurrence must be >= 1")
        self._crash_points[check_point(point)] = occurrence
        return self

    def tear_between_label_and_value(self, occurrence: int = 1) -> "FaultPlan":
        """In the *occurrence*-th command writing label AND value, finish the
        label write and die before the value write."""
        if occurrence < 1:
            raise ValueError("occurrence must be >= 1")
        self._tear_label_value = occurrence
        return self

    def schedule_transient_reads(
        self, times: int, address: Optional[int] = None, part: Optional[str] = None
    ) -> "FaultPlan":
        """The next *times* matching read/check part attempts fail
        transiently (each drive retry consumes one failure).  *address*
        must be on the pack and *part* one of header, label or value: a
        burst that can never match would silently test nothing."""
        if times < 1:
            raise ValueError("times must be >= 1")
        if address is not None and address not in range(self.image.shape.total_sectors()):
            raise ValueError(f"address {address!r} is not on the pack")
        if part is not None and part not in _PARTS:
            raise ValueError(f"unknown part {part!r}; one of {', '.join(_PARTS)}")
        self._transient.append(_TransientReads(times, address, part))
        return self

    def clear(self) -> None:
        """Drop every scheduled fault (the machine stays up)."""
        self._crash_at_write = None
        self._tear_at_write = None
        self._crash_points.clear()
        self._tear_label_value = None
        self._crash_before_value = False
        self._transient.clear()

    def revive(self) -> None:
        """Power the machine back on (scheduled faults stay cleared)."""
        self.clear()
        self.crashed = False
        self.crash_reason = None

    # ------------------------------------------------------------------------
    # Direct corruption (behind the drive's back)
    # ------------------------------------------------------------------------

    def decay_sector(self, address: int) -> None:
        """Make a sector an unrecoverable media error (bad oxide)."""
        self.image.shape.check_address(address)
        self.image.bad_media.add(address)

    def heal_sector(self, address: int) -> None:
        """Undo :meth:`decay_sector` (e.g. after reformatting)."""
        self.image.bad_media.discard(address)

    def scramble_label(self, address: int) -> Label:
        """Overwrite a sector's label with random words; returns the old label."""
        sector = self.image.sector(address)
        old = sector.label
        sector.label = Label.unpack([self.rng.randrange(WORD_MASK + 1) for _ in range(7)])
        return old

    def scramble_links(self, address: int) -> None:
        """Corrupt only the (hint) link words of a label, leaving the
        absolute part intact -- the scavenger must repair these silently."""
        sector = self.image.sector(address)
        sector.label = sector.label.with_links(
            next_link=self.rng.randrange(WORD_MASK + 1),
            prev_link=self.rng.randrange(WORD_MASK + 1),
        )

    def scramble_value(self, address: int, nwords: int = 16) -> None:
        """Corrupt part of a sector's data words (detected by higher-level
        checksums where present; labels are unaffected)."""
        sector = self.image.sector(address)
        words = list(sector.value)
        size = len(words)
        for _ in range(nwords):
            words[self.rng.randrange(size)] = self.rng.randrange(WORD_MASK + 1)
        sector.value = words

    def swap_sectors(self, a: int, b: int) -> None:
        """Exchange the label+value of two sectors, leaving headers in place.

        Models a wildly confused copy utility; every hint to either page goes
        stale at once, but the absolutes still identify the pages, so the
        scavenger recovers both files.
        """
        sa, sb = self.image.sector(a), self.image.sector(b)
        sa.label, sb.label = sb.label, sa.label
        sa.value, sb.value = sb.value, sa.value

    def random_in_use_addresses(self, count: int) -> List[int]:
        """A reproducible sample of in-use sector addresses."""
        in_use = [s.header.address for s in self.image.sectors() if s.label.in_use]
        if count > len(in_use):
            raise ValueError(f"only {len(in_use)} sectors in use, asked for {count}")
        return self.rng.sample(in_use, count)

    def flip_bits(self, address: int, part: str, word_index: int, mask: int) -> None:
        """XOR *mask* into one word of a sector part, behind the drive."""
        sector = self.image.sector(address)
        if part == "header":
            words = sector.header.pack()
            words[word_index] ^= mask & WORD_MASK
            sector.header = Header.unpack(words)
        elif part == "label":
            words = sector.label.pack()
            words[word_index] ^= mask & WORD_MASK
            sector.label = Label.unpack(words)
        elif part == "value":
            words = list(sector.value)
            words[word_index] ^= mask & WORD_MASK
            sector.value = words
        else:
            raise ValueError(f"unknown part {part!r}")

    # ------------------------------------------------------------------------
    # Drive hooks
    # ------------------------------------------------------------------------

    def before_parts(self, drive, address: int, parts: Sequence) -> None:
        """Command start: dead-machine check and label+value tear arming.

        *parts* is the drive's flattened command: a ``(part, Action,
        data)`` triple for every non-NONE part in head order.
        """
        self.require_alive()
        self._crash_before_value = False
        if self._tear_label_value is not None:
            label_write = value_write = False
            for part, action, _data in parts:
                if action is Action.WRITE:
                    if part == "label":
                        label_write = True
                    elif part == "value":
                        value_write = True
            if label_write and value_write:
                self._tear_label_value -= 1
                if self._tear_label_value <= 0:
                    self._tear_label_value = None
                    self._crash_before_value = True

    def before_part(self, drive, address: int, part: str, action: str) -> None:
        """Called for every non-NONE part just before it passes the head."""
        self.require_alive()
        if self._crash_points:
            point = point_name(part, action)
            if point in self._crash_points:
                self._crash_points[point] -= 1
                if self._crash_points[point] <= 0:
                    del self._crash_points[point]
                    self._crash(f"power failed at trace point {point} (address {address})")

        if action == "write":
            if self._crash_before_value and part == "value":
                self._crash_before_value = False
                self._crash(
                    f"power failed between label and value writes at address {address}"
                )
            self.writes_seen += 1
            if self._crash_at_write is not None and self.writes_seen >= self._crash_at_write:
                self._crash_at_write = None
                self._crash(
                    f"power failed before {part} write #{self.writes_seen} "
                    f"at address {address}"
                )
        else:  # read or check
            for burst in self._transient:
                if burst.matches(address, part):
                    burst.remaining -= 1
                    if burst.remaining <= 0:
                        self._transient.remove(burst)
                    raise TransientReadError(
                        f"transient {action} failure in {part} at address {address}"
                    )

    def filter_write(self, drive, address: int, part: str, data: Sequence[int]) -> Sequence[int]:
        """Called for every part write with the caller's words, which it
        must not modify; tears the scheduled write.

        A torn write models a power failure once the write has begun: the
        hardware contract says the write "must continue through the rest of
        the sector", so a failure leaves a prefix of new words followed by
        garbage -- the worst case the scavenger must survive.  The
        interrupted part never got its checksum laid down, so it is marked
        checksum-bad: every later read of it raises
        :class:`~repro.errors.SectorChecksumError` until something rewrites
        the part (exactly how real hardware surfaces a torn write).
        """
        if self._tear_at_write is None or self.writes_seen < self._tear_at_write:
            return data
        self._tear_at_write = None
        self.torn_writes += 1
        keep = self.rng.randrange(0, len(data))
        torn = list(data[:keep]) + [
            self.rng.randrange(WORD_MASK + 1) for _ in range(len(data) - keep)
        ]
        sector = self.image.sector(address)
        if part == "header":
            sector.header = Header.unpack(torn)
        elif part == "label":
            sector.label = Label.unpack(torn)
        else:
            sector.value = torn
        self.image.checksum_bad.add((address, part))
        self.crashed = True
        self.crash_reason = f"power failed during {part} write at address {address}"
        raise TornWriteError(self.crash_reason, crash_point=self.writes_seen)

    # ------------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------------

    def pending_faults(self) -> bool:
        """Is anything still scheduled?"""
        return bool(
            self._crash_at_write is not None
            or self._tear_at_write is not None
            or self._crash_points
            or self._tear_label_value is not None
            or self._transient
        )

    def require_alive(self) -> None:
        """Raise :class:`~repro.errors.PowerFailure` while the machine is
        down; every command, memory-served ones too, starts here."""
        if self.crashed:
            raise PowerFailure(
                f"machine is down ({self.crash_reason}); revive() to reboot",
                crash_point=self.writes_seen,
            )

    # -- internals ----------------------------------------------------------------

    def _crash(self, reason: str) -> None:
        self.crashed = True
        self.crash_reason = reason
        raise PowerFailure(reason, crash_point=self.writes_seen)

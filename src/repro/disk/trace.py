"""Disk-activity tracing: what the arm actually did.

Attach a ``DiskTrace`` to a drive to record every sector command -- when it
started (simulated time), where the arm went, which parts were read,
checked, or written.  The summaries answer the questions the paper's
design reasons about: how far did the arm travel, how many revolutions were
spent waiting, how sequential was the access pattern.

Tracing is pure observation: it never changes timing or behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Named trace points: one per (part, action) pair the drive can perform.
#: Fault plans (see :mod:`repro.disk.faults`) address crash points by these
#: names, e.g. ``"label:write"`` = the moment a label write reaches the head.
TRACE_POINTS = tuple(
    f"{part}:{action}"
    for part in ("header", "label", "value")
    for action in ("read", "check", "write")
)


def point_name(part: str, action: str) -> str:
    """The canonical trace-point name for one part action."""
    return f"{part}:{action}"


def check_point(name: str) -> str:
    """Validate a trace-point name; returns it unchanged or raises."""
    if name not in TRACE_POINTS:
        raise ValueError(f"unknown trace point {name!r}; one of {', '.join(TRACE_POINTS)}")
    return name


@dataclass(frozen=True)
class TraceRecord:
    """One sector command."""

    time_us: int
    address: int
    cylinder: int
    actions: Tuple[Tuple[str, str], ...]  # ((part, action), ...)

    def did(self, part: str, action: str) -> bool:
        return (part, action) in self.actions

    def points(self) -> Tuple[str, ...]:
        """The named trace points this command passed through."""
        return tuple(point_name(part, action) for part, action in self.actions)


class DiskTrace:
    """Records commands issued to one drive.

    Install with :meth:`attach`; the drive calls :meth:`record` from its
    command path (via the ``trace`` attribute).
    """

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    # -- wiring --------------------------------------------------------------------

    def attach(self, drive) -> "DiskTrace":
        drive.trace = self
        return self

    @staticmethod
    def detach(drive) -> None:
        drive.trace = None

    def record(self, drive, address: int, parts) -> None:
        """Log one command; *parts* is the drive's ``(part, Action, data)``
        triples, one per non-NONE part in head order."""
        self.records.append(
            TraceRecord(
                time_us=drive.clock.now_us,
                address=address,
                cylinder=drive.shape.cylinder_of(address),
                actions=tuple((part, action.value) for part, action, _data in parts),
            )
        )

    def clear(self) -> None:
        self.records.clear()

    # -- summaries --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def commands_by_part_action(self) -> Dict[Tuple[str, str], int]:
        out: Dict[Tuple[str, str], int] = {}
        for record in self.records:
            for key in record.actions:
                out[key] = out.get(key, 0) + 1
        return out

    def arm_travel(self) -> int:
        """Total cylinders of arm movement across the trace."""
        travel = 0
        for previous, current in zip(self.records, self.records[1:]):
            travel += abs(current.cylinder - previous.cylinder)
        return travel

    def seek_count(self) -> int:
        return sum(
            1
            for previous, current in zip(self.records, self.records[1:])
            if current.cylinder != previous.cylinder
        )

    def sequentiality(self) -> float:
        """Fraction of consecutive commands hitting address+1 -- 1.0 for a
        perfect sweep, ~0.0 for random access."""
        if len(self.records) < 2:
            return 1.0
        hits = sum(
            1
            for previous, current in zip(self.records, self.records[1:])
            if current.address == previous.address + 1
        )
        return hits / (len(self.records) - 1)

    def hottest_addresses(self, count: int = 5) -> List[Tuple[int, int]]:
        """The most-visited addresses as (address, visits)."""
        visits: Dict[int, int] = {}
        for record in self.records:
            visits[record.address] = visits.get(record.address, 0) + 1
        return sorted(visits.items(), key=lambda kv: (-kv[1], kv[0]))[:count]

    def span_us(self) -> int:
        if not self.records:
            return 0
        return self.records[-1].time_us - self.records[0].time_us

    def summary(self) -> str:
        by = self.commands_by_part_action()
        reads = sum(n for (p, a), n in by.items() if a in ("read", "check"))
        writes = sum(n for (p, a), n in by.items() if a == "write")
        return (
            f"{len(self.records)} commands over {self.span_us() / 1e6:.2f}s: "
            f"{reads} part-reads/checks, {writes} part-writes, "
            f"{self.seek_count()} seeks ({self.arm_travel()} cylinders), "
            f"sequentiality {self.sequentiality():.0%}"
        )

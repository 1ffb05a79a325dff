"""The thirteen levels of the operating system (section 5.2).

"The system is organized into several levels of services, so that a
program may select the procedures it wishes to retain.  Procedures are
arranged so that the lowest level, which contains the most commonly used
services, is at the very top of memory.  Less ubiquitous services are in
levels with higher numbers, located lower in memory."

Each level has a name, a nominal size in words (calibrated from the paper
where it says -- InLoad/OutLoad are "about 900 words" -- and from the Alto
OS manual's orders of magnitude elsewhere), and the list of service names
it provides.  The Junta machinery lays the levels out from the top of
memory down and removes suffixes of this list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..memory.core import MEMORY_WORDS, Memory, Region


@dataclass(frozen=True)
class LevelSpec:
    """One level: its number, name, size, and the services it provides."""

    number: int
    name: str
    size_words: int
    services: Tuple[str, ...]


#: The levels of section 5.2, in number order (level 1 highest in memory).
LEVELS: Tuple[LevelSpec, ...] = (
    LevelSpec(1, "swapping", 900, ("outload", "inload", "counter-junta")),
    LevelSpec(2, "keyboard-buffer", 300, ("type-ahead",)),
    LevelSpec(3, "file-hints", 200, ("important-file-hints",)),
    LevelSpec(4, "bcpl-runtime", 400, ("stack-frames", "runtime")),
    LevelSpec(5, "disk-code", 900, ("disk-object",)),
    LevelSpec(6, "disk-data", 600, ("disk-buffers",)),
    LevelSpec(7, "zones", 500, ("zone-object",)),
    LevelSpec(8, "disk-streams", 1200, ("disk-stream",)),
    LevelSpec(9, "directories", 800, ("directory",)),
    LevelSpec(10, "keyboard-streams", 300, ("keyboard-stream",)),
    LevelSpec(11, "display-streams", 700, ("display-stream",)),
    LevelSpec(12, "loader-junta", 1500, ("loader", "junta")),
    LevelSpec(13, "system-free-storage", 8000, ("system-zone",)),
)

MIN_LEVEL = LEVELS[0].number
MAX_LEVEL = LEVELS[-1].number


def fill_pattern(level_number: int) -> int:
    """The word a level's region is filled with, so tests can tell "this
    level's code/data is resident" from "this memory was freed and reused"."""
    return 0xC000 | level_number


def resident_words() -> int:
    """Total words the full system occupies."""
    return sum(spec.size_words for spec in LEVELS)


def layout(memory: Memory) -> Dict[int, Region]:
    """Assign each level its region, packing down from the top of memory."""
    regions: Dict[int, Region] = {}
    top = memory.size
    for spec in LEVELS:
        start = top - spec.size_words
        if start < 0:
            raise ValueError("levels do not fit in memory")
        regions[spec.number] = memory.region(start, spec.size_words)
        top = start
    return regions


def spec_for(level_number: int) -> LevelSpec:
    """The level numbered *level_number*; ``ValueError`` if there is none."""
    for spec in LEVELS:
        if spec.number == level_number:
            return spec
    raise ValueError(f"no level {level_number} (levels are {MIN_LEVEL}..{MAX_LEVEL})")


def services_at_or_below(level_number: int) -> List[str]:
    """All services provided by levels 1..level_number."""
    out: List[str] = []
    for spec in LEVELS:
        if spec.number <= level_number:
            out.extend(spec.services)
    return out


def level_providing(service: str) -> LevelSpec:
    """The level that provides *service*; ``ValueError`` if none does.

    >>> level_providing("disk-stream").name
    'disk-streams'
    """
    for spec in LEVELS:
        if service in spec.services:
            return spec
    raise ValueError(f"no level provides service {service!r}")

"""The machine's main memory: 64k 16-bit words.

Section 2: "a 16-bit processor, 64k words of 800 ns memory".  Everything the
operating system keeps resident -- the Junta levels, zones, stream objects,
the type-ahead buffer -- lives in this one address space, and the world-swap
machinery of section 4 serializes it wholesale to disk.

``Memory`` is a flat word array with bounds discipline; ``Region`` is a
half-open window onto it used by zones and the Junta level layout.  There is
deliberately no protection: "There is no distinction between procedures and
data of the user and those of the system" (section 5.2).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..errors import MemoryFault
from ..words import MEMORY_WORDS, check_word, check_words


class Memory:
    """A flat, unprotected 64k-word memory."""

    def __init__(self, size: int = MEMORY_WORDS, fill: int = 0) -> None:
        if not 0 < size <= MEMORY_WORDS:
            raise ValueError(f"memory size must be in (0, {MEMORY_WORDS}], got {size}")
        check_word(fill, "fill word")
        self.size = size
        self._words: List[int] = [fill] * size

    # -- single-word access -------------------------------------------------

    def read(self, address: int) -> int:
        self._check(address)
        return self._words[address]

    def write(self, address: int, value: int) -> None:
        self._check(address)
        self._words[address] = check_word(value, "memory word")

    def __getitem__(self, address: int) -> int:
        return self.read(address)

    def __setitem__(self, address: int, value: int) -> None:
        self.write(address, value)

    # -- block access ---------------------------------------------------------

    def read_block(self, address: int, count: int) -> List[int]:
        if count < 0:
            raise ValueError("count must be non-negative")
        self._check_range(address, count)
        return self._words[address : address + count]

    def write_block(self, address: int, values: Sequence[int]) -> None:
        self._check_range(address, len(values))
        self._words[address : address + len(values)] = check_words(values, "memory word")

    def fill(self, address: int, count: int, value: int = 0) -> None:
        self._check_range(address, count)
        check_word(value, "fill word")
        self._words[address : address + count] = [value] * count

    def dump(self) -> List[int]:
        """The entire contents, for world-swap serialization."""
        return list(self._words)

    def load(self, words: Sequence[int]) -> None:
        """Overwrite the entire contents, for world-swap restore."""
        if len(words) != self.size:
            raise MemoryFault(f"world image has {len(words)} words, memory has {self.size}")
        self._words = list(check_words(words, "memory word"))

    # -- bounds ------------------------------------------------------------------

    def _check(self, address: int) -> None:
        if not isinstance(address, int) or not 0 <= address < self.size:
            raise MemoryFault(f"address {address} outside memory of {self.size} words")

    def _check_range(self, address: int, count: int) -> None:
        self._check(address)
        if count and not 0 <= address + count <= self.size:
            raise MemoryFault(f"range [{address}, {address + count}) outside memory of {self.size} words")

    def region(self, start: int, size: int) -> "Region":
        return Region(self, start, size)


class Region:
    """A half-open window [start, start+size) onto a memory.

    Junta levels and zones hand these around instead of bare addresses so
    that misuse faults at the boundary it crosses.
    """

    def __init__(self, memory: Memory, start: int, size: int) -> None:
        if size < 0:
            raise ValueError("region size must be non-negative")
        memory._check_range(start, size)
        self.memory = memory
        self.start = start
        self.size = size

    @property
    def end(self) -> int:
        """One past the last word of the region."""
        return self.start + self.size

    def __len__(self) -> int:
        return self.size

    def __contains__(self, address: int) -> bool:
        return self.start <= address < self.end

    def read(self, offset: int) -> int:
        self._check_offset(offset)
        return self.memory.read(self.start + offset)

    def write(self, offset: int, value: int) -> None:
        self._check_offset(offset)
        self.memory.write(self.start + offset, value)

    def read_block(self, offset: int, count: int) -> List[int]:
        self._check_offset_range(offset, count)
        return self.memory.read_block(self.start + offset, count)

    def write_block(self, offset: int, values: Sequence[int]) -> None:
        self._check_offset_range(offset, len(values))
        self.memory.write_block(self.start + offset, values)

    def fill(self, value: int = 0) -> None:
        self.memory.fill(self.start, self.size, value)

    def subregion(self, offset: int, size: int) -> "Region":
        self._check_offset_range(offset, size)
        return Region(self.memory, self.start + offset, size)

    def _check_offset(self, offset: int) -> None:
        if not 0 <= offset < self.size:
            raise MemoryFault(f"offset {offset} outside region of {self.size} words")

    def _check_offset_range(self, offset: int, count: int) -> None:
        if not (0 <= offset and count >= 0 and offset + count <= self.size):
            raise MemoryFault(
                f"range [{offset}, {offset + count}) outside region of {self.size} words"
            )

    def __repr__(self) -> str:
        return f"Region({self.start:#06x}..{self.end:#06x})"

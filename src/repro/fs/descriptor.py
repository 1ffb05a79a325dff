"""The disk descriptor (section 3.3).

"A disk contains a file called the disk descriptor with a standard name and
disk address.  In it are: the allocation map, a bit table indicating which
pages are free (H); the disk shape ... (A); the name of the root directory
(H)."

We implement the *logical* description the paper endorses ("that's how we
should have done it"): the descriptor leader lives at a standard disk
address, and the descriptor contains the root directory's full name.  Disk
address 0 is reserved for the boot file's first page (section 4: "a disk
file whose first page is kept at a fixed location"), so the descriptor
leader is pinned at address 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..disk.geometry import DiskShape, NIL
from ..errors import FileFormatError
from ..words import from_double_word, to_double_word
from .allocator import PageAllocator
from .names import FileId, FullName

#: Standard disk addresses.
BOOT_PAGE_ADDRESS = 0
DESCRIPTOR_LEADER_ADDRESS = 1

#: Leader name of the descriptor file ("a standard name").
DESCRIPTOR_NAME = "DiskDescriptor"

_MAGIC = 0xD15C  # "disc"
_FORMAT_VERSION = 1
_HEADER_WORDS = 12


@dataclass
class DiskDescriptor:
    """Decoded descriptor contents.

    ``shape`` words are absolute; the allocation map and root-directory
    address are hints (the scavenger reconstructs both from labels).
    """

    shape: DiskShape
    serial_counter: int
    root_directory: FullName
    free_map_words: List[int]

    # ------------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------------

    def pack(self) -> List[int]:
        serial_high, serial_low = to_double_word(self.serial_counter)
        root_high, root_low = to_double_word(self.root_directory.fid.serial)
        header = [
            _MAGIC,
            _FORMAT_VERSION,
            self.shape.cylinders,
            self.shape.heads,
            self.shape.sectors_per_track,
            serial_high,
            serial_low,
            root_high,
            root_low,
            self.root_directory.fid.version,
            self.root_directory.address,
            len(self.free_map_words),
        ]
        assert len(header) == _HEADER_WORDS
        return header + list(self.free_map_words)

    @classmethod
    def unpack(cls, shape: DiskShape, words: Sequence[int]) -> "DiskDescriptor":
        """Decode; *shape* is the mounted drive's shape, validated against
        the absolute shape words on disk."""
        if len(words) < _HEADER_WORDS:
            raise FileFormatError(f"descriptor too short: {len(words)} words")
        if words[0] != _MAGIC:
            raise FileFormatError(f"bad descriptor magic {words[0]:#06x}")
        if words[1] != _FORMAT_VERSION:
            raise FileFormatError(f"unknown descriptor version {words[1]}")
        if (words[2], words[3], words[4]) != (shape.cylinders, shape.heads, shape.sectors_per_track):
            raise FileFormatError(
                f"descriptor shape ({words[2]}x{words[3]}x{words[4]}) does not match "
                f"drive {shape.name} ({shape.cylinders}x{shape.heads}x{shape.sectors_per_track})"
            )
        map_len = words[11]
        map_words = list(words[_HEADER_WORDS : _HEADER_WORDS + map_len])
        if len(map_words) != map_len:
            raise FileFormatError("descriptor allocation map truncated")
        try:
            root = FullName(
                FileId(from_double_word(words[7], words[8]), words[9]),
                page_number=0,
                address=words[10],
            )
        except ValueError as exc:
            raise FileFormatError(f"corrupt root directory name: {exc}") from exc
        return cls(
            shape=shape,
            serial_counter=from_double_word(words[5], words[6]),
            root_directory=root,
            free_map_words=map_words,
        )

    # ------------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------------

    def allocator(self) -> PageAllocator:
        """Build a page allocator from the (hint) map."""
        return PageAllocator.unpack(self.shape, self.free_map_words)

    def with_map(self, allocator: PageAllocator) -> "DiskDescriptor":
        self.free_map_words = allocator.pack()
        return self

    @staticmethod
    def data_word_count(shape: DiskShape) -> int:
        """Exact descriptor size for *shape* (fixed, so rewriting the
        descriptor never changes its own page count)."""
        return _HEADER_WORDS + PageAllocator.map_word_count(shape)

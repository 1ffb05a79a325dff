"""Disk shapes and addresses.

The paper's machine used a Diablo Model 31 cartridge drive: 2.5 megabytes on
a removable pack, transferring "64k words in about one second" (section 2).
``DiskShape`` captures the geometry and timing parameters needed to
"parameterize the disk routines for a particular model of disk"
(section 3.3, the disk descriptor's *disk shape*), and ``DiskAddress`` is the
one-word physical location hint used throughout the file system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from ..words import PAGE_DATA_BYTES, WORD_MASK, check_word

#: Sentinel link/address meaning "no such page" (section 3.1: "or NIL if no
#: such pages exist").  All-ones was chosen so that a freed label -- which is
#: overwritten with ones (section 3.3) -- reads as NIL links consistently.
NIL = WORD_MASK


@dataclass(frozen=True)
class DiskShape:
    """Geometry and timing of one disk model.

    The defaults are the Diablo Model 31 as shipped on the Alto; the "big
    disk" mentioned in section 2 ("about twice the size and performance") is
    available via :meth:`trident_t80`-style alternates below.

    Timing parameters are in milliseconds.  One sector operation costs a
    seek (if the arm must move), rotational positioning, and one sector time
    of transfer.
    """

    name: str = "Diablo-31"
    cylinders: int = 203
    heads: int = 2
    sectors_per_track: int = 12
    rotation_ms: float = 40.0
    seek_track_to_track_ms: float = 15.0
    seek_max_ms: float = 135.0

    def __post_init__(self) -> None:
        if self.cylinders <= 0 or self.heads <= 0 or self.sectors_per_track <= 0:
            raise ValueError(f"degenerate disk shape: {self}")
        # Cached derived sizes: address validation and decomposition run on
        # every disk command, so they must not recompute products.  (Extra
        # attributes on a frozen dataclass; field-based eq/repr unaffected.)
        object.__setattr__(self, "_per_cylinder", self.heads * self.sectors_per_track)
        object.__setattr__(self, "_total", self.cylinders * self.heads * self.sectors_per_track)
        if self.total_sectors() - 1 > WORD_MASK - 1:
            # Addresses must fit in one word, and NIL is reserved.
            raise ValueError(f"disk shape too large for one-word addresses: {self}")

    # -- size ---------------------------------------------------------------

    def sectors_per_cylinder(self) -> int:
        return self._per_cylinder

    def total_sectors(self) -> int:
        return self._total

    def capacity_bytes(self) -> int:
        """Data capacity in bytes (page values only, as users see it)."""
        return self.total_sectors() * PAGE_DATA_BYTES

    # -- timing -------------------------------------------------------------

    def sector_time_ms(self) -> float:
        """Time for one sector to pass under the head."""
        return self.rotation_ms / self.sectors_per_track

    def seek_time_ms(self, from_cylinder: int, to_cylinder: int) -> float:
        """Arm movement time, linear between track-to-track and full-stroke."""
        distance = abs(to_cylinder - from_cylinder)
        if distance == 0:
            return 0.0
        if self.cylinders <= 2:
            return self.seek_track_to_track_ms
        span = self.cylinders - 1
        extra = (self.seek_max_ms - self.seek_track_to_track_ms) * (distance - 1) / max(span - 1, 1)
        return self.seek_track_to_track_ms + extra

    def words_per_second(self) -> float:
        """Steady-state sequential transfer rate in data words per second."""
        from ..words import PAGE_DATA_WORDS

        return PAGE_DATA_WORDS / (self.sector_time_ms() / 1000.0)

    # -- address mapping ------------------------------------------------------

    def decompose(self, address: int) -> Tuple[int, int, int]:
        """Split a linear address into (cylinder, head, sector)."""
        self.check_address(address)
        cylinder, rest = divmod(address, self._per_cylinder)
        head, sector = divmod(rest, self.sectors_per_track)
        return cylinder, head, sector

    def compose(self, cylinder: int, head: int, sector: int) -> int:
        """Build a linear address from (cylinder, head, sector)."""
        if not (0 <= cylinder < self.cylinders and 0 <= head < self.heads and 0 <= sector < self.sectors_per_track):
            raise ValueError(f"({cylinder}, {head}, {sector}) not on {self.name}")
        return (cylinder * self.heads + head) * self.sectors_per_track + sector

    def check_address(self, address: int) -> int:
        """Validate a linear address; returns it unchanged.

        This runs (several times) on every disk command, so the in-range
        case is a single comparison chain; only rejects pay for the
        precise typed error.  ``_total <= WORD_MASK`` (enforced at
        construction) makes the NIL and word-range checks subsume into
        ``address < _total``.
        """
        if isinstance(address, int) and 0 <= address < self._total:
            return address
        from ..errors import AddressOutOfRange

        check_word(address, "disk address")
        raise AddressOutOfRange(f"address {address} not on {self.name} ({self.total_sectors()} sectors)")

    def addresses(self) -> Iterator[int]:
        """All valid linear addresses in physical order."""
        return iter(range(self.total_sectors()))


def diablo31() -> DiskShape:
    """The standard Alto disk (2.5 MB removable pack)."""
    return DiskShape()


def diablo44() -> DiskShape:
    """The bigger, faster disk of section 2 ("about twice the size and
    performance"): twice the cylinders, faster rotation and seek."""
    return DiskShape(
        name="Diablo-44",
        cylinders=406,
        heads=2,
        sectors_per_track=12,
        rotation_ms=25.0,
        seek_track_to_track_ms=8.0,
        seek_max_ms=70.0,
    )


def tiny_test_disk(cylinders: int = 8, heads: int = 2, sectors_per_track: int = 12) -> DiskShape:
    """A small shape for fast unit tests; timing matches the Diablo 31."""
    return DiskShape(name="tiny", cylinders=cylinders, heads=heads, sectors_per_track=sectors_per_track)

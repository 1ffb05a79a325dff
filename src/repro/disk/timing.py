"""Seek and rotational latency model.

The drive charges three kinds of simulated time against the shared clock:

* ``disk.seek``     -- arm movement between cylinders,
* ``disk.rotation`` -- waiting for the target sector to come under the head,
* ``disk.transfer`` -- one sector time per sector actually transferred.

Rotational position is derived from the clock itself (the platter spins
whether or not anyone is looking), so two back-to-back operations on the
same sector naturally cost one full revolution of waiting -- which is
exactly the paper's "this scheme costs a disk revolution each time a page
is allocated or freed" (section 3.3): allocate and free must check the old
label and then *rewrite the label*, and the label has already passed under
the head by the time the check completes.
"""

from __future__ import annotations

from ..clock import MICROSECONDS_PER_MILLISECOND, SimClock
from .geometry import DiskShape

SEEK = "disk.seek"
ROTATION = "disk.rotation"
TRANSFER = "disk.transfer"


class ArmTimer:
    """Tracks arm position and charges seek/rotation/transfer time."""

    def __init__(self, shape: DiskShape, clock: SimClock) -> None:
        self.shape = shape
        self.clock = clock
        self.cylinder = 0
        # Shape-derived constants, precomputed: these feed every sector
        # command and must not pay float round-trips per call.
        self._rotation_us_cached = round(shape.rotation_ms * MICROSECONDS_PER_MILLISECOND)
        self._sector_us_cached = round(shape.sector_time_ms() * MICROSECONDS_PER_MILLISECOND)

    # -- charging ---------------------------------------------------------------

    def seek_to(self, cylinder: int) -> None:
        """Move the arm, charging seek time (zero if already there)."""
        if cylinder != self.cylinder:
            self.clock.advance_ms(self.shape.seek_time_ms(self.cylinder, cylinder), SEEK)
            self.cylinder = cylinder

    def wait_for_sector(self, sector: int) -> None:
        """Spin until *sector*'s leading edge is under the head."""
        target_us = sector * self._sector_us_cached
        position_us = self.clock.now_us % self._rotation_us_cached
        wait_us = (target_us - position_us) % self._rotation_us_cached
        self.clock.advance_us(wait_us, ROTATION)

    def transfer_sector(self) -> None:
        """Charge one sector time of transfer."""
        self.clock.advance_us(self._sector_us_cached, TRANSFER)

    def position_for(self, address: int) -> None:
        """Seek + rotational wait for the sector at *address*.

        The address was validated by the caller (the drive validates every
        command's address before charging time), so the decomposition here
        skips re-validation.
        """
        cylinder, rest = divmod(address, self.shape._per_cylinder)
        self.seek_to(cylinder)
        self.wait_for_sector(rest % self.shape.sectors_per_track)

    def position_and_transfer(self, address: int) -> None:
        """:meth:`position_for` + :meth:`transfer_sector`, fused.

        The per-command charging sequence of the drive's hot path: seek,
        rotational wait, one sector of transfer -- identical microseconds
        and tally categories, one call instead of four.
        """
        shape = self.shape
        cylinder, rest = divmod(address, shape._per_cylinder)
        if cylinder != self.cylinder:
            self.clock.advance_ms(shape.seek_time_ms(self.cylinder, cylinder), SEEK)
            self.cylinder = cylinder
        clock = self.clock
        rotation_us = self._rotation_us_cached
        sector_us = self._sector_us_cached
        target_us = (rest % shape.sectors_per_track) * sector_us
        wait_us = (target_us - clock._now_us % rotation_us) % rotation_us
        if clock._watchers:
            clock.advance_us(wait_us, ROTATION)
            clock.advance_us(sector_us, TRANSFER)
        else:
            # Both charges applied in one step (watchers would need the
            # intermediate instant; with none registered this is exactly
            # two advance_us calls).
            clock._now_us += wait_us + sector_us
            tallies = clock._tallies
            try:
                tallies[ROTATION] += wait_us
            except KeyError:
                tallies[ROTATION] = wait_us
            try:
                tallies[TRANSFER] += sector_us
            except KeyError:
                tallies[TRANSFER] = sector_us

    # -- accounting helpers -------------------------------------------------------

    def revolutions_waited(self) -> float:
        """Total rotational waiting expressed in revolutions."""
        return self.clock.tally_us(ROTATION) / self._rotation_us_cached

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
    """Tracks arm position and charges seek/rotation/transfer time.

    A command is charged once, by :meth:`position_and_transfer`; only a
    retried read adds :meth:`transfer_sector` after its backoff.
    """

    def __init__(self, shape: DiskShape, clock: SimClock) -> None:
        self.shape = shape
        self.clock = clock
        self.cylinder = 0
        # Shape-derived constants, precomputed: these feed every sector
        # command and must not pay float round-trips per call.
        self._rotation_us_cached = round(shape.rotation_ms * MICROSECONDS_PER_MILLISECOND)
        self._sector_us_cached = round(shape.sector_time_ms() * MICROSECONDS_PER_MILLISECOND)

    # -- charging ---------------------------------------------------------------

    def transfer_sector(self) -> None:
        """Charge one sector time of transfer (a retry's re-read)."""
        self.clock.advance_us(self._sector_us_cached, TRANSFER)

    def position_and_transfer(self, address: int) -> None:
        """Seek, rotational wait and one sector of transfer for *address*.

        The one per-command charge: every drive command pays it once.  The
        address was validated by the caller (the drive checks every
        command's address before charging time).  The seek goes through
        :meth:`SimClock.advance_ms`; the rotational wait and the transfer
        land in one step, with the same microseconds and tally categories
        as two ``advance_us`` calls.
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

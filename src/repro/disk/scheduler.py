"""Disk request scheduling: batching queued transfers in elevator order.

The drive itself (``drive.py``) is policy-free: it executes one command at a
time, charging whatever seek and rotational latency the command's address
happens to cost from wherever the arm last stopped.  A queue of deferred
transfers -- the write-back cache's dirty sectors, a prefetch batch -- can do
much better: service the queue in *elevator* (SCAN) order, sweeping the arm
across the cylinders in one direction and then back, so each request costs
at most a track-to-track seek, and requests on the same cylinder ride the
same rotation.

``RequestScheduler`` holds the queue and decides the order; it issues no
disk traffic itself.  The owner (see :class:`repro.disk.cache.CachedDrive`)
repeatedly asks :meth:`next_address` for the best request given the current
arm position and performs the transfer, popping the request only when the
transfer succeeded -- so a crash mid-drain leaves the unserviced tail still
queued, exactly like a real controller losing power with requests pending.

Scheduling is deterministic: ties break on linear address, and the sweep
direction is part of the scheduler's state, so a replayed crash campaign
drains in exactly the same order.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..obs import MetricsRegistry
from .geometry import DiskShape


class RequestScheduler:
    """An elevator (SCAN) queue of sector addresses awaiting service.

    It counts into its owner's *registry*: ``disk.sched.enqueued``,
    ``.coalesced`` (the address was already queued), ``.serviced`` and
    ``.sweeps`` (direction reversals), and the queue depth as the gauge
    ``disk.sched.depth``.
    """

    def __init__(self, shape: DiskShape, registry: MetricsRegistry) -> None:
        self.shape = shape
        self._pending: Set[int] = set()
        self._ascending = True
        self._c_enqueued = registry.counter("disk.sched.enqueued")
        self._c_coalesced = registry.counter("disk.sched.coalesced")
        self._c_serviced = registry.counter("disk.sched.serviced")
        self._c_sweeps = registry.counter("disk.sched.sweeps")
        self._depth = registry.gauge("disk.sched.depth")

    # ------------------------------------------------------------------------
    # Queue maintenance
    # ------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, address: int) -> bool:
        return address in self._pending

    def enqueue(self, address: int) -> None:
        """Add *address* to the queue (idempotent: re-dirtying a queued
        sector coalesces into the existing request)."""
        self.shape.check_address(address)
        if address in self._pending:
            self._c_coalesced.inc()
            return
        self._pending.add(address)
        self._c_enqueued.inc()
        self._depth.set(len(self._pending))

    def discard(self, address: int) -> None:
        """Drop a request without servicing it (the sector was superseded,
        e.g. freed or rewritten through a label operation)."""
        self._pending.discard(address)
        self._depth.set(len(self._pending))

    def pending(self) -> List[int]:
        """The queued addresses, in linear order (for introspection)."""
        return sorted(self._pending)

    # ------------------------------------------------------------------------
    # Elevator selection
    # ------------------------------------------------------------------------

    def next_address(self, current_cylinder: int) -> Optional[int]:
        """The best queued address to service from *current_cylinder*.

        Classic SCAN: continue the current sweep direction as long as any
        request lies that way; otherwise reverse.  Within a cylinder,
        requests are taken in linear address order, which is head-then-
        sector order -- the order they pass under the heads.  Returns
        ``None`` when the queue is empty.  The request stays queued until
        :meth:`mark_serviced`.
        """
        if not self._pending:
            return None
        ahead, behind = [], []
        for address in self._pending:
            cylinder, _head, _sector = self.shape.decompose(address)
            delta = cylinder - current_cylinder
            if not self._ascending:
                delta = -delta
            (ahead if delta >= 0 else behind).append((abs(delta), address))
        if not ahead:
            self._ascending = not self._ascending
            self._c_sweeps.inc()
            ahead = [(d, a) for d, a in behind]
        return min(ahead)[1]

    def mark_serviced(self, address: int) -> None:
        """The transfer for *address* completed; retire the request."""
        if address in self._pending:
            self._pending.remove(address)
            self._c_serviced.inc()
            self._depth.set(len(self._pending))

"""Simulated time base.

Every device in the reproduction charges its latencies against a shared
``SimClock`` instead of wall time, so the paper's quantitative claims
("scavenging ... takes about a minute", "requires about a second") become
deterministic model outputs.  Times are kept in microseconds internally to
avoid floating-point drift over long runs; the public accessors report
seconds and milliseconds.
"""

from __future__ import annotations

from .obs import Observability

MICROSECONDS_PER_SECOND = 1_000_000
MICROSECONDS_PER_MILLISECOND = 1_000


class SimClock:
    """A monotonically advancing simulated clock.

    The clock also keeps a running tally of named costs (seek time, rotation,
    transfer, ...) so that benchmarks can decompose where simulated time
    went -- the paper reasons about costs in exactly these units ("this
    scheme costs a disk revolution each time a page is allocated or freed").

    Advancing has one path: :meth:`advance_us` moves the time and adds to
    one tally, and calls nothing else.  Work due at a simulated instant
    compares against :attr:`now_us` itself, as the server's ``EventQueue``
    does; the fault plan counts part passages on the drive, not instants.
    """

    def __init__(self) -> None:
        self._now_us = 0
        self._tallies: dict = {}
        # The observability layer hangs off the clock because every layer
        # that can spend simulated time already holds one (repro.obs).
        self.obs = Observability(self)

    # -- reading ------------------------------------------------------------

    @property
    def now_us(self) -> int:
        """Current simulated time in microseconds."""
        return self._now_us

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now_us / MICROSECONDS_PER_MILLISECOND

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now_us / MICROSECONDS_PER_SECOND

    def tally_us(self, category: str) -> int:
        """Total microseconds charged so far under *category*."""
        return self._tallies.get(category, 0)

    def tallies(self) -> dict:
        """A copy of all category tallies, in microseconds."""
        return dict(self._tallies)

    # -- advancing ----------------------------------------------------------

    def advance_us(self, amount_us: int, category: str = "other") -> None:
        """Advance the clock by *amount_us* microseconds under *category*."""
        if amount_us < 0:
            raise ValueError(f"cannot advance clock by negative time: {amount_us}")
        self._now_us += amount_us
        try:
            self._tallies[category] += amount_us
        except KeyError:
            self._tallies[category] = amount_us

    def advance_ms(self, amount_ms: float, category: str = "other") -> None:
        """Advance the clock by *amount_ms* milliseconds under *category*."""
        self.advance_us(round(amount_ms * MICROSECONDS_PER_MILLISECOND), category)

    # -- measurement helpers -------------------------------------------------

    def stopwatch(self) -> "Stopwatch":
        """Return a stopwatch started at the current simulated time."""
        return Stopwatch(self)


class Stopwatch:
    """Measures elapsed simulated time and per-category deltas."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start_us = clock.now_us
        self._start_tallies = clock.tallies()

    @property
    def elapsed_us(self) -> int:
        return self._clock.now_us - self._start_us

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_us / MICROSECONDS_PER_MILLISECOND

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_us / MICROSECONDS_PER_SECOND

    def category_delta_us(self, category: str) -> int:
        """Microseconds charged under *category* since this stopwatch started."""
        return self._clock.tally_us(category) - self._start_tallies.get(category, 0)

    def breakdown_ms(self) -> dict:
        """Per-category elapsed milliseconds since the stopwatch started."""
        out = {}
        for category, total in self._clock.tallies().items():
            delta = total - self._start_tallies.get(category, 0)
            if delta:
                out[category] = delta / MICROSECONDS_PER_MILLISECOND
        return out

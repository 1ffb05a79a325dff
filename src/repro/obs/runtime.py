"""Process-wide observability plumbing: trace-all mode and stats retention.

Most code reaches observability through the clock it already holds
(``clock.obs``), but the CLI needs two cross-cutting switches:

* ``enable_trace_all()`` -- every :class:`Observability` created from now
  on starts with its tracer enabled.  ``crashtest --trace`` and ``bench
  --trace`` use this because their clocks are created deep inside
  builders; ``collect_trace()`` then merges every tracer that recorded
  anything into one Chrome trace (one process row per clock).

* ``retain_stats(True)`` -- keep a strong reference to every new
  Observability so ``drain_stats()`` can merge their metric snapshots
  *after* the benchmark that created them has dropped its drive.  The
  bench harness turns this on around each run; it stays off under pytest
  (each retained Observability keeps its clock, its registry and its
  span ring alive for the life of the process).

Both switches default off, so importing :mod:`repro` never changes
behaviour on its own.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .metrics import MetricsRegistry
from .tracer import NULL_SPAN, Tracer

DEFAULT_TRACE_ALL_CAPACITY = 16384

_trace_all = False
_trace_all_capacity: Optional[int] = None
_traced: List["Observability"] = []
_retain = False
_pending_stats: List["Observability"] = []


class Observability:
    """One clock's observability: a metrics registry plus a span tracer.

    Every :class:`~repro.clock.SimClock` owns one (``clock.obs``), so any
    component holding a clock -- which is every layer of this system --
    can open spans and bump metrics without new plumbing.  Metrics are
    always on (pure integer bookkeeping); tracing is opt-in via
    :meth:`enable_tracing` and costs nothing when off (``span`` returns
    the shared ``NULL_SPAN`` before building anything).
    """

    __slots__ = ("clock", "registry", "tracer")

    def __init__(self, clock=None, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(clock)
        _adopt(self)

    # -- tracing --------------------------------------------------------------

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def enable_tracing(self, capacity: Optional[int] = None) -> None:
        self.tracer.enable(capacity)

    def disable_tracing(self) -> None:
        self.tracer.disable()

    def span(self, name: str, category: str = "", **args):
        """Open a span; a no-op ``NULL_SPAN`` while tracing is disabled."""
        tracer = self.tracer
        if not tracer.enabled:
            return NULL_SPAN
        return tracer.begin(name, category, args or None)

    def instant(self, name: str, category: str = "", **args) -> None:
        self.tracer.instant(name, category, **args)

    # -- metrics --------------------------------------------------------------

    def stats(self) -> Dict:
        """The flat stats dict: registry snapshot plus clock position/tallies."""
        flat = self.registry.snapshot()
        if self.clock is not None:
            flat["clock.now_us"] = self.clock.now_us
            for category, us in sorted(self.clock.tallies().items()):
                flat[f"clock.tally.{category}_us"] = us
        return flat


def _adopt(obs: Observability) -> None:
    if _trace_all:
        obs.enable_tracing(_trace_all_capacity)
        _traced.append(obs)
    if _retain:
        _pending_stats.append(obs)


# -- trace-all mode -----------------------------------------------------------

def enable_trace_all(capacity: int = DEFAULT_TRACE_ALL_CAPACITY) -> None:
    """Start every :class:`Observability` created from now on with its
    tracer on (ring of *capacity* spans), for :func:`collect_trace`."""
    global _trace_all, _trace_all_capacity
    _trace_all = True
    _trace_all_capacity = capacity
    _traced.clear()


def disable_trace_all() -> None:
    """Leave trace-all mode and forget the tracers it collected."""
    global _trace_all
    _trace_all = False
    _traced.clear()


def trace_all_enabled() -> bool:
    """Whether :func:`enable_trace_all` is in force."""
    return _trace_all


def collect_trace(stats: Optional[Dict] = None,
                  labels: Optional[Dict[int, str]] = None,
                  strip_prefixes: Iterable[str] = ()) -> Dict:
    """Merge every tracer that recorded anything into one stitched trace.

    ``labels`` renames process lanes by their creation index (``{0:
    "client alice"}``); unnamed lanes keep ``clock-<index>``.  Request
    spans annotated with ``trace_id`` are bound across lanes by flow
    events (see :func:`repro.obs.export.stitch_trace`); traces with no
    such annotations come out exactly as before.
    """
    from .export import stitch_trace

    pairs: List[Tuple[str, Tracer]] = []
    for index, obs in enumerate(_traced):
        if obs.tracer.events:
            label = labels.get(index) if labels else None
            pairs.append((label or f"clock-{index}", obs.tracer))
    if stats is None:
        stats = merge_stats(obs.stats() for obs in _traced)
    return stitch_trace(pairs, stats=stats, strip_prefixes=strip_prefixes)


# -- stats retention (bench harness) ------------------------------------------

def retain_stats(on: bool = True) -> None:
    """Keep (or, with ``on=False``, stop keeping and forget) every new
    :class:`Observability`, so :func:`drain_stats` can merge its stats."""
    global _retain
    _retain = on
    if not on:
        _pending_stats.clear()


def drain_stats() -> Dict:
    """Merge and forget the stats of every Observability created since the
    last drain.  Returns ``{}`` when retention is off (e.g. under pytest)."""
    merged = merge_stats(obs.stats() for obs in _pending_stats)
    _pending_stats.clear()
    return merged


def merge_stats(snapshots: Iterable[Dict]) -> Dict:
    """Combine flat stats dicts: sums, except min/max/high-water keys."""
    out: Dict = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if key not in out:
                out[key] = value
            elif key.endswith(".min"):
                out[key] = min(out[key], value)
            elif key.endswith((".max", ".high_water")) or key == "clock.now_us":
                out[key] = max(out[key], value)
            else:
                out[key] = out[key] + value
    return out

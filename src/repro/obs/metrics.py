"""The metrics registry: counters, gauges, simulated-time histograms.

One API for every tally the system keeps.  A component counts through
the :class:`Counter`, :class:`Gauge` and :class:`Histogram` objects it
holds, bound once from a registry, and reads them back as the registry's
flat :meth:`~MetricsRegistry.snapshot`; ``python -m repro stats`` and the
benchmark harness see every number through that same snapshot.

Registries form a tree: a per-component registry created with
``MetricsRegistry(parent=...)`` keeps its own values (a fresh
``HintLadder`` starts its rung counts at zero) *and* mirrors every update
into the parent -- typically the clock-level registry at
``clock.obs.registry`` -- so the whole machine rolls up in one place.

Metrics never touch the simulated clock or the disk: enabling, reading, or
snapshotting them cannot change timing or on-disk bytes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically adjusted running total."""

    __slots__ = ("name", "value", "_mirror", "_chain")

    def __init__(self, name: str, mirror: Optional["Counter"] = None) -> None:
        self.name = name
        self.value = 0
        self._mirror = mirror
        # The mirror chain is fixed at creation (parents exist before their
        # children), so flatten it once: inc() then updates every level in
        # one loop instead of recursing per registry generation.
        chain = [self]
        while mirror is not None:
            chain.append(mirror)
            mirror = mirror._mirror
        self._chain = chain

    def inc(self, amount: Number = 1) -> None:
        for counter in self._chain:
            counter.value += amount


class Gauge:
    """A point-in-time level, with its high-water mark."""

    __slots__ = ("name", "value", "high_water", "_mirror")

    def __init__(self, name: str, mirror: Optional["Gauge"] = None) -> None:
        self.name = name
        self.value = 0
        self.high_water = 0
        self._mirror = mirror

    def set(self, value: Number) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value
        if self._mirror is not None:
            self._mirror.set(value)


#: Sub-bucket resolution of the log-bucketed histograms: each power-of-two
#: octave splits into ``2**SUB_BUCKET_BITS`` equal-width buckets, so a
#: bucket's width is at most ``lower_bound / 2**SUB_BUCKET_BITS`` -- the
#: quantile estimates carry a bounded relative error of ``2**-SUB_BUCKET_BITS``
#: (12.5%).  Values below ``2**SUB_BUCKET_BITS`` get exact unit buckets.
SUB_BUCKET_BITS = 3

#: Nearest-rank quantiles the convenience accessors report.
QUANTILES = (0.50, 0.90, 0.99, 0.999)


def bucket_index(value: Number) -> int:
    """The log-bucket index for *value* (negative values clamp to bucket 0).

    >>> [bucket_index(v) for v in (0, 1, 7, 8, 15, 16, 17, 31, 32)]
    [0, 1, 7, 8, 15, 16, 16, 23, 24]
    """
    v = int(value)
    if v <= 0:
        return 0
    if v < (1 << SUB_BUCKET_BITS):
        return v
    shift = v.bit_length() - 1 - SUB_BUCKET_BITS
    return (shift << SUB_BUCKET_BITS) + (v >> shift)


def bucket_bounds(index: int) -> "tuple[int, int]":
    """The inclusive ``(lower, upper)`` value range of bucket *index*.

    >>> [bucket_bounds(i) for i in (0, 7, 8, 16, 24)]
    [(0, 0), (7, 7), (8, 8), (16, 17), (32, 35)]
    """
    sub = 1 << SUB_BUCKET_BITS
    if index < sub:
        return index, index
    shift = (index >> SUB_BUCKET_BITS) - 1
    top = index - (shift << SUB_BUCKET_BITS)
    return top << shift, ((top + 1) << shift) - 1


def quantile_from_buckets(buckets: Dict[int, int], q: float,
                          hi: Optional[Number] = None) -> float:
    """Nearest-rank quantile estimate from a ``bucket index -> count`` dict.

    Returns the upper bound of the bucket holding the rank-``ceil(q*count)``
    observation (clamped to *hi*, the true maximum, when given), so the
    estimate ``e`` of the true nearest-rank value ``v`` always satisfies
    ``v <= e <= v * (1 + 2**-SUB_BUCKET_BITS)`` for integer samples.
    """
    count = sum(buckets.values())
    if not count:
        return 0.0
    rank = min(count, max(1, math.ceil(q * count)))
    cumulative = 0
    for index in sorted(buckets):
        cumulative += buckets[index]
        if cumulative >= rank:
            upper = bucket_bounds(index)[1]
            return float(upper if hi is None else min(upper, hi))
    return float(hi) if hi is not None else 0.0


class Histogram:
    """A distribution of observed values (typically simulated microseconds).

    Keeps count/total/min/max plus **log buckets**: each power-of-two
    octave splits into ``2**SUB_BUCKET_BITS`` sub-buckets (values below
    ``2**SUB_BUCKET_BITS`` are exact), so :meth:`quantile` answers
    p50/p90/p99/p99.9 with relative error bounded by
    ``2**-SUB_BUCKET_BITS`` (12.5%) at any sample count.  Bucket counts
    ride flat metric snapshots (``name.bucket.<i>``), where plain
    summation merges them across machines -- cluster-wide percentiles come
    from the merged buckets, never from averaging per-shard percentiles.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "_mirror")

    def __init__(self, name: str, mirror: Optional["Histogram"] = None) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self.buckets: Dict[int, int] = {}
        self._mirror = mirror

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = bucket_index(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        if self._mirror is not None:
            self._mirror.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (see :func:`quantile_from_buckets`).

        >>> h = Histogram("h")
        >>> for v in range(1, 101): h.observe(v)
        >>> h.quantile(0.5), h.quantile(0.99)
        (51.0, 100.0)
        """
        return quantile_from_buckets(self.buckets, q, hi=self.max)

    def percentiles(self) -> Dict[str, float]:
        """The standard report: ``{"p50": ..., "p90": ..., "p99": ..., "p99.9": ...}``."""
        return {format_quantile(q): self.quantile(q) for q in QUANTILES}


def format_quantile(q: float) -> str:
    """``0.999 -> "p99.9"``, ``0.5 -> "p50"``."""
    text = f"{q * 100:g}"
    return f"p{text}"


def snapshot_quantiles(stats: Dict[str, Number], name: str,
                       quantiles: Iterable[float] = QUANTILES) -> Dict[str, float]:
    """Quantiles of histogram *name* out of a flat (possibly merged) snapshot.

    Reconstructs the bucket counts from the ``name.bucket.<i>`` keys that
    :meth:`MetricsRegistry.snapshot` emits; because bucket counts merge by
    plain summation, this works identically on one machine's snapshot and
    on a cluster-wide :func:`repro.obs.runtime.merge_stats` result.
    Returns ``{}`` when the snapshot holds no such histogram.
    """
    prefix = f"{name}.bucket."
    buckets: Dict[int, int] = {}
    for key, value in stats.items():
        if key.startswith(prefix):
            buckets[int(key[len(prefix):])] = int(value)
    if not buckets:
        return {}
    hi = stats.get(f"{name}.max")
    return {format_quantile(q): quantile_from_buckets(buckets, q, hi=hi)
            for q in quantiles}


def snapshot_histogram_names(stats: Dict[str, Number]) -> List[str]:
    """Every histogram name that has bucket keys in *stats*, sorted."""
    names = set()
    for key in stats:
        marker = key.rfind(".bucket.")
        if marker > 0 and key[marker + len(".bucket."):].isdigit():
            names.add(key[:marker])
    return sorted(names)


class MetricsRegistry:
    """Named counters, gauges, and histograms, created on first use."""

    def __init__(self, parent: Optional["MetricsRegistry"] = None) -> None:
        self._metrics: Dict[str, object] = {}
        self.parent = parent

    # -- create-or-get accessors ---------------------------------------------

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def _get_or_create(self, name: str, kind):
        metric = self._metrics.get(name)
        if metric is None:
            mirror = None
            if self.parent is not None:
                mirror = self.parent._get_or_create(name, kind)
            metric = kind(name, mirror)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    # -- introspection --------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str):
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Number]:
        """Every metric flattened into one ``name -> number`` dict.

        Gauges contribute ``name`` and ``name.high_water``; histograms
        contribute ``name.count`` / ``.total`` / ``.min`` / ``.max`` plus
        one ``name.bucket.<i>`` count per occupied log bucket.  Derived
        values (rates, means, quantiles) are left to the callers that want
        them, so snapshots from different registries can be merged by
        plain sum/min/max (see :func:`repro.obs.runtime.merge_stats`) --
        and cluster-wide quantiles come out of the merged buckets via
        :func:`snapshot_quantiles`.
        """
        out: Dict[str, Number] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, Gauge):
                out[name] = metric.value
                out[f"{name}.high_water"] = metric.high_water
            else:
                out[f"{name}.count"] = metric.count
                out[f"{name}.total"] = metric.total
                if metric.count:
                    out[f"{name}.min"] = metric.min
                    out[f"{name}.max"] = metric.max
                for index in sorted(metric.buckets):
                    out[f"{name}.bucket.{index}"] = metric.buckets[index]
        return out


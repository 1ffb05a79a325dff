"""``repro.obs`` -- the unified observability layer.

Three pieces, all zero-dependency and keyed to simulated time:

* :mod:`~repro.obs.tracer` -- nested spans (``fs.read_page`` →
  ``hints.direct`` → ``disk.transfer``) with simulated-time durations,
  recorded into a bounded ring buffer.  Off by default; the on/off switch
  provably cannot change timing or on-disk bytes.
* :mod:`~repro.obs.metrics` -- counters, gauges, and histograms in a
  parent-mirroring registry; each component holds the metrics it bumps
  and reads them back as one flat snapshot (``drive.stats()``).
* :mod:`~repro.obs.export` / :mod:`~repro.obs.schema` -- Chrome
  ``trace_event`` JSON (Perfetto-loadable) plus a dependency-free
  validator used by CI.

Entry points: every :class:`~repro.clock.SimClock` carries an
:class:`Observability` at ``clock.obs``; the CLI exposes ``python -m
repro stats`` and ``--trace out.json`` on the REPL, ``crashtest``, and
``bench`` subcommands.  See ``OBSERVABILITY.md`` for the span taxonomy
and metric names.
"""

from .export import chrome_trace, stitch_trace, tracer_events, write_trace
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QUANTILES,
    SUB_BUCKET_BITS,
    bucket_bounds,
    bucket_index,
    format_quantile,
    quantile_from_buckets,
    snapshot_histogram_names,
    snapshot_quantiles,
)
from .runtime import (
    Observability,
    collect_trace,
    disable_trace_all,
    drain_stats,
    enable_trace_all,
    merge_stats,
    retain_stats,
    trace_all_enabled,
)
from .schema import validate_trace, validate_trace_file
from .top import TopDashboard, render_top
from .tracer import NULL_SPAN, Span, SpanEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "QUANTILES",
    "SUB_BUCKET_BITS",
    "Span",
    "SpanEvent",
    "TopDashboard",
    "Tracer",
    "bucket_bounds",
    "bucket_index",
    "chrome_trace",
    "collect_trace",
    "quantile_from_buckets",
    "render_top",
    "snapshot_histogram_names",
    "snapshot_quantiles",
    "stitch_trace",
    "disable_trace_all",
    "drain_stats",
    "enable_trace_all",
    "format_quantile",
    "merge_stats",
    "retain_stats",
    "trace_all_enabled",
    "tracer_events",
    "validate_trace",
    "validate_trace_file",
    "write_trace",
]

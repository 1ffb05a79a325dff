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

from ..exports import lazy_exports

lazy_exports(globals(), {
    "export": ("chrome_trace", "stitch_trace", "tracer_events", "write_trace"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                "QUANTILES", "SUB_BUCKET_BITS", "bucket_bounds",
                "bucket_index", "format_quantile", "quantile_from_buckets",
                "snapshot_histogram_names", "snapshot_quantiles"),
    "runtime": ("Observability", "collect_trace", "disable_trace_all",
                "drain_stats", "enable_trace_all", "merge_stats",
                "retain_stats", "trace_all_enabled"),
    "schema": ("validate_trace", "validate_trace_file"),
    "top": ("TopDashboard", "render_top"),
    "tracer": ("NULL_SPAN", "Span", "SpanEvent", "Tracer"),
})

"""The metrics registry: counters, gauges, histograms, mirroring, merging."""

import pytest

from repro.obs import (
    SUB_BUCKET_BITS,
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
    snapshot_quantiles,
)
from repro.obs.runtime import merge_stats


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_create_or_get_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("c")
        with pytest.raises(TypeError):
            registry.gauge("c")


class TestGauge:
    def test_tracks_high_water(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3)
        gauge.set(7)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.high_water == 7


class TestHistogram:
    def test_count_total_min_max_mean(self):
        hist = MetricsRegistry().histogram("h")
        for value in (4, 1, 9):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 14
        assert hist.min == 1
        assert hist.max == 9
        assert hist.mean == pytest.approx(14 / 3)

    def test_log_buckets_exact_below_the_sub_bucket_floor(self):
        hist = MetricsRegistry().histogram("h")
        for value in (0, 1, 2, 3, 4):
            hist.observe(value)
        # Values below 2**SUB_BUCKET_BITS land in exact unit buckets.
        assert hist.buckets == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}

    def test_log_buckets_split_each_octave(self):
        hist = MetricsRegistry().histogram("h")
        for value in (16, 17, 18, 31, 32):
            hist.observe(value)
        # 16..31 is one octave split into 8 two-wide buckets (16..23);
        # 32 starts the next octave at bucket 24.
        assert hist.buckets == {16: 2, 17: 1, 23: 1, 24: 1}

    def test_bucket_bounds_invert_bucket_index(self):
        for value in (0, 1, 7, 8, 9, 255, 256, 1_000_000, 2**40 + 3):
            lower, upper = bucket_bounds(bucket_index(value))
            assert lower <= value <= upper
            # Bounded relative width: the quantile error guarantee.
            assert upper - lower <= max(0, lower >> SUB_BUCKET_BITS)

    def test_quantile_and_percentiles(self):
        hist = MetricsRegistry().histogram("h")
        for value in range(1, 101):
            hist.observe(value)
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 100.0
        p = hist.percentiles()
        assert set(p) == {"p50", "p90", "p99", "p99.9"}
        assert 50 <= p["p50"] <= 50 * 1.125
        assert 99 <= p["p99"] <= 99 * 1.125

    def test_quantile_of_empty_histogram_is_zero(self):
        assert MetricsRegistry().histogram("h").quantile(0.5) == 0.0


class TestMirroring:
    def test_counter_updates_roll_up_to_parent(self):
        parent = MetricsRegistry()
        child_a = MetricsRegistry(parent=parent)
        child_b = MetricsRegistry(parent=parent)
        child_a.counter("n").inc(3)
        child_b.counter("n").inc(4)
        assert child_a.counter("n").value == 3  # per-instance values survive
        assert child_b.counter("n").value == 4
        assert parent.counter("n").value == 7  # ... and sum at the parent

    def test_gauge_and_histogram_mirror(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.gauge("g").set(5)
        child.histogram("h").observe(8)
        assert parent.gauge("g").high_water == 5
        assert parent.histogram("h").count == 1

    def test_grandparent_chain(self):
        top = MetricsRegistry()
        mid = MetricsRegistry(parent=top)
        leaf = MetricsRegistry(parent=mid)
        leaf.counter("c").inc()
        assert mid.counter("c").value == 1
        assert top.counter("c").value == 1


class TestSnapshot:
    def test_flattens_every_metric_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(4)
        registry.gauge("g").set(1)
        registry.histogram("h").observe(6)
        snap = registry.snapshot()
        assert snap == {
            "c": 2,
            "g": 1,
            "g.high_water": 4,
            "h.count": 1,
            "h.total": 6,
            "h.min": 6,
            "h.max": 6,
            "h.bucket.6": 1,
        }

    def test_empty_histogram_omits_min_max(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        snap = registry.snapshot()
        assert "h.min" not in snap and "h.max" not in snap


class TestMergeStats:
    def test_sum_min_max_high_water_rules(self):
        merged = merge_stats([
            {"c": 2, "h.min": 5, "h.max": 9, "g.high_water": 4, "clock.now_us": 10},
            {"c": 3, "h.min": 1, "h.max": 7, "g.high_water": 6, "clock.now_us": 8},
        ])
        assert merged == {
            "c": 5,
            "h.min": 1,
            "h.max": 9,
            "g.high_water": 6,
            "clock.now_us": 10,
        }

    def test_disjoint_keys_pass_through(self):
        assert merge_stats([{"a": 1}, {"b": 2}]) == {"a": 1, "b": 2}

"""The span tracer: nesting, the ring buffer, and the disabled fast path."""

from repro import SimClock
from repro.obs import NULL_SPAN, Observability, Tracer


def traced_clock():
    clock = SimClock()
    clock.obs.enable_tracing()
    return clock


class TestSpans:
    def test_span_records_simulated_duration(self):
        clock = traced_clock()
        with clock.obs.span("work", "test"):
            clock.advance_us(250, "test")
        (event,) = clock.obs.tracer.spans()
        assert event.name == "work"
        assert event.category == "test"
        assert event.duration_us == 250

    def test_nesting_records_parent_and_depth(self):
        clock = traced_clock()
        with clock.obs.span("outer") as outer:
            with clock.obs.span("inner"):
                clock.advance_us(10, "test")
        events = {e.name: e for e in clock.obs.tracer.spans()}
        assert events["outer"].parent_id == 0
        assert events["outer"].depth == 0
        assert events["inner"].parent_id == outer.id
        assert events["inner"].depth == 1
        # Inner finishes first, so it sits earlier in the ring.
        assert [e.name for e in clock.obs.tracer.spans()] == ["inner", "outer"]

    def test_annotate_merges_args(self):
        clock = traced_clock()
        with clock.obs.span("work", address=7) as span:
            span.annotate(rung="direct")
        (event,) = clock.obs.tracer.spans()
        assert event.args == {"address": 7, "rung": "direct"}

    def test_exception_annotates_error_and_closes(self):
        clock = traced_clock()
        try:
            with clock.obs.span("work"):
                raise ValueError("boom")
        except ValueError:
            pass
        (event,) = clock.obs.tracer.spans()
        assert event.args["error"] == "ValueError"
        assert clock.obs.tracer._stack == []

    def test_out_of_order_finish_closes_inner_spans(self):
        tracer = Tracer(SimClock())
        tracer.enable()
        outer = tracer.begin("outer")
        tracer.begin("inner")
        tracer.finish(outer)  # exception-style unwind: inner closed too
        assert [e.name for e in tracer.spans()] == ["inner", "outer"]
        assert tracer._stack == []


class TestRingBuffer:
    def test_eviction_counts_dropped(self):
        clock = SimClock()
        clock.obs.enable_tracing(capacity=4)
        for i in range(6):
            with clock.obs.span(f"s{i}"):
                clock.advance_us(1, "test")
        tracer = clock.obs.tracer
        assert len(tracer.events) == 4
        assert tracer.dropped == 2
        assert [e.name for e in tracer.spans()] == ["s2", "s3", "s4", "s5"]

    def test_enable_with_new_capacity_preserves_events(self):
        clock = traced_clock()
        with clock.obs.span("kept"):
            pass
        clock.obs.enable_tracing(capacity=128)
        assert [e.name for e in clock.obs.tracer.spans()] == ["kept"]


class TestDisabled:
    def test_span_returns_shared_null_span(self):
        clock = SimClock()
        assert clock.obs.span("anything") is NULL_SPAN
        with clock.obs.span("anything") as span:
            span.annotate(ignored=True)
        assert len(clock.obs.tracer.events) == 0
        assert not clock.obs.tracing

    def test_instant_is_noop_while_disabled(self):
        clock = SimClock()
        clock.obs.instant("marker")
        assert len(clock.obs.tracer.events) == 0

    def test_disable_stops_recording(self):
        clock = traced_clock()
        clock.obs.disable_tracing()
        with clock.obs.span("skipped"):
            pass
        assert len(clock.obs.tracer.events) == 0


class TestInstants:
    def test_instant_records_point_in_time(self):
        clock = traced_clock()
        clock.advance_us(99, "test")
        clock.obs.instant("marker", "test", detail=1)
        (event,) = clock.obs.tracer.events
        assert event.kind == "instant"
        assert event.start_us == event.end_us == 99
        assert event.args == {"detail": 1}
        assert clock.obs.tracer.spans() == []  # not a span

    def test_find_by_name(self):
        clock = traced_clock()
        with clock.obs.span("a"):
            pass
        with clock.obs.span("b"):
            pass
        assert [e.name for e in clock.obs.tracer.find("b")] == ["b"]


class TestObservabilityStats:
    def test_stats_includes_clock_position_and_tallies(self):
        clock = SimClock()
        clock.advance_us(100, "seek")
        clock.obs.registry.counter("c").inc(2)
        stats = clock.obs.stats()
        assert stats["c"] == 2
        assert stats["clock.now_us"] == 100
        assert stats["clock.tally.seek_us"] == 100

    def test_clockless_observability(self):
        obs = Observability()
        obs.enable_tracing()
        with obs.span("work"):
            pass
        (event,) = obs.tracer.spans()
        assert event.start_us == event.end_us == 0
        assert "clock.now_us" not in obs.stats()

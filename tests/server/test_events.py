"""Unit tests for the engine's timer wheel."""

from repro.clock import SimClock
from repro.server import EventQueue


# -- EventQueue ----------------------------------------------------------------


def test_events_fire_in_due_then_seq_order():
    clock = SimClock()
    queue = EventQueue(clock)
    fired = []
    queue.at(20, lambda: fired.append("late"))
    queue.at(10, lambda: fired.append("early-first"))
    queue.at(10, lambda: fired.append("early-second"))
    clock.advance_us(20, "test")
    assert queue.fire_due() == 3
    assert fired == ["early-first", "early-second", "late"]


def test_fire_due_only_runs_what_the_clock_has_passed():
    clock = SimClock()
    queue = EventQueue(clock)
    fired = []
    queue.at(5, lambda: fired.append("due"))
    queue.at(50, lambda: fired.append("future"))
    clock.advance_us(5, "test")
    assert queue.fire_due() == 1
    assert fired == ["due"]
    assert len(queue) == 1
    assert queue.next_due_us == 50


def test_cancelled_events_never_fire_and_leave_the_count():
    clock = SimClock()
    queue = EventQueue(clock)
    fired = []
    keep = queue.at(10, lambda: fired.append("keep"))
    drop = queue.at(10, lambda: fired.append("drop"))
    queue.cancel(drop)
    queue.cancel(drop)                                  # idempotent
    assert len(queue) == 1
    clock.advance_us(10, "test")
    assert queue.fire_due() == 1
    assert fired == ["keep"]
    del keep


def test_self_rearming_callback_runs_once_per_fire_due():
    """The snapshot rule: re-arming inside a callback waits a cycle."""
    clock = SimClock()
    queue = EventQueue(clock)
    ticks = []

    def tick():
        ticks.append(clock.now_us)
        queue.at(clock.now_us, tick, label="rearm")     # already due!

    queue.at(0, tick, label="rearm")
    assert queue.fire_due() == 1                        # not an infinite loop
    assert queue.fire_due() == 1
    assert len(ticks) == 2


def test_after_schedules_relative_to_now():
    clock = SimClock()
    clock.advance_us(1_000, "test")
    queue = EventQueue(clock)
    event = queue.after(250, lambda: None, label="lease")
    assert event.due_us == 1_250
    assert queue.next_due_us == 1_250

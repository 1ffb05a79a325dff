"""Unit tests for the simulated clock."""

import pytest

from repro.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        clock = SimClock()
        assert clock.now_us == 0
        assert clock.now_ms == 0.0
        assert clock.now_s == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance_us(1500)
        clock.advance_ms(2.5)
        assert clock.now_us == 4000
        assert clock.now_ms == 4.0

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance_us(-1)

    def test_tallies_by_category(self):
        clock = SimClock()
        clock.advance_us(100, "seek")
        clock.advance_us(200, "seek")
        clock.advance_us(50, "rotation")
        assert clock.tally_us("seek") == 300
        assert clock.tally_us("rotation") == 50
        assert clock.tally_us("missing") == 0
        assert clock.tallies() == {"seek": 300, "rotation": 50}

    def test_tallies_returns_copy(self):
        clock = SimClock()
        clock.advance_us(10, "x")
        clock.tallies()["x"] = 999
        assert clock.tally_us("x") == 10


class TestStopwatch:
    def test_elapsed(self):
        clock = SimClock()
        clock.advance_us(1000)
        watch = clock.stopwatch()
        clock.advance_us(2500, "io")
        assert watch.elapsed_us == 2500
        assert watch.elapsed_ms == 2.5

    def test_category_delta(self):
        clock = SimClock()
        clock.advance_us(100, "io")
        watch = clock.stopwatch()
        clock.advance_us(40, "io")
        clock.advance_us(60, "cpu")
        assert watch.category_delta_us("io") == 40
        assert watch.breakdown_ms() == {"io": 0.04, "cpu": 0.06}

    def test_breakdown_omits_untouched_categories(self):
        clock = SimClock()
        clock.advance_us(100, "io")
        watch = clock.stopwatch()
        clock.advance_us(10, "cpu")
        assert "io" not in watch.breakdown_ms()

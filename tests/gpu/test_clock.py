"""Tests for the virtual clock."""

import pytest

from repro.gpu.clock import ClockError, VirtualClock


class TestAdvance:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_returns_new_time(self):
        clock = VirtualClock()
        assert clock.advance(3.0) == pytest.approx(3.0)

    def test_advance_by_zero_is_allowed(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_negative_advance_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ClockError):
            clock.advance(-1e-9)

    def test_event_counter_increments(self):
        clock = VirtualClock()
        clock.advance(1.0)
        clock.advance(1.0)
        assert clock.events == 2


class TestAdvanceTo:
    def test_moves_forward(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        assert clock.now == pytest.approx(5.0)

    def test_past_target_is_noop(self):
        clock = VirtualClock()
        clock.advance(10.0)
        clock.advance_to(3.0)
        assert clock.now == pytest.approx(10.0)

    def test_equal_target_is_noop(self):
        clock = VirtualClock()
        clock.advance(2.0)
        events = clock.events
        clock.advance_to(2.0)
        assert clock.events == events

    def test_past_target_counts_no_event(self):
        clock = VirtualClock()
        clock.advance(10.0)
        clock.advance_to(3.0)
        assert clock.events == 1

    def test_clock_may_start_later(self):
        """A fresh clock, not a reset, is how a run starts over."""
        clock = VirtualClock(now=5.0)
        assert clock.events == 0
        assert clock.advance_to(3.0) == pytest.approx(5.0)
        assert clock.advance(1.0) == pytest.approx(6.0)

    def test_returns_current_time(self):
        clock = VirtualClock()
        assert clock.advance_to(4.0) == pytest.approx(4.0)

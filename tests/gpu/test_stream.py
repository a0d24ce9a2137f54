"""Tests for streams."""

import pytest

from repro.gpu.clock import VirtualClock
from repro.gpu.errors import CudaStreamError
from repro.gpu.stream import Stream


class TestStreamOrdering:
    def test_enqueue_serialises_work(self):
        clock = VirtualClock()
        stream = Stream(clock)
        stream.enqueue(1e-6)
        stream.enqueue(2e-6)
        assert stream.ready_time == pytest.approx(3e-6)
        assert clock.now == 0.0  # host has not waited yet

    def test_host_overhead_charged_immediately(self):
        clock = VirtualClock()
        stream = Stream(clock)
        stream.enqueue(1e-6, host_overhead=4e-6)
        assert clock.now == pytest.approx(4e-6)
        assert stream.ready_time == pytest.approx(5e-6)

    def test_work_starts_after_host_time(self):
        clock = VirtualClock()
        stream = Stream(clock)
        clock.advance(10e-6)
        stream.enqueue(1e-6)
        assert stream.ready_time == pytest.approx(11e-6)

    def test_negative_duration_rejected(self):
        stream = Stream(VirtualClock())
        with pytest.raises(CudaStreamError):
            stream.enqueue(-1e-6)

    def test_negative_host_overhead_rejected(self):
        clock = VirtualClock()
        stream = Stream(clock)
        with pytest.raises(CudaStreamError):
            stream.enqueue(1e-6, host_overhead=-1e-6)
        assert (clock.now, stream.ready_time, stream.operations) == (0.0, 0.0, 0)

    def test_enqueue_returns_completion_time(self):
        clock = VirtualClock()
        stream = Stream(clock)
        assert stream.enqueue(2e-6) == pytest.approx(2e-6)
        assert stream.enqueue(1e-6, host_overhead=5e-6) == pytest.approx(6e-6)
        assert stream.enqueue(1e-6) == stream.ready_time

    def test_new_stream_is_ready_at_host_time(self):
        clock = VirtualClock()
        clock.advance(4e-6)
        stream = Stream(clock)
        assert stream.ready_time == clock.now
        stream.synchronize()
        assert clock.now == pytest.approx(4e-6)

    def test_streams_on_one_clock_overlap(self):
        """Work on two streams runs concurrently: draining both waits for
        the longer one, not for the sum."""
        clock = VirtualClock()
        pack, unpack = Stream(clock), Stream(clock)
        pack.enqueue(5e-6)
        unpack.enqueue(3e-6)
        unpack.synchronize()
        assert clock.now == pytest.approx(3e-6)
        pack.synchronize()
        assert clock.now == pytest.approx(5e-6)
        # Work enqueued after the host caught up starts from the host's time.
        assert unpack.enqueue(1e-6) == pytest.approx(6e-6)

    def test_handles_are_unique_and_name_unnamed_streams(self):
        clock = VirtualClock()
        first, second, named = Stream(clock), Stream(clock), Stream(clock, name="pack")
        assert len({first.handle, second.handle, named.handle}) == 3
        assert first.name == f"stream-{first.handle}"
        assert named.name == "pack"


class TestSynchronize:
    def test_synchronize_advances_host(self):
        clock = VirtualClock()
        stream = Stream(clock)
        stream.enqueue(7e-6)
        stream.synchronize()
        assert clock.now == pytest.approx(7e-6)
        assert stream.ready_time <= clock.now

    def test_synchronize_overhead(self):
        clock = VirtualClock()
        stream = Stream(clock)
        stream.enqueue(1e-6)
        stream.synchronize(sync_overhead=2e-6)
        assert clock.now == pytest.approx(3e-6)

    def test_synchronize_returns_host_time(self):
        clock = VirtualClock()
        stream = Stream(clock)
        stream.enqueue(2e-6)
        assert stream.synchronize(sync_overhead=1e-6) == clock.now == pytest.approx(3e-6)

    def test_synchronize_idle_stream_is_cheap(self):
        clock = VirtualClock()
        Stream(clock).synchronize()
        assert clock.now == 0.0

    def test_destroyed_stream_rejected(self):
        stream = Stream(VirtualClock())
        stream.destroy()
        with pytest.raises(CudaStreamError):
            stream.enqueue(1e-6)
        with pytest.raises(CudaStreamError):
            stream.synchronize()

    def test_operation_counter(self):
        stream = Stream(VirtualClock())
        stream.enqueue(1e-6)
        stream.enqueue(1e-6)
        assert stream.operations == 2

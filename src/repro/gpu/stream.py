"""Simulated CUDA streams and events.

A stream is an ordered queue of device work.  In the simulation a stream
only needs to track *when* its most recently enqueued operation completes in
virtual time: enqueueing work is (nearly) free for the host, and a
``cudaStreamSynchronize`` advances the host clock to the stream's completion
time.  This captures the asynchrony that matters to TEMPI — e.g. the device
method can overlap a pack kernel on one stream with an unpack on another —
without simulating the GPU's internal scheduler.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.gpu.clock import VirtualClock
from repro.gpu.errors import CudaStreamError

_stream_ids = itertools.count(1)
_event_ids = itertools.count(1)


class Stream:
    """An in-order queue of simulated device operations."""

    def __init__(self, clock: VirtualClock, name: Optional[str] = None) -> None:
        self._clock = clock
        self._ready_time = clock.now
        self._destroyed = False
        self.handle = next(_stream_ids)
        self.name = name or f"stream-{self.handle}"
        self.operations = 0

    def _check_alive(self) -> None:
        if self._destroyed:
            raise CudaStreamError(f"{self.name} used after destruction")

    @property
    def ready_time(self) -> float:
        """Virtual time at which all currently enqueued work completes."""
        return self._ready_time

    @property
    def busy(self) -> bool:
        """True if the stream still has outstanding work at the current host time."""
        return self._ready_time > self._clock.now

    def enqueue(self, duration: float, host_overhead: float = 0.0) -> float:
        """Enqueue ``duration`` seconds of device work.

        ``host_overhead`` is charged to the host clock immediately (the cost
        of the runtime API call itself); the device work begins when both the
        host has issued it and all previously enqueued work has finished.
        Returns the completion time of the new operation.
        """
        if self._destroyed:
            self._check_alive()
        if duration < 0 or host_overhead < 0:
            raise CudaStreamError("durations must be non-negative")
        if host_overhead:
            self._clock.advance(host_overhead)
        start = max(self._ready_time, self._clock.now)
        self._ready_time = start + duration
        self.operations += 1
        return self._ready_time

    def synchronize(self, sync_overhead: float = 0.0) -> float:
        """Block the host until all enqueued work completes (``cudaStreamSynchronize``)."""
        if self._destroyed:
            self._check_alive()
        self._clock.advance_to(self._ready_time)
        if sync_overhead:
            self._clock.advance(sync_overhead)
        return self._clock.now

    def wait_event(self, event: "Event") -> None:
        """Make subsequent work on this stream wait for ``event`` (``cudaStreamWaitEvent``)."""
        self._check_alive()
        if event.time is None:
            raise CudaStreamError("cannot wait on an unrecorded event")
        self._ready_time = max(self._ready_time, event.time)

    def destroy(self) -> None:
        """Destroy the stream; further use raises :class:`CudaStreamError`."""
        self._destroyed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stream {self.name} ready_at={self._ready_time:.9f}>"


class Event:
    """A simulated CUDA event: a timestamp captured from a stream."""

    def __init__(self, clock: VirtualClock, name: Optional[str] = None) -> None:
        self._clock = clock
        self.time: Optional[float] = None
        self.handle = next(_event_ids)
        self.name = name or f"event-{self.handle}"

    def record(self, stream: Stream) -> None:
        """Record the completion time of all work currently in ``stream``."""
        self.time = stream.ready_time

    def synchronize(self) -> float:
        """Block the host until the recorded work completes."""
        if self.time is None:
            raise CudaStreamError("cannot synchronize an unrecorded event")
        return self._clock.advance_to(self.time)

    def query(self) -> bool:
        """True if the recorded work has completed by the current host time."""
        if self.time is None:
            raise CudaStreamError("cannot query an unrecorded event")
        return self.time <= self._clock.now

    @staticmethod
    def elapsed_time(start: "Event", end: "Event") -> float:
        """Seconds of virtual time between two recorded events."""
        if start.time is None or end.time is None:
            raise CudaStreamError("both events must be recorded")
        return end.time - start.time

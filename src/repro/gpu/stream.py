"""Simulated CUDA streams.

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


class Stream:
    """An in-order queue of simulated device operations."""

    def __init__(self, clock: VirtualClock, name: Optional[str] = None) -> None:
        self._clock = clock
        #: Virtual time at which all currently enqueued work completes.
        self.ready_time = clock.now
        self._destroyed = False
        self.handle = next(_stream_ids)
        self.name = name or f"stream-{self.handle}"
        self.operations = 0

    def _check_alive(self) -> None:
        if self._destroyed:
            raise CudaStreamError(f"{self.name} used after destruction")

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
        # max(ready, now) without a call: on a tie the stream's time stands.
        now = self._clock.now
        start = now if now > self.ready_time else self.ready_time
        self.ready_time = start + duration
        self.operations += 1
        return self.ready_time

    def synchronize(self, sync_overhead: float = 0.0) -> float:
        """Block the host until all enqueued work completes (``cudaStreamSynchronize``)."""
        if self._destroyed:
            self._check_alive()
        self._clock.advance_to(self.ready_time)
        if sync_overhead:
            self._clock.advance(sync_overhead)
        return self._clock.now

    def destroy(self) -> None:
        """Destroy the stream; further use raises :class:`CudaStreamError`."""
        self._destroyed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stream {self.name} ready_at={self.ready_time:.9f}>"

"""Virtual time.

All simulated components (the CUDA runtime, the MPI engine, the network
model) account for time on a :class:`VirtualClock` instead of the wall clock.
This keeps the reproduction deterministic and lets a single laptop "measure"
latencies that on Summit required thousands of GPUs: a benchmark simply runs
the functional code and reads how far the clock advanced.

A clock is a plain monotonically non-decreasing float of seconds.  Streams
and remote ranks keep their own completion times; synchronisation points
advance the host clock with :meth:`VirtualClock.advance_to`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ClockError(RuntimeError):
    """Raised when a clock would be moved backwards by ``advance``."""


@dataclass
class VirtualClock:
    """A monotonically non-decreasing simulated clock.

    Parameters
    ----------
    now:
        Current simulated time in seconds.  Defaults to 0.
    """

    now: float = 0.0
    _events: int = field(default=0, repr=False)

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be non-negative).

        Returns the new time.
        """
        if seconds < 0:
            raise ClockError(f"cannot advance clock by negative time {seconds!r}")
        self.now += float(seconds)
        self._events += 1
        return self.now

    def advance_to(self, when: float) -> float:
        """Advance the clock to ``when`` if ``when`` is in the future.

        Unlike :meth:`advance`, moving to a time in the past is a no-op: this
        is the semantics of waiting on something that already completed.
        Returns the new time.
        """
        if when > self.now:
            self.now = float(when)
            self._events += 1
        return self.now

    @property
    def events(self) -> int:
        """Number of advancements applied; useful for overhead accounting tests."""
        return self._events

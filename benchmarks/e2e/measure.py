"""Host-side measuring tools: calibration spin, block timing, call counting.

Everything here observes the simulator from outside; nothing imports or
edits ``repro``.  Times come in two flavours:

*raw*
    ``perf_counter`` seconds as the host delivered them;
*normalised*
    raw seconds divided by the host's :func:`slowdown` against a nominal
    machine, measured by a fixed calibration spin.  The host is a shared
    two-core VM whose speed drifts by up to 2x within minutes
    (``process_time`` drifts identically and no steal is reported, so it is
    slower cycles, not preemption); bracketing every block by the spin
    turns that drift into a per-block factor.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import threading
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

_SPIN_VECTOR = np.arange(512, dtype=np.float64)
_SPIN_SOURCE = np.arange(8 << 20, dtype=np.uint8)
_SPIN_TARGET = np.empty(4 << 20, dtype=np.uint8)


def _spin_python() -> float:
    """Interpreter work shaped like the control plane: tuple keys, dict probes."""
    start = perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(16_000):
        key = (i & 63, i >> 8)
        table[key] = table.get(key, 0) + i
    return perf_counter() - start


def _spin_numpy() -> float:
    """Many small numpy calls, like the NIC's booking kernels."""
    start = perf_counter()
    vector = _SPIN_VECTOR
    for _ in range(800):
        np.maximum(vector, vector * 1.0001 + 0.5).sum()
    return perf_counter() - start


def _spin_memory() -> float:
    """A strided byte gather through 8 MiB, like the large pack kernels."""
    start = perf_counter()
    _SPIN_TARGET[:] = _SPIN_SOURCE[::2]
    return perf_counter() - start


#: The calibration spin: each fixed piece of work with the seconds it takes
#: on the nominal machine every time is rescaled to (a machine about half
#: as fast as this host at its quietest; 10 ms in all).
SPIN_PARTS = ((_spin_python, 0.0035), (_spin_numpy, 0.0035), (_spin_memory, 0.0030))


def slowdown() -> float:
    """How much slower than the nominal machine the host is right now.

    Each part runs three times and counts by its median: the host's
    millisecond-scale jitter is larger than the drift the spin exists to
    follow, and one preempted repeat would otherwise rescale a whole block.
    """
    measured = sum(statistics.median(work() for _ in range(3)) for work, _ in SPIN_PARTS)
    return measured / sum(nominal_s for _, nominal_s in SPIN_PARTS)


class Block(NamedTuple):
    """One timed block: ``ops`` operations in ``wall_s`` raw seconds."""

    ops: int
    wall_s: float
    #: Host slowdown around this block; raw time over it is normalised time.
    slowdown: float

    @property
    def norm_us_per_op(self) -> float:
        return self.wall_s / self.slowdown / self.ops * 1e6

    @property
    def raw_us_per_op(self) -> float:
        return self.wall_s / self.ops * 1e6


def timed_blocks(
    run_block: Callable[[], int], *, seconds: float, min_blocks: int
) -> list[Block]:
    """Run ``run_block`` for ``seconds`` (and at least ``min_blocks`` times).

    ``run_block`` performs one block of work and returns its op count.  The
    calibration spin runs before and after every block; a block's slowdown
    is the mean of its two neighbours.
    """
    blocks: list[Block] = []
    gc.collect()
    before = slowdown()
    begin = perf_counter()
    while len(blocks) < min_blocks or perf_counter() - begin < seconds:
        start = perf_counter()
        ops = run_block()
        wall = perf_counter() - start
        after = slowdown()
        blocks.append(Block(ops, wall, (before + after) / 2))
        before = after
    return blocks


def scaled(run: Callable[[], object]) -> tuple[float, float]:
    """Run ``run`` once; return ``(raw_s, normalised_s)`` of its wall time."""
    before = slowdown()
    start = perf_counter()
    run()
    wall = perf_counter() - start
    return wall, wall / ((before + slowdown()) / 2)


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values`` (nearest rank; one value is allowed)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class CallCounter:
    """Count Python and C function calls on every thread while active.

    ``sys.setprofile`` sees the current thread and ``threading.setprofile``
    every thread started while the counter is active (the simulator spawns
    its rank threads inside ``World.run``).  Each thread counts into its own
    cell, so no update is lost to a thread switch.
    """

    def __init__(self) -> None:
        self._cells: list[list[int]] = []
        self._local = threading.local()

    def _hook(self, frame, event: str, arg) -> None:
        if event == "call" or event == "c_call":
            try:
                self._local.cell[0] += 1
            except AttributeError:
                cell = self._local.cell = [1]
                self._cells.append(cell)

    def __enter__(self) -> "CallCounter":
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    @property
    def calls(self) -> int:
        return sum(cell[0] for cell in self._cells)


def cpu_times() -> tuple[float, float]:
    """``(user, system)`` CPU seconds of this process so far."""
    times = os.times()
    return times.user, times.system


def peak_rss_mib() -> float:
    """High-water resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

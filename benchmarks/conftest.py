"""Fixtures for ``bench_sim_throughput.py``, the one pytest module left here.

The figure benchmarks run through ``python -m repro.cli figures``
(``benchmarks/figures.py``).  ROADMAP item 11 folds the simulator-throughput
harness into ``benchmarks/e2e`` and deletes both fixtures with it.
"""

from __future__ import annotations

import pytest

from repro.machine.spec import SUMMIT
from repro.tempi.measurement import measure_system
from repro.tempi.perf_model import PerformanceModel


@pytest.fixture(scope="session")
def summit_model() -> PerformanceModel:
    return PerformanceModel(measure_system(SUMMIT))


class _DiscardedReport:
    """Takes the row ``bench_sim_throughput.py`` reports and keeps nothing."""

    def add(self, *args, **kwargs) -> None:
        pass


@pytest.fixture(scope="session")
def report() -> _DiscardedReport:
    return _DiscardedReport()

"""Figure 7: datatype creation and commit time.

The paper sweeps fifteen constructions of 3-D objects and reports, per
configuration, the time spent *creating* the datatype (the ``MPI_Type_*``
calls, unchanged by TEMPI) and the time spent in ``MPI_Type_commit`` — which
TEMPI slows down by 3.8-8.3x because that is where translation,
canonicalisation and kernel selection run.  Both are wall-clock
microbenchmarks of host code, so this module measures wall time (trimean of
many repetitions, like the paper's 30000-execution trimean) rather than
simulated time.
"""

from __future__ import annotations

import time

from repro.bench.harness import trimean
from repro.bench.workloads import fig7_configurations
from repro.mpi.world import World
from repro.tempi.interposer import interpose

REPETITIONS = 30


def _measure_wall(fn, repetitions: int = REPETITIONS) -> float:
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return trimean(samples)


def run_sweep(summit_model):
    """Create/commit times (seconds, wall clock) for every Fig. 7 configuration."""
    world = World(1)
    ctx = world.contexts[0]
    tempi_comm = interpose(ctx, model=summit_model)
    rows = []
    for config in fig7_configurations():
        create_time = _measure_wall(config.build)
        baseline_commit = _measure_wall(lambda: config.build().Commit())
        tempi_commit = _measure_wall(lambda: tempi_comm.Type_commit(config.build()))
        # Subtract the creation cost that both commit measurements include.
        baseline_commit = max(1e-9, baseline_commit - create_time)
        tempi_commit = max(1e-9, tempi_commit - create_time)
        rows.append((config, create_time, baseline_commit, tempi_commit))
    return rows

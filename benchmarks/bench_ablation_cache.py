"""Ablation: the resource cache (Sec. 5).

TEMPI caches streams, intermediate device/pinned buffers and performance-model
queries because acquiring them costs microseconds-to-milliseconds while an
interposed send has a tens-of-microseconds budget.  This ablation runs the
same iterated strided send with the cache enabled and disabled and reports
the per-iteration latency of each, plus the cache hit rate.
"""

from __future__ import annotations

from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose

ITERATIONS = 6
OBJECT_BYTES = 256 * 1024
BLOCK_BYTES = 32


def iterated_send(summit_model, use_cache: bool):
    """Per-iteration send latencies (rank 0's virtual time) and cache hit rate."""

    def program(ctx):
        comm = interpose(ctx, TempiConfig(use_cache=use_cache), model=summit_model)
        nblocks = OBJECT_BYTES // BLOCK_BYTES
        datatype = comm.Type_commit(Type_vector(nblocks, BLOCK_BYTES, 512, BYTE))
        buffer = ctx.gpu.malloc(datatype.extent)
        latencies = []
        for iteration in range(ITERATIONS):
            start = ctx.clock.now
            if ctx.rank == 0:
                comm.Send((buffer, 1, datatype), dest=1, tag=iteration)
            else:
                comm.Recv((buffer, 1, datatype), source=0, tag=iteration)
            latencies.append(ctx.clock.now - start)
        return latencies, comm.tempi.cache.stats.hit_rate()

    world = World(2, ranks_per_node=1)
    results = world.run(program)
    return results[0]

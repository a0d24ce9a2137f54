"""Figure 8: MPI_Pack latency for 2-D objects, baseline vs. TEMPI.

The paper packs seven 2-D object configurations (vector or subarray
description, 1 KiB-4 MiB, 1-256 B contiguous blocks, counts 1-2, 512 B pitch)
and finds speedups from 5.7x to 242,000x: the baseline issues one
``cudaMemcpyAsync`` per contiguous block, TEMPI one kernel per call.

Latencies here are simulated (virtual) time.  The baseline engine runs in
timing-only mode for this sweep because enumerating four million block
copies moves no information the cost model does not already have.
"""

from __future__ import annotations

from repro.bench.workloads import fig8_configurations
from repro.mpi.world import World
from repro.tempi.interposer import interpose


def pack_latency(config, summit_model, use_tempi: bool) -> float:
    world = World(1)
    ctx = world.contexts[0]
    comm = interpose(ctx, model=summit_model) if use_tempi else ctx.comm
    if not use_tempi:
        # Timing-only baseline: per-block costs are charged analytically.
        ctx.comm.baseline.move_data = False
    datatype = comm.Type_commit(config.build())
    source = ctx.gpu.malloc(config.extent_bytes + datatype.extent)
    packed = ctx.gpu.malloc(datatype.size * config.count)
    start = ctx.clock.now
    comm.Pack((source, config.count, datatype), packed, 0)
    return ctx.clock.now - start


def run_sweep(summit_model):
    rows = []
    for config in fig8_configurations():
        baseline = pack_latency(config, summit_model, use_tempi=False)
        tempi = pack_latency(config, summit_model, use_tempi=True)
        rows.append((config, baseline, tempi))
    return rows

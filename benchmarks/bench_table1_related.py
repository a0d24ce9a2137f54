"""Table 1: microbenchmark comparison against related work.

The paper's Table 1 lists pack and distributed-memory ping-pong latencies
reported by prior GPU-datatype systems (Wang 2011, Shi 2014, Jenkins 2014,
Wei 2016) next to TEMPI's own numbers, with nominal subsystem bandwidths for
context, because the hardware generations differ too much for a direct race.

This harness regenerates the "This work" row from the simulated system —
pack latency for 64 KiB / 4 MiB objects and strided ping-pong latency for
1 KiB / 1 MiB / 4 MiB objects — and prints it alongside the literature rows
(constants quoted from the paper), checking that the reproduced row keeps the
same relative standing: competitive at small (latency-bound) and large
(bandwidth-bound) sizes.
"""

from __future__ import annotations

from repro.bench.workloads import Fig11Config
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.interposer import interpose

#: Literature rows of Table 1 (latencies in microseconds, from the paper).
RELATED_WORK = [
    # work, platform, pack observations, ping-pong observations
    ("Wang 2011 [17]", "C2050, QDR IB", {1024: 25.0, 4 << 20: 10_000.0}, {4 << 20: 20_000.0}),
    ("Shi 2014 [15]", "C2050, QDR IB", {1024: 120.0}, {}),
    ("Jenkins 2014 [10]", "C2050, QDR IB", {1024: 10.0}, {1024: 70.0, 256 << 10: 700.0}),
    ("Wei 2016 [18]", "K40, FDR IB", {512 << 10: 75.0, 4 << 20: 150.0}, {4 << 20: 7_000.0}),
    ("Paper (V100, EDR IB)", "V100, EDR IB", {64 << 10: 13.0, 4 << 20: 21.0},
     {1024: 60.0, 1 << 20: 354.0, 4 << 20: 888.0}),
]

BLOCK_BYTES = 128  # a representative stencil-row-ish contiguous run


def _pack_latency(object_bytes: int, summit_model) -> float:
    world = World(1)
    ctx = world.contexts[0]
    comm = interpose(ctx, model=summit_model)
    nblocks = max(1, object_bytes // BLOCK_BYTES)
    datatype = comm.Type_commit(Type_vector(nblocks, BLOCK_BYTES, 2 * BLOCK_BYTES, BYTE))
    source = ctx.gpu.malloc(datatype.extent)
    packed = ctx.gpu.malloc(datatype.size)
    start = ctx.clock.now
    comm.Pack((source, 1, datatype), packed, 0)
    return ctx.clock.now - start


def _pingpong_latency(object_bytes: int, summit_model) -> float:
    config = Fig11Config(object_bytes=object_bytes, block_bytes=BLOCK_BYTES)

    def program(ctx):
        comm = interpose(ctx, model=summit_model)
        datatype = comm.Type_commit(config.build())
        buffer = ctx.gpu.malloc(datatype.extent)
        if ctx.rank == 0:
            comm.Send((buffer, 1, datatype), dest=1, tag=0)
            comm.Recv((buffer, 1, datatype), source=1, tag=1)
            start = ctx.clock.now
            comm.Send((buffer, 1, datatype), dest=1, tag=2)
            comm.Recv((buffer, 1, datatype), source=1, tag=3)
            return (ctx.clock.now - start) / 2
        comm.Recv((buffer, 1, datatype), source=0, tag=0)
        comm.Send((buffer, 1, datatype), dest=0, tag=1)
        comm.Recv((buffer, 1, datatype), source=0, tag=2)
        comm.Send((buffer, 1, datatype), dest=0, tag=3)
        return None

    return World(2, ranks_per_node=1).run(program)[0]


def measure(summit_model):
    """This reproduction's row: pack and ping-pong latency per object size."""
    packs = {size: _pack_latency(size, summit_model) for size in (64 << 10, 4 << 20)}
    pingpongs = {size: _pingpong_latency(size, summit_model) for size in (1024, 1 << 20, 4 << 20)}
    return packs, pingpongs

"""Figure 13 (beyond the paper): datatype-carrying all-to-all-v latency.

The paper accelerates the halo exchange by interposing ``MPI_Pack`` /
``MPI_Unpack`` around a byte all-to-all-v (Fig. 12).  This repository extends
the interposer to the collective itself: the datatype-carrying
``MPI_Alltoallv`` packs each destination's sections with one kernel and
stages them per the model's per-message method choice, where the system path
pays one ``cudaMemcpyAsync`` per contiguous block of every section.

This harness sweeps world size x contiguous block length for a fixed-size
strided object per peer and reports the steady-state (second-iteration)
exchange latency of both paths head-to-head — same signature, same wire
charge, only the datatype handling differs.  ``repro figures --full`` runs
the full grid.
"""

from __future__ import annotations

from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.interposer import interpose

#: Per-peer object: OBJECT_BYTES of payload split into blocks of block_bytes.
OBJECT_BYTES = 16384
PITCH = 512

RANK_SWEEP = (2, 4, 8)
#: Block lengths per sweep, smallest first.
BLOCK_SWEEPS = {"smoke": (8, 64, 512), "default": (8, 64, 512), "full": (1, 8, 64, 512, 4096)}


def _exchange_latency(nranks: int, block_bytes: int, summit_model, use_tempi: bool) -> float:
    """Steady-state typed-alltoallv latency (max over ranks), simulated seconds."""
    nblocks = max(1, OBJECT_BYTES // block_bytes)
    # Keep the object strided at every block length: equal block and pitch
    # would make the type contiguous, which both paths ship without packing.
    pitch = max(PITCH, 2 * block_bytes)

    def program(ctx):
        comm = interpose(ctx, model=summit_model) if use_tempi else ctx.comm
        datatype = comm.Type_commit(Type_vector(nblocks, block_bytes, pitch, BYTE))
        size = comm.Get_size()
        send = ctx.gpu.malloc(datatype.extent * size)
        recv = ctx.gpu.malloc(datatype.extent * size)
        send.data[:] = (ctx.rank + 1) % 251
        counts = [1] * size
        displs = [peer * datatype.extent for peer in range(size)]
        # Warm-up so staging buffers and model queries come from the caches.
        comm.Alltoallv(
            send, counts, displs, recv, counts, displs, sendtypes=datatype, recvtypes=datatype
        )
        start = ctx.clock.now
        comm.Alltoallv(
            send, counts, displs, recv, counts, displs, sendtypes=datatype, recvtypes=datatype
        )
        return ctx.clock.now - start

    world = World(nranks, ranks_per_node=2)
    return max(world.run(program))


def run_sweep(blocks, summit_model):
    """``(baseline, TEMPI)`` latency per ``(ranks, block length)`` cell."""
    return {
        (nranks, block_bytes): (
            _exchange_latency(nranks, block_bytes, summit_model, use_tempi=False),
            _exchange_latency(nranks, block_bytes, summit_model, use_tempi=True),
        )
        for nranks in RANK_SWEEP
        for block_bytes in blocks
    }

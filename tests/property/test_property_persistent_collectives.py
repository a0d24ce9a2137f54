"""Equivalence wall for persistent collectives.

``Alltoallv_init``/``Neighbor_alltoallv_init`` bind a typed all-to-all-v once
and ``Start`` restarts it.  ``k`` rounds of ``Start`` + ``Wait`` must be
**indistinguishable** from ``k`` one-shot ``Ialltoallv``/``Ineighbor_alltoallv``
+ ``Wait`` calls: the received bytes of every round, every rank's
``clock.now.hex()`` and event count, and every ``InterposerStats`` field — on
the system communicator, on TEMPI with device buffers (compiled once, then
the bound template replayed) and on TEMPI with host buffers (the fallback,
owed per ``Start``), on 2 to 5 ranks.  Below the wall: misuse, and a rank
that returns with one still active.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.errors import MpiError
from repro.mpi.world import World, WorldError
from repro.tempi.interposer import interpose

ROUNDS = 3
VARIANTS = ("system", "tempi-device", "tempi-host")


def _count(src: int, dst: int) -> int:
    """Elements rank ``src`` sends ``dst``: non-uniform, agreed by both ends."""
    return 1 + (src + 2 * dst) % 3


def _exchange(ctx, comm, op: str):
    """``(peers, send_counts, recv_counts, datatype)`` of one rank's exchange.

    The neighbour form takes both ring neighbours — the same rank twice on
    two ranks, whose sections then travel concatenated in list order."""
    rank, size = ctx.rank, ctx.comm.size
    if op == "alltoallv":
        peers = list(range(size))
    else:
        peers = [(rank - 1) % size, (rank + 1) % size]
    send_counts = [_count(rank, peer) for peer in peers]
    recv_counts = [_count(peer, rank) for peer in peers]
    return peers, send_counts, recv_counts, comm.Type_commit(Type_vector(3, 4, 7, BYTE))


def _run(op: str, variant: str, nranks: int, model, persistent: bool):
    def program(ctx):
        comm = ctx.comm if variant == "system" else interpose(ctx, model=model)
        peers, send_counts, recv_counts, datatype = _exchange(ctx, comm, op)
        alloc = ctx.gpu.host_alloc if variant == "tempi-host" else ctx.gpu.malloc
        send_displs = [sum(send_counts[:i]) * datatype.extent for i in range(len(peers))]
        recv_displs = [sum(recv_counts[:i]) * datatype.extent for i in range(len(peers))]
        send = alloc(sum(send_counts) * datatype.extent)
        recv = alloc(sum(recv_counts) * datatype.extent)
        args = (send, send_counts, send_displs, recv, recv_counts, recv_displs)
        head = () if op == "alltoallv" else (peers,)
        types = {"sendtypes": datatype, "recvtypes": datatype}
        if persistent:
            init = comm.Alltoallv_init if op == "alltoallv" else comm.Neighbor_alltoallv_init
            request = init(*head, *args, **types)
        rng = np.random.default_rng(ctx.rank)
        received = []
        for _ in range(ROUNDS):
            send.data[:] = rng.integers(0, 255, send.nbytes, dtype=np.uint8)
            if persistent:
                request.Start()
            else:
                start = comm.Ialltoallv if op == "alltoallv" else comm.Ineighbor_alltoallv
                request = start(*head, *args, **types)
            request.Wait()
            received.append(recv.data.tobytes())
        observed = {"received": received, "clock": (ctx.clock.now.hex(), ctx.clock.events)}
        if variant != "system":
            observed["stats"] = dataclasses.asdict(comm.stats)
            observed["uses"] = datatype.attachment.uses
        return observed

    return World(nranks, ranks_per_node=2).run(program)


#: The counters only a persistent collective's bound template moves.
TEMPLATE_COUNTERS = ("plan_cache_misses", "plan_cache_hits")


def _template_counters(observed) -> list[tuple[int, int]]:
    """Pop each rank's ``(misses, hits)`` out of its stats."""
    return [tuple(rank["stats"].pop(name) for name in TEMPLATE_COUNTERS) for rank in observed]


@pytest.mark.parametrize("nranks", [2, 3, 4, 5])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("op", ["alltoallv", "neighbor_alltoallv"])
def test_k_starts_equal_k_one_shot_calls(summit_model, op, variant, nranks):
    persistent = _run(op, variant, nranks, summit_model, True)
    one_shot = _run(op, variant, nranks, summit_model, False)
    if variant != "system":
        # Compiled once, the bound template replayed at every restart; a
        # one-shot call always compiles, and a fallback records nothing.
        bound = (1, ROUNDS - 1) if variant == "tempi-device" else (0, 0)
        assert _template_counters(persistent) == [bound] * nranks
        assert _template_counters(one_shot) == [(0, 0)] * nranks
    assert persistent == one_shot
    if variant != "system":
        stats = persistent[0]["stats"]
        if variant == "tempi-device":
            assert stats["collective_hits"] == stats["plans_built"] == ROUNDS
        else:
            assert stats["collective_fallbacks"] == ROUNDS and stats["plans_built"] == 0


# --------------------------------------------------------------------------- #
# Misuse fails loudly
# --------------------------------------------------------------------------- #

def _bound(ctx, comm):
    peers, send_counts, recv_counts, datatype = _exchange(ctx, comm, "neighbor_alltoallv")
    send = ctx.gpu.malloc(sum(send_counts) * datatype.extent)
    recv = ctx.gpu.malloc(sum(recv_counts) * datatype.extent)
    displs = [0, 0]  # both sections overlap: the bytes do not matter here
    return comm.Neighbor_alltoallv_init(
        peers, send, send_counts, displs, recv, recv_counts, displs,
        sendtypes=datatype, recvtypes=datatype,
    )


@pytest.mark.parametrize("tempi", [True, False], ids=["tempi", "system"])
class TestMisuse:
    def test_start_while_active_and_after_free_raise(self, summit_model, tempi):
        def program(ctx):
            comm = interpose(ctx, model=summit_model) if tempi else ctx.comm
            request = _bound(ctx, comm)
            request.Start()
            with pytest.raises(MpiError, match="still active"):
                request.Start()
            request.Wait()
            request.Free()
            with pytest.raises(MpiError, match="freed"):
                request.Start()
            return request not in ctx.comm.requests

        assert World(3).run(program) == [True] * 3

    def test_an_active_collective_left_at_exit_fails_the_run(self, summit_model, tempi):
        def program(ctx):
            comm = interpose(ctx, model=summit_model) if tempi else ctx.comm
            _bound(ctx, comm).Start()

        with pytest.raises(WorldError) as error:
            World(3).run(program)
        assert set(error.value.failures) == {0, 1, 2}
        assert "never completed" in str(error.value) and "<Request coll>" in str(error.value)

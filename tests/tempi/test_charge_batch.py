"""``charge_batch`` is the ``charge()`` loop, bit for bit, on a call budget.

:func:`~repro.tempi.interposer.charge_batch` is *defined* as
``[r.charge() for r in requests]`` followed by reading each request's clock.
Over worlds of bound ``Neighbor_alltoallv_init`` halo exchanges — cached and
eager configs, flat and fat-tree, two equivalence classes in one batch, a
selection memo dropped mid-run, a member whose memoised method changes, two
requests on one clock — a batched world and a looped world must agree after
every round on every clock (``now.hex()`` and event count), every
``InterposerStats`` counter, every handler's ``uses`` and every resource
cache's counters.  The gate at the bottom holds the batch to at most one
Python/C call per added request (the selection-memo probe).
"""

from __future__ import annotations

import dataclasses
import gc
import sys

import pytest

from repro.bench.simthroughput import CACHED_CONFIG, FABRIC_SPEC
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.config import PackMethod, TempiConfig
from repro.tempi.interposer import charge_batch, interpose


def _world(nranks, config, model, topology=None, twice=()):
    """Every rank binds a ring exchange; odd ranks use a second block shape
    and twice the neighbours, so a batch holds two classes.  Ranks in
    ``twice`` bind it a second time (two requests on one clock).  Nothing is
    executed, so the exchange need not be symmetric."""
    world = World(nranks, ranks_per_node=2, topology=topology)
    comms, requests = [], []
    for ctx in world.contexts:
        comm = interpose(ctx, config, model=model)
        odd = ctx.rank % 2
        datatype = comm.Type_commit(Type_vector(8, 32 >> odd, 64 >> odd, BYTE))
        offsets = (-2, -1, 1, 2) if odd else (-1, 1)
        peers = sorted({(ctx.rank + offset) % nranks for offset in offsets})
        counts = [1] * len(peers)
        displs = [slot * datatype.extent for slot in range(len(peers))]
        nbytes = len(peers) * datatype.extent
        for _ in range(2 if ctx.rank in twice else 1):
            requests.append(comm.Neighbor_alltoallv_init(
                peers, ctx.gpu.malloc(nbytes), counts, displs, ctx.gpu.malloc(nbytes),
                counts, displs, sendtypes=datatype, recvtypes=datatype,
            ))
        comms.append((comm, datatype))
    return world, comms, requests


def _state(world, comms) -> list:
    return [
        (
            ctx.clock.now.hex(), ctx.clock.events, dataclasses.asdict(comm.stats),
            datatype.attachment.uses, dataclasses.asdict(comm.tempi.cache.stats),
        )
        for ctx, (comm, datatype) in zip(world.contexts, comms)
    ]


def _disturb(round_index, comms):
    """Round 3 drops two ranks' selection memos; round 5 plants the other
    method in rank 1's memo, so its restart replays a changed method."""
    if round_index == 3:
        for comm, _ in comms[:2]:
            comm.tempi.cache.clear()
    if round_index == 5:
        comm, datatype = comms[1]
        key = ("method", datatype.size, datatype.attachment.packer.block.block_length)
        bound = comm.stats.method_counts
        other = PackMethod.DEVICE if "oneshot" in bound else PackMethod.ONESHOT
        comm.tempi.cache.clear()
        comm.tempi.cache._queries[key] = other


@pytest.mark.parametrize("topology", [None, FABRIC_SPEC], ids=["flat", "fabric"])
@pytest.mark.parametrize("config", [CACHED_CONFIG, TempiConfig(plan_cache=False)],
                         ids=["cached", "eager"])
def test_charge_batch_equals_the_charge_loop(summit_model, config, topology):
    batched = _world(8, config, summit_model, topology)
    looped = _world(8, config, summit_model, topology)
    for round_index in range(7):
        for world, comms, _ in (batched, looped):
            _disturb(round_index, comms)
        nows = charge_batch(batched[2])
        for request in looped[2]:
            request.charge()
        assert [now.hex() for now in nows.tolist()] == [
            ctx.clock.now.hex() for ctx in batched[0].contexts
        ]
        assert _state(batched[0], batched[1]) == _state(looped[0], looped[1]), round_index
    if config is CACHED_CONFIG:
        assert batched[1][1][0].stats.method_counts.keys() == {"oneshot", "device"}


def test_requests_sharing_a_clock_are_charged_in_list_order(summit_model):
    batched = _world(4, CACHED_CONFIG, summit_model, twice=(2,))
    looped = _world(4, CACHED_CONFIG, summit_model, twice=(2,))
    for _ in range(3):
        nows = charge_batch(batched[2])
        for request in looped[2]:
            request.charge()
        assert _state(batched[0], batched[1]) == _state(looped[0], looped[1])
        contexts = looped[0].contexts
        assert nows.tolist() == [contexts[rank].clock.now for rank in (0, 1, 2, 2, 3)]


def _warm_batch_calls(nranks, model) -> int:
    """``call`` + ``c_call`` events of one warm ``charge_batch`` over ``nranks``."""
    _, _, requests = _world(nranks, CACHED_CONFIG, model)
    for _ in range(2):
        charge_batch(requests)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        charge_batch(requests)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


def test_a_warm_batch_costs_at_most_one_call_per_added_request(summit_model):
    small = _warm_batch_calls(256, summit_model)
    large = _warm_batch_calls(1024, summit_model)
    # 768 more requests; each may cost its one selection-memo probe, no more.
    assert large - small <= 768 + 16, (small, large)

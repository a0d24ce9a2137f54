"""Property wall for the NIC event stream: deterministic, and it only observes.

A list-appending sink (attached with ``trace_default``) records every event a
run emits — the timeline's posts, sequence draws and ingestion commits, the
contended selector's backlog reads and pricing brackets, the
interposer's joins.  Over ``selection`` × ``nic`` × ``batch_eager_sends``,
on a 4-rank ring of nonblocking bursts and on the fat-tree barrier-phased
cross-leaf run:

* two traced runs emit equal event lists, every virtual field compared by
  ``float.hex()`` (the run token makes the interleaving, hence the global
  order, repeat);
* every rank's clock, the received bytes and the run's virtual digest are
  bit-identical with and without the sink.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings, strategies as st
import pytest

from repro.machine.nic import trace_default
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.request import Request
from repro.mpi.world import World
from repro.tempi.config import NIC_MODES, SELECTION_MODES, TempiConfig
from repro.tempi.interposer import interpose

from tests.tempi.test_selection import FATTREE

#: One cross-leaf sender per barrier phase: two nodes of leaf 0, then rank
#: 0's rail-mate (``tests/tempi/test_sanitizer.py``'s clean fat-tree run).
PHASES = {0: 8, 4: 12, 1: 9}


@st.composite
def cases(draw):
    """A config corner, a vector type and the ring's burst and round counts."""
    config = (
        draw(st.sampled_from(SELECTION_MODES)),
        draw(st.sampled_from(NIC_MODES)),
        draw(st.booleans()),
    )
    shape = (
        draw(st.integers(min_value=1, max_value=64)),
        draw(st.integers(min_value=1, max_value=16)),
        draw(st.integers(min_value=0, max_value=16)),
    )
    burst = draw(st.integers(min_value=1, max_value=3))
    rounds = draw(st.integers(min_value=1, max_value=3))
    return config, shape, burst, rounds


def _ring(ctx, comm, datatype, burst: int, rounds: int) -> list:
    sends = [ctx.gpu.malloc(datatype.extent) for _ in range(burst)]
    recvs = [ctx.gpu.malloc(datatype.extent) for _ in range(burst)]
    for tag, buf in enumerate(sends):
        buf.data[:] = (ctx.rank * 31 + tag) % 251
    dest, src = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
    for _ in range(rounds):
        requests = [comm.Irecv((buf, 1, datatype), source=src, tag=tag) for tag, buf in enumerate(recvs)]
        requests += [comm.Isend((buf, 1, datatype), dest=dest, tag=tag) for tag, buf in enumerate(sends)]
        Request.Waitall(requests)
    comm.Barrier()
    return recvs


def _fat_tree(ctx, comm, datatype, burst: int, rounds: int) -> list:
    buf = ctx.gpu.malloc(datatype.extent)
    buf.data[:] = ctx.rank % 251
    for sender, receiver in PHASES.items():
        if ctx.rank == sender:
            comm.Send((buf, 1, datatype), dest=receiver)
        elif ctx.rank == receiver:
            comm.Recv((buf, 1, datatype), source=sender)
        comm.Barrier()
    return [buf]


SCENARIOS = {
    "ring": (_ring, lambda: World(4, ranks_per_node=2)),
    "fat_tree": (
        _fat_tree,
        lambda: World(16, ranks_per_node=FATTREE.ranks_per_node, topology=FATTREE),
    ),
}


def _hexed(value):
    """``value`` with every float as ``float.hex()`` and every event named by its type."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return (type(value).__name__, *map(_hexed, value))
    if isinstance(value, (tuple, list)):
        return tuple(map(_hexed, value))
    return value


def _run(scenario: str, case, model, sink):
    """One world's per-rank (clock, received bytes) and its virtual digest."""
    (selection, nic, batch), (nblocks, block, gap), burst, rounds = case
    program, make_world = SCENARIOS[scenario]
    config = TempiConfig(selection=selection, nic=nic, batch_eager_sends=batch)

    def rank(ctx):
        comm = interpose(ctx, config, model=model)
        datatype = comm.Type_commit(Type_vector(nblocks, block, block + gap, BYTE))
        received = program(ctx, comm, datatype, burst, rounds)
        return ctx.clock.now.hex(), hashlib.sha256(b"".join(b.data.tobytes() for b in received)).hexdigest()

    with trace_default(sink):
        world = make_world()
    results = world.run(rank)
    timeline = world.nic
    digest = hashlib.sha256(repr((
        [ctx.clock.events for ctx in world.contexts],
        timeline.reservations, timeline.stalls, timeline.stalled_s.hex(),
        timeline.ingests, timeline.ingest_stalls, timeline.ingest_stalled_s.hex(),
        timeline.fabric_stalls, timeline.fabric_stalled_s.hex(), timeline.peak_pending,
        timeline.state_fingerprint(),
    )).encode()).hexdigest()
    return results, digest


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@settings(max_examples=10, deadline=None)
@given(case=cases())
def test_the_stream_is_deterministic_and_only_observes(summit_model, scenario, case):
    streams = []
    for _ in range(2):
        events: list = []

        def sink(timeline, event, events=events):
            events.append(event)

        traced = _run(scenario, case, summit_model, sink)
        streams.append(_hexed(events))
    assert streams[0] == streams[1]
    assert streams[0], "a traced run emitted no event"
    assert traced == _run(scenario, case, summit_model, None)

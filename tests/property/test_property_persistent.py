"""Property wall for persistent requests (ISSUE 21).

``Send_init``/``Recv_init`` bind a message once and ``Start`` restarts it;
``Isend``/``Irecv`` are the same bind started once.  So for drawn datatypes,
counts, peers, tags and ``k`` rounds, ``k`` rounds of ``Startall`` +
``Waitall`` over bound requests must be **indistinguishable** from ``k``
rounds of fresh ``Irecv``/``Isend`` + ``Waitall``: the received bytes of
every round, every rank's ``clock.now.hex()``, ``InterposerStats``,
``CacheStats``, every packer's ``PackerStats`` and the ``NicTimeline``
counters — under the default config, each rung of the ablation ladder,
``selection="contended"`` (the selector is asked again at every ``Start``),
``ANY_SOURCE`` receives, the sanitizer, the system communicator, and the
three ways a message is the system's (contiguous type, host buffer, a type
TEMPI could not translate — whose ``fallbacks`` count is owed per ``Start``).

Below the wall: one deterministic example of a forced method flip (the bound
plan is recompiled, not reused) and of each way to misuse a request.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.memory import CudaBufferError
from repro.machine.nic import trace_default
from repro.mpi.constructors import Type_indexed, Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.errors import MpiError
from repro.mpi.request import Request
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status
from repro.mpi.world import World, WorldError
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose
from repro.tempi.sanitizer import ClockSanitizer

from tests.machine.test_nic import MessageLog

#: How each wall variant builds its communicator's config (``None``: the
#: system communicator, no interposer).
CONFIGS = {
    "default": lambda: TempiConfig(),
    "serial": lambda: TempiConfig(overlap=False),
    "per_plan": lambda: TempiConfig(progress="per_plan"),
    "inject_only": lambda: TempiConfig(nic="inject_only"),
    "contended": lambda: TempiConfig(selection="contended"),
    "system": None,
}


def _datatype(shape):
    """``("vector", nblocks, block, gap)`` (gap 0: contiguous) or ``("indexed",)``."""
    if shape[0] == "indexed":
        return Type_indexed([2, 1, 3], [0, 5, 10], BYTE)  # irregular: no packer
    _, nblocks, block, gap = shape
    return Type_vector(nblocks, block, block + gap, BYTE)


@st.composite
def exchange_cases(draw):
    """A small world, a palette of datatypes, a message list and a round count."""
    nranks = draw(st.integers(min_value=2, max_value=4))
    shapes = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("vector"),
                    st.integers(min_value=1, max_value=6),
                    st.integers(min_value=1, max_value=8),
                    st.integers(min_value=0, max_value=8),
                ),
                st.just(("indexed",)),
            ),
            min_size=1,
            max_size=3,
        )
    )
    messages = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=nranks - 1),  # source
                st.integers(min_value=0, max_value=nranks - 1),  # dest
                st.integers(min_value=0, max_value=len(shapes) - 1),
                st.integers(min_value=1, max_value=3),  # count
                st.booleans(),  # host buffers: the system's message
            ),
            min_size=1,
            max_size=6,
        )
    )
    rounds = draw(st.integers(min_value=1, max_value=4))
    any_source = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return nranks, shapes, messages, rounds, any_source, seed


def _counters(nic, log: MessageLog) -> dict:
    return {
        "reservations": nic.reservations,
        "stalls": nic.stalls,
        "ingests": nic.ingests,
        "ingest_stalls": nic.ingest_stalls,
        "messages": log.per_rank,
        "fabric_stalls": nic.fabric_stalls,
        "peak_pending": nic.peak_pending,
        "ledger_len": nic.ledger_len(),
    }


def _run(case, make_config, model, persistent: bool, sink=None):
    """Everything one variant leaves behind: per-rank observations, NIC
    counters and every message's stall seconds and landing (``sink`` sees
    the events too)."""
    nranks, shapes, messages, rounds, any_source, seed = case

    def program(ctx):
        comm = ctx.comm if make_config is None else interpose(ctx, make_config(), model=model)
        types = [comm.Type_commit(_datatype(shape)) for shape in shapes]
        posts = []  # (kind, spec, peer, tag), receives first
        buffers = []
        for tag, (source, dest, shape, count, host) in enumerate(messages):
            alloc = ctx.gpu.host_alloc if host else ctx.gpu.malloc
            nbytes = count * types[shape].extent
            if dest == ctx.rank:
                buffer = alloc(nbytes)
                buffers.append(buffer)
                posts.append(("recv", (buffer, count, types[shape]), ANY_SOURCE if any_source else source, tag))
        nrecvs = len(posts)
        rng = np.random.default_rng(seed + ctx.rank)
        for tag, (source, dest, shape, count, host) in enumerate(messages):
            alloc = ctx.gpu.host_alloc if host else ctx.gpu.malloc
            if source == ctx.rank:
                buffer = alloc(count * types[shape].extent)
                buffer.data[:] = rng.integers(0, 255, buffer.nbytes, dtype=np.uint8)
                posts.append(("send", (buffer, count, types[shape]), dest, tag))
        if persistent:
            bound = [
                (comm.Recv_init if kind == "recv" else comm.Send_init)(spec, peer, tag)
                for kind, spec, peer, tag in posts
            ]
        received = []
        for round_index in range(rounds):
            comm.Barrier()
            for _, spec, _, _ in posts[nrecvs:]:
                spec[0].data[:] += np.uint8(round_index)  # fresh bytes every round
            if persistent:
                requests = bound
                comm.Startall(requests[:nrecvs])
                comm.Startall(requests[nrecvs:])
            else:
                requests = [
                    (comm.Irecv if kind == "recv" else comm.Isend)(spec, peer, tag)
                    for kind, spec, peer, tag in posts
                ]
            statuses = Request.Waitall(requests[:nrecvs])
            Request.Waitall(requests[nrecvs:])
            received.append(
                (
                    [buffer.data.tobytes() for buffer in buffers],
                    [(s.source, s.tag, s.count_bytes) for s in statuses],
                )
            )
        comm.Barrier()
        observed = {"received": received, "clock": (ctx.clock.now.hex(), ctx.clock.events)}
        if make_config is not None:
            observed["interposer"] = dataclasses.asdict(comm.stats)
            observed["cache"] = dataclasses.asdict(comm.tempi.cache.stats)
            observed["handlers"] = [
                (t.attachment.uses, t.attachment.packer and dataclasses.asdict(t.attachment.packer.stats))
                for t in types
            ]
        return observed

    log = MessageLog(then=sink)
    with trace_default(log):
        world = World(nranks, ranks_per_node=2)
    return world.run(program), _counters(world.nic, log)


@pytest.mark.parametrize("variant", sorted(CONFIGS))
@settings(max_examples=12, deadline=None)
@given(case=exchange_cases())
def test_k_starts_equal_k_one_shot_rounds(summit_model, variant, case):
    make_config = CONFIGS[variant]
    assert _run(case, make_config, summit_model, True) == _run(case, make_config, summit_model, False)


@settings(max_examples=12, deadline=None)
@given(case=exchange_cases())
def test_k_starts_equal_k_one_shot_rounds_under_the_sanitizer(summit_model, case):
    sanitizer = ClockSanitizer()
    persistent = _run(case, TempiConfig, summit_model, True, sanitizer)
    one_shot = _run(case, TempiConfig, summit_model, False, sanitizer)
    assert persistent == one_shot


def test_fallbacks_are_owed_per_start_not_per_bind(summit_model):
    """A type TEMPI could not translate: the system's message, counted each round."""

    def program(ctx):
        comm = interpose(ctx, model=summit_model)
        datatype = comm.Type_commit(_datatype(("indexed",)))
        buffer = ctx.gpu.malloc(datatype.extent)
        if ctx.rank == 0:
            request = comm.Send_init((buffer, 1, datatype), 1, 5)
        else:
            request = comm.Recv_init((buffer, 1, datatype), 0, 5)
        assert comm.stats.fallbacks == 0
        for _ in range(3):
            comm.Start(request)
            request.Wait()
        return comm.stats.fallbacks, comm.stats.sends + comm.stats.recvs

    assert World(2).run(program) == [(3, 0), (3, 0)]


# --------------------------------------------------------------------------- #
# A forced method flip recompiles the bound plan
# --------------------------------------------------------------------------- #

#: The 4 KiB crossover shape: ``device`` to an idle peer, ``oneshot`` to one
#: whose ingestion port is backed up — which only a selector that is asked
#: again at the ``Start``, *with the bound peer*, can see.
CROSSOVER = ("vector", 4096, 1, 1)
BACKGROUND = ("vector", 4096, 64, 64)


def _flip_world(model, persistent: bool):
    """Rank 0 sends the probe to rank 1 three times; the second time rank 2
    has 256 KiB in flight to rank 1 (rank 0's own port stays idle)."""

    def program(ctx):
        comm = interpose(ctx, TempiConfig(selection="contended"), model=model)
        probe = comm.Type_commit(_datatype(CROSSOVER))
        big = comm.Type_commit(_datatype(BACKGROUND))
        spec = (ctx.gpu.malloc(probe.extent), 1, probe)
        big_spec = (ctx.gpu.malloc(big.extent), 1, big)
        bound = None
        if persistent and ctx.rank < 2:
            bound = (comm.Send_init, comm.Recv_init)[ctx.rank](spec, 1 - ctx.rank, 1)
        for backlog in (False, True, False):
            comm.Barrier()
            requests = []
            if backlog and ctx.rank == 2:
                requests.append(comm.Isend(big_spec, 1, 2))
            if backlog and ctx.rank == 1:
                requests.append(comm.Irecv(big_spec, 2, 2))
            comm.Barrier()
            if bound is not None:
                bound.Start()
                requests.append(bound)
            elif ctx.rank < 2:
                requests.append((comm.Isend, comm.Irecv)[ctx.rank](spec, 1 - ctx.rank, 1))
            Request.Waitall(requests[::-1])
        return ctx.clock.now.hex(), dataclasses.asdict(comm.stats)

    return World(3, ranks_per_node=1).run(program)


def test_a_method_flip_recompiles_the_bound_plan(summit_model):
    persistent = _flip_world(summit_model, True)
    assert persistent == _flip_world(summit_model, False)
    # The sender's three probes chose device, oneshot, device: two compiles
    # of the bound send, each plan run by the round that chose it.
    assert persistent[0][1]["method_counts"] == {"device": 2, "oneshot": 1}


# --------------------------------------------------------------------------- #
# Misuse fails loudly
# --------------------------------------------------------------------------- #

STRIDED = ("vector", 4, 4, 4)


def _pair(program, summit_model, tempi: bool = True):
    """Run ``program(ctx, comm, datatype, buffer)`` on two ranks."""

    def rank(ctx):
        comm = interpose(ctx, model=summit_model) if tempi else ctx.comm
        datatype = comm.Type_commit(_datatype(STRIDED))
        return program(ctx, comm, datatype, ctx.gpu.malloc(datatype.extent))

    return World(2).run(rank)


@pytest.mark.parametrize("tempi", [True, False], ids=["tempi", "system"])
class TestMisuse:
    def test_start_on_an_active_request_names_kind_peer_and_tag(self, summit_model, tempi):
        def program(ctx, comm, datatype, buffer):
            if ctx.rank == 0:
                request = comm.Recv_init((buffer, 1, datatype), 1, 7)
                request.Start()
                with pytest.raises(MpiError, match=r"recv peer=1 tag=7.*still active"):
                    request.Start()
                request.Wait()
                request.Start()  # inactive again: restartable
                request.Wait()
            else:
                for _ in range(2):
                    comm.Send((buffer, 1, datatype), 0, 7)

        _pair(program, summit_model, tempi)

    def test_start_and_wait_after_free_raise(self, summit_model, tempi):
        def program(ctx, comm, datatype, buffer):
            request = comm.Send_init((buffer, 1, datatype), 1 - ctx.rank, 3)
            assert request in ctx.comm.requests
            request.Free()
            assert request not in ctx.comm.requests
            with pytest.raises(MpiError, match="freed"):
                request.Start()
            with pytest.raises(MpiError, match="after Free"):
                request.Wait()
            with pytest.raises(MpiError, match="after Free"):
                request.Test()
            with pytest.raises(MpiError, match="already freed"):
                request.Free()

        _pair(program, summit_model, tempi)

    def test_a_request_freed_while_active_completes_and_cannot_restart(self, summit_model, tempi):
        def program(ctx, comm, datatype, buffer):
            if ctx.rank == 0:
                buffer.data[:] = 9
                request = comm.Send_init((buffer, 1, datatype), 1, 3)
                request.Start()
                request.Free()
                request.Wait()
                with pytest.raises(MpiError, match="freed"):
                    request.Start()
            else:
                comm.Recv((buffer, 1, datatype), 0, 3)
                assert buffer.data[0] == 9

        _pair(program, summit_model, tempi)

    def test_wait_and_test_on_an_inactive_request_return_an_empty_status(self, summit_model, tempi):
        def program(ctx, comm, datatype, buffer):
            peer = 1 - ctx.rank
            recv = comm.Recv_init((buffer, 1, datatype), peer, 4)
            send = comm.Send_init((ctx.gpu.malloc(datatype.extent), 1, datatype), peer, 4)
            before = (ctx.clock.now, ctx.clock.events)
            for request in (recv, send):
                assert request.Wait() == Status()
                assert request.Test() == (True, Status())
            assert (ctx.clock.now, ctx.clock.events) == before
            comm.Startall([recv, send])
            status = recv.Wait()
            send.Wait()
            assert (status.source, status.tag, status.count_bytes) == (peer, 4, datatype.size)
            # Completed is inactive: the round's status is not kept.
            assert recv.Wait() == Status() and recv.Test() == (True, Status())

        _pair(program, summit_model, tempi)

    def test_a_buffer_freed_between_rounds_raises_at_start_as_isend_does(self, summit_model, tempi):
        def program(ctx, comm, datatype, buffer):
            if ctx.rank == 1:
                comm.Recv((buffer, 1, datatype), 0, 6)
                return None
            request = comm.Send_init((buffer, 1, datatype), 1, 6)
            request.Start()
            request.Wait()
            ctx.gpu.free(buffer)
            with pytest.raises(CudaBufferError) as one_shot:
                comm.Isend((buffer, 1, datatype), 1, 6)
            with pytest.raises(CudaBufferError) as restarted:
                request.Start()
            request.Free()  # the failed start left it inactive
            return str(one_shot.value), str(restarted.value)

        texts = _pair(program, summit_model, tempi)[0]
        assert texts[0] == texts[1]

    def test_a_rank_that_returns_with_an_active_request_is_reported(self, summit_model, tempi):
        def program(ctx, comm, datatype, buffer):
            if ctx.rank == 1:
                comm.Recv_init((buffer, 1, datatype), 0, 11).Start()

        with pytest.raises(WorldError) as error:
            _pair(program, summit_model, tempi)
        assert set(error.value.failures) == {1}
        assert "rank 1" in str(error.value) and "recv peer=0 tag=11" in str(error.value)

    def test_waitany_ignores_inactive_persistent_requests(self, summit_model, tempi):
        def program(ctx, comm, datatype, buffer):
            peer = 1 - ctx.rank
            idle = comm.Recv_init((buffer, 1, datatype), peer, ANY_TAG)
            with pytest.raises(MpiError, match="inactive"):
                Request.Waitany([idle])
            send = comm.Isend((ctx.gpu.malloc(datatype.extent), 1, datatype), peer, 2)
            assert Request.Waitany([idle, send])[0] == 1
            idle.Start()
            assert Request.Waitany([idle])[0] == 0

        _pair(program, summit_model, tempi)


def test_start_on_a_one_shot_request_raises(summit_model):
    def program(ctx, comm, datatype, buffer):
        if ctx.rank == 0:
            request = comm.Isend((buffer, 1, datatype), 1, 0)
            request.Wait()
            with pytest.raises(MpiError, match="not persistent"):
                request.Start()
            with pytest.raises(MpiError, match="not persistent"):
                request.Free()
        else:
            comm.Recv((buffer, 1, datatype), 0, 0)

    _pair(program, summit_model)

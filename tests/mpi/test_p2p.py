"""Tests for the message router and requests."""

import numpy as np
import pytest

from repro.gpu.clock import VirtualClock
from repro.mpi.errors import MpiCommError, MpiError
from repro.mpi.p2p import Envelope, MessageRouter
from repro.mpi.request import Request, null_request
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status
from repro.mpi.world import World, WorldError


def envelope(source=0, dest=1, tag=0, context=0, nbytes=8, available_at=0.0):
    return Envelope(
        source=source,
        dest=dest,
        tag=tag,
        context=context,
        payload=np.zeros(nbytes, dtype=np.uint8),
        available_at=available_at,
        device=False,
    )


class TestRouterMatching:
    def test_post_then_receive(self):
        router = MessageRouter(2)
        router.post(envelope(tag=7))
        received = router.receive(1, 0, 7, 0)
        assert received.tag == 7
        assert received.payload.nbytes == 8

    def test_wildcard_source_and_tag(self):
        router = MessageRouter(2)
        router.post(envelope(source=0, tag=3))
        received = router.receive(1, ANY_SOURCE, ANY_TAG, 0)
        assert received.source == 0

    def test_tag_mismatch_not_matched(self):
        router = MessageRouter(2)
        router.post(envelope(tag=3))
        assert router.probe(1, 0, 4, 0) is None
        assert router.probe(1, 0, 3, 0) is not None

    def test_context_isolation(self):
        router = MessageRouter(2)
        router.post(envelope(context=1))
        assert router.probe(1, ANY_SOURCE, ANY_TAG, 0) is None
        assert router.probe(1, ANY_SOURCE, ANY_TAG, 1) is not None

    def test_fifo_order_per_source(self):
        router = MessageRouter(2)
        first = envelope(tag=1, nbytes=1)
        second = envelope(tag=1, nbytes=2)
        router.post(first)
        router.post(second)
        assert router.receive(1, 0, 1, 0).payload.nbytes == 1
        assert router.receive(1, 0, 1, 0).payload.nbytes == 2

    def test_receive_from_the_middle_keeps_the_rest_in_order(self):
        router = MessageRouter(2)
        for tag, nbytes in ((1, 1), (2, 2), (1, 3), (2, 4)):
            router.post(envelope(tag=tag, nbytes=nbytes))
        assert router.receive(1, 0, 2, 0).payload.nbytes == 2
        assert [router.receive(1, 0, ANY_TAG, 0).payload.nbytes for _ in range(3)] == [1, 3, 4]

    def test_envelopes_compare_by_identity(self):
        """Field-by-field equality would reach ``payload == payload``."""
        first, twin = envelope(nbytes=8), envelope(nbytes=8)
        assert first == first
        assert first != twin

    def test_pending_count(self):
        router = MessageRouter(2)
        router.post(envelope())
        router.post(envelope())
        assert router.pending(1) == 2
        assert router.pending(0) == 0

    def test_a_receive_outside_a_run_that_would_block_fails_at_once(self):
        """No rank holds the token, so none could wake the receiver."""
        router = MessageRouter(2)
        with pytest.raises(MpiCommError, match=(
            r"rank 1 would block in receive\(source=0, tag=0, context=0\) outside a World.run"
        )):
            router.receive(1, 0, 0, 0)
        assert router._waiting == {} and not router._runnable

    def test_a_barrier_outside_a_run_fails_at_once(self):
        world = World(2)
        with pytest.raises(MpiCommError, match="rank 0 would block in barrier outside a World.run"):
            world.barrier_wait(0, 0.0)

    def test_invalid_destination_rejected(self):
        router = MessageRouter(2)
        with pytest.raises(MpiCommError):
            router.post(envelope(dest=5))

    def test_invalid_receiver_rejected(self):
        router = MessageRouter(2)
        with pytest.raises(MpiCommError):
            router.receive(9, 0, 0, 0)

    def test_shutdown_wakes_receivers(self):
        router = MessageRouter(2)
        router.shutdown()
        with pytest.raises(MpiCommError):
            router.receive(1, 0, 0, 0)
        with pytest.raises(MpiCommError):
            router.post(envelope())

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            MessageRouter(0)


class TestBaton:
    """The run token moves by one release and one acquire of a per-rank lock,
    and no release outlives the wait it was made for."""

    def test_a_world_runs_again_after_a_deadlock_with_the_fifo_clocks(self):
        def crossed(ctx):
            """Ranks 0 and 1 receive from each other, 2 and 3 wait in a barrier."""
            if ctx.rank < 2:
                ctx.comm.Recv(ctx.gpu.host_alloc(8), source=1 - ctx.rank, tag=4)
            ctx.comm.Barrier()

        def ring(ctx, trail, clocks):
            ctx.clock.advance_to(clocks[ctx.rank])  # where the deadlocked run left it
            buffer = ctx.gpu.host_alloc(64)
            right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
            for step in range(3):
                trail.append((ctx.rank, step))
                ctx.comm.Send(buffer, dest=right, tag=step)
                ctx.comm.Recv(buffer, source=left, tag=step)
            ctx.comm.Barrier()
            return ctx.clock.now.hex()

        world = World(4)
        with pytest.raises(WorldError, match="rank 2 is blocked in barrier"):
            world.run(crossed)
        assert all(baton.locked() for baton in world.router._batons)
        again, fresh, clocks = [], [], world.clocks
        assert world.run(ring, again, clocks) == World(4).run(ring, fresh, clocks)
        assert again == fresh
        assert all(baton.locked() for baton in world.router._batons)


class TestRequests:
    def test_send_request_waits_to_completion_time(self):
        clock = VirtualClock()
        request = Request("send", completion_time=5e-6, clock=clock)
        request.Wait()
        assert clock.now == pytest.approx(5e-6)

    def test_send_request_test_completes_after_time(self):
        clock = VirtualClock()
        request = Request("send", completion_time=5e-6, clock=clock)
        done, _ = request.Test()
        assert not done
        clock.advance(5e-6)
        done, _ = request.Test()
        assert done

    def test_recv_request_defers_completion_callback(self):
        calls = []

        def complete():
            calls.append(1)
            return Status(source=3, tag=9, count_bytes=4)

        request = Request("recv", complete=complete)
        assert not calls
        status = request.Wait()
        assert calls == [1]
        assert status.Get_source() == 3
        assert status.Get_tag() == 9

    def test_wait_is_idempotent(self):
        calls = []
        request = Request("recv", complete=lambda: calls.append(1) or Status())
        request.Wait()
        request.Wait()
        assert len(calls) == 1

    def test_waitall(self):
        statuses = Request.Waitall([null_request(), null_request()])
        assert len(statuses) == 2

    def test_waitany_returns_first_incomplete(self):
        first = null_request()
        second = Request("recv", complete=lambda: Status(tag=5))
        index, status = Request.Waitany([first, second])
        assert index == 1
        assert status.Get_tag() == 5

    def test_waitany_empty_rejected(self):
        with pytest.raises(MpiError):
            Request.Waitany([])

    def test_unknown_kind_rejected(self):
        with pytest.raises(MpiError):
            Request("bogus")

    def test_null_request_is_complete(self):
        assert null_request().completed


class TestStatus:
    def test_get_count_in_elements(self):
        from repro.mpi.datatype import DOUBLE

        status = Status(count_bytes=32)
        assert status.Get_count() == 32
        assert status.Get_count(DOUBLE) == 4

    def test_defaults_are_wildcards(self):
        status = Status()
        assert status.Get_source() == ANY_SOURCE
        assert status.Get_tag() == ANY_TAG

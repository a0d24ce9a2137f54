"""Tests for the nonblocking API of the system MPI layer.

Covers the split-phase collectives (``Ialltoallv`` / ``Ineighbor_alltoallv``),
the readiness-probing ``Test``, and the ``Waitany`` all-null regression.
"""

import numpy as np
import pytest

from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.errors import MpiArgumentError, MpiError
from repro.mpi.request import Request, null_request
from repro.mpi.world import World


class TestWaitanyAllNull:
    def test_all_null_list_raises(self):
        """Regression: an all-null list used to return (0, status) silently;
        a caller completing requests one by one would loop forever."""
        with pytest.raises(MpiError):
            Request.Waitany([null_request(), null_request()])

    def test_empty_list_raises(self):
        with pytest.raises(MpiError):
            Request.Waitany([])

    def test_null_entries_skipped(self):
        def program(ctx):
            if ctx.rank == 0:
                buf = np.arange(8, dtype=np.uint8)
                ctx.comm.Send(buf, dest=1)
                return True
            buf = np.zeros(8, dtype=np.uint8)
            request = ctx.comm.Irecv(buf)
            index, status = Request.Waitany([null_request(), request, null_request()])
            assert index == 1
            assert status.Get_source() == 0
            assert (buf == np.arange(8, dtype=np.uint8)).all()
            return True

        assert all(World(2, ranks_per_node=1).run(program))

    def test_completed_non_null_returned(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.Send(np.zeros(4, dtype=np.uint8), dest=1)
                return True
            request = ctx.comm.Irecv(np.zeros(4, dtype=np.uint8))
            request.Wait()
            index, _ = Request.Waitany([null_request(), request])
            assert index == 1
            return True

        assert all(World(2, ranks_per_node=1).run(program))


class TestWaitanyArrivalOrder:
    def test_blocks_on_earliest_arrival_not_list_order(self):
        """Regression: with nothing nonblockingly completable, ``Waitany``
        used to block on the first active request; it must pick the one with
        the earliest known arrival time instead."""
        from repro.gpu.clock import VirtualClock

        clock = VirtualClock()
        late = Request("send", completion_time=2.0, clock=clock)
        early = Request("send", completion_time=1.0, clock=clock)
        index, _ = Request.Waitany([late, early])
        assert index == 1
        # The clock advanced only to the early completion, not past the late.
        assert clock.now == 1.0
        assert not late.completed

    def test_arrival_callback_orders_receives(self):
        from repro.gpu.clock import VirtualClock
        from repro.mpi.status import Status

        clock = VirtualClock()
        completions = []

        def make(when):
            return Request(
                "recv",
                complete=lambda: completions.append(when) or Status(),
                arrival=lambda: when,
            )

        slow, fast = make(5.0), make(0.5)
        index, _ = Request.Waitany([slow, fast])
        assert index == 1
        assert completions == [0.5]

    def test_unknown_arrivals_fall_back_to_list_order(self):
        from repro.mpi.status import Status

        request = Request("recv", complete=lambda: Status(tag=3))
        index, status = Request.Waitany([request, Request("recv", complete=Status)])
        assert index == 0
        assert status.Get_tag() == 3

    def test_earliest_arrival_in_world(self):
        """Two Irecvs whose messages arrive out of list order: Waitany must
        complete the earlier arrival first and leave the later one pending."""

        def program(ctx):
            if ctx.rank == 0:
                # Isends post both messages at (nearly) the same virtual time;
                # the larger one takes longer on the wire, so the second-listed
                # receive below is the one that completes first.
                slow = ctx.comm.Isend(np.zeros(1 << 18, dtype=np.uint8), dest=1, tag=1)
                fast = ctx.comm.Isend(np.full(1 << 16, 9, dtype=np.uint8), dest=1, tag=2)
                ctx.comm.Barrier()
                Request.Waitall([slow, fast])
                ctx.comm.Barrier()
                return True
            big = np.zeros(1 << 18, dtype=np.uint8)
            small = np.zeros(1 << 16, dtype=np.uint8)
            slow = ctx.comm.Irecv(big, source=0, tag=1)
            fast = ctx.comm.Irecv(small, source=0, tag=2)
            ctx.comm.Barrier()  # both messages posted; neither arrived yet
            slow_at, fast_at = slow.arrival_hint(), fast.arrival_hint()
            assert slow_at is not None and fast_at is not None
            assert ctx.clock.now < fast_at < slow_at  # genuinely pending
            index, status = Request.Waitany([slow, fast])
            # tag-2 is smaller and lands first despite being listed last.
            assert index == 1
            assert status.Get_tag() == 2
            assert ctx.clock.now == fast_at  # did not wait for the slow one
            assert (small == 9).all()
            slow.Wait()
            ctx.comm.Barrier()
            return True

        assert all(World(2, ranks_per_node=1).run(program))


class TestRequestTestReadiness:
    def test_testall_reports_pending_then_done(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.Send(np.ones(16, dtype=np.uint8), dest=1)
                return True
            buf = np.zeros(16, dtype=np.uint8)
            request = ctx.comm.Irecv(buf, source=0)
            done, statuses = Request.Testall([request])
            if not done:
                request.Wait()
            assert request.completed
            assert (buf == 1).all()
            return True

        assert all(World(2, ranks_per_node=1).run(program))


def _alltoallv_bytes(ctx, comm, *, nonblocking):
    size = comm.Get_size()
    chunk = 64
    send = np.zeros(chunk * size, dtype=np.uint8)
    recv = np.zeros(chunk * size, dtype=np.uint8)
    for peer in range(size):
        send[peer * chunk : (peer + 1) * chunk] = (ctx.rank * 10 + peer) % 251
    counts = [chunk] * size
    displs = [peer * chunk for peer in range(size)]
    if nonblocking:
        comm.Ialltoallv(send, counts, displs, recv, counts, displs).Wait()
    else:
        comm.Alltoallv(send, counts, displs, recv, counts, displs)
    return recv.copy()


class TestIalltoallvByte:
    def test_matches_blocking(self):
        blocking = World(4, ranks_per_node=2).run(
            lambda ctx: _alltoallv_bytes(ctx, ctx.comm, nonblocking=False)
        )
        deferred = World(4, ranks_per_node=2).run(
            lambda ctx: _alltoallv_bytes(ctx, ctx.comm, nonblocking=True)
        )
        for a, b in zip(blocking, deferred):
            assert np.array_equal(a, b)

    def test_sends_posted_before_wait(self):
        """The split phase: posting happens at call time, not at Wait."""

        def program(ctx):
            size = ctx.size
            send = np.zeros(4 * size, dtype=np.uint8)
            recv = np.zeros(4 * size, dtype=np.uint8)
            counts = [4] * size
            displs = [4 * p for p in range(size)]
            request = ctx.comm.Ialltoallv(send, counts, displs, recv, counts, displs)
            posted = ctx.comm.router.messages_posted
            request.Wait()
            return posted

        posted = World(2, ranks_per_node=1).run(program)
        assert all(p >= 1 for p in posted)

    def test_validation_raises_at_call_time(self):
        def program(ctx):
            send = np.zeros(8, dtype=np.uint8)
            with pytest.raises(MpiArgumentError):
                ctx.comm.Ialltoallv(send, [-1] * ctx.size, [0] * ctx.size, send, [8] * ctx.size, [0] * ctx.size)
            return True

        assert all(World(1).run(program))

    def test_half_specified_types_rejected(self):
        def program(ctx):
            send = np.zeros(8, dtype=np.uint8)
            with pytest.raises(MpiArgumentError):
                ctx.comm.Ialltoallv(
                    send, [8], [0], send, [8], [0], sendtypes=BYTE
                )
            return True

        assert all(World(1).run(program))


class TestIalltoallvTyped:
    def _typed(self, ctx, comm, *, nonblocking):
        datatype = comm.Type_commit(Type_vector(8, 4, 16, BYTE))
        size = comm.Get_size()
        send = ctx.gpu.malloc(datatype.extent * size)
        recv = ctx.gpu.malloc(datatype.extent * size)
        send.data[:] = (ctx.rank + 1) % 251
        counts = [1] * size
        displs = [peer * datatype.extent for peer in range(size)]
        if nonblocking:
            comm.Ialltoallv(
                send, counts, displs, recv, counts, displs,
                sendtypes=datatype, recvtypes=datatype,
            ).Wait()
        else:
            comm.Alltoallv(
                send, counts, displs, recv, counts, displs,
                sendtypes=datatype, recvtypes=datatype,
            )
        return recv.data.copy()

    def test_matches_blocking(self):
        blocking = World(4, ranks_per_node=2).run(
            lambda ctx: self._typed(ctx, ctx.comm, nonblocking=False)
        )
        deferred = World(4, ranks_per_node=2).run(
            lambda ctx: self._typed(ctx, ctx.comm, nonblocking=True)
        )
        for a, b in zip(blocking, deferred):
            assert np.array_equal(a, b)


class TestIneighborAlltoallv:
    def test_matches_blocking_neighbor(self):
        def program(ctx, nonblocking):
            size = ctx.size
            neighbors = [(ctx.rank + 1) % size, (ctx.rank - 1) % size]
            if len(set(neighbors)) != len(neighbors):
                neighbors = [neighbors[0]]
            chunk = 32
            send = np.zeros(chunk * len(neighbors), dtype=np.uint8)
            recv = np.zeros(chunk * len(neighbors), dtype=np.uint8)
            send[:] = (ctx.rank + 1) % 251
            counts = [chunk] * len(neighbors)
            displs = [i * chunk for i in range(len(neighbors))]
            if nonblocking:
                ctx.comm.Ineighbor_alltoallv(
                    neighbors, send, counts, displs, recv, counts, displs
                ).Wait()
            else:
                ctx.comm.Neighbor_alltoallv(
                    neighbors, send, counts, displs, recv, counts, displs
                )
            return recv.copy()

        blocking = World(4, ranks_per_node=2).run(program, False)
        deferred = World(4, ranks_per_node=2).run(program, True)
        for a, b in zip(blocking, deferred):
            assert np.array_equal(a, b)


class TestVirtualArrivalGating:
    """``Test`` must answer in virtual time, not wall-clock mailbox state."""

    def test_posted_but_not_arrived_is_not_complete(self):
        def program(ctx):
            nbytes = 4 * 1024 * 1024  # big enough that wire time >> barrier time
            if ctx.rank == 0:
                send = ctx.comm.Isend(np.ones(nbytes, dtype=np.uint8), dest=1)
                ctx.comm.Barrier()
                ctx.comm.Barrier()
                send.Wait()
                return True
            buf = np.zeros(nbytes, dtype=np.uint8)
            request = ctx.comm.Irecv(buf, source=0)
            ctx.comm.Barrier()  # envelope is in the mailbox past this point
            done, _ = request.Test()
            assert not done, "Test completed before the message's virtual arrival"
            envelope = ctx.comm.router.probe(ctx.rank, 0, -1, ctx.comm.context)
            assert envelope is not None
            ctx.clock.advance_to(envelope.available_at)
            done, status = request.Test()
            assert done and status is not None
            ctx.comm.Barrier()
            return True

        assert all(World(2, ranks_per_node=1).run(program))

    def test_waitany_prefers_completable_over_blocking(self):
        """Waitany must return an already-arrived request even when it is
        listed after one that would block forever."""

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.Send(np.full(8, 3, dtype=np.uint8), dest=1, tag=7)
                ctx.comm.Barrier()
                return True
            never = ctx.comm.Irecv(np.zeros(8, dtype=np.uint8), source=0, tag=99)
            arrived_buf = np.zeros(8, dtype=np.uint8)
            arrived = ctx.comm.Irecv(arrived_buf, source=0, tag=7)
            ctx.comm.Barrier()  # tag-7 message posted and (post-barrier) arrived
            index, status = Request.Waitany([never, arrived])
            assert index == 1
            assert status.Get_tag() == 7
            assert (arrived_buf == 3).all()
            return True

        assert all(World(2, ranks_per_node=1).run(program))

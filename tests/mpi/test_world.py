"""Tests for the threaded SPMD World runner."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.apps.halo import HaloSpec
from repro.apps.stencil import HaloExchange
from repro.machine.nic import trace_default
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.errors import MpiError
from repro.mpi.world import World, WorldError
from repro.tempi.interposer import interpose

from tests.machine.test_nic import MessageLog


class TestConstruction:
    def test_contexts_have_expected_shape(self):
        world = World(4, ranks_per_node=2)
        assert len(world.contexts) == 4
        for rank, ctx in enumerate(world.contexts):
            assert ctx.rank == rank
            assert ctx.size == 4
            assert ctx.comm.Get_rank() == rank
            assert ctx.comm.Get_size() == 4

    def test_each_rank_gets_its_own_clock(self):
        world = World(3)
        world.contexts[0].clock.advance(1.0)
        assert world.contexts[1].clock.now == 0.0

    def test_gpu_assignment_follows_topology(self):
        world = World(4, ranks_per_node=2)
        assert world.contexts[0].gpu.device.ordinal == 0
        assert world.contexts[1].gpu.device.ordinal == 1
        assert world.contexts[2].gpu.device.ordinal == 0

    def test_invalid_rank_count_rejected(self):
        with pytest.raises(MpiError):
            World(0)


class TestRun:
    def test_results_ordered_by_rank(self):
        world = World(4)
        results = world.run(lambda ctx: ctx.rank * 10)
        assert results == [0, 10, 20, 30]

    def test_extra_arguments_passed(self):
        world = World(2)
        results = world.run(lambda ctx, base: base + ctx.rank, 100)
        assert results == [100, 101]

    def test_single_rank_runs_inline(self):
        world = World(1)
        assert world.run(lambda ctx: ctx.rank) == [0]

    def test_failure_propagates_as_world_error(self):
        world = World(2)

        def fail_on_rank_one(ctx):
            if ctx.rank == 1:
                raise ValueError("boom")
            return "ok"

        with pytest.raises(WorldError) as excinfo:
            world.run(fail_on_rank_one)
        assert 1 in excinfo.value.failures
        assert isinstance(excinfo.value.failures[1], ValueError)

    def test_failure_unblocks_matching_receive(self):
        world = World(2)

        def deadlock_unless_aborted(ctx):
            if ctx.rank == 0:
                ctx.comm.Recv(ctx.gpu.host_alloc(8), source=1, tag=0)
            else:
                raise RuntimeError("sender died")

        with pytest.raises(WorldError):
            world.run(deadlock_unless_aborted)

    def test_failure_breaks_the_barrier(self):
        world = World(4)

        def die_before_the_barrier(ctx):
            if ctx.rank == 2:
                raise RuntimeError("died on the way")
            ctx.comm.Barrier()

        with pytest.raises(WorldError) as excinfo:
            world.run(die_before_the_barrier)
        assert isinstance(excinfo.value.failures[2], RuntimeError)
        assert set(excinfo.value.failures) == {0, 1, 2, 3}

    def test_a_message_never_received_fails_the_run_naming_it(self):
        world = World(3)

        def send_and_leave(ctx):
            if ctx.rank == 0:
                ctx.comm.Send(ctx.gpu.host_alloc(8), dest=2, tag=5)
                ctx.comm.Send(ctx.gpu.host_alloc(8), dest=2, tag=6)
            return ctx.rank

        with pytest.raises(WorldError) as excinfo:
            world.run(send_and_leave)
        assert set(excinfo.value.failures) == {2}
        assert str(excinfo.value.failures[2]) == (
            "rank 2 never received (source=0, dest=2, tag=5, context=0), "
            "(source=0, dest=2, tag=6, context=0)"
        )

    @pytest.mark.parametrize("library", ["system", "tempi"])
    def test_a_one_shot_send_never_completed_fails_the_run(self, library, summit_model):
        """Delivered, but never waited: the rank's count of open sends names it."""

        def program(ctx):
            if library == "tempi":
                comm = interpose(ctx, model=summit_model)
                spec = (ctx.gpu.malloc(64), 1, comm.Type_commit(Type_vector(8, 1, 2, BYTE)))
            else:
                comm, spec = ctx.comm, ctx.gpu.host_alloc(8)
            if ctx.rank == 0:
                comm.Isend(spec, 1, 3)
                comm.Isend(spec, 1, 4).Wait()
                assert ctx.comm.open_sends == 1
            else:
                for tag in (3, 4):
                    comm.Recv(spec, 0, tag)

        with pytest.raises(WorldError) as excinfo:
            World(2).run(program)
        assert set(excinfo.value.failures) == {0}
        assert str(excinfo.value.failures[0]) == (
            "rank 0 returned with 1 one-shot send request(s) never completed"
        )

    def test_a_dups_open_requests_fail_the_run(self):
        """A ``Dup``'ed communicator books its requests on the rank's own: a
        one-shot send never waited and a persistent send started and never
        waited on it fail the run, with the rank and the count."""

        def program(ctx):
            comm, buffer = ctx.comm.Dup(), ctx.gpu.host_alloc(8)
            if ctx.rank == 0:
                comm.Isend(buffer, 1, 3)
                comm.Send_init(buffer, 1, 4).Start()
            else:
                for tag in (3, 4):
                    comm.Recv(buffer, 0, tag)

        with pytest.raises(WorldError) as excinfo:
            World(2).run(program)
        assert set(excinfo.value.failures) == {0}
        assert str(excinfo.value.failures[0]) == (
            "rank 0 returned with persistent requests started and never completed: "
            "[<Request send peer=1 tag=4>] and 1 one-shot send request(s) never completed"
        )

    def test_a_send_completed_by_test_is_counted_once(self):
        def program(ctx):
            if ctx.rank == 0:
                request = ctx.comm.Isend(ctx.gpu.host_alloc(8), dest=1)
                assert ctx.comm.open_sends == 1
                ctx.clock.advance(1.0)
                assert request.Test()[0] and ctx.comm.open_sends == 0
                request.Wait()
                assert ctx.comm.open_sends == 0
            else:
                ctx.comm.Recv(ctx.gpu.host_alloc(8), source=0)

        World(2).run(program)

    def test_a_failed_runs_messages_wait_for_the_next_run(self):
        """Only a run that succeeds is reported; a failed run's envelopes stay."""
        world = World(2)

        def send_then_fail(ctx):
            if ctx.rank == 0:
                ctx.comm.Send(ctx.gpu.host_alloc(8), dest=1, tag=5)
            else:
                raise RuntimeError("receiver died")

        with pytest.raises(WorldError) as excinfo:
            world.run(send_then_fail)
        assert set(excinfo.value.failures) == {1}
        assert world.router.pending(1) == 1

        def receive(ctx):
            if ctx.rank == 1:
                ctx.comm.Recv(ctx.gpu.host_alloc(8), source=0, tag=5)

        world.run(receive)
        assert world.router.pending(1) == 0

    def test_timeout_is_one_deadline_for_the_whole_run(self):
        """``timeout=`` bounds the run, not each of the ``nranks`` joins."""
        world = World(8)
        release = threading.Event()
        start = time.monotonic()
        try:
            with pytest.raises(MpiError, match="did not finish within 0.25s"):
                world.run(lambda ctx: release.wait(30.0), timeout=0.25)
            assert time.monotonic() - start < 1.0
        finally:
            release.set()

    def test_a_second_world_starts_from_zero(self):
        """Worlds share no clocks or timeline: running the same exchange in a
        fresh world after another reproduces its times exactly."""

        def exchange(ctx):
            ctx.clock.advance(ctx.rank * 1e-6)
            ctx.comm.Barrier()
            return ctx.clock.now

        first = World(2)
        times = first.run(exchange)
        second = World(2)
        assert second.clocks == [0.0, 0.0]
        assert second.run(exchange) == times
        assert first.clocks == second.clocks

    def test_clock_inspection(self):
        world = World(2)
        world.run(lambda ctx: ctx.clock.advance((ctx.rank + 1) * 1e-3))
        assert world.max_clock() == pytest.approx(2e-3)
        assert world.clocks[0] == pytest.approx(1e-3)


class TestDeadlock:
    """Every unfinished rank blocked is reported at once, not after the
    300 s join timeout."""

    def test_crossed_receives_fail_at_once_naming_every_rank(self):
        def receive_first(ctx):
            peer = 1 - ctx.rank
            ctx.comm.Recv(ctx.gpu.host_alloc(8), source=peer, tag=4)
            ctx.comm.Send(ctx.gpu.host_alloc(8), dest=peer, tag=4)

        start = time.monotonic()
        with pytest.raises(WorldError) as excinfo:
            World(2).run(receive_first)
        assert time.monotonic() - start < 1.0
        message = str(excinfo.value)
        assert "rank 0 is blocked in receive(source=1, tag=4, context=0)" in message
        assert "rank 1 is blocked in receive(source=0, tag=4, context=0)" in message

    def test_barrier_a_rank_never_reaches_is_named(self):
        def skip_the_barrier(ctx):
            if ctx.rank != 1:
                ctx.comm.Barrier()

        with pytest.raises(WorldError) as excinfo:
            World(3).run(skip_the_barrier)
        assert set(excinfo.value.failures) == {0, 2}
        assert "rank 2 is blocked in barrier" in str(excinfo.value)

    def test_single_rank_unmatched_receive(self):
        with pytest.raises(WorldError, match="deadlock"):
            World(1).run(lambda ctx: ctx.comm.Recv(ctx.gpu.host_alloc(8), source=0, tag=0))


class TestRunToken:
    """One rank runs at a time, in a fixed order."""

    def test_only_the_token_holder_executes(self):
        """A read-modify-write across a GIL release loses no update."""
        world = World(8)
        shared = [0]

        def bump(ctx):
            for _ in range(500):
                x = shared[0]
                time.sleep(0)
                shared[0] = x + 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            world.run(bump)
        finally:
            sys.setswitchinterval(interval)
        assert shared[0] == 8 * 500

    def test_post_wakes_only_the_rank_it_is_for(self):
        """A blocked receiver scans its mailbox when it blocks and when its
        message comes — not once per message posted to someone else, nor for
        a message to itself that it is not waiting for."""
        world = World(8)
        router = world.router
        scans = []
        find = router._find
        router._find = lambda rank, *match: scans.append(rank) or find(rank, *match)

        def program(ctx):
            buffer = ctx.gpu.host_alloc(8)
            if ctx.rank == 3:
                ctx.comm.Send(buffer, dest=0, tag=0)  # "about to block"
                ctx.comm.Recv(buffer, source=0, tag=9)
                ctx.comm.Recv(buffer, source=0, tag=2)
            elif ctx.rank == 0:
                ctx.comm.Recv(buffer, source=3, tag=0)
                for _ in range(100):
                    ctx.comm.Send(buffer, dest=5, tag=1)
                    time.sleep(0)  # a free-running rank 3 would wake here
                ctx.comm.Send(buffer, dest=3, tag=2)
                ctx.comm.Send(buffer, dest=3, tag=9)
            elif ctx.rank == 5:
                for _ in range(100):
                    ctx.comm.Recv(buffer, source=0, tag=1)

        world.run(program)
        assert scans.count(3) == 3  # blocks on tag 9, finds it, finds tag 2

    def test_test_poll_loop_lets_the_sender_run(self):
        def program(ctx):
            buffer = ctx.gpu.host_alloc(8)
            if ctx.rank == 0:
                ctx.clock.advance(1.0)  # past any arrival time
                request = ctx.comm.Irecv(buffer, source=1, tag=0)
                polls = 0
                while not request.Test()[0]:
                    polls += 1
                return polls
            ctx.comm.Send(buffer, dest=0, tag=0)

        assert World(2).run(program, timeout=10.0)[0] == 1

    def test_threaded_halo_repeats_bit_for_bit(self, summit_model):
        """Every message's stall seconds and landing, per rank, and the
        NIC's fabric stall sum, which accumulates in the order ranks run."""

        def stall_sums() -> tuple[dict, str]:
            log = MessageLog()
            with trace_default(log):
                world = World(8, ranks_per_node=2)
            apps = [
                HaloExchange(ctx, interpose(ctx, model=summit_model), HaloSpec(), mode="overlap")
                for ctx in world.contexts
            ]

            def rounds(ctx):
                for _ in range(6):
                    apps[ctx.rank].exchange()

            world.run(rounds)
            assert log.stalls and log.ingest_stalls
            return log.per_rank, world.nic.fabric_stalled_s.hex()

        assert stall_sums() == stall_sums()


class TestBarrierHelper:
    def test_barrier_wait_returns_global_max(self):
        world = World(3)

        def sync(ctx):
            ctx.clock.advance((ctx.rank + 1) * 1e-3)
            return world.barrier_wait(ctx.rank, ctx.clock.now)

        results = world.run(sync)
        assert all(r == pytest.approx(3e-3) for r in results)

    def test_single_rank_barrier_is_identity(self):
        world = World(1)
        assert world.barrier_wait(0, 1.25) == 1.25

"""Tests for the progress engine: cross-plan NIC accounting, the small-plan
batcher, Test-driven progress, and the plan-routed ``Sendrecv``/``Bcast``."""

import numpy as np
import pytest

from repro.machine.network import DEFAULT_WIRE_OVERLAP
from repro.mpi.constructors import Type_contiguous, Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.request import Request
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import InterposerStats, interpose
from repro.tempi.progress import ProgressEngine, ProgressError


def vector_type(comm, nblocks=64, block=8, pitch=64):
    return comm.Type_commit(Type_vector(nblocks, block, pitch, BYTE))


def big_vector_type(comm):
    # 256 KiB packed: wire time dwarfs the pack-launch gap between two Isends.
    return comm.Type_commit(Type_vector(1024, 256, 512, BYTE))


class TestEngineModes:
    def test_unknown_mode_rejected(self, summit_model):
        def program(ctx):
            with pytest.raises(ProgressError):
                ProgressEngine(ctx.comm, None, InterposerStats(), mode="psychic")
            return True

        assert all(World(1).run(program))

    def test_per_plan_reserve_is_uncontended(self, summit_model):
        def program(ctx):
            engine = ProgressEngine(ctx.comm, None, InterposerStats(), mode="per_plan")
            slot = engine.reserve_wire(0, ready=1.0, wire_s=5.0)
            assert (slot.start, slot.arrival) == (1.0, 6.0)
            # A second reservation sees no port: PR-2 semantics.
            slot = engine.reserve_wire(1, ready=1.0, wire_s=5.0)
            assert (slot.start, slot.arrival) == (1.0, 6.0)
            assert not engine.shared
            return True

        assert all(World(2).run(program))

    def test_shared_reserve_uses_world_nic(self, summit_model):
        def program(ctx):
            engine = ProgressEngine(ctx.comm, None, InterposerStats(), mode="shared")
            assert engine.nic is ctx.world.nic
            slot = engine.reserve_wire(1, ready=0.0, wire_s=10.0)
            assert (slot.start, slot.arrival) == (0.0, 10.0)
            slot = engine.reserve_wire(0, ready=0.0, wire_s=10.0)
            assert slot.start == pytest.approx(DEFAULT_WIRE_OVERLAP * 10.0)
            return True

        assert all(World(2).run(program))

    def test_batch_limit_validation(self, summit_model):
        def program(ctx):
            with pytest.raises(ProgressError):
                ProgressEngine(ctx.comm, None, InterposerStats(), batch_max_messages=0)
            return True

        assert all(World(1).run(program))

    def test_unknown_nic_mode_rejected(self, summit_model):
        def program(ctx):
            with pytest.raises(ProgressError):
                ProgressEngine(ctx.comm, None, InterposerStats(), nic_mode="psychic")
            return True

        assert all(World(1).run(program))

    def test_duplex_requires_the_shared_timeline(self, summit_model):
        """``nic="duplex"`` degrades to inject-only semantics in per-plan
        mode — there is no shared timeline to ingest against."""

        def program(ctx):
            shared = ProgressEngine(ctx.comm, None, InterposerStats(), mode="shared")
            per_plan = ProgressEngine(ctx.comm, None, InterposerStats(), mode="per_plan")
            inject = ProgressEngine(ctx.comm, None, InterposerStats(), mode="shared", nic_mode="inject_only")
            assert shared.duplex
            assert not per_plan.duplex
            assert not inject.duplex
            return True

        assert all(World(2).run(program))

    def test_reserve_wire_carries_the_nic_identity(self, summit_model):
        def program(ctx):
            engine = ProgressEngine(ctx.comm, None, InterposerStats(), mode="shared")
            slot = engine.reserve_wire(1, ready=0.0, wire_s=10.0, nbytes=64)
            assert (slot.start, slot.arrival, slot.wire_s) == (0.0, 10.0, 10.0)
            assert slot.seq == 0  # shared reservations are ingestable
            per_plan = ProgressEngine(ctx.comm, None, InterposerStats(), mode="per_plan")
            assert per_plan.reserve_wire(1, ready=0.0, wire_s=10.0).seq == -1
            return True

        assert all(World(2).run(program))


class TestDuplexIngestion:
    """Receive-side accounting at the engine level."""

    def _engine_pair(self, ctx, nic_mode):
        from repro.mpi.p2p import Envelope

        engine = ProgressEngine(ctx.comm, None, InterposerStats(), mode="shared", nic_mode=nic_mode)

        def envelope(source, seq, available_at, wire_s, post_time):
            import numpy as np

            return Envelope(
                source=source,
                dest=ctx.rank,
                tag=0,
                context=0,
                payload=np.zeros(1, dtype=np.uint8),
                available_at=available_at,
                device=True,
                wire_s=wire_s,
                post_time=post_time,
                source_seq=seq,
            )

        return engine, envelope

    def test_inject_only_is_the_identity(self, summit_model):
        def program(ctx):
            engine, envelope = self._engine_pair(ctx, "inject_only")
            e = envelope(1, 0, available_at=10.0, wire_s=10.0, post_time=0.0)
            assert engine.ingest_one(e) == 10.0
            assert engine.ingest_batch([e, e]) == [10.0, 10.0]
            assert engine.arrival_preview(e) == 10.0
            assert ctx.world.nic.ingests == 0
            return True

        assert all(World(2, ranks_per_node=1).run(program))

    def test_duplex_batch_is_served_in_key_order(self, summit_model):
        def program(ctx):
            from repro.machine.network import DEFAULT_WIRE_OVERLAP

            engine, envelope = self._engine_pair(ctx, "duplex")
            early = envelope(2, 0, available_at=10.0, wire_s=10.0, post_time=0.0)
            late = envelope(1, 0, available_at=10.5, wire_s=10.0, post_time=0.5)
            # Input order is reversed relative to key order: the early post
            # must still be served first.
            landings = engine.ingest_batch([late, early])
            assert landings[1] == 10.0
            assert landings[0] == pytest.approx(
                max(10.5, DEFAULT_WIRE_OVERLAP * 10.0 + 10.0)
            )
            return True

        assert all(World(3, ranks_per_node=1).run(program))

    def test_system_path_envelopes_opt_out(self, summit_model):
        """Envelopes without NIC identity (wire_s == 0 or seq < 0) are never
        ingested — the system MPI path keeps its PR-4 semantics."""

        def program(ctx):
            engine, envelope = self._engine_pair(ctx, "duplex")
            plain = envelope(1, -1, available_at=7.0, wire_s=0.0, post_time=0.0)
            assert engine.ingest_one(plain) == 7.0
            assert ctx.world.nic.ingests == 0
            return True

        assert all(World(2, ranks_per_node=1).run(program))


class TestCrossPlanSerialisation:
    """The acceptance claim: concurrent plans contend for the injection port."""

    def _two_isend_arrivals(self, summit_model, config):
        """Rank 0 fires two large Isends at peers 1 and 2 back-to-back; the
        peers report their messages' wire arrival times."""

        def program(ctx):
            comm = interpose(ctx, config, model=summit_model)
            t = big_vector_type(comm)
            buf = ctx.gpu.malloc(t.extent)
            if ctx.rank == 0:
                first = comm.Isend((buf, 1, t), dest=1)
                second = comm.Isend((buf, 1, t), dest=2)
                Request.Waitall([first, second])
                comm.Barrier()
                return None
            comm.Recv((buf, 1, t), source=0)
            arrival = ctx.clock.now
            comm.Barrier()
            return arrival

        results = World(3, ranks_per_node=1).run(program)
        return results[1], results[2]

    def test_concurrent_isends_respect_serialised_bound(self, summit_model):
        shared_1, shared_2 = self._two_isend_arrivals(summit_model, TempiConfig())
        per_plan_1, per_plan_2 = self._two_isend_arrivals(
            summit_model, TempiConfig(progress="per_plan")
        )

        def wire(world_like_nbytes):
            from repro.machine.network import NetworkModel

            return NetworkModel().message_time(
                world_like_nbytes, same_node=False, device_buffers=True
            )

        wire_s = wire(1024 * 256)
        # Per-plan pricing: the second Isend never sees the first one's wire.
        assert per_plan_2 - per_plan_1 < DEFAULT_WIRE_OVERLAP * wire_s
        # Shared pricing: the second message waits for the port, so the two
        # arrivals are at least the serialised occupancy apart — it can never
        # complete earlier than the NicTimeline bound.
        assert shared_2 - shared_1 >= DEFAULT_WIRE_OVERLAP * wire_s * (1 - 1e-9)
        assert shared_2 >= per_plan_2

    def _concurrent_collectives(self, summit_model, config, plans):
        def program(ctx):
            comm = interpose(ctx, config, model=summit_model)
            t = big_vector_type(comm)
            size = comm.Get_size()
            send = ctx.gpu.malloc(t.extent * size)
            recvs = [ctx.gpu.malloc(t.extent * size) for _ in range(plans)]
            counts = [1] * size
            displs = [p * t.extent for p in range(size)]
            comm.Barrier()
            start = ctx.clock.now
            requests = [
                comm.Ialltoallv(
                    send, counts, displs, recv, counts, displs,
                    sendtypes=t, recvtypes=t,
                )
                for recv in recvs
            ]
            Request.Waitall(requests)
            return ctx.clock.now - start

        return max(World(3, ranks_per_node=1).run(program))

    def test_two_ialltoallv_cost_at_least_one(self, summit_model):
        one = self._concurrent_collectives(summit_model, TempiConfig(), 1)
        two = self._concurrent_collectives(summit_model, TempiConfig(), 2)
        uncontended = self._concurrent_collectives(
            summit_model, TempiConfig(progress="per_plan"), 2
        )
        # Two concurrent plans price the wire at or above the single-plan
        # case, and at or above the PR-2 per-plan accounting.
        assert two >= one * (1 + 1e-6)
        assert two >= uncontended

    def test_stall_counter_surfaces_contention(self, summit_model):
        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = big_vector_type(comm)
            buf = ctx.gpu.malloc(t.extent)
            if ctx.rank == 0:
                requests = [comm.Isend((buf, 1, t), dest=peer) for peer in (1, 2)]
                Request.Waitall(requests)
                comm.Barrier()
                return comm.stats.contention_stalls, repr(comm.stats)
            comm.Recv((buf, 1, t), source=0)
            comm.Barrier()
            return comm.stats.contention_stalls, repr(comm.stats)

        results = World(3, ranks_per_node=1).run(program)
        stalls, text = results[0]
        assert stalls >= 1
        assert f"stalls={stalls}" in text


class TestSmallPlanBatcher:
    def _burst(self, summit_model, config, nmessages=4, batch_max=None):
        def program(ctx):
            comm = interpose(ctx, config, model=summit_model)
            if batch_max is not None:
                comm.progress_engine.batch_max_messages = batch_max
            t = vector_type(comm)
            bufs = [ctx.gpu.malloc(t.extent) for _ in range(nmessages)]
            if ctx.rank == 0:
                for index, buf in enumerate(bufs):
                    buf.data[:] = (index + 1) % 251
                requests = [
                    comm.Isend((buf, 1, t), dest=1, tag=index)
                    for index, buf in enumerate(bufs)
                ]
                Request.Waitall(requests)
                return comm.stats.batched_plans, None
            received = []
            for index, buf in enumerate(bufs):
                comm.Recv((buf, 1, t), source=0, tag=index)
                received.append(buf.data.copy())
            return comm.stats.batched_plans, received

        world = World(2, ranks_per_node=1)
        results = world.run(program)
        return world, results

    def test_burst_coalesces_into_one_wire_message(self, summit_model):
        world, results = self._burst(summit_model, TempiConfig())
        (batched, _), (_, received) = results
        assert batched == 4
        # One NIC reservation for the whole burst.
        assert world.nic.reservations == 1
        for index, payload in enumerate(received):
            assert (payload[:8] == (index + 1) % 251).all()

    def test_batching_preserves_bytes_and_order(self, summit_model):
        _, with_batch = self._burst(summit_model, TempiConfig())
        _, without = self._burst(summit_model, TempiConfig(batch_eager_sends=False))
        for a, b in zip(with_batch[1][1], without[1][1]):
            assert np.array_equal(a, b)

    def test_batch_flushes_at_limit(self, summit_model):
        world, results = self._burst(summit_model, TempiConfig(), nmessages=5, batch_max=2)
        (batched, _), _ = results
        # 5 messages under a 2-message cap: two full batches flushed at the
        # cap plus a singleton at Waitall (singletons are not "batched").
        assert batched == 4
        assert world.nic.reservations == 3

    def test_eager_threshold_bypasses_batcher(self, summit_model):
        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = big_vector_type(comm)  # 256 KiB >= eager threshold
            buf = ctx.gpu.malloc(t.extent)
            if ctx.rank == 0:
                comm.Isend((buf, 1, t), dest=1).Wait()
                return comm.stats.batched_plans, comm.progress_engine.pending_sends()
            comm.Recv((buf, 1, t), source=0)
            return comm.stats.batched_plans, 0

        for batched, pending in World(2, ranks_per_node=1).run(program):
            assert batched == 0
            assert pending == 0

    def test_test_flushes_pending_batches(self, summit_model):
        """``Request.Test`` is a progress point: it posts deferred sends."""

        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = vector_type(comm)
            buf = ctx.gpu.malloc(t.extent)
            if ctx.rank == 0:
                buf.data[:] = 7
                request = comm.Isend((buf, 1, t), dest=1)
                assert comm.progress_engine.pending_sends(1) == 1
                request.Test()
                assert comm.progress_engine.pending_sends(1) == 0
                comm.Barrier()
                request.Wait()
                return True
            comm.Recv((buf, 1, t), source=0)  # completes without rank 0's Wait
            comm.Barrier()
            assert (buf.data[:8] == 7).all()
            return True

        assert all(World(2, ranks_per_node=1).run(program))

    def test_barrier_fallthrough_flushes_batches(self, summit_model):
        """Regression (deadlock): a system call reached through the
        passthrough — here ``Barrier`` — must flush deferred sends.  Rank 1
        blocks in ``Recv`` before ever reaching the barrier, so without the
        flush rank 0 would park in the barrier with the message still
        batched and both ranks would hang forever."""

        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = vector_type(comm)
            buf = ctx.gpu.malloc(t.extent)
            if ctx.rank == 0:
                buf.data[:] = 3
                request = comm.Isend((buf, 1, t), dest=1)
                comm.Barrier()  # progress point: posts the batched send
                request.Wait()
                return True
            comm.Recv((buf, 1, t), source=0)
            assert (buf.data[:8] == 3).all()
            comm.Barrier()
            return True

        assert all(World(2, ranks_per_node=1).run(program, timeout=30.0))

    def test_blocking_send_flushes_batches_first(self, summit_model):
        """Non-overtaking: a later blocking send cannot pass a deferred one."""

        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = vector_type(comm)
            first = ctx.gpu.malloc(t.extent)
            second = ctx.gpu.malloc(t.extent)
            if ctx.rank == 0:
                first.data[:] = 1
                second.data[:] = 2
                request = comm.Isend((first, 1, t), dest=1, tag=5)
                comm.Send((second, 1, t), dest=1, tag=5)  # same tag: order matters
                request.Wait()
                return True
            comm.Recv((first, 1, t), source=0, tag=5)
            comm.Recv((second, 1, t), source=0, tag=5)
            assert (first.data[:8] == 1).all()
            assert (second.data[:8] == 2).all()
            return True

        assert all(World(2, ranks_per_node=1).run(program))

    def test_mixed_methods_keep_same_tag_fifo_order(self, summit_model):
        """Regression: batches split by wire path must not reorder same-tag
        messages to one peer when the method selector alternates — enqueueing
        on one path flushes the other path's pending batch first."""
        from repro.tempi import plan as _plan
        from repro.tempi.config import PackMethod

        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = vector_type(comm)
            if ctx.rank == 0:
                engine = comm.progress_engine
                executor = comm.executor
                handler = comm.handler_of(t)
                bufs = []
                methods = [PackMethod.DEVICE, PackMethod.ONESHOT, PackMethod.DEVICE]
                for index, method in enumerate(methods):
                    buf = ctx.gpu.malloc(t.extent)
                    buf.data[:] = index + 1
                    bufs.append(buf)
                    plan = _plan.compile_send(
                        handler.packer, buf, 1, 1, 7, method, nonblocking=True
                    )
                    assert engine.offer_send(plan, Request("send")) is not None
                # The ONESHOT enqueue must have flushed the first DEVICE
                # message already; flush the rest and check wire order.
                engine.progress()
                assert executor is comm.executor
                comm.Barrier()
                return True
            order = []
            buf = ctx.gpu.malloc(t.extent)
            for _ in range(3):
                comm.Recv((buf, 1, t), source=0, tag=7)  # FIFO same-tag matching
                order.append(int(buf.data[0]))
            assert order == [1, 2, 3]
            comm.Barrier()
            return True

        assert all(World(2, ranks_per_node=1).run(program))

    def test_serial_engine_never_batches(self, summit_model):
        world, results = self._burst(summit_model, TempiConfig(overlap=False))
        (batched, _), _ = results
        assert batched == 0

    def test_per_plan_engine_never_batches(self, summit_model):
        world, results = self._burst(summit_model, TempiConfig(progress="per_plan"))
        (batched, _), _ = results
        assert batched == 0
        assert world.nic.reservations == 0

    def test_batched_flush_leaves_no_pending_ingest(self, summit_model):
        """Regression: the batch's reservation-time pending record must be
        consumed when its constituents are ingested — a fully-landed burst
        cannot keep looking like receive-side backlog at its peer."""
        world, _ = self._burst(summit_model, TempiConfig())
        assert world.nic.pending_ingest(1) == 0

    def test_inject_only_never_feeds_the_pending_ledger(self, summit_model):
        world, _ = self._burst(summit_model, TempiConfig(nic="inject_only"))
        assert world.nic.pending_ingest(1) == 0
        assert world.nic.ingests == 0


class TestSendrecvThroughPlans:
    def test_ring_exchange_bytes_and_counters(self, summit_model):
        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = vector_type(comm)
            out = ctx.gpu.malloc(t.extent)
            into = ctx.gpu.malloc(t.extent)
            out.data[:] = (ctx.rank + 1) % 251
            size = comm.Get_size()
            status = comm.Sendrecv(
                (out, 1, t), (ctx.rank + 1) % size, 3,
                (into, 1, t), (ctx.rank - 1) % size, 3,
            )
            assert status.Get_source() == (ctx.rank - 1) % size
            assert (into.data[:8] == ((ctx.rank - 1) % size + 1) % 251).all()
            return comm.stats.sends, comm.stats.recvs

        for sends, recvs in World(3, ranks_per_node=1).run(program):
            assert sends == 1
            assert recvs == 1

    def test_host_buffers_fall_back(self, summit_model):
        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            out = np.full(64, ctx.rank + 1, dtype=np.uint8)
            into = np.zeros(64, dtype=np.uint8)
            size = comm.Get_size()
            comm.Sendrecv(
                out, (ctx.rank + 1) % size, 0, into, (ctx.rank - 1) % size, 0
            )
            assert (into == (ctx.rank - 1) % size + 1).all()
            return comm.stats.sends + comm.stats.recvs

        assert World(2, ranks_per_node=1).run(program) == [0, 0]


class TestBcastThroughPlans:
    def test_strided_bcast_scatters_elementwise(self, summit_model):
        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = vector_type(comm)
            buf = ctx.gpu.malloc(t.extent)
            if ctx.rank == 0:
                buf.data[:] = np.arange(buf.nbytes, dtype=np.uint16).astype(np.uint8)
            reference = buf.data.copy()
            comm.Bcast((buf, 1, t), root=0)
            return buf.data.copy(), reference, comm.stats.collective_hits

        results = World(3, ranks_per_node=1).run(program)
        root_data = results[0][1]
        for data, _, hits in results:
            assert hits == 1
            # Every strided element equals the root's; the gaps stay local.
            for block in range(64):
                begin = block * 64
                assert np.array_equal(data[begin : begin + 8], root_data[begin : begin + 8])

    def test_contiguous_type_falls_back_to_system_bcast(self, summit_model):
        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = comm.Type_commit(Type_contiguous(128, BYTE))
            buf = ctx.gpu.malloc(128)
            if ctx.rank == 0:
                buf.data[:] = 9
            comm.Bcast((buf, 1, t), root=0)
            assert (buf.data == 9).all()
            return comm.stats.collective_hits

        assert World(2, ranks_per_node=1).run(program) == [0, 0]

    def test_single_rank_bcast_is_a_noop_fallback(self, summit_model):
        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = vector_type(comm)
            buf = ctx.gpu.malloc(t.extent)
            comm.Bcast((buf, 1, t), root=0)
            return comm.stats.collective_hits

        assert World(1).run(program) == [0]

    def test_serial_ablation_prices_bcast_without_nic(self, summit_model):
        """``overlap=False`` broadcasts price each transfer independently,
        like serial sends — no NIC reservations, bytes still correct."""

        def program(ctx):
            comm = interpose(ctx, TempiConfig(overlap=False), model=summit_model)
            t = vector_type(comm)
            buf = ctx.gpu.malloc(t.extent)
            if ctx.rank == 0:
                buf.data[:] = 5
            comm.Bcast((buf, 1, t), root=0)
            assert (buf.data[:8] == 5).all()
            return comm.stats.collective_hits

        world = World(3, ranks_per_node=1)
        assert world.run(program) == [1, 1, 1]
        assert world.nic.reservations == 0

    def test_bcast_charges_serialised_wire_per_peer(self, summit_model):
        """The root's fan-out reserves one NIC slot per peer."""

        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = vector_type(comm)
            buf = ctx.gpu.malloc(t.extent)
            comm.Bcast((buf, 1, t), root=0)
            comm.Barrier()
            return True

        world = World(4, ranks_per_node=1)
        assert all(world.run(program))
        assert world.nic.reservations == 3  # root → each of 3 peers

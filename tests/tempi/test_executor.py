"""Tests for the plan executor: overlap scheduling, stats, equivalence."""

import numpy as np
import pytest

from repro.mpi.world import World
from repro.tempi.cache import ResourceCache
from repro.tempi.config import PackMethod, TempiConfig
from repro.tempi.executor import PlanExecutor
from repro.tempi.interposer import InterposerStats
from repro.tempi.packer import Packer
from repro.tempi.plan import PlanSection, compile_exchange, compile_recv, compile_send
from repro.tempi.strided_block import StridedBlock


def make_packer(block=16, count=32, pitch=64) -> Packer:
    shape = StridedBlock(start=0, counts=(block, count), strides=(1, pitch))
    return Packer(shape, object_extent=(count - 1) * pitch + block)


def make_executor(ctx, cache, stats=None, *, overlap) -> PlanExecutor:
    """An executor on the per-plan cursor: each plan priced in isolation."""
    stats = stats if stats is not None else InterposerStats()
    config = TempiConfig(progress="per_plan", overlap=overlap)
    return PlanExecutor(ctx.comm, cache, stats, config)


def _exchange_program(ctx, *, overlap, method=PackMethod.DEVICE, iterations=1):
    """One symmetric packed exchange over every rank; returns (bytes, seconds)."""
    packer = make_packer()
    cache = ResourceCache(ctx.gpu)
    executor = make_executor(ctx, cache, overlap=overlap)
    extent = packer.object_extent
    send = ctx.gpu.malloc(extent * ctx.size)
    recv = ctx.gpu.malloc(extent * ctx.size)
    for peer in range(ctx.size):
        send.data[peer * extent : (peer + 1) * extent] = (ctx.rank * 10 + peer) % 251
    sections = [PlanSection(peer, 1, peer * extent, packer) for peer in range(ctx.size)]
    start = ctx.clock.now
    for _ in range(iterations):
        plan = compile_exchange(
            ctx.comm.rank, send, sections, recv, sections, lambda p, n, peer=None: method
        )
        executor.execute(plan).Wait()
    return recv.data.copy(), ctx.clock.now - start


class TestSchedulesMoveTheSameBytes:
    @pytest.mark.parametrize("method", [PackMethod.DEVICE, PackMethod.ONESHOT, PackMethod.STAGED])
    def test_overlap_equals_serial_bytes(self, method):
        serial = World(4, ranks_per_node=2).run(
            lambda ctx: _exchange_program(ctx, overlap=False, method=method)[0]
        )
        overlapped = World(4, ranks_per_node=2).run(
            lambda ctx: _exchange_program(ctx, overlap=True, method=method)[0]
        )
        for a, b in zip(serial, overlapped):
            assert np.array_equal(a, b)

    def test_overlap_preserves_strided_content(self):
        results = World(4, ranks_per_node=2).run(
            lambda ctx: _exchange_program(ctx, overlap=True)[0]
        )
        packer = make_packer()
        extent = packer.object_extent
        for rank, received in enumerate(results):
            for peer in range(4):
                base = peer * extent
                for row in range(32):
                    begin = base + row * 64
                    assert (received[begin : begin + 16] == (peer * 10 + rank) % 251).all()


class TestOverlapIsFaster:
    def test_multi_peer_exchange(self):
        """Pack kernels overlap wire time: the pipeline beats pack-then-post."""
        serial = max(
            t for _, t in World(8, ranks_per_node=4).run(
                lambda ctx: _exchange_program(ctx, overlap=False, iterations=2)
            )
        )
        overlapped = max(
            t for _, t in World(8, ranks_per_node=4).run(
                lambda ctx: _exchange_program(ctx, overlap=True, iterations=2)
            )
        )
        assert overlapped < serial

    def test_single_peer_send_recv_ordering_unchanged(self):
        """For one message overlap cannot help: times stay comparable."""

        def program(ctx, overlap):
            packer = make_packer()
            cache = ResourceCache(ctx.gpu)
            executor = make_executor(ctx, cache, overlap=overlap)
            user = ctx.gpu.malloc(packer.required_input(1))
            if ctx.rank == 0:
                plan = compile_send(packer, user, 1, 1, 0, PackMethod.DEVICE)
                start = ctx.clock.now
                executor.execute(plan).Wait()
                return ctx.clock.now - start
            plan = compile_recv(packer, user, 1, 0, 0, PackMethod.DEVICE)
            start = ctx.clock.now
            executor.execute(plan).Wait()
            return ctx.clock.now - start

        serial = World(2, ranks_per_node=1).run(program, False)
        overlapped = World(2, ranks_per_node=1).run(program, True)
        # overlap saves only the per-pack host synchronisation on the sender
        assert overlapped[0] <= serial[0]


class TestExecutorStats:
    def test_plan_and_overlap_counters(self):
        def program(ctx):
            stats = InterposerStats()
            packer = make_packer()
            cache = ResourceCache(ctx.gpu)
            executor = make_executor(ctx, cache, stats, overlap=True)
            extent = packer.object_extent
            send = ctx.gpu.malloc(extent * ctx.size)
            recv = ctx.gpu.malloc(extent * ctx.size)
            sections = [PlanSection(p, 1, p * extent, packer) for p in range(ctx.size)]
            plan = compile_exchange(
                ctx.comm.rank, send, sections, recv, sections, lambda p, n, peer=None: PackMethod.DEVICE
            )
            executor.execute(plan).Wait()
            return stats

        for stats in World(4, ranks_per_node=2).run(program):
            assert stats.plans_built == 1
            # 3 pack stages overlapped with the wire + 3 unpack stages
            assert stats.stages_overlapped == 6
            assert stats.deferred_unpacks == 0  # blocking plan

    def test_deferred_unpacks_counted_for_nonblocking_plans(self):
        def program(ctx):
            stats = InterposerStats()
            packer = make_packer()
            cache = ResourceCache(ctx.gpu)
            executor = make_executor(ctx, cache, stats, overlap=True)
            extent = packer.object_extent
            send = ctx.gpu.malloc(extent * ctx.size)
            recv = ctx.gpu.malloc(extent * ctx.size)
            sections = [PlanSection(p, 1, p * extent, packer) for p in range(ctx.size)]
            plan = compile_exchange(
                ctx.comm.rank,
                send,
                sections,
                recv,
                sections,
                lambda p, n, peer=None: PackMethod.DEVICE,
                nonblocking=True,
            )
            request = executor.execute(plan)
            assert stats.deferred_unpacks == 0  # nothing deferred has run yet
            request.Wait()
            return stats

        for stats in World(2, ranks_per_node=1).run(program):
            assert stats.deferred_unpacks == 1  # one wire peer at 2 ranks

    def test_serial_mode_counts_no_overlapped_stages(self):
        def program(ctx):
            stats = InterposerStats()
            packer = make_packer()
            cache = ResourceCache(ctx.gpu)
            executor = make_executor(ctx, cache, stats, overlap=False)
            user = ctx.gpu.malloc(packer.required_input(1))
            if ctx.rank == 0:
                executor.execute(compile_send(packer, user, 1, 1, 0, PackMethod.DEVICE)).Wait()
            else:
                executor.execute(compile_recv(packer, user, 1, 0, 0, PackMethod.DEVICE)).Wait()
            return stats

        for stats in World(2, ranks_per_node=1).run(program):
            assert stats.plans_built == 1
            assert stats.stages_overlapped == 0


class TestPersistentStagingAcrossIterations:
    def test_overlap_engine_reuses_peer_buffers(self):
        # reuse is covered communicator-level in test_methods; here assert the
        # overlapped engine hits the same persistent keys on iteration 2+
        def program(ctx):
            packer = make_packer()
            cache = ResourceCache(ctx.gpu)
            executor = make_executor(ctx, cache, overlap=True)
            extent = packer.object_extent
            send = ctx.gpu.malloc(extent * ctx.size)
            recv = ctx.gpu.malloc(extent * ctx.size)
            sections = [PlanSection(p, 1, p * extent, packer) for p in range(ctx.size)]
            for _ in range(3):
                plan = compile_exchange(
                    ctx.comm.rank, send, sections, recv, sections,
                    lambda p, n, peer=None: PackMethod.ONESHOT,
                )
                executor.execute(plan).Wait()
            return cache.stats

        for stats in World(2, ranks_per_node=1).run(program):
            assert stats.persistent_misses == 4
            assert stats.persistent_hits == 2 * 4

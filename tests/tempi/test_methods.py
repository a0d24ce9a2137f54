"""Tests for the device / one-shot / staged send methods (Sec. 4).

Every method is pinned through the interposer
(``TempiConfig(method=...)``), so the tests drive the one
compile → execute → wait path the library itself uses.
"""

import numpy as np
import pytest

from repro.gpu.memory import MemoryKind
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.config import PackMethod, TempiConfig
from repro.tempi.interposer import interpose
from repro.tempi.packer import Packer
from repro.tempi.plan import PlanError, PlanSection, compile_exchange, staging_kind
from repro.tempi.strided_block import StridedBlock

#: 32 rows of 16 bytes at a 64-byte pitch.
ROWS, BLOCK, PITCH = 32, 16, 64
PACKED = ROWS * BLOCK


def fixed(ctx, method: PackMethod):
    """This rank's interposed communicator with ``method`` pinned."""
    return interpose(ctx, TempiConfig(method=method))


def strided(comm):
    return comm.Type_commit(Type_vector(ROWS, BLOCK, PITCH, BYTE))


def exchange(method: PackMethod, nranks: int = 2, *, warmup: bool = False):
    """Send one strided object from rank 0 to rank 1 with the given method.

    With ``warmup=True`` an identical exchange runs first so that the measured
    one finds its intermediate buffers in the resource cache — the steady
    state of an iterative application, which is what the paper's latency
    comparisons describe (Sec. 5).
    """

    def program(ctx):
        comm = fixed(ctx, method)
        datatype = strided(comm)
        user = ctx.gpu.malloc(datatype.extent)
        spec = (user, 1, datatype)
        if ctx.rank == 0:
            user.data[:] = np.arange(user.nbytes, dtype=np.uint32).astype(np.uint8)
            if warmup:
                comm.Send(spec, 1, 9)
            start = ctx.clock.now
            comm.Send(spec, 1, 0)
            return ("sent", user.data.copy(), ctx.clock.now - start)
        if warmup:
            comm.Recv(spec, 0, 9)
        start = ctx.clock.now
        status = comm.Recv(spec, 0, 0)
        return ("received", user.data.copy(), ctx.clock.now - start, status, comm.stats)

    world = World(nranks, ranks_per_node=1)
    return world.run(program)


class TestStagingKinds:
    def test_kinds(self):
        assert staging_kind(PackMethod.DEVICE) is MemoryKind.DEVICE
        assert staging_kind(PackMethod.ONESHOT) is MemoryKind.HOST_MAPPED
        assert staging_kind(PackMethod.STAGED) is MemoryKind.DEVICE

    def test_auto_is_not_concrete(self):
        with pytest.raises(PlanError):
            staging_kind(PackMethod.AUTO)


@pytest.mark.parametrize("method", [PackMethod.DEVICE, PackMethod.ONESHOT, PackMethod.STAGED])
class TestDataCorrectness:
    def test_strided_bytes_arrive(self, method):
        (_, sent, _), (_, received, _, status, stats) = exchange(method)
        # every strided byte of the destination matches the source
        for row in range(ROWS):
            begin = row * PITCH
            assert np.array_equal(received[begin : begin + BLOCK], sent[begin : begin + BLOCK])
        assert status.Get_count() == PACKED
        assert (status.source, status.tag) == (0, 0)
        # the receive really took the pinned method, not the system path
        assert stats.recvs == 1 and stats.method_counts == {method.value: 1}

    def test_gap_bytes_untouched(self, method):
        (_, _, _), (_, received, _, _, _) = exchange(method)
        for row in range(ROWS - 1):
            gap = received[row * PITCH + BLOCK : (row + 1) * PITCH]
            assert not gap.any()


class TestTimingShapes:
    def test_oneshot_fastest_for_small_objects(self):
        """The crossover of Sec. 6.3: small objects favour one-shot (warm cache)."""
        results = {}
        for method in (PackMethod.DEVICE, PackMethod.ONESHOT):
            (_, _, send_time), _ = exchange(method, warmup=True)
            results[method] = send_time
        assert results[PackMethod.ONESHOT] < results[PackMethod.DEVICE]

    def test_staged_never_fastest(self):
        times = {}
        for method in (PackMethod.DEVICE, PackMethod.ONESHOT, PackMethod.STAGED):
            (_, _, send_time), _ = exchange(method, warmup=True)
            times[method] = send_time
        assert times[PackMethod.STAGED] >= min(times[PackMethod.DEVICE], times[PackMethod.ONESHOT])

    def test_cold_cache_pays_allocation_latency(self):
        """Without the resource cache warm, allocations dominate (Sec. 5)."""
        (_, _, cold), _ = exchange(PackMethod.ONESHOT, warmup=False)
        (_, _, warm), _ = exchange(PackMethod.ONESHOT, warmup=True)
        assert cold > warm

    def test_device_send_uses_cuda_aware_path(self):
        """Device-method messages pay the higher GPU-GPU latency floor."""
        (_, _, device_send), _ = exchange(PackMethod.DEVICE, warmup=True)
        (_, _, oneshot_send), _ = exchange(PackMethod.ONESHOT, warmup=True)
        # both include identical pack kernels; the difference is the wire path
        assert device_send != oneshot_send


class TestCacheInteraction:
    def test_second_send_reuses_staging_buffer(self):
        def program(ctx):
            comm = fixed(ctx, PackMethod.DEVICE)
            datatype = strided(comm)
            spec = (ctx.gpu.malloc(datatype.extent), 1, datatype)
            for tag in (0, 1):
                if ctx.rank == 0:
                    comm.Send(spec, 1, tag)
                else:
                    comm.Recv(spec, 0, tag)
            return comm.tempi.cache.stats.buffer_hits

        hits = World(2, ranks_per_node=1).run(program)
        assert all(h >= 1 for h in hits)


class TestPackedCollectives:
    """The interposed all-to-all-v engine, one pinned method at a time."""

    def _run(self, nranks, method=PackMethod.ONESHOT, iterations=1):
        def program(ctx):
            comm = fixed(ctx, method)
            datatype = strided(comm)
            extent = datatype.extent
            send = ctx.gpu.malloc(extent * ctx.size)
            recv = ctx.gpu.malloc(extent * ctx.size)
            for peer in range(ctx.size):
                send.data[peer * extent : (peer + 1) * extent] = (ctx.rank * 10 + peer) % 251
            counts = [1] * ctx.size
            displs = [peer * extent for peer in range(ctx.size)]
            for _ in range(iterations):
                comm.Alltoallv(
                    send, counts, displs, recv, counts, displs,
                    sendtypes=datatype, recvtypes=datatype,
                )
            assert comm.stats.collective_hits == iterations
            return recv.data.copy(), comm.stats.method_counts, comm.tempi.cache.stats, extent

        return World(nranks, ranks_per_node=2).run(program)

    @pytest.mark.parametrize(
        "method", [PackMethod.DEVICE, PackMethod.ONESHOT, PackMethod.STAGED]
    )
    def test_round_trip_all_methods(self, method):
        results = self._run(4, method)
        for rank, (received, _, _, extent) in enumerate(results):
            for peer in range(4):
                base = peer * extent
                for row in range(ROWS):
                    begin = base + row * PITCH
                    segment = received[begin : begin + BLOCK]
                    assert (segment == (peer * 10 + rank) % 251).all()

    def test_gap_bytes_untouched(self):
        (received, _, _, extent), *_ = self._run(2)
        for peer in range(2):
            for row in range(ROWS):
                gap_begin = peer * extent + row * PITCH + BLOCK
                gap_end = min(peer * extent + (row + 1) * PITCH, (peer + 1) * extent)
                assert not received[gap_begin:gap_end].any()

    def test_single_rank_self_exchange(self):
        (received, counts, _, _), = self._run(1)
        for row in range(ROWS):
            begin = row * PITCH
            assert (received[begin : begin + BLOCK] == 0).all()
        # the self section never touches the wire, so no per-method messages
        assert counts == {}

    def test_method_counts_one_message_per_peer(self):
        results = self._run(4, PackMethod.DEVICE)
        for _, counts, _, _ in results:
            assert counts == {"device": 3}

    def test_repeated_exchanges_reuse_persistent_staging(self):
        results = self._run(2, PackMethod.ONESHOT, iterations=3)
        for _, _, stats, _ in results:
            # 4 staging keys per rank (send/recv x wire-peer/self-section):
            # allocated on the first iteration, reused on the next two.
            assert stats.persistent_misses == 4
            assert stats.persistent_hits == 2 * 4

    def test_mismatched_self_sections_rejected(self):
        shape = StridedBlock(start=0, counts=(BLOCK, ROWS), strides=(1, PITCH))
        packer = Packer(shape, object_extent=(ROWS - 1) * PITCH + BLOCK)

        def program(ctx):
            buf = ctx.gpu.malloc(packer.object_extent)
            send = [PlanSection(0, 1, 0, packer)]
            with pytest.raises(PlanError):
                compile_exchange(
                    ctx.rank, buf, send, buf, [], lambda p, n, peer=None: PackMethod.DEVICE
                )
            return True

        assert all(World(1).run(program))

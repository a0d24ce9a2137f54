"""Tests for the TEMPI interposer (Sec. 5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi.constructors import Type_contiguous, Type_indexed, Type_vector
from repro.mpi.datatype import BYTE, FLOAT
from repro.mpi.errors import MpiTypeError
from repro.mpi.world import World
from repro.tempi.config import PackMethod, TempiConfig
from repro.tempi.interposer import Tempi, TempiCommunicator, interpose
from repro.tempi.measurement import measure_system
from repro.tempi.perf_model import PerformanceModel


def vector_type(nblocks=64, block=8, pitch=512):
    return Type_vector(nblocks, block, pitch, BYTE)


@pytest.fixture
def single_rank(summit_model):
    world = World(1)
    ctx = world.contexts[0]
    comm = interpose(ctx, model=summit_model)
    return ctx, comm


class TestTypeCommit:
    def test_strided_type_gets_packer(self, single_rank):
        _, comm = single_rank
        t = comm.Type_commit(vector_type())
        handler = TempiCommunicator.handler_of(t)
        assert handler is not None
        assert handler.accelerated
        assert handler.packer.block.block_length == 8

    def test_indexed_type_falls_back(self, single_rank):
        _, comm = single_rank
        t = comm.Type_commit(Type_indexed([1, 2], [0, 4], FLOAT))
        handler = TempiCommunicator.handler_of(t)
        assert handler is not None
        assert not handler.accelerated
        assert "block-list" in handler.fallback_reason

    def test_disabled_config_skips_handler(self, summit_model):
        world = World(1)
        comm = interpose(world.contexts[0], TempiConfig.disabled(), model=summit_model)
        t = comm.Type_commit(vector_type())
        assert TempiCommunicator.handler_of(t) is None
        assert t.committed

    def test_commit_counts_recorded(self, single_rank):
        _, comm = single_rank
        comm.Type_commit(vector_type())
        comm.Type_commit(Type_indexed([1], [0], FLOAT))
        assert comm.stats.commits == 2
        assert comm.stats.accelerated_commits == 1

    def test_passthrough_attributes_resolve_in_system_mpi(self, single_rank):
        ctx, comm = single_rank
        assert comm.Get_rank() == 0
        assert comm.Get_size() == 1
        assert comm.system is ctx.comm
        assert comm.gpu is ctx.gpu


@pytest.fixture(scope="module")
def both_communicators(summit_model):
    """The system communicator and the TEMPI one interposed on it."""
    ctx = World(1).contexts[0]
    return ctx.comm, interpose(ctx, model=summit_model)


NOT_DATATYPES = st.one_of(
    st.none(),
    st.integers(),
    st.floats(),
    st.text(max_size=16),
    st.sampled_from(["MPI_FLOAT", "MPI_BYTE"]),
    st.lists(st.integers(), max_size=3),
    st.builds(object),
)


class TestMalformedCommit:
    @settings(max_examples=60, deadline=None)
    @given(bad=NOT_DATATYPES)
    def test_a_non_datatype_is_named(self, both_communicators, bad):
        for comm in both_communicators:
            with pytest.raises(MpiTypeError, match=r"^datatype: expected a Datatype, got "):
                comm.Type_commit(bad)
        assert both_communicators[1].stats.commits == 0


class TestPackInterposition:
    def test_pack_uses_kernel_not_per_block_copies(self, single_rank):
        ctx, comm = single_rank
        t = comm.Type_commit(vector_type())
        src = ctx.gpu.malloc(t.extent)
        dst = ctx.gpu.malloc(t.size)
        src.data[:] = np.arange(src.nbytes, dtype=np.uint32).astype(np.uint8)
        kernels_before = ctx.gpu.kernel_launches
        position = comm.Pack((src, 1, t), dst, 0)
        assert position == t.size
        assert ctx.gpu.kernel_launches == kernels_before + 1
        expected = np.concatenate([src.data[i * 512 : i * 512 + 8] for i in range(64)])
        assert np.array_equal(dst.data, expected)

    def test_pack_much_faster_than_baseline(self, summit_model):
        """The headline MPI_Pack speedup of Fig. 8 (orders of magnitude)."""
        def run(use_tempi):
            world = World(1)
            ctx = world.contexts[0]
            comm = interpose(ctx, model=summit_model) if use_tempi else ctx.comm
            t = comm.Type_commit(Type_vector(16384, 8, 512, BYTE))
            src = ctx.gpu.malloc(t.extent)
            dst = ctx.gpu.malloc(t.size)
            start = ctx.clock.now
            comm.Pack((src, 1, t), dst, 0)
            return ctx.clock.now - start

        baseline = run(False)
        tempi = run(True)
        assert baseline / tempi > 100

    def test_unpack_roundtrip(self, single_rank):
        ctx, comm = single_rank
        t = comm.Type_commit(vector_type(nblocks=16))
        src = ctx.gpu.malloc(t.extent)
        src.data[:] = np.random.default_rng(3).integers(0, 255, src.nbytes, dtype=np.uint8)
        packed = ctx.gpu.malloc(t.size)
        comm.Pack((src, 1, t), packed, 0)
        out = ctx.gpu.malloc(t.extent)
        comm.Unpack(packed, 0, (out, 1, t))
        for i in range(16):
            begin = i * 512
            assert np.array_equal(out.data[begin : begin + 8], src.data[begin : begin + 8])

    def test_host_buffers_fall_back_to_system_mpi(self, single_rank):
        ctx, comm = single_rank
        t = comm.Type_commit(vector_type(nblocks=4))
        src = np.zeros(t.extent, dtype=np.uint8)
        dst = np.zeros(t.size, dtype=np.uint8)
        kernels_before = ctx.gpu.kernel_launches
        comm.Pack((src, 1, t), dst, 0)
        assert ctx.gpu.kernel_launches == kernels_before

    def test_contiguous_types_use_memcpy_path(self, single_rank):
        ctx, comm = single_rank
        t = comm.Type_commit(Type_contiguous(256, BYTE))
        src = ctx.gpu.malloc(256)
        dst = ctx.gpu.malloc(256)
        comm.Pack((src, 1, t), dst, 0)
        assert ctx.gpu.kernel_launches == 0


class TestSendRecvInterposition:
    def _roundtrip(self, summit_model, config=None, nblocks=2048, block=8):
        config = config or TempiConfig()

        def program(ctx):
            comm = interpose(ctx, config, model=summit_model)
            t = comm.Type_commit(Type_vector(nblocks, block, 512, BYTE))
            buf = ctx.gpu.malloc(t.extent)
            if ctx.rank == 0:
                buf.data[:] = np.arange(buf.nbytes, dtype=np.uint32).astype(np.uint8)
                start = ctx.clock.now
                comm.Send((buf, 1, t), dest=1)
                return (buf.data.copy(), ctx.clock.now - start, dict(comm.stats.method_counts))
            start = ctx.clock.now
            comm.Recv((buf, 1, t), source=0)
            return (buf.data.copy(), ctx.clock.now - start, dict(comm.stats.method_counts))

        world = World(2, ranks_per_node=1)
        return world.run(program)

    def test_strided_send_correct(self, summit_model):
        (sent, _, _), (received, _, _) = self._roundtrip(summit_model)
        for i in range(2048):
            begin = i * 512
            assert np.array_equal(received[begin : begin + 8], sent[begin : begin + 8])

    def test_auto_selection_records_method(self, summit_model):
        _, (_, _, methods) = self._roundtrip(summit_model)
        assert sum(methods.values()) == 1
        assert set(methods) <= {"oneshot", "device"}

    def test_forced_method_respected(self, summit_model):
        config = TempiConfig(method=PackMethod.DEVICE)
        (_, _, methods), _ = self._roundtrip(summit_model, config)
        assert methods == {"device": 1}

    def test_send_much_faster_than_baseline(self, summit_model):
        """The Fig. 11 claim: TEMPI send latency orders of magnitude below baseline."""

        def program(ctx, use_tempi):
            comm = interpose(ctx, model=summit_model) if use_tempi else ctx.comm
            t = comm.Type_commit(Type_vector(2048, 8, 512, BYTE))
            buf = ctx.gpu.malloc(t.extent)
            start = ctx.clock.now
            if ctx.rank == 0:
                comm.Send((buf, 1, t), dest=1)
            else:
                comm.Recv((buf, 1, t), source=0)
            return ctx.clock.now - start

        baseline = World(2, ranks_per_node=1).run(program, False)
        accelerated = World(2, ranks_per_node=1).run(program, True)
        assert max(baseline) / max(accelerated) > 50

    def test_contiguous_datatype_passes_through(self, summit_model):
        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = comm.Type_commit(Type_contiguous(4096, BYTE))
            buf = ctx.gpu.malloc(4096)
            if ctx.rank == 0:
                buf.data[:] = 5
                comm.Send((buf, 1, t), dest=1)
            else:
                comm.Recv((buf, 1, t), source=0)
                assert (buf.data == 5).all()
            return comm.stats.sends

        sends = World(2, ranks_per_node=1).run(program)
        assert sends == [0, 0]  # handled by the system MPI, not TEMPI's send path


class TestOverheadAccounting:
    def test_model_query_overhead_charged(self, summit_model):
        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            t = comm.Type_commit(Type_vector(128, 8, 512, BYTE))
            buf = ctx.gpu.malloc(t.extent)
            cfg = comm.config
            if ctx.rank == 0:
                first_start = ctx.clock.now
                comm.Send((buf, 1, t), dest=1)
                first = ctx.clock.now - first_start
                second_start = ctx.clock.now
                comm.Send((buf, 1, t), dest=1)
                second = ctx.clock.now - second_start
                # the second send answers the model query from the memo,
                # so it is cheaper by roughly the cold-query difference
                assert second <= first
                return (first, second)
            comm.Recv((buf, 1, t), source=0)
            comm.Recv((buf, 1, t), source=0)
            return None

        World(2, ranks_per_node=1).run(program)

    def test_shared_library_state(self, summit_model):
        world = World(1)
        ctx = world.contexts[0]
        library = Tempi(ctx.gpu, ctx.machine, TempiConfig(), summit_model)
        first = TempiCommunicator(ctx.comm, library=library)
        second = TempiCommunicator(ctx.comm.Dup(), library=library)
        first.Type_commit(vector_type())
        assert second.stats.commits == 1

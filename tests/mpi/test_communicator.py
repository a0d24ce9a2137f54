"""Tests for the Communicator: buffer specs, sends/receives, pack, requests."""

import numpy as np
import pytest

from repro.gpu.memory import MemoryKind
from repro.mpi.constructors import Type_contiguous, Type_vector
from repro.mpi.datatype import BYTE, DOUBLE, FLOAT
from repro.mpi.errors import MpiArgumentError, MpiRankError, MpiTruncationError
from repro.mpi.status import Status
from repro.mpi.world import World
from repro.mpi.communicator import as_buffer


@pytest.fixture
def world2():
    return World(2, ranks_per_node=1)


@pytest.fixture
def world4():
    return World(4, ranks_per_node=2)


class TestBufferResolution:
    def test_plain_buffer_is_bytes(self):
        world = World(1)
        comm = world.contexts[0].comm
        buf = world.contexts[0].gpu.malloc(64)
        buffer, count, datatype = comm._resolve(buf)
        assert buffer is buf
        assert count == 64
        assert datatype is BYTE

    def test_ndarray_wrapped_as_host_buffer(self):
        world = World(1)
        comm = world.contexts[0].comm
        arr = np.zeros(10, dtype=np.float64)
        buffer, count, datatype = comm._resolve(arr)
        assert not buffer.is_device
        assert count == 80
        # the wrapper shares memory with the array
        buffer.data[:8] = 255
        assert arr[0] != 0.0

    def test_two_tuple_infers_count(self):
        world = World(1)
        comm = world.contexts[0].comm
        buf = world.contexts[0].gpu.malloc(64)
        _, count, datatype = comm._resolve((buf, DOUBLE))
        assert count == 8
        assert datatype is DOUBLE

    def test_three_tuple_explicit(self):
        world = World(1)
        comm = world.contexts[0].comm
        buf = world.contexts[0].gpu.malloc(64)
        _, count, datatype = comm._resolve((buf, 3, DOUBLE))
        assert count == 3

    def test_invalid_specs_rejected(self):
        world = World(1)
        comm = world.contexts[0].comm
        buf = world.contexts[0].gpu.malloc(8)
        with pytest.raises(MpiArgumentError):
            comm._resolve((buf, "DOUBLE"))
        with pytest.raises(MpiArgumentError):
            comm._resolve((buf, 0, DOUBLE))
        with pytest.raises(MpiArgumentError):
            comm._resolve(42)

    def test_as_buffer_rejects_strings(self):
        with pytest.raises(MpiArgumentError):
            as_buffer("hello")


class TestBlockingSendRecv:
    def test_bytes_arrive(self, world2):
        def program(ctx):
            buf = ctx.gpu.malloc(128)
            if ctx.rank == 0:
                buf.data[:] = 42
                ctx.comm.Send(buf, dest=1, tag=3)
            else:
                status = ctx.comm.Recv(buf, source=0, tag=3)
                assert (buf.data == 42).all()
                assert status.Get_source() == 0
                assert status.Get_tag() == 3
                assert status.Get_count() == 128

        world2.run(program)

    def test_host_arrays_work_directly(self, world2):
        def program(ctx):
            data = np.full(16, ctx.rank, dtype=np.int32)
            if ctx.rank == 0:
                ctx.comm.Send(data, dest=1)
            else:
                ctx.comm.Recv(data, source=0)
                assert (data == 0).all()

        world2.run(program)

    def test_derived_type_send_lands_strided(self, world2):
        def program(ctx):
            t = Type_vector(4, 8, 32, BYTE).Commit()
            buf = ctx.gpu.malloc(t.extent)
            if ctx.rank == 0:
                buf.data[:] = np.arange(buf.nbytes, dtype=np.uint16).astype(np.uint8)
                ctx.comm.Send((buf, 1, t), dest=1)
                return buf.data.copy()
            ctx.comm.Recv((buf, 1, t), source=0)
            return buf.data.copy()

        sent, received = world2.run(program)
        for i in range(4):
            start = i * 32
            assert np.array_equal(received[start : start + 8], sent[start : start + 8])

    def test_truncation_detected(self, world2):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.Send(ctx.gpu.malloc(64), dest=1)
            else:
                with pytest.raises(MpiTruncationError):
                    ctx.comm.Recv(ctx.gpu.malloc(32), source=0)

        world2.run(program)

    def test_clock_advances_by_message_time(self, world2):
        def program(ctx):
            nbytes = 1 << 16
            buf = ctx.gpu.host_alloc(nbytes, MemoryKind.HOST_PINNED)
            before = ctx.clock.now
            if ctx.rank == 0:
                ctx.comm.Send(buf, dest=1)
                return ctx.clock.now - before
            ctx.comm.Recv(buf, source=0)
            return ctx.clock.now - before

        sender_elapsed, receiver_elapsed = world2.run(program)
        expected = world2.network.message_time(1 << 16, same_node=False, device_buffers=False)
        assert sender_elapsed == pytest.approx(expected)
        assert receiver_elapsed >= expected

    def test_device_buffers_cost_more_than_host(self, world2):
        def program(ctx, device):
            nbytes = 4096
            buf = (
                ctx.gpu.malloc(nbytes)
                if device
                else ctx.gpu.host_alloc(nbytes, MemoryKind.HOST_PINNED)
            )
            start = ctx.clock.now
            if ctx.rank == 0:
                ctx.comm.Send(buf, dest=1)
            else:
                ctx.comm.Recv(buf, source=0)
            return ctx.clock.now - start

        host_times = world2.run(program, False)
        world2.reset_clocks()
        device_times = World(2, ranks_per_node=1).run(program, True)
        assert device_times[0] > host_times[0]

    def test_invalid_peer_rejected(self, world2):
        def program(ctx):
            with pytest.raises(MpiRankError):
                ctx.comm.Send(ctx.gpu.malloc(8), dest=7)
            return True

        assert all(world2.run(program))


class TestNonblocking:
    def test_isend_irecv_roundtrip(self, world2):
        def program(ctx):
            buf = ctx.gpu.malloc(64)
            if ctx.rank == 0:
                buf.data[:] = 9
                request = ctx.comm.Isend(buf, dest=1, tag=1)
                request.Wait()
            else:
                request = ctx.comm.Irecv(buf, source=0, tag=1)
                status = request.Wait()
                assert status.Get_count() == 64
                assert (buf.data == 9).all()

        world2.run(program)

    def test_sendrecv_exchanges_without_deadlock(self, world2):
        def program(ctx):
            send = ctx.gpu.malloc(32)
            recv = ctx.gpu.malloc(32)
            send.data[:] = ctx.rank + 1
            peer = 1 - ctx.rank
            ctx.comm.Sendrecv(send, peer, 0, recv, peer, 0)
            assert (recv.data == peer + 1).all()

        world2.run(program)

    def test_probe(self, world2):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.Send(ctx.gpu.malloc(16), dest=1, tag=5)
                return None
            # Wait (wall-clock) for the message to be posted.
            status = None
            for _ in range(1000):
                status = ctx.comm.Probe(source=0, tag=5)
                if status is not None:
                    break
            assert status is not None and status.Get_count() == 16
            ctx.comm.Recv(ctx.gpu.malloc(16), source=0, tag=5)
            return None

        world2.run(program)


class TestPackUnpack:
    def test_contiguous_pack_copies(self):
        world = World(1)
        ctx = world.contexts[0]
        t = Type_contiguous(16, FLOAT).Commit()
        src = ctx.gpu.malloc(64)
        dst = ctx.gpu.malloc(128)
        src.data[:] = 3
        position = ctx.comm.Pack((src, 1, t), dst, 10)
        assert position == 74
        assert (dst.data[10:74] == 3).all()

    def test_strided_pack_unpack_roundtrip(self):
        world = World(1)
        ctx = world.contexts[0]
        t = Type_vector(8, 4, 16, BYTE).Commit()
        src = ctx.gpu.malloc(t.extent)
        src.data[:] = np.arange(src.nbytes, dtype=np.uint8)
        packed = ctx.gpu.malloc(t.size)
        ctx.comm.Pack((src, 1, t), packed, 0)
        out = ctx.gpu.malloc(t.extent)
        ctx.comm.Unpack(packed, 0, (out, 1, t))
        offsets = [i * 16 for i in range(8)]
        for offset in offsets:
            assert np.array_equal(out.data[offset : offset + 4], src.data[offset : offset + 4])

    @pytest.mark.parametrize("library", ["system", "interposed-host", "interposed-device"])
    @pytest.mark.parametrize(
        "bad", ["negative position", "position past the end", "short user buffer"]
    )
    @pytest.mark.parametrize("call", ["Pack", "Unpack"])
    @pytest.mark.parametrize("shape", ["contiguous", "strided"])
    def test_bad_input_raises_naming_the_field(self, shape, call, bad, library, summit_model):
        """Checked once, before the contiguous/strided dispatch: a bad
        ``position`` or a user buffer too short for its elements is an
        ``MpiArgumentError`` that says which, not a numpy or memcpy error.
        Device buffers take TEMPI's packer, whose refusal names the same
        field."""
        from repro.tempi.interposer import interpose

        ctx = World(1).contexts[0]
        comm = ctx.comm if library == "system" else interpose(ctx, model=summit_model)
        t = comm.Type_commit(
            Type_contiguous(16, BYTE) if shape == "contiguous" else Type_vector(4, 4, 8, BYTE)
        )
        alloc = ctx.gpu.malloc if library == "interposed-device" else ctx.gpu.host_alloc
        user = alloc(8 if bad == "short user buffer" else t.extent)
        packed = alloc(32)
        position = {"negative position": -4, "position past the end": 20}.get(bad, 0)
        field = "user buffer" if bad == "short user buffer" else "position"
        with pytest.raises(MpiArgumentError, match=field):
            if call == "Pack":
                comm.Pack((user, 1, t), packed, position)
            else:
                comm.Unpack(packed, position, (user, 1, t))
        if library == "interposed-device":
            assert comm.tempi.stats.packs == 1  # the packer refused, not the system path

    def test_pack_size(self):
        world = World(1)
        comm = world.contexts[0].comm
        t = Type_vector(8, 4, 16, BYTE)
        assert comm.Pack_size(3, t) == 96

    def test_type_commit_via_comm(self):
        world = World(1)
        comm = world.contexts[0].comm
        t = Type_vector(2, 2, 4, BYTE)
        comm.Type_commit(t)
        assert t.committed


class TestMisc:
    def test_dup_preserves_rank_and_changes_context(self, world2):
        def program(ctx):
            dup = ctx.comm.Dup()
            assert dup.Get_rank() == ctx.rank
            assert dup.context != ctx.comm.context
            # messages on the dup'd communicator still match across ranks
            buf = ctx.gpu.host_alloc(8)
            if ctx.rank == 0:
                buf.data[:] = 1
                dup.Send(buf, dest=1)
            else:
                dup.Recv(buf, source=0)
                assert (buf.data == 1).all()
            return dup.context

        contexts = world2.run(program)
        assert contexts[0] == contexts[1]

"""Tests for collective operations."""

import numpy as np
import pytest

from repro.mpi.errors import MpiArgumentError
from repro.mpi.world import World


@pytest.fixture
def world4():
    return World(4, ranks_per_node=2)


class TestBarrier:
    def test_barrier_aligns_clocks(self, world4):
        def program(ctx):
            ctx.clock.advance((ctx.rank + 1) * 1e-3)
            ctx.comm.Barrier()
            return ctx.clock.now

        times = world4.run(program)
        slowest = 4e-3
        assert all(t >= slowest for t in times)
        assert max(times) - min(times) < 1e-9

    def test_barrier_single_rank(self):
        world = World(1)
        world.run(lambda ctx: ctx.comm.Barrier())


class TestBcast:
    def test_root_data_reaches_everyone(self, world4):
        def program(ctx):
            data = np.zeros(32, dtype=np.uint8)
            if ctx.rank == 2:
                data[:] = 77
            ctx.comm.Bcast(data, root=2)
            return int(data[0])

        assert world4.run(program) == [77, 77, 77, 77]

    @pytest.mark.parametrize("library", ["system", "interposed-host"])
    def test_strided_elements_reach_everyone_and_gaps_stay(self, library, summit_model):
        """A derived datatype broadcasts its elements, not the raw buffer
        prefix: every element byte arrives and no gap byte is written."""
        from repro.mpi import typemap
        from repro.mpi.constructors import Type_vector
        from repro.mpi.datatype import BYTE
        from repro.tempi.interposer import interpose

        def program(ctx):
            comm = ctx.comm if library == "system" else interpose(ctx, model=summit_model)
            t = comm.Type_commit(Type_vector(8, 16, 32, BYTE))
            buf = ctx.gpu.host_alloc(t.extent)
            buf.data[:] = 200 + ctx.rank
            if ctx.rank == 1:
                buf.data[:] = np.arange(t.extent) % 199
            comm.Bcast((buf, 1, t), root=1)
            return buf.data.copy()

        results = World(2, ranks_per_node=2).run(program)
        t = Type_vector(8, 16, 32, BYTE).Commit()
        element = np.zeros(t.extent, dtype=bool)
        for offset, length in zip(*typemap.offsets_and_lengths(t)):
            element[offset : offset + length] = True
        assert np.array_equal(results[0][element], results[1][element])
        assert (results[0][~element] == 200).all()

    def test_invalid_root_rejected(self):
        world = World(2)

        def program(ctx):
            with pytest.raises(MpiArgumentError):
                ctx.comm.Bcast(np.zeros(4, dtype=np.uint8), root=9)
            return True

        assert all(world.run(program))


class TestObjectCollectives:
    def test_allgather_object(self, world4):
        def program(ctx):
            return ctx.comm.Allgather_object({"rank": ctx.rank})

        results = world4.run(program)
        expected = [{"rank": r} for r in range(4)]
        assert all(result == expected for result in results)

    def test_allreduce_scalar_sum(self, world4):
        def program(ctx):
            return ctx.comm.Allreduce_scalar(float(ctx.rank + 1), op="sum")

        assert world4.run(program) == [10.0, 10.0, 10.0, 10.0]

    def test_allreduce_scalar_max_and_min(self, world4):
        def program(ctx):
            return (
                ctx.comm.Allreduce_scalar(float(ctx.rank), op="max"),
                ctx.comm.Allreduce_scalar(float(ctx.rank), op="min"),
            )

        results = world4.run(program)
        assert all(result == (3.0, 0.0) for result in results)

    def test_allreduce_invalid_op(self):
        world = World(1)

        def program(ctx):
            with pytest.raises(MpiArgumentError):
                ctx.comm.Allreduce_scalar(1.0, op="prod")
            return True

        assert all(world.run(program))


class TestAlltoallv:
    def test_pairwise_exchange_correct(self, world4):
        def program(ctx):
            n = ctx.size
            chunk = 16
            send = np.zeros(n * chunk, dtype=np.uint8)
            recv = np.zeros(n * chunk, dtype=np.uint8)
            for peer in range(n):
                send[peer * chunk : (peer + 1) * chunk] = 10 * ctx.rank + peer
            counts = [chunk] * n
            displs = [peer * chunk for peer in range(n)]
            ctx.comm.Alltoallv(send, counts, displs, recv, counts, displs)
            for peer in range(n):
                expected = 10 * peer + ctx.rank
                assert (recv[peer * chunk : (peer + 1) * chunk] == expected).all()
            return True

        assert all(world4.run(program))

    def test_zero_counts_skip_peers(self, world4):
        def program(ctx):
            n = ctx.size
            send = np.full(8, ctx.rank, dtype=np.uint8)
            recv = np.zeros(8, dtype=np.uint8)
            partner = ctx.rank ^ 1
            sendcounts = [8 if peer == partner else 0 for peer in range(n)]
            recvcounts = [8 if peer == partner else 0 for peer in range(n)]
            displs = [0] * n
            ctx.comm.Alltoallv(send, sendcounts, displs, recv, recvcounts, displs)
            assert (recv == partner).all()
            return True

        assert all(world4.run(program))

    def test_argument_validation(self):
        world = World(2)

        def program(ctx):
            send = np.zeros(4, dtype=np.uint8)
            recv = np.zeros(4, dtype=np.uint8)
            with pytest.raises(MpiArgumentError):
                ctx.comm.Alltoallv(send, [4], [0], recv, [4, 0], [0, 0])
            return True

        assert all(world.run(program))

    def test_clock_charged_for_exchange(self, world4):
        def program(ctx):
            n = ctx.size
            chunk = 1 << 14
            send = np.zeros(n * chunk, dtype=np.uint8)
            recv = np.zeros(n * chunk, dtype=np.uint8)
            counts = [chunk] * n
            displs = [peer * chunk for peer in range(n)]
            before = ctx.clock.now
            ctx.comm.Alltoallv(send, counts, displs, recv, counts, displs)
            return ctx.clock.now - before

        elapsed = world4.run(program)
        assert all(t > 0 for t in elapsed)


class TestNeighborAlltoallv:
    def test_ring_exchange(self):
        world = World(4, ranks_per_node=1)

        def program(ctx):
            left = (ctx.rank - 1) % ctx.size
            right = (ctx.rank + 1) % ctx.size
            send = np.zeros(16, dtype=np.uint8)
            send[:8] = ctx.rank + 1      # to the left neighbour
            send[8:] = ctx.rank + 101    # to the right neighbour
            recv = np.zeros(16, dtype=np.uint8)
            ctx.comm.Neighbor_alltoallv(
                [left, right],
                send,
                [8, 8],
                [0, 8],
                recv,
                [8, 8],
                [0, 8],
            )
            assert (recv[:8] == left + 101).all()   # left neighbour sent to its right
            assert (recv[8:] == right + 1).all()    # right neighbour sent to its left
            return True

        assert all(world.run(program))

    def test_duplicate_neighbours_concatenate_in_list_order(self):
        """Byte sections to one peer travel concatenated in list order, as
        typed ones do: the first receive section gets the first send section."""
        world = World(2, ranks_per_node=2)

        def program(ctx):
            peer = 1 - ctx.rank
            send = np.zeros(6, np.uint8)
            send[:2] = 10 * ctx.rank + 1
            send[2:] = 10 * ctx.rank + 2
            recv = np.zeros(6, np.uint8)
            ctx.comm.Neighbor_alltoallv([peer, peer], send, [2, 4], [0, 2], recv, [2, 4], [4, 0])
            assert (recv[4:] == 10 * peer + 1).all()
            assert (recv[:4] == 10 * peer + 2).all()
            return True

        assert all(world.run(program))

    def test_length_mismatch_rejected(self):
        world = World(2)

        def program(ctx):
            with pytest.raises(MpiArgumentError):
                ctx.comm.Neighbor_alltoallv(
                    [0],
                    np.zeros(2, np.uint8),
                    [1, 1],
                    [0, 1],
                    np.zeros(2, np.uint8),
                    [1, 1],
                    [0, 1],
                )
            return True

        assert all(world.run(program))


class TestTypedAlltoallv:
    """The datatype-carrying signature (system-MPI baseline path)."""

    @staticmethod
    def _vector(comm):
        from repro.mpi.constructors import Type_vector
        from repro.mpi.datatype import BYTE

        return comm.Type_commit(Type_vector(4, 2, 8, BYTE))

    def test_strided_sections_round_trip(self, world4):
        from repro.mpi import typemap

        def program(ctx):
            comm = ctx.comm
            t = self._vector(comm)
            send = ctx.gpu.malloc(t.extent * comm.size)
            recv = ctx.gpu.malloc(t.extent * comm.size)
            for peer in range(comm.size):
                send.data[peer * t.extent : (peer + 1) * t.extent] = ctx.rank * 10 + peer
            counts = [1] * comm.size
            displs = [peer * t.extent for peer in range(comm.size)]
            comm.Alltoallv(
                send, counts, displs, recv, counts, displs, sendtypes=t, recvtypes=t
            )
            offsets, lengths = typemap.offsets_and_lengths(t)
            for peer in range(comm.size):
                base = peer * t.extent
                for offset, length in zip(offsets, lengths):
                    section = recv.data[base + int(offset) : base + int(offset) + int(length)]
                    assert (section == peer * 10 + ctx.rank).all()
            return True

        assert all(world4.run(program))

    def test_gap_bytes_untouched(self, world4):
        def program(ctx):
            comm = ctx.comm
            t = self._vector(comm)
            send = ctx.gpu.malloc(t.extent * comm.size)
            send.data[:] = 9
            recv = ctx.gpu.malloc(t.extent * comm.size)
            counts = [1] * comm.size
            displs = [peer * t.extent for peer in range(comm.size)]
            comm.Alltoallv(
                send, counts, displs, recv, counts, displs, sendtypes=t, recvtypes=t
            )
            # Only the typemap bytes of each element may be written.
            for peer in range(comm.size):
                base = peer * t.extent
                for block in range(4):
                    gap = recv.data[base + block * 8 + 2 : base + min((block + 1) * 8, t.extent)]
                    assert not gap.any()
            return True

        assert all(world4.run(program))

    def test_zero_counts_skip_peers(self, world4):
        def program(ctx):
            comm = ctx.comm
            t = self._vector(comm)
            send = ctx.gpu.malloc(t.extent * comm.size)
            send.data[:] = ctx.rank + 1
            recv = ctx.gpu.malloc(t.extent * comm.size)
            counts = [1 if peer == ctx.rank else 0 for peer in range(comm.size)]
            displs = [peer * t.extent for peer in range(comm.size)]
            comm.Alltoallv(
                send, counts, displs, recv, counts, displs, sendtypes=t, recvtypes=t
            )
            return True

        assert all(world4.run(program))

    def test_half_specified_types_rejected(self):
        def program(ctx):
            t = self._vector(ctx.comm)
            buf = ctx.gpu.malloc(t.extent)
            with pytest.raises(MpiArgumentError):
                ctx.comm.Alltoallv(buf, [1], [0], buf, [1], [0], sendtypes=t)
            return True

        assert all(World(1).run(program))

    def test_uncommitted_type_rejected(self):
        from repro.mpi.constructors import Type_vector
        from repro.mpi.datatype import BYTE
        from repro.mpi.errors import MpiError

        def program(ctx):
            t = Type_vector(4, 2, 8, BYTE)  # not committed
            buf = ctx.gpu.malloc(t.extent)
            with pytest.raises(MpiError):
                ctx.comm.Alltoallv(buf, [1], [0], buf, [1], [0], sendtypes=t, recvtypes=t)
            return True

        assert all(World(1).run(program))

    def test_section_escaping_buffer_rejected(self):
        def program(ctx):
            t = self._vector(ctx.comm)
            small = ctx.gpu.malloc(t.extent - 1)
            ok = ctx.gpu.malloc(t.extent)
            with pytest.raises(MpiArgumentError):
                ctx.comm.Alltoallv(small, [1], [0], ok, [1], [0], sendtypes=t, recvtypes=t)
            return True

        assert all(World(1).run(program))


class TestTypedNeighborAlltoallv:
    def test_duplicate_neighbours_allowed_with_types(self):
        """Two ranks, each sending two strided sections to the same peer."""
        from repro.mpi import typemap

        def program(ctx):
            comm = ctx.comm
            t = TestTypedAlltoallv._vector(comm)
            peer = 1 - ctx.rank
            send = ctx.gpu.malloc(2 * t.extent)
            send.data[: t.extent] = ctx.rank * 10 + 1
            send.data[t.extent :] = ctx.rank * 10 + 2
            recv = ctx.gpu.malloc(2 * t.extent)
            comm.Neighbor_alltoallv(
                [peer, peer],
                send,
                [1, 1],
                [0, t.extent],
                recv,
                [1, 1],
                [0, t.extent],
                sendtypes=t,
                recvtypes=t,
            )
            offsets, lengths = typemap.offsets_and_lengths(t)
            for section, expected in ((0, peer * 10 + 1), (t.extent, peer * 10 + 2)):
                for offset, length in zip(offsets, lengths):
                    begin = section + int(offset)
                    assert (recv.data[begin : begin + int(length)] == expected).all()
            return True

        assert all(World(2, ranks_per_node=2).run(program))

    def test_self_neighbour_round_trips(self):
        """Fully periodic single rank: every neighbour is the rank itself."""

        def program(ctx):
            comm = ctx.comm
            t = TestTypedAlltoallv._vector(comm)
            send = ctx.gpu.malloc(t.extent)
            send.data[:] = 42
            recv = ctx.gpu.malloc(t.extent)
            comm.Neighbor_alltoallv(
                [0], send, [1], [0], recv, [1], [0], sendtypes=t, recvtypes=t
            )
            assert (recv.data[:2] == 42).all()
            return True

        assert all(World(1).run(program))

    def test_typed_length_mismatch_rejected(self):
        def program(ctx):
            t = TestTypedAlltoallv._vector(ctx.comm)
            buf = ctx.gpu.malloc(t.extent)
            with pytest.raises(MpiArgumentError):
                ctx.comm.Neighbor_alltoallv(
                    [0], buf, [1, 1], [0, 0], buf, [1], [0], sendtypes=t, recvtypes=t
                )
            return True

        assert all(World(1).run(program))


class TestAllgatherv:
    """The byte all-gather-v (system-MPI baseline path)."""

    def test_every_rank_sees_every_contribution(self, world4):
        def program(ctx):
            comm = ctx.comm
            n = 4
            send = np.full(n, ctx.rank + 1, dtype=np.uint8)
            recv = np.zeros(n * comm.size, dtype=np.uint8)
            comm.Allgather(send, n, recv)
            expected = np.repeat(np.arange(1, comm.size + 1, dtype=np.uint8), n)
            assert np.array_equal(recv, expected)
            return True

        assert all(world4.run(program))

    def test_ragged_contributions_with_displacements(self, world4):
        def program(ctx):
            comm = ctx.comm
            counts = [1, 3, 0, 2]
            displs = [0, 2, 6, 7]
            send = np.full(max(1, counts[ctx.rank]), ctx.rank + 1, dtype=np.uint8)
            recv = np.zeros(16, dtype=np.uint8)
            comm.Allgatherv(send, counts[ctx.rank], recv, counts, displs)
            for peer, (count, displ) in enumerate(zip(counts, displs)):
                assert (recv[displ : displ + count] == peer + 1).all()
            return True

        assert all(world4.run(program))

    def test_nonblocking_defers_receives(self, world4):
        def program(ctx):
            comm = ctx.comm
            n = 2
            send = np.full(n, ctx.rank + 10, dtype=np.uint8)
            recv = np.zeros(n * comm.size, dtype=np.uint8)
            request = comm.Iallgather(send, n, recv)
            request.Wait()
            expected = np.repeat(np.arange(10, 10 + comm.size, dtype=np.uint8), n)
            assert np.array_equal(recv, expected)
            return True

        assert all(world4.run(program))

    def test_mismatched_self_count_rejected(self):
        def program(ctx):
            buf = np.zeros(8, dtype=np.uint8)
            with pytest.raises(MpiArgumentError):
                ctx.comm.Allgatherv(buf, 2, buf, [3], [0])
            return True

        assert all(World(1).run(program))

    def test_escaping_self_section_raises_before_posting(self):
        """An invalid call fails on the offending rank without leaving peers
        a half-completed collective (nothing may be posted first)."""

        def program(ctx):
            comm = ctx.comm
            send = np.zeros(4, dtype=np.uint8)
            recv = np.zeros(4, dtype=np.uint8)  # too small for displ 4
            with pytest.raises(MpiArgumentError):
                comm.Allgatherv(send, 4, recv, [4, 4], [4, 0])
            # The failed call posted nothing: no stray message is pending.
            assert comm.Probe() is None
            return True

        def peer(ctx):
            return True

        world = World(2, ranks_per_node=2)
        results = world.run(lambda ctx: program(ctx) if ctx.rank == 0 else peer(ctx))
        assert all(results)

    def test_clock_charged_for_gather(self, world4):
        def program(ctx):
            comm = ctx.comm
            n = 4096
            send = np.zeros(n, dtype=np.uint8)
            recv = np.zeros(n * comm.size, dtype=np.uint8)
            before = ctx.clock.now
            comm.Allgather(send, n, recv)
            return ctx.clock.now - before

        assert all(elapsed > 0 for elapsed in world4.run(program))


class TestTypedAllgatherv:
    """The datatype-carrying all-gather-v (system-MPI baseline path)."""

    def test_strided_contributions_round_trip(self, world4):
        def program(ctx):
            comm = ctx.comm
            t = TestTypedAlltoallv._vector(comm)
            send = ctx.gpu.malloc(t.extent)
            send.data[:] = ctx.rank + 1
            recv = ctx.gpu.malloc(t.extent * comm.size)
            recv.data[:] = 0
            comm.Allgather(send, 1, recv, sendtype=t, recvtype=t)
            for peer in range(comm.size):
                base = peer * t.extent
                for blk in range(4):
                    section = recv.data[base + blk * 8 : base + blk * 8 + 2]
                    assert (section == peer + 1).all()
            return True

        assert all(world4.run(program))

    def test_half_specified_types_rejected(self):
        def program(ctx):
            t = TestTypedAlltoallv._vector(ctx.comm)
            buf = ctx.gpu.malloc(t.extent)
            with pytest.raises(MpiArgumentError):
                ctx.comm.Allgather(buf, 1, buf, sendtype=t)
            return True

        assert all(World(1).run(program))

    def test_inconsistent_self_section_rejected(self):
        def program(ctx):
            t = TestTypedAlltoallv._vector(ctx.comm)
            buf = ctx.gpu.malloc(4 * t.extent)
            with pytest.raises(MpiArgumentError):
                ctx.comm.Allgatherv(buf, 1, buf, [2], [0], sendtype=t, recvtypes=t)
            return True

        assert all(World(1).run(program))


# ------------------------------------------------------------------ one language
#: Byte counts are multiples of this, so a ``Type_contiguous(UNIT, BYTE)``
#: signature can carry the same sections in elements.
UNIT = 4
#: Every section's slot in the user buffers (the largest count is 3 units).
SLOT = 16


def _fold_call(op: str, ctx, send, recv, unit: int):
    """``(method, args)`` of one non-uniform call whose counts are in
    elements of ``unit`` bytes and whose displacements are in bytes."""
    rank, size = ctx.rank, ctx.size

    def units(a, b):
        return (1 + (a + 2 * b) % 3) * UNIT // unit

    if op == "Alltoallv":
        displs = [peer * SLOT for peer in range(size)]
        sendcounts = [units(rank, peer) for peer in range(size)]
        recvcounts = [units(peer, rank) for peer in range(size)]
        return op, (send, sendcounts, displs, recv, recvcounts, displs)
    if op == "Neighbor_alltoallv":
        # On two ranks both neighbours are the same peer: the duplicates
        # travel concatenated in list order.
        left, right = (rank - 1) % size, (rank + 1) % size
        sendcounts = [units(rank, 0), units(rank, 1)]
        recvcounts = [units(left, 1), units(right, 0)]
        displs = [0, SLOT]
        return op, ([left, right], send, sendcounts, displs, recv, recvcounts, displs)
    counts = [units(peer, peer) for peer in range(size)]
    displs = [peer * SLOT for peer in range(size)]
    return op, (send, counts[rank], recv, counts, displs)


def _fold_run(op: str, nranks: int, form: str, split: bool) -> list:
    """Every rank's ``(clock hex, received bytes)`` after two calls in ``form``.

    ``form`` is ``"bytes"`` (datatypes omitted), ``"BYTE"`` (``MPI_BYTE``
    given) or ``"contiguous"`` (a committed ``Type_contiguous(UNIT, BYTE)``).
    """
    from repro.mpi.constructors import Type_contiguous
    from repro.mpi.datatype import BYTE

    def program(ctx):
        comm = ctx.comm
        datatype = {"BYTE": BYTE, "contiguous": comm.Type_commit(Type_contiguous(UNIT, BYTE))}
        send = ctx.gpu.malloc(SLOT * max(2, ctx.size))
        recv = ctx.gpu.malloc(SLOT * max(2, ctx.size))
        send.data[:] = (np.arange(send.nbytes) * (ctx.rank + 3) % 251).astype(np.uint8)
        method, args = _fold_call(op, ctx, send, recv, UNIT if form == "contiguous" else 1)
        kwargs = {}
        if form != "bytes":
            sendkey, recvkey = ("sendtype", "recvtypes") if op == "Allgatherv" else (
                "sendtypes", "recvtypes"
            )
            kwargs = {sendkey: datatype[form], recvkey: datatype[form]}
        for _ in range(2):
            if split:
                getattr(comm, "I" + method.lower())(*args, **kwargs).Wait()
            else:
                getattr(comm, method)(*args, **kwargs)
        return ctx.clock.now.hex(), recv.data.tobytes()

    return World(nranks, ranks_per_node=2).run(program)


class TestMissingDatatypeIsByte:
    """The byte signature *is* the datatype signature with ``MPI_BYTE``.

    Same clocks, same bytes — a contiguous section is not packed, whichever
    contiguous datatype describes it, so it pays no per-block charge.
    """

    @pytest.mark.parametrize("nranks", [2, 3, 4, 5])
    @pytest.mark.parametrize("split", [False, True], ids=["blocking", "split"])
    @pytest.mark.parametrize("op", ["Alltoallv", "Neighbor_alltoallv", "Allgatherv"])
    def test_byte_call_equals_byte_typed_call(self, op, split, nranks):
        untyped = _fold_run(op, nranks, "bytes", split)
        assert all(any(received) for _, received in untyped)
        assert _fold_run(op, nranks, "BYTE", split) == untyped
        contiguous = _fold_run(op, nranks, "contiguous", split)
        assert [received for _, received in contiguous] == [r for _, r in untyped]

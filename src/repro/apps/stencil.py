"""Functional 3-D stencil halo exchange (Sec. 6.4).

This is the application exactly as the paper describes it, in three variants
selected by ``mode``:

* ``"packed"`` — every rank describes each of its 26 halo regions with a
  derived datatype, packs them with ``MPI_Pack`` into a single send buffer,
  exchanges that buffer with a byte all-to-all-v, and unpacks the 26 ghost
  regions with ``MPI_Unpack``;
* ``"neighbor"`` — the hand-rolled pack/unpack loops disappear: the rank
  hands the 26 datatypes straight to the datatype-carrying neighbour
  all-to-all-v, bound once (``Neighbor_alltoallv_init``) and started every
  exchange, and the communicator's collective does the packing — per-block
  baseline copies on the system MPI, one kernel per destination under
  TEMPI's interposer;
* ``"overlap"`` — the structure real halo codes use to hide pack latency:
  one typed ``Irecv``/``Isend`` pair per direction followed by ``Waitall``,
  so each direction's pack overlaps the previous directions' wire time —
  spelled the way an iterative code spells it, as persistent requests
  (``Recv_init``/``Send_init`` once, ``Startall`` every exchange).
  Under TEMPI's interposer every started send runs a
  :class:`~repro.tempi.plan.MessagePlan` whose pack kernel runs on its own
  stream, and every started receive defers its unpack to ``Waitall``.

Either way the communicator it runs against decides whether the datatype
handling is the system MPI's per-block baseline or TEMPI's kernels — the
application code is identical, which is the whole point of the interposer.

Run it on a :class:`~repro.mpi.world.World` with a modest grid for functional
verification; use :mod:`repro.apps.exchange_model` for the paper-scale
numbers of Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.halo import DIRECTIONS, HaloSpec, RankGrid, negate, neighbor_sections
from repro.mpi import typemap
from repro.mpi.datatype import Datatype
from repro.mpi.request import Request

#: Tag space of the per-direction nonblocking exchange, far above application
#: tags and far below the collective tag range.
_DIRECTION_TAG_BASE = 2_000_000
_DIRECTION_INDEX = {direction: index for index, direction in enumerate(DIRECTIONS)}


def direction_tag(direction: tuple[int, int, int]) -> int:
    """The message tag of a halo section travelling along ``direction``."""
    return _DIRECTION_TAG_BASE + _DIRECTION_INDEX[direction]


@dataclass(frozen=True)
class HaloTiming:
    """Virtual seconds spent in each phase of one exchange (max across ranks
    when aggregated by :func:`aggregate_timings`)."""

    pack_s: float
    comm_s: float
    unpack_s: float

    @property
    def total_s(self) -> float:
        return self.pack_s + self.comm_s + self.unpack_s


def aggregate_timings(timings: list[HaloTiming]) -> HaloTiming:
    """Per-phase maxima across ranks, as the paper reports (Sec. 6.4)."""
    if not timings:
        raise ValueError("no timings to aggregate")
    return HaloTiming(
        pack_s=max(t.pack_s for t in timings),
        comm_s=max(t.comm_s for t in timings),
        unpack_s=max(t.unpack_s for t in timings),
    )


class HaloExchange:
    """One rank's state for the halo exchange."""

    MODES = ("packed", "neighbor", "overlap")

    def __init__(
        self,
        ctx,
        comm,
        spec: HaloSpec,
        *,
        grid: RankGrid | None = None,
        mode: str = "packed",
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.ctx = ctx
        self.comm = comm
        self.spec = spec
        self.mode = mode
        self.grid = grid if grid is not None else RankGrid.for_ranks(comm.Get_size())
        if self.grid.nranks != comm.Get_size():
            raise ValueError(
                f"rank grid of {self.grid.nranks} does not match communicator of {comm.Get_size()}"
            )
        self.rank = comm.Get_rank()
        self.local = ctx.gpu.malloc(spec.alloc_bytes)

        # Commit one send and one receive datatype per direction.
        self.send_types: dict[tuple[int, int, int], Datatype] = {}
        self.recv_types: dict[tuple[int, int, int], Datatype] = {}
        for direction in DIRECTIONS:
            self.send_types[direction] = comm.Type_commit(spec.send_datatype(direction))
            self.recv_types[direction] = comm.Type_commit(spec.recv_datatype(direction))

        self._build_layout()
        self._build_neighbor_layout()
        if mode == "neighbor":
            # The same collective every exchange: bind it once, as MPI-4's
            # persistent collectives spell it, and start it every exchange.
            ones, zeros = [1] * len(self.neighbor_peers), [0] * len(self.neighbor_peers)
            self._neighbor_request = comm.Neighbor_alltoallv_init(
                self.neighbor_peers, self.local, ones, zeros, self.local, ones, zeros,
                sendtypes=self.neighbor_sendtypes, recvtypes=self.neighbor_recvtypes,
            )
        if mode == "overlap":
            # No round changes a direction's (buffer, datatype, neighbour,
            # tag): bind each message once, restart it every exchange.  A
            # section sent along ``d`` lands as the receiver's ghost slab
            # ``-d``, so the receive for ghost direction ``g`` matches tag
            # ``direction_tag(-g)`` from neighbour ``g`` — the per-direction
            # tags keep several sections between one pair of ranks apart.
            self._overlap_recvs = [
                comm.Recv_init(
                    (self.local, 1, self.recv_types[d]),
                    self.grid.neighbor(self.rank, d),
                    direction_tag(negate(d)),
                )
                for d in DIRECTIONS
            ]
            self._overlap_sends = [
                comm.Send_init(
                    (self.local, 1, self.send_types[d]),
                    self.grid.neighbor(self.rank, d),
                    direction_tag(d),
                )
                for d in DIRECTIONS
            ]
        if mode == "packed":
            total = sum(spec.halo_bytes(d) for d in DIRECTIONS)
            self.sendbuf = ctx.gpu.malloc(total)
            self.recvbuf = ctx.gpu.malloc(total)

    # ------------------------------------------------------------------ layout
    def _build_layout(self) -> None:
        """Group the 26 halo sections into per-destination-rank segments.

        Within the segment sent to a peer, sections are ordered by the send
        direction; within the segment received from a peer, by the *negated*
        receive direction — so both sides of every pair agree on the order of
        sections even when several directions map to the same peer (small
        periodic rank grids).
        """
        size = self.comm.Get_size()
        spec = self.spec
        send_dirs_to: dict[int, list[tuple[int, int, int]]] = {}
        recv_dirs_from: dict[int, list[tuple[int, int, int]]] = {}
        for direction, peer in self.grid.neighbors(self.rank):
            send_dirs_to.setdefault(peer, []).append(direction)
            recv_dirs_from.setdefault(peer, []).append(direction)
        for peer in send_dirs_to:
            send_dirs_to[peer].sort()
            recv_dirs_from[peer].sort(key=negate)

        self.sendcounts = [0] * size
        self.senddispls = [0] * size
        self.recvcounts = [0] * size
        self.recvdispls = [0] * size
        self.send_positions: dict[tuple[int, int, int], int] = {}
        self.recv_positions: dict[tuple[int, int, int], int] = {}

        cursor = 0
        for peer in range(size):
            self.senddispls[peer] = cursor
            for direction in send_dirs_to.get(peer, []):
                self.send_positions[direction] = cursor
                nbytes = spec.halo_bytes(direction)
                self.sendcounts[peer] += nbytes
                cursor += nbytes
        cursor = 0
        for peer in range(size):
            self.recvdispls[peer] = cursor
            for direction in recv_dirs_from.get(peer, []):
                self.recv_positions[direction] = cursor
                nbytes = spec.halo_bytes(direction)
                self.recvcounts[peer] += nbytes
                cursor += nbytes

    def _build_neighbor_layout(self) -> None:
        """Section lists for the datatype-carrying neighbour collective.

        Each of the 26 sections is one subarray datatype of the local
        allocation (count 1, displacement 0); the ordering convention that
        keeps both endpoints of a pair in agreement lives in
        :func:`repro.apps.halo.neighbor_sections`.
        """
        send_order, recv_order = neighbor_sections(self.grid, self.rank)
        self.neighbor_peers = [peer for _, peer in send_order]
        self.neighbor_sendtypes = [self.send_types[d] for d, _ in send_order]
        self.neighbor_recvtypes = [self.recv_types[d] for d, _ in recv_order]

    # ------------------------------------------------------------------- data
    def fill_interior(self, value: int | None = None) -> int:
        """Fill the rank's interior points with a rank-dependent byte value."""
        value = (self.rank + 1) % 251 if value is None else value
        # The interior region is every point not in a ghost shell; a subarray
        # covering the full interior locates its bytes.
        spec = self.spec
        from repro.mpi.constructors import Type_create_subarray
        from repro.mpi.datatype import BYTE, ORDER_C

        ax, ay, az = spec.alloc_dims
        elem = spec.point_bytes
        interior = Type_create_subarray(
            sizes=(az, ay, ax * elem),
            subsizes=(spec.nz, spec.ny, spec.nx * elem),
            starts=(spec.radius, spec.radius, spec.radius * elem),
            order=ORDER_C,
            oldtype=BYTE,
        )
        offsets, lengths = typemap.offsets_and_lengths(interior)
        data = self.local.data
        for offset, length in zip(offsets, lengths):
            data[int(offset) : int(offset) + int(length)] = value
        return value

    def ghost_values(self, direction: tuple[int, int, int]) -> np.ndarray:
        """The bytes currently in the ghost slab of ``direction``."""
        offsets, lengths = typemap.offsets_and_lengths(self.recv_types[direction])
        data = self.local.data
        chunks = [data[int(o) : int(o) + int(l)] for o, l in zip(offsets, lengths)]
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint8)

    def expected_ghost_value(self, direction: tuple[int, int, int]) -> int:
        """The fill value of the rank whose interior feeds this ghost slab."""
        return (self.grid.neighbor(self.rank, direction) + 1) % 251

    def verify_ghosts(self) -> None:
        """Assert every ghost slab holds its neighbour's fill value."""
        for direction in DIRECTIONS:
            values = self.ghost_values(direction)
            expected = self.expected_ghost_value(direction)
            if not np.all(values == expected):
                raise AssertionError(
                    f"rank {self.rank}: ghost {direction} expected {expected}, "
                    f"got values {np.unique(values)}"
                )

    # --------------------------------------------------------------- exchange
    def exchange(self) -> HaloTiming:
        """One halo exchange; returns this rank's per-phase virtual times.

        In ``"neighbor"`` and ``"overlap"`` modes packing happens inside the
        communication calls, so the whole exchange is reported as
        communication time.
        """
        if self.mode == "neighbor":
            return self._exchange_neighbor()
        if self.mode == "overlap":
            return self._exchange_overlap()
        comm = self.comm
        clock = self.ctx.clock

        comm.Barrier()
        start = clock.now
        for direction in DIRECTIONS:
            comm.Pack(
                (self.local, 1, self.send_types[direction]),
                self.sendbuf,
                self.send_positions[direction],
            )
        comm.Barrier()
        pack_end = clock.now

        comm.Alltoallv(
            self.sendbuf,
            self.sendcounts,
            self.senddispls,
            self.recvbuf,
            self.recvcounts,
            self.recvdispls,
        )
        comm.Barrier()
        comm_end = clock.now

        for direction in DIRECTIONS:
            comm.Unpack(
                self.recvbuf,
                self.recv_positions[direction],
                (self.local, 1, self.recv_types[direction]),
            )
        comm.Barrier()
        unpack_end = clock.now

        return HaloTiming(
            pack_s=pack_end - start,
            comm_s=comm_end - pack_end,
            unpack_s=unpack_end - comm_end,
        )

    def _exchange_neighbor(self) -> HaloTiming:
        """One exchange: start the bound neighbour collective and wait on it."""
        comm = self.comm
        clock = self.ctx.clock

        comm.Barrier()
        start = clock.now
        self._neighbor_request.Start()
        self._neighbor_request.Wait()
        comm.Barrier()
        return HaloTiming(pack_s=0.0, comm_s=clock.now - start, unpack_s=0.0)

    def _exchange_overlap(self) -> HaloTiming:
        """One exchange: start the 26 bound receives and the 26 bound sends
        (each start is one ``Irecv``/``Isend``), then ``Waitall``."""
        comm = self.comm
        clock = self.ctx.clock

        comm.Barrier()
        start = clock.now
        comm.Startall(self._overlap_recvs)
        comm.Startall(self._overlap_sends)
        Request.Waitall(self._overlap_recvs)
        Request.Waitall(self._overlap_sends)
        comm.Barrier()
        return HaloTiming(pack_s=0.0, comm_s=clock.now - start, unpack_s=0.0)

    def run(self, iterations: int = 1, *, verify: bool = False) -> list[HaloTiming]:
        """Run several exchanges (optionally verifying ghost contents each time)."""
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if verify:
            self.fill_interior()
        timings = []
        for _ in range(iterations):
            timings.append(self.exchange())
            if verify:
                self.verify_ghosts()
        return timings

"""The single-threaded halo pricing driver, :class:`HaloDriver`.

The simulator's host cost lives in its control plane: charging a typed
collective's start (a :class:`~repro.tempi.plan.MessagePlan` compile the
first time, a replay of its selections after that) and pricing each wire
message through the shared :class:`~repro.machine.nic.NicTimeline`.
:class:`HaloDriver` drives exactly that path, with no rank threads: every
rank binds one ``Neighbor_alltoallv_init`` halo exchange and starts it once
per round, each post is reserved on the shared NIC and the arrivals are
ingested at their destinations.  Its ``scalar`` and ``batched`` booking
modes price bit-identically (:meth:`HaloDriver.digest`), with
``plan_cache`` on and off (``tests/property/test_property_batchbooking.py``).

The end-to-end benchmark's ``halo_pricing`` and ``fabric_pricing``
workloads (``benchmarks/e2e/workloads.py``) time the batched mode, flat and
on :data:`FABRIC_SPEC`; ``tests/perf/test_call_budget.py`` counts the calls
of one warm round of each mode at 256 and 1024 ranks on both.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.machine.nic import IngestRecord
from repro.machine.topology import TopologySpec
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import charge_batch, interpose
from repro.tempi.perf_model import PerformanceModel

__all__ = ["HALO_DEGREE", "CACHED_CONFIG", "FABRIC_SPEC", "HaloDriver"]

#: 2-D stencil halo: each rank exchanges with 4 neighbours per round.
HALO_DEGREE = 4

#: The default config: every restart replays its bound plan template.
CACHED_CONFIG = TempiConfig()

#: The hierarchical leg: per-rank NVLink islands, one shared NIC rail per
#: node and 8-node leaves behind a 4x oversubscribed spine, so every post
#: resolves a path and cross-leaf reservations bind the shared uplink
#: ledgers.
FABRIC_SPEC = TopologySpec(
    ranks_per_node=2, island_size=1, rails_per_node=1,
    leaf_radix=8, oversubscription=4.0,
)

# The halo payload: 8 strided 32 B blocks per neighbour (a small 2-D face).
_BLOCKS, _BLOCK_BYTES, _STRIDE = 8, 32, 64

#: Booking modes :class:`HaloDriver` accepts.
_BOOKING_MODES = ("scalar", "batched")


def _neighbors(rank: int, size: int, degree: int) -> list[int]:
    """The ``degree`` nearest ring neighbours of ``rank`` (the halo stencil)."""
    offsets = range(-(degree // 2), degree // 2 + 1)
    return sorted({(rank + d) % size for d in offsets if d} - {rank})


class HaloDriver:
    """One halo-exchange workload, steppable round by round.

    Builds a ``nranks``-rank world where every rank binds one typed
    ``Neighbor_alltoallv_init`` against its :data:`HALO_DEGREE` ring
    neighbours at construction; every round charges each rank's start,
    reserves each post on the shared NIC and ingests the arrivals per
    destination.  The neighbour list is *compact* — only those neighbours,
    with buffers holding only those slots — so the per-round charge and the
    buffer footprint stay O(degree): at 8192 ranks a dense ``Alltoallv``
    layout would need tens of gigabytes of simulated device memory.

    ``booking`` selects how a round is charged and its wire slots priced:

    ``"scalar"``
        one :meth:`~repro.tempi.interposer.PersistentCollective.charge` per
        rank, one :meth:`~repro.machine.nic.NicTimeline.reserve` call per
        post and one :meth:`~repro.machine.nic.NicTimeline.ingest` call per
        destination — the per-message control plane;
    ``"batched"``
        one :func:`~repro.tempi.interposer.charge_batch` over every rank,
        then the whole round in one
        :meth:`~repro.machine.nic.NicTimeline.reserve_batch` call and one
        :meth:`~repro.machine.nic.NicTimeline.ingest_batch_vec` call; a
        hierarchical topology adds its frozen
        :class:`~repro.machine.topology.RouteTable` (rail and uplink-bundle
        cursors deepen the kernel's level schedule, nothing else changes).

    Both modes charge every rank's start every round — the first compiles,
    later ones replay the bound template (or recompile, with ``plan_cache``
    off); the clock charges *are* the workload — and price bit-identically:
    :meth:`digest` over a scalar and a batched driver of the same shape must
    agree exactly, which the batch-booking property tests pin.
    """

    def __init__(
        self,
        nranks: int,
        config: TempiConfig,
        model: PerformanceModel,
        *,
        topology: Optional[TopologySpec] = None,
        booking: str = "scalar",
    ) -> None:
        if booking not in _BOOKING_MODES:
            raise ValueError(f"unknown booking mode {booking!r}; expected one of {_BOOKING_MODES}")
        self.nranks = nranks
        self.degree = HALO_DEGREE
        self.booking = booking
        self.world = World(nranks, ranks_per_node=2, topology=topology)
        self.topo = self.world.topology if self.world.topology.hierarchical else None
        self.nic = self.world.nic
        self._setup: list[tuple] = []
        neighbor_rows: list[list[int]] = []
        for ctx in self.world.contexts:
            comm = interpose(ctx, config, model=model)
            datatype = comm.Type_commit(Type_vector(_BLOCKS, _BLOCK_BYTES, _STRIDE, BYTE))
            peers = _neighbors(ctx.rank, nranks, self.degree)
            counts = (1,) * len(peers)
            displs = tuple(slot * datatype.extent for slot in range(len(peers)))
            span = (len(peers) - 1) * datatype.extent + datatype.ub
            request = comm.Neighbor_alltoallv_init(
                peers, ctx.gpu.malloc(span), counts, displs, ctx.gpu.malloc(span), counts, displs,
                sendtypes=datatype, recvtypes=datatype,
            )
            self._setup.append((ctx, comm, request, {}))
            neighbor_rows.append(peers)
        self._requests = [request for _, _, request, _ in self._setup]
        if booking == "batched":
            self._init_batched(neighbor_rows)
        # Per-message wire times and payload size, learned from the first
        # round's plans (_message_time is a pure model query, so when it is
        # asked does not affect any clock).
        self._wire_mat: Optional[np.ndarray] = None
        self._nbytes: Optional[int] = None

    # ------------------------------------------------------------- batched prep
    def _init_batched(self, neighbor_rows: list[list[int]]) -> None:
        """Precompute the round-invariant arrays of the batched booking leg."""
        n, k = self.nranks, self.degree
        if any(len(row) != k for row in neighbor_rows):
            raise ValueError(
                f"batched booking needs a rectangular halo: every rank must have "
                f"{k} neighbours (nranks={n} is too small for degree={k})"
            )
        self._sources = np.arange(n, dtype=np.int64)
        self._dest_mat = np.asarray(neighbor_rows, dtype=np.int64)
        # Freeze the round-invariant arrays: the NIC's frozen-shape fast
        # lane only engages for read-only inputs (whose contents provably
        # cannot drift between rounds).
        self._sources.flags.writeable = False
        self._dest_mat.flags.writeable = False
        # Destinations in first-appearance order of the row-major post scan —
        # the same order the scalar leg's per-destination dict accumulates
        # them in, so the global ingest stall folds run identically.
        buckets: dict[int, list[tuple[int, int]]] = {}
        for i, row in enumerate(neighbor_rows):
            for j, peer in enumerate(row):
                buckets.setdefault(peer, []).append((i, j))
        if any(len(hits) != k for hits in buckets.values()):
            raise ValueError("batched booking needs a symmetric halo (k records per rank)")
        order = list(buckets)
        self._ingest_dests = np.asarray(order, dtype=np.int64)
        self._ingest_dests.flags.writeable = False
        self._gather_rows = np.asarray(
            [[i for i, _ in buckets[d]] for d in order], dtype=np.int64
        )
        self._gather_cols = np.asarray(
            [[j for _, j in buckets[d]] for d in order], dtype=np.int64
        )
        # The exchange's routes, resolved once: which rail and uplink
        # bundles each post binds, and the rail each landing serialises on.
        self._routes = None
        self._ingest_rails = None
        if self.topo is not None:
            self._routes = self.topo.route_table(
                self._sources, neighbor_rows, device_buffers=True
            )
            rails = self._routes.ingest_rail[self._gather_rows, self._gather_cols]
            rails.flags.writeable = False
            self._ingest_rails = (rails, self._routes.ingest_rail_keys)

    # ------------------------------------------------------------------ rounds
    def round(self) -> int:
        """Run one exchange round; returns the number of messages posted."""
        if self.booking == "batched":
            return self._round_batched()
        return self._round_scalar()

    def _round_scalar(self) -> int:
        """Charge, reserve and ingest one round through the scalar calls."""
        posted = 0
        topo = self.topo
        nic = self.nic
        inbound: dict[int, list[IngestRecord]] = {}
        for ctx, _, request, wires in self._setup:
            plan = request.charge()
            now = ctx.clock.now
            rank = ctx.rank
            for post in plan.post_stages:
                wire_s = wires.get(post.peer)
                if wire_s is None:
                    wires[post.peer] = wire_s = ctx.comm._message_time(post.nbytes, post.peer, True)
                path = None
                rail = None
                if topo is not None:
                    path = topo.resolve(rank, post.peer, device_buffers=True)
                    rail = path.ingest_rail
                reservation = nic.reserve(rank, post.peer, now, wire_s, post.nbytes,
                                          path=path)
                inbound.setdefault(post.peer, []).append(
                    IngestRecord(reservation.start, rank, reservation.seq,
                                 wire_s, reservation.arrival, rail)
                )
                posted += 1
        for dest, records in inbound.items():
            nic.ingest(dest, records)
        return posted

    def _learn_round_shape(self, rank: int, plan, comm) -> None:
        """Fill the wire matrix row of ``rank`` from its first charged plan.

        ``comm`` is the rank's system communicator, which prices each wire.
        """
        assert self._wire_mat is not None
        row = self._dest_mat[rank]
        posts = plan.post_stages
        if len(posts) != len(row):
            raise RuntimeError(
                f"rank {rank}: plan posts {len(posts)} messages, halo expects {len(row)}"
            )
        for j, post in enumerate(posts):
            if post.peer != int(row[j]):
                raise RuntimeError(
                    f"rank {rank}: post {j} targets {post.peer}, halo expects {int(row[j])}"
                )
            if self._nbytes is None:
                self._nbytes = post.nbytes
            elif post.nbytes != self._nbytes:
                raise RuntimeError("batched booking needs a homogeneous halo payload")
            self._wire_mat[rank, j] = comm._message_time(post.nbytes, post.peer, True)

    def _round_batched(self) -> int:
        """Charge every rank, then book the whole round in batch kernels."""
        n, k = self.nranks, self.degree
        if self._wire_mat is None:
            # The first round compiles: charge rank by rank (as charge_batch
            # would) and learn the wire shape from the plans.
            self._wire_mat = np.empty((n, k), dtype=np.float64)
            for i, (ctx, _, request, _) in enumerate(self._setup):
                self._learn_round_shape(i, request.charge(), ctx.comm)
            self._wire_mat.flags.writeable = False
            nows = np.array([ctx.clock.now for ctx in self.world.contexts])
        else:
            nows = charge_batch(self._requests)
        batch = self.nic.reserve_batch(
            self._sources, self._dest_mat, nows[:, None], self._wire_mat,
            self._nbytes, ingest=True, paths=self._routes,
        )
        # Landings travel as struct-of-arrays: row q holds the k messages
        # converging on destination q, gathered out of the batch's fields.
        rows, cols = self._gather_rows, self._gather_cols
        self.nic.ingest_batch_vec(
            self._ingest_dests,
            batch.start[rows, cols],
            rows,
            batch.seq[rows, cols],
            self._wire_mat[rows, cols],
            batch.arrival[rows, cols],
            rails=self._ingest_rails,
        )
        return n * k

    # --------------------------------------------------------------- reporting
    def digest(self) -> tuple:
        """The full priced state: NIC fingerprint, clocks and charge counts.

        Two drivers of the same shape that ran the same number of rounds
        must produce equal digests whatever their ``booking`` mode — the
        bit-identity contract of the batch kernels.
        """
        return (
            self.nic.state_fingerprint(),
            tuple(ctx.clock.now for ctx in self.world.contexts),
            tuple(ctx.clock.events for ctx in self.world.contexts),
        )

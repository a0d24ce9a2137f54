"""Simulated-throughput harness for the event-driven fast path.

The simulator's wall-clock cost lives in its control plane: charging a
typed collective's start (a :class:`~repro.tempi.plan.MessagePlan` compile
the first time, a replay of its selections after that) and pricing each
wire message through the shared :class:`~repro.machine.nic.NicTimeline`.
This module drives exactly that path — every rank binds one
``Neighbor_alltoallv_init`` halo exchange and starts it once per round,
each post is reserved on the shared NIC and the arrivals are ingested at
their destinations — and reports **simulated messages per wall-clock
second** across three legs:

``eager``
    plan cache and selection memo off: every start recompiles, the
    pre-fast-path behaviour;
``cached``
    both caches on, one ``charge()`` per rank, scalar per-message booking;
``batched``
    caches on, the round charged by one
    :func:`~repro.tempi.interposer.charge_batch` and booked through the
    vectorized kernels (:meth:`~repro.machine.nic.NicTimeline.reserve_batch`
    and :meth:`~repro.machine.nic.NicTimeline.ingest_batch_vec`) — numpy
    passes per round instead of Python calls per rank and per message.

All legs price identically — a restart replays the selection transcript
through the live selector, ``charge_batch`` and the batch kernels perform
the scalar arithmetic operation-for-operation, so every clock charge and
cursor matches the eager path bit for bit (pinned by
``tests/property/test_property_fastpath.py`` and the batch-booking
property tests, which compare :meth:`HaloDriver.digest` across legs).
The harness also reports the NIC's peak resident ledger footprint
(``peak_pending`` records plus the fixed struct-array ring), the
compact-ledger half of the fast path.

``benchmarks/bench_sim_throughput.py`` wraps this into the CLI benchmark
that writes ``BENCH_sim.json``; ``python -m repro.cli bench sim-throughput``
is the console entry point.
"""

from __future__ import annotations

import cProfile
import gc
import io
import pstats
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.machine.nic import IngestRecord
from repro.machine.spec import SUMMIT
from repro.machine.topology import TopologySpec
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import charge_batch, interpose
from repro.tempi.measurement import measure_system
from repro.tempi.perf_model import PerformanceModel

__all__ = [
    "HALO_DEGREE",
    "SMOKE_RANKS",
    "FULL_RANKS",
    "EAGER_MAX_RANKS",
    "EAGER_CONFIG",
    "CACHED_CONFIG",
    "FABRIC_SPEC",
    "ThroughputResult",
    "HaloDriver",
    "drive",
    "profile_drive",
    "default_model",
    "run_sweep",
    "check_sweep",
    "compare_baseline",
    "render_table",
]

#: 2-D stencil halo: each rank exchanges with 4 neighbours per round.
HALO_DEGREE = 4
#: Rank sweep for the CI smoke run.
SMOKE_RANKS = (256, 512, 1024)
#: Rank sweep for the full run.
FULL_RANKS = (256, 512, 1024, 2048, 4096, 8192)
#: Largest rank count the eager (recompile-every-round) leg still runs at;
#: above it a single eager round costs minutes of wall-clock for a number
#: the smaller points already establish, so the sweep records ``None``.
EAGER_MAX_RANKS = 2048

#: The pre-fast-path control plane: recompile and reselect every round.
EAGER_CONFIG = TempiConfig(plan_cache=False, selection_memo=False)
#: The fast path: plan-template cache plus retained selection memo.
CACHED_CONFIG = TempiConfig()

#: The hierarchical sweep leg (``--topology fabric``): per-rank NVLink
#: islands, one shared NIC rail per node and 8-node leaves behind a 4x
#: oversubscribed spine, so every post resolves a path and cross-leaf
#: reservations bind the shared uplink ledgers.
FABRIC_SPEC = TopologySpec(
    ranks_per_node=2, island_size=1, rails_per_node=1,
    leaf_radix=8, oversubscription=4.0,
)

# The halo payload: 8 strided 32 B blocks per neighbour (a small 2-D face).
_BLOCKS, _BLOCK_BYTES, _STRIDE = 8, 32, 64

#: Booking modes :class:`HaloDriver` accepts.
_BOOKING_MODES = ("scalar", "batched")


@dataclass(frozen=True)
class ThroughputResult:
    """One (rank count, config) measurement."""

    nranks: int
    iters: int
    messages: int
    wall_s: float
    messages_per_s: float
    peak_pending: int
    ledger_len: int
    ledger_nbytes: int
    plan_cache_hits: int
    plan_cache_misses: int
    selection_memo_hits: int
    selection_memo_misses: int


def _neighbors(rank: int, size: int, degree: int) -> list[int]:
    """The ``degree`` nearest ring neighbours of ``rank`` (the halo stencil)."""
    offsets = range(-(degree // 2), degree // 2 + 1)
    return sorted({(rank + d) % size for d in offsets if d} - {rank})


class HaloDriver:
    """One halo-exchange workload, steppable round by round.

    Builds a ``nranks``-rank world where every rank binds one typed
    ``Neighbor_alltoallv_init`` against its ``degree`` ring neighbours at
    construction; every round charges each rank's start, reserves each post
    on the shared NIC and ingests the arrivals per destination.  The
    neighbour list is *compact* — only the ``degree`` neighbours, with
    buffers holding only those slots — so the per-round charge and the
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
        degree: int = HALO_DEGREE,
        topology: Optional[TopologySpec] = None,
        booking: str = "scalar",
    ) -> None:
        if booking not in _BOOKING_MODES:
            raise ValueError(f"unknown booking mode {booking!r}; expected one of {_BOOKING_MODES}")
        self.nranks = nranks
        self.degree = degree
        self.booking = booking
        self.world = World(nranks, ranks_per_node=2, topology=topology)
        self.topo = self.world.topology if self.world.topology.hierarchical else None
        self.nic = self.world.nic
        self._setup: list[tuple] = []
        neighbor_rows: list[list[int]] = []
        for ctx in self.world.contexts:
            comm = interpose(ctx, config, model=model)
            datatype = comm.Type_commit(Type_vector(_BLOCKS, _BLOCK_BYTES, _STRIDE, BYTE))
            peers = _neighbors(ctx.rank, nranks, degree)
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
        # round's plans (message_time is a pure model query, so when it is
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
        for ctx, comm, request, wires in self._setup:
            plan = request.charge()
            now = ctx.clock.now
            rank = ctx.rank
            for post in plan.post_stages:
                wire_s = wires.get(post.peer)
                if wire_s is None:
                    wires[post.peer] = wire_s = comm.progress_engine.message_time(post.nbytes, post.peer, True)
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
        """Fill the wire matrix row of ``rank`` from its first charged plan."""
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
            self._wire_mat[rank, j] = comm.progress_engine.message_time(post.nbytes, post.peer, True)

    def _round_batched(self) -> int:
        """Charge every rank, then book the whole round in batch kernels."""
        n, k = self.nranks, self.degree
        if self._wire_mat is None:
            # The first round compiles: charge rank by rank (as charge_batch
            # would) and learn the wire shape from the plans.
            self._wire_mat = np.empty((n, k), dtype=np.float64)
            for i, (_, comm, request, _) in enumerate(self._setup):
                self._learn_round_shape(i, request.charge(), comm)
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

    def result(self, *, iters: int, messages: int, wall_s: float,
               best_round_s: float) -> ThroughputResult:
        """Fold one timed run's counters into a :class:`ThroughputResult`."""
        per_round = messages // iters if iters else 0
        stats = [entry[1].stats for entry in self._setup]
        return ThroughputResult(
            nranks=self.nranks,
            iters=iters,
            messages=messages,
            wall_s=wall_s,
            messages_per_s=per_round / best_round_s if best_round_s > 0 else float("inf"),
            peak_pending=self.nic.peak_pending,
            ledger_len=self.nic.ledger_len(),
            ledger_nbytes=self.nic.ledger_nbytes(),
            plan_cache_hits=sum(s.plan_cache_hits for s in stats),
            plan_cache_misses=sum(s.plan_cache_misses for s in stats),
            selection_memo_hits=sum(s.selection_memo_hits for s in stats),
            selection_memo_misses=sum(s.selection_memo_misses for s in stats),
        )


def drive(
    nranks: int,
    config: TempiConfig,
    model: PerformanceModel,
    *,
    iters: int,
    degree: int = HALO_DEGREE,
    topology: Optional[TopologySpec] = None,
    booking: str = "scalar",
) -> ThroughputResult:
    """Time ``iters`` halo-exchange rounds of the control plane.

    Every rank starts its bound neighbour exchange against its ``degree``
    ring neighbours, reserves each post on the shared NIC and the arrivals
    are ingested per destination — single-threaded, so the wall clock
    measures the simulator, not the thread scheduler.  One untimed warm-up
    round compiles every rank's plan and populates the caches so
    the timed region sees the steady state of each configuration.
    ``messages_per_s`` comes from the *best* round (min timing, robust to GC
    and scheduler noise); ``wall_s`` is the whole timed region.

    A hierarchical ``topology`` spec adds the path-resolution leg: every
    reservation carries its resolved :class:`~repro.machine.topology.PathSpec`
    (rail cursors, shared uplink ledgers) and every ingestion record its
    receive-side rail — the extra per-message work ``--topology`` measures.
    ``booking="batched"`` prices each round through the NIC's vectorized
    batch kernels instead of the per-message calls (see :class:`HaloDriver`).
    """
    driver = HaloDriver(nranks, config, model, degree=degree,
                        topology=topology, booking=booking)
    driver.round()  # warm-up: populate caches and pools, untimed
    gc.collect()
    # Collector pauses would land on arbitrary rounds (a large-rank round
    # allocates hundreds of thousands of transient records), so the timed
    # region runs with the cyclic collector off, as pyperf does.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        messages = 0
        best_round_s = float("inf")
        begin = perf_counter()
        for _ in range(iters):
            start = perf_counter()
            posted = driver.round()
            best_round_s = min(best_round_s, perf_counter() - start)
            messages += posted
        wall_s = perf_counter() - begin
    finally:
        if gc_was_enabled:
            gc.enable()
    return driver.result(iters=iters, messages=messages, wall_s=wall_s,
                         best_round_s=best_round_s)


def profile_drive(
    nranks: int,
    config: TempiConfig,
    model: PerformanceModel,
    *,
    iters: int,
    degree: int = HALO_DEGREE,
    topology: Optional[TopologySpec] = None,
    booking: str = "scalar",
    top: int = 20,
) -> str:
    """Profile ``iters`` rounds of the booking loop; return the hotspot table.

    Runs the same steady-state region :func:`drive` times (one untimed
    warm-up round first, so starts are restarts and pools are primed)
    under :mod:`cProfile` and renders the ``top`` functions by cumulative
    time — the ``--profile`` flag of ``bench_sim_throughput.py``.
    """
    driver = HaloDriver(nranks, config, model, degree=degree,
                        topology=topology, booking=booking)
    driver.round()  # warm-up stays outside the profile
    gc.collect()
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(iters):
        driver.round()
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    return stream.getvalue()


def _eager_iters(nranks: int) -> int:
    """Eager rounds per rank count — few; the eager path is slow but steady."""
    return max(2, 1536 // nranks)


def _cached_iters(nranks: int) -> int:
    """Cached rounds per rank count — more, for timing resolution.

    The floor matters at the large end of the sweep: ``messages_per_s``
    reports the *best* round, and under a noisy host (VM neighbours,
    frequency shifts) the minimum of too few samples wanders by 10-15%,
    which is larger than the effects the ``batched``/``cached`` legs are
    compared to resolve.  Eleven rounds keeps the large-rank legs honest
    at a few seconds of wall clock each.
    """
    return max(11, 10240 // nranks)


def default_model() -> PerformanceModel:
    """The reference-machine model every sweep leg prices against."""
    return PerformanceModel(measure_system(SUMMIT))


def run_sweep(
    rank_counts: Sequence[int] = SMOKE_RANKS,
    model: Optional[PerformanceModel] = None,
    *,
    degree: int = HALO_DEGREE,
    topology: Optional[TopologySpec] = None,
) -> dict[int, dict]:
    """Measure eager vs cached vs batched throughput at every rank count.

    Returns ``{nranks: {"eager": {...}|None, "cached": {...},
    "batched": {...}, "speedup": x|None, "batched_vs_cached": y}}`` with the
    per-mode :class:`ThroughputResult` fields flattened to plain dicts
    (JSON-ready for ``BENCH_sim.json``).  Above :data:`EAGER_MAX_RANKS` the
    eager leg is skipped (``None`` entries) — one recompile-every-round
    sweep point there costs minutes for a number the smaller points already
    establish.  ``topology`` runs the same sweep with a hierarchical world
    (path resolution and ledger binding per message), the ``--topology``
    leg of the CLI benchmark.
    """
    if model is None:
        model = default_model()
    results: dict[int, dict] = {}
    for nranks in rank_counts:
        eager = None
        if nranks <= EAGER_MAX_RANKS:
            eager = drive(nranks, EAGER_CONFIG, model, iters=_eager_iters(nranks),
                          degree=degree, topology=topology)
        cached = drive(nranks, CACHED_CONFIG, model, iters=_cached_iters(nranks),
                       degree=degree, topology=topology)
        batched = drive(nranks, CACHED_CONFIG, model, iters=_cached_iters(nranks),
                        degree=degree, topology=topology, booking="batched")
        results[nranks] = {
            "eager": asdict(eager) if eager is not None else None,
            "cached": asdict(cached),
            "batched": asdict(batched),
            "speedup": (cached.messages_per_s / eager.messages_per_s
                        if eager is not None else None),
            "batched_vs_cached": batched.messages_per_s / cached.messages_per_s,
        }
    return results


def check_sweep(results: Mapping[int, Mapping]) -> None:
    """Sanity-assert one sweep: caches help, hit, stay bounded — and scale."""
    for nranks, entry in results.items():
        eager, cached, batched = entry["eager"], entry["cached"], entry["batched"]
        speedup = entry["speedup"]
        if eager is not None:
            assert speedup > 1.0, (
                f"{nranks} ranks: cached path slower than eager ({speedup:.2f}x)"
            )
            assert eager["plan_cache_hits"] == 0, f"{nranks} ranks: eager mode hit a plan cache"
        assert cached["plan_cache_hits"] > 0, f"{nranks} ranks: plan cache never hit"
        assert batched["plan_cache_hits"] > 0, f"{nranks} ranks: batched leg missed the plan cache"
        # One level sweep books every batch, flat or routed: it must beat
        # per-message cached pricing at every rank count, on both legs.
        assert entry["batched_vs_cached"] > 1.0, (
            f"{nranks} ranks: batched booking slower than per-message pricing "
            f"({entry['batched_vs_cached']:.2f}x)"
        )
        # The compact ledger is the whole variable-size NIC footprint: the
        # ring is fixed-capacity and the advisory pending books are bounded.
        nic_defaults = 4096
        assert cached["ledger_len"] <= nic_defaults, f"{nranks} ranks: ledger unbounded"
        assert cached["peak_pending"] > 0, f"{nranks} ranks: no pending records tracked"
        assert batched["peak_pending"] > 0, f"{nranks} ranks: batched leg tracked no pending"
    smallest = min(results)
    # Compilation cost grows with the rank count while the cached path stays
    # near-flat, so the win shrinks on tiny worlds: hold the hard floor only
    # at halo scale (the >=10x acceptance target lives in the full bench run).
    if results[smallest]["speedup"] is not None:
        # Measured ~5.3x at 256 ranks on the reference host; the floor sits
        # a noise band (~15% on shared VMs) below that, not at the measured
        # value itself.
        floor = 4.0 if smallest >= 256 else 1.5
        assert results[smallest]["speedup"] >= floor, (
            f"{smallest} ranks: fast-path speedup {results[smallest]['speedup']:.1f}x "
            f"under the {floor:.1f}x floor"
        )
    # The batch kernels exist to hold throughput flat as the world grows:
    # per-message cost must not creep back in with the rank count.
    if 256 in results and 1024 in results:
        base = results[256]["batched"]["messages_per_s"]
        scaled = results[1024]["batched"]["messages_per_s"]
        assert scaled >= 0.8 * base, (
            f"batched throughput does not scale: {scaled:,.0f} msg/s at 1024 ranks "
            f"under 0.8x the {base:,.0f} msg/s at 256"
        )


def compare_baseline(
    results: Mapping[int, Mapping],
    baseline: Mapping,
    *,
    tolerance: float = 0.2,
) -> list[str]:
    """Regression-gate a fresh sweep against a committed ``BENCH_sim.json``.

    Compares the dimensionless cached/eager and batched/cached *speedup
    ratios* (stable across machines, unlike absolute msg/s) and the ledger
    bounds; a fresh ratio more than ``tolerance`` below the committed one is
    a failure.
    """
    failures: list[str] = []
    committed = baseline.get("results", {})
    for nranks, entry in results.items():
        ref = committed.get(str(nranks)) or committed.get(nranks)
        if ref is None:
            continue
        if entry["speedup"] is not None and ref.get("speedup") is not None:
            floor = (1.0 - tolerance) * float(ref["speedup"])
            if entry["speedup"] < floor:
                failures.append(
                    f"{nranks} ranks: speedup {entry['speedup']:.2f}x regressed below "
                    f"{floor:.2f}x (committed {ref['speedup']:.2f}x - {tolerance:.0%})"
                )
        if entry.get("batched_vs_cached") is not None and ref.get("batched_vs_cached") is not None:
            floor = (1.0 - tolerance) * float(ref["batched_vs_cached"])
            if entry["batched_vs_cached"] < floor:
                failures.append(
                    f"{nranks} ranks: batched/cached ratio {entry['batched_vs_cached']:.2f}x "
                    f"regressed below {floor:.2f}x (committed "
                    f"{ref['batched_vs_cached']:.2f}x - {tolerance:.0%})"
                )
        if entry["cached"]["ledger_nbytes"] > int(ref["cached"]["ledger_nbytes"]) * 2:
            failures.append(
                f"{nranks} ranks: ledger footprint {entry['cached']['ledger_nbytes']} B "
                f"over 2x the committed {ref['cached']['ledger_nbytes']} B"
            )
    return failures


def render_table(results: Mapping[int, Mapping]) -> str:
    """Format one sweep for the console."""
    lines = [
        f"{'ranks':>6} {'eager msg/s':>12} {'cached msg/s':>13} {'batched msg/s':>14} "
        f"{'speedup':>8} {'batch x':>8} {'peak pend':>10} {'ledger KiB':>11}"
    ]
    for nranks in sorted(results):
        entry = results[nranks]
        cached = entry["cached"]
        batched = entry["batched"]
        eager_s = (f"{entry['eager']['messages_per_s']:>12,.0f}"
                   if entry["eager"] is not None else f"{'-':>12}")
        speedup_s = (f"{entry['speedup']:>7.1f}x"
                     if entry["speedup"] is not None else f"{'-':>8}")
        lines.append(
            f"{nranks:>6} {eager_s} "
            f"{cached['messages_per_s']:>13,.0f} {batched['messages_per_s']:>14,.0f} "
            f"{speedup_s} {entry['batched_vs_cached']:>7.1f}x "
            f"{cached['peak_pending']:>10,} "
            f"{cached['ledger_nbytes'] / 1024:>11,.1f}"
        )
    return "\n".join(lines)

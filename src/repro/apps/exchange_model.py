"""Analytic twins: the runtime's schedules at paper scale, on the runtime's objects.

The functional apps (:mod:`repro.apps.stencil`, :mod:`~repro.apps.moe`,
:mod:`~repro.apps.pipeline`) move real bytes on one thread per rank and stop
at tens of ranks; Fig. 12 runs 256³ points per rank on 512 nodes × 6 GPUs.
Each ``model_*`` function here is the **schedule** of one of those workloads
— who launches, posts and lands what, in which order — written out for rank
counts no ``World`` can hold, and *nothing else*: every price and every
serialisation rule under the schedule is the runtime's own object, so a twin
cannot drift from the simulator (``docs/ARCHITECTURE.md`` § "Scalar message
path" lists each rule's one home).

* the host is a :class:`~repro.gpu.clock.VirtualClock` and every per-peer
  kernel chain a :class:`~repro.gpu.stream.Stream` on it (the stream rule);
* every wire message is a :meth:`NicTimeline.reserve
  <repro.machine.nic.NicTimeline.reserve>` and every receive-side commit a
  :meth:`~repro.machine.nic.NicTimeline.ingest` (port, link, rail, uplink and
  ingest-mirror rules) — :func:`_book` is the one burst walker;
* every wire time is :meth:`Topology.message_time
  <repro.machine.topology.Topology.message_time>` on a placed topology, flat
  unless the caller brings a hierarchical one (the wire rule);
* allreduce rounds come from :func:`repro.tempi.plan.allreduce_schedule` over
  :meth:`Topology.islands <repro.machine.topology.Topology.islands>`, the
  lists the plan compiler executes.

The schedules: :func:`model_halo_exchange` (the paper's pack / all-to-all-v
/ unpack phases, baseline or TEMPI) and :func:`model_fused_exchange` (one
kernel per section, phases still adding up); :func:`model_contended_exchange`
(``plans`` overlapped plan-executor pipelines sharing one rank's NIC —
:func:`model_overlap_exchange` is ``plans=1``, :func:`overlap_efficiency` the
Fig. 15 curve); :func:`model_duplex_exchange` (an N→1 incast on the hot
receiver's ingestion port, :func:`incast_efficiency`);
:func:`model_fabric_exchange` (a cross-leaf burst through one oversubscribed
uplink bundle, :func:`uplink_efficiency`); :func:`model_allreduce`,
:func:`model_moe_exchange` and :func:`model_pipeline_chain` (the ML-training
workloads).  Each validates its arguments first, in declaration order, and
raises a :class:`ValueError` naming the offender before anything is priced.

Ranks of a periodic decomposition are statistically identical, so the halo
twins evaluate one representative rank per node position and report the
maximum — what the paper's "maximum time across all ranks" reduces to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.halo import DIRECTIONS, HaloSpec, RankGrid
from repro.gpu.clock import VirtualClock
from repro.gpu.stream import Stream
from repro.machine.nic import IngestRecord, NicTimeline
from repro.machine.spec import SUMMIT, MachineSpec
from repro.machine.topology import Topology, TopologySpec
from repro.tempi.config import ALLREDUCE_ALGORITHMS, HANDLER_LOOKUP_S, POINTER_CHECK_S
from repro.tempi.plan import allreduce_schedule


@dataclass(frozen=True)
class ExchangeBreakdown:
    """Modelled per-phase seconds of one halo exchange (max across ranks)."""

    nodes: int
    ranks_per_node: int
    nranks: int
    pack_s: float
    comm_s: float
    unpack_s: float

    @property
    def total_s(self) -> float:
        return self.pack_s + self.comm_s + self.unpack_s


def _pack_phase_time(
    spec: HaloSpec,
    machine: MachineSpec,
    *,
    tempi: bool,
    unpack: bool,
) -> float:
    """Time one rank spends packing (or unpacking) its 26 halos."""
    gpu = machine.node.gpu
    total = 0.0
    for direction in DIRECTIONS:
        nbytes = spec.halo_bytes(direction)
        block = spec.halo_block_length(direction)
        if tempi:
            total += gpu.kernel_time(nbytes, block, target="device", unpack=unpack)
            total += HANDLER_LOOKUP_S + POINTER_CHECK_S
        else:
            blocks = spec.halo_block_count(direction)
            total += blocks * gpu.memcpy_call_s + nbytes / gpu.d2d_bandwidth
    return total


def _comm_phase_time(spec: HaloSpec, grid: RankGrid, topology: Topology) -> float:
    """Time the slowest rank spends in the all-to-all-v, booked on the NIC.

    Every rank exchanges the same 26 sections; what differs is how many of its
    neighbours share its node, so one node's worth of ranks is examined.  Each
    posts one message per wire peer, in peer order and all ready when the
    phase starts, on a fresh :class:`~repro.machine.nic.NicTimeline`
    (:func:`_book`, duplex): the phase lasts until the rank's last landing.
    """
    worst = 0.0
    for rank in range(min(grid.nranks, topology.ranks_per_node)):
        flows = []
        for peer, directions in _send_groups(grid, rank).items():
            nbytes = sum(spec.halo_bytes(d) for d in directions)
            wire = topology.message_time(rank, peer, nbytes, device_buffers=True)
            flows.append((rank, peer, 0.0, wire, nbytes, None))
        booked = _book(NicTimeline(ledger_limit=0), flows, nic="duplex")
        worst = max([worst] + [landing for _, landing in booked])
    return worst


def _halo_world(
    nodes: int, ranks_per_node: int, spec: HaloSpec | None, machine: MachineSpec
) -> tuple[HaloSpec, RankGrid, Topology]:
    """What every halo twin prices on: the geometry (the paper's by default),
    the periodic rank grid and the flat block placement of its ranks."""
    if nodes <= 0 or ranks_per_node <= 0:
        raise ValueError("nodes and ranks_per_node must be positive")
    nranks = nodes * ranks_per_node
    return (
        spec if spec is not None else HaloSpec.paper(),
        RankGrid.for_ranks(nranks),
        Topology(nranks, ranks_per_node=ranks_per_node, machine=machine),
    )


def model_halo_exchange(
    nodes: int,
    ranks_per_node: int,
    *,
    spec: HaloSpec | None = None,
    machine: MachineSpec = SUMMIT,
    tempi: bool = True,
) -> ExchangeBreakdown:
    """Model one halo exchange at ``nodes × ranks_per_node`` scale.

    ``tempi=False`` prices the pack/unpack phases with the Spectrum-like
    baseline (one memcpy per contiguous block); ``tempi=True`` prices them
    with TEMPI's kernels.  The communication phase is identical in both cases,
    which is why the paper's speedup shrinks as communication grows with the
    rank count.  That phase books every peer's message on a
    :class:`~repro.machine.nic.NicTimeline` once the packs are done, as
    TEMPI's serial engine books it; the system library's ``Alltoallv``, which
    the functional Fig. 12 row runs, still prices the discounted sum of
    :meth:`~repro.machine.network.NetworkModel.alltoallv_time`.
    """
    spec, grid, topology = _halo_world(nodes, ranks_per_node, spec, machine)
    return ExchangeBreakdown(
        nodes=nodes,
        ranks_per_node=ranks_per_node,
        nranks=grid.nranks,
        pack_s=_pack_phase_time(spec, machine, tempi=tempi, unpack=False),
        comm_s=_comm_phase_time(spec, grid, topology),
        unpack_s=_pack_phase_time(spec, machine, tempi=tempi, unpack=True),
    )


# --------------------------------------------------------------------------- #
# Fused collective and overlapped pipeline (the plan-executor engines)
# --------------------------------------------------------------------------- #

def _send_groups(grid: RankGrid, rank: int) -> dict[int, list[tuple[int, int, int]]]:
    """Wire-peer groups of one rank's 26 directions, in ascending peer order.

    Matches the section order :func:`repro.apps.halo.neighbor_sections`
    produces (and therefore the post-stage order the plan executor runs).
    Self-directed sections are excluded — they bounce through staging without
    touching the wire.
    """
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for direction, peer in grid.neighbors(rank):
        if peer != rank:
            groups.setdefault(peer, []).append(direction)
    return {peer: sorted(groups[peer]) for peer in sorted(groups)}


def _kernel_sum(spec: HaloSpec, machine: MachineSpec, directions, *, unpack: bool) -> float:
    gpu = machine.node.gpu
    return sum(
        gpu.kernel_time(
            spec.halo_bytes(d), spec.halo_block_length(d), target="device", unpack=unpack
        )
        for d in directions
    )


def model_fused_exchange(
    nodes: int,
    ranks_per_node: int,
    *,
    spec: HaloSpec | None = None,
    machine: MachineSpec = SUMMIT,
) -> ExchangeBreakdown:
    """Price the fused datatype-carrying collective under the serial engine.

    One pack kernel per section straight out of the user buffer (no
    ``MPI_Pack`` loop, handler overhead charged once per collective), then
    every peer's message booked on a :class:`~repro.machine.nic.NicTimeline`
    as the serial engine books it, all ready when the last pack is, then one
    unpack kernel per section — packs, wire and unpacks still add up, which
    is exactly what the overlapped pipeline removes.
    """
    spec, grid, topology = _halo_world(nodes, ranks_per_node, spec, machine)
    return ExchangeBreakdown(
        nodes=nodes,
        ranks_per_node=ranks_per_node,
        nranks=grid.nranks,
        pack_s=_kernel_sum(spec, machine, DIRECTIONS, unpack=False)
        + (HANDLER_LOOKUP_S + POINTER_CHECK_S),
        comm_s=_comm_phase_time(spec, grid, topology),
        unpack_s=_kernel_sum(spec, machine, DIRECTIONS, unpack=True),
    )


def model_overlap_exchange(
    nodes: int,
    ranks_per_node: int,
    *,
    spec: HaloSpec | None = None,
    machine: MachineSpec = SUMMIT,
) -> ExchangeBreakdown:
    """Price the overlapped plan-executor pipeline at paper scale.

    Per-peer pack kernels run concurrently on their own streams; each peer's
    message enters the NIC when its pack completes (transfers serialising at
    ``wire_overlap`` occupancy); by symmetry the incoming message from a peer
    arrives when the outgoing one would, and its unpack is issued at arrival
    on its own stream.  The exchange therefore costs the makespan of the slowest
    pack → wire → unpack chain, not the sum of phases.

    The reported phases partition that makespan: ``pack_s`` is the time until
    the last pack kernel completes (launches serialise on the host, kernels
    run concurrently on per-peer streams, plus the off-wire self-exchange),
    ``comm_s`` the additional time until the last arrival, ``unpack_s`` the
    tail (unpack launches and the final per-stream synchronisations).

    A single plan never revisits a NIC cursor, so this is exactly
    :func:`model_contended_exchange` at ``plans=1``.
    """
    return model_contended_exchange(nodes, ranks_per_node, plans=1, spec=spec, machine=machine)


def model_contended_exchange(
    nodes: int,
    ranks_per_node: int,
    *,
    plans: int = 1,
    spec: HaloSpec | None = None,
    machine: MachineSpec = SUMMIT,
    shared_nic: bool = True,
    nic: str = "duplex",
) -> ExchangeBreakdown:
    """Price ``plans`` concurrent overlapped exchanges sharing one rank's NIC.

    The executor's schedule at paper scale, walked on the runtime's objects:
    the host is a :class:`~repro.gpu.clock.VirtualClock`; every peer's pack
    (and later unpack) kernels are enqueued, one launch each, on a fresh
    :class:`~repro.gpu.stream.Stream`; every message of every plan is
    reserved, when its pack stream drains, on **one**
    :class:`~repro.machine.nic.NicTimeline` — so repeat visits to the
    injection port and to a peer's link serialise by the timeline's own
    rules.  ``shared_nic=False`` gives each plan a private timeline instead —
    the ``progress="per_plan"`` accounting, which prices concurrent plans as
    if the NIC were infinitely wide.

    With ``plans=1`` the schedule reduces to :func:`model_overlap_exchange`'s
    exactly.  As ``plans`` grows the shared port saturates, so the **overlap
    efficiency** — the per-plan (uncontended) makespan over the shared
    (contended) one — degrades monotonically from 1.0 toward the injection
    bound; ``bench_fig15_contention.py`` measures the same ratio functionally.

    ``nic="duplex"`` (the default, matching the runtime) additionally commits
    the mirror arrivals to the rank's ingestion port
    (:meth:`NicTimeline.ingest <repro.machine.nic.NicTimeline.ingest>`)
    before the unpacks start.  For this *balanced* exchange the mirror
    arrivals are, by symmetry, the rank's own outgoing arrivals — already
    spaced by at least the injection-port occupancy of their predecessors —
    so the commit delays nothing: a balanced all-to-all has no receive-side
    skew to price, and duplex accounting leaves Fig. 15 untouched (a property
    the test suite pins through the real ``ingest``).  The skewed case where
    the receive side *does* bite is :func:`model_duplex_exchange`.
    ``nic="inject_only"`` skips the commit outright.

    The returned breakdown covers the whole ``plans``-wide burst: ``pack_s``
    until the last pack is wire-ready, ``comm_s`` until the last arrival,
    ``unpack_s`` the receive tail.
    """
    spec, grid, topology = _halo_world(nodes, ranks_per_node, spec, machine)
    if plans <= 0:
        raise ValueError(f"plans must be positive, got {plans}")
    if nic not in ("duplex", "inject_only"):
        raise ValueError(f"nic must be 'duplex' or 'inject_only', got {nic!r}")
    gpu = machine.node.gpu
    launch_s = gpu.kernel_launch_s
    sync_s = gpu.kernel_sync_s

    def kernel_device_s(direction, *, unpack: bool) -> float:
        return (
            gpu.kernel_time(
                spec.halo_bytes(direction),
                spec.halo_block_length(direction),
                target="device",
                unpack=unpack,
                include_sync=False,
            )
            - launch_s
        )

    worst = (0.0, 0.0, 0.0)
    for rank in range(min(grid.nranks, ranks_per_node)):
        groups = _send_groups(grid, rank)
        local_dirs = [d for d, peer in grid.neighbors(rank) if peer == rank]
        host = VirtualClock()
        timeline = NicTimeline(ledger_limit=0)
        posted = []  # (directions, peer, reservation), in post order
        last_pack = 0.0
        for _ in range(plans):
            if not shared_nic:
                timeline = NicTimeline(ledger_limit=0)
            host.advance(HANDLER_LOOKUP_S + POINTER_CHECK_S)  # once per plan
            for peer, directions in groups.items():
                stream = Stream(host)
                for direction in directions:
                    stream.enqueue(kernel_device_s(direction, unpack=False), host_overhead=launch_s)
                ready = stream.ready_time
                nbytes = sum(spec.halo_bytes(d) for d in directions)
                wire = topology.message_time(rank, peer, nbytes, device_buffers=True)
                posted.append((directions, peer, timeline.reserve(rank, peer, ready, wire, nbytes)))
                last_pack = max(last_pack, ready)
            # Each plan's off-wire self-exchange runs synchronously.
            for unpack in (False, True):
                for direction in local_dirs:
                    host.advance(launch_s + kernel_device_s(direction, unpack=unpack) + sync_s)
        last_pack = max(last_pack, host.now)
        arrivals = [reservation.arrival for _, _, reservation in posted]
        if shared_nic and nic == "duplex":
            arrivals = timeline.ingest(
                rank,
                [IngestRecord(r.start, rank, r.seq, r.wire_s, r.arrival) for _, _, r in posted],
            )
        finishes = []
        last_arrival = host.now
        for (directions, _, _), arrival in zip(posted, arrivals):
            host.advance_to(arrival)
            last_arrival = max(last_arrival, arrival)
            stream = Stream(host)
            for direction in directions:
                stream.enqueue(kernel_device_s(direction, unpack=True), host_overhead=launch_s)
            finishes.append(stream.ready_time)
        makespan = max([host.now] + finishes) + sync_s * len(finishes)
        if makespan > sum(worst):
            pack_s = last_pack
            comm_s = max(0.0, last_arrival - last_pack)
            worst = (pack_s, comm_s, makespan - pack_s - comm_s)

    return ExchangeBreakdown(
        nodes=nodes,
        ranks_per_node=ranks_per_node,
        nranks=grid.nranks,
        pack_s=worst[0],
        comm_s=worst[1],
        unpack_s=worst[2],
    )


def _book(timeline: NicTimeline, flows, *, nic: str) -> list[tuple[float, float]]:
    """Book one burst on ``timeline``; ``(arrival, landing)`` per flow, in order.

    Every ``(source, dest, ready, wire_s, nbytes, path)`` flow is reserved in
    the order given; then, under ``nic="duplex"``, each destination's
    arrivals are committed with one :meth:`NicTimeline.ingest`, destinations
    ascending — the order the receiving ranks' programs would commit them.
    ``nic="inject_only"`` leaves every landing at its sender-computed arrival.
    """
    arrivals: list[float] = []
    inbound: dict[int, list[tuple[int, IngestRecord]]] = {}
    for index, (source, dest, ready, wire_s, nbytes, path) in enumerate(flows):
        booked = timeline.reserve(source, dest, ready, wire_s, nbytes, path=path)
        arrivals.append(booked.arrival)
        rail = path.ingest_rail if path is not None else None
        inbound.setdefault(dest, []).append(
            (index, IngestRecord(booked.start, source, booked.seq, wire_s, booked.arrival, rail))
        )
    landings = list(arrivals)
    if nic == "duplex":
        for dest in sorted(inbound):
            indices, records = zip(*inbound[dest])
            for index, landing in zip(indices, timeline.ingest(dest, records)):
                landings[index] = landing
    return list(zip(arrivals, landings))


@dataclass(frozen=True)
class IncastBreakdown:
    """Modelled timeline of an N-senders→1-receiver incast burst."""

    senders: int
    nbytes: int
    #: Virtual time each sender's pack completes (all senders identical).
    pack_s: float
    #: First landing at the receiver (never delayed: the port was idle).
    first_landing_s: float
    #: Last landing at the receiver — the burst's completion.
    completion_s: float
    #: Total receive-side queueing across the burst (zero under the
    #: ``inject_only`` ablation, by construction).
    ingest_stalled_s: float


def model_duplex_exchange(
    senders: int,
    nbytes: int,
    *,
    block_length: int = 512,
    machine: MachineSpec = SUMMIT,
    nic: str = "duplex",
) -> IncastBreakdown:
    """Price an N-senders→1-receiver incast on the duplex NIC rules.

    The skew the balanced-exchange models cannot exhibit: every sender (one
    per node) packs one ``nbytes`` message (device kernels, ``block_length``
    runs) and injects it on its **own, idle** port, so all N wire transfers
    start together and their last bytes would land at the hot receiver at the
    same instant.  Under ``nic="duplex"`` the landings serialise on the
    receiver's ingestion port (:func:`_book` commits them through the real
    :meth:`NicTimeline.ingest <repro.machine.nic.NicTimeline.ingest>`):
    completion grows by one port occupancy (``wire_overlap`` of a wire) per
    extra sender.  Under the ``nic="inject_only"`` ablation every landing
    stays at its sender-computed arrival and completion is flat in N —
    exactly what ``bench_incast.py`` measures functionally.
    """
    if senders <= 0:
        raise ValueError(f"senders must be positive, got {senders}")
    if nbytes <= 0:
        raise ValueError(f"nbytes must be positive, got {nbytes}")
    if block_length <= 0:
        raise ValueError(f"block_length must be positive, got {block_length}")
    if nic not in ("duplex", "inject_only"):
        raise ValueError(f"nic must be 'duplex' or 'inject_only', got {nic!r}")
    topology = Topology(senders + 1, machine=machine)  # receiver 0, one rank per node
    pack = machine.node.gpu.kernel_time(
        nbytes, min(block_length, nbytes), target="device", unpack=False
    )
    booked = _book(
        NicTimeline(ledger_limit=0),
        [
            (source, 0, pack, topology.message_time(source, 0, nbytes, device_buffers=True),
             nbytes, None)
            for source in range(1, senders + 1)
        ],
        nic=nic,
    )
    return IncastBreakdown(
        senders=senders,
        nbytes=nbytes,
        pack_s=pack,
        first_landing_s=min(landing for _, landing in booked),
        completion_s=max(landing for _, landing in booked),
        ingest_stalled_s=sum(landing - arrival for arrival, landing in booked),
    )


def incast_efficiency(
    senders: int,
    nbytes: int,
    *,
    block_length: int = 512,
    machine: MachineSpec = SUMMIT,
) -> float:
    """How much of the advertised arrival schedule survives the hot receiver.

    The ratio of the incast's completion priced send-side only
    (``nic="inject_only"``: every landing at its sender-computed arrival) to
    the same burst priced on the duplex rules (landings serialised on the
    receiver's ingestion port).  1.0 for a single sender by construction;
    decreases monotonically toward the ingestion bound as senders pile on —
    the receive-side counterpart of :func:`overlap_efficiency`.
    """
    inject_only = model_duplex_exchange(
        senders, nbytes, block_length=block_length, machine=machine, nic="inject_only"
    )
    duplex = model_duplex_exchange(
        senders, nbytes, block_length=block_length, machine=machine, nic="duplex"
    )
    return inject_only.completion_s / duplex.completion_s


@dataclass(frozen=True)
class FabricBreakdown:
    """Modelled timeline of a cross-leaf burst on the fat-tree fabric."""

    flows: int
    nbytes: int
    #: Wire seconds of one cross-leaf message on the resolved spine path.
    wire_s: float
    #: Virtual time each flow's pack completes (all flows identical).
    pack_s: float
    #: Last landing of the burst — its completion.
    completion_s: float
    #: Reservations the shared uplink bundles lifted (zero under the
    #: ``fabric="independent"`` ablation, by construction).
    fabric_stalls: int
    #: Total seconds those reservations waited on the fabric cursors.
    fabric_stalled_s: float


def model_fabric_exchange(
    flows: int,
    nbytes: int,
    *,
    spec: TopologySpec,
    block_length: int = 512,
    machine: MachineSpec = SUMMIT,
    fabric: str = "shared",
) -> FabricBreakdown:
    """Price ``flows`` simultaneous cross-leaf sends through one leaf's uplink.

    The *structural* incast no endpoint queue can explain: one sender per
    node on leaf 0 fires one ``nbytes`` message at its counterpart node on
    leaf 1, so every flow owns its injection port, its NIC rail and its
    destination — and the only shared resource is the source leaf's uplink
    bundle (and the destination leaf's down bundle), whose bandwidth the
    spec's ``oversubscription`` divides.  :func:`_book` reserves every flow
    with its resolved :class:`~repro.machine.topology.PathSpec` bound on one
    timeline; ``fabric="independent"`` books each flow on a private timeline
    instead (the same resolved wire, no shared cursors) — completion flat in
    ``flows``, the full-bisection fiction.  ``bench_topology.py`` measures
    the same burst functionally.
    """
    if flows <= 0:
        raise ValueError(f"flows must be positive, got {flows}")
    if nbytes <= 0:
        raise ValueError(f"nbytes must be positive, got {nbytes}")
    if spec.leaf_radix <= 0:
        raise ValueError("spec must define a fat-tree (leaf_radix > 0) to have uplinks")
    if flows > spec.leaf_radix:
        raise ValueError(
            f"flows={flows} exceeds the {spec.leaf_radix} nodes under one leaf "
            "(one flow per source node keeps ports and rails private)"
        )
    if block_length <= 0:
        raise ValueError(f"block_length must be positive, got {block_length}")
    if fabric not in ("shared", "independent"):
        raise ValueError(f"fabric must be 'shared' or 'independent', got {fabric!r}")
    topology = Topology(2 * spec.leaf_radix * spec.ranks_per_node, machine=machine, spec=spec)
    pack = machine.node.gpu.kernel_time(
        nbytes, min(block_length, nbytes), target="device", unpack=False
    )
    burst = []
    for flow in range(flows):
        src = flow * spec.ranks_per_node
        dst = (spec.leaf_radix + flow) * spec.ranks_per_node
        wire = topology.message_time(src, dst, nbytes, device_buffers=True)
        burst.append((src, dst, pack, wire, nbytes, topology.resolve(src, dst, device_buffers=True)))
    timeline = NicTimeline(ledger_limit=0)
    if fabric == "shared":
        booked = _book(timeline, burst, nic="duplex")
    else:
        booked = [_book(NicTimeline(ledger_limit=0), [flow], nic="duplex")[0] for flow in burst]
    return FabricBreakdown(
        flows=flows,
        nbytes=nbytes,
        wire_s=burst[-1][3],
        pack_s=pack,
        completion_s=max(landing for _, landing in booked),
        fabric_stalls=timeline.fabric_stalls,
        fabric_stalled_s=timeline.fabric_stalled_s,
    )


def uplink_efficiency(
    flows: int,
    nbytes: int,
    *,
    spec: TopologySpec,
    block_length: int = 512,
    machine: MachineSpec = SUMMIT,
) -> float:
    """How much of the full-bisection schedule survives the shared uplink.

    The ratio of the cross-leaf burst's completion priced per-flow
    (``fabric="independent"``: every landing at its privately-computed
    arrival) to the same burst priced on the shared uplink bundles.  1.0 for
    a single flow by construction; decreases monotonically as flows pile
    onto the bundle or as the spec's ``oversubscription`` shrinks it — the
    fabric counterpart of :func:`incast_efficiency`, with the bottleneck in
    the switch rather than at either endpoint.
    """
    independent = model_fabric_exchange(
        flows, nbytes, spec=spec, block_length=block_length, machine=machine,
        fabric="independent",
    )
    shared = model_fabric_exchange(
        flows, nbytes, spec=spec, block_length=block_length, machine=machine,
        fabric="shared",
    )
    return independent.completion_s / shared.completion_s


def overlap_efficiency(
    nodes: int,
    ranks_per_node: int,
    *,
    plans: int = 1,
    spec: HaloSpec | None = None,
    machine: MachineSpec = SUMMIT,
) -> float:
    """How much of the advertised overlap win survives NIC contention.

    The ratio of the ``plans``-wide burst's **time to last arrival**
    (``pack_s + comm_s``) priced per-plan (an infinitely wide NIC) to the
    same quantity priced on the shared injection port.
    Arrival time is the quantity the NIC governs — the receive-side unpack
    tail is identical under both accountings and would wash the contention
    out of the ratio at large ``plans``.  1.0 at ``plans=1`` by
    construction; decreases monotonically toward the injection bound as the
    port saturates — the Fig. 15 degradation curve.
    """
    uncontended = model_contended_exchange(
        nodes, ranks_per_node, plans=plans, spec=spec, machine=machine, shared_nic=False
    )
    contended = model_contended_exchange(
        nodes, ranks_per_node, plans=plans, spec=spec, machine=machine, shared_nic=True
    )
    return (uncontended.pack_s + uncontended.comm_s) / (contended.pack_s + contended.comm_s)


# --------------------------------------------------------------------------- #
# ML-training workloads (allreduce / MoE dispatch / pipeline chain)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class AllreduceBreakdown:
    """Modelled timeline of one allreduce schedule (max across ranks)."""

    nranks: int
    nbytes: int
    algorithm: str
    #: Rounds of the schedule (the critical path's length in hops).
    rounds: int
    #: Total element-wise combine seconds charged at the slowest rank.
    reduce_s: float
    #: The slowest rank's clock when its vector is fully reduced.
    completion_s: float


def model_allreduce(
    nranks: int,
    count: int,
    element_size: int = 4,
    *,
    algorithm: str = "ring",
    machine: MachineSpec = SUMMIT,
    topology: Topology | None = None,
    ranks_per_node: int = 2,
) -> AllreduceBreakdown:
    """Price one allreduce schedule by walking the *same* round lists the
    plan compiler executes (:func:`repro.tempi.plan.allreduce_schedule` over
    :meth:`Topology.islands <repro.machine.topology.Topology.islands>`), so
    the twin can never disagree with the simulated path about who sends what
    when.

    Every round's posts are priced from the sender's current clock, every
    receive lands at post + wire (:meth:`Topology.message_time
    <repro.machine.topology.Topology.message_time>` on the caller's
    ``topology``, or on a flat ``ranks_per_node`` placement when none is
    given), and every combining receive charges the unpack-priced reduction
    kernel — the exact charge schedule
    :meth:`~repro.tempi.executor.PlanExecutor` applies, minus the per-call
    interposition overheads.  The lockstep round walk makes it analytic: no
    buffers move, rank counts are free.
    """
    if nranks <= 0:
        raise ValueError(f"nranks must be positive, got {nranks}")
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if element_size <= 0:
        raise ValueError(f"element_size must be positive, got {element_size}")
    if algorithm not in ALLREDUCE_ALGORITHMS[1:]:  # "auto" is a policy, not a schedule
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
    if topology is not None and topology.nranks != nranks:
        raise ValueError(f"topology places {topology.nranks} ranks, nranks is {nranks}")
    if ranks_per_node <= 0:
        raise ValueError(f"ranks_per_node must be positive, got {ranks_per_node}")
    if topology is None:
        topology = Topology(nranks, ranks_per_node, machine)
    gpu = machine.node.gpu
    islands = topology.islands()
    by_round: dict[int, list[tuple[int, object]]] = {}
    for rank in range(nranks):
        for stage in allreduce_schedule(
            algorithm, rank, nranks, count, element_size, "sum", islands
        ):
            by_round.setdefault(stage.round, []).append((rank, stage))
    clocks = [0.0] * nranks
    reduce_charged = [0.0] * nranks
    for round_index in sorted(by_round):
        arrivals: dict[tuple[int, int], float] = {}
        for rank, stage in by_round[round_index]:
            if stage.dest >= 0:
                arrivals[(rank, stage.dest)] = clocks[rank] + topology.message_time(
                    rank, stage.dest, stage.send_nbytes, device_buffers=True
                )
        for rank, stage in by_round[round_index]:
            if stage.source < 0:
                continue
            landing = arrivals[(stage.source, rank)]
            clocks[rank] = max(clocks[rank], landing)
            if stage.combine and stage.recv_nbytes:
                charge = gpu.kernel_time(
                    stage.recv_nbytes, stage.recv_nbytes, target="device", unpack=True
                )
                clocks[rank] += charge
                reduce_charged[rank] += charge
    rounds = (max(by_round) + 1) if by_round else 0
    return AllreduceBreakdown(
        nranks=nranks,
        nbytes=count * element_size,
        algorithm=algorithm,
        rounds=rounds,
        reduce_s=max(reduce_charged),
        completion_s=max(clocks),
    )


def allreduce_hierarchy_speedup(
    nranks: int,
    count: int,
    element_size: int = 4,
    *,
    machine: MachineSpec = SUMMIT,
    topology: Topology | None = None,
    ranks_per_node: int = 2,
) -> float:
    """Completion ratio ring / hierarchical on one topology — > 1 whenever
    concentrating cross-island hops on leaders beats the flat ring's
    ``2(N-1)`` chunk trips over oversubscribed uplinks (the quantity
    ``bench_allreduce.py`` measures functionally)."""
    ring = model_allreduce(
        nranks, count, element_size, algorithm="ring",
        machine=machine, topology=topology, ranks_per_node=ranks_per_node,
    )
    hierarchical = model_allreduce(
        nranks, count, element_size, algorithm="hierarchical",
        machine=machine, topology=topology, ranks_per_node=ranks_per_node,
    )
    return ring.completion_s / hierarchical.completion_s


@dataclass(frozen=True)
class MoEBreakdown:
    """Modelled timeline of one skewed MoE dispatch round."""

    nranks: int
    hot_expert: int
    #: Tokens landing at the hot expert vs the busiest cold expert.
    hot_tokens: int
    cold_tokens: int
    #: Last landing of the round — its completion.
    completion_s: float
    #: Receive-side queueing seconds at the hot expert's ingestion port.
    hot_ingest_stalled_s: float
    #: The worst cold expert's queueing seconds (the uniform background).
    cold_ingest_stalled_s: float


def model_moe_exchange(
    counts,
    token_bytes: int,
    *,
    hot_expert: int = 0,
    machine: MachineSpec = SUMMIT,
    nic: str = "duplex",
) -> MoEBreakdown:
    """Price one MoE dispatch round on the duplex NIC rules.

    ``counts`` is the :func:`repro.apps.moe.moe_counts` routing matrix; each
    off-diagonal ``(sender, expert)`` cell with tokens becomes one packed
    message (one pack kernel, ``token_bytes/2`` runs — the pitched-row
    datatype's block) between two of ``nranks`` one-rank nodes, reserved on
    the sender's injection port and ingested at the expert — one
    :func:`_book` burst on one real :class:`~repro.machine.nic.NicTimeline`.
    The skew signature is ``hot_ingest_stalled_s`` pulling away from the
    worst cold expert's as the hot expert's share grows — the analytic
    companion of ``bench_moe.py``'s functional ``hot_excess_stalls``.
    """
    matrix = [list(row) for row in counts]
    nranks = len(matrix)
    if nranks == 0 or any(len(row) != nranks for row in matrix):
        raise ValueError("counts must be a non-empty square matrix")
    for i, row in enumerate(matrix):
        for j, tokens in enumerate(row):
            if not tokens >= 0 or tokens % 1:  # NaN fails the first, inf the second
                raise ValueError(
                    f"counts[{i}][{j}] must be a non-negative whole number, got {tokens!r}"
                )
            row[j] = int(tokens)
    if token_bytes <= 0 or token_bytes % 2:
        raise ValueError(f"token_bytes must be positive and even, got {token_bytes}")
    if not 0 <= hot_expert < nranks:
        raise ValueError(f"hot_expert must be in [0, {nranks}), got {hot_expert}")
    if nic not in ("duplex", "inject_only"):
        raise ValueError(f"nic must be 'duplex' or 'inject_only', got {nic!r}")
    topology = Topology(nranks, machine=machine)  # one expert per node
    gpu = machine.node.gpu
    burst = []
    for sender in range(nranks):
        for expert in range(nranks):
            nbytes = matrix[sender][expert] * token_bytes
            if sender == expert or nbytes == 0:
                continue
            pack = gpu.kernel_time(nbytes, token_bytes // 2, target="device", unpack=False)
            wire = topology.message_time(sender, expert, nbytes, device_buffers=True)
            burst.append((sender, expert, pack, wire, nbytes, None))
    booked = _book(NicTimeline(ledger_limit=0), burst, nic=nic)
    stalled = [0.0] * nranks
    for (_, expert, *_), (arrival, landing) in zip(burst, booked):
        stalled[expert] += landing - arrival
    received = [
        sum(matrix[sender][expert] for sender in range(nranks) if sender != expert)
        for expert in range(nranks)
    ]
    cold = [index for index in range(nranks) if index != hot_expert]
    return MoEBreakdown(
        nranks=nranks,
        hot_expert=hot_expert,
        hot_tokens=received[hot_expert],
        cold_tokens=max((received[index] for index in cold), default=0),
        completion_s=max((landing for _, landing in booked), default=0.0),
        hot_ingest_stalled_s=stalled[hot_expert],
        cold_ingest_stalled_s=max((stalled[index] for index in cold), default=0.0),
    )


@dataclass(frozen=True)
class PipelineBreakdown:
    """Modelled timeline of one pipeline-parallel forward pass."""

    nranks: int
    microbatches: int
    #: Wire seconds of one activation hop.
    hop_wire_s: float
    #: Pack seconds of one activation (the pitched-row kernel).
    pack_s: float
    #: When the first microbatch reaches the last stage (the fill ramp).
    fill_s: float
    #: When the last microbatch reaches the last stage — the pass's completion.
    completion_s: float


def model_pipeline_chain(
    nranks: int,
    microbatches: int,
    activation_bytes: int,
    *,
    machine: MachineSpec = SUMMIT,
    ranks_per_node: int = 2,
    topology: Topology | None = None,
) -> PipelineBreakdown:
    """Price a forward activation relay through an ``nranks`` chain.

    The reference ``tests/apps/test_workloads.py`` orders
    :func:`repro.apps.pipeline.run_pipeline` against.  Stage ``r`` hands
    microbatch ``m`` to the wire once it holds the payload *and* has finished
    packing microbatch ``m-1``, each hop pays one pack kernel plus the wire
    (:meth:`Topology.message_time
    <repro.machine.topology.Topology.message_time>`, flat ``ranks_per_node``
    placement unless a ``topology`` is given), and each delivery pays the
    scatter-side unpack.  Completion is the last stage's receipt of the last
    microbatch: the classic ``fill + (M-1) * interval`` pipeline law.

    **Deliberately omitted** — this is a chain law, not a NIC walk: no
    injection-port, link or ingestion cursor (a stage's hand-offs serialise
    on its *pack*, never on wire occupancy, so a wire slower than the pack
    does not throttle the interval here as it does in the simulator), one
    hop in flight per stage, and no per-call interposition overhead.
    """
    if nranks <= 0:
        raise ValueError(f"nranks must be positive, got {nranks}")
    if microbatches <= 0:
        raise ValueError(f"microbatches must be positive, got {microbatches}")
    if activation_bytes <= 0 or activation_bytes % 2:
        raise ValueError(
            f"activation_bytes must be positive and even, got {activation_bytes}"
        )
    if ranks_per_node <= 0:
        raise ValueError(f"ranks_per_node must be positive, got {ranks_per_node}")
    if topology is not None and topology.nranks < nranks:
        raise ValueError(f"topology places {topology.nranks} ranks, nranks is {nranks}")
    if topology is None:
        topology = Topology(nranks, ranks_per_node, machine)
    gpu = machine.node.gpu
    half = activation_bytes // 2
    pack = gpu.kernel_time(activation_bytes, half, target="device", unpack=False)
    unpack = gpu.kernel_time(activation_bytes, half, target="device", unpack=True)
    ready = [[0.0] * microbatches for _ in range(nranks)]
    sent = [[0.0] * microbatches for _ in range(nranks)]
    first_hop_wire = 0.0
    for rank in range(nranks - 1):
        wire = topology.message_time(rank, rank + 1, activation_bytes, device_buffers=True)
        if rank == 0:
            first_hop_wire = wire
        for microbatch in range(microbatches):
            holds = ready[rank][microbatch]
            port_free = sent[rank][microbatch - 1] if microbatch else 0.0
            sent[rank][microbatch] = max(holds, port_free) + pack
            ready[rank + 1][microbatch] = max(
                sent[rank][microbatch] + wire,
                ready[rank + 1][microbatch - 1] if microbatch else 0.0,
            ) + unpack
    last = nranks - 1
    return PipelineBreakdown(
        nranks=nranks,
        microbatches=microbatches,
        hop_wire_s=first_hop_wire,
        pack_s=pack,
        fill_s=ready[last][0] if nranks > 1 else 0.0,
        completion_s=ready[last][microbatches - 1] if nranks > 1 else 0.0,
    )

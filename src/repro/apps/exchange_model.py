"""Analytic halo-exchange model for paper-scale rank counts (Fig. 12).

The functional :class:`~repro.apps.stencil.HaloExchange` moves real bytes and
is limited to tens of ranks of modest grids on one machine.  Fig. 12 runs
256³ points per rank on up to 512 nodes × 6 GPUs = 3072 ranks; this module
evaluates the *same per-rank cost expressions* the functional path charges —
baseline per-block memcpys or TEMPI kernels for pack/unpack, the network
model for the all-to-all-v — without allocating gigabytes or spawning
thousands of threads.

Three engines are priced:

* :func:`model_halo_exchange` — the paper's pack / exchange / unpack phases
  (``mode="packed"``), with baseline or TEMPI datatype handling;
* :func:`model_fused_exchange` — the fused datatype-carrying collective
  (``mode="neighbor"`` under the serial PR-1 engine): one kernel per
  destination, but packs, wire and unpacks still add up;
* :func:`model_overlap_exchange` — the overlapped plan-executor pipeline:
  per-peer packs run concurrently, each message enters the NIC when its pack
  completes, and each peer's unpack starts at its arrival, so the exchange
  costs the slowest chain instead of the sum of phases;
* :func:`model_contended_exchange` — the same pipeline with ``plans``
  concurrent exchanges sharing one rank's injection port and links (the
  :class:`~repro.machine.nic.NicTimeline` rules), with a per-plan ablation;
  :func:`overlap_efficiency` is the Fig. 15 degradation curve;
* :func:`model_duplex_exchange` — the receive-side companion: an
  N-senders→1-receiver **incast**, where every sender's port is idle and the
  whole burst converges on the hot receiver's ingestion port; the
  ``nic="inject_only"`` ablation prices the same burst the PR-3/PR-4 way
  (arrivals land whenever their senders computed) and
  :func:`incast_efficiency` is the ratio — how much of the advertised
  arrival schedule survives the receiver bottleneck;
* :func:`model_fabric_exchange` — the *fabric* companion: a hierarchical
  cross-leaf burst where every flow owns its injection port, NIC rail and
  destination, and the only shared resource is the source leaf's
  oversubscribed uplink bundle (the structural incast no endpoint queue can
  explain); the ``fabric="independent"`` ablation prices each flow on a
  private timeline and :func:`uplink_efficiency` is the degradation curve
  as the oversubscription factor (or flow count) grows.

Because every rank owns an identical sub-domain and the decomposition is
periodic, ranks are statistically identical; the model evaluates one
representative rank per node position and reports the maximum across the
distinct neighbour placements, which is what the paper's "maximum time across
all ranks" reduces to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.halo import DIRECTIONS, HaloSpec, RankGrid
from repro.machine.network import NetworkModel
from repro.machine.nic import IngestRecord, NicTimeline
from repro.machine.spec import SUMMIT, MachineSpec
from repro.machine.topology import Topology, TopologySpec
from repro.tempi.config import HANDLER_LOOKUP_S, POINTER_CHECK_S


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


def _comm_phase_time(
    spec: HaloSpec,
    grid: RankGrid,
    topology: Topology,
    network: NetworkModel,
) -> float:
    """Time the slowest rank spends in the all-to-all-v.

    Every rank exchanges the same 26 sections; what differs is how many of its
    neighbours share its node.  The model evaluates every rank's aggregate
    per-peer byte counts through the same :meth:`NetworkModel.alltoallv_time`
    the functional path charges and returns the maximum — but since ranks on
    the same node position are identical it only needs to examine one node's
    worth of ranks.
    """
    representatives = range(min(grid.nranks, topology.ranks_per_node))
    worst = 0.0
    for rank in representatives:
        per_pair = [0] * grid.nranks
        for direction, peer in grid.neighbors(rank):
            per_pair[peer] += spec.halo_bytes(direction)
        worst = max(
            worst,
            network.alltoallv_time(per_pair, topology, rank, device_buffers=True),
        )
    return worst


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
    rank count.
    """
    if nodes <= 0 or ranks_per_node <= 0:
        raise ValueError("nodes and ranks_per_node must be positive")
    spec = spec if spec is not None else HaloSpec.paper()
    nranks = nodes * ranks_per_node
    grid = RankGrid.for_ranks(nranks)
    topology = Topology(nranks, ranks_per_node=ranks_per_node, machine=machine)
    network = NetworkModel(machine)

    pack = _pack_phase_time(spec, machine, tempi=tempi, unpack=False)
    unpack = _pack_phase_time(spec, machine, tempi=tempi, unpack=True)
    comm = _comm_phase_time(spec, grid, topology, network)
    return ExchangeBreakdown(
        nodes=nodes,
        ranks_per_node=ranks_per_node,
        nranks=nranks,
        pack_s=pack,
        comm_s=comm,
        unpack_s=unpack,
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
    the analytic all-to-all-v wire, then one unpack kernel per section —
    packs, wire and unpacks still add up, which is exactly what the
    overlapped pipeline removes.
    """
    if nodes <= 0 or ranks_per_node <= 0:
        raise ValueError("nodes and ranks_per_node must be positive")
    spec = spec if spec is not None else HaloSpec.paper()
    nranks = nodes * ranks_per_node
    grid = RankGrid.for_ranks(nranks)
    topology = Topology(nranks, ranks_per_node=ranks_per_node, machine=machine)
    network = NetworkModel(machine)

    overhead = HANDLER_LOOKUP_S + POINTER_CHECK_S
    pack = _kernel_sum(spec, machine, DIRECTIONS, unpack=False) + overhead
    unpack = _kernel_sum(spec, machine, DIRECTIONS, unpack=True)
    comm = _comm_phase_time(spec, grid, topology, network)
    return ExchangeBreakdown(
        nodes=nodes,
        ranks_per_node=ranks_per_node,
        nranks=nranks,
        pack_s=pack,
        comm_s=comm,
        unpack_s=unpack,
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
    ``wire_overlap`` occupancy, the same discount the analytic all-to-all-v
    uses); by symmetry the incoming message from a peer arrives when the
    outgoing one would, and its unpack is issued at arrival on its own
    stream.  The exchange therefore costs the makespan of the slowest
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

    The contention-aware companion of :func:`model_overlap_exchange`: every
    message of every plan reserves its slot against the *same* injection-port
    cursor (occupied for ``wire_overlap`` of each message's wire time, the
    :class:`~repro.machine.nic.NicTimeline` port rule) and against a per-peer
    link cursor on which repeat messages to one peer serialise fully (the
    timeline's link rule).  ``shared_nic=False`` gives each plan a private
    port cursor instead — the PR-2 ``progress="per_plan"`` accounting, which
    prices concurrent plans as if the NIC were infinitely wide.

    With ``plans=1`` the schedule reduces to :func:`model_overlap_exchange`'s
    exactly.  As ``plans`` grows the shared port saturates, so the **overlap
    efficiency** — the per-plan (uncontended) makespan over the shared
    (contended) one — degrades monotonically from 1.0 toward the injection
    bound; ``bench_fig15_contention.py`` measures the same ratio functionally.

    ``nic="duplex"`` (the default, matching the runtime) additionally
    serialises the mirror arrivals on the rank's ingestion port before the
    unpacks start.  For this *balanced* exchange the mirror arrivals are, by
    symmetry, the rank's own outgoing arrivals — already spaced by at least
    the injection-port occupancy of their predecessors — so the ingestion
    replay is provably a no-op: a balanced all-to-all has no receive-side
    skew to price, and duplex accounting leaves Fig. 15 untouched (a
    property the test suite pins).  The skewed case where the receive side
    *does* bite is :func:`model_duplex_exchange`.  ``nic="inject_only"``
    skips the replay outright (the PR-3/PR-4 books).

    The returned breakdown covers the whole ``plans``-wide burst: ``pack_s``
    until the last pack is wire-ready, ``comm_s`` until the last arrival,
    ``unpack_s`` the receive tail.
    """
    if nodes <= 0 or ranks_per_node <= 0:
        raise ValueError("nodes and ranks_per_node must be positive")
    if plans <= 0:
        raise ValueError(f"plans must be positive, got {plans}")
    if nic not in ("duplex", "inject_only"):
        raise ValueError(f"nic must be 'duplex' or 'inject_only', got {nic!r}")
    spec = spec if spec is not None else HaloSpec.paper()
    nranks = nodes * ranks_per_node
    grid = RankGrid.for_ranks(nranks)
    topology = Topology(nranks, ranks_per_node=ranks_per_node, machine=machine)
    network = NetworkModel(machine)
    gpu = machine.node.gpu
    launch_s = gpu.kernel_launch_s
    sync_s = gpu.kernel_sync_s
    overhead = HANDLER_LOOKUP_S + POINTER_CHECK_S

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
    representatives = range(min(grid.nranks, topology.ranks_per_node))
    for rank in representatives:
        groups = _send_groups(grid, rank)
        local_dirs = [d for d, peer in grid.neighbors(rank) if peer == rank]
        host = 0.0
        # The analytic walk reserves on a real NicTimeline, so the port and
        # link rules can never drift from what the simulator charges.
        timeline = NicTimeline(ledger_limit=0)
        arrivals: list[tuple[list, float, float]] = []
        last_pack = 0.0
        for _ in range(plans):
            if not shared_nic:
                # PR-2 per-plan accounting: a fresh cursor per plan.
                timeline = NicTimeline(ledger_limit=0)
            host += overhead  # handler lookup + pointer check, once per plan
            for peer, directions in groups.items():
                ready = host
                for direction in directions:
                    host += launch_s
                    ready = max(ready, host) + kernel_device_s(direction, unpack=False)
                nbytes = sum(spec.halo_bytes(d) for d in directions)
                wire = network.message_time(
                    nbytes,
                    same_node=topology.same_node(rank, peer),
                    device_buffers=True,
                )
                reservation = timeline.reserve(rank, peer, ready, wire, nbytes)
                arrivals.append((directions, reservation, wire))
                last_pack = max(last_pack, ready)
            # Each plan's off-wire self-exchange runs synchronously.
            for direction in local_dirs:
                host += launch_s + kernel_device_s(direction, unpack=False) + sync_s
            for direction in local_dirs:
                host += launch_s + kernel_device_s(direction, unpack=True) + sync_s
        last_pack = max(last_pack, host)
        if shared_nic and nic == "duplex":
            # Serialise the mirror arrivals on the rank's ingestion port (the
            # NicTimeline mirror rule) in reservation order — the key order of
            # this single-source walk.  Balanced mirror arrivals are already
            # spaced by the injection-port rule, so this is an exact no-op
            # here; it guards the walk against ever drifting from the
            # simulator's two-sided accounting.
            ingest_free = 0.0
            adjusted = []
            for directions, reservation, wire in arrivals:
                landing = max(reservation.arrival, ingest_free + wire)
                ingest_free = max(reservation.start, ingest_free) + timeline.wire_overlap * wire
                adjusted.append((directions, landing, wire))
            arrivals = adjusted
        else:
            arrivals = [
                (directions, reservation.arrival, wire)
                for directions, reservation, wire in arrivals
            ]
        finishes = []
        last_arrival = host
        for directions, arrival, _ in arrivals:
            host = max(host, arrival)
            last_arrival = max(last_arrival, arrival)
            ready = host
            for direction in directions:
                host += launch_s
                ready = max(ready, host) + kernel_device_s(direction, unpack=True)
            finishes.append(ready)
        makespan = max([host] + finishes) + sync_s * len(finishes)
        if makespan > sum(worst):
            pack_s = last_pack
            comm_s = max(0.0, last_arrival - last_pack)
            worst = (pack_s, comm_s, makespan - pack_s - comm_s)

    return ExchangeBreakdown(
        nodes=nodes,
        ranks_per_node=ranks_per_node,
        nranks=nranks,
        pack_s=worst[0],
        comm_s=worst[1],
        unpack_s=worst[2],
    )


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

    The skew the balanced-exchange models cannot exhibit: every sender packs
    one ``nbytes`` message (device kernels, ``block_length`` runs) and
    injects it on its **own, idle** port, so all N wire transfers start
    together and their last bytes would land at the hot receiver at the same
    instant.  Under ``nic="duplex"`` the landings serialise on the receiver's
    ingestion port (the :class:`~repro.machine.nic.NicTimeline` mirror rule,
    evaluated on a real timeline so this walk can never drift from the
    simulator): completion grows by ``wire_overlap * wire`` per extra sender.
    Under the ``nic="inject_only"`` ablation every landing stays at its
    sender-computed arrival and completion is flat in N — the PR-3/PR-4
    books, which is exactly what ``bench_incast.py`` measures functionally.
    """
    if senders <= 0:
        raise ValueError(f"senders must be positive, got {senders}")
    if nbytes <= 0:
        raise ValueError(f"nbytes must be positive, got {nbytes}")
    if nic not in ("duplex", "inject_only"):
        raise ValueError(f"nic must be 'duplex' or 'inject_only', got {nic!r}")
    network = NetworkModel(machine)
    gpu = machine.node.gpu
    pack = gpu.kernel_time(nbytes, min(block_length, nbytes), target="device", unpack=False)
    wire = network.message_time(nbytes, same_node=False, device_buffers=True)
    timeline = NicTimeline(ledger_limit=0)
    reservations = [
        timeline.reserve(source, 0, pack, wire, nbytes)
        for source in range(1, senders + 1)
    ]
    arrivals = [r.arrival for r in reservations]
    if nic == "duplex":
        landings = timeline.ingest(
            0,
            [
                IngestRecord(
                    post_time=r.start,
                    source=source,
                    seq=r.seq,
                    wire_s=wire,
                    arrival=r.arrival,
                )
                for source, r in enumerate(reservations, start=1)
            ],
        )
    else:
        landings = arrivals
    return IncastBreakdown(
        senders=senders,
        nbytes=nbytes,
        pack_s=pack,
        first_landing_s=min(landings),
        completion_s=max(landings),
        ingest_stalled_s=sum(
            landing - arrival for landing, arrival in zip(landings, arrivals)
        ),
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
    spec's ``oversubscription`` divides.  Every reservation goes through a
    real :class:`~repro.machine.nic.NicTimeline` with the resolved
    :class:`~repro.machine.topology.PathSpec` bound, so this walk can never
    drift from what the simulator charges; ``fabric="independent"`` prices
    each flow on a private timeline instead (the same resolved wire, no
    shared cursors) — completion flat in ``flows``, the full-bisection
    fiction.  ``bench_topology.py`` measures the same burst functionally.
    """
    if flows <= 0:
        raise ValueError(f"flows must be positive, got {flows}")
    if nbytes <= 0:
        raise ValueError(f"nbytes must be positive, got {nbytes}")
    if fabric not in ("shared", "independent"):
        raise ValueError(f"fabric must be 'shared' or 'independent', got {fabric!r}")
    if spec.leaf_radix <= 0:
        raise ValueError("spec must define a fat-tree (leaf_radix > 0) to have uplinks")
    if flows > spec.leaf_radix:
        raise ValueError(
            f"flows={flows} exceeds the {spec.leaf_radix} nodes under one leaf "
            "(one flow per source node keeps ports and rails private)"
        )
    nranks = 2 * spec.leaf_radix * spec.ranks_per_node
    topology = Topology(nranks, machine=machine, spec=spec)
    gpu = machine.node.gpu
    pack = gpu.kernel_time(nbytes, min(block_length, nbytes), target="device", unpack=False)
    timeline = NicTimeline(ledger_limit=0)
    wire = 0.0
    landings = []
    for flow in range(flows):
        src = flow * spec.ranks_per_node
        dst = (spec.leaf_radix + flow) * spec.ranks_per_node
        path = topology.resolve(src, dst, device_buffers=True)
        wire = topology.message_time(src, dst, nbytes, device_buffers=True)
        if fabric == "independent":
            solo = NicTimeline(ledger_limit=0)
            landings.append(solo.reserve(src, dst, pack, wire, nbytes, path=path).arrival)
        else:
            landings.append(timeline.reserve(src, dst, pack, wire, nbytes, path=path).arrival)
    return FabricBreakdown(
        flows=flows,
        nbytes=nbytes,
        wire_s=wire,
        pack_s=pack,
        completion_s=max(landings),
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


def model_selected_exchange(
    nodes: int,
    ranks_per_node: int,
    *,
    model,
    plans: int = 1,
    selection: str = "contended",
    spec: HaloSpec | None = None,
    machine: MachineSpec = SUMMIT,
) -> tuple[ExchangeBreakdown, dict[str, int]]:
    """Price ``plans`` concurrent exchanges with *selected* per-message methods.

    The selection-aware companion of :func:`model_contended_exchange`: every
    wire message's packing method is chosen by the **same pricing the runtime
    selectors use** — :meth:`~repro.tempi.perf_model.PerformanceModel.choose_method`
    for ``selection="model"``, :func:`repro.tempi.selection.contended_estimate`
    at the walk's live injection-port backlog for ``selection="contended"`` —
    so the analytic decision path and the simulated interposer's cannot
    drift apart.  The message is then priced the way the executor charges
    it: pack/unpack from the measured tables of the chosen strategy, the
    wire from the topology-aware network model (same-node peers on the
    cheap path, one-shot payloads on the host path), each slot reserved on
    a real :class:`~repro.machine.nic.NicTimeline`.

    Mirroring the runtime exactly, each plan's methods are selected at
    *compile* time: the backlog is read once per plan, before any of that
    plan's messages reserve the port — which is why ``plans=1`` contended
    selection coincides with ``selection="model"`` (zero backlog at compile).

    Returns ``(breakdown, method_counts)``: the burst's phase partition (to
    last pack ready / to last arrival / the unpack tail) of the worst
    representative rank, and its wire-message counts per selected method.
    """
    from repro.tempi.selection import contended_estimate

    if nodes <= 0 or ranks_per_node <= 0:
        raise ValueError("nodes and ranks_per_node must be positive")
    if plans <= 0:
        raise ValueError(f"plans must be positive, got {plans}")
    if selection not in ("model", "contended"):
        raise ValueError(f"selection must be 'model' or 'contended', got {selection!r}")
    spec = spec if spec is not None else HaloSpec.paper()
    nranks = nodes * ranks_per_node
    grid = RankGrid.for_ranks(nranks)
    topology = Topology(nranks, ranks_per_node=ranks_per_node, machine=machine)
    network = NetworkModel(machine)

    worst: tuple[float, float, float] = (0.0, 0.0, 0.0)
    worst_counts: dict[str, int] = {}
    representatives = range(min(grid.nranks, topology.ranks_per_node))
    for rank in representatives:
        groups = _send_groups(grid, rank)
        nic = NicTimeline(ledger_limit=0)
        counts: dict[str, int] = {}
        arrivals: list[tuple[float, float]] = []  # (arrival, unpack tail)
        last_pack = 0.0
        for _ in range(plans):
            # Compile-time selection: one backlog reading for the whole plan.
            backlog = max(0.0, nic.port_free_at(rank) - 0.0)
            for peer, directions in groups.items():
                nbytes = sum(spec.halo_bytes(d) for d in directions)
                block = spec.halo_block_length(directions[0])
                if selection == "model":
                    method = model.choose_method(nbytes, block)
                else:
                    method = contended_estimate(model, nbytes, block, backlog).best()
                counts[method.value] = counts.get(method.value, 0) + 1
                strategy = "oneshot" if method.value == "oneshot" else "device"
                ready = model.pack_time(strategy, "pack", nbytes, block)
                wire = network.message_time(
                    nbytes,
                    same_node=topology.same_node(rank, peer),
                    device_buffers=strategy != "oneshot",
                )
                reservation = nic.reserve(rank, peer, ready, wire, nbytes)
                arrivals.append(
                    (reservation.arrival, model.pack_time(strategy, "unpack", nbytes, block))
                )
                last_pack = max(last_pack, ready)
        last_arrival = max(arrival for arrival, _ in arrivals)
        makespan = max(arrival + unpack for arrival, unpack in arrivals)
        if makespan > sum(worst):
            worst = (last_pack, last_arrival - last_pack, makespan - last_arrival)
            worst_counts = counts

    breakdown = ExchangeBreakdown(
        nodes=nodes,
        ranks_per_node=ranks_per_node,
        nranks=nranks,
        pack_s=worst[0],
        comm_s=worst[1],
        unpack_s=worst[2],
    )
    return breakdown, worst_counts


def contended_overlap_speedup(
    nodes: int,
    ranks_per_node: int,
    *,
    plans: int = 1,
    spec: HaloSpec | None = None,
    machine: MachineSpec = SUMMIT,
) -> float:
    """Speedup of ``plans`` concurrent overlapped exchanges over the serial
    engine running them back-to-back, under honest shared-NIC accounting."""
    fused = model_fused_exchange(nodes, ranks_per_node, spec=spec, machine=machine)
    contended = model_contended_exchange(
        nodes, ranks_per_node, plans=plans, spec=spec, machine=machine
    )
    return plans * fused.total_s / contended.total_s


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
    (``pack_s + comm_s``) priced per-plan (PR-2 accounting, an infinitely
    wide NIC) to the same quantity priced on the shared injection port.
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


def overlap_speedup(
    nodes: int,
    ranks_per_node: int,
    *,
    spec: HaloSpec | None = None,
    machine: MachineSpec = SUMMIT,
) -> float:
    """Whole-exchange speedup of the overlapped pipeline over the fused serial
    collective — the quantity ``bench_fig14_overlap.py`` measures functionally."""
    fused = model_fused_exchange(nodes, ranks_per_node, spec=spec, machine=machine)
    overlapped = model_overlap_exchange(nodes, ranks_per_node, spec=spec, machine=machine)
    return fused.total_s / overlapped.total_s


def halo_exchange_speedup(
    nodes: int,
    ranks_per_node: int,
    *,
    spec: HaloSpec | None = None,
    machine: MachineSpec = SUMMIT,
) -> float:
    """Whole-exchange speedup of TEMPI over the baseline (Fig. 12b)."""
    baseline = model_halo_exchange(
        nodes, ranks_per_node, spec=spec, machine=machine, tempi=False
    )
    accelerated = model_halo_exchange(
        nodes, ranks_per_node, spec=spec, machine=machine, tempi=True
    )
    return baseline.total_s / accelerated.total_s


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


def _allreduce_wire(src, dst, nbytes, network, topology, ranks_per_node):
    if topology is not None and topology.hierarchical:
        return topology.message_time(src, dst, nbytes, device_buffers=True)
    same_node = (src // ranks_per_node) == (dst // ranks_per_node)
    return network.message_time(nbytes, same_node=same_node, device_buffers=True)


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
    plan compiler emits (:mod:`repro.tempi.plan`), so the twin can never
    disagree with the simulated path about who sends what when.

    Every round's posts are priced from the sender's current clock, every
    receive lands at post + wire (the topology's path-class wire when a
    hierarchical ``topology`` is given), and every combining receive charges
    the unpack-priced reduction kernel — the exact charge schedule
    :meth:`~repro.tempi.executor.PlanExecutor` applies, minus the
    per-call interposition overheads.  The lockstep round walk makes it
    analytic: no buffers move, rank counts are free.
    """
    from repro.tempi.plan import (
        hierarchical_allreduce_schedule,
        ring_allreduce_schedule,
        tree_allreduce_schedule,
    )

    if nranks <= 0:
        raise ValueError(f"nranks must be positive, got {nranks}")
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    network = NetworkModel(machine)
    gpu = machine.node.gpu
    if topology is not None and topology.hierarchical:
        groups: dict[tuple[int, int], list[int]] = {}
        for rank in range(nranks):
            groups.setdefault(topology.island_of(rank), []).append(rank)
        islands = [groups[key] for key in sorted(groups)]
    else:
        islands = [[rank] for rank in range(nranks)]
    everyone = list(range(nranks))
    if algorithm == "ring":
        schedules = {
            rank: ring_allreduce_schedule(rank, everyone, count, element_size, "sum")
            for rank in everyone
        }
    elif algorithm == "tree":
        schedules = {
            rank: tree_allreduce_schedule(rank, nranks, count, element_size, "sum")
            for rank in everyone
        }
    elif algorithm == "hierarchical":
        schedules = {
            rank: hierarchical_allreduce_schedule(
                rank, nranks, count, element_size, "sum", islands
            )
            for rank in everyone
        }
    else:
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")

    by_round: dict[int, list[tuple[int, object]]] = {}
    for rank, stages in schedules.items():
        for stage in stages:
            by_round.setdefault(stage.round, []).append((rank, stage))
    clocks = [0.0] * nranks
    reduce_charged = [0.0] * nranks
    for round_index in sorted(by_round):
        arrivals: dict[tuple[int, int], float] = {}
        for rank, stage in by_round[round_index]:
            if stage.dest >= 0:
                wire = _allreduce_wire(
                    rank, stage.dest, stage.send_nbytes, network, topology, ranks_per_node
                )
                arrivals[(rank, stage.dest)] = clocks[rank] + wire
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
    datatype's block) reserved on the sender's injection port and ingested
    at the expert, all on one real :class:`~repro.machine.nic.NicTimeline`
    so the walk can never drift from the simulator's contention rules.  The
    skew signature is ``hot_ingest_stalled_s`` pulling away from the worst
    cold expert's as the hot expert's share grows — the analytic companion
    of ``bench_moe.py``'s functional ``hot_excess_stalls``.
    """
    if nic not in ("duplex", "inject_only"):
        raise ValueError(f"nic must be 'duplex' or 'inject_only', got {nic!r}")
    matrix = [list(map(int, row)) for row in counts]
    nranks = len(matrix)
    if nranks == 0 or any(len(row) != nranks for row in matrix):
        raise ValueError("counts must be a non-empty square matrix")
    if token_bytes <= 0 or token_bytes % 2:
        raise ValueError(f"token_bytes must be positive and even, got {token_bytes}")
    hot = hot_expert % nranks
    network = NetworkModel(machine)
    gpu = machine.node.gpu
    timeline = NicTimeline(ledger_limit=0)
    flows: dict[int, list[tuple[int, object, float]]] = {dst: [] for dst in range(nranks)}
    for sender in range(nranks):
        for expert in range(nranks):
            tokens = matrix[sender][expert]
            if sender == expert or tokens == 0:
                continue
            nbytes = tokens * token_bytes
            pack = gpu.kernel_time(
                nbytes, token_bytes // 2, target="device", unpack=False
            )
            wire = network.message_time(nbytes, same_node=False, device_buffers=True)
            reservation = timeline.reserve(sender, expert, pack, wire, nbytes)
            flows[expert].append((sender, reservation, wire))
    completion = 0.0
    stalled = [0.0] * nranks
    for expert in range(nranks):
        if not flows[expert]:
            continue
        arrivals = [reservation.arrival for _, reservation, _ in flows[expert]]
        if nic == "duplex":
            landings = timeline.ingest(
                expert,
                [
                    IngestRecord(
                        post_time=reservation.start,
                        source=sender,
                        seq=reservation.seq,
                        wire_s=wire,
                        arrival=reservation.arrival,
                    )
                    for sender, reservation, wire in flows[expert]
                ],
            )
        else:
            landings = arrivals
        completion = max(completion, max(landings))
        stalled[expert] = sum(
            landing - arrival for landing, arrival in zip(landings, arrivals)
        )
    received = [
        sum(matrix[sender][expert] for sender in range(nranks) if sender != expert)
        for expert in range(nranks)
    ]
    cold = [index for index in range(nranks) if index != hot]
    return MoEBreakdown(
        nranks=nranks,
        hot_expert=hot,
        hot_tokens=received[hot],
        cold_tokens=max((received[index] for index in cold), default=0),
        completion_s=completion,
        hot_ingest_stalled_s=stalled[hot],
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

    The recurrence mirrors :func:`repro.apps.pipeline.run_pipeline` exactly:
    stage ``r`` hands microbatch ``m`` to the wire once it holds the payload
    *and* has finished handing off microbatch ``m-1`` (its port serialises),
    each hop pays one pack kernel plus the wire, and each delivery pays the
    scatter-side unpack.  Completion is the last stage's receipt of the last
    microbatch: the classic ``fill + (M-1) * interval`` pipeline law, with
    the interval set by the slowest of pack and wire.
    """
    if nranks <= 0:
        raise ValueError(f"nranks must be positive, got {nranks}")
    if microbatches <= 0:
        raise ValueError(f"microbatches must be positive, got {microbatches}")
    if activation_bytes <= 0 or activation_bytes % 2:
        raise ValueError(
            f"activation_bytes must be positive and even, got {activation_bytes}"
        )
    network = NetworkModel(machine)
    gpu = machine.node.gpu
    half = activation_bytes // 2
    pack = gpu.kernel_time(activation_bytes, half, target="device", unpack=False)
    unpack = gpu.kernel_time(activation_bytes, half, target="device", unpack=True)
    ready = [[0.0] * microbatches for _ in range(nranks)]
    sent = [[0.0] * microbatches for _ in range(nranks)]
    first_hop_wire = 0.0
    for rank in range(nranks - 1):
        wire = _allreduce_wire(
            rank, rank + 1, activation_bytes, network, topology, ranks_per_node
        )
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

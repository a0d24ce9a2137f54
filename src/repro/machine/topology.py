"""Cluster topology: placement, NVLink islands, NIC rails and the switch fabric.

The halo-exchange evaluation (Fig. 12) varies *nodes × ranks-per-node*; the
cost of a message depends on the path between its endpoints.  This module
models that path explicitly:

* :class:`TopologySpec` — a declarative cluster shape: ranks per node, the
  NVLink *island* size inside a node, how many shared NIC *rails* each node
  exposes (and the deterministic policy assigning ranks to rails), and a
  two-level fat-tree (``leaf_radix`` nodes per leaf switch, a configurable
  uplink ``oversubscription``).  The default spec is *flat*: no islands, a
  dedicated per-rank NIC, a single switch — exactly the pre-topology model.
* :class:`Topology` — places ``nranks`` ranks onto that shape using the block
  placement ``jsrun`` would produce, and resolves every ``(src, dst)`` pair
  to a :class:`PathSpec` of typed :class:`Hop` entries with per-hop latency
  and bandwidth, plus the NIC-rail and shared-uplink ledger keys the virtual
  NIC (``machine/nic.py``) binds when the message is posted.

Determinism contract: every placement-derived quantity (island, rail, leaf)
is a pure function of the rank's *placement*, never of wall-clock state or
iteration order, so two worlds with the same shape assign the same rail to
the same (node, local rank) slot whatever the global rank numbering.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.machine.spec import SUMMIT, InterconnectSpec, MachineSpec

#: Ordered path classes, nearest first.  ``resolve`` labels every path with
#: one of these; ``representative_pairs`` returns one example pair per class.
PATH_KINDS = ("self", "island", "node", "leaf", "spine")

#: Rail-selection policies: ``"island"`` keys the rail on the rank's NVLink
#: island (islands map onto their nearest NIC), ``"local"`` round-robins the
#: node-local rank over the rails.  Both are pure functions of placement.
RAIL_POLICIES = ("island", "local")

#: Key of one shared fabric ledger: ``("up", leaf)`` is a leaf switch's
#: uplink bundle toward the spine, ``("down", leaf)`` the bundle back down.
ShareKey = tuple[str, int]

#: Key of one NIC rail: ``(node, rail_index)``.
RailKey = tuple[int, int]


class TopologyError(ValueError):
    """An invalid topology shape or an unresolvable path."""


@dataclass(frozen=True)
class RankPlacement:
    """Where one rank lives."""

    rank: int
    node: int
    local_rank: int
    gpu: int
    #: NVLink island inside the node (``0`` when the node is one island).
    island: int = 0


@dataclass(frozen=True)
class TopologySpec:
    """Declarative shape of a cluster's communication topology.

    The default constructor gives the *flat* shape (``is_flat`` true): whole
    nodes are one island, every rank has a dedicated NIC (``rails_per_node
    == 0``) and all nodes hang off one switch (``leaf_radix == 0``).  The
    flat shape prices and books exactly like the pre-topology model.
    """

    ranks_per_node: int = 1
    #: Ranks per NVLink island inside a node; ``0`` means the whole node is
    #: one island (no intra-node hierarchy).
    island_size: int = 0
    #: Shared NIC rails per node; ``0`` means a dedicated per-rank NIC (no
    #: rail contention, the flat model).
    rails_per_node: int = 0
    #: How ranks map onto rails; one of :data:`RAIL_POLICIES`.
    rail_policy: str = "island"
    #: Nodes per leaf switch of the two-level fat-tree; ``0`` means a single
    #: flat switch (no uplinks, no cross-leaf paths).
    leaf_radix: int = 0
    #: Leaf-to-spine oversubscription factor: the uplink bundle carries
    #: ``1/oversubscription`` of the aggregate NIC bandwidth below the leaf.
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        """Validate the shape, naming the first field that is wrong."""
        for name in ("ranks_per_node", "island_size", "rails_per_node", "leaf_radix"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TopologyError(f"{name} must be an integer, got {value!r}")
        over = self.oversubscription
        if isinstance(over, bool) or not isinstance(over, (int, float)) or not math.isfinite(over):
            raise TopologyError(f"oversubscription must be a finite number, got {over!r}")
        if self.ranks_per_node <= 0:
            raise TopologyError(f"ranks_per_node must be positive, got {self.ranks_per_node}")
        if self.island_size < 0:
            raise TopologyError(f"island_size must be non-negative, got {self.island_size}")
        if self.rails_per_node < 0:
            raise TopologyError(f"rails_per_node must be non-negative, got {self.rails_per_node}")
        if not isinstance(self.rail_policy, str) or self.rail_policy not in RAIL_POLICIES:
            raise TopologyError(
                f"rail_policy must be one of {RAIL_POLICIES}, got {self.rail_policy!r}"
            )
        if self.leaf_radix < 0:
            raise TopologyError(f"leaf_radix must be non-negative, got {self.leaf_radix}")
        if not self.oversubscription > 0:
            raise TopologyError(
                f"oversubscription must be positive, got {self.oversubscription}"
            )

    @property
    def is_flat(self) -> bool:
        """True when the shape degenerates to the pre-topology flat model."""
        return self.island_size == 0 and self.rails_per_node == 0 and self.leaf_radix == 0

    @staticmethod
    def flat(ranks_per_node: int = 1) -> "TopologySpec":
        """The flat single-rail shape (books bit-identical to no topology)."""
        return TopologySpec(ranks_per_node=ranks_per_node)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready mapping of every field."""
        return asdict(self)

    @staticmethod
    def from_dict(data: dict[str, object]) -> "TopologySpec":
        """Build a spec from a mapping (inverse of :meth:`to_dict`).

        Unknown keys and malformed values raise :class:`TopologyError`
        naming the key or field.
        """
        if not isinstance(data, dict):
            raise TopologyError(f"topology spec must be a JSON object, got {type(data).__name__}")
        fields = {
            "ranks_per_node", "island_size", "rails_per_node",
            "rail_policy", "leaf_radix", "oversubscription",
        }
        unknown = sorted(set(data) - fields)
        if unknown:
            raise TopologyError(f"unknown topology spec keys: {', '.join(unknown)}")
        return TopologySpec(**data)  # type: ignore[arg-type]

    @staticmethod
    def load(path: Union[str, Path]) -> "TopologySpec":
        """Load a spec from a JSON file."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise TopologyError(f"{path}: not valid JSON ({exc})") from exc
        try:
            return TopologySpec.from_dict(data)
        except TopologyError as exc:
            raise TopologyError(f"{path}: {exc}") from None

    def save(self, path: Union[str, Path]) -> None:
        """Write the spec as JSON (inverse of :meth:`load`)."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


@dataclass(frozen=True)
class Hop:
    """One typed link crossing of a path.

    ``shared`` names the fabric ledger this hop contends on (a leaf uplink
    bundle); unshared hops (NVLink, shared memory, a NIC rail's own wire)
    bind per-rank or per-rail cursors instead and leave it ``None``.
    """

    kind: str
    latency_s: float
    bandwidth_Bps: float
    shared: Optional[ShareKey] = None


@dataclass(frozen=True)
class PathSpec:
    """The resolved route between two placed ranks.

    ``hops`` carries the typed per-hop latency/bandwidth breakdown;
    ``rail``/``ingest_rail`` the NIC-rail cursors bound at the send and
    receive ends (``None`` for dedicated NICs), and ``shared`` the
    ``(ledger key, bundle bandwidth)`` pairs of every shared fabric hop the
    reservation must also serialise on.
    """

    src: int
    dst: int
    kind: str
    hops: tuple[Hop, ...]
    rail: Optional[RailKey] = None
    ingest_rail: Optional[RailKey] = None
    shared: tuple[tuple[ShareKey, float], ...] = field(default=())

    @property
    def latency_s(self) -> float:
        """Sum of per-hop latencies (the path's latency floor)."""
        total = 0.0
        for hop in self.hops:
            total += hop.latency_s
        return total

    @property
    def bandwidth_Bps(self) -> float:
        """Bottleneck bandwidth over the hops (infinite for a self path)."""
        return min((hop.bandwidth_Bps for hop in self.hops), default=math.inf)


@dataclass(frozen=True)
class RouteTable:
    """The cursors an ``(m, k)`` batch of resolved paths binds, as dense ids.

    What :meth:`~repro.machine.nic.NicTimeline.reserve_batch` needs of ``m x
    k`` :class:`PathSpec` objects, as read-only arrays: per message the id
    of its injection rail, of its receive-side rail and of each shared
    uplink bundle (``-1`` for "binds nothing"), every id indexing the key
    tuple of its family.  The NIC's cursor dictionaries stay keyed by those
    tuples; an id only says which gathered slot a message reads and writes.
    Frozen, so whatever is derived from a table can be reused for as long
    as the same object comes back.
    """

    #: ``(m, k)`` ids into :attr:`rail_keys` / :attr:`ingest_rail_keys`.
    rail: np.ndarray
    ingest_rail: np.ndarray
    #: ``(m, k, b)`` ids into :attr:`share_keys` and each named bundle's
    #: bandwidth (``1.0`` where absent); ``b`` is the most bundles any one
    #: path crosses — 2 on a fat-tree.
    shared: np.ndarray
    shared_bandwidth: np.ndarray
    rail_keys: tuple[RailKey, ...]
    ingest_rail_keys: tuple[RailKey, ...]
    share_keys: tuple[ShareKey, ...]
    #: The resolved rows the table was tabulated from, which a traced
    #: timeline books message by message (empty for a hand-built table).
    paths: tuple[tuple[Optional[PathSpec], ...], ...] = ()

    def __post_init__(self) -> None:
        """Make the arrays read-only: a table is frozen however it was built."""
        for array in (self.rail, self.ingest_rail, self.shared, self.shared_bandwidth):
            array.flags.writeable = False

    @staticmethod
    def from_paths(paths: Sequence[Sequence[Optional[PathSpec]]]) -> "RouteTable":
        """Tabulate an ``m x k`` nested sequence of resolved paths.

        Ids are handed out in first-appearance (row-major) order.  A path
        naming one bundle twice keeps the later bandwidth: both entries
        read the same cursor, and the later write is the one that stays.
        """
        m, k = len(paths), len(paths[0]) if len(paths) else 0
        if any(len(row) != k for row in paths):
            raise TopologyError(f"paths must be an {m} x {k} nested sequence")
        routed = [(t, path) for t, path in enumerate(p for row in paths for p in row)
                  if path is not None]
        width = max((len(dict(path.shared)) for _, path in routed), default=0)
        rail = np.full(m * k, -1, dtype=np.int64)
        ingest_rail = np.full(m * k, -1, dtype=np.int64)
        shared = np.full((m * k, width), -1, dtype=np.int64)
        bandwidth = np.ones((m * k, width), dtype=np.float64)
        rails: dict[RailKey, int] = {}
        ingest_rails: dict[RailKey, int] = {}
        shares: dict[ShareKey, int] = {}
        for t, path in routed:
            if path.rail is not None:
                rail[t] = rails.setdefault(path.rail, len(rails))
            if path.ingest_rail is not None:
                ingest_rail[t] = ingest_rails.setdefault(path.ingest_rail, len(ingest_rails))
            for slot, (key, bundle_bandwidth) in enumerate(dict(path.shared).items()):
                shared[t, slot] = shares.setdefault(key, len(shares))
                bandwidth[t, slot] = bundle_bandwidth
        return RouteTable(
            rail.reshape(m, k), ingest_rail.reshape(m, k),
            shared.reshape(m, k, width), bandwidth.reshape(m, k, width),
            tuple(rails), tuple(ingest_rails), tuple(shares), tuple(map(tuple, paths)),
        )


class Topology:
    """Block placement of ``nranks`` ranks plus path resolution on a shape.

    The two-argument form (``Topology(nranks, ranks_per_node)``) keeps the
    historical flat behaviour; passing ``spec=`` overlays the hierarchical
    shape (islands, rails, fat-tree) on the same block placement.
    """

    def __init__(
        self,
        nranks: int,
        ranks_per_node: int = 1,
        machine: MachineSpec = SUMMIT,
        *,
        spec: Optional[TopologySpec] = None,
    ) -> None:
        if spec is not None:
            ranks_per_node = spec.ranks_per_node
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        if ranks_per_node <= 0:
            raise ValueError(f"ranks_per_node must be positive, got {ranks_per_node}")
        if ranks_per_node > machine.node.gpus:
            raise ValueError(
                f"ranks_per_node={ranks_per_node} exceeds the {machine.node.gpus} GPUs per node"
            )
        self.nranks = nranks
        self.ranks_per_node = ranks_per_node
        self.machine = machine
        self.spec = spec if spec is not None else TopologySpec(ranks_per_node=ranks_per_node)
        self.nnodes = (nranks + ranks_per_node - 1) // ranks_per_node
        if self.nnodes > machine.max_nodes:
            raise ValueError(
                f"{self.nnodes} nodes requested but {machine.name} has only {machine.max_nodes}"
            )
        island = self.spec.island_size
        self._island_span = island if island > 0 else ranks_per_node
        self._paths: dict[tuple[int, int, bool], PathSpec] = {}
        #: True when the shape adds structure beyond the flat model (the spec is frozen).
        self.hierarchical: bool = not self.spec.is_flat

    # ------------------------------------------------------------- placement
    def placement(self, rank: int) -> RankPlacement:
        """Node/local-rank/GPU/island of one rank (block placement)."""
        self._check_rank(rank)
        node = rank // self.ranks_per_node
        local = rank % self.ranks_per_node
        return RankPlacement(
            rank=rank, node=node, local_rank=local, gpu=local,
            island=local // self._island_span,
        )

    def node_of(self, rank: int) -> int:
        """Node index of a rank."""
        if not 0 <= rank < self.nranks:
            self._check_rank(rank)
        return rank // self.ranks_per_node

    def same_node(self, a: int, b: int) -> bool:
        """True when two ranks share a node (``_check_rank`` runs only to name a bad one)."""
        nranks = self.nranks
        if not (0 <= a < nranks and 0 <= b < nranks):
            self._check_rank(a)
            self._check_rank(b)
        return a // self.ranks_per_node == b // self.ranks_per_node

    def ranks_on_node(self, node: int) -> list[int]:
        """All ranks placed on ``node``."""
        if node < 0 or node >= self.nnodes:
            raise ValueError(f"node {node} outside [0, {self.nnodes})")
        first = node * self.ranks_per_node
        return [r for r in range(first, min(first + self.ranks_per_node, self.nranks))]

    # ----------------------------------------------------- islands and rails
    def island_of(self, rank: int) -> tuple[int, int]:
        """The ``(node, island)`` pair a rank's GPU sits in."""
        place = self.placement(rank)
        return (place.node, place.island)

    def same_island(self, a: int, b: int) -> bool:
        """True when two ranks share an NVLink island."""
        return self.island_of(a) == self.island_of(b)

    def islands(self) -> list[list[int]]:
        """The placed ranks grouped by NVLink island, groups and members ascending.

        The partition the hierarchical allreduce folds over, for the runtime
        and its analytic twin alike.  A flat shape has no island structure to
        exploit, so every rank is its own group (that schedule then degrades
        to a pure leader ring).
        """
        if not self.hierarchical:
            return [[rank] for rank in range(self.nranks)]
        groups: dict[tuple[int, int], list[int]] = {}
        for rank in range(self.nranks):
            groups.setdefault(self.island_of(rank), []).append(rank)
        return [groups[key] for key in sorted(groups)]

    def rail_of(self, rank: int) -> Optional[int]:
        """Rail index a rank injects on (``None`` for a dedicated NIC).

        A pure function of the rank's placement — two worlds with the same
        shape give the same rail to the same (node, local rank) slot —
        following :data:`RAIL_POLICIES`.
        """
        rails = self.spec.rails_per_node
        if rails == 0:
            return None
        place = self.placement(rank)
        if self.spec.rail_policy == "island":
            return place.island % rails
        return place.local_rank % rails

    def rail_key(self, rank: int) -> Optional[RailKey]:
        """The ``(node, rail)`` NIC-rail cursor key of a rank, if shared."""
        rail = self.rail_of(rank)
        if rail is None:
            return None
        return (self.node_of(rank), rail)

    # ------------------------------------------------------------ the fabric
    def leaf_of(self, node: int) -> int:
        """Leaf-switch index of a node (``0`` under the single flat switch)."""
        radix = self.spec.leaf_radix
        if radix == 0:
            return 0
        return node // radix

    def same_leaf(self, a: int, b: int) -> bool:
        """True when two ranks' nodes hang off the same leaf switch."""
        return self.leaf_of(self.node_of(a)) == self.leaf_of(self.node_of(b))

    @property
    def nleaves(self) -> int:
        """How many leaf switches the placed nodes occupy."""
        radix = self.spec.leaf_radix
        if radix == 0:
            return 1
        return (self.nnodes + radix - 1) // radix

    def uplink_bandwidth_Bps(self, link: InterconnectSpec) -> float:
        """Bandwidth of one leaf's uplink bundle for traffic on ``link``.

        Full bisection would match the aggregate NIC bandwidth below the
        leaf (``leaf_radix`` nodes × rails × per-rail bandwidth);
        ``oversubscription`` divides it.
        """
        rails = self.spec.rails_per_node
        if rails == 0:
            rails = self.ranks_per_node
        aggregate = link.bandwidth_Bps * self.spec.leaf_radix * rails
        return aggregate / self.spec.oversubscription

    # ------------------------------------------------------- path resolution
    def resolve(self, src: int, dst: int, *, device_buffers: bool = False) -> PathSpec:
        """Resolve ``(src, dst)`` to its typed, memoised :class:`PathSpec`."""
        key = (src, dst, device_buffers)
        path = self._paths.get(key)
        if path is None:
            path = self._resolve(src, dst, device_buffers)
            self._paths[key] = path
        return path

    def route_table(
        self,
        sources: Sequence[int],
        dests: Sequence[Sequence[int]],
        *,
        device_buffers: bool = False,
    ) -> RouteTable:
        """Resolve an ``(m, k)`` exchange once, into a frozen :class:`RouteTable`.

        Message ``(i, j)`` runs from ``sources[i]`` to ``dests[i][j]``;
        :meth:`resolve` stays the single source of every :class:`PathSpec`.
        """
        return RouteTable.from_paths([
            [self.resolve(int(src), int(dst), device_buffers=device_buffers) for dst in row]
            for src, row in zip(sources, dests)
        ])

    def _resolve(self, src: int, dst: int, device_buffers: bool) -> PathSpec:
        """Build the path (uncached); ``resolve`` is the public seam."""
        self._check_rank(src)
        self._check_rank(dst)
        node = self.machine.node
        if src == dst:
            # A self path prices like the nearest intra-node hop (matching
            # the historical same-node pricing) but binds nothing.
            hop = self._local_hop(device_buffers)
            return PathSpec(src=src, dst=dst, kind="self", hops=(hop,))
        if self.same_node(src, dst):
            if self.same_island(src, dst) or not device_buffers:
                # Host buffers ride shared memory regardless of islands.
                kind = "island" if self.same_island(src, dst) else "node"
                return PathSpec(src=src, dst=dst, kind=kind,
                                hops=(self._local_hop(device_buffers),))
            # Device buffers crossing islands bounce through the node-local
            # bridge: an NVLink hop plus the shared-memory interconnect.
            bridge = node.intra_cpu
            hops = (
                self._hop("nvlink", node.gpu_gpu),
                Hop(kind="bridge",
                    latency_s=bridge.latency_s + bridge.per_message_overhead_s,
                    bandwidth_Bps=bridge.bandwidth_Bps),
            )
            return PathSpec(src=src, dst=dst, kind="node", hops=hops)
        link = self.machine.inter_gpu if device_buffers else self.machine.inter_cpu
        rail = self.rail_key(src)
        ingest_rail = self.rail_key(dst)
        rail_hop = self._hop("rail", link)
        if self.same_leaf(src, dst):
            return PathSpec(src=src, dst=dst, kind="leaf", hops=(rail_hop,),
                            rail=rail, ingest_rail=ingest_rail)
        # Cross-leaf: one extra switch traversal of latency, and the message
        # serialises on both leaves' shared uplink bundles (source's up
        # bundle, destination's down bundle).
        uplink_bw = self.uplink_bandwidth_Bps(link)
        src_leaf = self.leaf_of(self.node_of(src))
        dst_leaf = self.leaf_of(self.node_of(dst))
        up = Hop(kind="uplink", latency_s=link.latency_s, bandwidth_Bps=uplink_bw,
                 shared=("up", src_leaf))
        down = Hop(kind="uplink", latency_s=0.0, bandwidth_Bps=uplink_bw,
                   shared=("down", dst_leaf))
        return PathSpec(
            src=src, dst=dst, kind="spine", hops=(rail_hop, up, down),
            rail=rail, ingest_rail=ingest_rail,
            shared=(
                (("up", src_leaf), uplink_bw),
                (("down", dst_leaf), uplink_bw),
            ),
        )

    def _local_hop(self, device_buffers: bool) -> Hop:
        """The intra-island hop (NVLink for device buffers, else shm)."""
        node = self.machine.node
        if device_buffers:
            return self._hop("nvlink", node.gpu_gpu)
        return self._hop("shm", node.intra_cpu)

    @staticmethod
    def _hop(kind: str, link: InterconnectSpec) -> Hop:
        """One unshared hop carrying a link's full postal parameters."""
        return Hop(kind=kind,
                   latency_s=link.latency_s + link.per_message_overhead_s,
                   bandwidth_Bps=link.bandwidth_Bps)

    # ---------------------------------------------------------- wire pricing
    def message_time(
        self, src: int, dst: int, nbytes: int, *, device_buffers: bool = False
    ) -> float:
        """Wire time of one message along the resolved path.

        The same postal shape as ``NetworkModel.message_cost`` — path
        latency floor, bottleneck bandwidth term, the eager→rendezvous
        switch — evaluated per path class, so for a flat spec this equals
        the flat model bit-for-bit while hierarchical specs price
        intra-island, cross-island, intra-leaf and cross-leaf peers
        differently.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        path = self.resolve(src, dst, device_buffers=device_buffers)
        rendezvous = (
            self.machine.rendezvous_overhead_s
            if nbytes > self.machine.eager_threshold
            else 0.0
        )
        return path.latency_s + nbytes / path.bandwidth_Bps + rendezvous

    # ------------------------------------------------------------ inspection
    def representative_pairs(self) -> dict[str, tuple[int, int]]:
        """One example ``(src, dst)`` pair per resolvable path class.

        Classes the placed world cannot express (a single-node world has no
        ``leaf`` pair; a single-leaf fabric no ``spine`` pair) are absent.
        """
        pairs: dict[str, tuple[int, int]] = {"self": (0, 0)}
        for dst in range(1, self.nranks):
            kind = self.resolve(0, dst, device_buffers=True).kind
            if kind not in pairs:
                pairs[kind] = (0, dst)
        return {kind: pairs[kind] for kind in PATH_KINDS if kind in pairs}

    def _check_rank(self, rank: int) -> None:
        """Reject out-of-range ranks."""
        if rank < 0 or rank >= self.nranks:
            raise ValueError(f"rank {rank} outside [0, {self.nranks})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = "flat" if self.spec.is_flat else "hierarchical"
        return (
            f"<Topology {self.nranks} ranks on {self.nnodes} nodes "
            f"({self.ranks_per_node}/node, {shape}) of {self.machine.name}>"
        )

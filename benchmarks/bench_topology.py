"""Topology (beyond the paper): path-class crossovers and the shared uplink.

The paper's selection model (Fig. 9) and our contention extensions price
every wire the same way because the pre-topology machine has one wire.  The
topology subsystem (``machine/topology.py``) resolves each (src, dst) pair
to a typed path — NVLink island, cross-island bridge, NIC rail, leaf/spine
fat-tree — and two consequences follow, each with a functional harness:

* **crossover divergence** — an idle :class:`~repro.tempi.selection.ContendedSelector`
  bound to a hierarchical :class:`~repro.machine.topology.Topology` prices
  the one-shot and device candidates along the *resolved* path of the actual
  peer, so the Fig. 9 one-shot/device crossover is no longer one curve: an
  intra-island peer (NVLink wire) flips to the device method at a smaller
  object size than a cross-switch peer behind an oversubscribed uplink
  (where the device wire's bandwidth edge is squeezed away).  A flat
  topology — and topology-free selection — reproduces the Fig. 9b map
  exactly (cell-for-cell against ``choose_method``).

* **structural incast** — one sender per node on leaf 0 fires one message
  at its counterpart on leaf 1: every flow owns its injection port, NIC
  rail and destination, yet the burst still serialises, because all flows
  share the source leaf's oversubscribed uplink bundle.  The world NIC
  counts one fabric stall per extra flow and its stalled seconds match the
  analytic walk (:func:`repro.apps.exchange_model.model_fabric_exchange`)
  exactly; :func:`repro.apps.exchange_model.uplink_efficiency` is the
  degradation curve as flows or the oversubscription factor grow.

Run through the figure table (``--smoke`` is the CI sweep, ``--full`` the
larger one):

    PYTHONPATH=src python -m repro.cli figures --only topology
"""

from __future__ import annotations

import pytest

from repro.apps.exchange_model import model_fabric_exchange, uplink_efficiency
from repro.machine.nic import NicTimeline
from repro.machine.spec import SUMMIT
from repro.machine.topology import Topology, TopologySpec
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.request import Request
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose
from repro.tempi.selection import ContendedSelector

#: The crossover world: 4 nodes of 4 ranks in two 2-rank NVLink islands,
#: two shared NIC rails per node, two nodes per leaf switch and an 8x
#: oversubscribed spine — every path class is populated.
CROSSOVER_SPEC = TopologySpec(
    ranks_per_node=4, island_size=2, rails_per_node=2,
    leaf_radix=2, oversubscription=8.0,
)
CROSSOVER_RANKS = 16

#: The fabric-incast world: two leaves of 4 two-rank nodes, one shared rail
#: per node, so cross-leaf flows from distinct nodes share *only* the
#: uplink bundle.
FABRIC_RANKS_PER_NODE = 2
FABRIC_LEAF_RADIX = 4


def fabric_spec(oversubscription: float) -> TopologySpec:
    """The fabric-incast shape at one oversubscription factor."""
    return TopologySpec(
        ranks_per_node=FABRIC_RANKS_PER_NODE, rails_per_node=1,
        leaf_radix=FABRIC_LEAF_RADIX, oversubscription=oversubscription,
    )


#: The incast payload (4 MiB packed per flow in 4 KiB runs): wire time
#: dwarfs pack/unpack, so completion isolates the uplink serialisation.
FABRIC = dict(nblocks=1024, block=4096, pitch=8192)

GRID_SIZES_SUBSET = tuple(1 << p for p in range(8, 23, 2))
#: Grid sizes, grid block lengths, flow counts and oversubscriptions per sweep.
SWEEPS = {
    "smoke": dict(sizes=GRID_SIZES_SUBSET, blocks=(64, 512), flows=(1, 2, 4), oversubs=(1.0, 4.0)),
    "default": dict(
        sizes=GRID_SIZES_SUBSET, blocks=(1, 64, 512), flows=(1, 2, 4), oversubs=(1.0, 4.0)
    ),
    "full": dict(
        sizes=tuple(1 << p for p in range(8, 23)),
        blocks=(1, 8, 64, 512),
        flows=(1, 2, 3, 4),
        oversubs=(1.0, 4.0, 16.0),
    ),
}


def measurement_packer(size: int, block_length: int):
    """The strided object of one grid cell (the Fig. 9 sweep's shape)."""
    from repro.tempi.packer import Packer
    from repro.tempi.strided_block import StridedBlock

    block_length = min(block_length, size)
    nblocks = size // block_length
    if nblocks <= 1:
        shape = StridedBlock(start=0, counts=(block_length,), strides=(1,))
    else:
        shape = StridedBlock(
            start=0, counts=(block_length, nblocks), strides=(1, 2 * block_length)
        )
    return Packer(shape, object_extent=shape.start + shape.extent)


# --------------------------------------------------------------------------- #
# Crossover divergence (idle selection per resolved path class)
# --------------------------------------------------------------------------- #

def run_crossovers(model, sizes, blocks):
    """Selected method per (block, path class, size) on an idle NIC.

    One :class:`ContendedSelector` per source rank, bound to the hierarchical
    crossover topology; the ``flat`` row is the topology-free idle selection
    (the Fig. 9b map) for comparison.
    """
    topology = Topology(CROSSOVER_RANKS, machine=SUMMIT, spec=CROSSOVER_SPEC)
    pairs = {k: v for k, v in topology.representative_pairs().items() if k != "self"}
    grid: dict[tuple[int, str], dict[int, str]] = {}
    for block in blocks:
        for kind, (src, dst) in pairs.items():
            selector = ContendedSelector(model, NicTimeline(), src, topology=topology)
            grid[(block, kind)] = {
                size: selector(
                    measurement_packer(size, block),
                    measurement_packer(size, block).packed_size(1),
                    peer=dst,
                ).value
                for size in sizes
            }
        grid[(block, "flat")] = {
            size: ContendedSelector(model, NicTimeline(), 0)(
                measurement_packer(size, block),
                measurement_packer(size, block).packed_size(1),
                peer=1,
            ).value
            for size in sizes
        }
    return grid


def crossover_size(row: dict[int, str]):
    """Smallest object size whose selection is the device method, if any."""
    chosen = [size for size, method in sorted(row.items()) if method == "device"]
    return chosen[0] if chosen else None


def diverging_blocks(grid) -> list[int]:
    """Blocks whose device crossover sits later (or nowhere) behind the spine."""
    diverging = []
    for block in sorted({block for block, _ in grid}):
        island = crossover_size(grid[(block, "island")])
        spine = crossover_size(grid[(block, "spine")])
        if island is not None and (spine is None or spine > island):
            diverging.append(block)
    return diverging


def check_crossovers(grid, model) -> None:
    """The crossover acceptance claims."""
    for block in sorted({block for block, _ in grid}):
        flat = grid[(block, "flat")]
        # The topology-free idle selection is the Fig. 9b map, cell for cell.
        for size, method in flat.items():
            idle = model.choose_method(size, min(block, size)).value
            assert method == idle, (
                f"flat idle selection diverged from choose_method at {size}/{block}"
            )
        island = crossover_size(grid[(block, "island")])
        spine = crossover_size(grid[(block, "spine")])
        assert island is not None, f"block {block}: no island cell ever picked device"
        # Behind the oversubscribed uplink the device wire's bandwidth edge
        # shrinks, so the device method can only win later (or never).
        assert spine is None or spine >= island, (
            f"block {block}: spine crossover {spine} below island {island}"
        )
    assert diverging_blocks(grid), "no block's crossover diverged between island and spine paths"

# --------------------------------------------------------------------------- #
# Structural incast (cross-leaf flows sharing one uplink bundle)
# --------------------------------------------------------------------------- #

def measure_fabric(flows: int, oversubscription: float, model, config: TempiConfig):
    """One functional cross-leaf burst; returns fabric-side timings.

    One sender per node on leaf 0 (ranks ``node * ranks_per_node``) fires
    one 4 MiB typed ``Isend`` at its counterpart node on leaf 1; receivers
    post matching ``Irecv``s.  Returns ``(completion_s, fabric_stalls,
    fabric_stalled_s)`` — completion being the latest receiver clock.
    """
    spec = fabric_spec(oversubscription)
    nranks = 2 * spec.leaf_radix * spec.ranks_per_node
    rpn = spec.ranks_per_node
    senders = {node * rpn for node in range(flows)}
    receivers = {(spec.leaf_radix + node) * rpn for node in range(flows)}

    def program(ctx):
        comm = interpose(ctx, config, model=model)
        t = comm.Type_commit(
            Type_vector(FABRIC["nblocks"], FABRIC["block"], FABRIC["pitch"], BYTE)
        )
        buf = ctx.gpu.malloc(t.extent)
        if ctx.rank in senders:
            partner = ctx.rank + spec.leaf_radix * rpn
            comm.Isend((buf, 1, t), dest=partner, tag=ctx.rank).Wait()
            return None
        if ctx.rank in receivers:
            partner = ctx.rank - spec.leaf_radix * rpn
            Request.Waitall([comm.Irecv((buf, 1, t), source=partner, tag=partner)])
            return ctx.clock.now
        return None

    world = World(nranks, ranks_per_node=rpn, topology=spec)
    results = world.run(program)
    completion = max(clock for clock in results if clock is not None)
    return completion, world.nic.fabric_stalls, world.nic.fabric_stalled_s


def run_fabric(flow_counts, oversubs, model):
    """The fabric sweep: functional vs analytic at each (flows, oversub)."""
    nbytes = FABRIC["nblocks"] * FABRIC["block"]
    table = {}
    for oversub in oversubs:
        for flows in flow_counts:
            completion, stalls, stalled = measure_fabric(
                flows, oversub, model, TempiConfig()
            )
            table[(oversub, flows)] = dict(
                completion=completion,
                stalls=stalls,
                stalled_s=stalled,
                analytic=model_fabric_exchange(
                    flows, nbytes, spec=fabric_spec(oversub)
                ),
                efficiency=uplink_efficiency(flows, nbytes, spec=fabric_spec(oversub)),
            )
    return table


def check_fabric(results) -> None:
    """The fabric acceptance claims."""
    previous: dict[float, float] = {}
    for (oversub, flows), row in sorted(results.items()):
        analytic = row["analytic"]
        # Every flow owns its port, rail and destination: the only thing that
        # can lift a reservation is the shared uplink bundle, once per extra
        # flow — and the functional stalled seconds are the analytic walk's.
        assert row["stalls"] == flows - 1, (
            f"oversub {oversub}, {flows} flows: {row['stalls']} fabric stalls "
            f"(expected {flows - 1})"
        )
        assert analytic.fabric_stalls == flows - 1
        assert row["stalled_s"] == pytest.approx(analytic.fabric_stalled_s, rel=1e-9), (
            f"oversub {oversub}, {flows} flows: functional fabric wait "
            f"{row['stalled_s']:.3e}s != analytic {analytic.fabric_stalled_s:.3e}s"
        )
        if flows == 1:
            assert row["efficiency"] == pytest.approx(1.0), (
                "a single flow has no uplink contention"
            )
        else:
            assert row["efficiency"] < previous[oversub], (
                f"oversub {oversub}: uplink efficiency must degrade with flows"
            )
        previous[oversub] = row["efficiency"]
    oversubs = sorted({oversub for oversub, _ in results})
    flow_max = max(flows for _, flows in results)
    if len(oversubs) > 1 and flow_max > 1:
        # Shrinking the bundle (larger oversubscription) slows the same burst.
        lightest, heaviest = oversubs[0], oversubs[-1]
        assert (
            results[(heaviest, flow_max)]["completion"]
            > results[(lightest, flow_max)]["completion"]
        ), "a more oversubscribed uplink must price the burst slower"
        assert (
            results[(heaviest, flow_max)]["efficiency"]
            < results[(lightest, flow_max)]["efficiency"]
        ), "uplink efficiency must degrade with oversubscription"

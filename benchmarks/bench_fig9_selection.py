"""Figure 9 (extended): the method crossover, contention-free and under load.

Fig. 9b of the paper plots the three modelled send latencies and the method
the model selects per (object size, contiguous-block length) — measured on an
idle machine.  PR 4's selection subsystem adds what the paper's model leaves
out: the rank's **injection port is not always idle**.  A queued port hides
pack time (the pack kernels run while earlier cross-plan messages drain), so
under load the decision tilts toward the method with the cheaper
wire-plus-unpack tail, and the one-shot/device crossover of Fig. 9 moves.

Two harnesses measure what the ``fig9`` row of ``figures.py`` claims:

* **grid sweep** — a :class:`~repro.tempi.selection.ModelSelector` and a
  :class:`~repro.tempi.selection.ContendedSelector` (over a NIC timeline
  pre-loaded with 0 / 4 / 8 concurrent plans' worth of injections) pick a
  method for every (size, block) cell.  At zero load the two agree cell for
  cell with :meth:`PerformanceModel.choose_method` — the PR-3 selection —
  and at ≥4 plans at least one cell flips;
* **functional burst** — each rank of a world launches *k* concurrent
  wire-bound background ``Ialltoallv`` plans and then one crossover-zone
  *probe* plan, under ``TempiConfig(selection="contended")`` vs
  ``selection="model"``: behind ≥4 background plans the probe's selected
  method shifts (device → one-shot, its pack penalty hidden by the queued
  port), while the ``selection="model"`` run stays bit-identical (clocks
  and counts) to the default configuration, i.e. PR-3's numbers.

The analytic companion is :func:`repro.tempi.selection.contended_estimate`
— the one pricing the ``ContendedSelector`` of the grid sweep calls, and
``repro select-table`` tabulates at a stated backlog;
``tests/tempi/test_selection.py`` pins that it equals the contention-free
model at zero backlog and shifts under load.

Run through the figure table (``--smoke`` is the CI sweep, ``--full`` the
larger one):

    PYTHONPATH=src python -m repro.cli figures --only fig9
"""

from __future__ import annotations

from repro.machine.network import NetworkModel
from repro.machine.nic import NicTimeline
from repro.machine.spec import SUMMIT
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.request import Request
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose
from repro.tempi.packer import Packer
from repro.tempi.selection import ContendedSelector, ModelSelector
from repro.tempi.strided_block import StridedBlock

#: Crossover-zone probe message: 4 KiB packed per peer in single-byte runs —
#: the model picks *device* on an idle port, but the one-shot pack penalty
#: hides behind a few microseconds of queued injections.
PROBE = dict(nblocks=4096, block=1, pitch=2)
#: Wire-bound background traffic (256 KiB per peer, the Fig. 15 shape): each
#: concurrent plan parks ~60 µs of injection on the port, far outrunning the
#: host-side compile cost, so backlog genuinely accumulates across plans.
BACKGROUND = dict(nblocks=1024, block=256, pitch=512)

NRANKS = 4  # one rank per node: every wire peer is inter-node
LOAD_SWEEP = (0, 4, 8)
GRID_SIZES_SUBSET = tuple(1 << p for p in range(8, 23, 2))
#: Grid sizes, grid block lengths and background-plan counts per sweep.
SWEEPS = {
    "smoke": dict(sizes=GRID_SIZES_SUBSET, blocks=(1, 64), plans=(0, 4)),
    "default": dict(sizes=GRID_SIZES_SUBSET, blocks=(1, 8, 64, 512), plans=(0, 4)),
    "full": dict(
        sizes=tuple(1 << p for p in range(8, 23)),
        blocks=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
        plans=(0, 1, 2, 4, 8),
    ),
}


def measurement_packer(size: int, block_length: int) -> Packer:
    """The strided object of one grid cell (the measurement sweep's shape)."""
    block_length = min(block_length, size)
    nblocks = size // block_length
    if nblocks <= 1:
        shape = StridedBlock(start=0, counts=(block_length,), strides=(1,))
    else:
        shape = StridedBlock(
            start=0, counts=(block_length, nblocks), strides=(1, 2 * block_length)
        )
    return Packer(shape, object_extent=shape.start + shape.extent)


def loaded_nic(size: int, plans: int, *, machine=SUMMIT) -> NicTimeline:
    """A NIC timeline carrying ``plans`` concurrent plans' worth of backlog.

    Each in-flight plan is represented by one inter-node message of ``size``
    bytes to a distinct peer, on the wire path of the method the idle model
    picks for that size — the traffic a burst of ``plans`` typed collectives
    would have injected just before this selection runs.
    """
    network = NetworkModel(machine)
    nic = NicTimeline()
    for peer in range(plans):
        wire = network.message_time(size, same_node=False, device_buffers=True)
        nic.reserve(0, peer + 1, 0.0, wire, size)
    return nic


# --------------------------------------------------------------------------- #
# Grid sweep (selector objects against a pre-loaded timeline)
# --------------------------------------------------------------------------- #

def run_grid(model, sizes, blocks, loads) -> dict[tuple[int, int], dict[int, str]]:
    """Selected method per (size, block) cell at each concurrent-plan load."""
    grid: dict[tuple[int, int], dict[int, str]] = {}
    for block in blocks:
        for size in sizes:
            packer = measurement_packer(size, block)
            nbytes = packer.packed_size(1)
            cell: dict[int, str] = {}
            for plans in loads:
                if plans == 0:
                    selector = ModelSelector(model)
                else:
                    selector = ContendedSelector(
                        model, loaded_nic(nbytes, plans), 0
                    )
                cell[plans] = selector(packer, nbytes).value
            grid[(size, block)] = cell
    return grid


def flipped_cells(grid, loads) -> list[tuple[int, int, int]]:
    """``(size, block, load)`` of every cell whose method differs from idle."""
    return [
        (size, block, plans)
        for (size, block), cell in grid.items()
        for plans in loads
        if plans and cell[plans] != cell[0]
    ]


def idle_selections(grid, model) -> dict[tuple[int, int], tuple[str, str]]:
    """Per grid cell, the model's idle decision and an idle ContendedSelector's."""
    idle = {}
    for size, block in grid:
        packer = measurement_packer(size, block)
        nbytes = packer.packed_size(1)
        idle[(size, block)] = (
            model.choose_method(nbytes, min(block, size)).value,
            ContendedSelector(model, NicTimeline(), 0)(packer, nbytes).value,
        )
    return idle


# --------------------------------------------------------------------------- #
# Functional burst (the interposer under TempiConfig.selection)
# --------------------------------------------------------------------------- #

def measure_burst(nranks: int, background: int, model, config: TempiConfig):
    """Probe selection behind ``background`` concurrent wire-bound plans.

    Every rank launches ``background`` typed ``Ialltoallv`` plans of the
    256 KiB :data:`BACKGROUND` shape — each parking its injections on the
    shared NIC — and then one :data:`PROBE` plan whose compile-time selection
    sees whatever port backlog the background left.  Returns
    ``(probe_counts, method_counts, makespan_s)``: the probe plan's own
    per-method wire-message counts, the burst-wide counts, and the latest
    rank clock at completion (all summed/maxed over ranks).
    """

    def program(ctx):
        comm = interpose(ctx, config, model=model)
        big = comm.Type_commit(
            Type_vector(BACKGROUND["nblocks"], BACKGROUND["block"], BACKGROUND["pitch"], BYTE)
        )
        probe = comm.Type_commit(
            Type_vector(PROBE["nblocks"], PROBE["block"], PROBE["pitch"], BYTE)
        )
        size = comm.Get_size()

        # Buffers are allocated up front: the burst itself must only compile
        # and launch, so the host clock cannot outrun the port backlog on
        # allocation costs no iterative application would pay per exchange.
        def buffers(datatype, count):
            return [
                (ctx.gpu.malloc(datatype.extent * size), ctx.gpu.malloc(datatype.extent * size))
                for _ in range(count)
            ]

        big_buffers = buffers(big, background)
        probe_buffers = buffers(probe, 1)

        def exchange(datatype, send, recv):
            counts = [1] * size
            displs = [peer * datatype.extent for peer in range(size)]
            return comm.Ialltoallv(
                send, counts, displs, recv, counts, displs,
                sendtypes=datatype, recvtypes=datatype,
            )

        requests = [exchange(big, send, recv) for send, recv in big_buffers]
        before = dict(comm.stats.method_counts)
        requests.append(exchange(probe, *probe_buffers[0]))
        probe_counts = {
            name: hits - before.get(name, 0)
            for name, hits in comm.stats.method_counts.items()
            if hits - before.get(name, 0)
        }
        Request.Waitall(requests)
        return probe_counts, dict(comm.stats.method_counts), ctx.clock.now

    world = World(nranks, ranks_per_node=1)
    results = world.run(program)
    probe_merged: dict[str, int] = {}
    merged: dict[str, int] = {}
    for probe_counts, counts, _ in results:
        for name, hits in probe_counts.items():
            probe_merged[name] = probe_merged.get(name, 0) + hits
        for name, hits in counts.items():
            merged[name] = merged.get(name, 0) + hits
    return probe_merged, merged, max(clock for _, _, clock in results)


def run_bursts(plan_counts, model, nranks: int = NRANKS):
    """The functional sweep: default / model / contended at each load."""
    table = {}
    for background in plan_counts:
        d_probe, d_counts, d_time = measure_burst(nranks, background, model, TempiConfig())
        m_probe, m_counts, m_time = measure_burst(
            nranks, background, model, TempiConfig(selection="model")
        )
        # The contended run isolates the *injection-side* shift this figure
        # is about: nic="inject_only" keeps the selector's reads on this
        # rank's own port, which is deterministic without any cross-rank
        # synchronisation.  The duplex ingestion term needs a happens-before
        # edge to the hot peer's traffic (this burst has none) and is
        # exercised by bench_incast.py behind a barrier instead.
        c_probe, c_counts, c_time = measure_burst(
            nranks, background, model, TempiConfig(selection="contended", nic="inject_only")
        )
        table[background] = dict(
            default_probe=d_probe,
            default_counts=d_counts,
            default_time=d_time,
            model_probe=m_probe,
            model_counts=m_counts,
            model_time=m_time,
            contended_probe=c_probe,
            contended_counts=c_counts,
            contended_time=c_time,
        )
    return table

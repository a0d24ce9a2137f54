"""Regenerate the golden-figure regression fixtures.

The figure benchmarks are deterministic: simulated latencies derive from
virtual clocks and the shared NIC's arithmetic, never from wall-clock or
thread timing.  This script freezes small sweeps of them —
``bench_fig9_selection`` (burst selection), ``bench_fig14_overlap``
(overlap latencies), ``bench_fig15_contention`` (concurrent-plan
contention), ``bench_incast`` (receiver-side ingestion pricing; the
sender flows are symmetric, so the receiver's completion clock and stall
counts are independent of thread scheduling), ``bench_allreduce``
(ring/tree/hierarchical schedule clocks on the fat-tree example) and
``bench_moe`` (skewed dispatch clocks, stalls and payload digests) — plus
one uniform typed ``Alltoallv`` drive (:func:`run_alltoallv_uniform`: every
rank posts seven equal messages per round, so the per-rank clocks, NIC
ledger and received bytes pin the runtime's one booking path) into
``tests/fixtures/golden_figures.json``, together with a ``collective_twins``
section (:func:`run_collective_twins`: every collective entry point, blocking
and split-phase, on the system library and through the interposer's plan and
fall-through paths) and a ``twins`` section (:func:`run_twins`: every public
analytic twin of ``repro.apps.exchange_model`` over a wide argument grid,
floats as ``float.hex()``) and a ``measurement`` section
(:func:`run_measurement`: the default ``measure_system(SUMMIT)`` sweep every
other section is priced from, every curve and table entry as
``float.hex()``), and
``tests/test_golden_figures.py`` replays them under exact equality every
tier-1 run.  Any change that moves a priced figure value — however small —
fails the replay and must either be a bug or come with a deliberate
fixture regeneration:

    PYTHONPATH=src python tools/make_golden_fixtures.py

``--diff`` regenerates without writing and prints the dotted path of every
leaf whose value differs from the committed fixture (exit status 1 if any
does), which is how a regeneration names what it moved:

    PYTHONPATH=src python tools/make_golden_fixtures.py --diff
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

REPO = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO / "benchmarks"
FIXTURE = REPO / "tests" / "fixtures" / "golden_figures.json"

#: Small, fast sweep points — regression canaries, not the full figures.
FIG9_SIZES = (4096, 262144)
FIG9_BLOCKS = (8, 512)
FIG9_LOADS = (0, 4)
FIG9_BURSTS = (0, 2)
FIG14_RANKS = (2, 4)
FIG15_PLANS = (1, 2)
INCAST_SENDERS = (1, 2, 4)
ALLREDUCE_NODES = (2, 3)
MOE_SKEWS = (1.0, 4.0)
UNIFORM_RANKS = 8
UNIFORM_ROUNDS = 5
TWIN_RANKS = 8
TWIN_ROUNDS = 3
#: The analytic twins' grid (:func:`run_twins`).
TWIN_NODES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
TWIN_CONTENDED_NODES = (1, 2, 8)
TWIN_SENDERS = (1, 2, 3, 4, 8, 16, 33)
TWIN_NBYTES = (1, 512, 4096, 1 << 16, 1 << 20, 1 << 22)
TWIN_ALLREDUCE_RANKS = (2, 3, 4, 6, 8, 12, 16, 32)
#: ``InterposerStats`` counters frozen per rank by :func:`run_collective_twins`.
TWIN_STATS = (
    "fallbacks", "collective_hits", "collective_fallbacks", "plans_built",
    "stages_overlapped", "deferred_unpacks", "batched_plans", "contention_stalls",
    "ingest_stalls", "plan_cache_hits", "plan_cache_misses",
    "selection_memo_hits", "selection_memo_misses",
)


def run_alltoallv_uniform(model) -> dict:
    """Uniform typed ``Alltoallv``: 5 blocking then 5 nonblocking rounds.

    Eight ranks, two per node, one ``Type_vector(64, 64, 128, BYTE)`` per
    peer: every rank's posts form a single ``(nbytes, method)`` class.
    Clocks are frozen as ``float.hex()`` so the replay is bit-level.
    """
    from repro.mpi.constructors import Type_vector
    from repro.mpi.datatype import BYTE
    from repro.mpi.world import World
    from repro.tempi.interposer import interpose

    def program(ctx):
        comm = interpose(ctx, model=model)
        datatype = comm.Type_commit(Type_vector(64, 64, 128, BYTE))
        size = comm.Get_size()
        slot = 2 * datatype.size
        send = ctx.gpu.malloc(slot * size)
        recv = ctx.gpu.malloc(slot * size)
        send.data[:] = (np.arange(send.nbytes) * (ctx.rank + 3) % 251).astype(np.uint8)
        counts = (1,) * size
        displs = tuple(peer * slot for peer in range(size))
        args = (send, counts, displs, recv, counts, displs)
        for _ in range(UNIFORM_ROUNDS):
            comm.Alltoallv(*args, sendtypes=datatype, recvtypes=datatype)
        for _ in range(UNIFORM_ROUNDS):
            comm.Ialltoallv(*args, sendtypes=datatype, recvtypes=datatype).Wait()
        return ctx.clock.now.hex(), hashlib.sha256(recv.data.tobytes()).hexdigest()

    world = World(UNIFORM_RANKS, ranks_per_node=2)
    results = world.run(program)
    nic = world.nic
    return {
        "clocks": [clock for clock, _ in results],
        "recv_sha256": [digest for _, digest in results],
        "nic_fingerprint": nic.state_fingerprint(),
        "reservations": nic.reservations,
        "stalls": nic.stalls,
        "ingests": nic.ingests,
        "ingest_stalls": nic.ingest_stalls,
    }


class TwinCall(NamedTuple):
    """One collective call: ``comm.<method>(*args, **kwargs)`` landing in ``recv``."""

    name: str
    method: str
    args: tuple
    kwargs: dict
    recv: object

    def blocking(self, comm) -> None:
        """Make the blocking call."""
        getattr(comm, self.method)(*self.args, **self.kwargs)

    def has_split(self, comm) -> bool:
        """Whether ``comm`` has the ``I…`` form (not ``Bcast``; ``Allreduce``
        only on the interposer)."""
        return hasattr(comm, "I" + self.method.lower())

    def split(self, comm):
        """Make the ``I…`` call and return its request."""
        return getattr(comm, "I" + self.method.lower())(*self.args, **self.kwargs)


def twin_calls(ctx, comm, *, device: bool = True, contiguous: bool = False) -> list[TwinCall]:
    """Every collective entry point of ``comm``, with arguments for this rank.

    Shapes are deliberately non-uniform (counts alternate with
    ``rank + peer``) so the two sides of a call differ; ``device=False`` and
    ``contiguous=True`` are the inputs the interposer hands back to the
    system library.  Shared with ``tests/mpi/test_collective_twins.py``.
    """
    from repro.mpi.constructors import Type_contiguous, Type_vector
    from repro.mpi.datatype import BYTE, FLOAT

    rank, size = ctx.rank, comm.Get_size()
    shape = Type_contiguous(128, BYTE) if contiguous else Type_vector(8, 16, 32, BYTE)
    t = comm.Type_commit(shape)
    slot = 2 * 256
    alloc = ctx.gpu.malloc if device else ctx.gpu.host_alloc

    def buffers(nbytes: int):
        send, recv = alloc(nbytes), alloc(nbytes)
        send.data[:] = (np.arange(nbytes) * (rank + 3) % 251).astype(np.uint8)
        return send, recv

    typed = {"sendtypes": t, "recvtypes": t}
    peers = tuple(range(size))
    elements = tuple(1 + (rank + peer) % 2 for peer in peers)
    nbytes = tuple(64 + 16 * ((rank + peer) % 3) for peer in peers)
    displs = tuple(peer * slot for peer in peers)
    neighbors = ((rank - 1) % size, (rank + 1) % size)
    near = tuple(elements[peer] for peer in neighbors)
    near_bytes = tuple(nbytes[peer] for peer in neighbors)
    near_displs = (0, slot)
    gathered = tuple(1 + peer % 2 for peer in peers)
    gathered_bytes = tuple(64 + 16 * peer for peer in peers)

    calls = []

    def add(name, method, nbytes_each, make_args, kwargs):
        send, recv = buffers(nbytes_each)
        calls.append(TwinCall(name, method, make_args(send, recv), kwargs, recv))

    add("alltoallv_byte", "Alltoallv", slot * size,
        lambda s, r: (s, nbytes, displs, r, nbytes, displs), {})
    add("alltoallv_typed", "Alltoallv", slot * size,
        lambda s, r: (s, elements, displs, r, elements, displs), typed)
    add("neighbor_alltoallv_byte", "Neighbor_alltoallv", slot * 2,
        lambda s, r: (neighbors, s, near_bytes, near_displs, r, near_bytes, near_displs), {})
    add("neighbor_alltoallv_typed", "Neighbor_alltoallv", slot * 2,
        lambda s, r: (neighbors, s, near, near_displs, r, near, near_displs), typed)
    add("allgather_byte", "Allgather", slot * size, lambda s, r: (s, 96, r), {})
    add("allgather_typed", "Allgather", slot * size, lambda s, r: (s, 2, r),
        {"sendtype": t, "recvtype": t})
    add("allgatherv_byte", "Allgatherv", slot * size,
        lambda s, r: (s, gathered_bytes[rank], r, gathered_bytes, displs), {})
    add("allgatherv_typed", "Allgatherv", slot * size,
        lambda s, r: (s, gathered[rank], r, gathered, displs), {"sendtype": t, "recvtypes": t})
    send, recv = buffers(4 * 64)
    send.data[:] = np.arange(64 * rank, 64 * rank + 64, dtype=np.float32).view(np.uint8)
    calls.append(
        TwinCall("allreduce", "Allreduce", ((send, 64, FLOAT), (recv, 64, FLOAT)), {"op": "sum"}, recv)
    )
    send, _ = buffers(slot)
    calls.append(TwinCall("bcast", "Bcast", ((send, 1, t),), {"root": 1}, send))
    return calls


def run_collective_twins(model) -> dict:
    """Every collective, blocking and split-phase, on three library set-ups.

    ``system`` is the plain communicator, ``tempi`` the interposed one on
    device buffers (typed calls compile to plans, byte calls fall through),
    ``tempi_host`` the interposed one on host buffers (everything falls
    through).  Per entry point: ``TWIN_ROUNDS`` blocking calls, then as many
    ``I…().Wait()`` calls; the rank's clock and receive digest are frozen
    after each half, the NIC and ``InterposerStats`` at the end.
    """
    from repro.mpi.world import World
    from repro.tempi.interposer import interpose

    def program(ctx, interposed: bool, device: bool):
        comm = interpose(ctx, model=model) if interposed else ctx.comm
        phases = {}
        for call in twin_calls(ctx, comm, device=device):
            for _ in range(TWIN_ROUNDS):
                call.blocking(comm)
            phases[call.name] = (ctx.clock.now.hex(), call.recv.data.tobytes())
            if call.has_split(comm):
                call.recv.data[:] = 0
                for _ in range(TWIN_ROUNDS):
                    call.split(comm).Wait()
                phases["i" + call.name] = (ctx.clock.now.hex(), call.recv.data.tobytes())
        stats = {}
        if interposed:
            stats = {name: getattr(comm.stats, name) for name in TWIN_STATS}
            stats["method_counts"] = dict(comm.stats.method_counts)
        return phases, stats

    setups = {"system": (False, True), "tempi": (True, True), "tempi_host": (True, False)}
    fixture = {}
    for label, (interposed, device) in setups.items():
        world = World(TWIN_RANKS, ranks_per_node=2)
        results = world.run(program, interposed, device)
        nic = world.nic
        fixture[label] = {
            # Per phase: every rank's clock, one digest over all ranks' bytes.
            "phases": {
                name: {
                    "clocks": [phases[name][0] for phases, _ in results],
                    "recv_sha256": hashlib.sha256(
                        b"".join(phases[name][1] for phases, _ in results)
                    ).hexdigest(),
                }
                for name in results[0][0]
            },
            # Per counter: every rank's value.
            "stats": {
                name: [stats[name] for _, stats in results] for name in results[0][1]
            },
            "nic_fingerprint": nic.state_fingerprint(),
            "reservations": nic.reservations,
            "stalls": nic.stalls,
            "ingests": nic.ingests,
            "ingest_stalls": nic.ingest_stalls,
        }
    return fixture


def _hexed(value) -> str:
    """A twin's result on one line: floats as ``float.hex()``, the rest as ``str``."""
    fields = dataclasses.astuple(value) if dataclasses.is_dataclass(value) else (value,)
    return " ".join(f.hex() if isinstance(f, float) else str(f) for f in fields)


def run_twins() -> dict:
    """Every public analytic twin over a grid wider than any figure reads.

    Pure functions of their arguments (no measured model, no threads): the
    halo/fused/overlap/contended breakdowns over nodes x ranks-per-node x
    plans x accounting switches at the paper's 256^3 geometry and a 32^3
    one, the incast over senders x message sizes, the fat-tree burst over
    flows x oversubscription x both fabric modes, every allreduce schedule
    flat and on a fat-tree, the MoE round over skews, and the pipeline
    chain over stages x microbatches.
    """
    from repro.apps import exchange_model as twins
    from repro.apps.halo import HaloSpec
    from repro.apps.moe import MoESpec, moe_counts
    from repro.machine.topology import Topology, TopologySpec

    specs = {"paper": HaloSpec.paper(), "32": HaloSpec(nx=32, ny=32, nz=32)}
    shapes = [(nodes, rpn) for nodes in TWIN_NODES for rpn in (1, 2, 6)]
    halo, contended, efficiency = {}, {}, {}
    for label, spec in specs.items():
        for nodes, rpn in shapes:
            at = f"{label}:{nodes}x{rpn}"
            halo[at] = {
                "baseline": _hexed(twins.model_halo_exchange(nodes, rpn, spec=spec, tempi=False)),
                "tempi": _hexed(twins.model_halo_exchange(nodes, rpn, spec=spec, tempi=True)),
                "fused": _hexed(twins.model_fused_exchange(nodes, rpn, spec=spec)),
                "overlap": _hexed(twins.model_overlap_exchange(nodes, rpn, spec=spec)),
            }
            if nodes not in TWIN_CONTENDED_NODES:
                continue
            for plans in (1, 2, 4, 8):
                efficiency[f"{at}:{plans}"] = _hexed(
                    twins.overlap_efficiency(nodes, rpn, plans=plans, spec=spec)
                )
                for shared_nic in (True, False):
                    for nic in ("duplex", "inject_only"):
                        contended[f"{at}:{plans}:{shared_nic}:{nic}"] = _hexed(
                            twins.model_contended_exchange(
                                nodes, rpn, plans=plans, spec=spec,
                                shared_nic=shared_nic, nic=nic,
                            )
                        )

    incast = {}
    for senders in TWIN_SENDERS:
        for nbytes in TWIN_NBYTES:
            for nic in ("duplex", "inject_only"):
                incast[f"{senders}:{nbytes}:{nic}"] = _hexed(
                    twins.model_duplex_exchange(senders, nbytes, nic=nic)
                )
            incast[f"{senders}:{nbytes}:efficiency"] = _hexed(
                twins.incast_efficiency(senders, nbytes)
            )

    fabric = {}
    for oversubscription in (1.0, 2.0, 4.0):
        spec = TopologySpec(
            ranks_per_node=2, rails_per_node=1, leaf_radix=8,
            oversubscription=oversubscription,
        )
        for flows in range(1, 9):
            at = f"{oversubscription}:{flows}"
            for mode in ("shared", "independent"):
                fabric[f"{at}:{mode}"] = _hexed(
                    twins.model_fabric_exchange(flows, 1 << 20, spec=spec, fabric=mode)
                )
            fabric[f"{at}:efficiency"] = _hexed(
                twins.uplink_efficiency(flows, 1 << 20, spec=spec)
            )

    fattree = TopologySpec(**json.loads((REPO / "examples" / "topology_fattree.json").read_text()))
    allreduce = {}
    for nranks in TWIN_ALLREDUCE_RANKS:
        placed = {"flat": None, "fattree": Topology(nranks, spec=fattree)}
        for where, topology in placed.items():
            for count in (16, 4096, 1 << 18):
                at = f"{where}:{nranks}:{count}"
                for algorithm in ("ring", "tree", "hierarchical"):
                    allreduce[f"{at}:{algorithm}"] = _hexed(
                        twins.model_allreduce(
                            nranks, count, 4, algorithm=algorithm, topology=topology
                        )
                    )
                allreduce[f"{at}:speedup"] = _hexed(
                    twins.allreduce_hierarchy_speedup(nranks, count, 4, topology=topology)
                )

    moe = {}
    for nranks in (4, 8):
        for skew in (1.0, 2.0, 4.0, 8.0):
            spec = MoESpec(skew=skew)
            for nic in ("duplex", "inject_only"):
                moe[f"{nranks}:{skew}:{nic}"] = _hexed(
                    twins.model_moe_exchange(
                        moe_counts(spec, nranks), spec.token_bytes,
                        hot_expert=spec.hot_expert, nic=nic,
                    )
                )

    pipeline = {}
    for stages in range(1, 9):
        placed = {"flat": None, "fattree": Topology(stages, spec=fattree)}
        for where, topology in placed.items():
            for microbatches in (1, 4):
                pipeline[f"{where}:{stages}:{microbatches}"] = _hexed(
                    twins.model_pipeline_chain(
                        stages, microbatches, 1 << 16, topology=topology
                    )
                )

    return {
        "halo": halo, "contended": contended, "overlap_efficiency": efficiency,
        "incast": incast, "fabric": fabric, "allreduce": allreduce, "moe": moe,
        "pipeline": pipeline,
    }


def run_measurement(measurement) -> dict:
    """The measurement file's payload with every latency as ``float.hex()``.

    The free-form ``notes`` are left out: they are metadata, not latencies.
    """
    def hexed(value):
        if isinstance(value, list):
            return [hexed(item) for item in value]
        return value.hex() if isinstance(value, float) else value

    payload = measurement.to_dict()
    del payload["notes"]
    return {name: hexed(value) for name, value in payload.items()}


def build_fixture(model) -> dict:
    """Run the pinned sweeps and shape them into a JSON-native document."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import bench_allreduce as allreduce
        import bench_fig9_selection as fig9
        import bench_fig14_overlap as fig14
        import bench_fig15_contention as fig15
        import bench_incast as incast
        import bench_moe as moe
    finally:
        sys.path.remove(str(BENCHMARKS))

    grid = fig9.run_grid(model, FIG9_SIZES, FIG9_BLOCKS, FIG9_LOADS)
    bursts = fig9.run_bursts(FIG9_BURSTS, model)
    overlap = {
        str(nranks): {
            "serial": fig14._exchange_latency(nranks, model, mode="neighbor", overlap=False),
            "overlapped": fig14._exchange_latency(nranks, model, mode="neighbor", overlap=True),
            "packed": fig14._exchange_latency(nranks, model, mode="packed", overlap=True),
            "nonblocking": fig14._exchange_latency(nranks, model, mode="overlap", overlap=True),
        }
        for nranks in FIG14_RANKS
    }
    contention = fig15.run_sweep(FIG15_PLANS, model)
    incasts = {
        str(senders): {
            "duplex": row["duplex"],
            "inject": row["inject"],
            "duplex_stalls": row["duplex_stalls"],
            "analytic": row["analytic"].completion_s,
            "efficiency": row["efficiency"],
        }
        for senders, row in incast.run_incasts(INCAST_SENDERS, model).items()
    }

    allreduces = {
        str(nodes): {
            "ring": row["ring"]["clocks"],
            "tree": row["tree"]["clocks"],
            "hierarchical": row["hierarchical"]["clocks"],
            "auto": row["auto"]["clocks"],
            "digest": row["ring"]["digest"],
            "analytic_speedup": row["analytic_speedup"],
        }
        for nodes, row in allreduce.run_allreduces(ALLREDUCE_NODES, model).items()
    }
    moes = {
        str(skew): {
            "clocks": row["result"].clocks,
            "ingest_stalls": row["result"].rank_ingest_stalls,
            "hot_excess": row["excess"],
            "digests": row["result"].digests,
            "twin_hot_stalled_s": row["twin"].hot_ingest_stalled_s,
            "twin_cold_stalled_s": row["twin"].cold_ingest_stalled_s,
        }
        for skew, row in moe.run_moes(MOE_SKEWS, model).items()
    }

    return {
        "schema": 1,
        "fig9": {
            "grid": {
                f"{size}x{block}": {str(load): method for load, method in cell.items()}
                for (size, block), cell in grid.items()
            },
            "bursts": {str(background): row for background, row in bursts.items()},
        },
        "fig14": overlap,
        "fig15": {str(plans): row for plans, row in contention.items()},
        "incast": incasts,
        "allreduce": allreduces,
        "moe": moes,
        "alltoallv_uniform": run_alltoallv_uniform(model),
        "collective_twins": run_collective_twins(model),
        "twins": run_twins(),
        "measurement": run_measurement(model.measurement),
    }


#: Stands for a key or index one side of :func:`changed_leaves` lacks.
_MISSING = object()


def changed_leaves(old, new, path: str = "") -> list[str]:
    """Dotted paths of every leaf where ``new`` differs from ``old``.

    Dicts recurse by key (sorted), lists by index; a key or index present on
    one side only is one changed leaf at its path, whatever lies under it.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted(set(old) | set(new), key=str)
        children = [(key, old.get(key, _MISSING), new.get(key, _MISSING)) for key in keys]
    elif isinstance(old, list) and isinstance(new, list):
        children = [
            (index,
             old[index] if index < len(old) else _MISSING,
             new[index] if index < len(new) else _MISSING)
            for index in range(max(len(old), len(new)))
        ]
    else:
        return [] if old == new else [path]
    changed = []
    for key, before, after in children:
        changed += changed_leaves(before, after, f"{path}.{key}" if path else str(key))
    return changed


def main(argv=None) -> int:
    from repro.machine.spec import SUMMIT
    from repro.tempi.measurement import measure_system
    from repro.tempi.perf_model import PerformanceModel

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff", action="store_true",
        help="print the leaves that differ from the committed fixture instead of writing it",
    )
    args = parser.parse_args(argv)
    model = PerformanceModel(measure_system(SUMMIT))
    fixture = build_fixture(model)
    if args.diff:
        # The JSON round-trip is the one the replay test compares after.
        changed = changed_leaves(
            json.loads(FIXTURE.read_text()), json.loads(json.dumps(fixture))
        )
        for leaf in changed:
            print(leaf)
        print(f"{len(changed)} leaves differ from {FIXTURE.relative_to(REPO)}", file=sys.stderr)
        return 1 if changed else 0
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

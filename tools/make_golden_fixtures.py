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
``tests/fixtures/golden_figures.json``, and
``tests/test_golden_figures.py`` replays them under exact equality every
tier-1 run.  Any change that moves a priced figure value — however small —
fails the replay and must either be a bug or come with a deliberate
fixture regeneration:

    PYTHONPATH=src python tools/make_golden_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

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
    }


def main() -> int:
    from repro.machine.spec import SUMMIT
    from repro.tempi.measurement import measure_system
    from repro.tempi.perf_model import PerformanceModel

    model = PerformanceModel(measure_system(SUMMIT))
    fixture = build_fixture(model)
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

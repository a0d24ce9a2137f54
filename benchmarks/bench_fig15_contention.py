"""Figure 15 (beyond the paper): NIC saturation under concurrent plans.

PR 2 priced the wire per plan: concurrent ``Ialltoallv``s never contended for
the rank's injection port, so the simulator over-reported the overlap win
exactly where injection-rate limits should bite.  The progress engine's
shared :class:`~repro.machine.nic.NicTimeline` fixes that, and this harness
measures what the fix changes: each rank launches *k* concurrent typed
``Ialltoallv`` plans (wire-bound 256 KiB-per-peer messages across nodes) and
the sweep compares three accountings on identical plans and identical bytes:

* **serial** — ``TempiConfig(overlap=False)``: the k exchanges run blocking,
  back-to-back;
* **shared** — ``TempiConfig(progress="shared")`` (the default, duplex NIC):
  the honest two-sided engine; all k plans' messages serialise on the
  injection port and per-peer links *and* land through each receiver's
  ingestion port;
* **inject** — ``TempiConfig(nic="inject_only")``: the PR-3/PR-4 send-side
  books (injection and links, no ingestion);
* **per_plan** — ``TempiConfig(progress="per_plan")``: the PR-2 ablation;
  each plan prices its wire in isolation.

The headline curve is the **overlap efficiency** — the per-plan (uncontended)
time-to-last-arrival over the shared (contended) one.  It is 1.0 at ``k=1``
(where the inject-only books reproduce the PR-2 totals exactly — the shared
duplex engine may already price above them, because an all-to-all whose
ranks walk peers in the same order incasts the low ranks) and degrades
monotonically as the burst saturates the port, which is where the per-plan
accounting's overlap speedup becomes fiction: at ``k≥2`` the honest speedup
over the serial engine is strictly below the per-plan claim.  The analytic
companion is :func:`repro.apps.exchange_model.overlap_efficiency`; the
receive-side skew in isolation is ``bench_incast.py``.

Run through the figure table (``--smoke`` is the CI sweep, ``--full`` the
larger one):

    PYTHONPATH=src python -m repro.cli figures --only fig15
"""

from __future__ import annotations

from typing import Optional

from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.request import Request
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose

#: Wire-bound message shape: 1024 × 256 B blocks = 256 KiB packed per peer
#: per plan, far above the pack-kernel cost at inter-node bandwidth.
VECTOR = dict(nblocks=1024, block=256, pitch=512)

NRANKS = 4  # one rank per node: every wire peer is inter-node
PLAN_SWEEPS = {"smoke": (1, 2), "default": (1, 2, 4), "full": (1, 2, 4, 8)}


def measure_burst(
    nranks: int,
    plans: int,
    model,
    *,
    progress: str = "shared",
    nic: str = "duplex",
    serial: bool = False,
) -> tuple[float, float]:
    """Run a k-plan burst; returns ``(last_arrival_s, total_s)`` (max over ranks).

    ``last_arrival_s`` is the virtual time from the burst's start until the
    last message of the last plan lands (read through the requests' arrival
    hints, i.e. the quantity the NIC timeline governs); ``total_s`` includes
    the receive-side unpacks.
    """
    config = (
        TempiConfig(overlap=False)
        if serial
        else TempiConfig(progress=progress, nic=nic)
    )

    def program(ctx):
        comm = interpose(ctx, config, model=model)
        datatype = comm.Type_commit(Type_vector(VECTOR["nblocks"], VECTOR["block"], VECTOR["pitch"], BYTE))
        size = comm.Get_size()
        send = ctx.gpu.malloc(datatype.extent * size)
        recvs = [ctx.gpu.malloc(datatype.extent * size) for _ in range(plans)]
        counts = [1] * size
        displs = [peer * datatype.extent for peer in range(size)]

        def exchange(recv, *, blocking: bool) -> Optional[Request]:
            args = (send, counts, displs, recv, counts, displs)
            if blocking:
                comm.Alltoallv(*args, sendtypes=datatype, recvtypes=datatype)
                return None
            return comm.Ialltoallv(*args, sendtypes=datatype, recvtypes=datatype)

        exchange(recvs[0], blocking=False).Wait()  # warm staging + model queries
        comm.Barrier()
        start = ctx.clock.now
        if serial:
            for recv in recvs:
                exchange(recv, blocking=True)
            return ctx.clock.now - start, ctx.clock.now - start
        requests = [exchange(recv, blocking=False) for recv in recvs]
        comm.Barrier()  # wall-clock sync: every rank's sends are now posted
        last_arrival = max(request.arrival_hint() for request in requests) - start
        Request.Waitall(requests)
        return last_arrival, ctx.clock.now - start

    world = World(nranks, ranks_per_node=1)
    results = world.run(program)
    return max(r[0] for r in results), max(r[1] for r in results)


def run_sweep(plan_counts, model, nranks: int = NRANKS) -> dict[int, dict[str, float]]:
    """The Fig. 15 sweep: serial / shared / per_plan at each plan count."""
    table: dict[int, dict[str, float]] = {}
    for plans in plan_counts:
        serial, _ = measure_burst(nranks, plans, model, serial=True)
        shared_arrival, shared_total = measure_burst(nranks, plans, model, progress="shared")
        inject_arrival, inject_total = measure_burst(
            nranks, plans, model, progress="shared", nic="inject_only"
        )
        per_plan_arrival, per_plan_total = measure_burst(nranks, plans, model, progress="per_plan")
        table[plans] = dict(
            serial=serial,
            shared_arrival=shared_arrival,
            shared_total=shared_total,
            inject_arrival=inject_arrival,
            inject_total=inject_total,
            per_plan_arrival=per_plan_arrival,
            per_plan_total=per_plan_total,
            efficiency=per_plan_arrival / shared_arrival,
        )
    return table

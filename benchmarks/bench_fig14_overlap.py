"""Figure 14 (beyond the paper): overlapping pack kernels with wire time.

PR 1's interposed collectives packed every peer's segment, then posted every
message — pack time and wire time added up ("the engine currently packs then
posts per peer serially", as the roadmap put it).  The plan-based engine
compiles the same collective to a :class:`~repro.tempi.plan.MessagePlan` and
executes it overlapped: each peer's pack kernels run on their own stream and
that peer's message enters the NIC the moment its pack completes, so peer
*k+1* packs while peer *k*'s bytes fly.

This harness runs the 26-direction halo exchange at several world sizes and
compares three engines head-to-head on identical plans and identical bytes:

* **serial** — ``TempiConfig(overlap=False)``: the PR-1 schedule;
* **overlap** — ``TempiConfig(overlap=True)``: the pipelined schedule;
* **isend/irecv** — ``mode="overlap"``: the same pipeline built by the
  application out of per-direction ``Isend``/``Irecv``/``Waitall``, the way
  real halo codes hide pack latency.

``repro figures --full`` runs the larger grid.
"""

from __future__ import annotations

from repro.apps.halo import HaloSpec
from repro.apps.stencil import HaloExchange
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose

#: Per-rank sub-domain: large enough that per-peer packs are worth hiding.
SPEC = HaloSpec(nx=16, ny=16, nz=16, radius=2, fields=4, bytes_per_field=8)

RANK_SWEEPS = {"smoke": (2, 4, 8), "default": (2, 4, 8), "full": (2, 4, 8, 12)}


def exchange_latency(nranks: int, summit_model, *, mode: str, overlap: bool) -> float:
    """Steady-state halo-exchange latency (max over ranks), simulated seconds."""
    config = TempiConfig(overlap=overlap)

    def program(ctx):
        comm = interpose(ctx, config, model=summit_model)
        app = HaloExchange(ctx, comm, SPEC, mode=mode)
        timings = app.run(iterations=2)  # iteration 1 warms staging + queries
        return timings[-1].total_s

    world = World(nranks, ranks_per_node=min(nranks, 4))
    return max(world.run(program))


def run_sweep(rank_counts, summit_model):
    """The four engines' latencies at each world size."""
    return {
        nranks: dict(
            serial=exchange_latency(nranks, summit_model, mode="neighbor", overlap=False),
            overlapped=exchange_latency(nranks, summit_model, mode="neighbor", overlap=True),
            packed=exchange_latency(nranks, summit_model, mode="packed", overlap=True),
            nonblocking=exchange_latency(nranks, summit_model, mode="overlap", overlap=True),
        )
        for nranks in rank_counts
    }

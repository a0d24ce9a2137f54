"""Figure 12: 3-D stencil halo exchange on up to 3072 ranks.

Fig. 12a breaks one halo exchange into MPI_Pack, (neighbor) all-to-all-v and
MPI_Unpack across a sweep of nodes x ranks-per-node; Fig. 12b reports the
whole-exchange speedup of TEMPI over the baseline, which shrinks with scale
because the (unchanged) communication grows while the (accelerated)
pack/unpack stays constant.

Two harnesses:

* a functional 8-rank run with a reduced grid, moving real bytes through the
  interposed pack -> alltoallv -> unpack pipeline and verifying ghost cells;
* the analytic paper-scale model for the full node sweep (1-512 nodes x 1/2/6
  ranks per node, 256^3 points per rank), which prices the pack and unpack
  phases with the functional path's cost expressions and books each rank's
  all-to-all-v messages on a ``NicTimeline``, as TEMPI's serial engine does
  (the functional run's system ``Alltoallv`` prices the discounted sum).
"""

from __future__ import annotations

from repro.apps.exchange_model import model_halo_exchange
from repro.apps.halo import HaloSpec
from repro.apps.stencil import HaloExchange, aggregate_timings
from repro.mpi.world import World
from repro.tempi.interposer import interpose

#: The paper's node sweep (Fig. 12's x-axis), trimmed of repeats.
NODE_SWEEP = [(n, rpn) for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512) for rpn in (1, 2, 6)]
FUNCTIONAL_SPEC = HaloSpec(nx=8, ny=8, nz=8, radius=2, fields=4, bytes_per_field=8)


def functional_exchange(summit_model, use_tempi: bool):
    def program(ctx):
        comm = interpose(ctx, model=summit_model) if use_tempi else ctx.comm
        app = HaloExchange(ctx, comm, FUNCTIONAL_SPEC)
        timings = app.run(iterations=2, verify=True)
        return timings[-1]

    world = World(8, ranks_per_node=4)
    return aggregate_timings(world.run(program))


def phases_at_scale():
    """Fig. 12a: the TEMPI phase breakdown at every point of :data:`NODE_SWEEP`."""
    return {(nodes, rpn): model_halo_exchange(nodes, rpn, tempi=True) for nodes, rpn in NODE_SWEEP}


def speedups_at_scale():
    """Fig. 12b: whole-exchange speedup over the baseline at every sweep point."""
    return {
        (nodes, rpn): model_halo_exchange(nodes, rpn, tempi=False).total_s
        / model_halo_exchange(nodes, rpn, tempi=True).total_s
        for nodes, rpn in NODE_SWEEP
    }

"""Figure 11: MPI_Send/MPI_Recv latency with datatype acceleration.

Fig. 11a compares, for 1 KiB / 1 MiB / 4 MiB 2-D objects over a range of
contiguous block lengths, the send latency of the one-shot method, the device
method, the model-based automatic selection and the Spectrum baseline.
Fig. 11b normalises the three TEMPI variants to show the automatic selection
reliably tracks the faster method.

By default a representative subset of block lengths is run functionally
(every mode through the real interposed send path on a two-rank world);
``repro figures --full`` runs the full 27-configuration grid.
"""

from __future__ import annotations

from repro.bench.workloads import Fig11Config, fig11_configurations
from repro.mpi.world import World
from repro.tempi.config import PackMethod, TempiConfig
from repro.tempi.interposer import interpose

SUBSET_BLOCKS = (1, 8, 64, 256)
MODES = ("baseline", "oneshot", "device", "auto")


def _configs(sweep: str):
    if sweep == "full":
        return fig11_configurations()
    return [c for c in fig11_configurations() if c.block_bytes in SUBSET_BLOCKS]


def send_latency(config: Fig11Config, mode: str, summit_model) -> float:
    """Steady-state send+recv latency (max over the two ranks), simulated."""

    def program(ctx):
        if mode == "baseline":
            comm = ctx.comm
            ctx.comm.baseline.move_data = False  # timing-only for huge block counts
        else:
            method = {
                "oneshot": PackMethod.ONESHOT,
                "device": PackMethod.DEVICE,
                "auto": PackMethod.AUTO,
            }[mode]
            comm = interpose(ctx, TempiConfig(method=method), model=summit_model)
        datatype = comm.Type_commit(config.build())
        buffer = ctx.gpu.malloc(datatype.extent)
        # Warm-up so intermediate buffers come from the resource cache.
        if ctx.rank == 0:
            comm.Send((buffer, 1, datatype), dest=1, tag=0)
            start = ctx.clock.now
            comm.Send((buffer, 1, datatype), dest=1, tag=1)
            return ctx.clock.now - start
        comm.Recv((buffer, 1, datatype), source=0, tag=0)
        start = ctx.clock.now
        comm.Recv((buffer, 1, datatype), source=0, tag=1)
        return ctx.clock.now - start

    world = World(2, ranks_per_node=1)
    return max(world.run(program))


def run_sweep(summit_model, sweep: str):
    results = {}
    for config in _configs(sweep):
        results[config] = {
            mode: send_latency(config, mode, summit_model) for mode in MODES
        }
    return results

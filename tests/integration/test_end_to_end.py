"""End-to-end integration tests: the paper's headline claims, in miniature.

These tests exercise the full stack — application code written against the
MPI surface, the TEMPI interposer, the simulated CUDA runtime, the network
model — and assert the qualitative results of the evaluation section:

* equivalent datatype constructions behave identically under TEMPI (Fig. 7);
* MPI_Pack on strided GPU data is orders of magnitude faster (Fig. 8);
* model-driven method selection picks the faster of one-shot/device (Fig. 11b);
* the halo exchange speeds up while remaining correct (Fig. 12).
"""

import numpy as np
import pytest

from repro.apps.halo import HaloSpec
from repro.apps.stencil import HaloExchange, aggregate_timings
from repro.bench.workloads import fig7_configurations
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.config import PackMethod, TempiConfig
from repro.tempi.interposer import TempiCommunicator, interpose


class TestEquivalentConstructionsBehaveIdentically:
    def test_all_fig7_constructions_pack_identically(self, summit_model):
        """Whatever construction the application used, TEMPI packs the same bytes."""
        geometry = fig7_configurations()[0].geometry
        configs = [c for c in fig7_configurations() if c.geometry == geometry]
        world = World(1)
        ctx = world.contexts[0]
        comm = interpose(ctx, model=summit_model)
        source = ctx.gpu.malloc(geometry.alloc_bytes)
        source.data[:] = np.random.default_rng(11).integers(
            0, 256, source.nbytes, dtype=np.uint8
        )
        packed_results = []
        for config in configs:
            datatype = comm.Type_commit(config.build())
            out = ctx.gpu.malloc(datatype.size)
            comm.Pack((source, 1, datatype), out, 0)
            packed_results.append(out.data.copy())
        reference = packed_results[0]
        assert all(np.array_equal(reference, other) for other in packed_results[1:])

    def test_kernel_parameters_identical_across_constructions(self, summit_model):
        world = World(1)
        comm = interpose(world.contexts[0], model=summit_model)
        geometry = fig7_configurations()[0].geometry
        specs = set()
        for config in fig7_configurations():
            if config.geometry != geometry:
                continue
            datatype = comm.Type_commit(config.build())
            handler = TempiCommunicator.handler_of(datatype)
            launch = handler.packer._plan(world.contexts[0].gpu, 1).launch
            specs.add((handler.packer.block.counts, launch.layout))
        assert len(specs) == 1


class TestPackSpeedupShape:
    @pytest.mark.parametrize("block_bytes,min_speedup", [(1, 1000), (8, 200), (128, 10)])
    def test_speedup_grows_as_blocks_shrink(self, summit_model, block_bytes, min_speedup):
        """Fig. 8: the baseline pays one memcpy per block, so smaller blocks
        mean larger TEMPI speedups."""
        object_bytes = 256 * 1024

        def measure(use_tempi):
            world = World(1)
            ctx = world.contexts[0]
            comm = interpose(ctx, model=summit_model) if use_tempi else ctx.comm
            nblocks = object_bytes // block_bytes
            t = comm.Type_commit(Type_vector(nblocks, block_bytes, 512, BYTE))
            src = ctx.gpu.malloc(t.extent)
            dst = ctx.gpu.malloc(t.size)
            start = ctx.clock.now
            comm.Pack((src, 1, t), dst, 0)
            return ctx.clock.now - start

        speedup = measure(False) / measure(True)
        assert speedup > min_speedup


class TestMethodSelectionAccuracy:
    def test_auto_matches_best_forced_method(self, summit_model):
        """Fig. 11b: the model-based selection tracks the faster forced method."""
        object_bytes, block = 1024 * 1024, 8
        times = {}
        for label, method in (
            ("oneshot", PackMethod.ONESHOT),
            ("device", PackMethod.DEVICE),
            ("auto", PackMethod.AUTO),
        ):
            def program(ctx, method=method):
                comm = interpose(ctx, TempiConfig(method=method), model=summit_model)
                nblocks = object_bytes // block
                t = comm.Type_commit(Type_vector(nblocks, block, 2 * block, BYTE))
                buf = ctx.gpu.malloc(t.extent)
                # warm the resource cache so steady-state latency is measured
                if ctx.rank == 0:
                    comm.Send((buf, 1, t), dest=1, tag=1)
                    start = ctx.clock.now
                    comm.Send((buf, 1, t), dest=1, tag=2)
                    return ctx.clock.now - start
                comm.Recv((buf, 1, t), source=0, tag=1)
                start = ctx.clock.now
                comm.Recv((buf, 1, t), source=0, tag=2)
                return ctx.clock.now - start

            results = World(2, ranks_per_node=1).run(program)
            times[label] = max(results)

        best_forced = min(times["oneshot"], times["device"])
        worst_forced = max(times["oneshot"], times["device"])
        # auto should be close to the better method, never close to the worse one
        assert times["auto"] <= best_forced * 1.2
        assert times["auto"] < worst_forced


class TestHaloExchangeEndToEnd:
    def test_tempi_accelerates_and_preserves_correctness(self, summit_model):
        spec = HaloSpec(nx=6, ny=6, nz=6, radius=2, fields=2, bytes_per_field=4)

        def program(ctx, use_tempi):
            comm = interpose(ctx, model=summit_model) if use_tempi else ctx.comm
            app = HaloExchange(ctx, comm, spec)
            timings = app.run(iterations=2, verify=True)
            return aggregate_timings(timings)

        baseline = World(4, ranks_per_node=2).run(program, False)
        accelerated = World(4, ranks_per_node=2).run(program, True)
        base_total = max(t.total_s for t in baseline)
        fast_total = max(t.total_s for t in accelerated)
        assert base_total / fast_total > 2

    def test_interposition_is_transparent_to_application_code(self, summit_model):
        """The same HaloExchange source runs against either communicator."""
        spec = HaloSpec(nx=5, ny=5, nz=5, radius=1, fields=1, bytes_per_field=8)

        def program(ctx):
            plain = HaloExchange(ctx, ctx.comm, spec)
            plain.run(iterations=1, verify=True)
            wrapped = HaloExchange(ctx, interpose(ctx, model=summit_model), spec)
            wrapped.run(iterations=1, verify=True)
            return True

        assert all(World(2, ranks_per_node=2).run(program))

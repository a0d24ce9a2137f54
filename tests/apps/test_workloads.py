"""ML-training workload suite: drivers, analytic twins and the schedule chooser.

Pins the tentpole contracts end to end:

* :func:`repro.tempi.selection.choose_allreduce_algorithm` — the pure
  topology-aware policy behind ``allreduce_algorithm="auto"``;
* the nonblocking ``Iallreduce`` path and the fallback gates;
* the MoE dispatch driver (stamp integrity, determinism, incast signal);
* the pipeline chain driver and its fill/drain shape;
* the analytic twins against the simulated paths — structural agreement
  (orderings, onsets, monotonicity), not absolute-seconds equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.exchange_model import (
    allreduce_hierarchy_speedup,
    model_allreduce,
    model_moe_exchange,
    model_pipeline_chain,
)
from repro.apps.moe import MoESpec, moe_counts, run_moe
from repro.apps.pipeline import PipelineSpec, run_pipeline
from repro.machine.spec import SUMMIT
from repro.machine.topology import Topology, TopologySpec
from repro.mpi.datatype import FLOAT
from repro.mpi.request import Request
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose
from repro.tempi.selection import SelectionError, choose_allreduce_algorithm

FATTREE = TopologySpec(
    island_size=2,
    leaf_radix=2,
    oversubscription=8.0,
    rail_policy="island",
    rails_per_node=2,
    ranks_per_node=4,
)


def _fattree_topology(nodes: int) -> Topology:
    return Topology(nodes * FATTREE.ranks_per_node, machine=SUMMIT, spec=FATTREE)


class TestChooseAllreduceAlgorithm:
    def test_explicit_algorithm_always_wins(self):
        topology = _fattree_topology(2)
        for algorithm in ("ring", "tree", "hierarchical"):
            assert choose_allreduce_algorithm(
                8, 1 << 20, topology=topology, algorithm=algorithm
            ) == algorithm

    def test_unknown_algorithm_raises(self):
        with pytest.raises(SelectionError, match="unknown allreduce algorithm 'rabenseifner'"):
            choose_allreduce_algorithm(8, 1024, algorithm="rabenseifner")

    def test_two_ranks_degenerate_to_tree(self):
        assert choose_allreduce_algorithm(2, 1 << 24) == "tree"
        assert choose_allreduce_algorithm(1, 1 << 24) == "tree"

    def test_hierarchical_topology_takes_hierarchical(self):
        topology = _fattree_topology(2)
        assert choose_allreduce_algorithm(8, 1 << 20, topology=topology) == "hierarchical"
        # even below the tree cutoff: the topology term dominates
        assert choose_allreduce_algorithm(8, 1024, topology=topology) == "hierarchical"

    def test_flat_world_splits_on_size(self):
        assert choose_allreduce_algorithm(8, 1024) == "tree"
        assert choose_allreduce_algorithm(8, 1 << 20) == "ring"

    def test_config_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown allreduce algorithm"):
            TempiConfig(allreduce_algorithm="bcast")


def _interposed_allreduce(summit_model, nranks, count, *, nonblocking=False, config=None):
    def program(ctx):
        cfg = config if config is not None else TempiConfig()
        comm = interpose(ctx, cfg, model=summit_model)
        nbytes = count * FLOAT.size
        send = ctx.gpu.malloc(nbytes)
        recv = ctx.gpu.malloc(nbytes)
        values = np.full(count, float(ctx.rank + 1), dtype=np.float32)
        send.data[:nbytes] = values.view(np.uint8)
        if nonblocking:
            request = comm.Iallreduce((send, count, FLOAT), (recv, count, FLOAT))
            request.Wait()
        else:
            comm.Allreduce((send, count, FLOAT), (recv, count, FLOAT))
        stats = comm.stats
        result = recv.data[:nbytes].view(np.float32).copy()
        return ctx.clock.now, result, stats.collective_hits, stats.collective_fallbacks

    return World(nranks, ranks_per_node=2).run(program)


class TestAllreducePaths:
    def test_iallreduce_matches_blocking(self, summit_model):
        blocking = _interposed_allreduce(summit_model, 4, 256)
        nonblocking = _interposed_allreduce(summit_model, 4, 256, nonblocking=True)
        expected = float(sum(range(1, 5)))
        for row in blocking + nonblocking:
            assert np.all(row[1] == expected)
            assert row[2] == 1 and row[3] == 0  # accelerated, no fallback
        assert [row[1].tobytes() for row in blocking] == [
            row[1].tobytes() for row in nonblocking
        ]

    def test_iallreduce_fallback_returns_a_completed_request(self, summit_model):
        """Host buffers fall through to the system fan-in, which has run by
        the time ``Iallreduce`` returns: the request must say so.  It used to
        be a bare ``Request("null")`` whose ``Test`` answered False forever."""

        def program(ctx):
            comm = interpose(ctx, model=summit_model)
            send = ctx.gpu.host_alloc(4 * FLOAT.size)
            recv = ctx.gpu.host_alloc(4 * FLOAT.size)
            send.data[:] = np.full(4, float(ctx.rank + 1), np.float32).view(np.uint8)
            request = comm.Iallreduce((send, 4, FLOAT), (recv, 4, FLOAT))
            assert comm.stats.collective_fallbacks == 1
            assert request.completed
            done, status = request.Test()
            assert done and status is not None
            assert np.all(recv.data.view(np.float32) == 3.0)
            # Alongside a live receive, Waitany completes the receive.
            peer = 1 - ctx.rank
            inbox = np.zeros(8, dtype=np.uint8)
            receive = comm.Irecv(inbox, source=peer)
            comm.Send(np.full(8, ctx.rank + 7, dtype=np.uint8), dest=peer)
            index, _ = Request.Waitany([request, receive])
            assert index == 1 and np.all(inbox == peer + 7)
            return True

        assert all(World(2, ranks_per_node=2).run(program))

    def test_disabled_interposer_falls_back(self, summit_model):
        rows = _interposed_allreduce(
            summit_model, 3, 64, config=TempiConfig.disabled()
        )
        expected = float(sum(range(1, 4)))
        for row in rows:
            assert np.all(row[1] == expected)  # fallback still reduces correctly
            assert row[2] == 0


class TestAllreduceTwin:
    def test_twin_agrees_with_simulation_on_fattree_ordering(self, summit_model):
        """Where the simulator prices hierarchical < ring, so does the twin."""
        nodes = 2
        nranks = nodes * FATTREE.ranks_per_node
        count = 4096
        topology = _fattree_topology(nodes)

        def clocks_for(algorithm):
            def program(ctx):
                cfg = TempiConfig(allreduce_algorithm=algorithm)
                comm = interpose(ctx, cfg, model=summit_model)
                nbytes = count * FLOAT.size
                send = ctx.gpu.malloc(nbytes)
                recv = ctx.gpu.malloc(nbytes)
                send.data[:nbytes] = np.full(count, 1.0, np.float32).view(np.uint8)
                comm.Allreduce((send, count, FLOAT), (recv, count, FLOAT))
                return ctx.clock.now

            world = World(nranks, ranks_per_node=FATTREE.ranks_per_node, topology=FATTREE)
            return max(world.run(program))

        sim_ring, sim_hier = clocks_for("ring"), clocks_for("hierarchical")
        twin_ring = model_allreduce(nranks, count, FLOAT.size, algorithm="ring",
                                    topology=topology)
        twin_hier = model_allreduce(nranks, count, FLOAT.size, algorithm="hierarchical",
                                    topology=topology)
        assert sim_hier < sim_ring
        assert twin_hier.completion_s < twin_ring.completion_s
        assert allreduce_hierarchy_speedup(nranks, count, FLOAT.size,
                                           topology=topology) > 1.0

    def test_twin_round_counts_match_schedules(self):
        ring = model_allreduce(4, 1024, 4, algorithm="ring")
        tree = model_allreduce(4, 1024, 4, algorithm="tree")
        assert ring.rounds == 2 * (4 - 1)  # reduce-scatter + allgather
        assert tree.rounds < ring.rounds  # binomial: O(log N) up + down
        assert ring.completion_s > 0 and tree.completion_s > 0

    def test_twin_completion_grows_with_ranks(self):
        completions = [
            model_allreduce(nranks, 4096, 4, algorithm="ring").completion_s
            for nranks in (2, 4, 8)
        ]
        assert completions == sorted(completions)


class TestMoEWorkload:
    def test_counts_conserve_tokens_and_follow_skew(self, moe_seed):
        spec = MoESpec(tokens_per_rank=64, skew=8.0, seed=moe_seed)
        counts = moe_counts(spec, 8)
        assert counts.shape == (8, 8)
        assert np.all(counts.sum(axis=1) == 64)  # every sender routes all tokens
        hot = counts[:, 0].sum()
        cold = counts[:, 1:].sum(axis=0)
        assert hot > cold.max()  # the hot expert wins more than any cold one

    def test_run_moe_verifies_stamps_and_replays_identically(self, summit_model, moe_seed):
        spec = MoESpec(tokens_per_rank=8, token_bytes=4096, skew=4.0, seed=moe_seed)
        first = run_moe(4, spec, model=summit_model, verify=True)
        second = run_moe(4, spec, model=summit_model, verify=True)
        assert first.collective_fallbacks == 0
        assert first.clocks == second.clocks
        assert first.digests == second.digests

    def test_incast_signal_grows_with_skew(self, summit_model, moe_seed):
        def excess(skew):
            spec = MoESpec(tokens_per_rank=16, token_bytes=16384, skew=skew, seed=moe_seed)
            return run_moe(8, spec, model=summit_model).hot_excess_stalls(0)

        assert excess(1.0) < 2.0
        assert excess(4.0) >= 2.0

    def test_twin_onset_agrees(self, moe_seed):
        def twin(skew):
            spec = MoESpec(tokens_per_rank=16, token_bytes=16384, skew=skew, seed=moe_seed)
            return model_moe_exchange(moe_counts(spec, 8), spec.token_bytes)

        uniform, hot = twin(1.0), twin(8.0)
        assert uniform.hot_ingest_stalled_s <= uniform.cold_ingest_stalled_s
        assert hot.hot_ingest_stalled_s > hot.cold_ingest_stalled_s
        assert hot.hot_tokens > uniform.hot_tokens

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="token_bytes must be positive and even"):
            MoESpec(token_bytes=2047)
        with pytest.raises(ValueError, match="skew must be >= 1.0"):
            MoESpec(skew=0.5)
        with pytest.raises(ValueError, match="token_pad must be positive and even"):
            MoESpec(token_pad=0)


class TestPipelineWorkload:
    def test_pipeline_delivers_and_replays_identically(self, summit_model):
        spec = PipelineSpec(microbatches=3, activation_bytes=8192)
        first = run_pipeline(4, spec, model=summit_model)
        second = run_pipeline(4, spec, model=summit_model)
        assert first.clocks == second.clocks
        assert first.digests == second.digests
        # rank 0 stamped the payloads; the sink must hold the same bytes
        assert first.digests[-1] == first.digests[0]

    def test_completion_grows_with_depth_and_microbatches(self, summit_model):
        base = run_pipeline(3, PipelineSpec(microbatches=2), model=summit_model)
        deeper = run_pipeline(5, PipelineSpec(microbatches=2), model=summit_model)
        wider = run_pipeline(3, PipelineSpec(microbatches=6), model=summit_model)
        assert deeper.completion_s > base.completion_s
        assert wider.completion_s > base.completion_s

    def test_twin_shape_matches_simulation(self, summit_model):
        """The twin's fill/steady-state structure orders like the simulator."""
        twin_base = model_pipeline_chain(3, 2, 1 << 16)
        twin_deeper = model_pipeline_chain(5, 2, 1 << 16)
        twin_wider = model_pipeline_chain(3, 6, 1 << 16)
        assert twin_deeper.completion_s > twin_base.completion_s
        assert twin_wider.completion_s > twin_base.completion_s
        assert twin_base.fill_s > 0
        # steady state: adding a microbatch costs less than refilling the pipe
        per_extra = (twin_wider.completion_s - twin_base.completion_s) / 4
        assert per_extra < twin_base.fill_s + twin_base.hop_wire_s

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="microbatches must be positive"):
            PipelineSpec(microbatches=0)
        with pytest.raises(ValueError, match="activation_bytes must be positive and even"):
            PipelineSpec(activation_bytes=1001)

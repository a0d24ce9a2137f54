"""Tests for the analytic halo-exchange model (Fig. 12)."""

import dataclasses
import functools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import exchange_model
from repro.apps.exchange_model import (
    ExchangeBreakdown,
    incast_efficiency,
    model_contended_exchange,
    model_duplex_exchange,
    model_fabric_exchange,
    model_fused_exchange,
    model_halo_exchange,
    model_moe_exchange,
    model_overlap_exchange,
    overlap_efficiency,
    uplink_efficiency,
)
from repro.apps.halo import HaloSpec
from repro.apps.moe import MoESpec, moe_counts
from repro.machine.nic import NicTimeline, PostEvent, trace_default
from repro.machine.topology import Topology, TopologySpec
from repro.tempi.sanitizer import ClockSanitizer


def _tempi_speedup(nodes: int, ranks_per_node: int) -> float:
    """Whole-exchange speedup of TEMPI over the baseline (Fig. 12b)."""
    baseline = model_halo_exchange(nodes, ranks_per_node, tempi=False)
    return baseline.total_s / model_halo_exchange(nodes, ranks_per_node, tempi=True).total_s


class TestBreakdownBasics:
    def test_total_is_sum_of_phases(self):
        breakdown = ExchangeBreakdown(1, 1, 1, 0.1, 0.2, 0.3)
        assert breakdown.total_s == pytest.approx(0.6)

    def test_rank_count(self):
        breakdown = model_halo_exchange(8, 6)
        assert breakdown.nranks == 48
        assert breakdown.nodes == 8
        assert breakdown.ranks_per_node == 6

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            model_halo_exchange(0, 1)
        with pytest.raises(ValueError):
            model_halo_exchange(1, 0)


class TestShapes:
    """The qualitative Fig. 12 trends."""

    def test_baseline_pack_dwarfs_tempi_pack(self):
        baseline = model_halo_exchange(2, 6, tempi=False)
        accelerated = model_halo_exchange(2, 6, tempi=True)
        assert baseline.pack_s / accelerated.pack_s > 100

    def test_comm_phase_identical_between_modes(self):
        baseline = model_halo_exchange(4, 6, tempi=False)
        accelerated = model_halo_exchange(4, 6, tempi=True)
        assert baseline.comm_s == pytest.approx(accelerated.comm_s)

    def test_pack_time_independent_of_rank_count(self):
        """Fig. 12a: per-rank data volume is constant, so pack time is flat."""
        small = model_halo_exchange(1, 6, tempi=True)
        large = model_halo_exchange(64, 6, tempi=True)
        assert small.pack_s == pytest.approx(large.pack_s)

    def test_comm_grows_then_saturates_with_nodes(self):
        one = model_halo_exchange(1, 6, tempi=True)
        eight = model_halo_exchange(8, 6, tempi=True)
        many = model_halo_exchange(64, 6, tempi=True)
        assert eight.comm_s > one.comm_s
        assert many.comm_s >= eight.comm_s

    def test_unpack_slower_than_pack(self):
        breakdown = model_halo_exchange(8, 6, tempi=True)
        assert breakdown.unpack_s > breakdown.pack_s

    def test_speedup_decreases_with_scale(self):
        """Fig. 12b: communication dilutes the datatype-handling win."""
        small, mid, large = (_tempi_speedup(*shape) for shape in ((1, 1), (8, 6), (512, 6)))
        assert small > mid >= large

    def test_speedup_order_of_magnitude_matches_paper(self):
        """Paper: ~917x at 3072 ranks, thousands at small scale."""
        large = _tempi_speedup(512, 6)
        assert 50 < large < 20000
        small = _tempi_speedup(1, 1)
        assert small > large

    def test_smaller_domains_have_smaller_absolute_times(self):
        small_spec = HaloSpec(nx=64, ny=64, nz=64)
        small = model_halo_exchange(8, 6, spec=small_spec, tempi=True)
        paper = model_halo_exchange(8, 6, tempi=True)
        assert small.total_s < paper.total_s


class TestFusedCollectiveModel:
    """Pricing of the fused datatype-carrying collective (mode="neighbor")."""

    def test_fused_cheaper_than_packed_tempi(self):
        """Dropping the MPI_Pack loop (and its per-direction overheads) can
        only help: the fused collective is priced at or below the packed
        TEMPI exchange."""
        packed = model_halo_exchange(8, 6, tempi=True)
        fused = model_fused_exchange(8, 6)
        assert fused.total_s <= packed.total_s * 1.01

    def test_comm_phase_matches_packed_model(self):
        packed = model_halo_exchange(8, 6, tempi=True)
        fused = model_fused_exchange(8, 6)
        assert fused.comm_s == pytest.approx(packed.comm_s)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            model_fused_exchange(0, 1)
        with pytest.raises(ValueError):
            model_overlap_exchange(1, 0)


class TestOverlapPipelineModel:
    """Pricing of the overlapped plan-executor pipeline."""

    def test_phases_partition_the_makespan(self):
        breakdown = model_overlap_exchange(8, 6)
        assert breakdown.pack_s > 0
        assert breakdown.comm_s > 0
        assert breakdown.total_s == pytest.approx(
            breakdown.pack_s + breakdown.comm_s + breakdown.unpack_s
        )

    def test_overlap_wins_when_packs_matter(self):
        """With sizeable packs per peer the pipeline hides them behind the
        wire; the fused serial engine pays them up front."""
        spec = HaloSpec(nx=16, ny=16, nz=16, radius=2, fields=4, bytes_per_field=8)
        fused = model_fused_exchange(2, 4, spec=spec)
        assert fused.total_s / model_overlap_exchange(2, 4, spec=spec).total_s > 1.2

    def test_overlap_comm_dominated_at_paper_scale(self):
        """At 512x6 the wire dominates either engine; overlap neither helps
        much nor hurts (the pipeline's last message is undiscounted)."""
        ratio = model_fused_exchange(512, 6).total_s / model_overlap_exchange(512, 6).total_s
        assert 0.8 < ratio < 1.5

    def test_single_rank_is_all_local(self):
        breakdown = model_overlap_exchange(1, 1)
        assert breakdown.comm_s == 0.0
        assert breakdown.total_s > 0


class TestContendedModel:
    #: Wire-bound configuration: big halos, every peer off-node.
    SPEC = HaloSpec(nx=48, ny=48, nz=48, radius=3, fields=8, bytes_per_field=8)

    def test_single_plan_reduces_to_overlap_model(self):
        contended = model_contended_exchange(8, 1, plans=1, spec=self.SPEC)
        overlap = model_overlap_exchange(8, 1, spec=self.SPEC)
        assert contended.total_s == pytest.approx(overlap.total_s, rel=1e-12)
        assert contended.pack_s == pytest.approx(overlap.pack_s, rel=1e-12)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            model_contended_exchange(0, 1)
        with pytest.raises(ValueError):
            model_contended_exchange(2, 4, plans=0)

    def test_more_plans_cost_more(self):
        totals = [
            model_contended_exchange(8, 1, plans=k, spec=self.SPEC).total_s
            for k in (1, 2, 4)
        ]
        assert totals == sorted(totals)
        # Contended pricing never beats k independent plans stacked end to end.
        assert totals[1] > totals[0]

    def test_shared_nic_prices_above_per_plan(self):
        shared = model_contended_exchange(8, 1, plans=4, spec=self.SPEC)
        per_plan = model_contended_exchange(
            8, 1, plans=4, spec=self.SPEC, shared_nic=False
        )
        assert shared.total_s > per_plan.total_s

    def test_overlap_efficiency_degrades_monotonically(self):
        values = [
            overlap_efficiency(8, 1, plans=k, spec=self.SPEC) for k in (1, 2, 4, 8)
        ]
        assert values[0] == pytest.approx(1.0)
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9
        assert values[-1] < 0.75  # the port genuinely saturates

    def test_contended_speedup_stays_above_one(self):
        # Even saturated, overlapping still beats the serial engine run k times.
        fused = model_fused_exchange(8, 1, spec=self.SPEC)
        for k in (1, 2, 4):
            contended = model_contended_exchange(8, 1, plans=k, spec=self.SPEC)
            assert k * fused.total_s / contended.total_s > 1.0


class TestAnalyticMatchesSimulation:
    """The analytic fused/overlap engines against the functional executor.

    One world, 8 ranks on 2 nodes, device method forced so both sides price
    the same transfer path.  The analytic model ignores barriers and a few
    scheduling details, so agreement is asserted within 25%.
    """

    SPEC = HaloSpec(nx=16, ny=16, nz=16, radius=2, fields=4, bytes_per_field=8)

    @pytest.fixture(scope="class")
    def simulated(self, summit_model):
        from repro.apps.stencil import HaloExchange
        from repro.mpi.world import World
        from repro.tempi.config import PackMethod, TempiConfig
        from repro.tempi.interposer import interpose

        def run(overlap):
            config = TempiConfig(overlap=overlap, method=PackMethod.DEVICE)

            def program(ctx):
                comm = interpose(ctx, config, model=summit_model)
                app = HaloExchange(ctx, comm, self.SPEC, mode="neighbor")
                timings = app.run(iterations=2)
                return timings[-1].total_s

            return max(World(8, ranks_per_node=4).run(program))

        return {"serial": run(False), "overlap": run(True)}

    def test_serial_engine_matches_fused_model(self, simulated):
        model = model_fused_exchange(2, 4, spec=self.SPEC).total_s
        assert simulated["serial"] == pytest.approx(model, rel=0.25)

    def test_overlap_engine_matches_pipeline_model(self, simulated):
        model = model_overlap_exchange(2, 4, spec=self.SPEC).total_s
        assert simulated["overlap"] == pytest.approx(model, rel=0.25)

    def test_model_and_simulation_agree_on_the_winner(self, simulated):
        fused = model_fused_exchange(2, 4, spec=self.SPEC).total_s
        overlapped = model_overlap_exchange(2, 4, spec=self.SPEC).total_s
        assert overlapped < fused
        assert simulated["overlap"] < simulated["serial"]


class TestDuplexExchangeModel:
    """model_duplex_exchange / incast_efficiency: the receive-side skew."""

    NBYTES = 1 << 20

    def test_single_sender_is_never_delayed(self):
        from repro.apps.exchange_model import model_duplex_exchange

        duplex = model_duplex_exchange(1, self.NBYTES)
        inject = model_duplex_exchange(1, self.NBYTES, nic="inject_only")
        assert duplex == inject
        assert duplex.ingest_stalled_s == 0.0

    def test_inject_only_completion_is_flat_in_senders(self):
        from repro.apps.exchange_model import model_duplex_exchange

        completions = [
            model_duplex_exchange(n, self.NBYTES, nic="inject_only").completion_s
            for n in (1, 2, 4, 8)
        ]
        assert len(set(completions)) == 1  # idle ports: all arrivals coincide
        assert all(
            model_duplex_exchange(n, self.NBYTES, nic="inject_only").ingest_stalled_s == 0.0
            for n in (2, 8)
        )

    def test_duplex_completion_grows_by_the_port_quantum(self):
        from repro.apps.exchange_model import model_duplex_exchange
        from repro.machine.network import DEFAULT_WIRE_OVERLAP, NetworkModel
        from repro.machine.spec import SUMMIT

        wire = NetworkModel(SUMMIT).message_time(
            self.NBYTES, same_node=False, device_buffers=True
        )
        base = model_duplex_exchange(1, self.NBYTES).completion_s
        for senders in (2, 4, 8):
            breakdown = model_duplex_exchange(senders, self.NBYTES)
            assert breakdown.completion_s == pytest.approx(
                base + (senders - 1) * DEFAULT_WIRE_OVERLAP * wire
            )
            assert breakdown.first_landing_s == pytest.approx(base)

    def test_efficiency_curve_degrades_monotonically(self):
        from repro.apps.exchange_model import incast_efficiency

        values = [incast_efficiency(n, self.NBYTES) for n in (1, 2, 4, 8, 16)]
        assert values[0] == pytest.approx(1.0)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        from repro.apps.exchange_model import model_duplex_exchange

        with pytest.raises(ValueError):
            model_duplex_exchange(0, self.NBYTES)
        with pytest.raises(ValueError):
            model_duplex_exchange(2, 0)
        with pytest.raises(ValueError):
            model_duplex_exchange(2, self.NBYTES, nic="psychic")

    def test_balanced_walk_is_duplex_invariant(self):
        """The two-sided books leave a *balanced* exchange untouched: the
        mirror arrivals are already spaced by the injection-port rule, so the
        ingestion replay is an exact no-op (bit-for-bit)."""
        for plans in (1, 2, 4):
            duplex = model_contended_exchange(8, 1, plans=plans, nic="duplex")
            inject = model_contended_exchange(8, 1, plans=plans, nic="inject_only")
            assert duplex == inject

    @settings(max_examples=25, deadline=None)
    @given(
        nodes=st.integers(1, 12),
        ranks_per_node=st.integers(1, 6),
        plans=st.integers(1, 5),
        dims=st.tuples(st.integers(3, 24), st.integers(3, 24), st.integers(3, 24)),
        radius=st.integers(1, 3),
        fields=st.integers(1, 8),
    )
    def test_any_balanced_walk_is_duplex_invariant(
        self, nodes, ranks_per_node, plans, dims, radius, fields
    ):
        """The same claim for drawn shapes, through the real
        ``NicTimeline.ingest``: committing a balanced exchange's mirror
        arrivals delays none of them, field for field."""
        spec = HaloSpec(*dims, radius=radius, fields=fields)
        duplex, inject = (
            model_contended_exchange(nodes, ranks_per_node, plans=plans, spec=spec, nic=nic)
            for nic in ("duplex", "inject_only")
        )
        assert duplex == inject

    def test_contended_walk_validates_nic(self):
        with pytest.raises(ValueError):
            model_contended_exchange(2, 1, nic="psychic")




class TestBadTwinInputs:
    """Every twin rejects a bad argument by name, before pricing anything."""

    FATTREE = dict(ranks_per_node=2, rails_per_node=1, leaf_radix=4, oversubscription=2.0)

    @pytest.mark.parametrize(
        "call, named",
        [
            pytest.param(lambda m: m.model_duplex_exchange(2, 4096, block_length=0),
                         "block_length", id="incast-block_length-0"),
            pytest.param(lambda m: m.model_duplex_exchange(2, 4096, block_length=-1),
                         "block_length", id="incast-block_length-negative"),
            pytest.param(lambda m: m.model_fabric_exchange(
                             2, 4096, spec=TopologySpec(**TestBadTwinInputs.FATTREE), block_length=0),
                         "block_length", id="fabric-block_length-0"),
            pytest.param(lambda m: m.model_allreduce(4, 16, 4, ranks_per_node=0),
                         "ranks_per_node", id="allreduce-ranks_per_node-0"),
            pytest.param(lambda m: m.model_pipeline_chain(4, 2, 1024, ranks_per_node=0),
                         "ranks_per_node", id="pipeline-ranks_per_node-0"),
            pytest.param(lambda m: m.model_allreduce(4, 16, element_size=0),
                         "element_size", id="allreduce-element_size-0"),
            pytest.param(lambda m: m.model_allreduce(4, 16, algorithm="auto"),
                         "algorithm", id="allreduce-algorithm-auto"),
            pytest.param(lambda m: m.model_moe_exchange([[0, 2.7], [2, 0]], 64),
                         r"counts\[0\]\[1\]", id="moe-counts-fractional"),
            pytest.param(lambda m: m.model_moe_exchange([[0, -3], [2, 0]], 64),
                         r"counts\[0\]\[1\]", id="moe-counts-negative"),
            pytest.param(lambda m: m.model_moe_exchange([[0, float("nan")], [2, 0]], 64),
                         r"counts\[0\]\[1\]", id="moe-counts-nan"),
            pytest.param(lambda m: m.model_moe_exchange([[0, 1], [2, 0]], 64, hot_expert=7),
                         "hot_expert", id="moe-hot_expert-past-end"),
            pytest.param(lambda m: m.model_moe_exchange([[0, 1], [2, 0]], 64, hot_expert=-1),
                         "hot_expert", id="moe-hot_expert-negative"),
            pytest.param(lambda m: m.model_allreduce(8, 16, topology=Topology(4, 2)),
                         "topology", id="allreduce-topology-too-small"),
            pytest.param(lambda m: m.model_pipeline_chain(8, 2, 1024, topology=Topology(4, 2)),
                         "topology", id="pipeline-topology-too-small"),
        ],
    )
    def test_value_error_names_the_argument(self, call, named):
        from repro.apps import exchange_model

        with pytest.raises(ValueError, match=named):
            call(exchange_model)

    def test_first_declared_offender_wins(self):
        """Checks run in declaration order, so the message is predictable."""
        from repro.apps.exchange_model import model_duplex_exchange, model_moe_exchange

        with pytest.raises(ValueError, match="block_length"):
            model_duplex_exchange(2, 4096, block_length=0, nic="psychic")
        with pytest.raises(ValueError, match="counts"):
            model_moe_exchange([[0, -1], [2, 0]], 63, hot_expert=9, nic="psychic")


def _hexed(value):
    """A twin's result with every float as ``float.hex()``."""
    fields = dataclasses.astuple(value) if dataclasses.is_dataclass(value) else (value,)
    return tuple(f.hex() if isinstance(f, float) else f for f in fields)


def _fabric_spec(oversubscription: float) -> TopologySpec:
    return TopologySpec(
        ranks_per_node=2, rails_per_node=1, leaf_radix=8, oversubscription=oversubscription
    )


_HALO_SPECS = (HaloSpec.paper(), HaloSpec(nx=32, ny=32, nz=32))
_SHAPES = [(nodes, rpn) for nodes in (1, 2, 8) for rpn in (1, 2, 6)]
_INCASTS = [(senders, nbytes) for senders in (1, 2, 3, 4, 8, 16, 33)
            for nbytes in (1, 512, 4096, 1 << 16, 1 << 20, 1 << 22)]
_MOE = [MoESpec(skew=skew) for skew in (1.0, 2.0, 4.0, 8.0)]

#: Every twin that books on a ``NicTimeline``, called over its grid in
#: ``tools/make_golden_fixtures.py``'s ``run_twins``.
BOOKING_TWINS = {
    "model_halo_exchange": [
        functools.partial(model_halo_exchange, nodes, rpn, spec=spec, tempi=tempi)
        for spec in _HALO_SPECS for nodes, rpn in _SHAPES for tempi in (True, False)
    ],
    "model_fused_exchange": [
        functools.partial(model_fused_exchange, nodes, rpn, spec=spec)
        for spec in _HALO_SPECS for nodes, rpn in _SHAPES
    ],
    "model_contended_exchange": [
        functools.partial(model_contended_exchange, nodes, rpn, plans=plans, spec=spec,
                          shared_nic=shared_nic, nic=nic)
        for spec in _HALO_SPECS for nodes, rpn in _SHAPES for plans in (1, 2, 4, 8)
        for shared_nic in (True, False) for nic in ("duplex", "inject_only")
    ],
    "overlap_efficiency": [
        functools.partial(overlap_efficiency, nodes, rpn, plans=plans, spec=spec)
        for spec in _HALO_SPECS for nodes, rpn in _SHAPES for plans in (1, 2, 4, 8)
    ],
    "model_duplex_exchange": [
        functools.partial(model_duplex_exchange, senders, nbytes, nic=nic)
        for senders, nbytes in _INCASTS for nic in ("duplex", "inject_only")
    ],
    "incast_efficiency": [
        functools.partial(incast_efficiency, senders, nbytes) for senders, nbytes in _INCASTS
    ],
    "model_fabric_exchange": [
        functools.partial(model_fabric_exchange, flows, 1 << 20,
                          spec=_fabric_spec(oversubscription), fabric=fabric)
        for oversubscription in (1.0, 2.0, 4.0) for flows in range(1, 9)
        for fabric in ("shared", "independent")
    ],
    "uplink_efficiency": [
        functools.partial(uplink_efficiency, flows, 1 << 20, spec=_fabric_spec(oversubscription))
        for oversubscription in (1.0, 2.0, 4.0) for flows in range(1, 9)
    ],
    "model_moe_exchange": [
        functools.partial(model_moe_exchange, moe_counts(spec, nranks), spec.token_bytes,
                          hot_expert=spec.hot_expert, nic=nic)
        for nranks in (4, 8) for spec in _MOE for nic in ("duplex", "inject_only")
    ],
}


class TestTwinsOnTheSink:
    """A twin's private timelines carry the sink ``trace_default`` set when
    they were built, so ``repro sanitize`` audits the twins' walks."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every timeline the twins build, in build order."""
        timelines: list[NicTimeline] = []

        def recording(*args, **kwargs):
            timelines.append(NicTimeline(*args, **kwargs))
            return timelines[-1]

        monkeypatch.setattr(exchange_model, "NicTimeline", recording)
        return timelines

    @pytest.mark.parametrize("twin", list(BOOKING_TWINS))
    def test_a_traced_twin_prices_alike_and_posts_every_reservation(self, built, twin):
        for call in BOOKING_TWINS[twin]:
            built.clear()
            plain = _hexed(call())
            assert built and all(timeline.sink is None for timeline in built)

            built.clear()
            sanitizer, posts = ClockSanitizer(), Counter()

            def sink(timeline, event):
                if isinstance(event, PostEvent):
                    posts[id(timeline)] += 1
                sanitizer(timeline, event)

            with trace_default(sink):
                assert _hexed(call()) == plain
            assert sanitizer.counters["violations"] == 0
            assert [posts[id(timeline)] for timeline in built] == [
                timeline.reservations for timeline in built
            ]

    def test_contended_mirror_ingest_joins_every_post(self):
        """The duplex mirror ingest of ``model_contended_exchange`` names the
        rank that posted as each record's source, so every record matches
        its post's snapshot and the sanitizer joins all of them."""
        sanitizer = ClockSanitizer()
        with trace_default(sanitizer):
            model_contended_exchange(2, 6, plans=4)
        counters = sanitizer.counters
        assert (counters["posts"], counters["ingests"], counters["joins"]) == (264, 6, 264)

"""Tests for the unified method-selection subsystem (``tempi/selection.py``)."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import _load_figures
from repro.gpu.clock import VirtualClock
from repro.gpu.cost_model import FREE_GPU
from repro.gpu.runtime import CudaRuntime
from repro.machine.nic import NicTimeline
from repro.machine.spec import SUMMIT, summit_like
from repro.machine.topology import Topology, TopologySpec
from repro.mpi.world import World
from repro.tempi import interposer
from repro.tempi.cache import ResourceCache
from repro.tempi.config import MODEL_CACHED_QUERY_S, MODEL_QUERY_S, PackMethod, TempiConfig
from repro.tempi.executor import PlanExecutor
from repro.tempi.interposer import InterposerStats, Tempi, interpose
from repro.tempi.measurement import measure_system
from repro.tempi.packer import Packer
from repro.tempi.perf_model import PerformanceModel
from repro.tempi.selection import (
    NOOP_METHOD,
    ContendedSelector,
    FixedSelector,
    ModelSelector,
    SelectionError,
    contended_estimate,
    make_selector,
)
from repro.tempi.strided_block import StridedBlock

KIB = 1024
MIB = 1024 * 1024

#: The committed fat-tree example: two leaves of two 4-rank nodes (ranks 0-7
#: hang off leaf 0, 8-15 off leaf 1), two 2-rank islands and rails per node.
FATTREE = TopologySpec.load(
    Path(__file__).resolve().parents[2] / "examples" / "topology_fattree.json"
)


def packer_for(block_length: int) -> Packer:
    shape = StridedBlock(start=0, counts=(block_length, 64), strides=(1, 2 * block_length))
    return Packer(shape, object_extent=shape.extent)


class TestFixedSelector:
    def test_returns_configured_method(self):
        selector = FixedSelector(PackMethod.STAGED)
        assert selector(packer_for(8), KIB) is PackMethod.STAGED

    def test_rejects_auto(self):
        with pytest.raises(SelectionError):
            FixedSelector(PackMethod.AUTO)

    def test_zero_bytes_is_noop(self):
        assert FixedSelector(PackMethod.ONESHOT)(packer_for(8), 0) is NOOP_METHOD


class TestModelSelector:
    def test_matches_choose_method(self, summit_model):
        selector = ModelSelector(summit_model)
        for nbytes, block in ((KIB, 8), (64 * KIB, 64), (4 * MIB, 8)):
            assert selector(packer_for(block), nbytes) is summit_model.choose_method(
                nbytes, block
            )

    def test_zero_bytes_never_queries(self, summit_model):
        selector = ModelSelector(summit_model)
        queries = summit_model.queries
        assert selector(packer_for(8), 0) is NOOP_METHOD
        assert selector(packer_for(8), -3) is NOOP_METHOD
        assert summit_model.queries == queries

    def test_charges_query_overhead_through_cache(self, summit_model):
        clock = VirtualClock()
        cache = ResourceCache(CudaRuntime(cost_model=FREE_GPU))
        config = TempiConfig()
        selector = ModelSelector(summit_model, cache=cache, clock=clock, config=config)
        selector(packer_for(8), KIB)
        cold = clock.now
        assert cold == pytest.approx(MODEL_QUERY_S)
        selector(packer_for(8), KIB)
        assert clock.now - cold == pytest.approx(MODEL_CACHED_QUERY_S)

    def _asked(self, model, monkeypatch) -> list:
        """The ``(nbytes, block_length)`` of every question put to ``model``."""
        asked, choose = [], model.choose_method
        monkeypatch.setattr(model, "choose_method", lambda *query: asked.append(query) or choose(*query))
        return asked

    def test_a_memo_hit_asks_the_model_nothing(self, summit_measurement, monkeypatch):
        model = PerformanceModel(summit_measurement)  # no decision made yet
        cache = ResourceCache(CudaRuntime(cost_model=FREE_GPU))
        selector = ModelSelector(model, cache=cache)
        asked = self._asked(model, monkeypatch)
        first = selector(packer_for(8), KIB)
        queries = model.queries
        assert selector(packer_for(8), KIB) is first
        assert asked == [(KIB, 8)] and model.queries == queries
        assert (cache.stats.query_hits, cache.stats.query_misses) == (1, 1)

    def test_a_disabled_cache_asks_the_model_every_time(self, summit_measurement, monkeypatch):
        model = PerformanceModel(summit_measurement)
        cache = ResourceCache(CudaRuntime(cost_model=FREE_GPU), enabled=False)
        clock = VirtualClock()
        selector = ModelSelector(model, cache=cache, clock=clock)
        asked = self._asked(model, monkeypatch)
        first = selector(packer_for(8), KIB)
        queries, hits = model.queries, model.cache_hits
        assert selector(packer_for(8), KIB) is first
        # Asked again, and answered from the decision it made the first time.
        assert asked == [(KIB, 8)] * 2
        assert (model.queries - queries, model.cache_hits - hits) == (1, 1)
        assert (cache.stats.query_hits, cache.stats.query_misses) == (0, 2)
        assert clock.now == MODEL_QUERY_S + MODEL_QUERY_S  # cold both times
        assert len(cache) == 0

    def test_a_memoised_answer_is_the_models_decision(self, summit_measurement):
        """The memo changes where an answer comes from, never what it is: a
        miss and the hit after it both equal a fresh ``decide``."""
        model = PerformanceModel(summit_measurement)
        cache = ResourceCache(CudaRuntime(cost_model=FREE_GPU))
        selector = ModelSelector(model, cache=cache)
        grid = ((KIB, 8), (64 * KIB, 64), (4 * MIB, 8), (4 * MIB, 1))
        for nbytes, block in grid:
            for _ in range(2):
                assert selector(packer_for(block), nbytes) is model.decide(nbytes, block)
        assert (cache.stats.query_hits, cache.stats.query_misses) == (len(grid), len(grid))

    def test_a_fresh_world_takes_a_decision_the_model_made(self, summit_measurement, monkeypatch):
        """Two worlds share one model: the second world's selection misses its
        own memo, books and charges that miss and asks the model, which
        answers from its decision memo (one query, one hit, no probe)."""
        model = PerformanceModel(summit_measurement)
        asked = self._asked(model, monkeypatch)
        methods, books = [], []
        for _ in range(2):
            cache, clock = ResourceCache(CudaRuntime(cost_model=FREE_GPU)), VirtualClock()
            stats = interposer.InterposerStats()
            selector = ModelSelector(model, cache=cache, clock=clock, stats=stats)
            queries, hits = model.queries, model.cache_hits
            methods.append(selector(packer_for(8), 64 * KIB))
            books.append((cache.stats.query_misses, stats.selection_memo_misses, clock.now))
        assert (model.queries - queries, model.cache_hits - hits) == (1, 1)
        assert asked == [(64 * KIB, 8)] * 2
        assert methods[0] is methods[1] is model.estimate(64 * KIB, 8).best()
        assert books == [(1, 1, MODEL_QUERY_S)] * 2

    def test_lazy_model_provider(self, summit_model):
        calls = []

        def provider():
            calls.append(1)
            return summit_model

        selector = ModelSelector(provider)
        assert not calls
        selector(packer_for(8), KIB)
        selector(packer_for(8), 2 * KIB)
        assert calls == [1]


class TestContendedSelector:
    def test_idle_port_equals_model(self, summit_model):
        nic = NicTimeline()
        contended = ContendedSelector(summit_model, nic, 0)
        model = ModelSelector(summit_model)
        for nbytes, block in ((KIB, 8), (16 * KIB, 4), (MIB, 256)):
            assert contended(packer_for(block), nbytes) is model(packer_for(block), nbytes)

    def test_backlog_shifts_the_crossover(self, summit_model):
        # 4 KiB in single-byte runs: device wins idle, one-shot under backlog
        # (its pack penalty hides behind the queued port).
        nic = NicTimeline()
        nic.reserve(0, 1, 0.0, 200e-6, 4 * KIB)
        selector = ContendedSelector(summit_model, nic, 0)
        packer = Packer(
            StridedBlock(start=0, counts=(1, 4 * KIB), strides=(1, 2)), object_extent=2 * 4 * KIB
        )
        nbytes = packer.packed_size(1)
        assert nbytes == 4 * KIB
        assert summit_model.choose_method(nbytes, 1) is PackMethod.DEVICE
        assert selector(packer, nbytes) is PackMethod.ONESHOT

    def test_backlog_reads_this_ranks_port_only(self, summit_model):
        nic = NicTimeline()
        nic.reserve(1, 2, 0.0, 200e-6, 4 * KIB)  # another rank's traffic
        selector = ContendedSelector(summit_model, nic, 0)
        assert selector.backlog() == 0.0

    def test_requires_a_timeline(self, summit_model):
        with pytest.raises(SelectionError):
            ContendedSelector(summit_model, None, 0)

    def test_a_memo_hit_is_a_fresh_price_at_the_same_backlog(self, summit_model):
        """A hit at a quantised backlog returns what a selector with no memo
        prices at that backlog, to a peer and without one."""
        nic = NicTimeline()
        nic.reserve(0, 1, 0.0, 200e-6, 4 * KIB)  # port and link backlog
        cache = ResourceCache(CudaRuntime(cost_model=FREE_GPU))
        memoised = ContendedSelector(summit_model, nic, 0, cache=cache)
        fresh = ContendedSelector(summit_model, nic, 0)
        cases = [(block, nbytes, peer) for block in (1, 8, 64)
                 for nbytes in (4 * KIB, 64 * KIB, MIB) for peer in (None, 1)]
        for block, nbytes, peer in cases:
            memoised(packer_for(block), nbytes, peer)
        assert cache.stats.query_hits == 0
        for block, nbytes, peer in cases:
            hit = memoised(packer_for(block), nbytes, peer)
            assert hit is fresh._price(packer_for(block), nbytes, peer), (block, nbytes, peer)
        assert cache.stats.query_hits == len(cases)

    def test_estimate_rejects_negative_backlog(self, summit_model):
        with pytest.raises(SelectionError):
            contended_estimate(summit_model, KIB, 8, -1.0)

    def test_estimate_zero_backlog_matches_model(self, summit_model):
        for nbytes, block in ((KIB, 8), (64 * KIB, 64), (4 * MIB, 8)):
            estimate = contended_estimate(summit_model, nbytes, block, 0.0)
            assert estimate.best() is summit_model.choose_method(nbytes, block)


class TestDuplexEstimate:
    """The link and ingestion terms of ``contended_estimate`` (PR 5)."""

    def test_extra_terms_fold_into_the_same_max(self, summit_model):
        """`max(pack, inject, link, ingest) + wire + unpack`: whichever single
        term dominates produces the same totals."""
        backlog = 500e-6
        base = contended_estimate(summit_model, 4 * KIB, 1, backlog)
        via_link = contended_estimate(summit_model, 4 * KIB, 1, 0.0, link_backlog_s=backlog)
        via_ingest = contended_estimate(
            summit_model, 4 * KIB, 1, 0.0, ingest_backlog_s=backlog
        )
        assert via_link.oneshot == base.oneshot and via_link.device == base.device
        assert via_ingest.oneshot == base.oneshot and via_ingest.device == base.device
        assert base.bound() == "inject"
        assert via_link.bound() == "link"
        assert via_ingest.bound() == "ingest"

    def test_zero_extra_terms_are_bitwise_pr4(self, summit_model):
        """Explicit zeros are the PR-4 pricing, bit for bit."""
        for nbytes, block, backlog in ((KIB, 8, 0.0), (4 * KIB, 1, 3e-4), (MIB, 64, 1e-3)):
            old = contended_estimate(summit_model, nbytes, block, backlog)
            new = contended_estimate(
                summit_model, nbytes, block, backlog, link_backlog_s=0.0, ingest_backlog_s=0.0
            )
            assert (old.oneshot, old.device) == (new.oneshot, new.device)

    def test_bound_prefers_pack_on_ties(self, summit_model):
        estimate = contended_estimate(summit_model, 4 * KIB, 1, 0.0)
        assert estimate.bound() == "pack"

    def test_rejects_negative_extra_terms(self, summit_model):
        with pytest.raises(SelectionError):
            contended_estimate(summit_model, KIB, 8, 0.0, link_backlog_s=-1.0)
        with pytest.raises(SelectionError):
            contended_estimate(summit_model, KIB, 8, 0.0, ingest_backlog_s=-1.0)

    def test_hot_receiver_flips_the_selection(self, summit_model):
        """A hot peer's ingestion backlog flips the idle device choice to
        one-shot at the 4 KiB crossover shape — and the inject_only ablation,
        blind to the receive side, never sees it."""
        nic = NicTimeline()
        for source in (1, 2, 3, 4):
            nic.reserve(source, 0, 0.0, 60e-6, 256 * KIB)  # incast on rank 0
        packer = Packer(
            StridedBlock(start=0, counts=(1, 4 * KIB), strides=(1, 2)),
            object_extent=2 * 4 * KIB,
        )
        nbytes = packer.packed_size(1)
        idle = summit_model.choose_method(nbytes, 1)
        assert idle is PackMethod.DEVICE
        duplex = ContendedSelector(summit_model, nic, 9, config=TempiConfig())
        ablation = ContendedSelector(
            summit_model, nic, 9, config=TempiConfig(nic="inject_only")
        )
        assert duplex(packer, nbytes, peer=0) is PackMethod.ONESHOT
        assert ablation(packer, nbytes, peer=0) is idle
        # Without a destination there is no hot peer to price.
        assert duplex(packer, nbytes) is idle

    def test_own_link_backlog_counts_under_duplex(self, summit_model):
        nic = NicTimeline()
        nic.reserve(0, 1, 0.0, 400e-6, MIB)  # this rank's own earlier message
        selector = ContendedSelector(summit_model, nic, 0, config=TempiConfig())
        assert selector.link_backlog(1) > 0.0
        assert selector.link_backlog(2) == 0.0
        assert selector.link_backlog(None) == 0.0

    def test_ingest_term_reads_the_advisory_ledger(self, summit_model):
        nic = NicTimeline()
        nic.reserve(1, 0, 0.0, 60e-6, 256 * KIB)
        selector = ContendedSelector(summit_model, nic, 9, config=TempiConfig())
        assert selector.ingest_backlog(0) > 0.0
        assert selector.ingest_backlog(3) == 0.0
        inject_only = ContendedSelector(
            summit_model, nic, 9, config=TempiConfig(nic="inject_only")
        )
        assert inject_only.ingest_backlog(0) == 0.0


class TestTopologyBacklog:
    """The hierarchical branches of ``rail_backlog``/``uplink_backlog``: a
    shared NIC rail or leaf-uplink bundle queued by *another* rank flips this
    rank's selection though its own port and link are idle."""

    def _selector(self, summit_model, loader, dest):
        """Rank 0's selector behind one 1 MiB message ``loader -> dest``."""
        topology = Topology(16, machine=SUMMIT, spec=FATTREE)
        nic = NicTimeline()
        wire = topology.message_time(loader, dest, MIB, device_buffers=True)
        path = topology.resolve(loader, dest, device_buffers=True)
        nic.reserve(loader, dest, 0.0, wire, MIB, path=path)
        return ContendedSelector(summit_model, nic, 0, topology=topology)

    def _idle(self, summit_model):
        topology = Topology(16, machine=SUMMIT, spec=FATTREE)
        selector = ContendedSelector(summit_model, NicTimeline(), 0, topology=topology)
        assert selector.rail_backlog(8) == selector.uplink_backlog(8) == 0.0
        return selector(packer_for(8), 64 * KIB, peer=8)

    def test_uplink_backlog_flips_the_cross_leaf_selection(self, summit_model):
        """Rank 4 (another node of leaf 0) loads the ('up', 0) bundle only."""
        assert self._idle(summit_model) is PackMethod.DEVICE
        selector = self._selector(summit_model, loader=4, dest=12)
        assert selector.uplink_backlog(8) > 0.0
        assert selector.rail_backlog(8) == selector.backlog() == selector.link_backlog(8) == 0.0
        assert selector(packer_for(8), 64 * KIB, peer=8) is PackMethod.ONESHOT
        # No shared bundle on the way to a leaf-mate or an island-mate.
        assert selector.uplink_backlog(4) == selector.uplink_backlog(1) == 0.0
        assert selector.uplink_backlog(None) == 0.0

    def test_rail_backlog_flips_the_cross_leaf_selection(self, summit_model):
        """Rank 1 (rank 0's island-mate) queues their shared rail, same leaf."""
        selector = self._selector(summit_model, loader=1, dest=4)
        assert selector.rail_backlog(8) > 0.0
        assert selector.uplink_backlog(8) == selector.backlog() == selector.link_backlog(8) == 0.0
        assert selector(packer_for(8), 64 * KIB, peer=8) is PackMethod.ONESHOT
        # Intra-node peers ride no rail.
        assert selector.rail_backlog(1) == selector.rail_backlog(None) == 0.0


def _selectors(config: TempiConfig, model, nranks: int = 4) -> list:
    """``make_selector(config, model, engine)`` on every rank of a flat world,
    with the assertions that the selector draws its wiring from the engine."""

    def program(ctx):
        engine = PlanExecutor(ctx.comm, ResourceCache(ctx.gpu), InterposerStats(), config).engine
        selector = make_selector(config, model, engine)
        if not isinstance(selector, FixedSelector):
            assert selector.cache is engine.cache and selector.stats is engine.stats
            assert selector.clock is ctx.clock and selector.config is config
        if isinstance(selector, ContendedSelector):
            assert selector.nic is ctx.world.nic and selector.rank == ctx.rank
            assert selector.topology is engine.topology
        return selector

    return World(nranks).run(program)


class TestMakeSelector:
    def test_default_is_model(self, summit_model):
        assert {type(s) for s in _selectors(TempiConfig(), summit_model)} == {ModelSelector}

    def test_contended_reads_the_engine_nic(self, summit_model):
        selectors = _selectors(TempiConfig(selection="contended"), summit_model)
        assert {type(s) for s in selectors} == {ContendedSelector}
        assert [s.rank for s in selectors] == [0, 1, 2, 3]
        assert len({id(s.nic) for s in selectors}) == 1

    def test_forced_method_wins_over_policy(self, summit_model):
        """A concrete ``method`` never consults a policy: under the default
        one it yields the fixed selector; asking for ``"contended"`` as well
        used to be silently ignored and is now refused, naming both fields."""
        config = TempiConfig(method=PackMethod.DEVICE)
        assert {type(s) for s in _selectors(config, summit_model, 1)} == {FixedSelector}
        pattern = "method=PackMethod.DEVICE.*selection='contended'"
        with pytest.raises(ValueError, match=pattern):
            TempiConfig(selection="contended", method=PackMethod.DEVICE)
        with pytest.raises(ValueError, match=pattern):
            replace(TempiConfig(selection="contended"), method=PackMethod.DEVICE)
        with pytest.raises(ValueError, match=pattern):
            replace(TempiConfig(method=PackMethod.DEVICE), selection="contended")

    def test_fixed_policy_requires_concrete_method(self, summit_model):
        """Forcing is spelled by ``method`` alone; there is no ``"fixed"``
        policy value left to contradict it."""
        config = TempiConfig(method=PackMethod.ONESHOT)
        (fixed,) = _selectors(config, summit_model, 1)
        assert type(fixed) is FixedSelector and fixed.method is PackMethod.ONESHOT
        with pytest.raises(ValueError, match="unknown selection policy 'fixed'"):
            TempiConfig(selection="fixed", method=PackMethod.ONESHOT)

    def test_config_validates_selection(self):
        with pytest.raises(ValueError):
            TempiConfig(selection="psychic")
        with pytest.raises(ValueError):
            TempiConfig(selection="fixed")  # forcing is `method=`, not a policy
        # engine knobs fail at construction too, naming the field
        with pytest.raises(ValueError, match="progress.*'bogus'.*shared"):
            TempiConfig(progress="bogus")
        # a retired knob is an unknown field, not a swallowed one
        with pytest.raises(TypeError, match="batch_max_messages"):
            TempiConfig(batch_max_messages=0)

    def test_contended_selection_sees_a_hot_receiver_under_the_serial_engine(self, summit_model):
        """``overlap=False`` books its posts on the shared NIC too, so behind
        four incast senders the contended pick of ``bench_incast``'s first
        probe leaves the model's, and on an idle receiver it keeps it."""
        incast = _load_figures().incast

        def pick(background: int, selection: str) -> dict:
            config = TempiConfig(selection=selection, overlap=False)
            return incast.probe_selection(background, incast.PROBES[0], summit_model, config)

        assert pick(4, "model") == {"device": 1}
        assert pick(4, "contended") == {"oneshot": 1}
        assert pick(0, "contended") == pick(0, "model") == {"device": 1}


class TestMeasuredModel:
    """``interpose`` without a model: one sweep per machine, shared by every rank."""

    def test_ranks_without_a_model_share_one_sweep(self, monkeypatch):
        sweeps = []

        def counted(machine):
            sweeps.append(machine)
            return measure_system(machine)

        monkeypatch.setattr(interposer, "_MODELS", {})
        monkeypatch.setattr(interposer, "measure_system", counted)
        first, second = World(2).run(lambda ctx: interpose(ctx).tempi.model)
        assert first is second
        assert sweeps == [SUMMIT]

    def test_machines_coexist(self, monkeypatch):
        monkeypatch.setattr(interposer, "_MODELS", {})
        other = replace(summit_like(eager_threshold=8 * KIB), name="other-machine")

        def model_of(machine):
            return Tempi(CudaRuntime(), machine).model

        summit, other_model = model_of(SUMMIT), model_of(other)
        assert other_model is not summit
        assert model_of(SUMMIT) is summit and model_of(other) is other_model
        assert other_model.measurement.machine_name == "other-machine"

    def test_specs_sharing_a_name_do_not_share_a_model(self, monkeypatch):
        """The memo is keyed by the whole spec, not by its name."""
        monkeypatch.setattr(interposer, "_MODELS", {})
        twin = summit_like(eager_threshold=8 * KIB)
        assert twin.name == SUMMIT.name and twin != SUMMIT
        summit = Tempi(CudaRuntime(), SUMMIT).model
        assert Tempi(CudaRuntime(), twin).model is not summit
        assert len(interposer._MODELS) == 2

    def test_a_measurement_file_or_a_given_model_runs_no_sweep(
        self, summit_measurement, summit_model, tmp_path, monkeypatch
    ):
        def refused(machine):
            raise AssertionError(f"swept {machine.name}")

        monkeypatch.setattr(interposer, "_MODELS", {})
        monkeypatch.setattr(interposer, "measure_system", refused)
        path = tmp_path / "m.json"
        summit_measurement.save(path)
        tempi = Tempi(CudaRuntime(), SUMMIT, TempiConfig(measurement_path=path))
        assert tempi.model is tempi.model
        assert tempi.model.measurement.machine_name == SUMMIT.name
        assert Tempi(CudaRuntime(), SUMMIT, model=summit_model).model is summit_model
        assert interposer._MODELS == {}

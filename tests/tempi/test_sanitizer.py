"""Tests for the runtime clock sanitizer (``tempi/sanitizer.py``).

The headline case reconstructs the PR-5 bug class deterministically: one
rank reads another rank's posted ingestion backlog with no happens-before
edge, and the sanitizer names the racing post and the racing read.  The
clean cases pin down every edge that *does* discharge the obligation
(barrier join, message-chain join, own posts, future posts), plus the
pricing-purity guard, cursor monotonicity, and reset semantics.
"""

from __future__ import annotations

import pytest

from repro.machine.nic import NicReservation, NicTimeline
from repro.machine.topology import Topology
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.request import Request
from repro.mpi.world import World
from repro.tempi.config import TempiConfig, sanitize_default
from repro.tempi.interposer import interpose
from repro.tempi.sanitizer import (
    ClockSanitizer,
    SanitizedNic,
    SanitizerError,
    attach_sanitizer,
    sanitized_view,
)
from repro.tempi.selection import ContendedSelector

from tests.tempi.test_selection import FATTREE, packer_for

KIB = 1024
WIRE_S = 1e-4


def views(timeline: NicTimeline, *ranks: int) -> list[SanitizedNic]:
    return [sanitized_view(timeline, rank) for rank in ranks]


class TestHappensBeforeAudit:
    def test_unsynchronised_cross_rank_read_races(self):
        """The PR-5 bug class, reconstructed: post on rank 0, read on rank 1."""
        timeline = NicTimeline()
        poster, reader = views(timeline, 0, 1)
        poster.reserve(0, 2, 0.0, WIRE_S, KIB)
        with pytest.raises(SanitizerError) as excinfo:
            reader.ingest_backlog(2, now=1.0)
        first, second = excinfo.value.events
        assert first.kind == "post" and first.rank == 0
        assert second.kind == "backlog-read" and second.rank == 1
        # Both racing events are named in the message itself.
        message = str(excinfo.value)
        assert "happens-before" in message
        assert str(first) in message and str(second) in message

    def test_barrier_establishes_the_edge(self):
        timeline = NicTimeline()
        poster, reader, receiver = views(timeline, 0, 1, 2)
        poster.reserve(0, 2, 0.0, WIRE_S, KIB)
        for view in (poster, reader, receiver):
            view.barrier_enter(3)
        assert reader.ingest_backlog(2, now=WIRE_S / 2) > 0.0

    def test_message_chain_establishes_the_edge(self):
        """A completed receive from the poster carries its clock with it."""
        timeline = NicTimeline()
        poster, reader = views(timeline, 0, 1)
        poster.reserve(0, 2, 0.0, WIRE_S, KIB)  # the racing post...
        to_reader = poster.reserve(0, 1, 0.0, WIRE_S, KIB)  # ...then a message
        assert to_reader.seq == 1
        reader.ingest(1, timeline.pending_records(1))  # reader receives it
        # The join covered the earlier post too (it precedes the message).
        assert reader.ingest_backlog(2, now=WIRE_S / 2) > 0.0

    def test_own_posts_never_race(self):
        timeline = NicTimeline()
        (poster,) = views(timeline, 0)
        poster.reserve(0, 2, 0.0, WIRE_S, KIB)
        assert poster.ingest_backlog(2, now=WIRE_S / 2) > 0.0

    def test_future_posts_are_not_read(self):
        """Records beyond the reader's clock never enter the priced signal."""
        timeline = NicTimeline()
        poster, reader = views(timeline, 0, 1)
        poster.reserve(0, 2, 5.0, WIRE_S, KIB)
        assert reader.ingest_backlog(2, now=1.0) == 0.0

    def test_raw_timeline_posts_are_conservative(self):
        """Posts that bypassed the proxies have no snapshot: read allowed."""
        timeline = NicTimeline()
        timeline.reserve(0, 2, 0.0, WIRE_S, KIB)
        (reader,) = views(timeline, 1)
        assert reader.ingest_backlog(2, now=WIRE_S / 2) > 0.0


class TestSharedCursorAudit:
    """Rails and uplink bundles mix sources: cross-rank commits need an edge."""

    def _cross_leaf_post(self, topology, view, src, dst):
        path = topology.resolve(src, dst, device_buffers=True)
        return view.reserve(src, dst, 0.0, WIRE_S, KIB, path=path)

    def test_unordered_cross_leaf_posts_race_on_the_uplink(self):
        """Ranks 0 and 4 sit on different nodes of leaf 0: private ports and
        rails, one shared ``('up', 0)`` bundle — and nothing orders them."""
        topology = Topology(16, spec=FATTREE)
        first_poster, second_poster = views(NicTimeline(), 0, 4)
        self._cross_leaf_post(topology, first_poster, 0, 8)
        with pytest.raises(SanitizerError) as excinfo:
            self._cross_leaf_post(topology, second_poster, 4, 12)
        first, second = excinfo.value.events
        assert (first.kind, first.rank) == ("post", 0)
        assert (second.kind, second.rank) == ("post", 4)
        message = str(excinfo.value)
        assert "shared fabric cursor ('up', 0)" in message
        assert "without a happens-before edge to rank 0's commit" in message
        assert str(first) in message and str(second) in message

    def test_a_barrier_orders_them(self):
        topology = Topology(16, spec=FATTREE)
        timeline = NicTimeline()
        first_poster, second_poster = views(timeline, 0, 4)
        self._cross_leaf_post(topology, first_poster, 0, 8)
        for view in (first_poster, second_poster):
            view.barrier_enter(2)
        reservation = self._cross_leaf_post(topology, second_poster, 4, 12)
        assert reservation.stalled_s > 0.0  # it queued behind rank 0 on the bundle
        assert timeline.fabric_stalls == 1


class TestPricingGuard:
    def test_pure_read_passes(self):
        timeline = NicTimeline()
        (view,) = views(timeline, 0)
        with view.pricing_guard():
            view.port_free_at(0)
            view.ingest_backlog(1, now=0.0)

    def test_mutation_inside_guard_raises(self):
        timeline = NicTimeline()
        (view,) = views(timeline, 0)
        with pytest.raises(SanitizerError, match="pure read"):
            with view.pricing_guard():
                view.reserve(0, 1, 0.0, WIRE_S, KIB)

    def test_contended_selector_prices_through_the_guard(self, summit_model):
        """The real pricing path runs audited and stays pure under backlog."""
        timeline = NicTimeline()
        poster, selector_view = views(timeline, 0, 1)
        recorder = attach_sanitizer(timeline)
        poster.reserve(0, 3, 0.0, WIRE_S, KIB)
        for view in (poster, selector_view):
            view.barrier_enter(2)
        selector = ContendedSelector(
            summit_model,
            selector_view,
            1,
            config=TempiConfig(selection="contended"),
        )
        before = ClockSanitizer.aggregate_counters()["purity_checks"]
        method = selector(packer_for(8), 64 * KIB, peer=3)
        assert method is not None
        assert ClockSanitizer.aggregate_counters()["purity_checks"] == before + 1
        assert recorder.mutation_count(1) == 0

    def test_contended_selector_race_is_caught_in_pricing(self, summit_model):
        """The PR-5 race through the *real* selector pricing path."""
        timeline = NicTimeline()
        poster, selector_view = views(timeline, 0, 1)
        poster.reserve(0, 3, 0.0, WIRE_S, KIB)
        selector = ContendedSelector(
            summit_model,
            selector_view,
            1,
            config=TempiConfig(selection="contended"),
        )
        with pytest.raises(SanitizerError) as excinfo:
            selector(packer_for(8), 64 * KIB, peer=3)
        kinds = {event.kind for event in excinfo.value.events}
        assert kinds == {"post", "backlog-read"}


class TestMonotonicity:
    def test_injection_cursor_may_not_move_backwards(self):
        timeline = NicTimeline()
        recorder = attach_sanitizer(timeline)
        forward = NicReservation(start=10.0, arrival=10.1, stalled_s=0.0, wire_s=0.1, seq=0)
        backward = NicReservation(start=1.0, arrival=1.1, stalled_s=0.0, wire_s=0.1, seq=1)
        recorder.on_reserve(0, 1, forward, ingest=False)
        with pytest.raises(SanitizerError, match="moved backwards"):
            recorder.on_reserve(0, 1, backward, ingest=False)

    def test_real_timeline_never_trips_it(self):
        timeline = NicTimeline()
        (view,) = views(timeline, 0)
        for i in range(16):
            view.reserve(0, 1 + (i % 3), float(i) * 1e-6, WIRE_S, KIB)


class TestResetSemantics:
    def test_attach_is_idempotent(self):
        timeline = NicTimeline()
        assert attach_sanitizer(timeline) is attach_sanitizer(timeline)

    def test_raw_reset_clears_recorded_history(self):
        """``World.reset_clocks`` resets the raw timeline; history must follow."""
        timeline = NicTimeline()
        (view,) = views(timeline, 0)
        view.reserve(0, 1, 10.0, WIRE_S, KIB)
        timeline.reset()  # the raw reset, as World.reset_clocks issues it
        # Starting over at earlier virtual times is not a phantom violation.
        view.reserve(0, 1, 0.0, WIRE_S, KIB)

    def test_proxy_reset_clears_both(self):
        timeline = NicTimeline()
        (view,) = views(timeline, 0)
        view.reserve(0, 1, 10.0, WIRE_S, KIB)
        view.reset()
        assert timeline.reservations == 0
        view.reserve(0, 1, 0.0, WIRE_S, KIB)


class TestInterposedRuns:
    def test_sanitized_run_is_bit_identical_and_clean(self, summit_model):
        """A sanitized multi-rank exchange: same clocks, no violations."""
        from repro.mpi.constructors import Type_vector
        from repro.mpi.datatype import BYTE

        def run(sanitize: bool) -> list[float]:
            world = World(4)

            def program(ctx):
                comm = interpose(
                    ctx,
                    TempiConfig(selection="contended", sanitize=sanitize),
                    model=summit_model,
                )
                t = comm.Type_commit(Type_vector(64, 8, 512, BYTE))
                sendbuf = ctx.gpu.malloc(t.extent)
                recvbuf = ctx.gpu.malloc(t.extent)
                dest = (ctx.rank + 1) % ctx.size
                src = (ctx.rank - 1) % ctx.size
                for _ in range(3):
                    rs = comm.Isend([sendbuf, 1, t], dest=dest, tag=5)
                    rr = comm.Irecv([recvbuf, 1, t], source=src, tag=5)
                    rs.Wait()
                    rr.Wait()
                comm.Barrier()
                return ctx.clock.now

            return world.run(program)

        ClockSanitizer.reset_aggregate()
        plain = run(False)
        sanitized = run(True)
        assert plain == sanitized
        counters = ClockSanitizer.aggregate_counters()
        assert counters["posts"] > 0
        assert counters["ingests"] > 0
        assert counters["violations"] == 0

    def test_sanitized_persistent_halo_is_bit_identical_and_not_vacuous(self, summit_model):
        """What ``repro sanitize`` asks of Fig. 14's isend/irecv column: the
        overlap exchange posts through persistent requests, the sanitizer
        sees those posts and ingests, and the clocks are the plain run's."""
        from repro.apps.halo import HaloSpec
        from repro.apps.stencil import HaloExchange

        def run() -> list[float]:
            def program(ctx):
                comm = interpose(ctx, TempiConfig(), model=summit_model)
                HaloExchange(ctx, comm, HaloSpec(nx=8, ny=8, nz=8), mode="overlap").run(2)
                return ctx.clock.now

            return World(4, ranks_per_node=2).run(program)

        plain = run()
        ClockSanitizer.reset_aggregate()
        with sanitize_default(True):
            sanitized = run()
        assert plain == sanitized
        counters = ClockSanitizer.aggregate_counters()
        assert counters["posts"] > 0 and counters["ingests"] >= 2 * 4 * 26
        assert counters["violations"] == 0

    def test_ambient_default_flips_constructed_configs(self):
        assert TempiConfig().sanitize is False
        with sanitize_default(True):
            assert TempiConfig().sanitize is True
            assert TempiConfig(sanitize=False).sanitize is False
        assert TempiConfig().sanitize is False

    def test_barrier_phased_cross_leaf_run_is_clean(self, summit_model):
        """One cross-leaf sender per phase on the committed fat-tree example:
        every shared rail/uplink commit is ordered by the barriers between."""
        senders = {0: 8, 4: 12, 1: 9}  # two nodes of leaf 0, then rank 0's rail-mate

        def run(sanitize: bool) -> list[float]:
            def program(ctx):
                comm = interpose(ctx, TempiConfig(sanitize=sanitize), model=summit_model)
                t = comm.Type_commit(Type_vector(64, 8, 512, BYTE))
                buf = ctx.gpu.malloc(t.extent)
                for sender, receiver in senders.items():
                    if ctx.rank == sender:
                        comm.Send((buf, 1, t), dest=receiver)
                    elif ctx.rank == receiver:
                        comm.Recv((buf, 1, t), source=sender)
                    comm.Barrier()
                return ctx.clock.now

            world = World(16, ranks_per_node=FATTREE.ranks_per_node, topology=FATTREE)
            clocks = world.run(program)
            assert world.nic.reservations == len(senders)
            return clocks

        ClockSanitizer.reset_aggregate()
        plain = run(False)
        assert ClockSanitizer.aggregate_counters()["shared_commits"] == 0
        assert run(True) == plain
        counters = ClockSanitizer.aggregate_counters()
        # Per message: the sender's rail and both uplink bundles, then the
        # receiver's ingestion rail.
        assert counters["shared_commits"] == 4 * len(senders)
        assert counters["violations"] == 0

    def test_sanitized_batched_burst_is_bit_identical(self, summit_model):
        """Three sub-eager ``Isend``s ride one wire message; the two later
        constituents draw their sequence numbers through the proxy."""

        def run(sanitize: bool):
            def program(ctx):
                comm = interpose(ctx, TempiConfig(sanitize=sanitize), model=summit_model)
                t = comm.Type_commit(Type_vector(64, 8, 64, BYTE))
                bufs = [ctx.gpu.malloc(t.extent) for _ in range(3)]
                if ctx.rank == 0:
                    Request.Waitall(
                        [comm.Isend((buf, 1, t), dest=1, tag=tag) for tag, buf in enumerate(bufs)]
                    )
                else:
                    for tag, buf in enumerate(bufs):
                        comm.Recv((buf, 1, t), source=0, tag=tag)
                return ctx.clock.now.hex(), comm.stats.batched_plans

            world = World(2, ranks_per_node=1)
            return world, world.run(program)

        _, plain = run(False)
        world, sanitized = run(True)
        assert sanitized == plain
        assert sanitized[0][1] == 3 and world.nic.reservations == 1
        # Rank 0 mutated the books three times: one reservation, two next_seq.
        assert attach_sanitizer(world.nic).mutation_count(0) == 3

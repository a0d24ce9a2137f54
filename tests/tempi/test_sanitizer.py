"""Tests for the runtime clock sanitizer (``tempi/sanitizer.py``).

The sanitizer is a trace sink: it sees a timeline only through the event
stream the timeline's commit points, the contended selector and the
interposer's join points emit.  The headline case reconstructs the
``bench_fig9`` race deterministically: one rank reads another rank's posted
ingestion backlog with no happens-before edge, and the sanitizer names the
racing post and the racing read.  The clean cases pin down every edge that *does*
discharge the obligation (barrier join, message-chain join, own posts,
future posts), plus the pricing-purity bracket, cursor monotonicity, one
sink over several timelines, and exact audit counts for interposed runs.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.machine.nic import (
    BacklogReadEvent,
    IngestRecord,
    JoinEvent,
    NicReservation,
    NicTimeline,
    PostEvent,
    PricingEvent,
    SeqEvent,
    trace_default,
)
from repro.machine.topology import PathSpec, Topology
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.request import Request
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose
from repro.tempi.sanitizer import ClockSanitizer, SanitizerError
from repro.tempi.selection import ContendedSelector

from tests.tempi.test_selection import FATTREE, packer_for

KIB = 1024
WIRE_S = 1e-4


def traced() -> tuple[NicTimeline, ClockSanitizer]:
    """A fresh timeline with a fresh sanitizer as its sink."""
    sanitizer = ClockSanitizer()
    with trace_default(sanitizer):
        return NicTimeline(), sanitizer


def read_backlog(model, timeline: NicTimeline, reader: int, dest: int, now: float) -> float:
    """A contended selector on ``reader`` reads ``dest``'s backlog at ``now``."""
    selector = ContendedSelector(model, timeline, reader, clock=SimpleNamespace(now=now))
    return selector.ingest_backlog(dest)


def join(timeline: NicTimeline, *ranks: int) -> None:
    """Every rank of ``ranks`` enters one collective join point."""
    for rank in ranks:
        timeline.sink(timeline, JoinEvent(rank, len(ranks)))


class TestHappensBeforeAudit:
    def test_unsynchronised_cross_rank_read_races(self, summit_model):
        """The PR-5 bug class, reconstructed: post on rank 0, read on rank 1."""
        timeline, _ = traced()
        timeline.reserve(0, 2, 0.0, WIRE_S, KIB)
        with pytest.raises(SanitizerError) as excinfo:
            read_backlog(summit_model, timeline, 1, 2, now=1.0)
        first, second = excinfo.value.events
        assert first.kind == "post" and first.rank == 0
        assert second.kind == "backlog-read" and second.rank == 1
        # Both racing events are named in the message itself.
        message = str(excinfo.value)
        assert "happens-before" in message
        assert str(first) in message and str(second) in message

    def test_barrier_establishes_the_edge(self, summit_model):
        timeline, _ = traced()
        timeline.reserve(0, 2, 0.0, WIRE_S, KIB)
        join(timeline, 0, 1, 2)
        assert read_backlog(summit_model, timeline, 1, 2, now=WIRE_S / 2) > 0.0

    def test_message_chain_establishes_the_edge(self, summit_model):
        """A completed receive from the poster carries its clock with it."""
        timeline, _ = traced()
        timeline.reserve(0, 2, 0.0, WIRE_S, KIB)  # the racing post...
        to_reader = timeline.reserve(0, 1, 0.0, WIRE_S, KIB)  # ...then a message
        assert to_reader.seq == 1
        timeline.ingest(1, timeline.pending_records(1))  # reader receives it
        # The join covered the earlier post too (it precedes the message).
        assert read_backlog(summit_model, timeline, 1, 2, now=WIRE_S / 2) > 0.0

    def test_own_posts_never_race(self, summit_model):
        timeline, _ = traced()
        timeline.reserve(0, 2, 0.0, WIRE_S, KIB)
        assert read_backlog(summit_model, timeline, 0, 2, now=WIRE_S / 2) > 0.0

    def test_future_posts_are_not_read(self, summit_model):
        """Records beyond the reader's clock never enter the priced signal."""
        timeline, _ = traced()
        timeline.reserve(0, 2, 5.0, WIRE_S, KIB)
        assert read_backlog(summit_model, timeline, 1, 2, now=1.0) == 0.0

    def test_raw_timeline_posts_are_recorded(self, summit_model):
        """A post made on the timeline itself — a bench driving it raw, as
        ``bench_fig9``'s ``loaded_nic`` does — is on the stream like any
        other, so an unsynchronised read of it races.  Only a post made
        before the sink was attached has no snapshot: conservative."""
        timeline = NicTimeline()
        timeline.reserve(3, 2, 0.0, WIRE_S, KIB)
        timeline.sink = ClockSanitizer()
        assert read_backlog(summit_model, timeline, 1, 2, now=WIRE_S / 2) > 0.0
        timeline.reserve(0, 2, 0.0, WIRE_S, KIB)
        with pytest.raises(SanitizerError) as excinfo:
            read_backlog(summit_model, timeline, 1, 2, now=WIRE_S / 2)
        first, second = excinfo.value.events
        assert (first.kind, first.rank) == ("post", 0)
        assert (second.kind, second.rank) == ("backlog-read", 1)
        message = str(excinfo.value)
        assert str(first) in message and str(second) in message


class TestSharedCursorAudit:
    """Rails and uplink bundles mix sources: cross-rank commits come in key
    order, ``(ready, source)``, with or without an edge between them."""

    def _cross_leaf_post(self, topology, timeline, src, dst, ready=0.0):
        path = topology.resolve(src, dst, device_buffers=True)
        return timeline.reserve(src, dst, ready, WIRE_S, KIB, path=path)

    def test_an_unordered_pair_in_key_order_passes(self):
        """Ranks 0 and 4 sit on different nodes of leaf 0: private ports and
        rails, one shared ``('up', 0)`` bundle, nothing orders them — and at
        equal ready times rank 0's key is the lower, so it commits first."""
        topology = Topology(16, spec=FATTREE)
        timeline, sanitizer = traced()
        self._cross_leaf_post(topology, timeline, 0, 8)
        reservation = self._cross_leaf_post(topology, timeline, 4, 12)
        assert reservation.stalled_s > 0.0  # it queued behind rank 0 on the bundle
        assert timeline.fabric_stalls == 1
        assert sanitizer.counters["violations"] == 0

    def test_an_out_of_order_pair_raises_naming_both_posts(self):
        topology = Topology(16, spec=FATTREE)
        timeline, _ = traced()
        self._cross_leaf_post(topology, timeline, 4, 12)
        with pytest.raises(SanitizerError) as excinfo:
            self._cross_leaf_post(topology, timeline, 0, 8)
        first, second = excinfo.value.events
        assert (first.kind, first.rank) == ("post", 4)
        assert (second.kind, second.rank) == ("post", 0)
        message = str(excinfo.value)
        assert "shared fabric cursor ('up', 0) out of key order" in message
        assert "(0.0, 0) is below rank 4's (0.0, 4)" in message
        assert str(first) in message and str(second) in message

    def test_a_barrier_does_not_excuse_a_lower_key(self):
        """The order is by key, not by happens-before: a later ready time
        commits first, and a barrier does not let the earlier one follow."""
        topology = Topology(16, spec=FATTREE)
        timeline, _ = traced()
        self._cross_leaf_post(topology, timeline, 4, 12, ready=2e-6)
        join(timeline, 0, 4)
        with pytest.raises(SanitizerError, match="out of key order"):
            self._cross_leaf_post(topology, timeline, 0, 8, ready=1e-6)

    def test_own_commits_are_not_ordered_against_each_other(self):
        """A rank's own posts follow its program order (a batch flushed
        behind its clock) whatever their keys."""
        topology = Topology(16, spec=FATTREE)
        timeline, sanitizer = traced()
        self._cross_leaf_post(topology, timeline, 0, 8, ready=2e-6)
        self._cross_leaf_post(topology, timeline, 0, 9, ready=1e-6)
        assert sanitizer.counters["violations"] == 0

    def test_a_rank_s_own_lower_key_does_not_hide_its_higher_one(self):
        """Rank 0 commits key 5 µs, then its own 3 µs flush; rank 4's 4 µs
        commit comes after rank 0's 5 µs one, so it is out of order."""
        topology = Topology(16, spec=FATTREE)
        timeline, _ = traced()
        self._cross_leaf_post(topology, timeline, 0, 8, ready=5e-6)
        self._cross_leaf_post(topology, timeline, 0, 9, ready=3e-6)
        with pytest.raises(SanitizerError) as excinfo:
            self._cross_leaf_post(topology, timeline, 4, 12, ready=4e-6)
        first, second = excinfo.value.events
        assert (first.kind, first.rank, second.rank) == ("post", 0, 4)
        assert "dest 8" in str(first) and "below rank 0's (5e-06, 0)" in str(excinfo.value)

    def test_receive_side_rails_still_need_a_happens_before_edge(self):
        """Node-mates 8 and 9 share leaf 1's ingestion rail; their receivers
        commit in program order, so an unordered pair is a violation."""
        topology = Topology(16, spec=FATTREE)
        timeline, _ = traced()
        for src, dst in ((0, 8), (4, 9)):
            self._cross_leaf_post(topology, timeline, src, dst, ready=float(src) * 1e-3)
        records = {dst: timeline.pending_records(dst) for dst in (8, 9)}
        timeline.ingest(8, records[8])
        with pytest.raises(SanitizerError, match="ingest-rail .* without a happens-before edge"):
            timeline.ingest(9, records[9])

    def test_receive_side_rails_are_ordered_by_a_barrier(self):
        topology = Topology(16, spec=FATTREE)
        timeline, sanitizer = traced()
        for src, dst in ((0, 8), (4, 9)):
            self._cross_leaf_post(topology, timeline, src, dst, ready=float(src) * 1e-3)
        records = {dst: timeline.pending_records(dst) for dst in (8, 9)}
        timeline.ingest(8, records[8])
        join(timeline, *range(16))
        timeline.ingest(9, records[9])
        assert sanitizer.counters["violations"] == 0


class TestPricingGuard:
    def test_pure_read_passes(self):
        timeline, sanitizer = traced()
        timeline.sink(timeline, PricingEvent(0, timeline.state_fingerprint(0), False))
        timeline.port_free_at(0)
        timeline.ingest_backlog(1, now=0.0)
        timeline.sink(timeline, PricingEvent(0, timeline.state_fingerprint(0), True))
        assert sanitizer.counters["purity_checks"] == 1

    def test_mutation_inside_guard_raises(self, summit_model):
        """A selector that books while it prices is caught at the bracket's end."""

        class LeakySelector(ContendedSelector):
            def backlog(self) -> float:
                self.nic.reserve(self.rank, 1, 0.0, WIRE_S, KIB)
                return super().backlog()

        timeline, _ = traced()
        selector = LeakySelector(summit_model, timeline, 0, config=TempiConfig(selection="contended"))
        with pytest.raises(SanitizerError, match="pure read"):
            selector(packer_for(8), 64 * KIB, peer=1)

    def test_contended_selector_prices_through_the_guard(self, summit_model):
        """The real pricing path runs audited and stays pure under backlog."""
        timeline, sanitizer = traced()
        timeline.reserve(0, 3, 0.0, WIRE_S, KIB)
        join(timeline, 0, 1)
        events = []

        def tee(timeline, event):
            events.append(event)
            sanitizer(timeline, event)

        timeline.sink = tee
        selector = ContendedSelector(
            summit_model,
            timeline,
            1,
            config=TempiConfig(selection="contended"),
        )
        method = selector(packer_for(8), 64 * KIB, peer=3)
        assert method is not None
        assert sanitizer.counters["purity_checks"] == 1
        # Rank 1 priced by reading only: the bracket holds one backlog read.
        assert [type(event) for event in events] == [PricingEvent, BacklogReadEvent, PricingEvent]

    def test_contended_selector_race_is_caught_in_pricing(self, summit_model):
        """The PR-5 race through the *real* selector pricing path."""
        timeline, _ = traced()
        timeline.reserve(0, 3, 0.0, WIRE_S, KIB)
        selector = ContendedSelector(
            summit_model,
            timeline,
            1,
            config=TempiConfig(selection="contended"),
        )
        with pytest.raises(SanitizerError) as excinfo:
            selector(packer_for(8), 64 * KIB, peer=3)
        kinds = {event.kind for event in excinfo.value.events}
        assert kinds == {"post", "backlog-read"}


class TestMonotonicity:
    def test_injection_cursor_may_not_move_backwards(self):
        """Fed a synthetic stream whose port cursor steps back, the sink objects."""
        timeline, sanitizer = NicTimeline(), ClockSanitizer()
        forward = NicReservation(start=10.0, arrival=10.1, stalled_s=0.0, wire_s=0.1, seq=0)
        backward = NicReservation(start=1.0, arrival=1.1, stalled_s=0.0, wire_s=0.1, seq=1)
        sanitizer(timeline, PostEvent(0, 1, forward, False, 10.065, (), 10.0))
        with pytest.raises(SanitizerError, match="moved backwards"):
            sanitizer(timeline, PostEvent(0, 1, backward, False, 1.065, (), 1.0))

    def test_real_timeline_never_trips_it(self):
        timeline, sanitizer = traced()
        for i in range(16):
            timeline.reserve(0, 1 + (i % 3), float(i) * 1e-6, WIRE_S, KIB)
        assert sanitizer.counters["posts"] == 16


class TestResetSemantics:
    """A sink's state across attaches and timelines (a timeline has no reset)."""

    def test_attach_is_idempotent(self, summit_model):
        """The world's one timeline carries the sink from its build: a
        second interposer on a rank attaches nothing new, and the stream is
        not doubled."""

        def run(interposers: int) -> dict[str, int]:
            sanitizer = ClockSanitizer()

            def program(ctx):
                for _ in range(interposers):
                    comm = interpose(ctx, TempiConfig(), model=summit_model)
                t = comm.Type_commit(Type_vector(64, 8, 512, BYTE))
                buf = ctx.gpu.malloc(t.extent)
                if ctx.rank == 0:
                    comm.Send((buf, 1, t), dest=1)
                else:
                    comm.Recv((buf, 1, t), source=0)
                comm.Barrier()

            with trace_default(sanitizer):
                world = World(2, ranks_per_node=1)
            world.run(program)
            assert world.nic.sink is sanitizer
            return sanitizer.counters

        once = run(1)
        assert once["posts"] == once["ingests"] == once["barriers"] == 1
        assert run(2) == once

    def test_one_sink_audits_each_timeline_apart(self):
        """One sink, two timelines: each keeps its own cursors and history."""
        sanitizer = ClockSanitizer()
        with trace_default(sanitizer):
            first, second = NicTimeline(), NicTimeline()
        first.reserve(0, 1, 10.0, WIRE_S, KIB)
        # An earlier post on the other timeline is not a phantom violation.
        second.reserve(0, 1, 0.0, WIRE_S, KIB)
        restart = NicReservation(start=0.0, arrival=WIRE_S, stalled_s=0.0, wire_s=WIRE_S, seq=0)
        with pytest.raises(SanitizerError, match="moved backwards"):
            sanitizer(first, PostEvent(0, 1, restart, False, 0.65 * WIRE_S, (), 0.0))
        assert sanitizer.counters["posts"] == 3


class TestAccounts:
    """Where virtual time went, read from the events alone."""

    def test_each_wait_is_charged_to_the_cursor_that_bound_it(self):
        timeline, sanitizer = traced()
        timeline.reserve(0, 1, 0.0, 10.0)
        timeline.reserve(0, 2, 0.0, 10.0)  # the port frees at 6.5
        timeline.reserve(1, 3, 0.0, 10.0)
        timeline.reserve(1, 3, 0.0, 1.0)  # the (1, 3) link frees at 10, the port at 6.5
        for rank in (2, 3):  # one rail, one uplink bundle held 1000 B / 100 B/s
            path = PathSpec(rank, 4, "fabric", (), rail=(0, 0), shared=((("up", 0), 100.0),))
            timeline.reserve(rank, 4, 0.0, 1.0, 1000, path=path)
        incast = [timeline.reserve(source, 9, 0.0, 10.0) for source in (6, 7, 8)]
        timeline.ingest(9, [IngestRecord(r.start, s, r.seq, 10.0, r.arrival)
                            for s, r in zip((6, 7, 8), incast)])
        for rank, source in ((10, 6), (11, 7)):  # node-mates on one receive-side rail
            posted = timeline.reserve(source, rank, 20.0, 10.0)
            timeline.ingest(rank, [IngestRecord(posted.start, source, posted.seq, 10.0,
                                                posted.arrival, (1, 0))])
            join(timeline, 10, 11)
        audit = sanitizer.audits[timeline]
        charged = {rank: {name: wait for name, wait in waits.items() if wait}
                   for rank, waits in audit.rank_stall.items()}
        assert charged == {
            0: {"injection port": 6.5}, 1: {"link": 10.0}, 2: {}, 3: {"uplink bundle": 10.0},
            6: {}, 7: {}, 8: {},
            9: {"ingestion port": 6.5 + 13.0}, 10: {}, 11: {"NIC rail": 6.5},
        }
        assert (audit.posts, audit.stalls, audit.ingest_stalls, audit.fabric_stalls,
                audit.fabric_stalled_s) == (timeline.reservations, timeline.stalls,
                                            timeline.ingest_stalls, 1, 10.0)
        assert audit.busy == pytest.approx({
            "injection port": 0.65 * 83.0, "link": 83.0, "NIC rail": 0.65 * 22.0,
            "uplink bundle": 20.0, "ingestion port": 0.65 * 50.0,
        })

    def test_the_sink_keeps_every_timeline_it_saw(self):
        """In first-event order, past their run: ``repro explain`` reports each."""
        sanitizer = ClockSanitizer()
        with trace_default(sanitizer):
            first, second, silent = NicTimeline(), NicTimeline(), NicTimeline()
        second.reserve(0, 1, 0.0, WIRE_S)
        first.reserve(0, 1, 0.0, WIRE_S)
        assert list(sanitizer.audits) == [second, first]


class TestInterposedRuns:
    def test_sanitized_run_is_bit_identical_and_clean(self, summit_model):
        """A sanitized multi-rank exchange: same clocks, no violations."""

        def run(sink) -> list[float]:
            with trace_default(sink):
                world = World(4)

            def program(ctx):
                comm = interpose(ctx, TempiConfig(selection="contended"), model=summit_model)
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

        plain = run(None)
        sanitizer = ClockSanitizer()
        assert run(sanitizer) == plain
        assert sanitizer.counters == {
            "posts": 12, "ingests": 12, "joins": 12, "barriers": 1, "hb_checks": 12,
            "purity_checks": 24, "shared_commits": 0, "violations": 0,
        }

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
        sanitizer = ClockSanitizer()
        with trace_default(sanitizer):
            sanitized = run()
        assert plain == sanitized
        # 2 rounds x 4 ranks x 26 directions, each ingested on its own; they
        # ride 40 posted wire messages (the other 168 constituents of the
        # eager batches draw sequence numbers instead).
        assert sanitizer.counters == {
            "posts": 40, "ingests": 2 * 4 * 26, "joins": 40, "barriers": 4, "hb_checks": 0,
            "purity_checks": 0, "shared_commits": 0, "violations": 0,
        }

    def test_timelines_built_inside_the_context_carry_the_sink(self):
        sink = ClockSanitizer()
        with trace_default(sink):
            inside = NicTimeline()
            with trace_default(None):
                switched_off = NicTimeline()
        outside = NicTimeline()
        assert inside.sink is sink
        assert outside.sink is None
        assert switched_off.sink is None

    def test_barrier_phased_cross_leaf_run_is_clean(self, summit_model):
        """One cross-leaf sender per phase on the committed fat-tree example:
        every shared rail/uplink commit is ordered by the barriers between."""
        senders = {0: 8, 4: 12, 1: 9}  # two nodes of leaf 0, then rank 0's rail-mate

        def run(sink) -> list[float]:
            def program(ctx):
                comm = interpose(ctx, TempiConfig(), model=summit_model)
                t = comm.Type_commit(Type_vector(64, 8, 512, BYTE))
                buf = ctx.gpu.malloc(t.extent)
                for sender, receiver in senders.items():
                    if ctx.rank == sender:
                        comm.Send((buf, 1, t), dest=receiver)
                    elif ctx.rank == receiver:
                        comm.Recv((buf, 1, t), source=sender)
                    comm.Barrier()
                return ctx.clock.now

            with trace_default(sink):
                world = World(16, ranks_per_node=FATTREE.ranks_per_node, topology=FATTREE)
            clocks = world.run(program)
            assert world.nic.reservations == len(senders)
            assert world.nic.sink is sink
            return clocks

        plain = run(None)
        sanitizer = ClockSanitizer()
        assert run(sanitizer) == plain
        # Per message: the sender's rail and both uplink bundles, then the
        # receiver's ingestion rail.
        assert sanitizer.counters == {
            "posts": 3, "ingests": 3, "joins": 3, "barriers": 3, "hb_checks": 0,
            "purity_checks": 0, "shared_commits": 4 * len(senders), "violations": 0,
        }

    def test_sanitized_batched_burst_is_bit_identical(self, summit_model):
        """Three sub-eager ``Isend``s ride one wire message; the two later
        constituents draw their sequence numbers from the timeline."""

        def run(sink):
            def program(ctx):
                comm = interpose(ctx, TempiConfig(), model=summit_model)
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

            with trace_default(sink):
                world = World(2, ranks_per_node=1)
            return world, world.run(program)

        _, plain = run(None)
        events = []
        world, traced_run = run(lambda timeline, event: events.append(event))
        assert traced_run == plain
        assert traced_run[0][1] == 3 and world.nic.reservations == 1
        # Rank 0 mutated the books three times: one reservation, two seq draws.
        mutations = [type(e) for e in events if isinstance(e, (PostEvent, SeqEvent)) and e.rank == 0]
        assert mutations == [PostEvent, SeqEvent, SeqEvent]

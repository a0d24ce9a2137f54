"""Unit tests for the shared virtual NIC timeline (both ends of the wire)."""

import random
import sys
import threading

import numpy as np
import pytest

from repro.bench.simthroughput import FABRIC_SPEC
from repro.machine.network import DEFAULT_WIRE_OVERLAP
from repro.machine.nic import IngestEvent, IngestRecord, NicError, NicTimeline, PostEvent
from repro.machine.spec import SUMMIT
from repro.machine.topology import Topology


class MessageLog:
    """A trace sink keeping what a run's stall seconds are made of.

    :attr:`per_rank` holds, in each rank's own (deterministic) order, the
    ``stalled_s`` of every post it booked and the landing of every record it
    ingested, as ``float.hex()``; :attr:`stalls` and :attr:`ingest_stalls`
    the positive waits in event (booking) order.  Every event is passed on
    to ``then``.
    """

    def __init__(self, then=None) -> None:
        self.then = then
        self.per_rank: dict[int, list[str]] = {}
        self.stalls: list[float] = []
        self.ingest_stalls: list[float] = []

    def __call__(self, timeline, event) -> None:
        if isinstance(event, PostEvent):
            stalled = event.reservation.stalled_s
            self.per_rank.setdefault(event.rank, []).append(f"post {stalled.hex()}")
            if stalled > 0:
                self.stalls.append(stalled)
        elif isinstance(event, IngestEvent):
            for record, landing in event.landings:
                self.per_rank.setdefault(event.rank, []).append(f"land {landing.hex()}")
                if landing > record.arrival:
                    self.ingest_stalls.append(landing - record.arrival)
        if self.then is not None:
            self.then(timeline, event)


def records_for(reservations, wire_s):
    """Ingest records mirroring a list of (source, reservation) pairs."""
    return [
        IngestRecord(
            post_time=r.start, source=source, seq=r.seq, wire_s=wire_s, arrival=r.arrival
        )
        for source, r in reservations
    ]


class TestReserve:
    def test_free_port_starts_at_ready(self):
        nic = NicTimeline()
        reservation = nic.reserve(0, 1, ready=2.0, wire_s=1.0)
        assert reservation.start == 2.0
        assert reservation.arrival == 3.0
        assert reservation.stalled_s == 0.0

    def test_distinct_peers_serialise_at_wire_overlap(self):
        nic = NicTimeline()
        first = nic.reserve(0, 1, ready=0.0, wire_s=10.0)
        second = nic.reserve(0, 2, ready=0.0, wire_s=10.0)
        assert first.start == 0.0
        # The port frees after the overlap fraction, not the full wire time.
        assert second.start == pytest.approx(DEFAULT_WIRE_OVERLAP * 10.0)
        assert second.stalled_s == pytest.approx(DEFAULT_WIRE_OVERLAP * 10.0)

    def test_same_peer_serialises_fully(self):
        nic = NicTimeline()
        first = nic.reserve(0, 1, ready=0.0, wire_s=10.0)
        repeat = nic.reserve(0, 1, ready=0.0, wire_s=4.0)
        # The (0, 1) link is busy until the first arrival, beyond the port.
        assert repeat.start == pytest.approx(first.arrival)

    def test_sources_do_not_contend(self):
        nic = NicTimeline()
        nic.reserve(0, 2, ready=0.0, wire_s=10.0)
        other = nic.reserve(1, 2, ready=0.0, wire_s=10.0)
        # Injection ports are per source rank; receive-side contention is
        # deliberately unmodelled (determinism).
        assert other.start == 0.0

    def test_ready_after_port_does_not_stall(self):
        nic = NicTimeline()
        nic.reserve(0, 1, ready=0.0, wire_s=1.0)
        late = nic.reserve(0, 2, ready=100.0, wire_s=1.0)
        assert late.start == 100.0
        assert late.stalled_s == 0.0

    def test_counters_and_accessors(self):
        nic = NicTimeline()
        first = nic.reserve(0, 1, ready=0.0, wire_s=10.0)
        second = nic.reserve(0, 2, ready=0.0, wire_s=10.0)
        assert nic.reservations == 2
        assert nic.stalls == 1
        assert (first.stalled_s, second.stalled_s) == (0.0, DEFAULT_WIRE_OVERLAP * 10.0)
        assert nic.port_free_at(0) == pytest.approx(
            DEFAULT_WIRE_OVERLAP * 10.0 + DEFAULT_WIRE_OVERLAP * 10.0
        )
        assert nic.link_free_at(0, 1) == pytest.approx(10.0)
        assert nic.port_free_at(5) == 0.0

    def test_negative_wire_rejected(self):
        nic = NicTimeline()
        with pytest.raises(NicError):
            nic.reserve(0, 1, ready=0.0, wire_s=-1.0)

    def test_bad_overlap_rejected(self):
        with pytest.raises(NicError):
            NicTimeline(wire_overlap=0.0)
        with pytest.raises(NicError):
            NicTimeline(wire_overlap=1.5)


_NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def _reserve(nic, **bad):
    fields = {"ready": 0.0, "wire_s": 0.5, "nbytes": 64, **bad}
    nic.reserve(0, 1, fields["ready"], fields["wire_s"], fields["nbytes"])


def _reserve_batch(nic, **bad):
    fields = {"ready": 0.0, "wire_s": 0.5, "nbytes": 64}
    for name, value in bad.items():
        # One bad entry in an otherwise good (2, 2) column.
        column = np.full((2, 2), fields[name], dtype=type(value))
        column[1, 1] = value
        fields[name] = column
    nic.reserve_batch([0, 1], np.asarray([[2, 3], [4, 5]]),
                      fields["ready"], fields["wire_s"], fields["nbytes"])


def _record(**bad):
    return IngestRecord(**{"post_time": 0.0, "source": 0, "seq": 0, "wire_s": 0.5,
                           "arrival": 0.5, **bad})


def _ingest(nic, **bad):
    nic.ingest(1, [_record(seq=1), _record(**bad)])


def _ingest_batch_vec(nic, **bad):
    rows = [[_record(seq=1), _record(**bad)], [_record(source=1), _record(source=1, seq=1)]]
    columns = [np.asarray([[record[f] for record in row] for row in rows]) for f in range(5)]
    nic.ingest_batch_vec([1, 2], *columns)


class TestBadNumbersRejected:
    """Non-finite times break "the batch is exactly the scalar loop" (Python
    ``max`` and ``np.maximum`` disagree on NaN) and a NaN wire time passes a
    ``< 0`` guard, so every entry point refuses them by field name — before
    it touches a cursor."""

    @pytest.mark.parametrize("entry, field", [
        (_reserve, "ready"), (_reserve, "wire_s"),
        (_reserve_batch, "ready"), (_reserve_batch, "wire_s"),
        (_ingest, "post_time"), (_ingest, "wire_s"), (_ingest, "arrival"),
        (_ingest_batch_vec, "post_time"), (_ingest_batch_vec, "wire_s"),
        (_ingest_batch_vec, "arrival"),
    ])
    @pytest.mark.parametrize("value", _NON_FINITE)
    def test_non_finite_field_is_named(self, entry, field, value):
        nic = NicTimeline()
        untouched = nic.state_fingerprint()
        with pytest.raises(NicError, match=field):
            entry(nic, **{field: value})
        assert nic.state_fingerprint() == untouched
        assert nic.pending_ingest(1) == 0 and nic.ledger_len() == 0

    @pytest.mark.parametrize("entry", [_reserve, _reserve_batch])
    def test_negative_nbytes_is_named(self, entry):
        nic = NicTimeline()
        with pytest.raises(NicError, match="nbytes"):
            entry(nic, nbytes=-1)
        assert nic.reservations == 0

    def test_frozen_lane_still_checks_ready(self):
        """The frozen-shape lane skips re-validating ``wire_s`` (read-only,
        already checked) — never the per-call ``ready``."""
        sources, dests, wire = np.arange(2), np.asarray([[2, 3], [4, 5]]), np.full((2, 2), 0.5)
        for array in (sources, dests, wire):
            array.flags.writeable = False
        nic = NicTimeline()
        nic.reserve_batch(sources, dests, 0.0, wire)
        assert nic._batch_shape is not None
        with pytest.raises(NicError, match="ready"):
            nic.reserve_batch(sources, dests, float("nan"), wire)
        assert nic.reservations == 4


class TestReserveBatchSchedule:
    """The level schedule behind ``reserve_batch`` (bit-identity to the
    scalar loop is pinned in ``tests/property/test_property_batchbooking.py``)."""

    @staticmethod
    def _level_widths(nic):
        return [hi - lo for lo, hi, _ in nic._batch_shape[-1].levels]

    @staticmethod
    def _frozen(*arrays):
        for array in arrays:
            array.flags.writeable = False
        return arrays

    def test_flat_batch_levels_are_its_columns(self):
        sources, dests, wire = self._frozen(
            np.arange(5), np.arange(5)[:, None] + np.asarray([10, 20, 30]), np.full((5, 3), 0.5)
        )
        nic = NicTimeline()
        nic.reserve_batch(sources, dests, 0.0, wire)
        assert self._level_widths(nic) == [5, 5, 5]

    def test_one_repeated_source_is_one_chain(self):
        """Every message binds the one port: N levels of width 1, and still
        exactly the scalar loop."""
        sources, dests, wire = self._frozen(
            np.zeros(3, dtype=np.int64), np.asarray([[1, 2], [1, 3], [2, 1]]), np.full((3, 2), 0.25)
        )
        batched, scalar = NicTimeline(), NicTimeline()
        batch = batched.reserve_batch(sources, dests, 0.0, wire, 64)
        assert self._level_widths(batched) == [1] * 6
        loop = [scalar.reserve(0, int(d), 0.0, 0.25, 64) for d in dests.ravel()]
        assert batch.start.ravel().tolist() == [r.start for r in loop]
        assert batch.seq.ravel().tolist() == [0, 1, 2, 3, 4, 5]
        assert batched.state_fingerprint() == scalar.state_fingerprint()
        assert batch.stalled_s.ravel().tolist() == [r.stalled_s for r in loop]

    def test_mismatched_route_table_rejected(self):
        from repro.machine.topology import RouteTable

        table = RouteTable.from_paths([[None, None]])
        with pytest.raises(NicError, match="2 x 2"):
            NicTimeline().reserve_batch([0, 1], np.asarray([[2, 3], [4, 5]]), 0.0, 0.5, paths=table)

    def test_ragged_nested_paths_rejected(self):
        with pytest.raises(NicError, match="2 x 2"):
            NicTimeline().reserve_batch(
                [0, 1], np.asarray([[2, 3], [4, 5]]), 0.0, 0.5, paths=[[None, None], [None]]
            )

    def test_empty_batch_books_nothing(self):
        nic = NicTimeline()
        batch = nic.reserve_batch(np.arange(3), np.empty((3, 0), dtype=np.int64), 0.0, 0.5)
        assert batch.start.shape == (3, 0)
        batch = nic.reserve_batch([], np.empty((0, 4), dtype=np.int64), 0.0, 0.5, paths=[])
        assert batch.start.shape == (0, 4)
        assert nic.reservations == 0 and nic.ledger_len() == 0

    def test_changed_wire_overlap_is_not_served_a_stale_schedule(self):
        """The memoised advances hold ``overlap * wire``: the same frozen
        arrays under another ``wire_overlap`` are scheduled afresh."""
        sources, dests, wire = self._frozen(
            np.arange(4), np.arange(4)[:, None] + np.asarray([10, 20]), np.full((4, 2), 0.5)
        )
        batched, scalar = NicTimeline(), NicTimeline()
        for overlap in (0.5, 0.25):
            batched.wire_overlap = scalar.wire_overlap = overlap
            batch = batched.reserve_batch(sources, dests, 0.0, wire)
            loop = [
                scalar.reserve(int(s), int(d), 0.0, 0.5)
                for s, row in zip(sources, dests) for d in row
            ]
            assert batch.start.ravel().tolist() == [r.start for r in loop]
            assert batched.state_fingerprint() == scalar.state_fingerprint()


class TestBatchRoundCallCount:
    """The noise-free cost witness ``calls_per_op`` gives, kept in tier-1:
    a warm batch round costs Python calls per *level*, none per message."""

    @staticmethod
    def _round_calls(nranks, spec):
        """``call`` + ``c_call`` events of one warm ``reserve_batch`` +
        ``ingest_batch_vec`` round of a degree-4 ring halo, and its depth."""
        sources = np.arange(nranks, dtype=np.int64)
        dests = np.asarray(
            [sorted((r + d) % nranks for d in (-2, -1, 1, 2)) for r in range(nranks)], dtype=np.int64
        )
        wire = np.full(dests.shape, 0.5)
        hits = {}
        for i, row in enumerate(dests.tolist()):
            for j, dest in enumerate(row):
                hits.setdefault(dest, []).append((i, j))
        ingest_dests = np.asarray(list(hits), dtype=np.int64)
        rows = np.asarray([[i for i, _ in hits[d]] for d in hits])
        cols = np.asarray([[j for _, j in hits[d]] for d in hits])
        table = rails = None
        if spec is not None:
            topology = Topology(nranks, machine=SUMMIT, spec=spec)
            table = topology.route_table(sources, dests, device_buffers=True)
            rails = (table.ingest_rail[rows, cols], table.ingest_rail_keys)
            rails[0].flags.writeable = False
        for array in (sources, dests, wire, ingest_dests):
            array.flags.writeable = False
        nic = NicTimeline()
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        previous = sys.getprofile()
        for round_index in range(3):            # two rounds warm the shape memos
            if round_index == 2:
                sys.setprofile(count)
            try:
                batch = nic.reserve_batch(sources, dests, 0.25 * round_index, wire, 4096, paths=table)
                nic.ingest_batch_vec(
                    ingest_dests, batch.start[rows, cols], rows, batch.seq[rows, cols],
                    wire[rows, cols], batch.arrival[rows, cols], rails=rails,
                )
            finally:
                sys.setprofile(previous)
        assert nic.peak_pending == 4 * nranks and nic.pending_ingest(0) == 0
        depth = len(nic._batch_shape[-1].levels) + 4 * len(nic._ingest_shape[-1].stages)
        return calls, depth

    @pytest.mark.parametrize("spec", [None, FABRIC_SPEC], ids=["flat", "fabric"])
    def test_calls_grow_with_levels_not_messages(self, spec):
        small, small_depth = self._round_calls(256, spec)
        large, large_depth = self._round_calls(1024, spec)
        # 3072 more messages; a per-message call anywhere adds >= 3072.
        assert large - small <= 8 * (large_depth - small_depth) + 16, (small, large)
        assert large < 3072


class TestLedger:
    def test_in_flight_counts_occupancy(self):
        nic = NicTimeline()
        nic.reserve(0, 1, ready=0.0, wire_s=10.0, nbytes=64)
        nic.reserve(0, 2, ready=0.0, wire_s=10.0, nbytes=64)
        assert nic.in_flight(1.0) == 1  # second starts at 6.5
        assert nic.in_flight(7.0) == 2
        assert nic.in_flight(20.0) == 0
        assert nic.in_flight(7.0, source=0) == 2
        assert nic.in_flight(7.0, source=3) == 0

    def test_ledger_records_and_bounds(self):
        nic = NicTimeline(ledger_limit=2)
        for peer in (1, 2, 3):
            nic.reserve(0, peer, ready=0.0, wire_s=1.0, nbytes=peer)
        records = nic.ledger()
        assert len(records) == 2
        assert [r.dest for r in records] == [2, 3]
        assert nic.ledger(source=7) == []

    def test_timelines_share_no_state(self):
        """A timeline is never reset: a run that starts over builds a new
        one, which prices its first post as if nothing had been sent."""
        busy = NicTimeline()
        busy.reserve(0, 1, ready=0.0, wire_s=10.0, nbytes=64)
        reservation = busy.reserve(0, 2, ready=0.0, wire_s=10.0, nbytes=64)
        busy.ingest(2, records_for([(0, reservation)], 10.0))
        fresh = NicTimeline()
        assert (fresh.reservations, fresh.stalls, fresh.ingests, fresh.ingest_stalls) == (0, 0, 0, 0)
        assert fresh.port_free_at(0) == fresh.ingest_free_at(2) == 0.0
        assert fresh.ledger() == [] and fresh.in_flight(7.0) == 0
        first = fresh.reserve(0, 3, ready=0.0, wire_s=1.0)
        assert (first.start, first.stalled_s) == (0.0, 0.0)
        assert busy.reservations == 2 and busy.port_free_at(0) > 0.0


class TestIngest:
    """The receive-side mirror: ingestion ports and deterministic ordering."""

    def test_lone_message_lands_at_its_arrival(self):
        nic = NicTimeline()
        reservation = nic.reserve(1, 0, ready=0.0, wire_s=10.0)
        [landing] = nic.ingest(0, records_for([(1, reservation)], 10.0))
        assert landing == reservation.arrival
        assert nic.ingest_stalls == 0
        assert nic.ingest_free_at(0) == pytest.approx(DEFAULT_WIRE_OVERLAP * 10.0)

    def test_incast_serialises_on_the_ingestion_port(self):
        nic = NicTimeline()
        # Three senders, idle injection ports: all arrivals coincide.
        reservations = [(s, nic.reserve(s, 0, ready=0.0, wire_s=10.0)) for s in (1, 2, 3)]
        landings = nic.ingest(0, records_for(reservations, 10.0))
        assert landings[0] == 10.0
        assert landings[1] == pytest.approx(10.0 + DEFAULT_WIRE_OVERLAP * 10.0)
        assert landings[2] == pytest.approx(10.0 + 2 * DEFAULT_WIRE_OVERLAP * 10.0)
        assert nic.ingest_stalls == 2
        assert [landing - 10.0 for landing in landings] == pytest.approx(
            [0.0, DEFAULT_WIRE_OVERLAP * 10.0, 2 * DEFAULT_WIRE_OVERLAP * 10.0]
        )

    def test_port_spaced_arrivals_pass_undelayed(self):
        """One sender's stream to several peers is already port-spaced; its
        mirror (several senders whose posts are spaced the same way) must
        flow through the receiver's port without a single stall."""
        nic = NicTimeline()
        reservations = []
        for index, source in enumerate((1, 2, 3, 4)):
            ready = index * DEFAULT_WIRE_OVERLAP * 10.0
            reservations.append((source, nic.reserve(source, 0, ready=ready, wire_s=10.0)))
        landings = nic.ingest(0, records_for(reservations, 10.0))
        assert landings == [r.arrival for _, r in reservations]
        assert nic.ingest_stalls == 0

    def test_batch_order_is_key_order_not_input_order(self):
        """Shuffled input prices identically: the batch is served in
        (post_time, source, seq) order whatever order envelopes were
        collected in — the determinism the executor relies on."""
        nic = NicTimeline()
        reservations = [(s, nic.reserve(s, 0, ready=0.0, wire_s=4.0)) for s in (1, 2, 3, 4)]
        records = records_for(reservations, 4.0)
        reference = dict(zip((r.key for r in records), NicTimeline().ingest(0, records)))
        for seed in (1, 7, 42):
            shuffled = records[:]
            random.Random(seed).shuffle(shuffled)
            fresh = NicTimeline()
            landings = fresh.ingest(0, shuffled)
            assert {r.key: t for r, t in zip(shuffled, landings)} == reference

    def test_commits_advance_the_cursor_across_batches(self):
        nic = NicTimeline()
        first = nic.reserve(1, 0, ready=0.0, wire_s=10.0)
        second = nic.reserve(2, 0, ready=0.0, wire_s=10.0)
        [l1] = nic.ingest(0, records_for([(1, first)], 10.0))
        [l2] = nic.ingest(0, records_for([(2, second)], 10.0))
        assert l1 == 10.0
        assert l2 == pytest.approx(10.0 + DEFAULT_WIRE_OVERLAP * 10.0)

    def test_zero_wire_records_pass_through(self):
        nic = NicTimeline()
        record = IngestRecord(post_time=1.0, source=1, seq=0, wire_s=0.0, arrival=5.0)
        assert nic.ingest(0, [record]) == [5.0]
        assert nic.ingests == 0
        assert nic.ingest_free_at(0) == 0.0

    def test_preview_does_not_commit(self):
        nic = NicTimeline()
        reservation = nic.reserve(1, 0, ready=0.0, wire_s=10.0)
        before = nic.ingest_preview(0, reservation.arrival, 10.0)
        assert before == reservation.arrival
        assert nic.ingest_free_at(0) == 0.0  # unchanged
        nic.ingest(0, records_for([(1, reservation)], 10.0))
        # A second message of the same shape would now queue.
        assert nic.ingest_preview(0, reservation.arrival, 10.0) == pytest.approx(
            reservation.arrival + DEFAULT_WIRE_OVERLAP * 10.0
        )

    def test_ingestion_never_touches_send_side_state(self):
        """The inject-only pin, at the unit level: ingesting cannot move any
        injection port or link cursor."""
        nic = NicTimeline()
        reservations = [(s, nic.reserve(s, 0, ready=0.0, wire_s=10.0)) for s in (1, 2)]
        ports = {s: nic.port_free_at(s) for s in (1, 2)}
        links = {s: nic.link_free_at(s, 0) for s in (1, 2)}
        nic.ingest(0, records_for(reservations, 10.0))
        assert {s: nic.port_free_at(s) for s in (1, 2)} == ports
        assert {s: nic.link_free_at(s, 0) for s in (1, 2)} == links


class TestIngestBacklog:
    """The advisory posted-but-not-yet-ingested signal selection prices."""

    def test_pending_posts_show_up_as_backlog(self):
        nic = NicTimeline()
        for source in (1, 2, 3):
            nic.reserve(source, 0, ready=0.0, wire_s=10.0)
        assert nic.pending_ingest(0) == 3
        # Replay: each message holds the port for an overlap fraction of its
        # wire time, aligned at its (shared) post time.
        assert nic.ingest_backlog(0, now=0.0) == pytest.approx(
            3 * DEFAULT_WIRE_OVERLAP * 10.0
        )
        # Far in the future everything has drained (and is pruned).
        assert nic.ingest_backlog(0, now=100.0) == 0.0

    def test_commits_consume_pending(self):
        nic = NicTimeline()
        reservation = nic.reserve(1, 0, ready=0.0, wire_s=10.0)
        assert nic.pending_ingest(0) == 1
        nic.ingest(0, records_for([(1, reservation)], 10.0))
        assert nic.pending_ingest(0) == 0

    def test_future_posts_are_invisible(self):
        """A rank can only know about traffic from its virtual past: records
        whose post_time has not passed on the caller's clock are excluded."""
        nic = NicTimeline()
        nic.reserve(1, 0, ready=50.0, wire_s=10.0)  # posts at t=50
        assert nic.ingest_backlog(0, now=10.0) == 0.0
        assert nic.ingest_backlog(0, now=51.0) > 0.0

    def test_backlog_is_a_pure_read(self):
        """Queries never consume records, whatever clock they carry — so
        concurrent readers with different clocks cannot disturb each other
        (the consumption happens at ingest time, in receiver program order)."""
        nic = NicTimeline()
        nic.reserve(1, 0, ready=0.0, wire_s=10.0)
        assert nic.ingest_backlog(0, now=100.0) == 0.0  # drained from here...
        assert nic.pending_ingest(0) == 1  # ...but not consumed
        assert nic.ingest_backlog(0, now=0.0) == pytest.approx(
            DEFAULT_WIRE_OVERLAP * 10.0
        )

    def test_commit_prunes_records_drained_behind_the_cursor(self):
        """A record consumed on another path (a system receive) is dropped at
        the next commit once the committed cursor has passed it."""
        nic = NicTimeline()
        stray = nic.reserve(1, 0, ready=0.0, wire_s=1.0)  # never ingested
        assert stray.arrival == 1.0
        late = nic.reserve(2, 0, ready=50.0, wire_s=10.0)
        nic.ingest(0, records_for([(2, late)], 10.0))
        assert nic.pending_ingest(0) == 0  # the stray was pruned at commit

    def test_inject_only_reservations_skip_the_ledger(self):
        nic = NicTimeline()
        nic.reserve(1, 0, ready=0.0, wire_s=10.0, ingest=False)
        assert nic.pending_ingest(0) == 0
        assert nic.ingest_backlog(0, now=0.0) == 0.0

    def test_pending_is_bounded(self):
        nic = NicTimeline(pending_limit=4)
        for index in range(10):
            nic.reserve(1, 0, ready=float(index), wire_s=0.5)
        assert nic.pending_ingest(0) <= 4

    def test_per_source_seqs_are_deterministic(self):
        nic = NicTimeline()
        first = nic.reserve(3, 0, ready=0.0, wire_s=1.0)
        second = nic.reserve(3, 1, ready=0.0, wire_s=1.0)
        other = nic.reserve(4, 0, ready=0.0, wire_s=1.0)
        assert (first.seq, second.seq) == (0, 1)
        assert other.seq == 0  # counters are per source
        # A coalesced batch of three draws seqs 2, 3 and 4 in its one reservation.
        assert nic.reserve(3, 2, ready=0.0, wire_s=1.0, messages=3).seq == 2
        assert nic.reserve(3, 0, ready=0.0, wire_s=1.0).seq == 5


class TestThreadSafety:
    def test_concurrent_sources_keep_consistent_ports(self):
        nic = NicTimeline()
        errors = []

        def inject(rank):
            try:
                for _ in range(200):
                    nic.reserve(rank, (rank + 1) % 8, ready=0.0, wire_s=0.01)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=inject, args=(rank,)) for rank in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert nic.reservations == 8 * 200
        # Every rank sent 200 messages to one peer: the link rule serialises
        # them end to end, so each start is 0.01 after the previous and the
        # port frees an overlap-fraction after the last start.
        expected = 199 * 0.01 + DEFAULT_WIRE_OVERLAP * 0.01
        for rank in range(8):
            assert nic.port_free_at(rank) == pytest.approx(expected)

"""The runtime clock sanitizer: happens-before auditing of the NIC event stream.

The simulator's determinism argument (``docs/ARCHITECTURE.md``) rests on
three rules — send side source-scoped, receive side receiver-committed,
cross-rank reads only behind a happens-before edge.  The third rule is the
one a test can violate silently: PR 5's ``bench_fig9`` read another rank's
posted backlog with no synchronisation and produced run-to-run jitter that
took a fuzz seed to find.  This module checks the rule *while the simulator
runs*.

A :class:`ClockSanitizer` is a trace sink (``TempiConfig(trace=...)``,
:data:`~repro.machine.nic.NicSink`): it reads the event stream of every
:class:`~repro.machine.nic.NicTimeline` it is attached to and maintains,
per timeline, a **vector clock per rank**:

* a **post** (:class:`~repro.machine.nic.PostEvent`, any scalar
  reservation on the timeline) ticks the source's clock and snapshots it
  under the message identity ``(post_time, source, seq)``;
* an **ingest** (:class:`~repro.machine.nic.IngestEvent`) ticks the
  destination's clock and joins each message's sender snapshot into it —
  the edge a completed receive establishes;
* a **join** (:class:`~repro.machine.nic.JoinEvent`, the interposer's
  ``Barrier`` and other collective fall-throughs) merges all clocks once
  every rank arrived.

Each audited event then checks:

* **happens-before** — a contended selector's cross-rank backlog read
  (:class:`~repro.machine.nic.BacklogReadEvent`) must find every foreign
  pending record's snapshot ≤ the reader's clock, else the read races the
  post and :class:`SanitizerError` names the two events;
* **monotonicity** — a rank's injection/ingestion port cursors, and every
  shared rail and uplink cursor, never move backwards; a cross-rank commit
  on a shared cursor needs a happens-before edge to the previous one;
* **pricing purity** — the rank-scoped ledger fingerprint and the rank's
  mutation count are equal at both ends of a selector's pricing bracket
  (:class:`~repro.machine.nic.PricingEvent`): the dynamic twin of
  simlint's SIM002.

Every value checked travels on the event, so the sanitizer never reads the
timeline back.  ``repro sanitize`` replays the figure benchmarks with one
fresh sanitizer each and prints its :attr:`~ClockSanitizer.counters`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, NamedTuple
from weakref import WeakKeyDictionary

from repro.machine.nic import (
    BacklogReadEvent,
    IngestEvent,
    JoinEvent,
    NicEvent,
    NicTimeline,
    PostEvent,
    PricingEvent,
    SeqEvent,
)

#: Most post snapshots retained per timeline (FIFO eviction).  An evicted
#: snapshot makes the happens-before audit *conservative* (the read is
#: skipped), never wrong; the cap keeps a long sanitized run's footprint
#: bounded, mirroring the advisory pending ledger's own ``pending_limit``.
SNAPSHOT_LIMIT = 65536

#: The audit totals a sanitizer keeps, in the order ``repro sanitize`` prints.
COUNTERS = (
    "posts", "ingests", "joins", "barriers", "hb_checks", "purity_checks",
    "shared_commits", "violations",
)


class SanitizerEvent(NamedTuple):
    """One audited commit or read, with enough identity to name in an error."""

    kind: str
    rank: int
    index: int
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}#{self.index} by rank {self.rank} ({self.detail})"


class SanitizerError(RuntimeError):
    """A determinism violation, carrying the two racing/conflicting events."""

    def __init__(self, message: str, first: SanitizerEvent, second: SanitizerEvent) -> None:
        super().__init__(f"{message}: {first} vs {second}")
        #: The two events the violation is between, in (earlier, later) order.
        self.events = (first, second)


def _vc_leq(left: dict[int, int], right: dict[int, int]) -> bool:
    """Vector-clock ordering: every component of ``left`` is visible in ``right``."""
    return all(right.get(rank, 0) >= tick for rank, tick in left.items())


class _TimelineAudit:
    """Vector clocks and last-seen cursors of one traced timeline."""

    def __init__(self, counters: dict[str, int]) -> None:
        self.counters = counters
        self.vc: dict[int, dict[int, int]] = {}
        #: Per rank, its mutations so far (posts, sequence draws, ingests).
        self.events: dict[int, int] = {}
        self.snapshots: OrderedDict[tuple[float, int, int], tuple[SanitizerEvent, dict[int, int]]] = OrderedDict()
        self.last_post: dict[int, SanitizerEvent] = {}
        self.last_commit: dict[int, SanitizerEvent] = {}
        self.inject_cursor: dict[int, float] = {}
        self.ingest_cursor: dict[int, float] = {}
        #: Last commit per shared topology cursor (NIC rails, leaf-uplink
        #: bundles): the committing event, the committer's clock snapshot and
        #: the cursor value — what the cross-rank audit compares against.
        self.shared_last: dict[tuple[str, Any], tuple[SanitizerEvent, dict[int, int], float]] = {}
        self.barrier_waiting: set[int] = set()
        #: Per rank inside a pricing bracket: fingerprint and event count.
        self.pricing: dict[int, tuple[int, int]] = {}

    def _clock(self, rank: int) -> dict[int, int]:
        return self.vc.setdefault(rank, {})

    def _tick(self, rank: int) -> int:
        """Advance ``rank``'s clock for one mutation; return its event index."""
        clock = self._clock(rank)
        clock[rank] = clock.get(rank, 0) + 1
        index = self.events.get(rank, 0) + 1
        self.events[rank] = index
        return index

    def _violation(self, message: str, first: SanitizerEvent, second: SanitizerEvent) -> None:
        self.counters["violations"] += 1
        raise SanitizerError(message, first, second)

    def _monotone(
        self, last: dict[int, float], rank: int, cursor: float, label: str,
        previous_event: SanitizerEvent, event: SanitizerEvent,
    ) -> None:
        """Check and record one rank-owned port cursor."""
        previous = last.get(rank)
        if previous is not None and cursor < previous:
            self._violation(
                f"{label} cursor of rank {rank} moved backwards "
                f"({previous:.9g} -> {cursor:.9g})",
                previous_event,
                event,
            )
        last[rank] = cursor

    def _shared_commit(
        self, rank: int, event: SanitizerEvent, label: str, key: Any, cursor: float
    ) -> None:
        """Audit one commit to a shared topology cursor.

        Shared cursors (NIC rails, uplink bundles) mix sources by design;
        they stay deterministic only when cross-rank commits are ordered by
        happens-before (barrier-phased drivers).  An unordered pair makes
        the booked times interleaving-dependent, so it is a violation even
        though each individual commit is monotone.
        """
        self.counters["shared_commits"] += 1
        previous = self.shared_last.get((label, key))
        if previous is not None:
            prev_event, prev_clock, prev_cursor = previous
            if cursor < prev_cursor:
                self._violation(
                    f"shared {label} cursor {key!r} moved backwards "
                    f"({prev_cursor:.9g} -> {cursor:.9g})",
                    prev_event,
                    event,
                )
            if prev_event.rank != rank and not _vc_leq(prev_clock, self._clock(rank)):
                self._violation(
                    f"rank {rank} committed to shared {label} cursor {key!r} "
                    f"without a happens-before edge to rank {prev_event.rank}'s "
                    "commit",
                    prev_event,
                    event,
                )
        self.shared_last[(label, key)] = (event, dict(self._clock(rank)), cursor)

    # ----------------------------------------------------------------- events
    def post(self, post: PostEvent) -> None:
        """A reservation: tick, check the port cursors, snapshot the clock."""
        source, reservation = post.rank, post.reservation
        event = SanitizerEvent(
            "post",
            source,
            self._tick(source),
            f"dest {post.dest}, post_time={reservation.start:.9g}, seq={reservation.seq}",
        )
        self.counters["posts"] += 1
        self._monotone(
            self.inject_cursor, source, post.port, "injection-port",
            self.last_post.get(source, event), event,
        )
        self.last_post[source] = event
        for label, key, cursor in post.shared:
            self._shared_commit(source, event, label, key, cursor)
        if post.ingest and reservation.wire_s > 0:
            key = (reservation.start, source, reservation.seq)
            self.snapshots[key] = (event, dict(self._clock(source)))
            while len(self.snapshots) > SNAPSHOT_LIMIT:
                self.snapshots.popitem(last=False)

    def seq(self, seq: SeqEvent) -> None:
        """A sequence-number draw (a batched-send envelope) is a mutation."""
        self._tick(seq.rank)

    def ingest(self, ingest: IngestEvent) -> None:
        """An ingestion commit: join sender snapshots, check the cursors."""
        dest = ingest.rank
        event = SanitizerEvent(
            "ingest-commit", dest, self._tick(dest), f"{len(ingest.records)} record(s)"
        )
        self.counters["ingests"] += 1
        clock = self._clock(dest)
        for record in ingest.records:
            snapshot = self.snapshots.pop(record.key, None)
            if snapshot is None:
                continue
            for rank, tick in snapshot[1].items():
                if clock.get(rank, 0) < tick:
                    clock[rank] = tick
            self.counters["joins"] += 1
        self._monotone(
            self.ingest_cursor, dest, ingest.port, "ingestion-port",
            self.last_commit.get(dest, event), event,
        )
        self.last_commit[dest] = event
        # Ingestion rails mix node-mates the same way injection rails do.
        for rail, cursor in ingest.rails:
            self._shared_commit(dest, event, "ingest-rail", rail, cursor)

    def read(self, read: BacklogReadEvent) -> None:
        """Audit a cross-rank backlog read for happens-before coverage."""
        reader = read.rank
        self.counters["hb_checks"] += 1
        reader_clock = self._clock(reader)
        read_event = SanitizerEvent(
            "backlog-read",
            reader,
            self.events.get(reader, 0),
            f"dest {read.dest}, now={read.now:.9g}",
        )
        for record in read.pending:
            if record.source == reader or record.post_time > read.now:
                # A rank always sees its own posts; records beyond the
                # reader's clock are filtered out of the priced signal.
                continue
            snapshot = self.snapshots.get(record.key)
            if snapshot is None:
                # Evicted, or posted before the sink was attached: conservative.
                continue
            post_event, post_clock = snapshot
            if not _vc_leq(post_clock, reader_clock):
                self._violation(
                    f"rank {reader} read rank {read.dest}'s ingest backlog "
                    f"without a happens-before edge to the racing post",
                    post_event,
                    read_event,
                )

    def pricing(self, pricing: PricingEvent) -> None:
        """One end of a selector pricing bracket: nothing may mutate inside."""
        rank = pricing.rank
        mutations = self.events.get(rank, 0)
        if not pricing.done:
            self.counters["purity_checks"] += 1
            self.pricing[rank] = (pricing.fingerprint, mutations)
            return
        if self.pricing.pop(rank) != (pricing.fingerprint, mutations):
            self._violation(
                f"selector pricing on rank {rank} mutated priced ledger state "
                "(pricing must be a pure read)",
                SanitizerEvent("pricing", rank, mutations, "selector pricing call"),
                SanitizerEvent(
                    "mutation", rank, mutations,
                    "ledger fingerprint changed inside the pricing bracket",
                ),
            )

    def join(self, join: JoinEvent) -> None:
        """One rank arriving at a collective join point (``Barrier`` & co).

        The event precedes the real barrier on every rank, so by the time
        the *last* arriver merges the clocks no rank has been released —
        every rank leaves the barrier with the fully joined clock in place.
        """
        self.barrier_waiting.add(join.rank)
        if len(self.barrier_waiting) < join.size:
            return
        merged: dict[int, int] = {}
        for clock in self.vc.values():
            for owner, tick in clock.items():
                if merged.get(owner, 0) < tick:
                    merged[owner] = tick
        for participant in list(self.vc) + list(self.barrier_waiting):
            self.vc[participant] = dict(merged)
        self.barrier_waiting.clear()
        self.counters["barriers"] += 1


_HANDLERS: dict[type, Callable[[_TimelineAudit, Any], None]] = {
    PostEvent: _TimelineAudit.post,
    SeqEvent: _TimelineAudit.seq,
    IngestEvent: _TimelineAudit.ingest,
    BacklogReadEvent: _TimelineAudit.read,
    PricingEvent: _TimelineAudit.pricing,
    JoinEvent: _TimelineAudit.join,
}


class ClockSanitizer:
    """A trace sink auditing every timeline it is attached to.

    One sink may serve many timelines — a benchmark builds many worlds — so
    vector clocks are kept per timeline (dropped with it),
    while :attr:`counters` total the audit over all of them.
    """

    def __init__(self) -> None:
        #: Audit totals by name (:data:`COUNTERS`).
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._lock = threading.Lock()
        self._audits: WeakKeyDictionary[NicTimeline, _TimelineAudit] = WeakKeyDictionary()

    def __call__(self, timeline: NicTimeline, event: NicEvent) -> None:
        with self._lock:
            audit = self._audits.get(timeline)
            if audit is None:
                audit = self._audits[timeline] = _TimelineAudit(self.counters)
            _HANDLERS[type(event)](audit, event)

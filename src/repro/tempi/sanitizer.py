"""The runtime clock sanitizer: happens-before auditing of the NIC event stream.

The simulator's determinism argument (``docs/ARCHITECTURE.md``) rests on
three rules — send side source-scoped, receive side receiver-committed,
cross-rank reads only behind a happens-before edge.  The third rule is the
one a test can violate silently: PR 5's ``bench_fig9`` read another rank's
posted backlog with no synchronisation and produced run-to-run jitter that
took a fuzz seed to find.  This module checks the rule *while the simulator
runs*.

A :class:`ClockSanitizer` is a trace sink (:data:`~repro.machine.nic.NicSink`,
attached to every :class:`~repro.machine.nic.NicTimeline` built inside
:func:`~repro.machine.nic.trace_default`): it reads the event stream of each
timeline it is attached to and maintains,
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
  shared rail and uplink cursor, never move backwards;
* **key order** — a post that commits to a send-side rail or uplink bundle
  carries a ``(ready, source)`` key no lower than any key another rank
  committed there before it (the order the router's
  :meth:`~repro.mpi.p2p.MessageRouter.await_key` enforces), and a
  cross-rank commit on a receive-side rail needs a happens-before edge to
  the previous one;
* **pricing purity** — the rank-scoped ledger fingerprint and the rank's
  mutation count are equal at both ends of a selector's pricing bracket
  (:class:`~repro.machine.nic.PricingEvent`): the dynamic twin of
  simlint's SIM002.

Every value checked travels on the event, so the sanitizer never reads the
timeline back.  ``repro sanitize`` replays the figure benchmarks — the
worlds' timelines and the analytic twins' private ones alike — with one
fresh sanitizer each and prints its :attr:`~ClockSanitizer.counters`.
The same walk charges each wait to the cursor that bound it, per resource
(:data:`RESOURCES`) and per rank, beside each resource's busy seconds:
what ``repro explain`` prints.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, NamedTuple, Optional

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

#: The cursors a wait is charged to, in the NIC's clamp order.
RESOURCES = ("injection port", "link", "NIC rail", "uplink bundle", "ingestion port")
#: The resource each :attr:`~repro.machine.nic.PostEvent.shared` label names.
_SHARED = {"rail": "NIC rail", "fabric": "uplink bundle"}


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
    """Vector clocks, last-seen cursors and accounts of one traced timeline."""

    def __init__(self, counters: dict[str, int], overlap: float) -> None:
        self.counters = counters
        self.vc: dict[int, dict[int, int]] = {}
        #: Per rank, its mutations so far (posts, sequence draws, ingests).
        self.events: dict[int, int] = {}
        self.snapshots: OrderedDict[tuple[float, int, int], tuple[SanitizerEvent, dict[int, int]]] = OrderedDict()
        #: Per rank, its port cursors with the event that last set each.
        self.inject_cursor: dict[int, tuple[float, SanitizerEvent]] = {}
        self.ingest_cursor: dict[int, tuple[float, SanitizerEvent]] = {}
        #: Last commit per shared topology cursor: the committing event, the
        #: cursor value and, on an ingestion rail, the committer's clock.
        self.shared_last: dict[tuple[str, Any], tuple[SanitizerEvent, float, Optional[dict[int, int]]]] = {}
        #: Per send-side rail or uplink bundle: each committing rank's
        #: highest ``(ready, source)`` key there, with its event.
        self.shared_keys: dict[tuple[str, Any], dict[int, tuple[tuple[float, int], SanitizerEvent]]] = {}
        self.barrier_waiting: set[int] = set()
        #: Per rank inside a pricing bracket: fingerprint and event count.
        self.pricing: dict[int, tuple[int, int]] = {}
        #: The accounts: the NIC's own counts and fabric seconds, from the
        #: events; busy seconds per resource, and stall per rank and resource.
        self.overlap = overlap
        self.link_last: dict[tuple[int, int], float] = {}
        self.posts = self.stalls = self.ingest_stalls = self.fabric_stalls = 0
        self.fabric_stalled_s = 0.0
        self.busy = dict.fromkeys(RESOURCES, 0.0)
        self.rank_stall: dict[int, dict[str, float]] = {}

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
        self, last: dict[int, tuple[float, SanitizerEvent]], rank: int, cursor: float,
        label: str, event: SanitizerEvent,
    ) -> None:
        """Check and record one rank-owned port cursor."""
        previous = last.get(rank)
        if previous is not None and cursor < previous[0]:
            self._violation(
                f"{label} cursor of rank {rank} moved backwards "
                f"({previous[0]:.9g} -> {cursor:.9g})",
                previous[1],
                event,
            )
        last[rank] = (cursor, event)

    def _shared_commit(
        self, event: SanitizerEvent, label: str, key: Any, cursor: float,
        clock: Optional[dict[int, int]] = None,
    ) -> Any:
        """Audit one commit to a shared topology cursor, which mixes sources
        by design: it may not move the cursor backwards.  Records it with
        ``clock`` and returns the previous ``(event, cursor, clock)``.
        """
        self.counters["shared_commits"] += 1
        previous = self.shared_last.get((label, key))
        self.shared_last[(label, key)] = (event, cursor, clock)
        if previous is not None and cursor < previous[1]:
            self._violation(
                f"shared {label} cursor {key!r} moved backwards "
                f"({previous[1]:.9g} -> {cursor:.9g})",
                previous[0],
                event,
            )
        return previous

    def _free(self, label: str, key: Any) -> float:
        """A shared cursor as its last commit left it."""
        return self.shared_last.get((label, key), (None, 0.0))[1]

    def _charge(self, rank: int, begin: float, end: float, cursors: list[tuple[str, float]]) -> None:
        """Charge ``end - begin`` to ``rank`` and the first ``(resource, free
        time)`` freeing at ``end``; none does only after a booking no event
        showed (the batch sweep's), which ``repro explain`` refuses."""
        stalls = self.rank_stall.setdefault(rank, dict.fromkeys(RESOURCES, 0.0))
        bound = next((resource for resource, free in cursors if free == end), None)
        if end > begin and bound is not None:
            stalls[bound] += end - begin

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
        # Account first: the cursors below still hold the values this post met.
        start, port = reservation.start, self.inject_cursor.get(source, (0.0,))[0]
        link = self.link_last.get((source, post.dest), 0.0)
        base = max(post.ready, port, link)
        self._charge(source, post.ready, base, [("injection port", port), ("link", link)])
        self._charge(source, base, start, [
            (_SHARED[label], self._free(label, key)) for label, key, _ in post.shared
        ])
        self.busy["injection port"] += post.port - start
        self.busy["link"] += reservation.wire_s
        for label, _, cursor in post.shared:
            self.busy[_SHARED[label]] += cursor - start
        self.link_last[(source, post.dest)] = reservation.arrival
        self.posts += 1
        self.stalls += reservation.stalled_s > 0
        if start > base:
            self.fabric_stalls += 1
            self.fabric_stalled_s += start - base
        self._monotone(self.inject_cursor, source, post.port, "injection-port", event)
        order = (post.ready, source)
        for label, key, cursor in post.shared:
            self._shared_commit(event, label, key, cursor)
            keys = self.shared_keys.setdefault((label, key), {})
            highest = max((entry for rank, entry in keys.items() if rank != source), default=None)
            if highest is not None and order < highest[0]:
                self._violation(
                    f"rank {source} committed to shared {label} cursor {key!r} out of "
                    f"key order: (ready, source) {order} is below rank "
                    f"{highest[1].rank}'s {highest[0]}",
                    highest[1],
                    event,
                )
            if source not in keys or keys[source][0] < order:
                keys[source] = (order, event)
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
        # The event carries each landing; the cursors it waited for are the
        # last commit's, advanced over the records served before it.
        port = self.ingest_cursor.get(dest, (0.0,))[0]
        rails: dict[Any, float] = {}
        for (post_time, _, _, wire, arrival, rail), landing in ingest.landings:
            held = self.overlap * wire
            cursors = [("ingestion port", port + wire)]
            port = max(post_time, port) + held
            self.busy["ingestion port"] += held
            if rail is not None:
                free = rails.get(rail, self._free("ingest-rail", rail))
                cursors.append(("NIC rail", free + wire))
                rails[rail] = max(post_time, free) + held
                self.busy["NIC rail"] += held
            self._charge(dest, arrival, landing, cursors)
            self.ingest_stalls += landing > arrival
        clock = self._clock(dest)
        for record in ingest.records:
            snapshot = self.snapshots.pop(record.key, None)
            if snapshot is None:
                continue
            for rank, tick in snapshot[1].items():
                if clock.get(rank, 0) < tick:
                    clock[rank] = tick
            self.counters["joins"] += 1
        self._monotone(self.ingest_cursor, dest, ingest.port, "ingestion-port", event)
        # Ingestion rails mix node-mates; their receivers commit in program
        # order, so a cross-rank pair needs a happens-before edge.
        for rail, cursor in ingest.rails:
            previous = self._shared_commit(event, "ingest-rail", rail, cursor, dict(clock))
            if previous is not None and previous[0].rank != dest and not _vc_leq(previous[2], clock):
                self._violation(
                    f"rank {dest} committed to shared ingest-rail cursor {rail!r} "
                    f"without a happens-before edge to rank {previous[0].rank}'s commit",
                    previous[0],
                    event,
                )

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
    vector clocks and accounts are kept per timeline, while :attr:`counters`
    total the audit over all of them.
    """

    def __init__(self) -> None:
        #: Audit totals by name (:data:`COUNTERS`).
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._lock = threading.Lock()
        #: Each traced timeline's audit, in first-event order, kept for the
        #: sanitizer's life so ``repro explain`` reports every one.
        self.audits: dict[NicTimeline, _TimelineAudit] = {}

    def __call__(self, timeline: NicTimeline, event: NicEvent) -> None:
        with self._lock:
            audit = self.audits.get(timeline)
            if audit is None:
                audit = self.audits[timeline] = _TimelineAudit(self.counters, timeline.wire_overlap)
            _HANDLERS[type(event)](audit, event)

"""The progress engine: deferred wire state between the executor and the NIC.

PR 2's plan executor computed every message's arrival the moment it was
posted, against a NIC cursor that lived *inside one plan execution*.  The
:class:`ProgressEngine` is the per-rank layer that owns that state across
plans instead:

* **Cross-plan NIC accounting** — with ``TempiConfig(progress="shared")``
  (the default) every wire reservation goes through the world's shared
  :class:`~repro.machine.nic.NicTimeline`, so concurrent plans contend for
  the rank's injection port and per-peer links.  ``progress="per_plan"``
  reproduces the PR-2 schedule (a fresh cursor per plan, no cross-plan
  contention) for ablations — ``bench_fig15_contention.py`` measures the
  difference.
* **Duplex (receive-side) accounting** — with ``TempiConfig(nic="duplex")``
  (the default, shared mode only) every plan-posted message additionally
  carries its NIC identity ``(post_time, source, seq, wire_s)`` on the
  envelope, and the *receiving* rank commits it to its own ingestion port
  when the receive completes (:meth:`ingest_one` / :meth:`ingest_batch`,
  batches served in the deterministic ``(post_time, source, seq)`` order)::

      begin    = max(arrival - wire, ingest_free)
      landing  = begin + wire                      # what Wait advances to
      ingest_free = begin + overlap * wire

  so an incast queues at the hot receiver while symmetric traffic (arrivals
  already spaced by the senders' injection ports) passes undelayed, and the
  ``Wait``/``Test``/``Waitany`` arrival hints (:meth:`arrival_preview`)
  reflect the receiver's backlog.  ``nic="inject_only"`` skips all of this —
  the envelope's sender-computed arrival is final, bit-identical to the
  PR-3/PR-4 accounting.
* **Small-plan batching** — consecutive sub-eager-threshold nonblocking send
  plans to the same peer are coalesced: each plan's pack is issued
  immediately (exactly as an unbatched send would be), but the bytes ride
  **one** posted wire message reserved when the slowest pack completes —
  one latency floor and one NIC slot for the whole burst instead of one per
  plan.  Delivery stays byte-for-byte identical: every constituent keeps its
  own envelope, tag and payload; only the wire timing is shared (the burst's
  ingestion occupancy is split across constituents pro rata by size, so the
  receive side prices the batch once too).
* **Test-driven progress** — ``Request.Test``/``Testall``/``Wait`` on any
  engine-backed request call :meth:`progress` first, which flushes pending
  batches, so testing a request genuinely advances message arrival instead
  of polling a per-plan clock.

Batches are flushed at every progress point: any non-batchable plan
execution, any ``Wait``/``Test`` on an engine request, or an explicit
:meth:`flush`.  Flush-on-wait is what keeps deferral deadlock-free: MPI
requires every nonblocking send to eventually be completed, and completing it
forces the post.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.machine.nic import IngestRecord, NicReservation, NicTimeline
from repro.machine.topology import PathSpec, Topology
from repro.mpi.p2p import Envelope
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.tempi.cache import _StagingTracker
from repro.tempi.config import BATCH_MAX_MESSAGES, NIC_MODES, PROGRESS_MODES, PackMethod
from repro.tempi.plan import MessagePlan


class ProgressError(RuntimeError):
    """The engine was configured or driven impossibly."""


class PlanWindow:
    """The ``progress="per_plan"`` cursor (the PR-2 ablation).

    Opens at the host's current virtual time and serialises only the
    messages of its own plan; nothing is booked on the shared
    :class:`~repro.machine.nic.NicTimeline`.  Shared-mode plans reserve on
    the engine directly (:meth:`ProgressEngine.plan_window`).
    """

    def __init__(self, now: float, wire_overlap: float) -> None:
        self._nic_free = now
        self._wire_overlap = wire_overlap

    def reserve_wire(
        self, peer: int, ready: float, wire_s: float, nbytes: int = 0, *, device: bool = True
    ) -> NicReservation:
        """Place one message; ``seq == -1``: nothing is booked for ingestion."""
        start = max(ready, self._nic_free)
        self._nic_free = start + self._wire_overlap * wire_s
        return NicReservation(start, start + wire_s, start - ready, wire_s, -1)


@dataclass(slots=True)
class _PendingSend:
    """One enqueued sub-eager send plan: packed, awaiting its batch's post."""

    plan: MessagePlan
    nbytes: int
    #: The packed payload buffer (held by the batch's staging tracker).
    payload: object
    #: Virtual time the pack's kernels complete (wire-readiness).
    ready: float
    #: Buffer-reuse completion time (pack done + injection overhead).
    completion: float


@dataclass(slots=True)
class _Batch:
    """The pending small-send queue of one ``(peer, wire-path)`` pair.

    Entries are packed the moment they are enqueued (on their own streams,
    exactly like unbatched sends); what the batch defers and coalesces is the
    **wire side** — one reservation, one latency floor, one posted message's
    worth of NIC occupancy for the whole burst.
    """

    peer: int
    device: bool
    staging: object
    entries: list[_PendingSend] = field(default_factory=list)
    #: Running totals over ``entries``, kept by :meth:`ProgressEngine.offer_send`
    #: as it appends: the combined payload bytes, and the wire-readiness —
    #: when the slowest constituent pack completes.
    nbytes: int = 0
    ready: float = float("-inf")


class ProgressEngine:
    """Per-rank owner of deferred wire state for the plan executor."""

    def __init__(
        self,
        comm,
        cache,
        stats,
        *,
        mode: str = "shared",
        nic_mode: str = "duplex",
        batching: bool = True,
        batch_max_messages: int = BATCH_MAX_MESSAGES,
        topology: Optional[Topology] = None,
    ) -> None:
        if mode not in PROGRESS_MODES:
            raise ProgressError(
                f"unknown progress mode {mode!r}; expected one of {PROGRESS_MODES}"
            )
        if nic_mode not in NIC_MODES:
            raise ProgressError(
                f"unknown nic mode {nic_mode!r}; expected one of {NIC_MODES}"
            )
        if batch_max_messages < 1:
            raise ProgressError("batch_max_messages must be at least 1")
        self.comm = comm
        self.cache = cache
        self.stats = stats
        #: True when reservations go through the shared NIC timeline.
        self.shared = mode == "shared"
        #: True when receive-side (ingestion-port) accounting is active.
        #: Requires the shared timeline — the per-plan ablation has nothing to
        #: ingest against, so ``nic="duplex"`` degrades to inject-only there.
        self.duplex = self.shared and nic_mode == "duplex"
        nic = getattr(getattr(comm, "world", None), "nic", None)
        self.nic = nic if nic is not None else NicTimeline()
        #: Batching coalesces deferred posts, which only makes sense when the
        #: shared timeline prices them; per-plan mode is the PR-2 ablation.
        self.batching = bool(batching) and self.shared
        self.batch_max_messages = batch_max_messages
        self.eager_threshold = comm.network.machine.eager_threshold
        #: Topology the engine routes against.  ``None`` keeps the flat
        #: pre-topology books (no path resolution at all); a flat
        #: :class:`~repro.machine.topology.Topology` routes every post
        #: through path resolution but binds nothing (bit-identical,
        #: Hypothesis-pinned); a hierarchical one makes the wire price and
        #: the NIC binding per-path-class.
        self.topology = topology
        self.executor = None
        self._batches: dict[tuple[int, bool], _Batch] = {}

    # ---------------------------------------------------------------- wiring
    def bind(self, executor) -> None:
        """Attach the executor whose stages the engine issues at flush time."""
        self.executor = executor

    # ------------------------------------------------------------------- NIC
    def plan_window(self):
        """Where one plan's post stages reserve: anything with ``reserve_wire``.

        The engine itself on the shared timeline; a fresh per-plan cursor
        under the ``progress="per_plan"`` ablation.
        """
        if self.shared:
            return self
        return PlanWindow(self.comm.clock.now, self.nic.wire_overlap)

    def message_time(self, nbytes: int, peer: int, device: bool) -> float:
        """Wire time to ``peer``, priced along the engine's topology.

        With no engine topology this is exactly the communicator's pricing
        (which itself goes hierarchical when the *world* carries a
        hierarchical topology); an engine topology — e.g. from
        ``TempiConfig(topology=...)`` — overrides it, so a config-only
        topology reprices without rebuilding the world.
        """
        if self.topology is not None and self.topology.hierarchical:
            return self.topology.message_time(
                self.comm.rank, peer, nbytes, device_buffers=device
            )
        return self.comm._message_time(nbytes, peer, device)

    def _route(self, peer: int, device: bool) -> Optional[PathSpec]:
        """The path a post to ``peer`` binds (``None`` without a topology).

        Resolution is memoised inside :class:`~repro.machine.topology.Topology`
        so the hot path is one dict probe; a *flat* topology resolves every
        pair to an unbinding path, which the NIC prices bit-identically to
        no path at all.
        """
        if self.topology is None:
            return None
        return self.topology.resolve(self.comm.rank, peer, device_buffers=device)

    def reserve_wire(
        self, peer: int, ready: float, wire_s: float, nbytes: int = 0, *, device: bool = True
    ) -> NicReservation:
        """Reserve one message's wire slot; returns the NIC's :class:`NicReservation`.

        The reservation carries the NIC identity (``start``/``seq``) the
        executor stamps on the envelope, which is what lets the *receiving*
        rank commit the message to its ingestion port under duplex
        accounting.  ``seq >= 0`` marks a reservation on the shared timeline
        (subject to receive-side ingestion); outside ``shared`` mode the
        message is placed at ``ready`` with ``seq == -1`` and opts out (a lone
        message never contends); inside it a stall is counted on the
        interposer stats.  ``device`` picks the wire path the route is
        resolved for (GPU rails vs host rails); it only matters under a
        topology.
        """
        if not self.shared:
            return NicReservation(ready, ready + wire_s, 0.0, wire_s, -1)
        # Inject-only books never feed the destination's advisory pending
        # ledger: their messages are never ingested, so they must not look
        # like receive-side backlog to a duplex reader sharing the world.
        reservation = self.nic.reserve(
            self.comm.rank, peer, ready, wire_s, nbytes, ingest=self.duplex,
            path=self._route(peer, device),
        )
        if reservation.stalled_s > 0.0:
            self.stats.contention_stalls += 1
        return reservation

    # ------------------------------------------------------------- ingestion
    def _ingest_record(self, envelope: Envelope) -> IngestRecord:
        """The receive-side NIC identity an envelope carries.

        Under a topology with shared rails, inter-node messages additionally
        land on this rank's ingestion *rail* cursor — the same
        ``(node, rail)`` key the sender's reservation pre-registered, since
        both are pure functions of placement.  Intra-node traffic (and every
        flat topology) binds no rail, keeping those books bit-identical.
        """
        rail = None
        if self.topology is not None and not self.topology.same_node(
            envelope.source, self.comm.rank
        ):
            rail = self.topology.rail_key(self.comm.rank)
        return IngestRecord(
            post_time=envelope.post_time,
            source=envelope.source,
            seq=envelope.source_seq,
            wire_s=envelope.wire_s,
            arrival=envelope.available_at,
            rail=rail,
        )

    def _ingestable(self, envelope: Envelope) -> bool:
        """True when the envelope participates in ingestion pricing."""
        return self.duplex and envelope.wire_s > 0 and envelope.source_seq >= 0

    def ingest_one(self, envelope: Envelope) -> float:
        """Commit one received message to this rank's ingestion port.

        Returns the (possibly delayed) landing time ``Wait`` should advance
        to.  Under ``nic="inject_only"`` — or for envelopes that never went
        through the shared timeline (system path, serial engine) — this is
        exactly the sender-computed ``available_at``, bit-for-bit.
        """
        if not self._ingestable(envelope):
            return envelope.available_at
        landing = self.nic.ingest(self.comm.rank, [self._ingest_record(envelope)])[0]
        if landing > envelope.available_at:
            self.stats.ingest_stalls += 1
        return landing

    def ingest_batch(self, envelopes: Sequence[Envelope]) -> list[float]:
        """Commit one plan's receive set to the ingestion port, as a batch.

        The batch is served in the deterministic ``(post_time, source, seq)``
        order whatever wall-clock order the posts happened in — this is the
        cross-rank ordering that makes duplex arrivals reproducible
        regardless of executor interleaving.  Returns each envelope's landing
        time in input order.
        """
        eligible = [e for e in envelopes if self._ingestable(e)]
        if not eligible:
            return [envelope.available_at for envelope in envelopes]
        landings = dict(
            zip(
                (id(e) for e in eligible),
                self.nic.ingest(self.comm.rank, [self._ingest_record(e) for e in eligible]),
            )
        )
        for envelope in eligible:
            if landings[id(envelope)] > envelope.available_at:
                self.stats.ingest_stalls += 1
        return [landings.get(id(e), e.available_at) for e in envelopes]

    def arrival_preview(self, envelope: Envelope) -> float:
        """The landing a message would get as the next ingestion commit.

        Non-committing and receiver-state-only (hence deterministic): this is
        the arrival hint ``Test``/``Waitany`` see before the receive actually
        completes.  Identity under ``nic="inject_only"``.
        """
        if not self._ingestable(envelope):
            return envelope.available_at
        return self.nic.ingest_preview(
            self.comm.rank, envelope.available_at, envelope.wire_s
        )

    # -------------------------------------------------------------- batching
    def offer_send(self, plan: MessagePlan, request: Request) -> Optional[Request]:
        """Consider a nonblocking send plan for batching.

        Returns ``request`` armed to drive the deferred send, or ``None``
        when the plan is not batchable (batching off, message at/above the
        eager threshold) — the caller then executes it immediately.
        """
        if not self.batching or self.executor is None:
            return None
        if plan.op != "send" or not plan.nonblocking:
            return None
        post = plan.post_stages[0]
        if post.nbytes >= self.eager_threshold:
            return None
        device = post.pack.method is PackMethod.DEVICE
        key = (post.peer, device)
        # Batches are per (peer, wire path), but MPI non-overtaking is per
        # peer: a pending batch on the *other* path must be posted before
        # this message may be enqueued, or same-tag receives would match out
        # of order when the method selector alternates.
        other = (post.peer, not device)
        if other in self._batches:
            self._flush_batch(other)
        batch = self._batches.get(key)
        if batch is not None and (
            len(batch.entries) >= self.batch_max_messages
            or batch.nbytes + post.nbytes > self.eager_threshold
        ):
            # Keep the coalesced message eager and the burst bounded.
            self._flush_batch(key)
            batch = None
        if batch is None:
            batch = self._batches[key] = _Batch(
                peer=post.peer, device=device, staging=_StagingTracker(self.cache)
            )
        # Pack now, exactly like an unbatched send (own stream, host returns
        # after the launches); only the wire message is deferred to the flush.
        comm = self.comm
        stream = self.cache.get_stream()
        try:
            payload, ready = self.executor._pack_stage(
                plan.pack_stages[0], plan.send_buffer, batch.staging, stream
            )
        finally:
            self.cache.put_stream(stream)
        entry = _PendingSend(
            plan=plan,
            nbytes=post.nbytes,
            payload=payload,
            ready=ready,
            completion=ready + self.executor.injection_overhead,
        )
        batch.entries.append(entry)
        batch.nbytes += post.nbytes
        if ready > batch.ready:
            batch.ready = ready
        self.stats.stages_overlapped += 1

        def complete() -> Status:
            """Flush (posting the batch) and advance to buffer-reuse time."""
            self.progress()  # the send's Wait is a progress point: post first
            comm.clock.advance_to(entry.completion)
            return Status()

        def ready_probe() -> bool:
            """Progress, then check buffer-reuse completion."""
            self.progress()
            return comm.clock.now >= entry.completion

        def arrival() -> Optional[float]:
            """Buffer-reuse time (known at enqueue for a batched send)."""
            return entry.completion

        return request.arm(complete, ready_probe, arrival)

    def pending_sends(self, peer: Optional[int] = None) -> int:
        """Enqueued-but-unposted send plans (for tests and stats)."""
        return sum(
            len(batch.entries)
            for key, batch in self._batches.items()
            if peer is None or key[0] == peer
        )

    def progress(self) -> None:
        """Advance deferred wire state: flush every pending batch.

        This is the engine's progress point — called from ``Wait``/``Test``
        of engine requests and from every non-batchable plan execution, so
        deferred posts can never be overtaken by later traffic and testing a
        request genuinely moves messages toward arrival.  With nothing
        pending — the common case on a warm path — it is one attribute test.
        """
        if self._batches:
            self.flush()

    def flush(self, peer: Optional[int] = None) -> None:
        """Post pending batches (all of them, or one peer's)."""
        keys = [key for key in self._batches if peer is None or key[0] == peer]
        for key in keys:
            self._flush_batch(key)

    def _flush_batch(self, key: tuple[int, bool]) -> None:
        """Post one pending batch as a single coalesced wire message."""
        batch = self._batches.pop(key, None)
        if batch is None or not batch.entries:
            return
        executor = self.executor  # bound: only offer_send creates batches
        try:
            # One posted message: the burst's combined bytes take one wire
            # slot (one latency floor instead of one per plan), entering the
            # NIC when the slowest constituent pack is ready.  Each
            # constituent keeps its own envelope — posted in enqueue order,
            # sharing the batch arrival — so delivery is byte-for-byte
            # identical to the unbatched schedule.  The batch's ingestion
            # occupancy is split across constituents pro rata by size (their
            # shares sum to the one wire message's occupancy), each envelope
            # carrying its own per-source seq so receive-side ordering stays
            # well defined.
            wire = self.message_time(batch.nbytes, batch.peer, batch.device)
            slot = self.reserve_wire(
                batch.peer, batch.ready, wire, batch.nbytes, device=batch.device
            )
            for index, entry in enumerate(batch.entries):
                post = entry.plan.post_stages[0]
                if slot.seq >= 0:
                    share = wire * entry.nbytes / batch.nbytes if batch.nbytes else 0.0
                    # The first constituent inherits the reservation's seq, so
                    # ingesting it consumes the batch's pending-ledger record;
                    # later constituents draw fresh (larger) seqs and keep the
                    # deterministic enqueue order.
                    seq = slot.seq if index == 0 else self.nic.next_seq(self.comm.rank)
                else:
                    share, seq = 0.0, -1
                executor._post(
                    post.peer,
                    entry.plan.tag,
                    entry.payload,
                    post.nbytes,
                    slot.arrival,
                    wire_s=share,
                    post_time=slot.start,
                    source_seq=seq,
                )
        finally:
            batch.staging.release()
        if len(batch.entries) > 1:
            self.stats.batched_plans += len(batch.entries)

    # -------------------------------------------------------------- arrivals
    def arrived(self, peer: int, tag: int) -> bool:
        """True when a matching message is present *and* virtually arrived.

        Runs :meth:`progress` first, so a ``Test`` poll advances deferred
        wire state before probing — the progress-thread behaviour the
        roadmap asked for, without a thread.  Under duplex accounting the
        probe compares against the ingestion-adjusted landing, so ``Test``
        reflects the receiver's own backlog, not just the sender's schedule.
        """
        self.progress()
        comm = self.comm
        envelope = comm.router.probe(comm.rank, peer, tag, comm.context)
        return envelope is not None and self.arrival_preview(envelope) <= comm.clock.now

"""The virtual NIC timeline: full-duplex injection/ingestion-port accounting.

Before this module existed, the wire was priced *per plan*: the plan executor
kept a local ``nic_free`` cursor for the duration of one collective, so two
plans in flight at once (two ``Ialltoallv``s, a burst of ``Isend``s) never
contended for the NIC and the simulator over-reported the overlap win exactly
where injection-rate limits should bite.  :class:`NicTimeline` is the shared
ledger that makes the accounting honest — on **both ends of the wire**.

Send side (the PR-3 rules, unchanged and always active):

* every rank owns one **injection port**; all messages a rank injects —
  across plans, across operations — serialise on it at
  :data:`~repro.machine.network.DEFAULT_WIRE_OVERLAP` occupancy (the same
  factor the system library's all-to-all-v discounts by)::

      start    = max(ready, port_free[src], link_free[src, dst])
      arrival  = start + wire
      port_free[src]      = start + overlap * wire
      link_free[src, dst] = arrival

* every directed ``(source, destination)`` pair is a **link** on which
  messages serialise *fully*: two messages from one rank to the same peer
  share everything end to end and cannot pipeline the way messages to
  distinct peers can.

Receive side (``TempiConfig(nic="duplex")``): every rank also owns one
**ingestion port**, the mirror of its injection port.  A message whose last
byte would land at ``arrival`` occupies the destination's ingestion port for
the same ``overlap`` fraction of its wire time, aligned at the *start* of its
landing window — so a lone message (or a stream whose arrivals are already
spaced by the sender-side port rule) is never delayed, while an **incast**
(many senders converging on one receiver) queues::

      begin    = max(post_time, ingest_free[dst])
      landing  = begin + wire                      # the delayed arrival
      ingest_free[dst] = begin + overlap * wire

``post_time`` is when the message entered the wire, carried on its record,
so the rule never re-derives it as ``arrival - wire``; an undelayed landing
is the arrival itself.

Determinism.  Send-side reservations are **source-scoped**: a rank's
injection timing depends only on its own call order, never on the wall-clock
interleaving of other rank threads.  Receive-side reservations necessarily
mix sources, so they are committed by the *receiving* rank (in its own
program order — deterministic) through :meth:`NicTimeline.ingest`, and every
commit batch is internally ordered by the message key ``(post_time,
source_rank, seq)`` — ``post_time`` being the virtual time the message
entered the wire and ``seq`` a per-source counter — so one plan's receive
set prices identically however the executor threads interleaved the posts.
:meth:`ingest_backlog` additionally exposes an *advisory* view of the
posted-but-not-yet-ingested traffic converging on a rank, which is what the
contention-aware method selector prices a hot peer with.  The pending
records behind it live in one dict per destination; a batch's worth may
first wait as one columnar :class:`_PendingBlock`, which the batch ingest
consumes as arrays and anything else settles into the dicts before it
looks — a write-combining buffer, not a second book.

Topology extension (PR 8).  When a reservation carries a resolved
:class:`~repro.machine.topology.PathSpec`, three further cursor families
join the books, all kept in their own dictionaries so the flat books above
stay byte-identical when no path is given:

* **NIC rails** — ``path.rail`` names a ``(node, rail)`` injection rail the
  node's ranks share; it advances exactly like an injection port
  (``start + overlap * wire``) and joins the start ``max``.  The mirrored
  ``record.rail`` on an :class:`IngestRecord` does the same for the
  receive side.
* **Shared uplink ledgers** — every ``(key, bandwidth)`` entry of
  ``path.shared`` names a leaf switch's uplink bundle.  The message cannot
  start before the bundle frees, and occupies it for its *own* serial time
  on that bundle (``nbytes / bandwidth``) — the per-link reservation
  discipline applied to a shared fabric link, which is what makes incast
  on an oversubscribed uplink structural rather than hand-built.

Shared-hop cursors necessarily mix sources, so a threaded world commits to
a send-side rail or bundle in ``(ready, source)`` key order: the progress
engine waits for its key first (:meth:`~repro.mpi.p2p.MessageRouter.await_key`),
and the runtime sanitizer checks the order.  Receive-side rails are
committed by receivers and stay under the happens-before rule.

Event stream.  A timeline built inside :func:`trace_default` — a
``World``'s, or a private one an analytic twin or a benchmark books on —
keeps that :attr:`~NicTimeline.sink` and calls it as ``sink(timeline,
event)`` once per reservation (:class:`PostEvent`) and ingestion commit
(:class:`IngestEvent`), carrying every cursor
the commit set and every wait where the timeline clamps it, so a sink
never reads the timeline back.  A traced timeline books a batch through
the scalar rules it is defined as (``reserve_batch`` row by row through
``_reserve_one``, ``ingest_batch_vec`` through ``_commit_ingest``), so
every booking reaches the sink; the vector kernels run untraced only.
The reads and joins only a caller can name a rank for — a contended
selector's backlog read and pricing bracket, the interposer's collective
joins — are emitted by those callers into the same sink.  With no sink
each emit site is one ``is not None`` test.

One timeline is shared by all ranks of a :class:`~repro.mpi.world.World`
(it hangs off ``world.nic``); the :class:`~repro.tempi.progress.ProgressEngine`
reserves injection slots and commits ingestion batches on it when
``TempiConfig(progress="shared")`` is active, and skips the receive side
entirely under the ``nic="inject_only"`` ablation (the PR-3/PR-4
accounting, bit-for-bit).
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.machine.network import DEFAULT_WIRE_OVERLAP
from repro.machine.topology import PathSpec, RailKey, RouteTable, ShareKey


class NicError(ValueError):
    """An impossible reservation was requested."""


class _BatchPlan(NamedTuple):
    """The level schedule of one batch shape, reused while the shape is frozen.

    A pure function of the (validated) ``sources`` / ``dests`` / ``wire_s``
    arrays and the route table; ``ready`` and ``nbytes`` are per call and
    stay out.  Every message gets the dense ids of the cursors it binds —
    port, link and, on a routed path, rail and uplink bundles — and a
    wavefront level one above the latest row-major predecessor on any of
    them: messages of one level share no cursor, and each finds its cursors
    exactly as its row-major predecessors left them.
    """

    #: The static columns of the pending records (flat, row-major, private
    #: copies; ``rail`` the receive-side rail, ``None`` on the flat books),
    #: and the most positive-wire messages any one destination receives.
    source: np.ndarray
    dest: np.ndarray
    wire: np.ndarray
    rail: list[Optional[RailKey]]
    fan_in: int
    #: Per cursor family in use — 0 ports, 1 links, 2 rails, 3 bundles — its
    #: distinct keys, their :func:`~operator.itemgetter` (see :func:`_gather`)
    #: and their ``[lo, hi)`` span of the gathered cursor vector.
    families: list[tuple[int, tuple[Any, ...], Callable[..., Any], int, int]]
    #: Row-major message indices in level order (stable).
    order: np.ndarray
    #: Per level: its ``[lo, hi)`` slice of the level order and the ``(w +
    #: 1, n)`` slots it gathers — its cursors, which it then scatters to, and
    #: its own ready time.  An absent cursor names the sink slot behind the
    #: cursors, which holds ``-inf`` whenever a level reads it.
    levels: list[tuple[int, int, np.ndarray]]
    #: Cursor advances in level order, ``(w, N)``: ``overlap * wire`` (port,
    #: rail), ``wire`` (link); the bundle rows are ``nbytes`` over the
    #: ``(b, N)`` bundle bandwidths, filled per call.
    delta: np.ndarray
    bandwidth: np.ndarray
    #: Sequence numbers: the distinct sources (ascending: a source's port id
    #: is its position), each message's port id and running per-source count
    #: (row-major), the messages per source, and the inverse — a source's
    #: ``rank``-th message is ``by_rank[src_first[port] + rank]``.
    src_keys: np.ndarray
    src_id: np.ndarray
    seq_rank: np.ndarray
    src_count: np.ndarray
    src_first: np.ndarray
    by_rank: np.ndarray


class _IngestPlan(NamedTuple):
    """Derived indexing state of one ingestion shape (frozen ``dests`` / ``rails``)."""

    dst_list: list[int]
    port_get: Callable[..., Any]
    #: One row selection per wavefront stage: rows (destinations) naming a
    #: common receive-side rail are chained in input order, rows of one
    #: stage share none (a lone ``slice(None)`` when rail-free).  Which
    #: rails a row names does not depend on the per-call service order.
    stages: list[Any]
    #: The rails named, their getter, and each record's ``(m, k)`` slot in
    #: the rail cursor vector, in input column order (absent: the sink slot
    #: behind the cursors).  ``None`` when rail-free.
    rails: Optional[tuple[list[RailKey], Callable[..., Any], np.ndarray]]


def _gather(book: dict[Any, Any], keys: Sequence[Any],
            getter: Callable[..., Any], default: Any) -> Any:
    """Read ``keys`` out of a cursor dict in one C call (defaulted on first contact)."""
    try:
        return getter(book)
    except KeyError:
        return [book.get(key, default) for key in keys]


def _wavefront(slots: list[list[int]], sink: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Level-schedule items that read, then write, their cursor slots in order.

    An item's level is one above the latest earlier item naming any of its
    slots; slot ``sink`` (the last) binds nothing.  Returns the items in
    (stable) level order and each level's ``[lo, hi)`` slice of that order.
    """
    last = [0] * (sink + 1)
    level = []
    for row in slots:
        here = max([last[slot] for slot in row], default=0)
        for slot in row:
            last[slot] = here + 1
        last[sink] = 0
        level.append(here)
    cuts = [0, *np.cumsum(np.bincount(level)).tolist()]
    return np.argsort(np.asarray(level), kind="stable"), list(zip(cuts, cuts[1:]))


def _plan_batch(src: np.ndarray, dst: np.ndarray, wire: np.ndarray,
                table: Optional[RouteTable], overlap: float) -> _BatchPlan:
    """Schedule one ``(m, k)`` batch (see :class:`_BatchPlan`)."""
    m, k = dst.shape
    total = m * k
    src_list, dst_list = src.tolist(), dst.tolist()
    port_ids = {s: port for port, s in enumerate(sorted(set(src_list)))}
    link_ids: dict[tuple[int, int], int] = {}
    port_col: list[int] = []
    link_col: list[int] = []
    rank: list[int] = []             # running per-source message count
    count = [0] * len(port_ids)      # messages per distinct source
    for s, row in zip(src_list, dst_list):
        port = port_ids[s]
        for d in row:
            port_col.append(port)
            link_col.append(link_ids.setdefault((s, d), len(link_ids)))
            rank.append(count[port])
            count[port] += 1
    held = overlap * wire.reshape(total)
    keysets: list[tuple[Any, ...]] = [tuple(port_ids), tuple(link_ids), (), ()]
    # (family, per-message key ids, per-message cursor advance) per column.
    columns: list[tuple[int, np.ndarray, Any]] = [
        (0, np.asarray(port_col, dtype=np.int64), held),
        (1, np.asarray(link_col, dtype=np.int64), wire.reshape(total)),
    ]
    rail: list[Optional[RailKey]] = [None] * total
    bandwidth = np.ones((total, 0))
    if table is not None:
        keysets[2:] = table.rail_keys, table.share_keys
        if table.rail_keys:
            columns.append((2, table.rail.reshape(total), held))
        bundles = table.shared.shape[2]
        columns.extend((3, ids, 0.0) for ids in table.shared.reshape(total, bundles).T)
        bandwidth = table.shared_bandwidth.reshape(total, bundles)
        rail = [table.ingest_rail_keys[r] if r >= 0 else None
                for r in table.ingest_rail.reshape(total).tolist()]
    base = [0, *np.cumsum([len(keys) for keys in keysets]).tolist()]
    ncur = base[4]
    # Cursor families are rows and messages columns, so that a level's
    # gather reduces over the leading axis.
    raw = np.stack([col for _, col, _ in columns])
    slots = np.where(raw < 0, ncur, raw + np.asarray([[base[f]] for f, _, _ in columns]))
    order, cuts = _wavefront(slots.T.tolist(), ncur)
    # The ready times ride behind the cursors (and the sink) in the
    # gathered vector, so the start max is one gather and one reduce.
    slots = np.vstack([slots[:, order], order + (ncur + 1)])
    delta = np.empty((len(columns), total))
    for column, (_, _, advance) in enumerate(columns):
        delta[column] = advance
    src_count = np.asarray(count, dtype=np.int64)
    return _BatchPlan(
        np.repeat(src, k), dst.reshape(total).copy(), wire.reshape(total).copy(), rail,
        int(np.unique(dst[wire > 0], return_counts=True)[1].max(initial=0)),
        [(f, keys, itemgetter(*keys), base[f], base[f + 1])
         for f, keys in enumerate(keysets) if keys],
        order,
        [(lo, hi, np.ascontiguousarray(slots[:, lo:hi])) for lo, hi in cuts],
        delta[:, order], bandwidth.T[:, order],
        np.asarray(keysets[0], dtype=np.int64), columns[0][1],
        np.asarray(rank, dtype=np.int64), src_count, np.cumsum(src_count) - src_count,
        np.argsort(columns[0][1], kind="stable"),
    )


def _plan_ingest(dst_list: list[int], rail: Optional[np.ndarray],
                 rail_keys: Sequence[RailKey]) -> _IngestPlan:
    """Stage one ingestion shape's rows by shared rail (see :class:`_IngestPlan`)."""
    port_get = itemgetter(*dst_list)
    if rail is None or not bool(np.any(rail >= 0)):
        return _IngestPlan(dst_list, port_get, [slice(None)], None)
    used = np.unique(rail[rail >= 0])
    slots = np.where(rail < 0, len(used), np.searchsorted(used, rail))
    order, cuts = _wavefront(slots.tolist(), len(used))
    used_keys = [rail_keys[r] for r in used.tolist()]
    return _IngestPlan(
        dst_list, port_get, [order[lo:hi] for lo, hi in cuts],
        (used_keys, itemgetter(*used_keys), slots),
    )


#: ``IngestRecord.key`` — the record's leading triple, ``record[:3]`` — read in C.
_SERVICE_KEY = itemgetter(slice(3))


def ledger_sum(values: Iterable[float], start: float = 0.0) -> float:
    """Fold ``values`` onto ``start``, strictly in the order supplied.

    The ledger helper simlint's SIM005 points at: float addition is not
    associative, so every accumulator total in the ledger/port loops is
    defined as a strict left fold over an *explicitly ordered* sequence.
    This performs the same adds in the same order as an open-coded
    ``total += value`` loop (bit-identical), but keeps the fold in one
    audited place so a future "optimisation" (``math.fsum``, vectorised
    reduction, reordering) cannot silently change priced totals.
    """
    total = start
    for value in values:
        total += value
    return total


class NicReservation(NamedTuple):
    """Outcome of placing one message on the timeline.

    A :class:`~typing.NamedTuple` — reservations are minted once per posted
    message on the simulator's hottest path, and tuples allocate in a single
    step with no per-instance ``__dict__``.
    """

    #: Virtual time the message starts occupying the port (>= ready time).
    start: float
    #: Virtual time the last byte lands at the destination.
    arrival: float
    #: Seconds the message waited on port/link occupancy beyond its ready time.
    stalled_s: float
    #: Serial wire seconds the message occupies (as passed to ``reserve``).
    wire_s: float = 0.0
    #: Per-source sequence number (the deterministic ingestion tie-break).
    seq: int = -1


class BatchReservation(NamedTuple):
    """Outcome of :meth:`NicTimeline.reserve_batch`: one array per column.

    Every field is an ``(m, k)`` array — ``m`` sources by ``k`` messages per
    source — aligned with the ``dests`` matrix the batch was booked with.
    Row ``i``, column ``j`` holds exactly the values the scalar
    :class:`NicReservation` for message ``(i, j)`` would carry, in the
    row-major order the scalar loop would have booked them.
    """

    #: Virtual times the messages start occupying their ports, ``(m, k)``.
    start: np.ndarray
    #: Virtual times the last bytes land at the destinations, ``(m, k)``.
    arrival: np.ndarray
    #: Seconds each message waited beyond its ready time, ``(m, k)``.
    stalled_s: np.ndarray
    #: Serial wire seconds per message (as passed in), ``(m, k)``.
    wire_s: np.ndarray
    #: Per-source sequence numbers (int64), ``(m, k)``.
    seq: np.ndarray


class LinkRecord(NamedTuple):
    """One ledger entry: a message that occupied a link.

    The timeline itself stores these columnar, in a numpy struct-array ring
    (:class:`_LedgerRing`); this tuple is the row view handed back by
    :meth:`NicTimeline.ledger`.
    """

    source: int
    dest: int
    start: float
    arrival: float
    nbytes: int


class IngestRecord(NamedTuple):
    """One message's receive-side identity: who sent what, entering when.

    ``post_time`` is the virtual time the message entered the wire (the
    injection reservation's ``start``); ``arrival`` the time its last byte
    would land on an idle ingestion port; ``seq`` the sender's per-source
    sequence number.  ``(post_time, source, seq)`` is the deterministic
    cross-rank ordering every ingestion batch is served in — the tuple's own
    field order leads with exactly that triple.
    """

    post_time: float
    source: int
    seq: int
    wire_s: float
    arrival: float
    #: Receive-side ``(node, rail)`` NIC rail the landing also serialises
    #: on (``None`` for a dedicated per-rank NIC — the flat books).
    rail: Optional[RailKey] = None

    @property
    def key(self) -> tuple[float, int, int]:
        """The deterministic ingestion-service order of this message."""
        return self[:3]


class PostEvent(NamedTuple):
    """A scalar reservation committed by :meth:`NicTimeline.reserve`."""

    rank: int
    dest: int
    reservation: NicReservation
    #: False for an inject-only post, which no ingestion ever commits.
    ingest: bool
    #: The injection-port cursor the post set.
    port: float
    #: The shared topology cursors the post set, as ``(label, key, cursor)``:
    #: the NIC rail (``"rail"``), then each uplink bundle (``"fabric"``).
    shared: tuple[tuple[str, Any, float], ...]
    #: The ready time the post was booked at: with ``rank``, the key
    #: send-side shared cursors take commits in.
    ready: float
    #: The start the port and link allowed (a rail or bundle added ``start - base``).
    base: float


class IngestEvent(NamedTuple):
    """An ingestion batch committed by :meth:`NicTimeline.ingest`."""

    rank: int
    #: The batch, as the caller passed it.
    records: Sequence[IngestRecord]
    #: The ingestion-port cursor after the commit.
    port: float
    #: Each distinct receive-side rail the batch names, ascending, with its
    #: cursor after the commit.
    rails: tuple[tuple[RailKey, float], ...]
    #: Each served record (wire time > 0), in service order, as ``(record, landing,
    #: bound, held)``: the cursor that delayed it, if any, and its seconds on the port.
    landings: list[tuple[IngestRecord, float, Optional[str], float]]


class BacklogReadEvent(NamedTuple):
    """A contended selector on ``rank`` read ``dest``'s ingestion backlog at ``now``."""

    rank: int
    dest: int
    now: float
    #: The pending records the read replays (:meth:`NicTimeline.pending_records`).
    pending: list[IngestRecord]


class PricingEvent(NamedTuple):
    """A contended selector on ``rank`` began (``done=False``) or ended a pricing call."""

    rank: int
    #: :meth:`NicTimeline.state_fingerprint` of ``rank`` at that point.
    fingerprint: int
    done: bool


class JoinEvent(NamedTuple):
    """``rank`` entered a collective join point of a ``size``-rank communicator."""

    rank: int
    size: int


#: One entry of a traced timeline's event stream.
NicEvent = Union[PostEvent, IngestEvent, BacklogReadEvent, PricingEvent, JoinEvent]
#: A trace sink, called as ``sink(timeline, event)``; it must not call back
#: into the timeline, which calls it in the middle of a commit.
NicSink = Callable[["NicTimeline", NicEvent], None]

#: The sink every :class:`NicTimeline` built now carries (see :func:`trace_default`).
_TRACE_SINK: Optional[NicSink] = None


@contextmanager
def trace_default(sink: Optional[NicSink]) -> Iterator[None]:
    """Attach ``sink`` to every :class:`NicTimeline` built inside the context.

    The one way to trace a run: ``repro sanitize`` and the tests wrap a
    ``World`` or an analytic twin in it, and the timelines they build carry
    the sink for their lifetime.  ``None`` switches tracing off inside.
    """
    if sink is not None and not callable(sink):
        raise ValueError(f"trace sink must be called as sink(timeline, event), got {sink!r}")
    global _TRACE_SINK
    previous, _TRACE_SINK = _TRACE_SINK, sink
    try:
        yield
    finally:
        _TRACE_SINK = previous


class _PendingBlock(NamedTuple):
    """One batch's advisory pending records, deferred as columns.

    The write-combining buffer between :meth:`NicTimeline.reserve_batch` and
    :meth:`NicTimeline.ingest_batch_vec`: what the row-major scalar loop
    would have put into the per-destination dicts, as the plan's static
    columns, private copies of this call's ``start`` / ``arrival`` / ``seq``
    and an ``alive`` mask.  Only a batch that can neither collide nor evict
    is deferred, so the dict book its survivors settle into does not depend
    on when they settle.
    """

    plan: _BatchPlan
    start: np.ndarray
    arrival: np.ndarray
    seq: np.ndarray
    #: Each source's first sequence number in the batch, by port id.
    seq0: np.ndarray
    alive: np.ndarray

    def records(self) -> Iterator[tuple[int, IngestRecord]]:
        """The surviving ``(dest, record)`` pairs, in row-major order."""
        plan = self.plan
        keep = np.flatnonzero(self.alive)
        fields = (self.start, plan.source, self.seq, plan.wire, self.arrival)
        return zip(
            plan.dest.take(keep).tolist(),
            map(IngestRecord, *(column.take(keep).tolist() for column in fields),
                [plan.rail[t] for t in keep.tolist()]),
        )

    def discard(self, dst: np.ndarray, post: np.ndarray, src: np.ndarray, seq: np.ndarray) -> int:
        """Clear the records the ``(m, k)`` service keys name; return how many.

        ``(source, seq)`` locates a record arithmetically; it goes only if
        it then equals the key field for field and is bound for the key's
        row ``dst[i]`` — a foreign key pops nothing, like ``dict.pop(key,
        None)``.
        """
        plan = self.plan
        port = np.searchsorted(plan.src_keys, src).clip(max=len(plan.src_keys) - 1)
        rank = seq - self.seq0.take(port)
        at = plan.by_rank.take(plan.src_first.take(port) + rank, mode="clip")
        hit = (
            self.alive.take(at) & (self.start.take(at) == post) & (plan.source.take(at) == src)
            & (self.seq.take(at) == seq) & (plan.dest.take(at) == dst[:, None])
        )
        self.alive[at[hit]] = False
        return int(np.count_nonzero(hit))


#: Columnar layout of the bounded reservation ledger: one struct per message,
#: ~40 B, versus a boxed ``LinkRecord`` dataclass plus five boxed fields.
_LEDGER_DTYPE = np.dtype(
    [
        ("source", np.int64),
        ("dest", np.int64),
        ("start", np.float64),
        ("arrival", np.float64),
        ("nbytes", np.int64),
    ]
)
#: The rows of a ring nothing was written to yet.
_NO_ROWS = np.zeros(0, dtype=_LEDGER_DTYPE)


class _LedgerRing:
    """A fixed-capacity numpy struct-array ring of link reservations.

    Appends overwrite the oldest slot in O(1); queries run vectorised over
    the resident window.  Peak residency is therefore ``capacity`` structs,
    however many messages the simulation posts — the compact replacement for
    the old per-message ``deque`` of frozen dataclasses.  The rows are
    allocated by the first write, so a timeline that books nothing holds none.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(1, int(capacity))
        self._rows = _NO_ROWS
        self._next = 0
        self._count = 0

    def append(self, source: int, dest: int, start: float, arrival: float, nbytes: int) -> None:
        """Write one reservation, overwriting the oldest beyond capacity."""
        if self._rows is _NO_ROWS:
            self._rows = np.zeros(self.capacity, dtype=_LEDGER_DTYPE)
        self._rows[self._next] = (source, dest, start, arrival, nbytes)
        nxt = self._next + 1
        self._next = 0 if nxt == self.capacity else nxt
        if self._count < self.capacity:
            self._count += 1

    def extend(self, rows: np.ndarray) -> None:
        """Write a block of reservations, exactly as repeated :meth:`append`.

        ``rows`` is a struct array of :data:`_LEDGER_DTYPE`; the ring ends in
        the same state (contents, cursor and count) as appending the rows one
        by one, but the writes land as at most two numpy slice assignments.
        """
        total = len(rows)
        if total == 0:
            return
        if self._rows is _NO_ROWS:
            self._rows = np.zeros(self.capacity, dtype=_LEDGER_DTYPE)
        keep = min(total, self.capacity)
        # Row j of the block lands at slot (next + j) % capacity; only the
        # last `capacity` rows survive, starting at the cursor below.
        first_slot = (self._next + total - keep) % self.capacity
        tail = min(keep, self.capacity - first_slot)
        self._rows[first_slot:first_slot + tail] = rows[total - keep:total - keep + tail]
        if keep > tail:
            self._rows[: keep - tail] = rows[total - keep + tail:]
        self._next = (self._next + total) % self.capacity
        self._count = min(self.capacity, self._count + total)

    def _window(self) -> np.ndarray:
        """The resident rows, oldest first (a copy only when wrapped)."""
        if self._count < self.capacity:
            return self._rows[: self._count]
        return np.roll(self._rows, -self._next)

    def in_flight(self, at: float, source: int | None = None) -> int:
        """Messages occupying the wire at virtual time ``at`` (vectorised)."""
        rows = self._rows[: self._count]
        mask = (rows["start"] <= at) & (at < rows["arrival"])
        if source is not None:
            mask &= rows["source"] == source
        return int(np.count_nonzero(mask))

    def records(self, source: int | None = None) -> list[LinkRecord]:
        """Row views of the resident window, oldest first."""
        return [
            LinkRecord(int(r["source"]), int(r["dest"]), float(r["start"]),
                       float(r["arrival"]), int(r["nbytes"]))
            for r in self._window()
            if source is None or int(r["source"]) == source
        ]

    def __len__(self) -> int:
        return self._count

    @property
    def nbytes(self) -> int:
        """Resident size of the backing array in bytes."""
        return int(self._rows.nbytes)


class NicTimeline:
    """Per-rank injection *and* ingestion ports plus a per-link ledger.

    One runner at a time, no lock: only the rank holding a ``World``'s run
    token runs, so commits never interleave (SIM008 and a sanitizer's guard
    on :attr:`runner` hold the rule).  Each injection port is only ever
    advanced by its owning (sending) rank and each ingestion port only by its
    owning (receiving) rank, so per-rank virtual timing stays deterministic.
    """

    def __init__(
        self,
        *,
        wire_overlap: float = DEFAULT_WIRE_OVERLAP,
        ledger_limit: int = 4096,
        pending_limit: int = 4096,
    ) -> None:
        if not 0 < wire_overlap <= 1:
            raise NicError(f"wire_overlap must be in (0, 1], got {wire_overlap}")
        if ledger_limit < 0:
            raise NicError(f"ledger_limit must be non-negative, got {ledger_limit}")
        if pending_limit < 0:
            raise NicError(f"pending_limit must be non-negative, got {pending_limit}")
        self.wire_overlap = wire_overlap
        self.ledger_limit = ledger_limit
        self.pending_limit = pending_limit
        self._ports: dict[int, float] = {}
        self._links: dict[tuple[int, int], float] = {}
        self._ingest_ports: dict[int, float] = {}
        self._seqs: dict[int, int] = {}
        #: Topology cursors, in their own dictionaries so the flat books
        #: (and their sorted fingerprints) never see topology keys.
        self._rail_ports: dict[RailKey, float] = {}
        self._ingest_rails: dict[RailKey, float] = {}
        self._shared_links: dict[ShareKey, float] = {}
        #: Posted-but-not-yet-ingested messages per destination (advisory:
        #: consumed at ingest time, pruned once drained, bounded).
        self._pending: dict[int, dict[tuple[float, int, int], IngestRecord]] = {}
        self._pending_total = 0
        #: A batch's records while they wait, in columns, for the batch ingest
        #: (counted in ``_pending_total``; settled before ``_pending`` is used).
        self._block: Optional[_PendingBlock] = None
        self._ledger = _LedgerRing(ledger_limit or 1)
        self.reservations = 0
        self.stalls = 0
        self.ingests = 0
        self.ingest_stalls = 0
        #: Reservations delayed specifically by a shared NIC rail or a
        #: shared uplink bundle (beyond any port/link stall), and by how
        #: much — the structural-congestion signal ``bench_topology.py``
        #: reports.
        self.fabric_stalls = 0
        self.fabric_stalled_s = 0.0
        #: High-water mark of advisory pending records resident at once —
        #: with the bounded ring this is the timeline's whole variable-size
        #: footprint, which ``tests/perf/test_call_budget.py`` pins for the
        #: halo pricing driver (four records per rank).
        self.peak_pending = 0
        #: Frozen batch-shape memos: when a caller re-posts the *same*
        #: read-only arrays (and frozen route table, under an unchanged
        #: ``wire_overlap``) a fully validated batch already used, their
        #: contents cannot have changed, so validation and the derived
        #: schedule are reused instead of rebuilt (the steady state of an
        #: iterative exchange).  Identity-keyed, single slot each.
        self._batch_shape: Optional[
            tuple[np.ndarray, np.ndarray, np.ndarray, Optional[RouteTable], float, _BatchPlan]
        ] = None
        self._ingest_shape: Optional[tuple[np.ndarray, Any, _IngestPlan]] = None
        #: The trace sink ("Event stream" in the module docstring): the one
        #: :func:`trace_default` set when this timeline was built.
        self.sink: Optional[NicSink] = _TRACE_SINK
        #: For a sink's guard, set by the ``World`` that owns the timeline:
        #: ``runner()`` is the run-token holder's rank and host thread, or
        #: ``None`` while no run is active.
        self.runner: Optional[Callable[[], Optional[tuple[int, Any]]]] = None

    # ---------------------------------------------------------------- reserve
    def reserve(
        self,
        source: int,
        dest: int,
        ready: float,
        wire_s: float,
        nbytes: int = 0,
        *,
        ingest: bool = True,
        path: Optional[PathSpec] = None,
        messages: int = 1,
    ) -> NicReservation:
        """Place one message of ``wire_s`` seconds on the timeline (send side).

        The message starts at the latest of its ``ready`` time, the source's
        injection-port free time and the ``(source, dest)`` link free time.
        The port is occupied for ``wire_overlap * wire_s`` (messages to
        distinct peers pipeline); the link for the full ``wire_s`` (messages
        to the same peer serialise end to end).  The reservation carries the
        per-source ``seq`` that, with its start time, orders the message on
        the destination's ingestion port; ``ingest=False`` (the engine's
        inject-only books) skips the destination's advisory pending ledger —
        a message that will never be ingested must not look like receive-side
        backlog.

        With a resolved ``path`` the message additionally binds the path's
        NIC rail (advanced like a port) and every shared uplink bundle
        (occupied for ``nbytes / bundle bandwidth``, the per-link discipline
        on a shared fabric link); ``path=None`` runs the flat books above,
        byte-identically.  The receive-side mirror rail (``path.ingest_rail``)
        travels on the pending :class:`IngestRecord` and binds at
        :meth:`ingest` time.

        A coalesced batch of ``messages`` envelopes is one reservation: its
        ``seq`` is the first's, and the rest draw the next seqs in enqueue
        order, inside the one :class:`PostEvent`.
        """
        # Chained comparisons: NaN fails every one, and none costs a call.
        if not 0 <= wire_s < np.inf:
            raise NicError(f"wire_s must be finite and non-negative, got {wire_s}")
        if not -np.inf < ready < np.inf:
            raise NicError(f"ready must be finite, got {ready}")
        if nbytes < 0:
            raise NicError(f"nbytes must be non-negative, got {nbytes}")
        reservation = self._reserve_one(source, dest, ready, wire_s, int(nbytes), ingest, path)
        if messages > 1:
            self._seqs[source] += messages - 1
        return reservation

    def _reserve_one(
        self,
        source: int,
        dest: int,
        ready: float,
        wire_s: float,
        nbytes: int,
        ingest: bool,
        path: Optional[PathSpec],
    ) -> NicReservation:
        """One reservation (see :meth:`reserve`).

        The single place the scalar injection rules live: :meth:`reserve`
        wraps it per message, and it is the reference :meth:`reserve_batch`'s
        level sweep is pinned against.  It runs once per wire message, so it
        is spelled in as few calls as the rules allow: a cursor it writes
        below is probed with ``in`` (never a ``defaultdict``, whose reads
        would create keys :meth:`ingest_backlog` and the sanitizer see), the
        flat clamp is comparisons keeping ``max``'s tie rule (the first
        maximal argument wins), and both tuples are built by one
        ``tuple.__new__`` each.
        """
        ports, links, seqs = self._ports, self._links, self._seqs
        port = ports[source] if source in ports else 0.0
        link_key = (source, dest)
        link = links[link_key] if link_key in links else 0.0
        start = ready
        if port > start:
            start = port
        if link > start:
            start = link
        base = start
        rail_key: Optional[RailKey] = None
        ingest_rail: Optional[RailKey] = None
        if path is not None:
            rail_key = path.rail
            ingest_rail = path.ingest_rail
            if rail_key is not None:
                start = max(start, self._rail_ports.get(rail_key, 0.0))
            for share_key, _bandwidth in path.shared:
                start = max(start, self._shared_links.get(share_key, 0.0))
            if start > base:
                self.fabric_stalls += 1
                self.fabric_stalled_s += start - base
        arrival = start + wire_s
        ports[source] = start + self.wire_overlap * wire_s
        if rail_key is not None:
            self._rail_ports[rail_key] = start + self.wire_overlap * wire_s
        if path is not None:
            for share_key, bandwidth in path.shared:
                self._shared_links[share_key] = start + nbytes / bandwidth
        links[link_key] = arrival
        self.reservations += 1
        seq = seqs[source] if source in seqs else 0
        seqs[source] = seq + 1
        stalled = start - ready  # never negative: start is a max over ready
        if stalled > 0:
            self.stalls += 1
        if self.ledger_limit:
            # The struct-array ring overwrites the oldest row in O(1).
            self._ledger.append(source, dest, start, arrival, nbytes)
        if ingest and wire_s > 0 and self.pending_limit:
            self._register_pending(
                dest,
                tuple.__new__(IngestRecord, (start, source, seq, wire_s, arrival, ingest_rail)),
            )
        reservation = tuple.__new__(NicReservation, (start, arrival, stalled, wire_s, seq))
        sink = self.sink
        if sink is not None:
            shared: list[tuple[str, Any, float]] = (
                [("rail", rail_key, self._rail_ports[rail_key])] if rail_key is not None else []
            )
            if path is not None:
                shared += [("fabric", key, self._shared_links[key]) for key, _ in path.shared]
            sink(self, PostEvent(
                source, dest, reservation, ingest, self._ports[source], tuple(shared), ready, base
            ))
        return reservation

    def _register_pending(self, dest: int, record: IngestRecord) -> None:
        """Track one posted arrival on the (bounded) advisory ledger."""
        if self._block is not None:
            self._settle()
        # Buckets are never deleted: only a destination's first record calls ``setdefault``.
        pending = self._pending[dest] if dest in self._pending else self._pending.setdefault(dest, {})
        key = record[:3]
        if key not in pending:
            self._pending_total += 1
        pending[key] = record
        if len(pending) > self.pending_limit:
            # Drop the earliest-keyed record: it drains first, so losing it
            # only makes the (advisory) backlog estimate conservative.
            del pending[min(pending)]
            self._pending_total -= 1
        if self._pending_total > self.peak_pending:
            self.peak_pending = self._pending_total

    def _settle(self) -> None:
        """Move the deferred block's survivors into the dict book.

        Representation only: they were counted when the block was deferred,
        so totals, high-water mark and fingerprint do not move.
        """
        block, self._block = self._block, None
        assert block is not None
        self._pending_total -= int(np.count_nonzero(block.alive))
        for dest, record in block.records():
            self._register_pending(dest, record)

    # ---------------------------------------------------------- batch booking
    def reserve_batch(
        self,
        sources: Sequence[int],
        dests: np.ndarray,
        ready: np.ndarray | float,
        wire_s: np.ndarray | float,
        nbytes: np.ndarray | int = 0,
        *,
        ingest: bool = True,
        paths: Optional[RouteTable] = None,
    ) -> BatchReservation:
        """Book a whole exchange — ``m`` sources × ``k`` messages — at once.

        Defined as *exactly* the row-major scalar sequence::

            for i, source in enumerate(sources):
                for j in range(k):
                    reserve(source, dests[i, j], ready[i, j], wire_s[i, j],
                            nbytes[i, j], ingest=ingest, path=paths.paths[i][j])

        returning the per-message outcomes stacked into a
        :class:`BatchReservation`.  Every cursor, counter, ledger row and
        pending record lands bit-identical to that loop — the batch is a
        *pricing kernel*, not a different model (its pending records may
        wait in columns for :meth:`ingest_batch_vec`; no reader can tell).

        A traced timeline runs that loop, so each reservation reaches the
        sink as its own :class:`PostEvent`.  Otherwise every batch runs
        through one level-scheduled sweep.  Two messages
        are coupled only through a cursor both bind — a port, a link, a
        shared rail, an uplink bundle — so the scalar recurrence runs one
        wavefront level (:class:`_BatchPlan`) at a time over a gathered
        cursor vector.  A flat batch of distinct sources is the case "levels
        = columns"; shared rails and bundles, repeated sources and repeated
        in-row destinations are deeper levels, not a different path.

        ``ready``/``wire_s``/``nbytes`` broadcast against ``dests``'s
        ``(m, k)`` shape.  ``paths`` is the exchange's frozen
        :class:`~repro.machine.topology.RouteTable` (``None``: the flat
        books); the schedule is reused only while the *same* read-only
        arrays and route table come back.
        """
        cached = self._batch_shape
        plan: Optional[_BatchPlan] = None
        if (
            cached is not None
            and sources is cached[0]
            and dests is cached[1]
            and wire_s is cached[2]
            and paths is cached[3]
            and self.wire_overlap == cached[4]
        ):
            # Frozen-shape fast lane: these exact read-only inputs already
            # passed validation, and read-only contents cannot have changed.
            src, dst, wire, _, _, plan = cached
        else:
            src = np.asarray(sources, dtype=np.int64)
            dst = np.asarray(dests, dtype=np.int64)
            if src.ndim != 1 or dst.ndim != 2 or dst.shape[0] != src.shape[0]:
                raise NicError(
                    f"batch shapes must be sources (m,) and dests (m, k), got "
                    f"{src.shape} and {dst.shape}"
                )
            wire_arr = np.asarray(wire_s, dtype=np.float64)
            wire = (
                wire_arr
                if wire_arr.shape == dst.shape and wire_arr.flags.c_contiguous
                else np.ascontiguousarray(np.broadcast_to(wire_arr, dst.shape))
            )
            if not (np.isfinite(wire).all() and (wire >= 0).all()):
                raise NicError("wire_s must be finite and non-negative for every message")
        m, k = dst.shape
        rdy = np.asarray(ready, dtype=np.float64)
        nb = np.asarray(nbytes, dtype=np.int64)
        if not np.isfinite(rdy).all():
            raise NicError("ready must be finite for every message")
        if (nb < 0).any():
            raise NicError("nbytes must be non-negative for every message")
        rdy = np.ascontiguousarray(np.broadcast_to(rdy, (m, k)))
        nb = np.ascontiguousarray(np.broadcast_to(nb, (m, k)))
        out = BatchReservation(
            np.empty((m, k)), np.empty((m, k)), np.empty((m, k)),
            wire, np.empty((m, k), dtype=np.int64),
        )
        if plan is None:
            if paths is not None and paths.rail.shape != (m, k):
                raise NicError(f"paths must be a route table of {m} x {k}")
            if m == 0 or k == 0:
                return out
            if self.sink is not None:
                # Traced: the scalar loop above, so every reservation reaches the sink.
                routes = paths.paths if paths is not None else [[None] * k] * m
                booked = [
                    self._reserve_one(source, dest, ready_ij, wire_ij, nbytes_ij, ingest, path)
                    for source, *row in zip(src.tolist(), dst.tolist(), rdy.tolist(),
                                            wire.tolist(), nb.tolist(), routes, strict=True)
                    for dest, ready_ij, wire_ij, nbytes_ij, path in zip(*row)
                ]
                start, arrival, stalled, _, seq = zip(*booked)
                out.start.flat, out.arrival.flat, out.stalled_s.flat, out.seq.flat = (
                    start, arrival, stalled, seq
                )
                return out
            plan = _plan_batch(src, dst, wire, paths, self.wire_overlap)
            if (
                src is sources
                and dst is dests
                and wire is wire_s
                and not src.flags.writeable
                and not dst.flags.writeable
                and not wire.flags.writeable
            ):
                self._batch_shape = (src, dst, wire, paths, self.wire_overlap, plan)
        return self._reserve_batch_sweep(out, rdy, nb, ingest, plan)

    def _reserve_batch_sweep(
        self,
        out: BatchReservation,
        rdy: np.ndarray,
        nb: np.ndarray,
        ingest: bool,
        plan: _BatchPlan,
    ) -> BatchReservation:
        """Price a scheduled batch one wavefront level at a time.

        The cursors the batch binds are gathered once into one vector
        (ports, links, rails, bundles, the ``-inf`` sink absent cursors
        name, then the ready times) and scattered back once.  Per level,
        ``start = max(ready, cursors)`` is the row maximum of the gathered
        slots and every cursor becomes ``start`` plus its own advance — the
        same IEEE-754 double operations the scalar loop performs per
        message, in an order that respects every cursor's row-major chain:
        hence bit-identical cursors.  Fabric stall seconds fold in row-major
        order through :func:`ledger_sum`, ledger rows block-append through
        :meth:`_LedgerRing.extend`, and the pending records are counted at
        once but wait as one :class:`_PendingBlock` when registering them
        can neither collide nor evict (else :meth:`_register_pending` takes
        them row-major), so every counter and fingerprint matches the loop.
        """
        total = rdy.size
        wire = out.wire_s
        books: tuple[dict[Any, float], ...] = (
            self._ports, self._links, self._rail_ports, self._shared_links
        )
        ncur = plan.families[-1][4]
        cur = np.empty(ncur + 1 + total)
        for family, keys, getter, lo, hi in plan.families:
            cur[lo:hi] = _gather(books[family], keys, getter, 0.0)
        cur[ncur + 1:] = rdy.reshape(total)
        delta = plan.delta
        bundles = len(plan.bandwidth)
        if bundles:
            # A bundle is held for the message's own serial time on it:
            # int64 / float64 true division, the scalar nbytes / bandwidth.
            delta = delta.copy()
            delta[-bundles:] = nb.reshape(total).take(plan.order) / plan.bandwidth
        width = len(delta)
        gathered = np.empty((width + 1, total))
        level_starts = np.empty(total)
        for lo, hi, slots in plan.levels:
            cur[ncur] = -np.inf
            start = cur.take(slots, out=gathered[:, lo:hi], mode="clip").max(
                axis=0, out=level_starts[lo:hi]
            )
            cur[slots[:-1]] = start + delta[:, lo:hi]
        starts = out.start
        starts.reshape(total)[plan.order] = level_starts
        arrivals = np.add(starts, wire, out=out.arrival)
        for family, keys, _, lo, hi in plan.families:
            books[family].update(zip(keys, cur[lo:hi].tolist()))
        self.reservations += total
        if width > 2:
            # What a rail or bundle added beyond base = max(ready, port,
            # link) — taken from the values the sweep gathered, not from
            # end-of-batch cursors — folded in row-major order.
            waited = np.empty(total)
            waited[plan.order] = level_starts - gathered[[0, 1, width]].max(axis=0)
            bound = waited > 0
            self.fabric_stalls += int(np.count_nonzero(bound))
            self.fabric_stalled_s = ledger_sum(
                waited[bound].tolist(), start=self.fabric_stalled_s
            )
        _, sources, src_get, _, _ = plan.families[0]
        seq0 = np.asarray(_gather(self._seqs, sources, src_get, 0), dtype=np.int64).reshape(-1)
        np.add(seq0.take(plan.src_id), plan.seq_rank, out=out.seq.reshape(total))
        self._seqs.update(zip(sources, (seq0 + plan.src_count).tolist()))
        stalled = starts - rdy
        self.stalls += int(np.count_nonzero(stalled > 0))
        if self.ledger_limit:
            rows = np.empty(total, dtype=_LEDGER_DTYPE)
            rows["source"] = plan.source
            rows["dest"] = plan.dest
            rows["start"] = starts.ravel()
            rows["arrival"] = arrivals.ravel()
            rows["nbytes"] = nb.ravel()
            self._ledger.extend(rows)
        if ingest and self.pending_limit and plan.fan_in:
            block = _PendingBlock(
                plan, starts.flatten(), arrivals.flatten(), out.seq.flatten(), seq0, plan.wire > 0
            )
            if not self._pending_total and plan.fan_in <= self.pending_limit:
                # No live record to collide with, no bucket that can
                # overflow: registering only counts, so the block waits.
                self._block = block
                self._pending_total = int(np.count_nonzero(block.alive))
                self.peak_pending = max(self.peak_pending, self._pending_total)
            else:
                for dest, record in block.records():
                    self._register_pending(dest, record)
        np.maximum(stalled, 0.0, out=out.stalled_s)
        return out

    # ----------------------------------------------------------------- ingest
    def ingest(self, dest: int, records: Sequence[IngestRecord]) -> list[float]:
        """Commit one batch of arrivals to ``dest``'s ingestion port.

        The batch is served in the deterministic ``(post_time, source, seq)``
        order whatever order the caller collected the envelopes in; each
        message's landing window is aligned against the port cursor by the
        mirror of the injection rule (see the module docstring), so arrivals
        already spaced by their senders' ports pass through undelayed while
        incast bursts serialise.  Returns the (possibly delayed) landing time
        of each record **in input order**.  Zero-wire records pass through
        untouched.  Called by the receiving rank only — commits happen in
        receiver program order, which keeps the cursor deterministic.
        """
        for record in records:
            if not (-np.inf < record.post_time < np.inf and -np.inf < record.wire_s < np.inf
                    and -np.inf < record.arrival < np.inf):
                bad = [f for f in ("post_time", "wire_s", "arrival") if not np.isfinite(getattr(record, f))]
                raise NicError(f"{bad[0]} must be finite, got {record}")
        return self._commit_ingest(dest, records)

    def _commit_ingest(self, dest: int, records: Sequence[IngestRecord]) -> list[float]:
        """One ingestion commit of a batch (see :meth:`ingest`).

        The single place the scalar ingestion rules live: :meth:`ingest`
        wraps it per batch and :meth:`ingest_batch_vec`'s serialised fallback
        row-loops it, so the two paths cannot drift.  Spelled like
        :meth:`_reserve_one`: the cursors are probed with ``in``, and each
        clamp is a comparison that keeps ``max``'s tie rule.  The stale-record
        prune stays a comprehension: simlint's SIM003 rejects a loop over a
        rank-keyed dict view that feeds clock arithmetic.
        """
        if self._block is not None:
            self._settle()
        ports, pendings = self._ingest_ports, self._pending
        port = ports[dest] if dest in ports else 0.0
        pending = pendings[dest] if dest in pendings else None
        overlap = self.wire_overlap
        # Service order is (post_time, source, seq) — the tuple's leading
        # fields — over the records with wire time.  One such record is its
        # own order: every point-to-point receive, every reduction round.
        lone = len(records) == 1 and records[0][3] > 0
        served = records if lone else sorted(
            [record for record in records if record[3] > 0], key=_SERVICE_KEY
        )
        sink = self.sink
        landed: list[float] = []
        traced: list[tuple[IngestRecord, float, Optional[str], float]] = []
        for record in served:
            post_time, source, seq, wire_s, arrival, rail = record
            # landing = begin + wire with begin = max(post_time, port) —
            # written so an undelayed landing equals the arrival
            # *exactly*, and using the true wire-entry time rather than
            # re-deriving it as arrival - wire (no float re-rounding).
            landing = port + wire_s
            if arrival >= landing:
                landing = arrival
            held = overlap * wire_s
            if rail is not None:
                # The shared receive-side rail mirrors the port rule in
                # its own cursor; the flat books never reach this branch.
                rail_port = self._ingest_rails.get(rail, 0.0)
                landing = max(landing, rail_port + wire_s)
                self._ingest_rails[rail] = max(post_time, rail_port) + held
            if sink is not None:  # a tie binds the port, as ``max`` keeps the first
                traced.append((record, landing, None if landing == arrival else (
                    "ingestion port" if landing == port + wire_s else "NIC rail"), held))
            port = (post_time if post_time >= port else port) + held
            self.ingests += 1
            if landing > arrival:
                self.ingest_stalls += 1
            landed.append(landing)
            if pending:
                key = (post_time, source, seq)
                if key in pending:
                    del pending[key]
                    self._pending_total -= 1
        ports[dest] = port
        # Receiver-program-order housekeeping (the only deterministic
        # place to prune): pending records that would have fully drained
        # behind the committed cursor were consumed on another path (a
        # system-path receive of a plan-posted message) and can no longer
        # delay anything this port will serve.
        if pending:
            stale = [
                key
                for key, record in pending.items()
                if record.arrival + overlap * record.wire_s <= port
            ]
            for key in stale:
                del pending[key]
                self._pending_total -= 1
        if sink is not None:
            rails = sorted({record[5] for record in records if record[5] is not None})
            sink(self, IngestEvent(dest, records, port, tuple(
                (rail, self._ingest_rails.get(rail, 0.0)) for rail in rails
            ), traced))
        if lone:
            return landed
        # Input order, through the keys: records sharing a key share the
        # landing of the last one served, and a record never served (zero
        # wire) keeps its arrival unless a served one shares its key.
        landings = {record[:3]: record[4] for record in records}
        landings.update(zip(map(_SERVICE_KEY, served), landed))
        return [landings[record[:3]] for record in records]

    def ingest_batch_vec(
        self,
        dests: Sequence[int],
        post_time: np.ndarray,
        sources: np.ndarray,
        seqs: np.ndarray,
        wire_s: np.ndarray,
        arrival: np.ndarray,
        *,
        rails: Optional[tuple[np.ndarray, Sequence[RailKey]]] = None,
    ) -> np.ndarray:
        """Commit ``m`` destinations' arrival batches — ``k`` each — at once.

        The columnar mirror of calling :meth:`ingest` once per destination
        in input order, with destination ``i``'s records taken column-wise
        from row ``i`` of the ``(m, k)`` field arrays.  ``rails``, when
        given, is ``(ids, keys)``: each record's receive-side rail as an id
        into ``keys`` (``-1`` for none — a route table's ``ingest_rail``
        gathered like the other fields).  Returns the ``(m, k)`` landing
        times in input column order, and leaves ports, rail cursors,
        counters and the pending ledger bit-identical to the scalar calls.

        When destinations are distinct, every wire time is positive and no
        row holds duplicate ``(post_time, source, seq)`` keys, each row is
        lexsorted into the deterministic service order (the rail ids
        permuted with the other fields) and the port recurrence ``landing =
        max(arrival, port + wire); port = max(post_time, port) + overlap *
        wire`` advances as ``k`` vectorised column steps — the same double
        operations as the scalar serve loop — with the rail cursor as one
        more gathered column.  Rows naming a common rail are chained in
        input order (:class:`_IngestPlan`).  Records the last
        :meth:`reserve_batch` left deferred are consumed as arrays, without
        ever becoming dict entries.  Anything else (a traced timeline, an
        incast sharing a destination row, zero-wire passthroughs, colliding
        keys) falls back to serialising rows through :meth:`_commit_ingest`.
        """
        dst = np.asarray(dests, dtype=np.int64)
        post = np.ascontiguousarray(np.asarray(post_time, dtype=np.float64))
        src = np.asarray(sources, dtype=np.int64)
        seq = np.asarray(seqs, dtype=np.int64)
        wire = np.ascontiguousarray(np.asarray(wire_s, dtype=np.float64))
        arr = np.ascontiguousarray(np.asarray(arrival, dtype=np.float64))
        rail: Optional[np.ndarray] = None
        rail_keys: Sequence[RailKey] = ()
        if rails is not None:
            rail, rail_keys = np.asarray(rails[0], dtype=np.int64), rails[1]
        if dst.ndim != 1 or post.ndim != 2 or post.shape[0] != dst.shape[0]:
            raise NicError(
                f"batch shapes must be dests (m,) and fields (m, k), got "
                f"{dst.shape} and {post.shape}"
            )
        m, k = post.shape
        for field in (src, seq, wire, arr, rail):
            if field is not None and field.shape != (m, k):
                raise NicError(f"ingest batch fields must all be (m, k)={m, k}")
        for name, column in (("post_time", post), ("wire_s", wire), ("arrival", arr)):
            if not np.isfinite(column).all():
                raise NicError(f"{name} must be finite for every record")
        landings = np.empty((m, k), dtype=np.float64)
        if m == 0 or k == 0:
            return landings
        cached = self._ingest_shape
        if cached is not None and dests is cached[0] and rails is cached[1]:
            # Frozen-shape fast lane: the same read-only arrays
            # vectorised before, so uniqueness holds and the staging,
            # Python list and cursor gathers are reused.
            plan: Optional[_IngestPlan] = cached[2]
        else:
            dst_list = dst.tolist()
            plan = (
                _plan_ingest(dst_list, rail, rail_keys)
                if len(set(dst_list)) == m else None
            )
            if plan is not None and dst is dests and not dst.flags.writeable and (
                rails is None
                or (rail is rails[0] and not rails[0].flags.writeable
                    and isinstance(rails[1], tuple))
            ):
                self._ingest_shape = (dst, rails, plan)
        if plan is not None and self.sink is None and bool(np.all(wire > 0)):
            order = np.lexsort((seq, src, post), axis=-1)
            post_sorted = np.take_along_axis(post, order, axis=1)
            src_sorted = np.take_along_axis(src, order, axis=1)
            seq_sorted = np.take_along_axis(seq, order, axis=1)
            if k == 1 or not bool(
                np.any(
                    (post_sorted[:, 1:] == post_sorted[:, :-1])
                    & (src_sorted[:, 1:] == src_sorted[:, :-1])
                    & (seq_sorted[:, 1:] == seq_sorted[:, :-1])
                )
            ):
                return self._ingest_batch_vector(
                    landings, plan, dst, order, post_sorted, src_sorted,
                    seq_sorted,
                    np.take_along_axis(wire, order, axis=1),
                    np.take_along_axis(arr, order, axis=1),
                )
        for i, dest in enumerate(dst.tolist()):
            records = [
                IngestRecord(
                    float(post[i, j]), int(src[i, j]), int(seq[i, j]),
                    float(wire[i, j]), float(arr[i, j]),
                    rail_keys[rail[i, j]] if rail is not None and rail[i, j] >= 0 else None,
                )
                for j in range(k)
            ]
            landings[i] = self._commit_ingest(dest, records)
        return landings

    def _ingest_batch_vector(
        self,
        landings: np.ndarray,
        plan: _IngestPlan,
        dst: np.ndarray,
        order: np.ndarray,
        post_sorted: np.ndarray,
        src_sorted: np.ndarray,
        seq_sorted: np.ndarray,
        wire_sorted: np.ndarray,
        arr_sorted: np.ndarray,
    ) -> np.ndarray:
        """Serve staged ingestion rows as column steps.

        Rows (destinations) of one stage share no cursor and arrive
        pre-sorted into the deterministic ``(post_time, source, seq)``
        service order; the port recurrence — and, for records naming one,
        the rail recurrence beside it — advances elementwise per column
        exactly as the scalar serve loop does per record, then landings
        scatter back to input column order through the sort permutation.
        """
        m, k = post_sorted.shape
        dst_list = plan.dst_list
        port = np.asarray(
            _gather(self._ingest_ports, dst_list, plan.port_get, 0.0), dtype=np.float64
        ).reshape(m)
        slots: Optional[np.ndarray] = None
        if plan.rails is not None:
            rail_keys, rail_get, slots = plan.rails
            slots = np.take_along_axis(slots, order, axis=1)
            # Rail cursors, then the sink rail-free records name: -inf
            # whenever it is read.
            rail_cur = np.empty(len(rail_keys) + 1)
            rail_cur[:-1] = _gather(self._ingest_rails, rail_keys, rail_get, 0.0)
        served = np.empty((m, k), dtype=np.float64)
        overlap = self.wire_overlap
        for rows in plan.stages:
            free = port[rows]
            for j in range(k):
                col_wire = wire_sorted[rows, j]
                col_post = post_sorted[rows, j]
                landing = np.maximum(arr_sorted[rows, j], free + col_wire)
                if slots is not None:
                    rail_cur[-1] = -np.inf
                    rail_free = rail_cur.take(slots[rows, j])
                    landing = np.maximum(landing, rail_free + col_wire)
                    rail_cur[slots[rows, j]] = (
                        np.maximum(col_post, rail_free) + overlap * col_wire
                    )
                served[rows, j] = landing
                free = np.maximum(col_post, free) + overlap * col_wire
            port[rows] = free
        if slots is not None:
            self._ingest_rails.update(zip(rail_keys, rail_cur[:-1].tolist()))
        self.ingests += m * k
        self.ingest_stalls += int(np.count_nonzero(served > arr_sorted))
        if self._block is not None:
            # The batch just booked, still columnar: its records go in a
            # few array operations, and survivors join the dict book.
            self._pending_total -= self._block.discard(dst, post_sorted, src_sorted, seq_sorted)
            if self._pending_total:
                self._settle()
            else:
                self._block = None
        frees = port.tolist()
        self._ingest_ports.update(zip(dst_list, frees))
        if self._pending_total:
            # Records held in the dict book: every row pops its own keys,
            # then meets the stale rule of the scalar ``ingest``.
            for dest, free, posts, sources, seqs in zip(
                dst_list, frees, post_sorted.tolist(), src_sorted.tolist(), seq_sorted.tolist()
            ):
                bucket = self._pending.get(dest)
                if bucket:
                    held = len(bucket)
                    for key in zip(posts, sources, seqs):
                        bucket.pop(key, None)
                    for key in [key for key, record in bucket.items()
                                if record.arrival + overlap * record.wire_s <= free]:
                        del bucket[key]
                    self._pending_total -= held - len(bucket)
        np.put_along_axis(landings, order, served, axis=1)
        return landings

    def ingest_preview(self, dest: int, arrival: float, wire_s: float) -> float:
        """The landing time a message *would* get as the next commit.

        A non-committing read of ``dest``'s ingestion cursor (receiver state
        only, hence deterministic) — the arrival hint ``Test``/``Waitany``
        probes see before the receive actually completes.
        """
        if wire_s <= 0:
            return arrival
        return max(arrival, self._ingest_ports.get(dest, 0.0) + wire_s)

    # ------------------------------------------------------------- inspection
    def port_free_at(self, rank: int) -> float:
        """Virtual time rank ``rank``'s injection port next frees up."""
        return self._ports.get(rank, 0.0)

    def link_free_at(self, source: int, dest: int) -> float:
        """Virtual time the ``(source, dest)`` link next frees up."""
        return self._links.get((source, dest), 0.0)

    def rail_free_at(self, rail: RailKey) -> float:
        """Virtual time the shared injection rail ``(node, rail)`` frees up."""
        return self._rail_ports.get(rail, 0.0)

    def ingest_rail_free_at(self, rail: RailKey) -> float:
        """Virtual time the shared receive-side rail ``(node, rail)`` frees up."""
        return self._ingest_rails.get(rail, 0.0)

    def shared_free_at(self, key: ShareKey) -> float:
        """Virtual time the shared uplink bundle ``key`` frees up.

        A cross-rank read by construction — the bundle is shared fabric —
        so pricing against it is exact only under a happens-before edge to
        the contending posts, exactly like :meth:`ingest_backlog`.
        """
        return self._shared_links.get(key, 0.0)

    def ingest_free_at(self, rank: int) -> float:
        """Virtual time rank ``rank``'s ingestion port next frees up.

        Reflects *committed* ingestion only; :meth:`ingest_backlog` folds the
        posted-but-not-yet-ingested traffic in as well.
        """
        return self._ingest_ports.get(rank, 0.0)

    def ingest_backlog(self, dest: int, now: float = 0.0) -> float:
        """Seconds of queued ingestion converging on ``dest``, as of ``now``.

        Replays the posted-but-not-yet-ingested arrivals (in key order) over
        the committed ingestion cursor, through :meth:`ingest`'s port rule
        from each record's ``post_time``, and reports how far past ``now`` the
        port would stay busy.  Only records whose ``post_time`` has passed on
        the caller's clock participate — a rank can only know about traffic
        from its virtual past, which is also what keeps the signal
        reproducible for queries with a happens-before edge to the posts (a
        barrier away).  This is the **advisory** hot-peer signal the
        contention-aware selector prices: exact under that edge, conservative
        when records were capped.  The query is a pure read — pending records
        are consumed at :meth:`ingest` time (receiver program order), never
        by another rank's clock, so concurrent queries cannot disturb each
        other (settling a deferred block moves records between
        representations, never in or out of the book).
        """
        if self._block is not None:
            self._settle()
        port = self._ingest_ports.get(dest, 0.0)
        pending = self._pending.get(dest)
        if pending:
            for key in sorted(pending):
                record = pending[key]
                if record.post_time > now:
                    continue
                port = max(record.post_time, port) + self.wire_overlap * record.wire_s
        return max(0.0, port - now)

    def pending_ingest(self, dest: int) -> int:
        """Posted-but-not-yet-ingested messages for ``dest`` (tests, stats)."""
        if self._block is not None:
            self._settle()
        return len(self._pending.get(dest, {}))

    def pending_records(self, dest: int) -> list[IngestRecord]:
        """Key-ordered snapshot of the advisory pending ledger for ``dest``.

        A pure read over exactly the records :meth:`ingest_backlog` replays —
        a traced contended selector sends it with each backlog read, which
        the runtime sanitizer audits for a happens-before edge, and tests
        introspect it.
        """
        if self._block is not None:
            self._settle()
        pending = self._pending.get(dest)
        if not pending:
            return []
        return [pending[key] for key in sorted(pending)]

    def state_fingerprint(self, rank: Optional[int] = None) -> int:
        """Hash of the priced ledger state, optionally scoped to one rank.

        With ``rank=None`` the digest covers every port/link/sequence cursor
        (including the topology rail and shared-uplink cursors) and the
        occupancy counters.  With a rank it covers only the state that
        rank's *own* calls advance — its injection and ingestion cursors,
        its outgoing links, its sequence counter.  That scope is what a
        traced contended selector brackets each pricing call with, and the
        runtime sanitizer compares:
        concurrent traffic from other ranks only ever touches *their* keys
        (send side source-scoped, receive side receiver-committed), so the
        rank-scoped digest is immune to scheduling noise while any mutation
        a pricing call leaks onto its own rank's state changes it.  Rail and
        uplink cursors are shared across ranks by construction, so they stay
        out of the rank-scoped digest.
        """
        if rank is None:
            return hash(
                (
                    tuple(sorted(self._ports.items())),
                    tuple(sorted(self._links.items())),
                    tuple(sorted(self._ingest_ports.items())),
                    tuple(sorted(self._seqs.items())),
                    tuple(sorted(self._rail_ports.items())),
                    tuple(sorted(self._ingest_rails.items())),
                    tuple(sorted(self._shared_links.items())),
                    self._pending_total,
                    self.reservations,
                    self.ingests,
                )
            )
        links = tuple(
            sorted(
                (key, value)
                for key, value in self._links.items()
                if key[0] == rank
            )
        )
        return hash(
            (
                self._ports.get(rank, 0.0),
                links,
                self._ingest_ports.get(rank, 0.0),
                self._seqs.get(rank, 0),
            )
        )

    def in_flight(self, at: float, *, source: int | None = None) -> int:
        """Ledger query: messages occupying the wire at virtual time ``at``."""
        return self._ledger.in_flight(at, source)

    def ledger(self, *, source: int | None = None) -> list[LinkRecord]:
        """A snapshot of the (bounded) reservation ledger, oldest first."""
        return self._ledger.records(source)

    def ledger_len(self) -> int:
        """Resident ledger rows (bounded by ``ledger_limit``)."""
        return len(self._ledger)

    def ledger_nbytes(self) -> int:
        """Resident bytes of the ledger's backing struct-array ring."""
        return self._ledger.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Summarise port/link/counter state for debugging."""
        return (
            f"<NicTimeline ports={len(self._ports)} links={len(self._links)} "
            f"reservations={self.reservations} stalls={self.stalls} "
            f"ingests={self.ingests} ingest_stalls={self.ingest_stalls}>"
        )

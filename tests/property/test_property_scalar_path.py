"""Property walls for the scalar message path's diet (ISSUE 18).

PR 18 restructured the scalar NIC rules so that one record — every
point-to-point receive, every reduction round — costs no sort, no keyed
dict and no property calls, made ``_Batch`` keep running totals, and spelt
the router's match inline in its mailbox scan.  None of that may move a
priced value, so:

* :class:`ParentNic` carries the **parent commit's** ``_reserve_one``,
  ``_register_pending`` and ``_ingest_locked`` (overriding its successor
  ``_commit_ingest``), copied verbatim (67121b3),
  and every Hypothesis walk drives it beside the restructured
  :class:`~repro.machine.nic.NicTimeline` through the same operations —
  mixed ingest sizes including one, zero-wire passthroughs, duplicate keys,
  rails and uplink bundles, a deferred ``_PendingBlock`` to settle,
  ``pending_limit`` eviction — comparing every reservation (its stall
  seconds too), landings, ports, counters and ``state_fingerprint()`` after
  every step (the stall-seconds sums the timeline no longer keeps are cut
  from the copies);
* ``_Batch.nbytes``/``.ready`` equal the re-summed totals after every
  enqueue and flush;
* the router's scan finds exactly the envelope ``_matches`` names first:
  FIFO per (source, context), wildcards included.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.machine.nic import IngestRecord, NicReservation, NicTimeline
from repro.machine.topology import PathSpec, RailKey
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.p2p import Envelope, MessageRouter
from repro.mpi.status import ANY_SOURCE, ANY_TAG
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose


class ParentNic(NicTimeline):
    """The timeline with the parent commit's scalar rules (verbatim copies,
    less the stall-seconds sums)."""

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
        """One reservation with the lock already held (see :meth:`reserve`).

        The single place the scalar injection rules live: :meth:`reserve`
        wraps it per message, and it is the reference :meth:`reserve_batch`'s
        level sweep is pinned against.
        """
        port = self._ports.get(source, 0.0)
        link_key = (source, dest)
        link = self._links.get(link_key, 0.0)
        start = max(ready, port, link)
        rail_key: Optional[RailKey] = None
        ingest_rail: Optional[RailKey] = None
        if path is not None:
            base = start
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
        self._ports[source] = start + self.wire_overlap * wire_s
        if rail_key is not None:
            self._rail_ports[rail_key] = start + self.wire_overlap * wire_s
        if path is not None:
            for share_key, bandwidth in path.shared:
                self._shared_links[share_key] = start + nbytes / bandwidth
        self._links[link_key] = arrival
        self.reservations += 1
        seq = self._seqs.get(source, 0)
        self._seqs[source] = seq + 1
        stalled = start - ready
        if stalled > 0:
            self.stalls += 1
        if self.ledger_limit:
            # The struct-array ring overwrites the oldest row in O(1).
            self._ledger.append(source, dest, start, arrival, int(nbytes))
        if ingest and wire_s > 0 and self.pending_limit:
            self._register_pending(
                dest,
                IngestRecord(start, source, seq, wire_s, arrival, ingest_rail),
            )
        return NicReservation(
            start=start,
            arrival=arrival,
            stalled_s=max(0.0, stalled),
            wire_s=wire_s,
            seq=seq,
        )

    def _register_pending(self, dest: int, record: IngestRecord) -> None:
        """Track one posted arrival on the (bounded) advisory ledger."""
        if self._block is not None:
            self._settle()
        pending = self._pending.setdefault(dest, {})
        if record.key not in pending:
            self._pending_total += 1
        pending[record.key] = record
        if len(pending) > self.pending_limit:
            # Drop the earliest-keyed record: it drains first, so losing it
            # only makes the (advisory) backlog estimate conservative.
            del pending[min(pending)]
            self._pending_total -= 1
        if self._pending_total > self.peak_pending:
            self.peak_pending = self._pending_total

    def _commit_ingest(self, dest: int, records: Sequence[IngestRecord]) -> list[float]:
        """One ingestion batch with the lock already held (see :meth:`ingest`).

        The single place the scalar ingestion rules live: :meth:`ingest`
        wraps it per batch and :meth:`ingest_batch_vec`'s serialised fallback
        row-loops it, so the two paths cannot drift.
        """
        if self._block is not None:
            self._settle()
        landings = {record.key: record.arrival for record in records}
        port = self._ingest_ports.get(dest, 0.0)
        for record in sorted(
            (r for r in records if r.wire_s > 0), key=lambda r: r.key
        ):
            # landing = begin + wire with begin = max(post_time, port) —
            # written so an undelayed landing equals the arrival
            # *exactly*, and using the true wire-entry time rather than
            # re-deriving it as arrival - wire (no float re-rounding).
            landing = max(record.arrival, port + record.wire_s)
            if record.rail is not None:
                # The shared receive-side rail mirrors the port rule in
                # its own cursor; the flat books never reach this branch.
                rail_port = self._ingest_rails.get(record.rail, 0.0)
                landing = max(landing, rail_port + record.wire_s)
                self._ingest_rails[record.rail] = (
                    max(record.post_time, rail_port)
                    + self.wire_overlap * record.wire_s
                )
            port = max(record.post_time, port) + self.wire_overlap * record.wire_s
            self.ingests += 1
            stalled = landing - record.arrival
            if stalled > 0:
                self.ingest_stalls += 1
            landings[record.key] = landing
            if self._pending.get(dest, {}).pop(record.key, None) is not None:
                self._pending_total -= 1
        self._ingest_ports[dest] = port
        # Receiver-program-order housekeeping (the only deterministic
        # place to prune): pending records that would have fully drained
        # behind the committed cursor were consumed on another path (a
        # system-path receive of a plan-posted message) and can no longer
        # delay anything this port will serve.
        pending = self._pending.get(dest)
        if pending:
            stale = [
                key
                for key, record in pending.items()
                if record.arrival + self.wire_overlap * record.wire_s <= port
            ]
            for key in stale:
                del pending[key]
            self._pending_total -= len(stale)
        return [landings[record.key] for record in records]


# --------------------------------------------------------------------------- #
# The scalar NIC rules against the parent's
# --------------------------------------------------------------------------- #

_RANKS = 6
#: Clean virtual seconds next to arbitrary ones: exact ties (equal keys, equal
#: landings) and ordinary rounding both have to come out bit-identical.
_SECONDS = st.one_of(
    st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.25)),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
_WIRE = st.one_of(
    st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.75)),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
_RAILS = st.sampled_from((None, None, (0, 0), (0, 1), (1, 0)))
_BUNDLES = st.lists(
    st.tuples(st.tuples(st.just("up"), st.integers(0, 1)), st.sampled_from((1e3, 4e3))),
    max_size=2, unique_by=lambda bundle: bundle[0],
)


@st.composite
def _paths(draw) -> Optional[PathSpec]:
    if draw(st.booleans()):
        return None
    return PathSpec(
        0, 1, "fabric", (), rail=draw(_RAILS), ingest_rail=draw(_RAILS),
        shared=tuple(draw(_BUNDLES)),
    )


def _cursors(nic: NicTimeline) -> tuple:
    """Every priced value, read without settling a deferred block."""
    return (
        nic.state_fingerprint(),
        [nic.state_fingerprint(rank) for rank in range(_RANKS)],
        dict(nic._ports), dict(nic._links), dict(nic._ingest_ports), dict(nic._seqs),
        dict(nic._rail_ports), dict(nic._ingest_rails), dict(nic._shared_links),
        nic.reservations, nic.stalls,
        nic.fabric_stalls, nic.fabric_stalled_s.hex(),
        nic.ingests, nic.ingest_stalls,
        nic.peak_pending, nic._pending_total, nic._block is None, nic.ledger(),
    )


def _pending(nic: NicTimeline) -> dict:
    """The advisory book (settles a deferred block, like any reader)."""
    return {
        dest: (nic.pending_records(dest), nic.pending_ingest(dest), nic.ingest_backlog(dest, 1.0))
        for dest in range(_RANKS)
    }


def _drawn_records(data, posted: Sequence[IngestRecord]) -> list[IngestRecord]:
    """An ingest batch: posted records, their twins under the same key, strangers."""
    records: list[IngestRecord] = []
    # One record is the case the diet is about; keep it the most likely size.
    for _ in range(data.draw(st.sampled_from((0, 1, 1, 1, 2, 3, 5)), label="batch size")):
        kind = data.draw(st.sampled_from(("posted", "posted", "twin", "zero", "stranger")), label="kind")
        if kind != "stranger" and posted:
            record = posted[data.draw(st.integers(0, len(posted) - 1), label="which")]
            if kind == "twin":  # same key, other landing window
                record = record._replace(
                    wire_s=data.draw(_WIRE, label="twin wire"),
                    arrival=record.arrival + data.draw(_SECONDS, label="twin delay"),
                )
            elif kind == "zero":  # same key, passes through unserved
                record = record._replace(wire_s=0.0)
        else:
            post_time = data.draw(_SECONDS, label="post")
            wire_s = data.draw(_WIRE, label="wire")
            record = IngestRecord(
                post_time, data.draw(st.integers(0, _RANKS - 1), label="source"),
                data.draw(st.integers(0, 3), label="seq"), wire_s, post_time + wire_s,
                data.draw(_RAILS, label="rail"),
            )
        records.append(record)
    return records


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scalar_rules_walk_like_the_parents(data):
    limit = data.draw(st.sampled_from((1, 2, 64)), label="pending_limit")
    new = NicTimeline(pending_limit=limit, ledger_limit=4)
    old = ParentNic(pending_limit=limit, ledger_limit=4)
    posted: dict[int, list[IngestRecord]] = {dest: [] for dest in range(_RANKS)}
    rank = st.integers(0, _RANKS - 1)
    # A batch first more often than chance: it is deferred only onto an empty
    # book, and the scalar rules then have a block to settle.
    steps = data.draw(st.lists(
        st.sampled_from(("batch", "reserve", "reserve", "ingest", "ingest", "ingest", "read")),
        min_size=1, max_size=10,
    ), label="steps")
    for step in steps:
        if step == "reserve":
            source, dest = data.draw(rank, label="source"), data.draw(rank, label="dest")
            ready, wire_s = data.draw(_SECONDS, label="ready"), data.draw(_WIRE, label="wire")
            nbytes = data.draw(st.integers(0, 4096), label="nbytes")
            ingest, path = data.draw(st.booleans(), label="ingest"), data.draw(_paths(), label="path")
            mine = new.reserve(source, dest, ready, wire_s, nbytes, ingest=ingest, path=path)
            assert mine == old.reserve(source, dest, ready, wire_s, nbytes, ingest=ingest, path=path)
            posted[dest].append(IngestRecord(
                mine.start, source, mine.seq, wire_s, mine.arrival,
                path.ingest_rail if path is not None else None,
            ))
        elif step == "batch":
            m, k = data.draw(st.integers(1, 3), label="m"), data.draw(st.integers(1, 2), label="k")
            sources = data.draw(st.lists(rank, min_size=m, max_size=m), label="sources")
            dests = data.draw(st.lists(st.lists(rank, min_size=k, max_size=k), min_size=m, max_size=m), label="dests")
            ready = data.draw(_SECONDS, label="ready")
            wire = np.asarray(data.draw(
                st.lists(st.lists(_WIRE, min_size=k, max_size=k), min_size=m, max_size=m), label="wires"
            ))
            mine = new.reserve_batch(sources, np.asarray(dests), ready, wire, 64)
            theirs = old.reserve_batch(sources, np.asarray(dests), ready, wire, 64)
            for left, right in zip(mine, theirs):
                assert np.array_equal(left, right)
            for i, source in enumerate(sources):
                for j, dest in enumerate(dests[i]):
                    posted[dest].append(IngestRecord(
                        float(mine.start[i, j]), source, int(mine.seq[i, j]),
                        float(wire[i, j]), float(mine.arrival[i, j]),
                    ))
        elif step == "ingest":
            dest = data.draw(rank, label="dest")
            records = _drawn_records(data, posted[dest])
            assert new.ingest(dest, records) == old.ingest(dest, records)
        else:
            assert _pending(new) == _pending(old)
        assert _cursors(new) == _cursors(old)
    assert _pending(new) == _pending(old)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_deferred_block_settles_the_same_under_either_rule(data):
    """A batch parked as a ``_PendingBlock``, then one scalar call to settle it."""
    limit = data.draw(st.sampled_from((2, 64)), label="pending_limit")
    new, old = NicTimeline(pending_limit=limit), ParentNic(pending_limit=limit)
    sources = [0, 1, 2]
    dests = np.asarray([[3, 4], [3, 5], [4, 5]])
    wire = np.asarray(data.draw(st.lists(
        st.lists(st.sampled_from((0.25, 0.5, 1.0)), min_size=2, max_size=2), min_size=3, max_size=3,
    ), label="wires"))
    booked = [nic.reserve_batch(sources, dests, 0.0, wire, 64) for nic in (new, old)]
    assert new._block is not None and old._block is not None
    if data.draw(st.booleans(), label="settle by ingest"):
        i, j = data.draw(st.integers(0, 2), label="row"), data.draw(st.integers(0, 1), label="col")
        record = IngestRecord(
            float(booked[0].start[i, j]), sources[i], int(booked[0].seq[i, j]),
            float(wire[i, j]), float(booked[0].arrival[i, j]),
        )
        dest = int(dests[i, j])
        assert new.ingest(dest, [record]) == old.ingest(dest, [record])
    else:
        args = (data.draw(st.integers(0, 2), label="source"), 3, 0.0, 0.5, 64)
        assert new.reserve(*args) == old.reserve(*args)
    assert new._block is None and old._block is None
    assert _cursors(new) == _cursors(old)
    assert _pending(new) == _pending(old)


# --------------------------------------------------------------------------- #
# _Batch running totals
# --------------------------------------------------------------------------- #

@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(2, 6), st.integers(1, 24)), min_size=1, max_size=12),
    st.integers(1, 8),
)
def test_batch_running_totals_are_the_resummed_totals(summit_model, sends, batch_max):
    """After every enqueue (and the flushes it forces) and after the last flush."""

    def totals_hold(engine) -> int:
        for batch in engine._batches.values():
            assert batch.entries
            assert batch.nbytes == sum(entry.nbytes for entry in batch.entries)
            assert batch.ready == max(entry.ready for entry in batch.entries)
        return engine.pending_sends()

    def program(ctx):
        comm = interpose(ctx, TempiConfig(), model=summit_model)
        comm.progress_engine.batch_max_messages = batch_max
        types = [comm.Type_commit(Type_vector(nblocks, block, block + 3, BYTE)) for _, nblocks, block in sends]
        if ctx.rank == 0:
            engine = comm.progress_engine
            requests, seen = [], 0
            for tag, ((peer, _, _), datatype) in enumerate(zip(sends, types)):
                requests.append(comm.Isend((ctx.gpu.malloc(datatype.extent), 1, datatype), peer, tag))
                seen = max(seen, totals_hold(engine))
            assert seen >= 1  # sub-eager sends really were enqueued
            engine.progress()
            assert totals_hold(engine) == 0 and not engine._batches
            for request in requests:
                request.Wait()
        else:
            for tag, ((peer, _, _), datatype) in enumerate(zip(sends, types)):
                if peer == ctx.rank:
                    comm.Recv((ctx.gpu.malloc(datatype.extent), 1, datatype), 0, tag)

    World(4, ranks_per_node=2).run(program)


# --------------------------------------------------------------------------- #
# Router matching
# --------------------------------------------------------------------------- #

def _envelope(source: int, tag: int, context: int) -> Envelope:
    return Envelope(
        source=source, dest=0, tag=tag, context=context,
        payload=np.zeros(1, dtype=np.uint8), available_at=0.0, device=False,
    )


_TRIPLES = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_TRIPLES, max_size=12),
    st.lists(st.tuples(st.sampled_from((ANY_SOURCE, 0, 1, 2)), st.sampled_from((ANY_TAG, 0, 1, 2)),
                       st.integers(0, 1)), min_size=1, max_size=12),
)
def test_router_scan_finds_what_matches_names_first(mailbox, probes):
    """FIFO per (source, context), wildcards included, probe and receive alike."""
    router = MessageRouter(1)
    model: list[Envelope] = []
    for triple in mailbox:
        envelope = _envelope(*triple)
        router.post(envelope)
        model.append(envelope)
    assert router._mailboxes[0] == model  # post order, which the scan relies on
    for source, tag, context in probes:
        expected = next(
            (e for e in model if MessageRouter._matches(e, source, tag, context)), None
        )
        assert router.probe(0, source, tag, context) is expected
        if expected is not None:
            assert router.receive(0, source, tag, context) is expected
            model.remove(expected)
    assert router.pending(0) == len(model)

"""Property pins for vectorized batch booking (PR 9).

The batch kernels are *pricing kernels*, not a different model: every
Hypothesis case here drives the same messages through a batched NIC and a
scalar NIC (the defined row-major loop) and demands bit-identical books —
reservations, landings, cursors, counters and ``state_fingerprint`` — across

* flat and fat-tree (routed) worlds, the latter as nested ``PathSpec``
  lists and as a frozen ``RouteTable``,
* repeated sources, repeated in-row destinations, shared rails and uplink
  bundles — every coupling the level schedule turns into deeper levels,
* ingesting (duplex) and inject-only batches, rail-carrying landings,
* tiny ledger/pending limits (ring wraparound and advisory eviction),
* the frozen-shape fast lanes (read-only arrays reused across rounds).

The last class pins the executor surface end to end: a halo-exchange driver
in ``booking="batched"`` mode must finish with the same NIC fingerprint and
the same per-rank virtual clocks (time *and* event counts) as the scalar
driver — the priced-clock bit-identity the acceptance criteria name.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.simthroughput import CACHED_CONFIG, FABRIC_SPEC, HaloDriver
from repro.machine.nic import IngestRecord, NicReservation, NicTimeline
from repro.machine.spec import SUMMIT
from repro.machine.topology import Topology
from repro.tempi.config import TempiConfig
from repro.tempi.measurement import measure_system
from repro.tempi.perf_model import PerformanceModel

#: Clean virtual seconds — exactness is the point, not the values.
_SECONDS = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.25))
_WIRE = st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.75))


@st.composite
def batch_cases(draw):
    """One exchange: m sources x k messages, mixed wires/limits."""
    m = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    # Sources may repeat and rows may repeat a destination: both chain
    # messages on one cursor (deeper levels of the schedule), and both must
    # price identically to the loop.
    sources = draw(st.lists(st.integers(0, 7), min_size=m, max_size=m))
    dests = [
        draw(st.lists(st.integers(0, 7), min_size=k, max_size=k))
        for _ in range(m)
    ]
    ready = [[draw(_SECONDS) for _ in range(k)] for _ in range(m)]
    wire = [[draw(_WIRE) for _ in range(k)] for _ in range(m)]
    nbytes = [[draw(st.integers(0, 4096)) for _ in range(k)] for _ in range(m)]
    ledger_limit = draw(st.integers(1, 4))
    pending_limit = draw(st.integers(1, 4))
    ingest = draw(st.booleans())
    return sources, dests, ready, wire, nbytes, ledger_limit, pending_limit, ingest


def _scalar_reference(nic, sources, dests, ready, wire, nbytes, ingest, paths=None):
    """The defining row-major scalar loop, returning the stacked fields."""
    start, arrival, stalled, seq = [], [], [], []
    for i, source in enumerate(sources):
        row = [[], [], [], []]
        for j, dest in enumerate(dests[i]):
            res = nic.reserve(
                source, dest, ready[i][j], wire[i][j], nbytes[i][j],
                ingest=ingest, path=paths[i][j] if paths is not None else None,
            )
            row[0].append(res.start)
            row[1].append(res.arrival)
            row[2].append(res.stalled_s)
            row[3].append(res.seq)
        start.append(row[0])
        arrival.append(row[1])
        stalled.append(row[2])
        seq.append(row[3])
    return start, arrival, stalled, seq


#: Every destination any case in this file books to.
_DESTS = range(64)


def _record_messages(nic):
    """Wrap ``nic``'s booking calls, scalar and batch, to keep every message's
    stall seconds (in booking order) and landing (by destination, source and
    seq), as ``float.hex()``; returns the two growing records."""
    stalls: list[str] = []
    landings: dict[tuple[int, int, int], str] = {}
    reserve, reserve_batch, ingest, ingest_vec = (
        nic.reserve, nic.reserve_batch, nic.ingest, nic.ingest_batch_vec
    )

    def scalar_reserve(*args, **kwargs):
        reservation = reserve(*args, **kwargs)
        stalls.append(reservation.stalled_s.hex())
        return reservation

    def batch_reserve(*args, **kwargs):
        batch = reserve_batch(*args, **kwargs)
        stalls.extend(value.hex() for value in batch.stalled_s.ravel().tolist())
        return batch

    def scalar_ingest(dest, records):
        landed = ingest(dest, records)
        landings.update(((dest, r.source, r.seq), t.hex()) for r, t in zip(records, landed))
        return landed

    def batch_ingest(dests, post, sources, seqs, *args, **kwargs):
        landed = ingest_vec(dests, post, sources, seqs, *args, **kwargs)
        for dest, row, src, seq in zip(dests, landed.tolist(), sources.tolist(), seqs.tolist()):
            landings.update(((int(dest), s, q), t.hex()) for s, q, t in zip(src, seq, row))
        return landed

    nic.reserve, nic.reserve_batch = scalar_reserve, batch_reserve
    nic.ingest, nic.ingest_batch_vec = scalar_ingest, batch_ingest
    return stalls, landings


def _books(nic, dests=_DESTS):
    """Every observable the batch kernels must keep bit-identical."""
    return (
        nic.state_fingerprint(),
        nic.reservations,
        nic.stalls,
        nic.fabric_stalls,
        nic.fabric_stalled_s,
        nic.ingest_stalls,
        nic.peak_pending,
        nic._pending_total,
        {dest: nic.pending_records(dest) for dest in dests},
    )


class TestReserveBatchIsTheScalarLoop:
    @settings(max_examples=60, deadline=None)
    @given(batch_cases())
    def test_flat_books_identical(self, case):
        sources, dests, ready, wire, nbytes, ledger_limit, pending_limit, ingest = case
        scalar = NicTimeline(ledger_limit=ledger_limit, pending_limit=pending_limit)
        batched = NicTimeline(ledger_limit=ledger_limit, pending_limit=pending_limit)
        reference = _scalar_reference(scalar, sources, dests, ready, wire, nbytes, ingest)
        batch = batched.reserve_batch(
            np.asarray(sources, dtype=np.int64),
            np.asarray(dests, dtype=np.int64),
            np.asarray(ready, dtype=np.float64),
            np.asarray(wire, dtype=np.float64),
            np.asarray(nbytes, dtype=np.int64),
            ingest=ingest,
        )
        assert batch.start.tolist() == reference[0]
        assert batch.arrival.tolist() == reference[1]
        assert batch.stalled_s.tolist() == reference[2]
        assert batch.seq.tolist() == reference[3]
        assert _books(batched) == _books(scalar)
        # The compact ring answers occupancy questions identically across
        # its overwrite-append wraparound, whole-wire and per-source.
        probes = {0.0, *(t for row in reference[1] for t in row)}
        for at in sorted(probes):
            assert batched.in_flight(at) == scalar.in_flight(at)
            for source in sources:
                assert batched.in_flight(at, source=source) == scalar.in_flight(
                    at, source=source
                )

    @settings(max_examples=25, deadline=None)
    @given(batch_cases(), st.booleans())
    def test_fat_tree_books_identical(self, case, device):
        sources, dests, ready, wire, nbytes, ledger_limit, pending_limit, ingest = case
        topology = Topology(8, machine=SUMMIT, spec=FABRIC_SPEC)
        paths = [
            [topology.resolve(s, d, device_buffers=device) for d in dests[i]]
            for i, s in enumerate(sources)
        ]
        scalar = NicTimeline(ledger_limit=ledger_limit, pending_limit=pending_limit)
        batched = NicTimeline(ledger_limit=ledger_limit, pending_limit=pending_limit)
        reference = _scalar_reference(
            scalar, sources, dests, ready, wire, nbytes, ingest, paths=paths
        )
        batch = batched.reserve_batch(
            np.asarray(sources, dtype=np.int64),
            np.asarray(dests, dtype=np.int64),
            np.asarray(ready, dtype=np.float64),
            np.asarray(wire, dtype=np.float64),
            np.asarray(nbytes, dtype=np.int64),
            ingest=ingest,
            paths=paths,
        )
        assert batch.start.tolist() == reference[0]
        assert batch.arrival.tolist() == reference[1]
        assert batch.stalled_s.tolist() == reference[2]
        assert batch.seq.tolist() == reference[3]
        assert _books(batched) == _books(scalar)
        # The frozen route table is the same batch, tabulated once.
        tabled = NicTimeline(ledger_limit=ledger_limit, pending_limit=pending_limit)
        again = tabled.reserve_batch(
            sources, dests, ready, wire, nbytes, ingest=ingest,
            paths=topology.route_table(sources, dests, device_buffers=device),
        )
        assert again.start.tolist() == reference[0]
        assert again.seq.tolist() == reference[3]
        assert _books(tabled) == _books(scalar)
        for dest in {d for row in dests for d in row}:
            assert tabled.pending_records(dest) == scalar.pending_records(dest)

    def test_mutated_nested_paths_are_honoured(self):
        """A nested ``paths`` list is re-read on every call, never memoised:
        swapping its entries between two calls that reuse the same read-only
        arrays (and the same list object) must reprice like the loop."""
        topology = Topology(64, machine=SUMMIT, spec=FABRIC_SPEC)
        sources = np.asarray([0, 1, 2, 3], dtype=np.int64)
        dests = np.asarray([[40, 41], [42, 43], [44, 45], [46, 47]], dtype=np.int64)
        wire = np.full((4, 2), 0.5)
        for array in (sources, dests, wire):
            array.flags.writeable = False
        routed = [[topology.resolve(int(s), int(d)) for d in row]
                  for s, row in zip(sources, dests)]
        assert any(path.shared for row in routed for path in row)
        paths = [[None, None] for _ in range(4)]
        scalar, batched = NicTimeline(), NicTimeline()
        for round_index in range(3):
            if round_index == 1:
                for i in range(4):
                    paths[i][:] = routed[i]      # same list objects, new contents
            if round_index == 2:
                paths[2][1] = None
            ready = 0.125 * round_index
            reference = _scalar_reference(
                scalar, sources.tolist(), dests.tolist(), [[ready] * 2] * 4,
                wire.tolist(), [[4096] * 2] * 4, True, paths=paths,
            )
            batch = batched.reserve_batch(sources, dests, ready, wire, 4096, paths=paths)
            assert batch.start.tolist() == reference[0]
            assert _books(batched) == _books(scalar)
        assert batched.fabric_stalls > 0
        assert batched._batch_shape is None


class TestIngestBatchIsTheScalarLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        senders=st.integers(1, 3),
        receivers=st.integers(1, 3),
        wire=st.lists(_WIRE, min_size=9, max_size=9),
        ready=st.lists(_SECONDS, min_size=9, max_size=9),
    )
    def test_landings_and_books_identical(self, senders, receivers, wire, ready):
        """Every receiver commits its whole arrival batch: vec == loop."""
        sources = list(range(senders))
        dests = list(range(10, 10 + receivers))
        nics = [NicTimeline(ledger_limit=4, pending_limit=8) for _ in range(2)]
        fields = {d: [] for d in dests}
        for nic in nics:
            it = 0
            book = {d: [] for d in dests}
            for s in sources:
                for d in dests:
                    w = wire[it % len(wire)] or 0.25  # ingestion rows need wire > 0
                    res = nic.reserve(s, d, ready[it % len(ready)], w, 64, ingest=True)
                    book[d].append((res.start, s, res.seq, w, res.arrival))
                    it += 1
            fields = book
        post = np.asarray([[r[0] for r in fields[d]] for d in dests])
        src = np.asarray([[r[1] for r in fields[d]] for d in dests])
        seq = np.asarray([[r[2] for r in fields[d]] for d in dests])
        wires = np.asarray([[r[3] for r in fields[d]] for d in dests])
        arr = np.asarray([[r[4] for r in fields[d]] for d in dests])
        scalar_landings = [
            nics[0].ingest(
                d, [IngestRecord(*fields[d][j][:5]) for j in range(senders)]
            )
            for d in dests
        ]
        vec_landings = nics[1].ingest_batch_vec(
            np.asarray(dests, dtype=np.int64), post, src, seq, wires, arr
        )
        assert vec_landings.tolist() == scalar_landings
        assert _books(nics[1]) == _books(nics[0])
        assert nics[1].ingests == nics[0].ingests
        assert nics[1].ingest_stalls == nics[0].ingest_stalls

    @settings(max_examples=40, deadline=None)
    @given(
        senders=st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True),
        receivers=st.lists(st.integers(0, 15), min_size=1, max_size=5, unique=True),
        wire=st.lists(st.sampled_from((0.25, 0.5, 1.0, 1.75)), min_size=7, max_size=7),
        ready=st.lists(_SECONDS, min_size=5, max_size=5),
        device=st.booleans(),
    )
    def test_fat_tree_landings_with_rails_identical(
        self, senders, receivers, wire, ready, device
    ):
        """Routed landings: destinations on one node share a receive-side
        rail (chained rows), same-node senders carry none — the columnar
        kernel with rail ids == one scalar ``ingest`` per destination."""
        topology = Topology(16, machine=SUMMIT, spec=FABRIC_SPEC)
        table = topology.route_table(senders, [receivers] * len(senders),
                                     device_buffers=device)
        nics = [NicTimeline(ledger_limit=4, pending_limit=8) for _ in range(2)]
        for nic in nics:
            it = 0
            fields = {d: [] for d in receivers}
            for s in senders:
                for d in receivers:
                    path = topology.resolve(s, d, device_buffers=device)
                    w = wire[it % len(wire)]
                    res = nic.reserve(s, d, ready[it % len(ready)], w, 2048, path=path)
                    fields[d].append(
                        IngestRecord(res.start, s, res.seq, w, res.arrival, path.ingest_rail)
                    )
                    it += 1
        scalar_landings = [nics[0].ingest(d, fields[d]) for d in receivers]
        columns = [
            np.asarray([[record[f] for record in fields[d]] for d in receivers])
            for f in range(5)
        ]
        vec_landings = nics[1].ingest_batch_vec(
            np.asarray(receivers, dtype=np.int64), columns[0], columns[1],
            columns[2], columns[3], columns[4],
            rails=(table.ingest_rail.T, table.ingest_rail_keys),
        )
        assert vec_landings.tolist() == scalar_landings
        assert _books(nics[1]) == _books(nics[0])
        assert nics[1].ingests == nics[0].ingests
        for node in range(topology.nnodes):
            assert nics[1].ingest_rail_free_at((node, 0)) == nics[0].ingest_rail_free_at((node, 0))


class TestFrozenShapeFastLane:
    def test_frozen_arrays_price_like_fresh_ones(self):
        """Round n reusing the same read-only arrays must equal a NIC fed
        fresh writable copies — the shape memos skip validation, never math."""
        m, k = 6, 3
        sources = np.arange(m, dtype=np.int64)
        dests = np.asarray([[(i + j + 1) % m + m for j in range(k)] for i in range(m)],
                           dtype=np.int64)
        wire = np.full((m, k), 0.5, dtype=np.float64)
        for array in (sources, dests, wire):
            array.flags.writeable = False
        ingest_dests = np.asarray(sorted({int(d) for row in dests for d in row}),
                                  dtype=np.int64)
        ingest_dests.flags.writeable = False
        frozen = NicTimeline(ledger_limit=4, pending_limit=8)
        fresh = NicTimeline(ledger_limit=4, pending_limit=8)
        for round_index in range(4):
            ready = 0.25 * round_index
            a = frozen.reserve_batch(sources, dests, ready, wire, 128, ingest=True)
            b = fresh.reserve_batch(
                sources.copy(), dests.copy(), ready, wire.copy(), 128, ingest=True
            )
            assert a.start.tolist() == b.start.tolist()
            assert a.arrival.tolist() == b.arrival.tolist()
            assert a.seq.tolist() == b.seq.tolist()
            # Read without settling, so the ingest below meets the block: a
            # consumed block must not have spent the memoised shape's mask.
            assert frozen.state_fingerprint() == fresh.state_fingerprint()
            assert frozen._block is not None and fresh._block is not None
            # Commit each destination's arrivals so the lanes interleave
            # reserve and ingest exactly the way the halo harness does.
            rows = {int(d): [] for d in ingest_dests.tolist()}
            for i in range(m):
                for j in range(k):
                    rows[int(dests[i, j])].append(
                        (a.start[i, j], int(sources[i]), int(a.seq[i, j]),
                         wire[i, j], a.arrival[i, j])
                    )
            post = np.asarray([[r[0] for r in rows[d]] for d in ingest_dests.tolist()])
            src = np.asarray([[r[1] for r in rows[d]] for d in ingest_dests.tolist()])
            seq = np.asarray([[r[2] for r in rows[d]] for d in ingest_dests.tolist()])
            wires = np.asarray([[r[3] for r in rows[d]] for d in ingest_dests.tolist()])
            arr = np.asarray([[r[4] for r in rows[d]] for d in ingest_dests.tolist()])
            va = frozen.ingest_batch_vec(ingest_dests, post, src, seq, wires, arr)
            vb = fresh.ingest_batch_vec(ingest_dests.copy(), post, src, seq, wires, arr)
            assert va.tolist() == vb.tolist()
            assert _books(frozen) == _books(fresh)
            if round_index:
                # The lanes actually engaged: identical read-only inputs were
                # recognised (this is the cache the equality above exercises).
                assert frozen._batch_shape is not None
                assert frozen._batch_shape[0] is sources
                assert frozen._ingest_shape is not None
                assert frozen._ingest_shape[0] is ingest_dests


    def test_frozen_routed_batch_prices_like_fresh_arrays(self):
        """The routed lane: the same read-only arrays *and* route table
        re-posted over several rounds (schedule memoised) == fresh writable
        copies with the paths re-tabulated every call, reserve and ingest."""
        topology = Topology(64, machine=SUMMIT, spec=FABRIC_SPEC)
        m, k = 64, 4
        sources = np.arange(m, dtype=np.int64)
        dests = np.asarray(
            [sorted((i + d) % m for d in (-17, -1, 1, 17)) for i in range(m)], dtype=np.int64
        )
        wire = np.full((m, k), 0.5, dtype=np.float64)
        for array in (sources, dests, wire):
            array.flags.writeable = False
        table = topology.route_table(sources, dests, device_buffers=True)
        nested = [[topology.resolve(int(s), int(d), device_buffers=True) for d in row]
                  for s, row in zip(sources, dests)]
        # Ingest rows: destination q's k arrivals, gathered out of the batch.
        hits = {}
        for i in range(m):
            for j in range(k):
                hits.setdefault(int(dests[i, j]), []).append((i, j))
        ingest_dests = np.asarray(list(hits), dtype=np.int64)
        rows = np.asarray([[i for i, _ in hits[d]] for d in hits], dtype=np.int64)
        cols = np.asarray([[j for _, j in hits[d]] for d in hits], dtype=np.int64)
        rail_ids = table.ingest_rail[rows, cols]
        for array in (ingest_dests, rail_ids):
            array.flags.writeable = False
        rails = (rail_ids, table.ingest_rail_keys)
        frozen = NicTimeline(ledger_limit=16, pending_limit=8)
        fresh = NicTimeline(ledger_limit=16, pending_limit=8)
        for round_index in range(4):
            ready = 0.25 * round_index
            a = frozen.reserve_batch(sources, dests, ready, wire, 1 << 20, paths=table)
            b = fresh.reserve_batch(
                sources.copy(), dests.copy(), ready, wire.copy(), 1 << 20, paths=nested
            )
            assert a.start.tolist() == b.start.tolist()
            assert a.seq.tolist() == b.seq.tolist()
            va = frozen.ingest_batch_vec(
                ingest_dests, a.start[rows, cols], rows, a.seq[rows, cols],
                wire[rows, cols], a.arrival[rows, cols],
                rails=rails,
            )
            vb = fresh.ingest_batch_vec(
                ingest_dests.copy(), b.start[rows, cols], rows, b.seq[rows, cols],
                wire[rows, cols], b.arrival[rows, cols],
                rails=(rail_ids.copy(), list(table.ingest_rail_keys)),
            )
            assert va.tolist() == vb.tolist()
            assert _books(frozen) == _books(fresh)
            if round_index:
                assert frozen._batch_shape is not None and frozen._batch_shape[3] is table
                assert frozen._ingest_shape is not None and frozen._ingest_shape[1] is rails
            assert fresh._batch_shape is None and fresh._ingest_shape is None
        assert frozen.fabric_stalls > 0 and frozen.ingest_stalls > 0


_RANKS = 16
_RANK = st.integers(0, _RANKS - 1)


@st.composite
def walk_batches(draw):
    """One ``reserve_batch`` of the life-cycle walk.

    Beside free-form rows (repeated sources and destinations, zero wires)
    it draws the two shapes one ``ingest_batch_vec`` can consume whole —
    every message to its own destination, and every source to the same
    ``k`` destinations — so that blocks are emptied, not only chipped at.
    """
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    shape = draw(st.sampled_from(("free", "distinct", "shared")))
    if shape == "free":
        sources = draw(st.lists(_RANK, min_size=m, max_size=m))
        dests = [draw(st.lists(_RANK, min_size=k, max_size=k)) for _ in range(m)]
    else:
        ranks = draw(st.permutations(range(_RANKS)))
        sources = ranks[:m]
        dests = [ranks[4 + i * k:4 + (i + 1) * k] if shape == "distinct" else ranks[4:4 + k]
                 for i in range(m)]
    wires = _WIRE if shape == "free" else st.sampled_from((0.25, 0.5, 1.0))
    ready = [draw(st.lists(_SECONDS, min_size=k, max_size=k)) for _ in range(m)]
    wire = [draw(st.lists(wires, min_size=k, max_size=k)) for _ in range(m)]
    ingest = shape != "free" or draw(st.booleans())
    return sources, dests, ready, wire, ingest


#: Ways a service key can name no pending record of the row it is given to.
_FOREIGN = {
    "post": lambda r: r._replace(post_time=r.post_time + 0.125),
    "source": lambda r: r._replace(source=31),              # no such rank
    "seq": lambda r: r._replace(seq=r.seq + 1),             # not issued, or another message's
    "wire": lambda r: r._replace(wire_s=r.wire_s or 0.25),
    "dest": lambda r: r,                                    # right key, wrong destination
}


@st.composite
def block_walks(draw):
    """A script over one timeline: every reader and writer of the pending
    book, interleaved around batch reservations that may or may not defer."""
    batch = st.tuples(st.just("batch"), walk_batches(), st.booleans())  # ..., scribble on the result
    vec = st.tuples(st.just("vec"), st.sampled_from(("full", "full", "partial", *_FOREIGN)))
    read = st.tuples(st.sampled_from(("backlog", "records", "count")), _RANK, _SECONDS)
    others = (
        vec, vec, vec, batch, read, read,
        st.tuples(st.just("reserve"), _RANK, _RANK, _SECONDS, _WIRE),
        st.tuples(st.just("ingest"), _RANK),
        st.tuples(st.just("fresh")),
    )
    # (one_of drops repeated alternatives; an index keeps the weights.)
    other = st.integers(0, len(others) - 1).flatmap(others.__getitem__)
    # Episodes open with a batch, so that most steps find a block to act on.
    episodes = draw(
        st.lists(st.tuples(batch, st.lists(other, min_size=1, max_size=4)), min_size=1, max_size=3)
    )
    return (
        draw(st.sampled_from((64, 2, 1))),      # pending_limit: 1 and 2 evict
        draw(st.booleans()),                    # fat-tree paths and receive-side rails
        [step for first, rest in episodes for step in (first, *rest)],
    )


class TestPendingBlockLifeCycle:
    """The deferred block is a write-combining buffer, not a second model.

    Twin timelines run one script — ``batched`` through ``reserve_batch`` /
    ``ingest_batch_vec``, ``scalar`` through the defining row-major loops —
    and agree on every return value and, after every step, on every book.
    The after-step comparison reads the pending book, which settles an
    outstanding block; so each prefix of the script is replayed on a fresh
    pair and compared at its end, and no comparison stands between a
    deferred batch and whatever the script does to it next.
    """

    _TOPOLOGY = Topology(_RANKS, machine=SUMMIT, spec=FABRIC_SPEC)

    def _run(self, limit, routed, steps):
        """Drive both timelines through ``steps``; return them."""
        def twins():
            return (NicTimeline(ledger_limit=4, pending_limit=limit),
                    NicTimeline(ledger_limit=4, pending_limit=limit))

        batched, scalar = twins()
        resolve = self._TOPOLOGY.resolve if routed else (lambda s, d: None)
        posted = {}     # dest -> records reserved and not yet committed by the script

        def post(source, dest, wire, res):
            path = resolve(source, dest)
            posted.setdefault(dest, []).append(IngestRecord(
                res.start, source, res.seq, wire, res.arrival,
                path.ingest_rail if path is not None else None,
            ))

        for step in steps:
            if step[0] == "batch":
                sources, dests, ready, wire, ingest = step[1]
                nbytes = [[1024] * len(row) for row in dests]
                paths = [[resolve(s, d) for d in row] for s, row in zip(sources, dests)]
                reference = _scalar_reference(
                    scalar, sources, dests, ready, wire, nbytes, ingest,
                    paths=paths if routed else None,
                )
                wire_arr = np.asarray(wire, dtype=np.float64)
                batch = batched.reserve_batch(
                    np.asarray(sources), np.asarray(dests), np.asarray(ready), wire_arr,
                    1024, ingest=ingest,
                    paths=self._TOPOLOGY.route_table(sources, dests) if routed else None,
                )
                assert batch.start.tolist() == reference[0]
                assert batch.seq.tolist() == reference[3]
                for i, source in enumerate(sources):
                    for j, dest in enumerate(dests[i]):
                        post(source, dest, wire[i][j], NicReservation(
                            reference[0][i][j], reference[1][i][j], 0.0, seq=reference[3][i][j]
                        ))
                if step[2]:
                    # Caller-owned arrays: scribbling on them afterwards
                    # must not reach the deferred records.
                    for array in (batch.start, batch.arrival, batch.seq, wire_arr):
                        array[...] = 7
            elif step[0] == "reserve":
                _, source, dest, ready, wire = step
                path = resolve(source, dest)
                res = scalar.reserve(source, dest, ready, wire, 64, path=path)
                assert batched.reserve(source, dest, ready, wire, 64, path=path) == res
                post(source, dest, wire, res)
            elif step[0] == "ingest":
                records = posted.pop(step[1], [])
                assert batched.ingest(step[1], records) == scalar.ingest(step[1], records)
            elif step[0] == "vec":
                self._vec(batched, scalar, posted, step[1])
            elif step[0] == "backlog":
                assert batched.ingest_backlog(step[1], step[2]) == scalar.ingest_backlog(
                    step[1], step[2])
            elif step[0] == "records":
                assert batched.pending_records(step[1]) == scalar.pending_records(step[1])
            elif step[0] == "count":
                assert batched.pending_ingest(step[1]) == scalar.pending_ingest(step[1])
            else:
                # A timeline has no reset: a new world builds a fresh pair.
                batched, scalar = twins()
                posted.clear()
            # What holds straight after any call, read without settling.
            assert batched.state_fingerprint() == scalar.state_fingerprint()
            assert batched._pending_total == scalar._pending_total
            assert batched.peak_pending == scalar.peak_pending
            live = sum(len(bucket) for bucket in batched._pending.values())
            if batched._block is not None:
                assert live == 0
                assert batched._pending_total == np.count_nonzero(batched._block.alive) > 0
            else:
                assert batched._pending_total == live
        return batched, scalar

    @staticmethod
    def _vec(batched, scalar, posted, kind):
        """One ``ingest_batch_vec`` against one scalar ``ingest`` per row."""
        if not posted:
            return
        # Rectangular rows: every destination holding the commonest count.
        counts = sorted(len(records) for records in posted.values())
        k = counts[len(counts) // 2]
        dests = sorted(d for d, records in posted.items() if len(records) == k)
        if kind == "partial":
            dests, k = dests[:1], max(1, k - 1)
        rows = [posted[d][:k] for d in dests]
        if kind in _FOREIGN:
            # Keys that name no pending record of their row, each kind wrong
            # in one field only — so each pops nothing for its own reason.
            # (A wire time given to a zero-wire message names a message that
            # was booked but never registered; all stay posted.)
            rows = [[_FOREIGN[kind](r) for r in row] for row in rows]
            if kind == "dest":
                dests = [(d + 1) % _RANKS for d in dests]
        else:
            for d in dests:
                del posted[d][:k]
                if not posted[d]:
                    del posted[d]
        keys = tuple(sorted({r.rail for row in rows for r in row if r.rail is not None}))
        rail_ids = np.asarray(
            [[keys.index(r.rail) if r.rail is not None else -1 for r in row] for row in rows]
        )
        columns = [np.asarray([[r[f] for r in row] for row in rows]) for f in range(5)]
        landings = batched.ingest_batch_vec(
            np.asarray(dests), *columns, rails=(rail_ids, keys) if keys else None
        )
        assert landings.tolist() == [scalar.ingest(d, row) for d, row in zip(dests, rows)]

    @settings(max_examples=150, deadline=None)
    @given(block_walks())
    def test_twin_timelines_agree_after_every_step(self, walk):
        limit, routed, steps = walk
        for length in range(1, len(steps) + 1):
            batched, scalar = self._run(limit, routed, steps[:length])
            # The first read of an outstanding block is the one that settles
            # it: each reader takes its turn at going first.
            assert self._observe(batched, length % 3) == self._observe(scalar, length % 3)

    @staticmethod
    def _observe(nic, first):
        """Every readable book of ``nic``, reader ``first`` going first."""
        readers = (
            lambda d: [nic.ingest_backlog(d, now) for now in (0.0, 1.0, 16.0)],
            nic.pending_records,
            nic.pending_ingest,
        )
        return [
            [reader(dest) for dest in range(_RANKS)] for reader in readers[first:] + readers[:first]
        ], _books(nic)

    @pytest.mark.parametrize("kind", sorted(_FOREIGN))
    def test_a_foreign_key_pops_only_what_the_dicts_would(self, kind):
        """The walk's foreign keys, one kind at a time against one deferred
        block: three sources, one message each, the first with no wire (booked,
        never registered).  The last source's is the record a clipped lookup
        lands on, so an unknown source and an unissued ``seq`` both find it."""
        batched, scalar = NicTimeline(), NicTimeline()
        wires = (0.0, 0.5, 0.5)
        batch = batched.reserve_batch([0, 1, 2], np.asarray([[3], [4], [5]]), 0.0,
                                      np.asarray(wires)[:, None])
        assert batched._block is not None and batched._pending_total == 2
        records = [
            _FOREIGN[kind](IngestRecord(res.start, source, res.seq, wire, res.arrival))
            for source, wire in enumerate(wires)
            for res in [scalar.reserve(source, 3 + source, 0.0, wire)]
        ]
        assert batch.start.ravel().tolist() == [r.post_time - 0.125 * (kind == "post") for r in records]
        rows = [(3 + source + (kind == "dest"), r) for source, r in enumerate(records) if r.wire_s > 0]
        landings = batched.ingest_batch_vec(
            [d for d, _ in rows], *(np.asarray([[r[f]] for _, r in rows]) for f in range(5))
        )
        assert landings.tolist() == [scalar.ingest(d, [r]) for d, r in rows]
        # Only "wire" leaves the two registered records their own keys.
        assert batched._pending_total == scalar._pending_total == (0 if kind == "wire" else 2)
        assert _books(batched) == _books(scalar)

    def test_a_batch_defers_only_when_nothing_can_evict(self):
        """The lane engages, and on the other side of its condition does not."""
        sources, dests = np.arange(3), np.asarray([[3, 4], [3, 5], [4, 5]])   # fan-in 2
        deferring, evicting = NicTimeline(pending_limit=2), NicTimeline(pending_limit=1)
        batch = deferring.reserve_batch(sources, dests, 0.0, 0.5)
        evicting.reserve_batch(sources, dests, 0.0, 0.5)
        assert deferring._block is not None and deferring._pending == {}
        assert deferring._pending_total == deferring.peak_pending == 6
        assert evicting._block is None and evicting._pending_total == 3
        # A second batch finds live records: the first settles, the second registers.
        deferring.reserve_batch(sources, dests, 4.0, 0.5)
        assert deferring._block is None and deferring._pending_total == 6
        # Fully consumed, a block leaves nothing behind — not even buckets.
        consumed = NicTimeline(pending_limit=2)
        batch = consumed.reserve_batch(sources, dests, 0.0, 0.5)
        rows, cols = np.asarray([[0, 1], [0, 2], [1, 2]]), np.asarray([[0, 0], [1, 0], [1, 1]])
        consumed.ingest_batch_vec(
            [3, 4, 5], batch.start[rows, cols], rows, batch.seq[rows, cols],
            batch.wire_s[rows, cols], batch.arrival[rows, cols],
        )
        assert consumed._block is None and consumed._pending == {}
        assert consumed._pending_total == 0 and consumed.peak_pending == 6


@st.composite
def interleaved_ops(draw):
    """A wraparound script: reserve/ingest interleaved on a tiny ring."""
    capacity = draw(st.integers(1, 4))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("reserve", "ingest")),
                st.integers(0, 3),      # source (or ignored)
                st.integers(4, 6),      # dest
                _SECONDS,               # ready
                st.sampled_from((0.25, 0.5, 1.0)),  # wire > 0
            ),
            min_size=1,
            max_size=24,
        )
    )
    return capacity, ops


class TestLedgerRingWraparound:
    @settings(max_examples=60, deadline=None)
    @given(interleaved_ops())
    def test_in_flight_and_peak_pending_survive_overwrite_append(self, case):
        """Satellite pin: a 1-4 slot ring under interleaved reserve/ingest.

        ``in_flight`` must agree with an independent bounded-window model
        (a deque of the last ``capacity`` rows) at every arrival edge, and
        the advisory pending books must stay internally consistent —
        ``peak_pending`` is the running max of the live total, which always
        equals the sum of the per-destination buckets.
        """
        capacity, ops = case
        nic = NicTimeline(ledger_limit=capacity, pending_limit=64)
        window = deque(maxlen=capacity)
        peak = 0
        outstanding = {}  # dest -> list of IngestRecords not yet committed
        for op, source, dest, ready, wire in ops:
            if op == "reserve":
                res = nic.reserve(source, dest, ready, wire, 32, ingest=True)
                window.append((source, res.start, res.arrival))
                outstanding.setdefault(dest, []).append(
                    IngestRecord(res.start, source, res.seq, wire, res.arrival)
                )
            else:
                records = outstanding.pop(dest, [])
                if records:
                    nic.ingest(dest, records)
            live = sum(len(bucket) for bucket in nic._pending.values())
            assert nic._pending_total == live
            peak = max(peak, live)
            assert nic.peak_pending == peak
            probes = {0.0, ready, *(row[2] for row in window)}
            for at in sorted(probes):
                expected = sum(1 for _, s0, a0 in window if s0 <= at < a0)
                assert nic.in_flight(at) == expected
                for src0 in range(4):
                    expected_src = sum(
                        1 for s, s0, a0 in window if s == src0 and s0 <= at < a0
                    )
                    assert nic.in_flight(at, source=src0) == expected_src


class TestBatchedBookingEndToEnd:
    def test_halo_driver_digests_identical(self):
        """The executor surface: batched == scalar on NIC fingerprint and
        per-rank priced clocks (now *and* event counts), flat and fat-tree,
        cached and eager."""
        model = PerformanceModel(measure_system(SUMMIT))
        for topology in (None, FABRIC_SPEC):
            for config in (CACHED_CONFIG, TempiConfig(plan_cache=False)):
                digests = []
                for booking in ("scalar", "batched"):
                    driver = HaloDriver(16, config, model,
                                        topology=topology, booking=booking)
                    for _ in range(3):
                        driver.round()
                    digests.append(driver.digest())
                assert digests[0] == digests[1], (topology, config)

    def test_fabric_halo_is_deterministic_at_benchmark_size(self):
        """Determinism where we benchmark (1024 ranks on the fat-tree, the
        ``fabric_pricing`` shape), not only where Hypothesis draws: batched
        == scalar on the digest, the fabric stall books and every message's
        stall seconds and landing, and the level schedule has the measured
        depth — 322 levels, the first eight holding 3281 of the 4096
        messages — so a change to the scheduling rule is seen here, not
        absorbed."""
        model = PerformanceModel(measure_system(SUMMIT))
        books = []
        for booking in ("scalar", "batched"):
            driver = HaloDriver(1024, CACHED_CONFIG, model,
                                topology=FABRIC_SPEC, booking=booking)
            stalls, landings = _record_messages(driver.nic)
            for _ in range(3):
                driver.round()
            books.append((driver.digest(), driver.nic.fabric_stalls,
                          driver.nic.fabric_stalled_s.hex(), driver.nic.ingest_stalls,
                          stalls, landings))
        assert books[0] == books[1]
        assert books[1][1] > 0
        assert any(float.fromhex(s) > 0 for s in books[1][4])
        plan = driver.nic._batch_shape[-1]
        widths = [hi - lo for lo, hi, _ in plan.levels]
        assert len(widths) == 322
        assert sum(widths) == 4096 and sum(widths[:8]) >= 3200

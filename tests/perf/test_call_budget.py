"""The warm point-to-point path on a call budget (ISSUES 18 and 21).

``calls_per_op`` of the ``halo_world`` benchmark workload is the noise-free
witness of per-message host overhead: Python and C function calls per
simulated wire message, counted by the benchmark's own ``CallCounter``
(``benchmarks/e2e/measure.py``, loaded from its file, never edited here).
The parent of PR 18 ran 354 calls per message on Python 3.11 and PR 18 left
205; PR 21 binds each halo message once (``Send_init``/``Recv_init``) and
restarts it every round, on a budget of 165.  This file keeps the path from
growing back:

* a per-message ceiling over warm rounds of the benchmark's own shape
  (8 ranks, ``HaloExchange(mode="overlap")``) — budget + 5 % for the
  interpreter's own differences (3.12, for one, inlines comprehensions);
* the same 26 messages posted as fresh ``Irecv``/``Isend`` every round (the
  shape ``apps/replay.py`` and ``apps/pipeline.py`` use) cost what they cost
  at PR 21's parent: a request that is never restarted pays nothing for the
  ones that are;
* an idle progress point is one attribute test, and a one-record ingest
  sorts nothing;
* the diet changed no counter: ``InterposerStats``, ``CacheStats``,
  ``PackerStats`` and ``NicTimeline`` of a 3-round world equal the values
  recorded at the parent commit before anything was deleted (rule (b));
* a warm TEMPI ``Pack`` and ``Unpack`` make an exact number of calls: the
  narrowing cast of a sub-word strided pack costs its one ``np.copyto``,
  and every other geometry pays nothing for it;
* a ``Pack`` of a new count makes an exact number of calls: its plan is laid
  out in one pass and priced by one call;
* a launch split across host cores (Fig. 8's 4 MiB object) costs at most
  10 calls more than unsplit on the launching thread and at most 4 on each
  helper thread;
* one TEMPI ``Type_commit`` makes an exact number of calls: canonicalising
  a flat list of stream rows instead of a recursive Type tree, translating
  in one loop over a per-class step table, storing the Type flat, one object
  per stage, and selecting no kernel (the launch layout chooses the word);
  so do the 22 commits of a warm ``datatype_pack`` round;
* building the 22 ``datatype_pack`` datatypes makes an exact number of
  calls: a plain ``int`` argument passes every constructor check with no
  call;
* ``tools/call_histogram.py --stages`` accounts for every call of a
  ``datatype_pack`` round, and ``docs/ARCHITECTURE.md`` § "Commit path"
  prints what it measures;
* one warm compile counts exactly: a typed ``Alltoallv`` builds, groups
  and sizes each section once, and an allreduce builds its rounds by comprehension and
  keeps its numpy dtype;
* one warm replayed p2p record costs each rank thread what it cost when
  the receiver hashed its buffer there: the digest update is queued to the
  kernels' helper by one ``put``;
* a warm ``ml_replay`` step stays under a per-plan ceiling, and the scalar
  lookups beside its pricing count exactly: a buffer's size and kind are
  slots, a rank is checked inline, and a flat-world wire price builds no
  ``MessageCost``; so do one warm flat ``NicTimeline.reserve`` and one
  lone-record ``ingest``: a cursor or pending bucket is probed with ``in``,
  a clamp is a comparison, and a record is built by one ``tuple.__new__``;
  and so does one ``MessageRouter.post``, which numbers no envelope and probes the
  waiting ranks with ``in``;
* one selection counts exactly: a memo hit reads the packer's
  ``block_length`` attribute and makes one probe of the resource cache's
  query memo with its books written inline, ``select_many`` is the
  same call, a miss asks ``choose_method``, which answers a repeat from the
  model's decision memo, and ``decide`` prices a new decision from only the
  two methods it compares;
* one run-token hand-off is one baton release and one baton acquire: an
  exact number of calls per ``MessageRouter.block`` entry;
* ``tools/call_histogram.py --workload replay --stages`` lists every stage
  of a wire message and of the plan around it, its rows sum to the total
  it prints, and ``--markdown`` prints the table ``docs/ARCHITECTURE.md``
  § "Scalar message path" carries (exact on 3.11), and its per-function
  table counts the same total over the same steps;
* one staging round trip — a keyless checkout through a
  ``_StagingTracker`` and its return — counts exactly: the pool is the
  cache's own, and the bucket the stage carries from compile is computed at
  neither end;
* ``tools/call_histogram.py --workload halo --stages`` charges a bound
  request's ``Start`` and every ``Wait`` rows of their own, its rows sum to
  the total it prints, and ``--markdown`` prints the halo table
  ``docs/ARCHITECTURE.md`` carries (exact on 3.11);
* ``tools/call_histogram.py --callers`` names the callers of a function;
* one warm round of the halo pricing driver counts exactly at 256 and 1024
  ranks, flat and on the fat-tree preset: batched booking makes fewer
  calls per message than scalar, and no more at 1024 ranks than at 256; a
  replayed template makes fewer calls than a recompile and prices the
  same; the NIC's ledger ring and pending peak stay at their bounds.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps.halo import DIRECTIONS, HaloSpec, negate
from repro.apps.replay import _pitched_datatype, _replay_p2p
from repro.apps.stencil import HaloExchange, direction_tag
from repro.bench.simthroughput import FABRIC_SPEC, HaloDriver
from repro.bench.workloads import fig7_configurations, fig8_configurations
from repro.gpu import kernels
from repro.gpu.memory import MemoryKind
from repro.machine.nic import IngestRecord, NicTimeline, ledger_sum, trace_default
from repro.mpi.constructors import Type_vector
from repro.mpi.p2p import Envelope, MessageRouter
from repro.mpi.datatype import BYTE, FLOAT
from repro.mpi.world import World
from repro.tempi.cache import ResourceCache, _StagingTracker, pool_bucket
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import TempiCommunicator, interpose

from tests.machine.test_nic import MessageLog

MEASURE = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "measure.py"
RANKS = 8
#: Calls per message of the warm rounds below, 94.0 on Python 3.11, plus 5 %.
#: While the router took its lock to post and match and the NIC its own to
#: book and ingest, they ran 99.4 (97.3 later).
#: With a NIC wire message booked and ingested through ``dict.get``, ``max``
#: and NamedTuple constructors, and posted through two helpers, they ran 150.1;
#: with the staging pool's bucket through ``_bucket`` and a stream's start
#: clamped by ``max``, 136.0; with every envelope numbered by ``next`` at its
#: post and every pending record's bucket taken by ``setdefault``, 128.0;
#: with a router post probing its waiters, the staging pool its bucket and a
#: persistent buffer its key by ``dict.get``, an ingest
#: dropping each record by ``pop`` and counting its stale prune by ``len``,
#: and a receive taking its envelope by ``pop``, 124.2; with the staging pool
#: a layer of its own behind the cache (its bucket computed at every checkout
#: and every return, a new bucket taken by ``setdefault``), every later
#: constituent of a coalesced batch drawing its seq under the NIC lock again,
#: and an envelope's size, a stream's ready time and a pack's plan read
#: through calls, 116.4.
CEILING = 98.7
#: Calls per message of :func:`_one_shot_rounds` at PR 21's parent (07d8f20),
#: Python 3.11: 137 624 calls over 3 rounds x 8 ranks x 26 messages.
ONE_SHOT_PARENT = 137_624 / 624


def _benchmark_call_counter():
    """``benchmarks/e2e/measure.py``'s ``CallCounter``: the benchmark's own count."""
    spec = importlib.util.spec_from_file_location("_e2e_measure", MEASURE)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CallCounter


CallCounter = _benchmark_call_counter()


def _halo_world(model, mode: str = "overlap"):
    world = World(RANKS, ranks_per_node=2)
    exchanges = [
        HaloExchange(ctx, interpose(ctx, TempiConfig(), model=model), HaloSpec(), mode=mode)
        for ctx in world.contexts
    ]

    def rounds(ctx, count: int) -> None:
        for _ in range(count):
            exchanges[ctx.rank].exchange()

    return world, exchanges, rounds


def test_warm_halo_message_stays_under_the_call_ceiling(summit_model):
    world, _, rounds = _halo_world(summit_model)
    world.run(rounds, 3)  # caches warm, every plan shape and pack plan seen
    with CallCounter() as counter:
        world.run(rounds, 3)
    per_message = counter.calls / (3 * RANKS * len(DIRECTIONS))
    assert per_message <= CEILING, (
        f"{per_message:.1f} Python/C calls per halo message, ceiling {CEILING}: "
        f"run tools/call_histogram.py --workload halo to see which layer grew"
    )


def _one_shot_rounds(exchanges):
    """The overlap exchange spelled with requests nothing ever restarts."""

    def rounds(ctx, count: int) -> None:
        exchange = exchanges[ctx.rank]
        comm, local, grid, rank = exchange.comm, exchange.local, exchange.grid, ctx.rank
        for _ in range(count):
            comm.Barrier()
            requests = []
            for d in DIRECTIONS:
                spec = (local, 1, exchange.recv_types[d])
                requests.append(comm.Irecv(spec, grid.neighbor(rank, d), direction_tag(negate(d))))
            for d in DIRECTIONS:
                spec = (local, 1, exchange.send_types[d])
                requests.append(comm.Isend(spec, grid.neighbor(rank, d), direction_tag(d)))
            for request in requests:
                request.Wait()
            comm.Barrier()

    return rounds


def test_one_shot_messages_cost_what_they_cost_at_the_parent(summit_model):
    # mode="neighbor": the same datatypes and grid, no persistent requests bound.
    world, exchanges, _ = _halo_world(summit_model, mode="neighbor")
    rounds = _one_shot_rounds(exchanges)
    world.run(rounds, 3)
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        with CallCounter() as counter:
            world.run(rounds, 3)
    finally:
        gc.enable()
    per_message = counter.calls / (3 * RANKS * len(DIRECTIONS))
    # Exact on the interpreter the parent's count was taken on; elsewhere the
    # same 5 % the ceiling above allows.
    slack = 1.0 if sys.version_info[:2] == (3, 11) else 1.05
    assert per_message <= ONE_SHOT_PARENT * slack, (
        f"{counter.calls} calls ({per_message:.3f} per message) for one-shot "
        f"Irecv/Isend/Wait; the parent ran {ONE_SHOT_PARENT:.3f}"
    )


def test_idle_progress_point_is_free(summit_model):
    world, exchanges, _ = _halo_world(summit_model)
    engine = exchanges[0].comm.progress_engine
    assert engine.pending_sends() == 0
    with CallCounter() as empty:
        pass
    with CallCounter() as counter:
        engine.progress()
    # The parent made three: progress(), flush() and its key list.
    assert counter.calls - empty.calls <= 2


def test_one_record_ingest_never_sorts(monkeypatch):
    import builtins

    def no_sort(*args, **kwargs):
        raise AssertionError("a one-record ingest must not sort")

    nic = NicTimeline()
    reservation = nic.reserve(0, 1, 0.0, 2e-6, 64)
    record = IngestRecord(reservation.start, 0, reservation.seq, 2e-6, reservation.arrival)
    monkeypatch.setattr(builtins, "sorted", no_sort)
    assert nic.ingest(1, [record]) == [reservation.arrival]
    assert nic.pending_ingest(1) == 0


# --------------------------------------------------------------------------- #
# Counters recorded at the parent commit (67121b3), before the diet.
# --------------------------------------------------------------------------- #

def _snapshot(world, exchanges, log) -> dict:
    """Every counter the warm path touches, summed over ranks.

    The NIC's stall seconds are the left folds of ``log``'s waits in event
    order, the order the timeline once summed them in itself, and
    ``messages`` digests every message's stall seconds and landing.
    """

    def total(rows: list[dict]) -> dict:
        return {key: sum(row[key] for row in rows) for key in rows[0]}

    interposer = []
    for exchange in exchanges:
        row = dataclasses.asdict(exchange.comm.stats)
        row.update({f"method_{name}": hits for name, hits in row.pop("method_counts").items()})
        interposer.append(row)
    packers = [
        dataclasses.asdict(datatype.attachment.packer.stats)
        for exchange in exchanges
        for types in (exchange.send_types, exchange.recv_types)
        for datatype in types.values()
    ]
    nic = world.nic
    return {
        "interposer": total(interposer),
        "cache": total([dataclasses.asdict(exchange.comm.tempi.cache.stats) for exchange in exchanges]),
        "packer": total(packers),
        "nic": {
            "reservations": nic.reservations,
            "stalls": nic.stalls,
            "stalled_s": ledger_sum(log.stalls).hex(),
            "ingests": nic.ingests,
            "ingest_stalls": nic.ingest_stalls,
            "ingest_stalled_s": ledger_sum(log.ingest_stalls).hex(),
            "fabric_stalls": nic.fabric_stalls,
            "peak_pending": nic.peak_pending,
            "ledger_len": nic.ledger_len(),
        },
        "messages": hashlib.sha256(repr(sorted(log.per_rank.items())).encode()).hexdigest(),
        "clocks": [clock.hex() for clock in world.clocks],
    }


PARENT_SNAPSHOT = {
    "interposer": {
        "commits": 416, "accelerated_commits": 416, "packs": 0, "sends": 624, "recvs": 624,
        "fallbacks": 0, "collective_hits": 0, "collective_fallbacks": 0, "plans_built": 1248,
        "stages_overlapped": 624, "deferred_unpacks": 624, "batched_plans": 480,
        "contention_stalls": 192, "ingest_stalls": 528, "plan_cache_hits": 0,
        "plan_cache_misses": 0, "selection_memo_hits": 1208, "selection_memo_misses": 40,
        "method_oneshot": 1248,
    },
    "cache": {
        "buffer_hits": 1064, "buffer_misses": 184, "stream_hits": 616, "stream_misses": 8,
        "query_hits": 1208, "query_misses": 40, "persistent_hits": 0, "persistent_misses": 0,
    },
    "packer": {
        "packs": 624, "unpacks": 624, "bytes_packed": 10063872, "bytes_unpacked": 10063872,
    },
    "nic": {
        "reservations": 240, "stalls": 192, "stalled_s": "0x1.93d8e53667cc2p-4",
        "ingests": 624, "ingest_stalls": 528, "ingest_stalled_s": "0x1.4127f3f9874a9p-4",
        "fabric_stalls": 0, "peak_pending": 75, "ledger_len": 240,
    },
    #: Every message's stall seconds and landing, per rank, as the parent
    #: of the change that deleted the timeline's stall-seconds sums priced them.
    "messages": "7b7a537536276a1de08835146c9394582fff457d2703c3f79a4c4244d549e09a",
    "clocks": ["0x1.d11f70f4fc023p-8"] * RANKS,
}


def test_three_round_halo_world_counts_what_the_parent_counted(summit_model):
    log = MessageLog()
    with trace_default(log):
        world, exchanges, rounds = _halo_world(summit_model)
    world.run(rounds, 3)
    assert _snapshot(world, exchanges, log) == PARENT_SNAPSHOT


# --------------------------------------------------------------------------- #
# A warm TEMPI Pack/Unpack, with and without the narrowing cast.
# --------------------------------------------------------------------------- #

#: Exact calls of one warm ``(Pack, Unpack)`` on Python 3.11.  Before the
#: narrowing cast both objects counted (31, 31).  The non-cell object
#: ("vec 1KiB 1/8": 8-byte runs at a 512-byte pitch) still counts the same
#: as a plain pack; the cell object (64 Ki one-byte runs at a 2-byte pitch,
#: count 2) adds the one ``np.copyto`` to its pack.  With a buffer's size
#: and kind read from slots instead of properties, (31, 31) and (32, 31)
#: became (26, 26) and (27, 26); a stream that clamps its start with a
#: comparison instead of ``max`` made them (25, 25) and (26, 25); a plan
#: probed with ``in`` instead of ``dict.get`` left these.
WARM_PACK_CALLS = {"vec 1KiB 1/8": (24, 24), "cell": (25, 24)}


def _warm_pack_unpack_calls(model, datatype, count: int) -> tuple[int, int]:
    ctx = World(1).contexts[0]
    comm = interpose(ctx, TempiConfig(), model=model)
    datatype = comm.Type_commit(datatype)
    user = ctx.gpu.malloc(count * datatype.extent)
    packed = ctx.gpu.malloc(count * datatype.size)
    target = ctx.gpu.malloc(count * datatype.extent)
    comm.Pack((user, count, datatype), packed, 0)  # plans the launch
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        with CallCounter() as empty:
            pass
        with CallCounter() as pack:
            comm.Pack((user, count, datatype), packed, 0)
        with CallCounter() as unpack:
            comm.Unpack(packed, 0, (target, count, datatype))
    finally:
        gc.enable()
    return pack.calls - empty.calls, unpack.calls - empty.calls


@pytest.mark.parametrize("label", sorted(WARM_PACK_CALLS))
def test_warm_pack_and_unpack_count_their_calls(label, summit_model):
    if label == "cell":
        datatype, count = Type_vector(64 * 1024, 1, 2, BYTE), 2
        assert kernels.strided_layout(0, [1, 64 * 1024], [1, 2], 2, datatype.extent).cell == 2
    else:
        config = next(c for c in fig8_configurations() if c.label == label)
        datatype, count = config.build(), config.count
    calls = _warm_pack_unpack_calls(summit_model, datatype, count)
    expected = WARM_PACK_CALLS[label]
    if sys.version_info[:2] == (3, 11):
        assert calls == expected
    else:
        assert all(got <= want * 1.05 for got, want in zip(calls, expected)), (calls, expected)


#: Exact calls on Python 3.11 of one TEMPI ``Pack`` of a count the packer has
#: not planned (``ml_replay``'s pitched datatype, count 3, on a fresh
#: runtime's cost model) and of the warm ``Pack`` after it: the cold one is a
#: warm one plus one plan, laid out in one pass and priced by one
#: ``kernel_times`` call (one helper call per target).  Through ``packed_size`` → ``_memcpyable`` →
#: ``is_contiguous`` → ``ndims`` → ``required_input``, ``required_extent``,
#: ``packed_size`` and four ``kernel_time`` → ``coalescing_efficiency``
#: calls they counted (63, 26), and (37, 25) with the plan probed by
#: ``dict.get``.
COLD_PACK_CALLS = (36, 24)


def test_a_cold_pack_plans_in_one_pass(summit_model):
    ctx = World(1).contexts[0]
    comm = interpose(ctx, TempiConfig(), model=summit_model)
    datatype = comm.Type_commit(_pitched_datatype(2048, 64))
    user = ctx.gpu.malloc(3 * datatype.extent)
    packed = ctx.gpu.malloc(3 * datatype.size)
    comm.Pack((user, 1, datatype), packed, 0)  # first-use imports, the block's sizes
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        with CallCounter() as empty:
            pass
        with CallCounter() as cold:
            comm.Pack((user, 3, datatype), packed, 0)
        with CallCounter() as warm:
            comm.Pack((user, 3, datatype), packed, 0)
    finally:
        gc.enable()
    calls = cold.calls - empty.calls, warm.calls - empty.calls
    assert TempiCommunicator.handler_of(datatype).packer._plans.keys() == {1, 3}
    if sys.version_info[:2] == (3, 11):
        assert calls == COLD_PACK_CALLS
    else:
        assert all(got <= want + 1 for got, want in zip(calls, COLD_PACK_CALLS)), calls


# --------------------------------------------------------------------------- #
# A split launch: Fig. 8's 4 MiB object on two cores.
# --------------------------------------------------------------------------- #

#: Exact calls of one warm ``(Pack, Unpack)`` of "vec 4MiB 2/1" (4 Mi one-byte
#: runs at a 2-byte pitch, count 2: 8 Mi elements, over the split threshold)
#: on Python 3.11 and a 2-core host, per thread.  Unsplit it would count what
#: the cell object above counts, (25, 24).  Buffer properties counted
#: (39, 38) on the caller, a stream's ``max`` (34, 33), and a plan probed by
#: ``dict.get`` (33, 32).
SPLIT_PACK_CALLS = {"caller": (32, 31), "helper": (3, 2)}
#: Budget per split launch: extra calls on the launching thread over the
#: unsplit launch, and calls on each helper.
SPLIT_CALLER_EXTRA, SPLIT_HELPER_CALLS = 10, 4


def test_split_pack_and_unpack_count_every_thread(summit_model, host_cores):
    kernels = host_cores(2)
    config = next(c for c in fig8_configurations() if c.label == "vec 4MiB 2/1")
    ctx = World(1).contexts[0]
    comm = interpose(ctx, TempiConfig(), model=summit_model)
    datatype = comm.Type_commit(config.build())
    count = config.count
    user = ctx.gpu.malloc(count * datatype.extent)
    packed = ctx.gpu.malloc(count * datatype.size)
    target = ctx.gpu.malloc(count * datatype.extent)
    user.data[:] = np.random.default_rng(0).integers(0, 256, user.nbytes, dtype=np.uint8)
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        # ``CallCounter`` counts only threads started while it is active, so
        # the helper starts in here, at the first (planning) Pack.  Each
        # thread counts into its own cell; the launching thread's is first.
        with CallCounter() as counter:

            def tally() -> list[int]:
                return [cell[0] for cell in counter._cells]

            comm.Pack((user, count, datatype), packed, 0)
            warm = tally()
            ready = tally()
            comm.Pack((user, count, datatype), packed, 0)
            after_pack = tally()
            comm.Unpack(packed, 0, (target, count, datatype))
            after_unpack = tally()
    finally:
        gc.enable()
    assert len(kernels._helpers) == 1 and len(warm) == 2
    itself = [b - a for a, b in zip(warm, ready)]  # what a tally counts
    pack = [b - a - t for a, b, t in zip(ready, after_pack, itself)]
    unpack = [b - a - t for a, b, t in zip(after_pack, after_unpack, itself)]
    caller, helper = (pack[0], unpack[0]), (pack[1], unpack[1])
    assert caller[0] - WARM_PACK_CALLS["cell"][0] <= SPLIT_CALLER_EXTRA
    assert caller[1] - WARM_PACK_CALLS["cell"][1] <= SPLIT_CALLER_EXTRA
    assert max(helper) <= SPLIT_HELPER_CALLS
    if sys.version_info[:2] == (3, 11):
        assert {"caller": caller, "helper": helper} == SPLIT_PACK_CALLS
    objects = (0, datatype.extent)
    runs = np.concatenate([user.data[first : first + datatype.extent : 2] for first in objects])
    assert np.array_equal(packed.data, runs)
    assert np.array_equal(
        np.concatenate([target.data[first : first + datatype.extent : 2] for first in objects]), runs
    )


# --------------------------------------------------------------------------- #
# One TEMPI commit: translate → simplify → to_strided_block → Packer.
# --------------------------------------------------------------------------- #

#: Exact calls of one ``Type_commit`` on Python 3.11, the counter's own exit
#: calls excluded.  The recursive canonicaliser counted (288, 335, 188),
#: canonicalising one flat list of stream rows (111, 124, 94), the
#: step-table translator with kernel selection free of property calls
#: (83, 92, 70), and a Type stored flat, made once per stage, (50, 50, 45);
#: a Packer that selects no kernel left these.
COMMIT_CALLS = {"fig7 0:subarray": 36, "fig7 6:hvector(hvector(vector))": 36, "replay pitched": 33}


def _commit_builders() -> dict:
    fig7 = {config.label: config.build for config in fig7_configurations()}
    return {
        "fig7 0:subarray": fig7["0:subarray"],
        "fig7 6:hvector(hvector(vector))": fig7["6:hvector(hvector(vector))"],
        "replay pitched": lambda: _pitched_datatype(2048, 64),
    }


@pytest.mark.parametrize("label", sorted(COMMIT_CALLS))
def test_commit_counts_its_calls(label, summit_model):
    build = _commit_builders()[label]
    comm = interpose(World(1).contexts[0], TempiConfig(), model=summit_model)
    comm.Type_commit(build())  # first-use imports and caches
    datatype = build()
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        with CallCounter() as empty:
            pass
        with CallCounter() as commit:
            comm.Type_commit(datatype)
    finally:
        gc.enable()
    calls = commit.calls - empty.calls
    assert TempiCommunicator.handler_of(datatype).accelerated
    if sys.version_info[:2] == (3, 11):
        assert calls == COMMIT_CALLS[label]
    else:
        assert calls <= COMMIT_CALLS[label] * 1.05, (calls, COMMIT_CALLS[label])


# --------------------------------------------------------------------------- #
# Building datatype_pack's datatypes, and its round by stage.
# --------------------------------------------------------------------------- #

#: Exact calls of building the 22 Fig. 7 and Fig. 8 datatypes ``datatype_pack``
#: commits each round, on Python 3.11, the counter's own exit calls excluded.
#: Constructor checks that cost a call per argument counted 716.
BUILD_CALLS = 527
TOOLS, E2E = MEASURE.parents[2] / "tools", MEASURE.parent


def test_building_the_pack_datatypes_counts_its_calls():
    builders = [config.build for config in fig7_configurations()]
    builders += [config.build for config in fig8_configurations()]
    for build in builders:
        build()  # first-use imports and caches
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        with CallCounter() as empty:
            pass
        with CallCounter() as counter:
            for build in builders:
                build()
    finally:
        gc.enable()
    calls = counter.calls - empty.calls
    if sys.version_info[:2] == (3, 11):
        assert calls == BUILD_CALLS
    else:
        assert calls <= BUILD_CALLS * 1.05, (calls, BUILD_CALLS)


def _load(path: Path, name: str):
    """A module from its file, leaving ``sys.path`` as it found it."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        assert spec is not None and spec.loader is not None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def _warm_pack_workload(model):
    workload = _load(E2E / "workloads.py", "_e2e_workloads").DatatypePack(model, seed=1)
    workload.block(workload.warmup_rounds)
    return workload


def test_stage_rows_sum_to_the_round_total(summit_model):
    histogram = _load(TOOLS / "call_histogram.py", "_call_histogram")
    workload = _warm_pack_workload(summit_model)
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        stages = histogram.stage_calls(workload)
        with CallCounter() as empty:
            pass
        with CallCounter() as counter:
            workload.block(1)
    finally:
        gc.enable()
    assert sorted(stages) == sorted(histogram.STAGES)
    # The counter also counts the ``block`` call itself, which no stage owns.
    assert sum(stages.values()) == counter.calls - empty.calls - 1
    assert workload.failed_ops == 0


#: Exact calls of the 22 commits of one warm ``datatype_pack`` round on Python
#: 3.11, building the datatypes excluded.  Linked Type levels counted 1 753,
#: and kernel selection 1 054.
PACK_ROUND_COMMIT_CALLS = 770


def test_a_pack_rounds_commits_count_their_calls(summit_model):
    workload = _warm_pack_workload(summit_model)
    datatypes = [build() for build in workload.builders]
    commit = workload.comm.Type_commit
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        with CallCounter() as empty:
            pass
        with CallCounter() as counter:
            for datatype in datatypes:
                commit(datatype)
    finally:
        gc.enable()
    calls = counter.calls - empty.calls
    assert len(datatypes) == 22
    if sys.version_info[:2] == (3, 11):
        assert calls == PACK_ROUND_COMMIT_CALLS
    else:
        assert calls <= PACK_ROUND_COMMIT_CALLS * 1.05, (calls, PACK_ROUND_COMMIT_CALLS)


#: Row label of ``docs/ARCHITECTURE.md`` § "Commit path" -> its stage in
#: ``tools/call_histogram.py``; the "22 commits" and "round" rows are sums.
DOC_STAGES = {
    "simplify": "simplify",
    "Packer": "Packer",
    "to_strided_block": "to_strided_block",
    "translate": "translate",
    "rest of Type_commit": "rest of Type_commit",
    "building the 22 datatypes": "building",
    "14 Pack/Unpack": "Pack/Unpack",
    "round loop": "round loop",
}


def _commit_path_table() -> dict[str, int]:
    """Row label -> the newest (rightmost) column of § "Commit path"'s table."""
    text = (MEASURE.parents[2] / "docs" / "ARCHITECTURE.md").read_text()
    section = text.split("\n## Commit path\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip().strip("*").replace("`", "") for cell in line.strip("|").split("|")]
        if line.startswith("|") and cells[-1].replace(" ", "").isdigit():
            table[cells[0]] = int(cells[-1].replace(" ", ""))
    return table


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the table is measured on Python 3.11")
def test_the_commit_path_table_is_what_the_histogram_measures(summit_model):
    histogram = _load(TOOLS / "call_histogram.py", "_call_histogram")
    workload = _warm_pack_workload(summit_model)
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        stages = histogram.stage_calls(workload)
    finally:
        gc.enable()
    measured = {label: stages[stage] for label, stage in DOC_STAGES.items()}
    measured["22 commits"] = sum(stages[stage] for stage in histogram.COMMIT_STAGES)
    measured["round"] = sum(stages.values())
    assert _commit_path_table() == measured


# --------------------------------------------------------------------------- #
# The scalar message path of a cache-cold replay step.
# --------------------------------------------------------------------------- #

#: ``ml_replay``'s first counted step (seed 1, after the benchmark's two
#: warm-up steps, on a fresh model) counted 27 673 calls over 88 executed
#: plans, 314.5 per plan, on Python 3.11; this is that plus 5 %.  The run
#: token fixes the threaded world's schedule, so on one interpreter the count
#: repeats exactly run to run; a ceiling, not an exact count, as for the
#: halo, leaves room for other interpreters.  Buffer facts read through properties, rank checks per lookup and
#: a ``MessageCost`` built per priced message counted 675.1; the NIC's scalar
#: rules through ``dict.get``, ``max`` and NamedTuple constructors, and an
#: allreduce pricing every round's chunk again, counted 547.9; a
#: ``Condition`` per rank for the run token, selection through the memo's
#: call chain and a section check through ``_check_committed`` and ``ub``
#: counted 474.2; a cold pack planned through ``packed_size`` →
#: ``_memcpyable`` → ``is_contiguous`` and priced by four ``kernel_time``
#: calls, and staging buckets through ``_bucket``, counted 425.9; a compile
#: that built and sized each section twice, called ``staging_kind`` per
#: stage and built a ring by ``append``, counted 391.2; an allreduce round
#: that read its accumulator's ``Buffer.data`` twice and viewed each folded
#: chunk again, envelopes numbered by ``next``, pending buckets taken by
#: ``setdefault``, each collective section built twice and selection through
#: the ``block_length`` property counted 368.4; a selection miss deciding
#: through six probes of the model although the model had made that decision
#: for an earlier world, a wire message's cursors read by ``dict.get`` and
#: its ingested record dropped by ``pop``, and the staging pool, persistent
#: buffers and method counts read by ``dict.get``, counted 348.2; the staging
#: pool behind two layers and its bucket computed at both ends, an
#: envelope's size, a stream's ready time and a pack's plan read through
#: calls, counted 325.3; that and a typed ``Alltoallv`` whose counts and
#: displacements the replay built peer by peer in Python lists, 318.2, and
#: after later diets 316.1 (ceiling 330.2, from 314.5 and then 313.8); with
#: the router taking its lock to post and match and the NIC its own to book
#: and ingest, four lock exits per wire message, 313.8; with a strided
#: block's payload bytes and extent read through ``functools.cached_property``
#: (an ``RLock`` and four more calls at each new block's first read), 301.3
#: (ceiling 316.4).  Now 296.6.
REPLAY_CEILING = 311.4


def test_a_warm_replay_step_stays_under_its_ceiling(summit_model):
    workload = _load(E2E / "workloads.py", "_e2e_workloads").MlReplay(summit_model, seed=1)
    workload.block(workload.warmup_rounds)
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        with CallCounter() as counter:
            plans = workload.block(1)
    finally:
        gc.enable()
    assert workload.failed_ops == 0 and plans > 0
    per_plan = counter.calls / plans
    assert per_plan <= REPLAY_CEILING, (
        f"{per_plan:.1f} Python/C calls per executed replay plan, ceiling {REPLAY_CEILING}: "
        f"run tools/call_histogram.py --workload replay to see which layer grew"
    )


def test_the_token_holder_posts_matches_and_books_without_a_lock(summit_model):
    """Over a warm ``ml_replay`` step no lock exit is charged to
    ``MessageRouter.post`` or ``NicTimeline.reserve``/``ingest``, and
    ``receive`` takes the router's lock once per receive that waits (one per
    ``block`` it calls), never for one that matches at once: only the
    run-token holder runs, so only the hand-off needs the lock."""
    histogram = _load(TOOLS / "call_histogram.py", "_call_histogram")
    workload = _load(E2E / "workloads.py", "_e2e_workloads").MlReplay(summit_model, seed=1)
    workload.block(workload.warmup_rounds)
    plans, stats = histogram.profile_threads(functools.partial(workload.block, 1))
    assert workload.failed_ops == 0 and plans > 0

    def entry(file: str, name: str):
        (key,) = [key for key in stats.stats if key[0].endswith(file) and key[2] == name]
        return stats.stats[key]

    def callers(file: str, name: str) -> dict[tuple[str, str], int]:
        return {(Path(path).name, caller): calls
                for (path, _, caller), (calls, *_) in entry(file, name)[4].items()}

    exits = callers("~", "<method '__exit__' of '_thread.lock' objects>")
    assert not {("p2p.py", "post"), ("nic.py", "reserve"), ("nic.py", "ingest")} & set(exits)
    waits = callers("p2p.py", "block")[("p2p.py", "receive")]
    receives = entry("p2p.py", "receive")[1]
    assert exits[("p2p.py", "receive")] == waits < receives


#: Exact calls on Python 3.11 of the second and third ``_replay_p2p`` of one
#: edge of four pitched items (2 048 + 64 bytes) from rank 0 to rank 1, on
#: each rank thread, the counter's own exit calls included.  At the parent,
#: where rank 1 hashed its receive buffer with ``digest.update`` on its own
#: thread, they counted the same: the one ``put`` that queues the update to
#: the kernels' helper replaced it.  While the router took its lock to post
#: and match and the NIC its own to book and ingest, they counted (158, 158)
#: and (143, 141), and (156, 156) and (141, 139) while each record's new
#: strided block sized its payload and extent through
#: ``functools.cached_property`` at the pack plan.
P2P_RECORD_CALLS = {"sender": (146, 146), "receiver": (131, 129)}


def test_a_replayed_p2p_record_costs_the_parents_calls(summit_model, host_cores):
    kernels = host_cores(2)
    jobs = kernels.digest_jobs()  # starts the helper outside the counted region
    record = {"op": "p2p", "edges": [[0, 1, 4]], "item_bytes": 2048, "item_pad": 64}
    counts: dict[int, list[int]] = {0: [], 1: []}

    def program(ctx) -> None:
        comm = interpose(ctx, TempiConfig(), model=summit_model)
        digest = hashlib.sha256()
        _replay_p2p(ctx, comm, record, 0, jobs.put, digest)  # the cold record
        for index in (1, 2):
            # ``CallCounter`` counts this thread alone: no thread starts in here.
            with CallCounter() as counter:
                _replay_p2p(ctx, comm, record, index, jobs.put, digest)
            counts[ctx.rank].append(counter.calls)

    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        World(2).run(program)
    finally:
        gc.enable()
        kernels.drain_digests(jobs)
    measured = {"sender": tuple(counts[0]), "receiver": tuple(counts[1])}
    assert min(counts[0] + counts[1]) > 0
    if sys.version_info[:2] == (3, 11):
        assert measured == P2P_RECORD_CALLS


# --------------------------------------------------------------------------- #
# One compile: a typed alltoallv, and a ring and a tree allreduce.
# --------------------------------------------------------------------------- #

#: Exact calls on Python 3.11 of one warm compile at 8 ranks, the counter's
#: own exit calls and the selections' own calls included: rank 0's typed
#: ``_compile_collective`` of an ``Alltoallv`` of ``ml_replay``'s pitched
#: datatype with 1..8 objects per peer (16 sections, 14 on the wire), and
#: rank 3's ``_compile_allreduce`` of 1 001 floats under each schedule.  At
#: the parent they counted 365, 72 and 40 (``ml_replay``'s census measured
#: 341 and 61.4 calls per entry of the two compiles, selection excluded):
#: each section was built as a ``TypedSection``, then as a ``PlanSection``
#: with one handler appended per section, grouped by ``setdefault`` and sized
#: twice through ``PlanSection.packed_bytes`` and ``sum(genexpr)`` per peer;
#: each stage called ``staging_kind``; the method tally went through
#: ``method_counts()`` and ``PackMethod.value``; a ring built its chunks and
#: rounds by ``append``; and ``dtype.name`` ran numpy's name chain, which the
#: executor turned back into a dtype.  The alltoallv then counted 200 while
#: each section was still built as a ``TypedSection`` (its constructor,
#: ``check`` and an ``append``) before its ``PlanSection``, and each run's
#: handler was tested through the ``accelerated`` property.
COMPILE_CALLS = {"alltoallv": 164, "ring allreduce": 42, "tree allreduce": 30}


def _compile_probe(label: str, model):
    world = World(RANKS)
    if label == "alltoallv":
        ctx = world.contexts[0]
        comm = interpose(ctx, TempiConfig(), model=model)
        datatype = comm.Type_commit(_pitched_datatype(2048, 64))
        counts = [1 + peer for peer in range(RANKS)]
        displs = [sum(counts[:peer]) * datatype.extent for peer in range(RANKS)]
        send = ctx.gpu.malloc(sum(counts) * datatype.extent)
        recv = ctx.gpu.malloc(sum(counts) * datatype.extent)
        args = (
            "alltoallv", list(range(RANKS)), send, counts, displs, datatype,
            recv, counts, displs, datatype,
        )
        return lambda: comm._compile_collective(*args, nonblocking=False)
    ctx = world.contexts[3]
    algorithm = label.split()[0]
    comm = interpose(ctx, TempiConfig(allreduce_algorithm=algorithm), model=model)
    send, recv = ctx.gpu.malloc(1001 * 4), ctx.gpu.malloc(1001 * 4)
    return lambda: comm._compile_allreduce((send, 1001, FLOAT), (recv, 1001, FLOAT), "sum", nonblocking=False)


@pytest.mark.parametrize("label", sorted(COMPILE_CALLS))
def test_a_compile_counts_its_calls(label, summit_model):
    probe = _compile_probe(label, summit_model)
    probe()  # the selection memo and the packer's sizes are warm
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        with CallCounter() as empty:
            pass
        with CallCounter() as counter:
            plan = probe()
    finally:
        gc.enable()
    calls = counter.calls - empty.calls
    if label == "alltoallv":
        plan = plan[0]
        assert [stage.peer for stage in plan.pack_stages] == list(range(1, RANKS))
    else:
        assert len(plan.reduce_stages) == (14 if label.startswith("ring") else 2)
    if sys.version_info[:2] == (3, 11):
        assert calls == COMPILE_CALLS[label]
    else:
        assert calls <= COMPILE_CALLS[label] * 1.05, (calls, COMPILE_CALLS[label])


#: Exact calls on Python 3.11, the counter's own exit calls excluded: one
#: flat-world ``_message_time`` (itself, ``same_node``, ``message_time``),
#: one ``same_node`` and two slot reads, which counted 14, 5 and 2; one warm
#: flat ``NicTimeline.reserve`` (duplex, no path, no sink) and one
#: lone-record ``ingest``, which counted 15 and 13 through ``dict.get``,
#: ``max`` and NamedTuple constructors, and the reserve 9 while its pending
#: record took its bucket by ``setdefault``, and the ingest 9 while it
#: dropped its record by ``pop`` and 8 while it counted its stale prune by
#: ``len``; one
#: ``MessageRouter.post`` to a rank that is not waiting, which counted 5 while
#: it numbered each envelope by ``next``, and 4 while it probed the waiting
#: ranks by ``dict.get``.  While each of the three took a lock (its exit a
#: call), the reserve counted 8, the ingest 7 and the post 3.
SCALAR_CALLS = {
    "_message_time": 3, "same_node": 1, "nbytes and is_device": 0,
    "NicTimeline.reserve": 7, "NicTimeline.ingest": 6, "MessageRouter.post": 2,
}


def _scalar_calls(label: str) -> int:
    comm = World(8, ranks_per_node=2).contexts[0].comm
    topology = comm.topology
    buffer = comm.gpu.malloc(64).view(8)
    assert topology is not None and not topology.hierarchical
    nic = NicTimeline()
    nic.reserve(0, 1, 0.0, 2e-6, 64)  # the port, link and seq cursors exist
    reservation = nic.reserve(0, 1, 0.0, 2e-6, 64)
    record = IngestRecord(reservation.start, 0, reservation.seq, 2e-6, reservation.arrival)
    router = MessageRouter(2)
    envelope = Envelope(
        source=0, dest=1, tag=0, context=0, payload=np.zeros(1, dtype=np.uint8),
        available_at=0.0, device=False,
    )
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        with CallCounter() as empty:
            pass
        with CallCounter() as counter:
            if label == "_message_time":
                comm._message_time(4096, 5, True)
            elif label == "same_node":
                topology.same_node(0, 5)
            elif label == "NicTimeline.reserve":
                nic.reserve(0, 1, 0.0, 2e-6, 64)
            elif label == "NicTimeline.ingest":
                nic.ingest(1, [record])
            elif label == "MessageRouter.post":
                router.post(envelope)
            else:
                _ = buffer.nbytes, buffer.is_device
    finally:
        gc.enable()
    return counter.calls - empty.calls


@pytest.mark.parametrize("label", sorted(SCALAR_CALLS))
def test_scalar_lookups_count_their_calls(label):
    calls = _scalar_calls(label)
    if sys.version_info[:2] == (3, 11):
        assert calls == SCALAR_CALLS[label]
    else:
        assert calls <= SCALAR_CALLS[label] + 1, (calls, SCALAR_CALLS[label])


#: Exact calls on Python 3.11 of one warm staging round trip, the counter's
#: own exit calls excluded: a keyless ``_StagingTracker.get`` (itself,
#: ``ResourceCache.get_buffer`` and its ``pop``, the tracker's ``append``)
#: and its ``release`` (itself, ``put_buffer`` and its ``append``), with the
#: bucket the stage carries.  With the pool a layer of its own
#: (``MemoryPool.acquire``/``release``) that computed the bucket at both ends
#: and took a new bucket by ``setdefault``, it counted 12.
STAGING_CALLS = 7


def test_a_staging_round_trip_counts_its_calls(summit_runtime):
    cache = ResourceCache(summit_runtime)
    staging = _StagingTracker(cache)
    nbytes, kind = 5000, MemoryKind.HOST_MAPPED
    bucket = pool_bucket(nbytes)
    staging.get(None, nbytes, kind, bucket)  # the miss allocates ...
    staging.release()  # ... and the bucket holds the buffer from here on
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        with CallCounter() as empty:
            pass
        with CallCounter() as counter:
            staging.get(None, nbytes, kind, bucket)
            staging.release()
    finally:
        gc.enable()
    assert (cache.stats.buffer_hits, cache.stats.buffer_misses) == (1, 1)
    assert len(cache) == 1
    calls = counter.calls - empty.calls
    if sys.version_info[:2] == (3, 11):
        assert calls == STAGING_CALLS
    else:
        assert calls <= STAGING_CALLS + 1, (calls, STAGING_CALLS)


# --------------------------------------------------------------------------- #
# One selection, and one run-token hand-off.
# --------------------------------------------------------------------------- #

#: Exact calls on Python 3.11 of one selection, counting the one call of the
#: probe that makes it: a warm ``ModelSelector`` hit, the same hit through
#: ``select_many``, a miss whose decision the model has made already,
#: ``choose_method`` of a decision it has made (a decision-memo hit), and
#: ``decide``, the comparison alone, on a warm probe memo (a new decision is
#: ``choose_method``'s frame around it).  Through
#: ``_memoize``, ``_note_memo`` and ``_charge``, a ``select_many`` of its own
#: that ``cast`` its hit, and a ``choose_method`` that priced the staged
#: method too, the first four counted 8, 5, 27 and 16; reading the
#: ``StridedBlock.block_length`` property instead of the packer's attribute,
#: the first three counted 3, 3 and 13; before the model memoised its
#: decisions, a miss asked ``_decide`` for six probes of the model (12), and
#: ``choose_method`` made them again every time (8, what ``decide`` counts
#: now).  A miss is now the selector's books plus one ``choose_method``
#: decision-memo hit (2).
SELECTION_CALLS = {
    "hit": 2, "select_many hit": 2, "miss, warm model": 5, "choose_method": 2, "decide": 8,
}


def _selection_calls(label: str, model) -> int:
    comm = interpose(World(1).contexts[0], TempiConfig(), model=model)
    datatype = comm.Type_commit(_pitched_datatype(2048, 64))
    packer = TempiCommunicator.handler_of(datatype).packer
    block_length = packer.block.block_length
    selector, nbytes = comm._selector, packer.packed_size(8)
    selector(packer, nbytes)  # the selection memo holds ``nbytes``
    model.choose_method(2 * nbytes, block_length)  # the model has decided ``2 * nbytes``
    probe = {
        "hit": lambda: selector(packer, nbytes),
        "select_many hit": lambda: selector.select_many(packer, nbytes),
        "miss, warm model": lambda: selector(packer, 2 * nbytes),
        "choose_method": lambda: model.choose_method(2 * nbytes, block_length),
        "decide": lambda: model.decide(2 * nbytes, block_length),
    }[label]
    books = dataclasses.asdict(comm.tempi.cache.stats), comm.stats.selection_memo_misses
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        with CallCounter() as empty:
            pass
        with CallCounter() as counter:
            probe()
    finally:
        gc.enable()
    stats = dataclasses.asdict(comm.tempi.cache.stats)
    missed = label == "miss, warm model"
    if label not in ("choose_method", "decide"):  # a selection wrote its books
        assert stats["query_misses"] - books[0]["query_misses"] == missed
        assert stats["query_hits"] - books[0]["query_hits"] == (not missed)
        assert comm.stats.selection_memo_misses - books[1] == missed
    return counter.calls - empty.calls


@pytest.mark.parametrize("label", sorted(SELECTION_CALLS))
def test_a_selection_counts_its_calls(label, summit_model):
    calls = _selection_calls(label, summit_model)
    if sys.version_info[:2] == (3, 11):
        assert calls == SELECTION_CALLS[label]
    else:
        assert calls <= SELECTION_CALLS[label] + 1, (calls, SELECTION_CALLS[label])


#: Exact calls on Python 3.11 of one run-token hand-off, per
#: ``MessageRouter.block`` entry of a rank holding the token: ``block``,
#: ``_pass_token``, ``_dispatch`` with its ``popleft`` and the next rank's
#: baton release, and ``_await_token`` with its release of ``lock``, its own
#: baton's acquire and its acquire of ``lock``.  A ``Condition`` per rank
#: counted 21.
HANDOFF_CALLS = 9


def test_a_token_hand_off_is_one_release_and_one_acquire():
    histogram = _load(TOOLS / "call_histogram.py", "_call_histogram")
    world = World(4)

    def ring(ctx, rounds: int) -> None:
        buffer = ctx.gpu.host_alloc(64)
        right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        for _ in range(rounds):
            ctx.comm.Send(buffer, dest=right, tag=0)
            ctx.comm.Recv(buffer, source=left, tag=0)
            ctx.comm.Barrier()

    world.run(ring, 1)  # first-use imports
    stages = ("token hand-off", "other")
    codes = {MessageRouter.block.__code__: stages[0]}
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        _, calls, entries = histogram.census(lambda rounds: world.run(ring, rounds), 3, codes, stages)
    finally:
        gc.enable()
    blocks = entries[stages[0]]
    assert blocks >= 3 * 4  # every rank blocks at least once per round
    if sys.version_info[:2] == (3, 11):
        assert calls[stages[0]] == HANDOFF_CALLS * blocks
    else:
        assert calls[stages[0]] <= (HANDOFF_CALLS + 1) * blocks, (calls[stages[0]], blocks)


def _census_table(workload: str) -> str:
    """The table between ``docs/ARCHITECTURE.md``'s census markers for ``workload``."""
    text = (MEASURE.parents[2] / "docs" / "ARCHITECTURE.md").read_text()
    begin = f"<!-- census: python tools/call_histogram.py --workload {workload} --stages --markdown -->\n"
    start = text.index(begin) + len(begin)
    return text[start:text.index("<!-- /census -->", start)].strip()


def test_wire_stage_rows_sum_to_the_printed_total(monkeypatch, capsys):
    """One census run, as ``--workload replay --stages`` makes it: its rows
    sum to the printed total, and on Python 3.11 its Markdown is the table
    in ``docs/ARCHITECTURE.md`` § "Scalar message path"."""
    histogram = _load(TOOLS / "call_histogram.py", "_call_histogram")
    monkeypatch.syspath_prepend(str(E2E))  # ``warm_workload`` imports the benchmark's workloads
    workload = histogram.warm_workload("replay")
    rounds = workload.counted_rounds
    census = histogram.wire_census(workload, rounds)
    capsys.readouterr()
    histogram.print_wire_stages(rounds, *census)
    lines = capsys.readouterr().out.splitlines()
    # Each row: calls/plan, entries/plan and calls/entry in fixed columns, then the stage.
    rows = {line[40:]: float(line[:11]) for line in lines[2:]}
    total = rows.pop("= plan")
    assert list(rows) == list(histogram.WIRE_STAGES)
    assert sum(rows.values()) == pytest.approx(total, abs=0.05 * (len(rows) + 1))
    # The plan around the messages has rows of its own, and so do a cold
    # pack's plan and staging inside ``execute``.
    stages = (
        "selection", "collective compile", "allreduce compile", "p2p compile", "Type_commit",
        "pack plan", "staging",
    )
    assert all(rows[stage] > 0 for stage in stages)
    assert workload.failed_ops == 0
    if sys.version_info[:2] == (3, 11):
        assert histogram.wire_markdown(*census) == _census_table("replay"), (
            "regenerate the table: python tools/call_histogram.py --workload replay --stages --markdown"
        )


def test_the_function_table_and_the_stages_count_one_total(monkeypatch):
    """``--workload replay``'s per-function table and its ``--stages`` table
    count the same calls: over the same steps of two fresh warm workloads,
    the profile's calls sum to the census total.  ``cProfile`` kept one
    entry per ``(file, line, name)``, so the dataclass ``__init__``s, all
    ``<string>:2(__init__)``, lost 17 calls per plan to one another."""
    histogram = _load(TOOLS / "call_histogram.py", "_call_histogram")
    monkeypatch.syspath_prepend(str(E2E))  # ``warm_workload`` imports the benchmark's workloads
    censused, profiled = histogram.warm_workload("replay"), histogram.warm_workload("replay")
    rounds = censused.counted_rounds
    # Each turns the collector off: a collection would count the gc callbacks Hypothesis registers.
    ops, calls, _ = histogram.wire_census(censused, rounds)
    profiled_ops, stats = histogram.profile_threads(functools.partial(profiled.block, rounds))
    assert profiled_ops == ops > 0
    assert sum(ncalls for _, ncalls, _, _, _ in stats.stats.values()) == sum(calls.values())
    assert censused.failed_ops == profiled.failed_ops == 0


def test_halo_stage_rows_sum_to_the_printed_total(monkeypatch, capsys):
    """One census run, as ``--workload halo --stages`` makes it: a bound
    request's ``Start`` and every ``Wait`` have rows, the rows sum to the
    printed total, and on Python 3.11 its Markdown is the halo table in
    ``docs/ARCHITECTURE.md`` § "Scalar message path"."""
    histogram = _load(TOOLS / "call_histogram.py", "_call_histogram")
    monkeypatch.syspath_prepend(str(E2E))  # ``warm_workload`` imports the benchmark's workloads
    workload = histogram.warm_workload("halo")
    rounds = workload.counted_rounds
    census = histogram.wire_census(workload, rounds)
    capsys.readouterr()
    histogram.print_wire_stages(rounds, *census)
    lines = capsys.readouterr().out.splitlines()
    rows = {line[40:]: float(line[:11]) for line in lines[2:]}
    total = rows.pop("= op")
    assert list(rows) == list(histogram.HALO_STAGES)
    assert sum(rows.values()) == pytest.approx(total, abs=0.05 * (len(rows) + 1))
    assert all(rows[stage] > 0 for stage in ("Request.Start", "Request.Wait", "staging", "post"))
    assert workload.failed_ops == 0
    if sys.version_info[:2] == (3, 11):
        assert histogram.wire_markdown(*census) == _census_table("halo"), (
            "regenerate the table: python tools/call_histogram.py --workload halo --stages --markdown"
        )


def test_callers_prints_who_calls_a_function(monkeypatch, capsys):
    histogram = _load(TOOLS / "call_histogram.py", "_call_histogram")
    monkeypatch.syspath_prepend(str(E2E))  # ``main`` imports the benchmark's workloads
    assert histogram.main(["--workload", "pack", "--callers", "pack_strided_many"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and "pack_strided_many" in lines[0]
    assert any("<- " in line and "launch_pack" in line for line in lines[1:])


def _spin(rounds: int) -> int:
    total = 0
    for step in range(rounds):
        total += step * step
    return total


def test_the_profile_charges_a_ranks_own_cpu_not_its_peers_waits():
    """``profile_threads`` times each thread by its own CPU clock: one rank's
    spin is found in the spinning function, and the peer waiting in
    ``p2p.py`` for the token, and the driver joining both, read about 0."""
    histogram = _load(TOOLS / "call_histogram.py", "_call_histogram")

    def program(ctx) -> None:
        if ctx.rank == 0:
            _spin(300_000)
            ctx.comm.Send(np.zeros(8, dtype=np.uint8), 1, 0)
        else:
            ctx.comm.Recv(np.empty(8, dtype=np.uint8), 0, 0)

    _, stats = histogram.profile_threads(lambda: World(2).run(program))
    self_s = {(Path(path).name, name): tottime for (path, _, name), (_, _, tottime, _, _) in stats.stats.items()}
    spin = self_s[("test_call_budget.py", "_spin")]
    waits = sum(t for (_, name), t in self_s.items() if "acquire" in name or "join" in name)
    assert spin > 0.005
    assert max(self_s, key=self_s.get) == ("test_call_budget.py", "_spin")
    assert sum(t for (file, _), t in self_s.items() if file == "p2p.py") < spin / 10
    assert waits < spin / 10, (waits, spin)


# --------------------------------------------------------------------------- #
# The halo pricing driver: one warm round, batched, scalar and eager.
# --------------------------------------------------------------------------- #

#: Exact calls on Python 3.11 of the third round of a
#: :class:`~repro.bench.simthroughput.HaloDriver` (the driver
#: ``halo_pricing`` and ``fabric_pricing`` time), by ``(topology, ranks,
#: leg)``: ``batched`` and ``scalar`` booking on the default config, and
#: ``eager``, the scalar booking with ``plan_cache`` off (every start
#: compiles).  Each round posts four messages per rank.  The tests below
#: hold, without a clock, what a wall-clock sweep of these legs once gated:
#: batched booking beats scalar pricing, and its cost per message does not
#: grow from 256 to 1024 ranks.  While a scalar restart wrote the books of
#: an all-hit replay instead of replaying, ``scalar`` counted 18 720 (flat,
#: 256), 74 784 (flat, 1024), 25 813 (fabric, 256) and 103 237 (fabric,
#: 1024).  While the timeline folded its own stall seconds, every leg
#: counted more: batched 533, 1 301, 892 and 2 620, scalar 21 792, 87 072,
#: 28 885 and 115 525, eager 43 552 and 50 645.  While the NIC took its lock
#: for every booking and ingest, batched counted 529, 1 297, 888 and 2 616,
#: scalar 21 763, 87 043, 28 035 and 112 131, eager 43 523 and 49 795.
PRICING_ROUND_CALLS = {
    ("flat", 256, "batched"): 527,
    ("flat", 256, "scalar"): 20_483,
    ("flat", 256, "eager"): 42_243,
    ("flat", 1024, "batched"): 1_295,
    ("flat", 1024, "scalar"): 81_923,
    ("fabric", 256, "batched"): 886,
    ("fabric", 256, "scalar"): 26_755,
    ("fabric", 256, "eager"): 48_515,
    ("fabric", 1024, "batched"): 2_614,
    ("fabric", 1024, "scalar"): 107_011,
}
#: The points counted: both legs of the default config at 256 and 1024
#: ranks, flat and on the fat-tree preset, and the eager leg at 256.
PRICING_POINTS = [
    (topology, nranks, leg)
    for topology in ("flat", "fabric") for nranks in (256, 1024)
    for leg in ("batched", "scalar", "eager") if leg != "eager" or nranks == 256
]


@dataclasses.dataclass(frozen=True)
class _PricingRound:
    calls: int
    messages: int
    digest: tuple
    plan_cache_hits: int
    ledger_nbytes: int
    peak_pending: int

    @property
    def per_message(self) -> float:
        return self.calls / self.messages


def _pricing_round(model, topology: str, nranks: int, leg: str) -> _PricingRound:
    driver = HaloDriver(
        nranks, TempiConfig(plan_cache=leg != "eager"), model,
        topology=FABRIC_SPEC if topology == "fabric" else None,
        booking="batched" if leg == "batched" else "scalar",
    )
    for _ in range(2):  # the first start compiles, the second is a restart
        driver.round()
    gc.collect()
    gc.disable()  # a collection would count the gc callbacks Hypothesis registers
    try:
        with CallCounter() as empty:
            pass
        with CallCounter() as counter:
            messages = driver.round()
    finally:
        gc.enable()
    return _PricingRound(
        counter.calls - empty.calls, messages, driver.digest(),
        sum(comm.stats.plan_cache_hits for _, comm, _, _ in driver._setup),
        driver.nic.ledger_nbytes(), driver.nic.peak_pending,
    )


@pytest.fixture(scope="module")
def pricing_round(summit_model):
    """``_pricing_round`` on the session's model, each point counted once."""
    return functools.cache(functools.partial(_pricing_round, summit_model))


@pytest.mark.parametrize("point", PRICING_POINTS, ids=["-".join(map(str, p)) for p in PRICING_POINTS])
def test_a_pricing_round_counts_its_calls(point, pricing_round):
    got = pricing_round(*point)
    topology, nranks, leg = point
    assert got.messages == 4 * nranks
    # The compact ledger is the NIC's whole variable-size footprint: a
    # fixed ring, and one advisory pending record per message in flight.
    assert (got.ledger_nbytes, got.peak_pending) == (163_840, 4 * nranks)
    if leg == "eager":
        assert got.plan_cache_hits == 0
    else:
        assert got.plan_cache_hits == 2 * nranks  # the second and third starts
    expected = PRICING_ROUND_CALLS[point]
    if sys.version_info[:2] == (3, 11):
        assert got.calls == expected
    else:
        assert got.calls <= expected * 1.05, (got.calls, expected)


@pytest.mark.parametrize("nranks", [256, 1024])
@pytest.mark.parametrize("topology", ["flat", "fabric"])
def test_batched_booking_costs_fewer_calls_than_scalar(topology, nranks, pricing_round):
    batched, scalar = (pricing_round(topology, nranks, leg) for leg in ("batched", "scalar"))
    assert batched.per_message < scalar.per_message, (batched.per_message, scalar.per_message)


@pytest.mark.parametrize("topology", ["flat", "fabric"])
def test_batched_calls_per_message_do_not_grow_with_the_ranks(topology, pricing_round):
    small, large = (pricing_round(topology, nranks, "batched") for nranks in (256, 1024))
    assert large.per_message <= small.per_message, (small.per_message, large.per_message)


@pytest.mark.parametrize("topology", ["flat", "fabric"])
def test_the_plan_template_saves_calls_and_prices_the_same(topology, pricing_round):
    """A restart that replays its template costs fewer calls than one that
    compiles again, and every leg leaves the same clocks and NIC books."""
    batched, scalar, eager = (pricing_round(topology, 256, leg)
                              for leg in ("batched", "scalar", "eager"))
    assert scalar.calls < eager.calls, (scalar.calls, eager.calls)
    assert batched.digest == scalar.digest == eager.digest

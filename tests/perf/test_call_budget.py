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
* a launch split across host cores (Fig. 8's 4 MiB object) costs at most
  10 calls more than unsplit on the launching thread and at most 4 on each
  helper thread;
* one TEMPI ``Type_commit`` makes an exact number of calls: canonicalising
  a flat list of stream rows instead of a recursive Type tree, translating
  in one loop over a per-class step table, and selecting the kernel from
  the block's counts read once;
* building the 22 ``datatype_pack`` datatypes makes an exact number of
  calls: a plain ``int`` argument passes every constructor check with no
  call;
* ``tools/call_histogram.py --stages`` accounts for every call of a
  ``datatype_pack`` round.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps.halo import DIRECTIONS, HaloSpec, negate
from repro.apps.replay import _pitched_datatype
from repro.apps.stencil import HaloExchange, direction_tag
from repro.bench.workloads import fig7_configurations, fig8_configurations
from repro.gpu import kernels
from repro.machine.nic import IngestRecord, NicTimeline
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import TempiCommunicator, interpose

MEASURE = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "measure.py"
RANKS = 8
#: ``halo_world``'s budget (165 calls per message) plus 5 %; PR 21's parent ran 205.4.
CEILING = 173.25
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

def _snapshot(world, exchanges) -> dict:
    """Every counter the warm path touches, summed over ranks."""

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
            "stalled_s": nic.stalled_s.hex(),
            "ingests": nic.ingests,
            "ingest_stalls": nic.ingest_stalls,
            "ingest_stalled_s": nic.ingest_stalled_s.hex(),
            "fabric_stalls": nic.fabric_stalls,
            "peak_pending": nic.peak_pending,
            "ledger_len": nic.ledger_len(),
        },
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
    "clocks": ["0x1.d11f70f4fc023p-8"] * RANKS,
}


def test_three_round_halo_world_counts_what_the_parent_counted(summit_model):
    world, exchanges, rounds = _halo_world(summit_model)
    world.run(rounds, 3)
    assert _snapshot(world, exchanges) == PARENT_SNAPSHOT


# --------------------------------------------------------------------------- #
# A warm TEMPI Pack/Unpack, with and without the narrowing cast.
# --------------------------------------------------------------------------- #

#: Exact calls of one warm ``(Pack, Unpack)`` on Python 3.11.  Before the
#: narrowing cast both objects counted (31, 31).  The non-cell object
#: ("vec 1KiB 1/8": 8-byte runs at a 512-byte pitch) still does; the cell
#: object (64 Ki one-byte runs at a 2-byte pitch, count 2) adds the one
#: ``np.copyto`` to its pack.
WARM_PACK_CALLS = {"vec 1KiB 1/8": (31, 31), "cell": (32, 31)}


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


# --------------------------------------------------------------------------- #
# A split launch: Fig. 8's 4 MiB object on two cores.
# --------------------------------------------------------------------------- #

#: Exact calls of one warm ``(Pack, Unpack)`` of "vec 4MiB 2/1" (4 Mi one-byte
#: runs at a 2-byte pitch, count 2: 8 Mi elements, over the split threshold)
#: on Python 3.11 and a 2-core host, per thread.  Unsplit it would count what
#: the cell object above counts, (32, 31).
SPLIT_PACK_CALLS = {"caller": (39, 38), "helper": (3, 2)}
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
#: calls excluded.  The recursive canonicaliser counted (288, 335, 188) and
#: canonicalising one flat list of stream rows (111, 124, 94); the step-table
#: translator and kernel selection without property calls left these.
COMMIT_CALLS = {"fig7 0:subarray": 83, "fig7 6:hvector(hvector(vector))": 92, "replay pitched": 70}


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


def test_stage_rows_sum_to_the_round_total(summit_model):
    histogram = _load(TOOLS / "call_histogram.py", "_call_histogram")
    workloads = _load(E2E / "workloads.py", "_e2e_workloads")
    workload = workloads.DatatypePack(summit_model, seed=1)
    workload.block(workload.warmup_rounds)
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

"""The five workloads: what each runs, and why it is in the benchmark.

A workload is built from a performance model and a seed, and then driven
block by block: :meth:`Workload.block` runs some rounds and returns how
many *ops* they were.  The seed reaches only generated inputs (payload
fill, MoE routing draws); the simulator never sees it, nor the workload's
name.  Every workload checks its own outputs (:meth:`Workload.check`) and
hashes its deterministic virtual state (:meth:`Workload.virtual_digest`).

Worlds are driven the way a user drives them: one ``World.run`` per block,
so thread spawn and join are inside the measurement, as they are inside
every tier-1 test.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from repro.apps.halo import DIRECTIONS, HaloSpec
from repro.apps.moe import MoESpec, moe_trace
from repro.apps.pipeline import PipelineSpec, pipeline_trace
from repro.apps.replay import replay_trace
from repro.apps.stencil import HaloExchange
from repro.bench.simthroughput import CACHED_CONFIG, FABRIC_SPEC, HaloDriver
from repro.bench.workloads import fig7_configurations, fig8_configurations
from repro.mpi.world import World, WorldError
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose

WORLD_RANKS = 8


def _hash(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _clock_hex(clocks) -> list[str]:
    return [float(clock).hex() for clock in clocks]


def _nic_counters(nic) -> tuple:
    # Counts only: the NIC's ``*_stalled_s`` sums accumulate in thread-arrival
    # order, so their last bits differ from run to run on a threaded World.
    return (nic.reservations, nic.stalls, nic.ingests, nic.ingest_stalls, nic.fabric_stalls)


class Workload:
    """Common driving surface; subclasses fill in the work."""

    name = ""
    #: What one op is.
    op = "simulated wire message"
    #: Rounds per timed block (blocks of roughly a quarter second).
    block_rounds = 1
    #: Untimed rounds before any measurement: past the NIC's 4096-record
    #: ring/pending capacity and past every cold cache.
    warmup_rounds = 1
    #: Rounds of the call-counted pass (fixed, so counts can repeat exactly).
    counted_rounds = 1
    #: Bytes packed plus unpacked per op, computed from the packed sizes.
    computed_bytes_per_op = 0.0

    def __init__(self, model, seed: int) -> None:
        self.failed_ops = 0
        self.checks_failed = 0
        self.rounds_run = 0

    def block(self, rounds: int) -> int:
        """Run ``rounds`` rounds; return their op count (failed ops included)."""
        raise NotImplementedError

    def check(self) -> None:
        """Verify the outputs produced so far; count failures in ``checks_failed``."""
        raise NotImplementedError

    def virtual_digest(self) -> str:
        """Hash of the deterministic simulated state (clocks, buffers, stalls)."""
        raise NotImplementedError

    def virtual_seconds(self) -> float:
        """Simulated time consumed so far (monotone; exact)."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# halo_world
# --------------------------------------------------------------------------- #

def _points(exchange: HaloExchange) -> np.ndarray:
    """One rank's allocation as a (z, y, x, point-bytes) array of gridpoints.

    The benchmark's own statement of the halo geometry, independent of the
    subarray datatypes the exchange is described with, so it can serve as
    the reference the ghosts are checked against.
    """
    ax, ay, az = exchange.spec.alloc_dims
    return exchange.local.data.reshape(az, ay, ax, exchange.spec.point_bytes)


def _ghost_slab(spec: HaloSpec, direction: tuple[int, int, int]) -> tuple[slice, slice, slice]:
    """Index of the ghost slab filled from ``direction``, in (z, y, x) order."""
    slabs = []
    for delta, n in zip(direction, (spec.nx, spec.ny, spec.nz)):
        if delta < 0:
            slabs.append(slice(0, spec.radius))
        elif delta > 0:
            slabs.append(slice(n + spec.radius, n + 2 * spec.radius))
        else:
            slabs.append(slice(spec.radius, n + spec.radius))
    return (slabs[2], slabs[1], slabs[0])


class HaloWorld(Workload):
    name = "halo_world"
    """The paper's 26-direction halo through a real 8-thread World: threads,
    router, executor, progress and byte copies with warm caches, the NIC
    doing little."""

    block_rounds = 3
    # 208 msgs/round fill the NIC's 4096-record ring at round 20, where the
    # per-round host cost steps up ~2x and then stays flat.
    warmup_rounds = 32
    counted_rounds = 6

    def __init__(self, model, seed: int) -> None:
        super().__init__(model, seed)
        self.seed = seed
        self.world = World(WORLD_RANKS, ranks_per_node=2)
        self.exchanges: list[HaloExchange] = []
        for ctx in self.world.contexts:
            comm = interpose(ctx, TempiConfig(), model=model)
            exchange = HaloExchange(ctx, comm, HaloSpec(), mode="overlap")
            interior = (slice(exchange.spec.radius, -exchange.spec.radius),) * 3
            _points(exchange)[interior] = self._fill(ctx.rank)
            self.exchanges.append(exchange)
        spec = self.exchanges[0].spec
        halo_bytes = sum(spec.halo_bytes(direction) for direction in DIRECTIONS)
        self.computed_bytes_per_op = 2.0 * halo_bytes / len(DIRECTIONS)
        self.ops_per_round = WORLD_RANKS * len(DIRECTIONS)

    def _fill(self, rank: int) -> int:
        return (self.seed * 7 + rank * 13 + 1) % 251

    def _rounds(self, ctx, rounds: int) -> None:
        exchange = self.exchanges[ctx.rank]
        for _ in range(rounds):
            exchange.exchange()

    def block(self, rounds: int) -> int:
        ops = rounds * self.ops_per_round
        try:
            self.world.run(self._rounds, rounds)
        except WorldError:
            self.failed_ops += ops
        self.rounds_run += rounds
        return ops

    def check(self) -> None:
        """Every ghost slab must hold the fill value of the rank it came from."""
        for exchange in self.exchanges:
            points = _points(exchange)
            for direction in DIRECTIONS:
                expected = self._fill(exchange.grid.neighbor(exchange.rank, direction))
                if not np.all(points[_ghost_slab(exchange.spec, direction)] == expected):
                    self.checks_failed += 1

    def virtual_digest(self) -> str:
        stats = [exchange.comm.stats for exchange in self.exchanges]
        return _hash(
            _clock_hex(self.world.clocks),
            [hashlib.sha256(exchange.local.data.tobytes()).hexdigest() for exchange in self.exchanges],
            [(s.contention_stalls, s.ingest_stalls) for s in stats],
            _nic_counters(self.world.nic),
        )

    def virtual_seconds(self) -> float:
        return self.world.max_clock()


# --------------------------------------------------------------------------- #
# halo_pricing / fabric_pricing
# --------------------------------------------------------------------------- #

class HaloPricing(Workload):
    name = "halo_pricing"
    """Control plane alone, single thread, 1024 ranks flat: compile memo,
    selection replay and the vectorised NIC kernels; threads, router,
    executor and kernels idle."""

    topology = None
    ranks = 1024
    block_rounds = 10
    warmup_rounds = 8
    counted_rounds = 12

    def __init__(self, model, seed: int) -> None:
        super().__init__(model, seed)
        # The pricing drivers move no bytes and draw nothing: the seed has no
        # input to reach, so every seed runs the same rounds.
        self.model = model
        self.driver = self._driver("batched")
        self.ops_per_round = self.ranks * self.driver.degree

    def _driver(self, booking: str) -> HaloDriver:
        return HaloDriver(self.ranks, CACHED_CONFIG, self.model,
                          topology=self.topology, booking=booking)

    def block(self, rounds: int) -> int:
        for _ in range(rounds):
            if self.driver.round() != self.ops_per_round:
                self.failed_ops += self.ops_per_round
        self.rounds_run += rounds
        return rounds * self.ops_per_round

    def check(self) -> None:
        """The batched books must equal a scalar driver's over the same rounds."""
        scalar = self._driver("scalar")
        for _ in range(self.rounds_run):
            scalar.round()
        if scalar.digest() != self.driver.digest():
            self.checks_failed += 1

    def virtual_digest(self) -> str:
        contexts = self.driver.world.contexts
        return _hash(
            _clock_hex(ctx.clock.now for ctx in contexts),
            [ctx.clock.events for ctx in contexts],
            _nic_counters(self.driver.nic),
        )

    def virtual_seconds(self) -> float:
        return self.driver.world.max_clock()


class FabricPricing(HaloPricing):
    name = "fabric_pricing"
    """The same driver on a fat-tree: routed paths take the NIC's serial
    in-lock booking and the rail/uplink ledgers; a vector-kernel gain must
    not cost this path."""

    topology = FABRIC_SPEC
    block_rounds = 4
    warmup_rounds = 6
    counted_rounds = 6


# --------------------------------------------------------------------------- #
# ml_replay
# --------------------------------------------------------------------------- #

#: The three allreduce records of every step (float32 element counts).
ALLREDUCE_COUNTS = (1 << 10, 1 << 14, 1 << 18)
#: Distinct traces a run cycles through (each step builds a fresh World, so
#: a repeated trace is as cache-cold as a new one).
TRACE_POOL = 12


def step_trace(seed: int, index: int) -> dict:
    """One training step: skewed MoE dispatch, three allreduces, a pipeline pass."""
    moe = moe_trace(
        MoESpec(tokens_per_rank=64, skew=4.0, seed=seed * 1000 + index), WORLD_RANKS
    )
    ops = list(moe["ops"])
    ops += [{"op": "allreduce", "count": count, "dtype": "float32", "reduce": "sum"}
            for count in ALLREDUCE_COUNTS]
    ops += pipeline_trace(PipelineSpec(microbatches=4), WORLD_RANKS)["ops"]
    return {"version": 1, "nranks": WORLD_RANKS, "ranks_per_node": 2, "ops": ops}


def _pitched_items(buffer: np.ndarray, base: int, nitems: int, record: dict, value: int) -> None:
    """Stamp ``value`` on the payload bytes of ``nitems`` pitched items at ``base``."""
    half = record["item_bytes"] // 2
    stride = half + record["item_pad"] // 2
    extent = stride + half
    for item in range(nitems):
        start = base + item * extent
        buffer[start : start + half] = value
        buffer[start + stride : start + stride + half] = value


def expected_digests(trace: dict) -> list[str]:
    """Per-rank receive-buffer hashes a correct replay of ``trace`` must report.

    Computed from the trace schema alone (who sends how many items to whom,
    stamped with which byte), not through any communicator: the independent
    reference of the replay check.  The system MPI path would serve too, but
    it walks these pitched types byte by byte and needs 3 s per step.
    """
    nranks = trace["nranks"]
    digests = [hashlib.sha256() for _ in range(nranks)]
    for index, record in enumerate(trace["ops"]):
        if record["op"] == "alltoallv":
            counts = record["counts"]
            extent = record["item_bytes"] + record["item_pad"] // 2
            for rank in range(nranks):
                incoming = [counts[peer][rank] for peer in range(nranks)]
                recv = np.zeros(max(1, sum(incoming) * extent), dtype=np.uint8)
                base = 0
                for peer, nitems in enumerate(incoming):
                    _pitched_items(recv, base, nitems, record, (index + peer) % 251)
                    base += nitems * extent
                digests[rank].update(recv.tobytes())
        elif record["op"] == "allreduce":
            ramp = np.arange(record["count"]) % 97
            total = sum(ramp + (rank + index) % 7 for rank in range(nranks))
            reduced = total.astype(record["dtype"]).tobytes()
            for digest in digests:
                digest.update(reduced)
        else:
            extent = record["item_bytes"] + record["item_pad"] // 2
            for position, (src, dst, nitems) in enumerate(record["edges"]):
                recv = np.zeros(nitems * extent, dtype=np.uint8)
                _pitched_items(recv, 0, nitems, record, (index + position + src) % 251)
                digests[dst].update(recv.tobytes())
    return [digest.hexdigest() for digest in digests]


class MlReplay(Workload):
    name = "ml_replay"
    """Cache-cold, heterogeneous use of compile/selection/NIC: a fresh 8-rank
    World per step replays MoE alltoallv + 3 allreduces + pipeline p2p;
    plan-cache misses, scalar booking."""

    op = "executed plan"
    block_rounds = 2
    warmup_rounds = 2
    counted_rounds = 6

    def __init__(self, model, seed: int) -> None:
        super().__init__(model, seed)
        self.model = model
        self.traces = [step_trace(seed, index) for index in range(TRACE_POOL)]
        self._expected: dict[int, list[str]] = {}
        #: ``(trace index, result)`` of every completed step.
        self.steps: list[tuple[int, object]] = []
        self._checked = 0
        self._virtual_s = 0.0
        self._plans = 0
        self._moved = 0.0

    @staticmethod
    def _payload_bytes(trace: dict) -> int:
        moved = 0
        for record in trace["ops"]:
            if record["op"] == "alltoallv":
                moved += int(np.sum(record["counts"])) * record["item_bytes"]
            elif record["op"] == "p2p":
                moved += sum(edge[2] for edge in record["edges"]) * record["item_bytes"]
        return moved

    def block(self, rounds: int) -> int:
        ops = 0
        for _ in range(rounds):
            index = self.rounds_run % TRACE_POOL
            trace = self.traces[index]
            self.rounds_run += 1
            try:
                result = replay_trace(trace, model=self.model)
            except WorldError:
                # A dead step executed no countable plans: charge one failed
                # op per trace record so the failure shows in the failed share.
                self.failed_ops += len(trace["ops"])
                ops += len(trace["ops"])
                continue
            self.steps.append((index, result))
            self._virtual_s += result.completion_s
            self._moved += 2.0 * self._payload_bytes(trace)
            ops += sum(stats["plans_built"] for stats in result.stats)
        self._plans += ops
        # Alltoallv and p2p payloads only; allreduce chunks are not counted.
        self.computed_bytes_per_op = self._moved / max(1, self._plans)
        return ops

    def check(self) -> None:
        """Every step's received bytes must hash to the schema-derived reference."""
        for index, result in self.steps[self._checked:]:
            if index not in self._expected:
                self._expected[index] = expected_digests(self.traces[index])
            if result.digests != self._expected[index]:
                self.checks_failed += 1
        self._checked = len(self.steps)

    def virtual_digest(self) -> str:
        return _hash(
            [(_clock_hex(r.clocks), r.digests,
              [(s["contention_stalls"], s["ingest_stalls"]) for s in r.stats])
             for _, r in self.steps]
        )

    def virtual_seconds(self) -> float:
        return self._virtual_s


# --------------------------------------------------------------------------- #
# datatype_pack
# --------------------------------------------------------------------------- #

#: Objects with more contiguous blocks than this are checked against a numpy
#: strided gather instead of the system path, whose per-block Python loop
#: needs ~20 s for the 4 Mi-block object.
SYSTEM_PATH_MAX_BLOCKS = 4096


class DatatypePack(Workload):
    name = "datatype_pack"
    """The paper's headline path on one rank, no network: commit every
    Fig. 7/8 datatype, Pack + Unpack every Fig. 8 object; commit, packer and
    kernels do all the work."""

    op = "Pack or Unpack call"
    block_rounds = 18
    warmup_rounds = 3
    counted_rounds = 8

    def __init__(self, model, seed: int) -> None:
        super().__init__(model, seed)
        self.world = World(1)
        self.ctx = self.world.contexts[0]
        self.comm = interpose(self.ctx, TempiConfig(), model=model)
        self.builders: list[Callable] = [c.build for c in fig7_configurations()]
        self.builders += [c.build for c in fig8_configurations()]
        rng = np.random.default_rng(seed)
        self.objects = []
        moved = 0
        for config in fig8_configurations():
            datatype = self.comm.Type_commit(config.build())
            nbytes = config.extent_bytes + datatype.extent
            source = self.ctx.gpu.malloc(nbytes)
            source.data[:] = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
            packed = self.ctx.gpu.malloc(datatype.size * config.count)
            target = self.ctx.gpu.malloc(nbytes)
            self.objects.append((config, datatype, source, packed, target))
            moved += 2 * datatype.size * config.count
        self.ops_per_round = 2 * len(self.objects)
        self.computed_bytes_per_op = moved / self.ops_per_round

    def block(self, rounds: int) -> int:
        comm = self.comm
        for _ in range(rounds):
            for build in self.builders:
                comm.Type_commit(build())
            for config, datatype, source, packed, target in self.objects:
                end = comm.Pack((source, config.count, datatype), packed, 0)
                back = comm.Unpack(packed, 0, (target, config.count, datatype))
                if end != packed.nbytes or back != packed.nbytes:
                    self.failed_ops += 2
        self.rounds_run += rounds
        return rounds * self.ops_per_round

    def _reference(self, config, datatype, source) -> np.ndarray:
        """The packed bytes by an independent route."""
        if config.nblocks * config.count <= SYSTEM_PATH_MAX_BLOCKS:
            system = self.ctx.comm
            system_type = system.Type_commit(config.build())
            out = self.ctx.gpu.malloc(datatype.size * config.count)
            system.Pack((source, config.count, system_type), out, 0)
            return out.data
        rows = np.lib.stride_tricks.as_strided(
            source.data,
            shape=(config.count, config.nblocks, config.block_bytes),
            strides=(datatype.extent, config.pitch, 1),
        )
        return rows.reshape(-1)

    def check(self) -> None:
        comm = self.comm
        for config, datatype, source, packed, target in self.objects:
            if not np.array_equal(packed.data, self._reference(config, datatype, source)):
                self.checks_failed += 1
            # unpack∘pack round-trips: re-packing the unpacked object gives
            # the same bytes.
            again = self.ctx.gpu.malloc(packed.nbytes)
            comm.Pack((target, config.count, datatype), again, 0)
            if not np.array_equal(again.data, packed.data):
                self.checks_failed += 1

    def virtual_digest(self) -> str:
        return _hash(
            float(self.ctx.clock.now).hex(),
            [hashlib.sha256(packed.data.tobytes()).hexdigest() for _, _, _, packed, _ in self.objects],
        )

    def virtual_seconds(self) -> float:
        return self.ctx.clock.now


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (HaloWorld, HaloPricing, FabricPricing, MlReplay, DatatypePack)
}

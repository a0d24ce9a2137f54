"""Skewed MoE token-exchange driver (expert-parallel ``Alltoallv``).

Mixture-of-Experts dispatch is the modern incarnation of the cluster-scale
all-to-all the PR-5 incast and PR-8 uplink machinery were built to price:
every rank routes its tokens to the experts that scored them, and a *hot*
expert — one whose gate wins far more tokens than the uniform share — turns
the exchange into a many-senders/one-receiver incast at that expert's
ingestion port.  The driver parameterizes exactly that skew:

* :func:`moe_counts` draws the per-(sender, expert) token routing matrix
  from a multinomial whose hot-expert weight is ``skew`` times the uniform
  weight — deterministic in ``MoESpec.seed``, identical on every rank (the
  SPMD discipline the collective needs);
* :func:`run_moe` sorts each rank's tokens by destination expert (the
  standard MoE dispatch permutation), describes one token as a strided
  vector datatype (activation rows in a pitched buffer — non-contiguous, so
  TEMPI's interposer compiles the exchange to a :class:`MessagePlan` and the
  wire traffic lands on the shared NIC ledgers), and runs the typed
  ``Alltoallv`` on a :class:`~repro.mpi.world.World`;
* :func:`moe_trace` records the same schedule as a replayable trace for
  :mod:`repro.apps.replay`.

The analytic twin is :func:`repro.apps.exchange_model.model_moe_exchange`;
``benchmarks/bench_moe.py`` sweeps the skew and pins the incast onset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose


@dataclass(frozen=True)
class MoESpec:
    """One expert-parallel dispatch round (one expert per rank)."""

    #: Tokens every rank routes per round.
    tokens_per_rank: int = 64
    #: Payload bytes of one token's activation row (must be even — the row
    #: is described as a two-block strided vector).
    token_bytes: int = 2048
    #: Pitch padding after each row (must be even and positive: the padding
    #: is what keeps the datatype non-contiguous, i.e. on TEMPI's fast path).
    token_pad: int = 64
    #: Hot-expert load factor: the hot expert's routing weight is ``skew``
    #: times every other expert's.  ``1.0`` is the uniform baseline.
    skew: float = 1.0
    #: Which expert (rank) is hot.
    hot_expert: int = 0
    #: Seed of the multinomial routing draw (see the ``moe_seed`` fixture).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tokens_per_rank < 0:
            raise ValueError(f"tokens_per_rank must be >= 0, got {self.tokens_per_rank}")
        if self.token_bytes <= 0 or self.token_bytes % 2:
            raise ValueError(f"token_bytes must be positive and even, got {self.token_bytes}")
        if self.token_pad <= 0 or self.token_pad % 2:
            raise ValueError(f"token_pad must be positive and even, got {self.token_pad}")
        if self.skew < 1.0:
            raise ValueError(f"skew must be >= 1.0, got {self.skew}")
        if self.hot_expert < 0:
            raise ValueError(f"hot_expert must be >= 0, got {self.hot_expert}")


def moe_counts(spec: MoESpec, nranks: int) -> np.ndarray:
    """The ``(sender, expert)`` token-routing matrix of one dispatch round.

    Row ``s`` is sender ``s``'s multinomial draw of ``tokens_per_rank``
    tokens over experts weighted ``skew : 1 : ... : 1`` (hot expert first in
    weight, not in position).  Deterministic in ``spec.seed`` and identical
    however many times it is evaluated — every rank computes the same matrix.
    """
    if nranks <= 0:
        raise ValueError(f"nranks must be positive, got {nranks}")
    weights = np.ones(nranks, dtype=np.float64)
    weights[spec.hot_expert % nranks] = spec.skew
    probabilities = weights / weights.sum()
    rng = np.random.default_rng(spec.seed)  # simlint: disable=SIM001 -- seeded draw, identical on every rank and run
    counts = np.empty((nranks, nranks), dtype=np.int64)
    for sender in range(nranks):
        counts[sender] = rng.multinomial(spec.tokens_per_rank, probabilities)
    return counts


def token_datatype(spec: MoESpec):
    """One token's activation row: two half-row blocks in a pitched buffer.

    The pitch padding makes the type non-contiguous, which is what routes
    the exchange through TEMPI's pack kernels and the shared NIC ledgers
    instead of the system byte path.
    """
    half = spec.token_bytes // 2
    return Type_vector(2, half, half + spec.token_pad // 2, BYTE)


def token_fill(sender: int, expert: int) -> int:
    """The byte value stamped on every payload byte of one routed token."""
    return (sender * 31 + expert * 7) % 251


def _token_rows(buffer_data: np.ndarray, displ: int, count: int, spec: MoESpec, extent: int):
    """Yield the two payload block slices of each of ``count`` tokens."""
    half = spec.token_bytes // 2
    stride = half + spec.token_pad // 2
    for index in range(count):
        base = displ + index * extent
        yield buffer_data[base : base + half]
        yield buffer_data[base + stride : base + stride + half]


@dataclass(frozen=True)
class MoEResult:
    """One dispatch round's observables (per-rank lists, rank order)."""

    counts: np.ndarray
    clocks: list
    rank_ingest_stalls: list
    collective_hits: int
    collective_fallbacks: int
    digests: list

    @property
    def completion_s(self) -> float:
        """The round's completion: the slowest rank's priced clock."""
        return max(self.clocks)

    @property
    def ingest_stalls(self) -> int:
        """Total arrivals delayed at ingestion ports, across all ranks."""
        return sum(self.rank_ingest_stalls)

    def hot_excess_stalls(self, hot_expert: int) -> float:
        """The incast signature: the hot expert's ingest stalls beyond the
        *mean* cold rank's — the uniform all-to-all background every rank
        sees.  Near zero at ``skew=1``; grows once the skew actually queues
        the hot ingestion port deeper than that background.
        """
        cold = [
            stalls
            for rank, stalls in enumerate(self.rank_ingest_stalls)
            if rank != hot_expert % len(self.rank_ingest_stalls)
        ]
        hot = self.rank_ingest_stalls[hot_expert % len(self.rank_ingest_stalls)]
        return hot - (sum(cold) / len(cold)) if cold else 0.0


def run_moe(
    nranks: int,
    spec: MoESpec,
    *,
    model,
    config: TempiConfig | None = None,
    ranks_per_node: int = 2,
    topology=None,
    verify: bool = False,
) -> MoEResult:
    """Run one skewed dispatch round on a fresh :class:`World`.

    Each rank sorts its tokens by destination expert, fills every token's
    payload with :func:`token_fill`, and runs one typed ``Alltoallv``
    through the interposer; ``verify=True`` additionally checks every
    received token's stamp against its sender.  Deterministic in
    ``spec.seed`` — two identical calls return bit-identical clocks.
    """
    counts = moe_counts(spec, nranks)

    def program(ctx):
        cfg = config if config is not None else TempiConfig()
        comm = interpose(ctx, cfg, model=model)
        datatype = comm.Type_commit(token_datatype(spec))
        extent = datatype.extent
        sendcounts = [int(c) for c in counts[ctx.rank]]
        recvcounts = [int(counts[peer][ctx.rank]) for peer in range(ctx.size)]
        senddispls = list(np.cumsum([0] + [c * extent for c in sendcounts[:-1]]).astype(int))
        recvdispls = list(np.cumsum([0] + [c * extent for c in recvcounts[:-1]]).astype(int))
        send = ctx.gpu.malloc(max(1, sum(sendcounts) * extent))
        recv = ctx.gpu.malloc(max(1, sum(recvcounts) * extent))
        for expert in range(ctx.size):
            for block in _token_rows(
                send.data, senddispls[expert], sendcounts[expert], spec, extent
            ):
                block[:] = token_fill(ctx.rank, expert)
        comm.Alltoallv(
            send, sendcounts, senddispls, recv, recvcounts, recvdispls,
            sendtypes=datatype, recvtypes=datatype,
        )
        if verify:
            for sender in range(ctx.size):
                for block in _token_rows(
                    recv.data, recvdispls[sender], recvcounts[sender], spec, extent
                ):
                    expected = token_fill(sender, ctx.rank)
                    if not np.all(block == expected):
                        raise AssertionError(
                            f"rank {ctx.rank} received a corrupt token from {sender}"
                        )
        stats = comm.stats
        digest = hashlib.sha256(recv.data.tobytes()).hexdigest()
        return (
            ctx.clock.now,
            stats.ingest_stalls,
            stats.collective_hits,
            stats.collective_fallbacks,
            digest,
        )

    kwargs = {"ranks_per_node": ranks_per_node}
    if topology is not None:
        kwargs["topology"] = topology
    rows = World(nranks, **kwargs).run(program)
    return MoEResult(
        counts=counts,
        clocks=[row[0] for row in rows],
        rank_ingest_stalls=[row[1] for row in rows],
        collective_hits=sum(row[2] for row in rows),
        collective_fallbacks=sum(row[3] for row in rows),
        digests=[row[4] for row in rows],
    )


def moe_trace(spec: MoESpec, nranks: int, *, ranks_per_node: int = 2) -> dict:
    """The dispatch round as a replayable trace (:mod:`repro.apps.replay`)."""
    counts = moe_counts(spec, nranks)
    return {
        "version": 1,
        "nranks": nranks,
        "ranks_per_node": ranks_per_node,
        "ops": [
            {
                "op": "alltoallv",
                "counts": counts.tolist(),
                "item_bytes": spec.token_bytes,
                "item_pad": spec.token_pad,
            }
        ],
    }

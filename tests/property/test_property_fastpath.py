"""Property-based test: the fast-path caches can never move a priced result.

A persistent collective's restart replays its bound template's selection
transcript through the live selector, so for *any* typed exchange, any
round count, one-shot ``Ialltoallv`` or ``Alltoallv_init`` restarts, and
the plan cache on or off (its reference switch) the bytes delivered to
every receive buffer AND every rank's virtual completion time must be
exactly identical.  A divergence in either means a template leaked into
the priced simulation, the one thing the fast path must never do.

Driven single-threaded (every rank posts or starts its exchange, then every
rank waits, in rank order) so the shared-NIC interleaving is deterministic
and clock equality is meaningful.  The incast case aims every rank at one
hot receiver under ``selection="contended"`` + ``nic="duplex"``, the
configuration where memoised decisions fold live backlog in — the bounded
contended memo must key on that backlog, not hide it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose

#: The plan cache on, and off as the reference.
CONFIG_GRID = (
    {"plan_cache": True},
    {"plan_cache": False},
)


@st.composite
def exchange_cases(draw):
    """A world size, vector shape, consistent count matrix and round count."""
    nranks = draw(st.integers(min_value=2, max_value=4))
    nblocks = draw(st.integers(min_value=1, max_value=5))
    block = draw(st.integers(min_value=1, max_value=8))
    gap = draw(st.integers(min_value=0, max_value=8))  # gap 0: contiguous fallback
    counts = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=nranks, max_size=nranks),
            min_size=nranks,
            max_size=nranks,
        )
    )
    rounds = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return nranks, nblocks, block, block + gap, counts, rounds, seed


def _drive(config, summit_model, nranks, nblocks, block, pitch, counts, rounds, seed,
           persistent):
    """Run ``rounds`` identical-shape exchanges inline: bytes + clocks per rank,
    and the summed ``(plan_cache_hits, plan_cache_misses)``.

    ``persistent`` binds each rank's ``Alltoallv_init`` once and restarts it
    every round; otherwise every round is a one-shot ``Ialltoallv``."""
    world = World(nranks, ranks_per_node=2)
    setup = []
    for ctx in world.contexts:
        comm = interpose(ctx, config, model=summit_model)
        datatype = comm.Type_commit(Type_vector(nblocks, block, pitch, BYTE))
        extent = datatype.extent
        sendcounts = counts[ctx.rank]
        recvcounts = [counts[peer][ctx.rank] for peer in range(nranks)]
        senddispls = list(np.cumsum([0] + [c * extent for c in sendcounts[:-1]]).astype(int))
        recvdispls = list(np.cumsum([0] + [c * extent for c in recvcounts[:-1]]).astype(int))
        send = ctx.gpu.malloc(max(1, sum(sendcounts) * extent))
        recv = ctx.gpu.malloc(max(1, sum(recvcounts) * extent))
        setup.append((ctx, comm, datatype, sendcounts, senddispls,
                      recvcounts, recvdispls, send, recv))

    def post(start):
        return [
            start(comm)(send, sendcounts, senddispls, recv, recvcounts, recvdispls,
                        sendtypes=datatype, recvtypes=datatype)
            for (ctx, comm, datatype, sendcounts, senddispls,
                 recvcounts, recvdispls, send, recv) in setup
        ]

    bound = post(lambda comm: comm.Alltoallv_init) if persistent else None
    for round_index in range(rounds):
        # Fresh payload every round: a bound template must deliver live bytes.
        for entry in setup:
            ctx, send = entry[0], entry[7]
            rng = np.random.default_rng(seed + 7919 * round_index + ctx.rank)
            send.data[:] = rng.integers(0, 255, send.nbytes, dtype=np.uint8)
        if persistent:
            requests = bound
            for request in requests:
                request.Start()
        else:
            requests = post(lambda comm: comm.Ialltoallv)
        for request in requests:
            request.Wait()
    counters = tuple(
        sum(getattr(entry[1].tempi.stats, name) for entry in setup)
        for name in ("plan_cache_hits", "plan_cache_misses")
    )
    return [(entry[8].data.copy(), entry[0].clock.now) for entry in setup], counters


def _assert_identical(reference, candidate, label):
    for rank, ((ref_bytes, ref_clock), (got_bytes, got_clock)) in enumerate(
        zip(reference, candidate)
    ):
        assert np.array_equal(ref_bytes, got_bytes), (
            f"rank {rank}: delivered bytes diverge with {label}"
        )
        assert ref_clock == got_clock, (
            f"rank {rank}: completion time diverges with {label} "
            f"({ref_clock!r} != {got_clock!r})"
        )


@settings(max_examples=15, deadline=None)
@given(exchange_cases())
def test_caches_never_move_bytes_or_clocks(summit_model, case):
    nranks, nblocks, block, pitch, counts, rounds, seed = case
    strided = nblocks > 1 and pitch > block  # else canonicalized contiguous
    cross_rank = any(
        count for rank, row in enumerate(counts)
        for peer, count in enumerate(row) if peer != rank
    )
    reference = None
    for overrides in CONFIG_GRID:
        config = TempiConfig(**overrides)
        for persistent in (False, True):
            outcome, (hits, misses) = _drive(config, summit_model, nranks, nblocks,
                                             block, pitch, counts, rounds, seed, persistent)
            label = f"TempiConfig(**{overrides}), persistent={persistent}"
            if not persistent:
                assert (hits, misses) == (0, 0), f"a one-shot call counted a template: {label}"
            elif not overrides["plan_cache"]:
                assert (hits, misses) == (0, 0), f"template kept while disabled: {label}"
            elif strided and cross_rank:
                # The restarts must actually exercise the bound template
                # (contiguous vectors fall back and never record one).
                assert hits > 0, "no restart replayed its bound template"
            if reference is None:
                reference = outcome
                continue
            _assert_identical(reference, outcome, label)


@settings(max_examples=10, deadline=None)
@given(
    nranks=st.integers(min_value=3, max_value=4),
    messages=st.integers(min_value=1, max_value=2),
    rounds=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_duplex_incast_caches_never_move_results(summit_model, nranks, messages, rounds, seed):
    """Everyone aims at rank 0 under contended selection + duplex NIC."""
    counts = [[messages if peer == 0 and rank != 0 else 0 for peer in range(nranks)]
              for rank in range(nranks)]
    reference = None
    for overrides in CONFIG_GRID:
        config = TempiConfig(selection="contended", nic="duplex", **overrides)
        for persistent in (False, True):
            outcome, _ = _drive(config, summit_model, nranks, 4, 8, 24, counts, rounds, seed,
                                persistent)
            if reference is None:
                reference = outcome
                continue
            _assert_identical(
                reference, outcome,
                f"incast TempiConfig(**{overrides}), persistent={persistent}",
            )

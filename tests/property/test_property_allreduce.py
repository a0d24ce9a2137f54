"""Property-based test wall: every allreduce schedule equals the naive reference.

The interposer compiles ``Allreduce`` to ring, tree, or hierarchical
:class:`~repro.tempi.plan.MessagePlan` schedules; the system path
(:func:`repro.mpi.collectives.allreduce`) folds all contributions in
ascending-rank order.  Whatever the schedule, the reduced bytes every rank
holds must be identical — byte-for-byte — for any rank count, count, dtype
and reduce op.  The strategies draw only exactly-representable values
(integer-valued floats, wrapping ints), so combine *order* cannot excuse a
byte difference.

The second wall pins the priced clocks: an allreduce's clocks must be
bit-identical whatever the plan-cache, batch-booking, or NIC-ledger
configuration, because collective schedules compile fresh per call and post
one wire message per round.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mpi.datatype import CHAR, DOUBLE, FLOAT, INT, INT64
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose
from repro.tempi.plan import REDUCE_OPS

_DTYPES = (CHAR, INT, INT64, FLOAT, DOUBLE)

#: Interposed schedules under test; the naive system fold is the reference.
_ALGORITHMS = ("ring", "tree", "hierarchical")


def _fill_values(dtype, count: int, seed: int) -> np.ndarray:
    """Exactly-representable contributions: small integers in every dtype.

    Sums and products of a handful of values in ``[-4, 4]`` stay inside the
    exactly-representable integer range of float32 and wrap deterministically
    in the fixed-width ints, so every combine order produces the same bytes.
    """
    rng = np.random.default_rng(seed)
    values = rng.integers(-4, 5, count)
    with np.errstate(over="ignore"):
        return values.astype(dtype.numpy_dtype)


def _run_allreduce(summit_model, nranks, count, datatype, op, seed, *,
                   algorithm=None, config=None):
    """One allreduce world; returns per-rank (clock, reduced bytes)."""

    def program(ctx):
        if algorithm is None:
            comm = ctx.comm
        else:
            cfg = config if config is not None else TempiConfig(allreduce_algorithm=algorithm)
            comm = interpose(ctx, cfg, model=summit_model)
        nbytes = count * datatype.size
        send = ctx.gpu.malloc(nbytes)
        recv = ctx.gpu.malloc(nbytes)
        values = _fill_values(datatype, count, seed + ctx.rank)
        send.data[:nbytes] = values.view(np.uint8)
        comm.Allreduce((send, count, datatype), (recv, count, datatype), op)
        return ctx.clock.now, recv.data[:nbytes].tobytes()

    return World(nranks, ranks_per_node=2).run(program)


@st.composite
def allreduce_cases(draw):
    """A world size, payload shape, dtype, reduce op and fill seed."""
    nranks = draw(st.integers(min_value=1, max_value=5))
    count = draw(st.integers(min_value=1, max_value=96))
    datatype = draw(st.sampled_from(_DTYPES))
    op = draw(st.sampled_from(REDUCE_OPS))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return nranks, count, datatype, op, seed


@settings(max_examples=25, deadline=None)
@given(allreduce_cases())
def test_all_schedules_equal_naive_reference(summit_model, case):
    """Ring, tree and hierarchical reduce to the reference bytes exactly."""
    nranks, count, datatype, op, seed = case
    reference = _run_allreduce(summit_model, nranks, count, datatype, op, seed)
    expected = [row[1] for row in reference]
    for algorithm in _ALGORITHMS:
        rows = _run_allreduce(
            summit_model, nranks, count, datatype, op, seed, algorithm=algorithm
        )
        for rank, (want, (_, got)) in enumerate(zip(expected, rows)):
            assert got == want, (
                f"{algorithm}: rank {rank} reduced bytes diverge from the naive "
                f"reference for {nranks} ranks, count={count}, "
                f"dtype={datatype.numpy_dtype}, op={op}"
            )


@st.composite
def clock_cases(draw):
    """A world size, payload, schedule, and one engine-config perturbation."""
    nranks = draw(st.integers(min_value=2, max_value=5))
    count = draw(st.integers(min_value=1, max_value=4096))
    algorithm = draw(st.sampled_from(_ALGORITHMS))
    perturbation = draw(st.sampled_from(("plan_cache", "nic")))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return nranks, count, algorithm, perturbation, seed


@settings(max_examples=25, deadline=None)
@given(clock_cases())
def test_clocks_invariant_to_engine_config(summit_model, case):
    """Priced clocks are bit-identical across cache/NIC configs.

    Allreduce schedules compile fresh on every call (never consult the plan
    cache) and post exactly one wire message per round, so no engine
    configuration may move a single clock bit.
    """
    nranks, count, algorithm, perturbation, seed = case
    baseline = _run_allreduce(
        summit_model, nranks, count, FLOAT, "sum", seed, algorithm=algorithm
    )
    perturbed_config = {
        "plan_cache": TempiConfig(allreduce_algorithm=algorithm, plan_cache=False),
        "nic": TempiConfig(allreduce_algorithm=algorithm, nic="inject_only"),
    }[perturbation]
    perturbed = _run_allreduce(
        summit_model, nranks, count, FLOAT, "sum", seed,
        algorithm=algorithm, config=perturbed_config,
    )
    assert [row[0] for row in perturbed] == [row[0] for row in baseline], (
        f"{algorithm}: clocks moved under {perturbation} perturbation "
        f"for {nranks} ranks, count={count}"
    )
    assert [row[1] for row in perturbed] == [row[1] for row in baseline], (
        f"{algorithm}: reduced bytes moved under {perturbation} perturbation"
    )

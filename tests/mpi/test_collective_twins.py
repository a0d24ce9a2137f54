"""The twin wall: a blocking collective is its split-phase form waited on at once.

Every collective with an ``I…`` form — ``Alltoallv``, ``Neighbor_alltoallv``,
``Allgather``, ``Allgatherv``, byte and datatype-carrying, plus ``Allreduce``
on the interposer (the system library has no ``Iallreduce``) — is run twice
from a fresh world, once blocking and once as ``I…().Wait()``, on the plain
:class:`~repro.mpi.communicator.Communicator` and through
:class:`~repro.tempi.interposer.TempiCommunicator`'s plan path and each of
its fall-through gates.  The two runs must agree bit for bit in every rank's
virtual clock and received bytes, and an invalid call must raise the same
exception, with the same text, from both forms *at call time*.

The calls themselves (shapes, counts, buffers) are
``tools/make_golden_fixtures.twin_calls`` — the same table the
``collective_twins`` golden section freezes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.mpi.errors import MpiError
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose

TOOLS = Path(__file__).resolve().parent.parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
try:
    from make_golden_fixtures import twin_calls
finally:
    sys.path.remove(str(TOOLS))

RANKS = 4
ROUNDS = 2

#: ``label -> (interposer config or None for the system library, device
#: buffers?, contiguous datatype?)``.  On the interposer, device buffers with
#: a strided datatype compile to plans; everything else is a fall-through.
SETUPS = {
    "system-device": (None, True, False),
    "system-host": (None, False, False),
    "tempi-plan": (TempiConfig(), True, False),
    "tempi-host-buffers": (TempiConfig(), False, False),
    "tempi-contiguous-type": (TempiConfig(), True, True),
    "tempi-disabled": (TempiConfig.disabled(), True, False),
}

TWINS = (
    "alltoallv_byte", "alltoallv_typed",
    "neighbor_alltoallv_byte", "neighbor_alltoallv_typed",
    "allgather_byte", "allgather_typed",
    "allgatherv_byte", "allgatherv_typed",
    "allreduce",
)


def _cases():
    for label, (config, _, _) in SETUPS.items():
        for name in TWINS:
            if name == "allreduce" and config is None:
                continue  # the system library has no Iallreduce
            yield pytest.param(label, name, id=f"{label}-{name}")


def _setup(ctx, label: str, name: str, model):
    """This rank's communicator under ``label`` and its call named ``name``."""
    config, device, contiguous = SETUPS[label]
    comm = ctx.comm if config is None else interpose(ctx, config, model=model)
    (call,) = [
        c for c in twin_calls(ctx, comm, device=device, contiguous=contiguous)
        if c.name == name
    ]
    return comm, call


def _run(label: str, name: str, model, *, split: bool):
    def program(ctx):
        comm, call = _setup(ctx, label, name, model)
        for _ in range(ROUNDS):
            if split:
                call.split(comm).Wait()
            else:
                call.blocking(comm)
        hits = comm.stats.collective_hits if comm is not ctx.comm else 0
        return ctx.clock.now.hex(), call.recv.data.tobytes(), hits

    return World(RANKS, ranks_per_node=2).run(program)


@pytest.mark.parametrize("label, name", _cases())
def test_blocking_is_split_phase_waited_at_once(label, name, summit_model):
    blocking = _run(label, name, summit_model, split=False)
    waited = _run(label, name, summit_model, split=True)
    for rank, (one, other) in enumerate(zip(blocking, waited)):
        assert one[0] == other[0], f"rank {rank}: clocks differ"
        assert one[1] == other[1], f"rank {rank}: received bytes differ"
        assert any(one[1]), f"rank {rank}: nothing was received"
        assert one[2] == other[2], f"rank {rank}: the two forms took different paths"
    # The setups drive the paths their names claim: plans need an enabled
    # interposer and device buffers, plus a strided datatype for the typed
    # exchanges (``Allreduce`` takes an elementary one either way).
    config, device, contiguous = SETUPS[label]
    planned = (
        config is not None and config.enabled and device
        and (name == "allreduce" or (name.endswith("_typed") and not contiguous))
    )
    assert [hits for _, _, hits in blocking] == [ROUNDS if planned else 0] * RANKS


# ---------------------------------------------------------------- invalid calls
def _half_typed(call):
    kwargs = dict(call.kwargs)
    kwargs.pop("recvtypes", kwargs.pop("recvtype", None))
    return call.args, kwargs


def _replace(index, change):
    def mutate(call):
        args = list(call.args)
        args[index] = change(args[index])
        return tuple(args), call.kwargs

    return mutate


def _drop_last(counts):
    return counts[:-1]


def _negate_first(counts):
    return (-1,) + tuple(counts[1:])


#: ``call name -> [(what is wrong, mutation of (args, kwargs))]``.
INVALID = {
    "alltoallv_byte": [("short sendcounts", _replace(1, _drop_last)),
                       ("negative recvcount", _replace(4, _negate_first))],
    "alltoallv_typed": [("half typed", _half_typed),
                        ("short recvcounts", _replace(4, _drop_last)),
                        ("negative sendcount", _replace(1, _negate_first))],
    "neighbor_alltoallv_byte": [("short senddispls", _replace(3, _drop_last))],
    "neighbor_alltoallv_typed": [("half typed", _half_typed),
                                 ("neighbour out of range", _replace(0, lambda n: (n[0], 99)))],
    "allgather_byte": [("negative sendcount", _replace(1, lambda c: -1))],
    "allgather_typed": [("half typed", _half_typed)],
    "allgatherv_byte": [("own count disagrees", _replace(1, lambda c: c + 1)),
                        ("short recvcounts", _replace(3, _drop_last))],
    "allgatherv_typed": [("half typed", _half_typed),
                         ("own count disagrees", _replace(1, lambda c: c + 1))],
    "allreduce": [("extents disagree", _replace(0, lambda spec: (spec[0], 32, spec[2])))],
}


def _invalid_cases():
    for label in ("system-device", "tempi-plan", "tempi-host-buffers"):
        for name, mutations in INVALID.items():
            if name == "allreduce" and SETUPS[label][0] is None:
                continue
            for what, mutate in mutations:
                yield pytest.param(label, name, mutate, id=f"{label}-{name}-{what.replace(' ', '_')}")


@pytest.mark.parametrize("label, name, mutate", _invalid_cases())
def test_invalid_call_raises_the_same_error_from_both_forms(label, name, mutate, summit_model):
    def program(ctx):
        comm, call = _setup(ctx, label, name, summit_model)
        args, kwargs = mutate(call)
        bad = call._replace(args=args, kwargs=kwargs)
        with pytest.raises(MpiError) as blocking:
            bad.blocking(comm)
        with pytest.raises(MpiError) as split:
            bad.split(comm)  # at call time: no Wait
        assert type(blocking.value) is type(split.value)
        assert str(blocking.value) == str(split.value)
        # Neither failed call left a message behind.
        assert ctx.comm.Probe() is None
        return True

    assert all(World(2, ranks_per_node=2).run(program))

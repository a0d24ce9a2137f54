"""Malformed-input wall of the datatype constructors and the message spec.

Every integer argument of a constructor — counts, blocklengths, strides,
sizes/subsizes/starts, displacements, the storage order, ``lb`` and
``extent`` — obeys one rule (``check_int``): an ``int`` or a NumPy integer,
never a ``bool``, a float, a string or ``None``.  Anything else raises
:class:`MpiTypeError` whose message opens with the argument's name (an
element of a sequence is named by its index), instead of being truncated
(``2.5`` → 2), parsed (``"4"`` → 4) or escaping as a bare ``TypeError``.
The count of a ``(buffer, count, datatype)`` message spec follows the same
rule on the system and the TEMPI communicator and raises
:class:`MpiArgumentError` naming ``count``; so do the neighbours, counts,
displacements and ``sendcount`` of every v-collective, blocking, nonblocking
and persistent (``sendcounts[1]``, ``recvdispls[0]`` …), where ``int()``
used to truncate a float and accept a bool or a string.  ``Pack_size``
checks its count the same way and its datatype as ``Type_commit`` does
(``datatype: expected a Datatype``), where ``Pack_size(2.5, FLOAT)`` returned
``10.0``; a v-collective's list of datatypes names its bad element
(``sendtypes[1]: expected a Datatype, got 'x'``).  ``Allreduce`` raises
the same error with the same message on both communicators before anything
is charged: :class:`MpiArgumentError` for an unknown ``op``, and
:class:`MpiTypeError` naming both datatypes unless both are elementary with
one element type, where a FLOAT send reduced into an INT receive used to sum
bit patterns and a derived send type was copied as contiguous bytes.
A freed, uncommitted or non-datatype argument raises the same
``MpiError`` on both communicators at every gate a datatype reaches:
``Pack``, ``Unpack``, ``Pack_size``, ``Type_commit``, the point-to-point
calls, ``Bcast`` and the v-collectives.  ``Allgather``'s and
``Allgatherv``'s one-datatype arguments are checked as ``Type_commit``
checks its datatype (``sendtype: expected a Datatype, got int``), and a
``sendtypes``/``recvtypes`` that is neither a datatype nor a sequence
names itself.  Both raised a bare ``AttributeError`` or ``TypeError``
there, and for a non-datatype ``sendtype`` the TEMPI ``Allgather(v)``
raised another error than the system one.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.constructors import (
    Type_contiguous,
    Type_create_hindexed,
    Type_create_hvector,
    Type_create_resized,
    Type_create_struct,
    Type_create_subarray,
    Type_indexed,
    Type_vector,
)
from repro.mpi.datatype import (
    BYTE, CHAR, DOUBLE, FLOAT, INT, INT64, ORDER_C, SHORT, UNSIGNED, Datatype,
)
from repro.mpi.errors import MpiArgumentError, MpiError, MpiTypeError
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose
from repro.tempi.plan import REDUCE_OPS

#: Each constructor with well-formed keyword arguments, and which of them are
#: integer scalars, integer sequences and datatypes.
CONSTRUCTORS = {
    "contiguous": (Type_contiguous, {"count": 4, "oldtype": FLOAT}),
    "vector": (Type_vector, {"count": 4, "blocklength": 1, "stride": 2, "oldtype": BYTE}),
    "hvector": (
        Type_create_hvector, {"count": 4, "blocklength": 1, "stride_bytes": 8, "oldtype": BYTE},
    ),
    "subarray": (
        Type_create_subarray,
        {"sizes": (4, 8), "subsizes": (2, 4), "starts": (1, 2), "order": ORDER_C, "oldtype": BYTE},
    ),
    "indexed": (Type_indexed, {"blocklengths": (1, 2), "displacements": (0, 4), "oldtype": FLOAT}),
    "hindexed": (
        Type_create_hindexed, {"blocklengths": (1, 2), "displacements": (0, 16), "oldtype": FLOAT},
    ),
    "struct": (
        Type_create_struct,
        {"blocklengths": (1, 2), "displacements": (0, 8), "datatypes": (FLOAT, DOUBLE)},
    ),
    "resized": (Type_create_resized, {"oldtype": FLOAT, "lb": 0, "extent": 8}),
}
SEQUENCES = {"sizes", "subsizes", "starts", "blocklengths", "displacements", "datatypes"}
DATATYPES = {"oldtype", "datatypes"}

#: Values no integer argument accepts, integral floats and bools included.
non_integers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(alphabet="0123456789", min_size=1, max_size=3),
    st.none(),
    st.just(np.float64(2.0)),
    st.just([2]),
)
non_datatypes = st.one_of(st.integers(), st.none(), st.text(max_size=3), st.just(np.dtype("uint8")))


@st.composite
def malformed_calls(draw):
    """``(constructor, kwargs, name)``: a well-formed call with one argument broken."""
    constructor, valid = CONSTRUCTORS[draw(st.sampled_from(sorted(CONSTRUCTORS)))]
    kwargs = dict(valid)
    arg = draw(st.sampled_from(sorted(kwargs)))
    bad = non_datatypes if arg in DATATYPES else non_integers
    if arg in SEQUENCES and draw(st.booleans()):
        index = draw(st.integers(min_value=0, max_value=len(kwargs[arg]) - 1))
        values = list(kwargs[arg])
        values[index] = draw(bad)
        kwargs[arg] = draw(st.sampled_from([tuple, list]))(values)
        return constructor, kwargs, f"{arg}[{index}]"
    if arg in SEQUENCES:
        # Not a sequence, or (a string) one whose first element is no integer.
        kwargs[arg] = draw(st.one_of(st.integers(), st.none(), st.floats(), st.text(min_size=1)))
    else:
        kwargs[arg] = draw(bad)
    return constructor, kwargs, arg


class TestConstructorArguments:
    @settings(max_examples=400, deadline=None)
    @given(case=malformed_calls())
    def test_a_broken_argument_is_named(self, case):
        constructor, kwargs, name = case
        with pytest.raises(MpiTypeError, match=rf"^{re.escape(name)}(?!\w)"):
            constructor(**kwargs)

    @pytest.mark.parametrize("width", [np.int32, np.int64])
    @pytest.mark.parametrize("which", sorted(CONSTRUCTORS))
    def test_numpy_integers_build_what_ints_build(self, which, width):
        constructor, valid = CONSTRUCTORS[which]

        def widen(value):
            if type(value) is int:
                return width(value)
            if isinstance(value, tuple) and type(value[0]) is int:
                return np.array(value, dtype=width)
            return value

        def typed(envelope: dict) -> dict:
            return {arg: [(type(v), v) for v in (value if isinstance(value, tuple) else (value,))]
                    for arg, value in envelope.items()}

        plain = constructor(**valid)
        numpy = constructor(**{arg: widen(value) for arg, value in valid.items()})
        assert typed(numpy.Get_envelope()[1]) == typed(plain.Get_envelope()[1])
        assert (numpy.size, numpy.extent, numpy.lb) == (plain.size, plain.extent, plain.lb)

    @pytest.mark.parametrize(
        "build, name",
        [
            pytest.param(lambda: Type_vector(4, 1, 2.5, BYTE), "stride", id="vector-stride-2.5"),
            pytest.param(lambda: Type_vector(4, 1, "2", BYTE), "stride", id="vector-stride-str"),
            pytest.param(lambda: Type_create_hvector(4, 1, 2.5, BYTE), "stride_bytes",
                         id="hvector-stride-2.5"),
            pytest.param(lambda: Type_create_subarray((4.9, 8), (2, 4), (0, 0), ORDER_C, BYTE),
                         "sizes[0]", id="subarray-size-4.9"),
            pytest.param(lambda: Type_create_subarray(("4", 8), (2, 4), (0, 0), ORDER_C, BYTE),
                         "sizes[0]", id="subarray-size-str"),
            pytest.param(lambda: Type_create_subarray((True, 8), (1, 4), (0, 0), ORDER_C, BYTE),
                         "sizes[0]", id="subarray-size-bool"),
            pytest.param(lambda: Type_create_resized(FLOAT, 0, 6.5), "extent", id="resized-extent-6.5"),
        ],
    )
    def test_the_reported_truncations_raise(self, build, name):
        with pytest.raises(MpiTypeError, match=rf"^{re.escape(name)} must be an integer"):
            build()


# --------------------------------------------------------------------------- #
# The count of a message spec, on both communicators.
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def rank0():
    """A 2-rank world; rank 0's communicators, a device buffer and a committed type."""
    world = World(2)
    ctx = world.contexts[0]
    tempi = interpose(ctx, TempiConfig())
    comms = {"system": ctx.comm, "tempi": tempi}
    return world, comms, ctx.gpu.malloc(64), tempi.Type_commit(Type_vector(2, 1, 2, BYTE))


class TestMessageCount:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["system", "tempi"]),
        op=st.sampled_from(["Send", "Isend", "Recv", "Irecv"]),
        count=non_integers | st.just(0.5) | st.just(1.5),
    )
    def test_a_non_integer_count_is_named(self, rank0, kind, op, count):
        world, comms, buffer, datatype = rank0

        def attempt(ctx) -> None:
            if ctx.rank != 0:
                return
            with pytest.raises(MpiArgumentError, match=r"^count must be an integer, got "):
                request = getattr(comms[kind], op)((buffer, count, datatype), 1, 0)
                # The system ``Irecv`` resolves its spec when it completes.
                request.Wait()

        # Inside a run, a receive that accepted the count fails as a deadlock.
        world.run(attempt)

    def test_a_numpy_count_resolves_to_an_int(self, rank0):
        _, comms, buffer, datatype = rank0
        _, count, _ = comms["system"]._resolve((buffer, np.int64(3), datatype))
        assert type(count) is int and count == 3


class TestPackSize:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["system", "tempi"]),
        count=non_integers | st.just(0.5) | st.just(2.5),
    )
    def test_a_non_integer_count_is_named(self, rank0, kind, count):
        _, comms, _, datatype = rank0
        with pytest.raises(MpiArgumentError, match=r"^count must be an integer, got "):
            comms[kind].Pack_size(count, datatype)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["system", "tempi"]), datatype=non_datatypes)
    def test_a_non_datatype_is_named(self, rank0, kind, datatype):
        _, comms, _, _ = rank0
        with pytest.raises(MpiTypeError, match=r"^datatype: expected a Datatype, got "):
            comms[kind].Pack_size(1, datatype)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["system", "tempi"]),
        count=st.integers(-4, 1 << 20),
        numpy=st.booleans(),
        datatype=st.sampled_from([BYTE, FLOAT, DOUBLE, Type_vector(3, 2, 5, FLOAT)]),
    )
    def test_an_integer_count_is_priced_and_positivity_stays(
        self, rank0, kind, count, numpy, datatype
    ):
        _, comms, _, _ = rank0
        pack_size = comms[kind].Pack_size
        drawn = np.int64(count) if numpy else count
        if count <= 0:
            with pytest.raises(MpiTypeError, match=r"^count must be positive, got "):
                pack_size(drawn, datatype)
        else:
            size = pack_size(drawn, datatype)
            assert type(size) is int and size == count * datatype.size

    def test_the_reported_cases_raise(self, rank0):
        _, comms, _, _ = rank0
        for comm in comms.values():
            assert comm.Pack_size(3, FLOAT) == 12
            for count in (2.5, True, "3"):
                with pytest.raises(MpiArgumentError, match="^count must be an integer"):
                    comm.Pack_size(count, FLOAT)
            for datatype in ("MPI_FLOAT", None, 4):
                with pytest.raises(MpiTypeError, match="^datatype: expected a Datatype"):
                    comm.Pack_size(1, datatype)


# --------------------------------------------------------------------------- #
# Peers, counts and displacements of the v-collectives, on both communicators.
# --------------------------------------------------------------------------- #

#: Positional arguments of each collective, in call order.
V_SIGNATURES = {
    "alltoallv": ("sendbuf", "sendcounts", "senddispls", "recvbuf", "recvcounts", "recvdispls"),
    "neighbor_alltoallv": (
        "neighbors", "sendbuf", "sendcounts", "senddispls", "recvbuf", "recvcounts", "recvdispls",
    ),
    "allgather": ("sendbuf", "sendcount", "recvbuf"),
    "allgatherv": ("sendbuf", "sendcount", "recvbuf", "recvcounts", "recvdispls"),
}
#: ``(collective, form)`` -> the communicator method.
V_METHODS = {
    ("alltoallv", "blocking"): "Alltoallv",
    ("alltoallv", "nonblocking"): "Ialltoallv",
    ("alltoallv", "persistent"): "Alltoallv_init",
    ("neighbor_alltoallv", "blocking"): "Neighbor_alltoallv",
    ("neighbor_alltoallv", "nonblocking"): "Ineighbor_alltoallv",
    ("neighbor_alltoallv", "persistent"): "Neighbor_alltoallv_init",
    ("allgather", "blocking"): "Allgather",
    ("allgather", "nonblocking"): "Iallgather",
    ("allgatherv", "blocking"): "Allgatherv",
    ("allgatherv", "nonblocking"): "Iallgatherv",
}
#: ``(collective, argument, index or None, bad value, the name in the message)``.
V_ARGUMENTS = [
    ("alltoallv", "sendcounts", 1, 1.9, "sendcounts[1]"),
    ("alltoallv", "sendcounts", 0, True, "sendcounts[0]"),
    ("alltoallv", "recvcounts", 1, "1", "recvcounts[1]"),
    ("alltoallv", "senddispls", 1, 8.0, "senddispls[1]"),
    ("alltoallv", "recvdispls", 0, np.float64(0), "recvdispls[0]"),
    ("neighbor_alltoallv", "neighbors", 0, 1.0, "neighbors[0]"),
    ("neighbor_alltoallv", "recvcounts", 0, None, "recvcounts[0]"),
    ("allgather", "sendcount", None, 2.7, "sendcount"),
    ("allgather", "sendcount", None, "2", "sendcount"),
    ("allgatherv", "sendcount", None, 1.0, "sendcount"),
    ("allgatherv", "recvcounts", 1, 1.5, "recvcounts[1]"),
    ("allgatherv", "recvdispls", 1, False, "recvdispls[1]"),
]


def v_arguments(collective: str, sendbuf, recvbuf, **values) -> list:
    """Well-formed positional arguments of ``collective`` on a 2-rank world."""
    valid = {
        "sendbuf": sendbuf, "recvbuf": recvbuf, "neighbors": [1, 0], "sendcount": 1,
        "sendcounts": [1, 1], "senddispls": [0, 8], "recvcounts": [1, 1], "recvdispls": [0, 8],
    }
    valid.update(values)
    return [valid[name] for name in V_SIGNATURES[collective]]


def v_types(collective: str, datatype) -> dict:
    if collective == "allgather":
        return {"sendtype": datatype, "recvtype": datatype}
    if collective == "allgatherv":
        return {"sendtype": datatype, "recvtypes": datatype}
    return {"sendtypes": datatype, "recvtypes": datatype}


def v_call(comm, collective: str, form: str, args: list, types: dict) -> None:
    """Run ``collective`` in ``form`` to completion."""
    request = getattr(comm, V_METHODS[collective, form])(*args, **types)
    if form == "persistent":
        request.Start()
    if form != "blocking":
        request.Wait()


#: Every broken argument in every form its collective has.
V_CASES = [
    pytest.param(form, *case, id=f"{form}-{case[0]}-{case[4]}-{case[3]!r}")
    for case in V_ARGUMENTS
    for form in ("blocking", "nonblocking", "persistent")
    if (case[0], form) in V_METHODS
]


class TestVCollectiveArguments:
    @pytest.mark.parametrize("kind", ["system", "tempi"])
    @pytest.mark.parametrize("form, collective, arg, index, bad, name", V_CASES)
    def test_a_non_integer_is_named(self, rank0, kind, form, collective, arg, index, bad, name):
        world, comms, buffer, datatype = rank0
        args = v_arguments(collective, buffer, buffer)
        position = V_SIGNATURES[collective].index(arg)
        if index is None:
            args[position] = bad
        else:
            args[position] = list(args[position])
            args[position][index] = bad

        def attempt(ctx) -> None:
            if ctx.rank == 0:
                with pytest.raises(MpiArgumentError, match=rf"^{re.escape(name)} must be an integer"):
                    v_call(comms[kind], collective, form, args, v_types(collective, datatype))

        world.run(attempt)

    @pytest.mark.parametrize("kind", ["system", "tempi"])
    @pytest.mark.parametrize("collective", sorted(V_SIGNATURES))
    def test_numpy_integers_move_what_ints_move(self, kind, collective):
        def received(widen) -> list:
            world = World(2)

            def program(ctx) -> bytes:
                comm = ctx.comm if kind == "system" else interpose(ctx, TempiConfig())
                datatype = comm.Type_commit(Type_vector(2, 1, 2, BYTE))
                send, recv = ctx.gpu.malloc(64), ctx.gpu.malloc(64)
                send.data[:] = np.arange(64, dtype=np.uint8) + 64 * ctx.rank
                values = {name: widen(value) for name, value in (
                    ("neighbors", [1 - ctx.rank, 1 - ctx.rank]), ("sendcount", 1),
                    ("sendcounts", [1, 1]), ("senddispls", [0, 8]),
                    ("recvcounts", [1, 1]), ("recvdispls", [0, 8]),
                )}
                args = v_arguments(collective, send, recv, **values)
                v_call(comm, collective, "blocking", args, v_types(collective, datatype))
                return recv.data.tobytes()

            return world.run(program)

        def to_numpy(value):
            return np.int64(value) if type(value) is int else list(np.array(value, dtype=np.int64))

        assert received(to_numpy) == received(lambda value: value)


#: ``(collective, form)`` of every v-collective that takes a list of datatypes,
#: and the list arguments it takes.
V_TYPE_LISTS = [
    pytest.param(form, collective, arg, id=f"{form}-{collective}-{arg}")
    for collective, args in (
        ("alltoallv", ("sendtypes", "recvtypes")),
        ("neighbor_alltoallv", ("sendtypes", "recvtypes")),
        ("allgatherv", ("recvtypes",)),
    )
    for arg in args
    for form in ("blocking", "nonblocking", "persistent")
    if (collective, form) in V_METHODS
]


class TestVCollectiveTypeLists:
    @pytest.mark.parametrize("kind", ["system", "tempi"])
    @pytest.mark.parametrize("form, collective, arg", V_TYPE_LISTS)
    def test_a_non_datatype_element_is_named(self, rank0, kind, form, collective, arg):
        world, comms, buffer, datatype = rank0
        args = v_arguments(collective, buffer, buffer)
        types = v_types(collective, datatype)
        types[arg] = [datatype, "x"]

        def attempt(ctx) -> None:
            if ctx.rank == 0:
                message = rf"^{arg}\[1\]: expected a Datatype, got 'x'$"
                with pytest.raises(MpiArgumentError, match=message):
                    v_call(comms[kind], collective, form, args, types)

        world.run(attempt)


# --------------------------------------------------------------------------- #
# Allreduce's op and datatypes, on both communicators.
# --------------------------------------------------------------------------- #

ELEMENTARY = [BYTE, CHAR, SHORT, INT, INT64, UNSIGNED, FLOAT, DOUBLE]
#: Two elements of each fit the 64-byte buffer of ``rank0``.
DERIVED = [Type_vector(2, 1, 2, FLOAT), Type_contiguous(2, FLOAT), Type_create_resized(FLOAT, 0, 8)]


def _allreduce_error(comm, buffer, send, recv, op) -> tuple:
    """``(class, message)`` of the error ``Allreduce`` raises, or ``None``."""
    try:
        comm.Allreduce((buffer, 2, send), (buffer, 2, recv), op)
    except MpiError as exc:
        return type(exc), str(exc)
    return None


class TestAllreduceArguments:
    @settings(max_examples=150, deadline=None)
    @given(
        send=st.sampled_from(ELEMENTARY + DERIVED),
        recv=st.sampled_from(ELEMENTARY + DERIVED),
        op=st.sampled_from(REDUCE_OPS) | st.text(max_size=6),
    )
    def test_both_communicators_raise_the_same_error(self, rank0, send, recv, op):
        world, comms, buffer, _ = rank0
        elementary = send in ELEMENTARY and recv in ELEMENTARY
        if op in REDUCE_OPS and elementary and send.numpy_dtype == recv.numpy_dtype:
            return  # a well-formed call: the property wall's business
        errors = {}

        def attempt(ctx) -> None:
            if ctx.rank == 0:
                errors.update(
                    (kind, _allreduce_error(comm, buffer, send, recv, op))
                    for kind, comm in comms.items()
                )

        world.run(attempt)
        assert errors["system"] == errors["tempi"]
        cls, message = errors["tempi"]
        if op not in REDUCE_OPS:
            assert cls is MpiArgumentError and message.startswith(f"unsupported reduction {op!r}")
        else:
            assert cls is MpiTypeError
            for datatype in (send, recv):
                name = datatype.name if elementary else "a derived "
                assert name in message

    def test_the_reported_cases_raise(self, rank0):
        world, comms, buffer, _ = rank0
        vector = Type_vector(2, 1, 2, FLOAT)
        cases = [
            (FLOAT, INT, "sum", MpiTypeError, "got send MPI_FLOAT and recv MPI_INT"),
            (vector, FLOAT, "sum", MpiTypeError, "got send a derived vector type and recv MPI_FLOAT"),
            (FLOAT, FLOAT, "avg", MpiArgumentError, "unsupported reduction 'avg'"),
        ]

        def attempt(ctx) -> None:
            if ctx.rank != 0:
                return
            for send, recv, op, cls, text in cases:
                for comm in comms.values():
                    with pytest.raises(cls, match=re.escape(text)):
                        comm.Allreduce((buffer, 2, send), (buffer, 2, recv), op)

        world.run(attempt)


# --------------------------------------------------------------------------- #
# A bad datatype at every interposer gate, on both communicators.
# --------------------------------------------------------------------------- #

#: Gates rank 0 calls alone, gates from rank 0 to rank 1, and collectives.
LOCAL_GATES = ("Pack", "Unpack", "Pack_size", "Type_commit")
P2P_GATES = ("Isend", "Irecv", "Send_init", "Recv_init")
COLLECTIVE_GATES = ("Bcast", "Allgather", "Allgatherv", "Alltoallv", "Neighbor_alltoallv")


def _freed_vector():
    datatype = Type_vector(2, 1, 2, BYTE)
    datatype.Commit()
    datatype.Free()
    return datatype


#: A freed datatype, an uncommitted one, or something that is no datatype.
bad_datatypes = st.one_of(
    st.builds(_freed_vector),
    st.builds(Type_vector, st.just(2), st.just(1), st.just(2), st.just(BYTE)),
    non_datatypes,
    st.floats(allow_nan=False),
    st.lists(st.integers(0, 4), min_size=1, max_size=2),
)


def _run_gate(comm, rank: int, gate: str, side: str, buffer, bad, good) -> None:
    """Call ``gate`` with ``bad`` as its datatype on ``side`` and run it to completion.

    A local gate runs on rank 0; a point-to-point gate runs on rank 0 against
    a well-formed partner on rank 1 (which sends first to a receiving gate,
    so an accepted receive completes, and a refused one drains the send with
    a well-formed receive before it re-raises); a collective runs on both
    ranks.
    """
    if gate in LOCAL_GATES or gate in P2P_GATES:
        if rank == 1:
            if gate in ("Irecv", "Recv_init"):
                comm.Isend((buffer, 1, good), 0, 0).Wait()
            return
        if gate == "Pack":
            comm.Pack((buffer, 1, bad), buffer, 0)
        elif gate == "Unpack":
            comm.Unpack(buffer, 0, (buffer, 1, bad))
        elif gate == "Pack_size":
            comm.Pack_size(1, bad)
        elif gate == "Type_commit":
            comm.Type_commit(bad)
        else:
            try:
                if gate.endswith("_init"):
                    request = getattr(comm, gate)((buffer, 1, bad), 1, 0)
                    try:
                        request.Start()
                        request.Wait()
                    finally:
                        request.Free()
                else:
                    getattr(comm, gate)((buffer, 1, bad), 1, 0).Wait()
            except MpiError:
                if gate in ("Irecv", "Recv_init"):
                    comm.Recv((buffer, 1, good), 1, 0)
                raise
        return
    send, recv = (bad, good) if side == "send" else (good, bad)
    if gate == "Bcast":
        comm.Bcast((buffer, 1, bad), 0)
    elif gate == "Allgather":
        comm.Allgather(buffer, 1, buffer, sendtype=send, recvtype=recv)
    elif gate == "Allgatherv":
        comm.Allgatherv(buffer, 1, buffer, [1, 1], [0, 8], sendtype=send, recvtypes=recv)
    elif gate == "Alltoallv":
        comm.Alltoallv(buffer, [1, 1], [0, 8], buffer, [1, 1], [0, 8], sendtypes=send, recvtypes=recv)
    else:
        comm.Neighbor_alltoallv(
            [1 - rank], buffer, [1], [0], buffer, [1], [0], sendtypes=send, recvtypes=recv
        )


def _gate_outcome(kind: str, gate: str, side: str, bad) -> tuple:
    """Per rank of a fresh 2-rank world: ``(class, message)`` of what the gate raised, or None."""

    def attempt(ctx):
        comm = ctx.comm if kind == "system" else interpose(ctx, TempiConfig())
        good = comm.Type_commit(Type_vector(2, 1, 2, BYTE))
        try:
            _run_gate(comm, ctx.rank, gate, side, ctx.gpu.malloc(64), bad, good)
        except MpiError as exc:
            return type(exc), str(exc)
        return None

    return tuple(World(2).run(attempt))


class TestDatatypeGates:
    """A freed, uncommitted or non-datatype argument raises the same error on
    both communicators at every gate, and that error is an ``MpiError``."""

    @settings(max_examples=150, deadline=None)
    @given(
        gate=st.sampled_from(LOCAL_GATES + P2P_GATES + COLLECTIVE_GATES),
        side=st.sampled_from(["send", "recv"]),
        bad=bad_datatypes,
    )
    def test_both_communicators_raise_the_same_error(self, gate, side, bad):
        system = _gate_outcome("system", gate, side, bad)
        assert _gate_outcome("tempi", gate, side, bad) == system
        uncommitted = isinstance(bad, Datatype) and not bad.freed
        if gate in ("Pack_size", "Type_commit") and uncommitted:
            assert system == (None, None)  # neither needs a committed type
        else:
            assert system[0] is not None

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
:class:`MpiArgumentError` naming ``count``.
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
from repro.mpi.datatype import BYTE, DOUBLE, FLOAT, ORDER_C
from repro.mpi.errors import MpiArgumentError, MpiTypeError
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose

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

"""MPI datatypes: the base class and the named (predefined) types.

A datatype describes a set of ``(offset, primitive)`` pairs — the *type map*
of the MPI standard — together with a *lower bound* and an *extent* that
govern how successive elements of the type are laid out.  Derived types
(contiguous, vector, hvector, subarray, indexed, struct) are built by the
constructors in :mod:`repro.mpi.constructors`; this module provides:

* :class:`Datatype`, which carries ``size``/``extent``/``lb`` and the
  *envelope* (combiner + constructor arguments) that TEMPI's translation
  phase reads back, mirroring ``MPI_Type_get_envelope``/``contents``;
* :class:`NamedDatatype` and the predefined instances (``BYTE``, ``FLOAT``,
  ``DOUBLE`` …).

``Commit`` is deliberately a minor operation here: the *system* MPI commits a
type by doing nothing interesting, exactly like the paper's baseline, and it
is the TEMPI interposer that attaches an expensive-but-worth-it handler at
commit time (Sec. 3).
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.mpi.errors import MpiTypeError

#: Array storage orders accepted by ``Type_create_subarray``.
ORDER_C = 0
ORDER_FORTRAN = 1

_type_ids = itertools.count(1)


class Combiner(enum.Enum):
    """How a datatype was constructed (``MPI_Type_get_envelope`` combiners)."""

    NAMED = "named"
    CONTIGUOUS = "contiguous"
    VECTOR = "vector"
    HVECTOR = "hvector"
    SUBARRAY = "subarray"
    INDEXED = "indexed"
    HINDEXED = "hindexed"
    STRUCT = "struct"
    RESIZED = "resized"


class Datatype:
    """Base class of every MPI datatype in the simulation.

    Parameters
    ----------
    size:
        Number of payload bytes in one element of the type (the sum of the
        lengths in its type map).
    extent:
        Distance in bytes between successive elements of the type in a
        buffer (``ub - lb``).
    lb:
        Lower bound: byte offset of the first byte relative to the buffer
        position the element is addressed at.
    combiner:
        How the type was constructed.
    children:
        Constituent datatypes (empty for named types).
    """

    def __init__(
        self,
        size: int,
        extent: int,
        combiner: Combiner,
        children: tuple["Datatype", ...] = (),
        lb: int = 0,
    ) -> None:
        if size < 0:
            raise MpiTypeError(f"datatype size must be non-negative, got {size}")
        if extent < 0:
            raise MpiTypeError(f"datatype extent must be non-negative, got {extent}")
        self.size = int(size)
        self.extent = int(extent)
        self.lb = int(lb)
        self.combiner = combiner
        self.children = children
        self.committed = False
        self.freed = False
        self.handle = next(_type_ids)
        #: Arbitrary slot for an interposer to attach a committed handler
        #: (TEMPI stores its packer / strided-block record here).
        self.attachment: Optional[object] = None

    # ----------------------------------------------------------------- basics
    @property
    def ub(self) -> int:
        """Upper bound (``lb + extent``)."""
        return self.lb + self.extent

    @property
    def is_named(self) -> bool:
        """True for predefined (leaf) types."""
        return self.combiner is Combiner.NAMED

    @property
    def is_contiguous_bytes(self) -> bool:
        """True when one element occupies ``size`` adjacent bytes with no holes."""
        return self.size == self.extent and self._dense()

    def _dense(self) -> bool:
        """Whether the type map covers its extent without gaps (overridable)."""
        blocks = list(self.layout())
        covered = sum(length for _, length in blocks)
        return covered == self.extent

    # --------------------------------------------------------------- lifecycle
    def Commit(self) -> "Datatype":
        """Mark the type ready for use in communication (``MPI_Type_commit``)."""
        self._check_alive()
        self.committed = True
        return self

    def Free(self) -> None:
        """Release the type (``MPI_Type_free``)."""
        self.freed = True
        self.attachment = None

    def _check_alive(self) -> None:
        if self.freed:
            raise MpiTypeError("datatype used after MPI_Type_free")

    def _check_committed(self) -> None:
        self._check_alive()
        if not self.committed:
            raise MpiTypeError(
                f"datatype {self!r} used in communication before MPI_Type_commit"
            )

    # ----------------------------------------------------------------- layout
    def layout(self) -> Iterator[tuple[int, int]]:
        """Yield the type map as ``(byte offset, byte length)`` pairs.

        Offsets are relative to the element's addressed position (i.e. they
        include ``lb``).  Adjacent blocks are *not* merged here; use
        :func:`repro.mpi.typemap.flatten` for a merged block list.
        """
        raise NotImplementedError

    def child_layout(self) -> Iterator[tuple[int, "Datatype"]]:
        """Yield ``(byte offset, child datatype)`` pairs in type-map order.

        Named types yield nothing; derived types yield one entry per child
        placement.  This is the hook both the flattener and TEMPI's
        translation use to walk a type without knowing its concrete class.
        """
        raise NotImplementedError

    def block_count(self) -> int:
        """Number of maximal contiguous blocks in the type map.

        Computed analytically (no enumeration), so it is cheap even for the
        multi-million-block datatypes of Fig. 8 — this is what the baseline
        cost accounting multiplies by the per-``cudaMemcpyAsync`` overhead.
        """
        raise NotImplementedError

    # ------------------------------------------------------------- convenience
    def Get_size(self) -> int:
        """``MPI_Type_size``."""
        return self.size

    def Get_extent(self) -> tuple[int, int]:
        """``MPI_Type_get_extent``: returns ``(lb, extent)``."""
        return self.lb, self.extent

    def Get_envelope(self) -> tuple[Combiner, dict]:
        """Combiner and constructor arguments (``MPI_Type_get_envelope``/``contents``)."""
        return self.combiner, self._envelope()

    def _envelope(self) -> dict:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} #{self.handle} {self.combiner.value} "
            f"size={self.size} extent={self.extent}>"
        )


class NamedDatatype(Datatype):
    """A predefined MPI type corresponding to a C type (``MPI_FLOAT`` …)."""

    def __init__(self, name: str, size: int, numpy_dtype: Optional[str] = None) -> None:
        super().__init__(size=size, extent=size, combiner=Combiner.NAMED)
        self.name = name
        self.numpy_dtype = np.dtype(numpy_dtype) if numpy_dtype is not None else None
        self.committed = True  # predefined types are always committed

    def layout(self) -> Iterator[tuple[int, int]]:
        yield (0, self.size)

    def child_layout(self) -> Iterator[tuple[int, Datatype]]:
        return iter(())

    def block_count(self) -> int:
        return 1

    def _dense(self) -> bool:
        return True

    def _envelope(self) -> dict:
        return {"name": self.name, "size": self.size}

    def __repr__(self) -> str:
        return f"<NamedDatatype {self.name} ({self.size} B)>"


#: Predefined types.  Sizes follow the usual LP64 C ABI the paper's platform uses.
BYTE = NamedDatatype("MPI_BYTE", 1, "uint8")
CHAR = NamedDatatype("MPI_CHAR", 1, "int8")
SHORT = NamedDatatype("MPI_SHORT", 2, "int16")
INT = NamedDatatype("MPI_INT", 4, "int32")
INT64 = NamedDatatype("MPI_INT64_T", 8, "int64")
UNSIGNED = NamedDatatype("MPI_UNSIGNED", 4, "uint32")
FLOAT = NamedDatatype("MPI_FLOAT", 4, "float32")
DOUBLE = NamedDatatype("MPI_DOUBLE", 8, "float64")

#: All predefined instances, keyed by their MPI name.
NAMED_TYPES: dict[str, NamedDatatype] = {
    t.name: t for t in (BYTE, CHAR, SHORT, INT, INT64, UNSIGNED, FLOAT, DOUBLE)
}


def check_int(value: object, what: str, error: type[Exception] = MpiTypeError) -> int:
    """The one integer rule: an ``int`` or NumPy integer, never a ``bool``.

    Raises ``error`` naming ``what`` for anything else.  Hot callers test
    ``type(value) is int`` first and call this only otherwise, so a plain
    ``int`` argument costs no call and a NumPy integer one call.
    """
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise error(f"{what} must be an integer, got {value!r}")


def check_positive_count(count: int, what: str = "count") -> int:
    """Validate a strictly positive count argument (shared by constructors)."""
    if type(count) is not int:
        count = check_int(count, what)
    if count <= 0:
        raise MpiTypeError(f"{what} must be positive, got {count}")
    return count


def check_datatype(oldtype: Datatype, what: str = "oldtype") -> Datatype:
    """Validate a datatype argument; ``what`` names it in the error."""
    if not isinstance(oldtype, Datatype):
        raise MpiTypeError(f"{what}: expected a Datatype, got {type(oldtype).__name__}")
    oldtype._check_alive()
    return oldtype


def check_order(order: int) -> int:
    """Validate a subarray storage order."""
    if type(order) is not int:
        order = check_int(order, "order")
    if order not in (ORDER_C, ORDER_FORTRAN):
        raise MpiTypeError(f"order must be ORDER_C or ORDER_FORTRAN, got {order!r}")
    return order


def sequence_of_ints(values: Sequence[int], what: str) -> tuple[int, ...]:
    """Validate an integer sequence argument (sizes, subsizes, displacements …).

    Every element goes through :func:`check_int`, named by its index.
    """
    try:
        result = tuple(values)
    except TypeError as exc:
        raise MpiTypeError(f"{what} must be a sequence of integers, got {values!r}") from exc
    for value in result:
        if type(value) is not int:  # convert, or reject naming the index
            return tuple([check_int(v, f"{what}[{i}]") for i, v in enumerate(result)])
    return result

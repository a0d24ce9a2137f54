"""TEMPI's internal representation (IR) of datatypes.

Section 3.1 of the paper: a committed MPI datatype is first converted into a
*Type hierarchy*, where each level carries one ``TypeData`` and at most one
child level.  Two kinds of ``TypeData`` exist:

``DenseData``
    A run of contiguous bytes — the role a named type plays in MPI.
``StreamData``
    A strided sequence of ``count`` elements of the single child type,
    ``stride`` bytes apart, starting ``offset`` bytes in.

Distinct-but-equivalent MPI datatypes produce distinct Type trees; the
canonicalisation passes in :mod:`repro.tempi.canonicalize` reduce them to a
common form.  The IR is deliberately tiny — that is the point of the paper:
a handful of integers per level instead of a device-resident block list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union


@dataclass
class DenseData:
    """A contiguous run of bytes.

    Attributes
    ----------
    offset:
        Bytes between the enclosing level's origin and the first byte.
    extent:
        Number of contiguous bytes.
    """

    offset: int = 0
    extent: int = 0

    def validate(self) -> None:
        if self.offset < 0:
            raise ValueError(f"DenseData offset must be non-negative, got {self.offset}")
        if self.extent <= 0:
            raise ValueError(f"DenseData extent must be positive, got {self.extent}")


@dataclass
class StreamData:
    """A strided stream of ``count`` child elements.

    Attributes
    ----------
    offset:
        Bytes between the enclosing level's origin and the first element.
    stride:
        Bytes between the starts of consecutive elements.
    count:
        Number of elements in the stream.
    """

    offset: int = 0
    stride: int = 0
    count: int = 0

    def validate(self) -> None:
        if self.offset < 0:
            raise ValueError(f"StreamData offset must be non-negative, got {self.offset}")
        if self.stride <= 0:
            raise ValueError(f"StreamData stride must be positive, got {self.stride}")
        if self.count <= 0:
            raise ValueError(f"StreamData count must be positive, got {self.count}")


TypeData = Union[DenseData, StreamData]


@dataclass
class Type:
    """One level of the Type hierarchy: a ``TypeData`` plus zero or one child."""

    data: TypeData
    child: Optional["Type"] = None

    # ----------------------------------------------------------------- shape
    @property
    def is_dense(self) -> bool:
        """True when this level is a :class:`DenseData`."""
        return isinstance(self.data, DenseData)

    @property
    def is_stream(self) -> bool:
        """True when this level is a :class:`StreamData`."""
        return isinstance(self.data, StreamData)

    def depth(self) -> int:
        """Number of levels below and including this one."""
        return 1 + (self.child.depth() if self.child is not None else 0)

    def levels(self) -> Iterator["Type"]:
        """Iterate the chain from this level down to the leaf."""
        node: Optional[Type] = self
        while node is not None:
            yield node
            node = node.child

    def leaf(self) -> "Type":
        """The bottom level of the chain."""
        node = self
        while node.child is not None:
            node = node.child
        return node

    # ------------------------------------------------------------- utilities
    def validate(self) -> None:
        """Check structural invariants of the whole chain.

        * every ``TypeData`` is self-consistent;
        * ``DenseData`` levels are leaves (a dense run has no children);
        * ``StreamData`` levels have exactly one child.
        """
        node: Optional[Type] = self
        while node is not None:
            node.data.validate()
            if node.child is None:
                if type(node.data) is StreamData:
                    raise ValueError("StreamData levels must have a child")
            elif type(node.data) is DenseData:
                raise ValueError("DenseData levels cannot have children")
            node = node.child

    def total_bytes(self) -> int:
        """Payload bytes described by one element of this Type."""
        if self.is_dense:
            return self.data.extent
        assert self.child is not None
        return self.data.count * self.child.total_bytes()

    def footprint(self) -> int:
        """Bytes of metadata this representation needs (Sec. 2's argument).

        Each level is three integers at most; compare with the 16 bytes per
        block of the generic block-list representation.
        """
        return sum(24 for _ in self.levels())

    def structure(self) -> tuple:
        """A hashable summary used for equality in tests and memoisation."""
        parts = []
        for level in self.levels():
            if level.is_dense:
                parts.append(("dense", level.data.offset, level.data.extent))
            else:
                parts.append(("stream", level.data.offset, level.data.stride, level.data.count))
        return tuple(parts)

    def __str__(self) -> str:
        pieces = []
        for level in self.levels():
            if level.is_dense:
                pieces.append(f"Dense(off={level.data.offset}, extent={level.data.extent})")
            else:
                pieces.append(
                    f"Stream(off={level.data.offset}, stride={level.data.stride}, "
                    f"count={level.data.count})"
                )
        return " -> ".join(pieces)


def dense(extent: int, offset: int = 0) -> Type:
    """Convenience constructor for a leaf dense level."""
    return Type(DenseData(offset=offset, extent=extent))


def stream(count: int, stride: int, child: Type, offset: int = 0) -> Type:
    """Convenience constructor for a stream level over ``child``."""
    return Type(StreamData(offset=offset, stride=stride, count=count), child)

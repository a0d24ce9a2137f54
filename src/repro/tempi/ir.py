"""TEMPI's internal representation (IR) of datatypes.

Section 3.1 of the paper: a committed MPI datatype is first converted into a
*Type hierarchy*, where each level carries one ``TypeData`` and at most one
child level.  Two kinds of ``TypeData`` exist:

``DenseData``
    A run of contiguous bytes — the role a named type plays in MPI.
``StreamData``
    A strided sequence of ``count`` elements of the single child type,
    ``stride`` bytes apart, starting ``offset`` bytes in.

Every type TEMPI canonicalises is a *chain*: stream levels, each with one
child, over a single dense leaf (indexed and struct types, the only MPI
constructors that would branch, never reach the IR).  So a :class:`Type` is
stored flat, as one object: a tuple of ``(offset, stride, count)`` stream
rows, outermost first, over one ``(offset, extent)`` dense base.  Translation
appends rows, canonicalisation rewrites them and lowering reads them, with no
level objects built in between.  The level-by-level reading of the paper's
hierarchy (``data``, ``child``, ``levels()`` …) is a set of views built on
request.

Distinct-but-equivalent MPI datatypes produce distinct Types; the
canonicalisation passes in :mod:`repro.tempi.canonicalize` reduce them to a
common form.  The IR is deliberately tiny — that is the point of the paper:
a handful of integers per level instead of a device-resident block list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Union

#: One stream level: ``(offset, stride, count)``.
Row = tuple[int, int, int]


class DenseData(NamedTuple):
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


class StreamData(NamedTuple):
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


TypeData = Union[DenseData, StreamData]


@dataclass(frozen=True)
class Type:
    """A Type hierarchy: stream ``rows``, outermost first, over a dense ``base``."""

    rows: tuple[Row, ...]
    #: ``(offset, extent)`` of the dense leaf.
    base: tuple[int, int]

    def validate(self) -> None:
        """Check that every level is self-consistent: offsets non-negative,
        strides, counts and the extent positive."""
        for offset, stride, count in self.rows:
            if offset < 0:
                raise ValueError(f"StreamData offset must be non-negative, got {offset}")
            if stride <= 0:
                raise ValueError(f"StreamData stride must be positive, got {stride}")
            if count <= 0:
                raise ValueError(f"StreamData count must be positive, got {count}")
        offset, extent = self.base
        if offset < 0:
            raise ValueError(f"DenseData offset must be non-negative, got {offset}")
        if extent <= 0:
            raise ValueError(f"DenseData extent must be positive, got {extent}")

    # ------------------------------------------------- views of the hierarchy
    @property
    def is_dense(self) -> bool:
        """True when the top level is a :class:`DenseData` (there are no streams)."""
        return not self.rows

    @property
    def is_stream(self) -> bool:
        """True when the top level is a :class:`StreamData`."""
        return bool(self.rows)

    @property
    def data(self) -> TypeData:
        """The top level's ``TypeData``."""
        return StreamData(*self.rows[0]) if self.rows else DenseData(*self.base)

    @property
    def child(self) -> Optional["Type"]:
        """The chain below the top level (``None`` for the dense leaf)."""
        return Type(self.rows[1:], self.base) if self.rows else None

    def depth(self) -> int:
        """Number of levels, the dense leaf included."""
        return len(self.rows) + 1

    def levels(self) -> Iterator["Type"]:
        """Iterate the chain from this level down to the leaf."""
        for first in range(len(self.rows) + 1):
            yield Type(self.rows[first:], self.base)

    def leaf(self) -> "Type":
        """The bottom level of the chain."""
        return Type((), self.base)

    def total_bytes(self) -> int:
        """Payload bytes described by one element of this Type."""
        total = self.base[1]
        for _, _, count in self.rows:
            total *= count
        return total

    def footprint(self) -> int:
        """Bytes of metadata this representation needs (Sec. 2's argument).

        Each level is three integers at most; compare with the 16 bytes per
        block of the generic block-list representation.
        """
        return 24 * self.depth()

    def structure(self) -> tuple:
        """A hashable summary used for equality in tests and memoisation."""
        return (*[("stream", *row) for row in self.rows], ("dense", *self.base))

    def __str__(self) -> str:
        pieces = [f"Stream(off={offset}, stride={stride}, count={count})"
                  for offset, stride, count in self.rows]
        pieces.append(f"Dense(off={self.base[0]}, extent={self.base[1]})")
        return " -> ".join(pieces)


def dense(extent: int, offset: int = 0) -> Type:
    """Convenience constructor for a leaf dense level."""
    return Type((), (offset, extent))


def stream(count: int, stride: int, child: Type, offset: int = 0) -> Type:
    """Convenience constructor for a stream level over ``child``."""
    return Type(((offset, stride, count), *child.rows), child.base)

"""StridedBlock: the compact canonical representation (Sec. 3.3, Alg. 5).

A Type is a stack of stream rows over one dense base, which is semantically
an MPI subarray; after canonicalisation TEMPI lowers it to a
:class:`StridedBlock`:

* ``start`` — byte offset of the first byte from the buffer origin
  (the accumulated per-level offsets);
* ``counts`` — elements per dimension, innermost (contiguous) first;
* ``strides`` — bytes between elements of each dimension, so ``strides[0]``
  is always 1 and ``counts[0]`` is the contiguous-run length in bytes.

The StridedBlock is the only thing the pack kernels need; it occupies a few
dozen host bytes and **no device memory**, which is the paper's answer to the
block-list representations of prior work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tempi.ir import Type


@dataclass(frozen=True)
class StridedBlock:
    """An n-dimensional strided block of bytes."""

    start: int
    counts: tuple[int, ...]
    strides: tuple[int, ...]
    #: Payload bytes of one object (product of counts).
    packed_bytes: int = field(init=False, repr=False, compare=False)
    #: Bytes of underlying storage spanned by one object (from ``start``).
    extent: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")
        if len(self.counts) != len(self.strides):
            raise ValueError("counts and strides must have the same length")
        if not self.counts:
            raise ValueError("a StridedBlock needs at least one dimension")
        packed, last = 1, 0
        for count, stride in zip(self.counts, self.strides):
            if count <= 0 or stride <= 0:
                raise ValueError("counts and strides must be positive")
            packed *= count
            last += (count - 1) * stride
        if self.strides[0] != 1:
            raise ValueError("dimension 0 must be the contiguous run (stride 1)")
        # Computed once here and read as plain attributes: a
        # ``cached_property``'s first read takes an ``RLock`` and four more
        # calls.  Written through ``__dict__``, which a frozen dataclass
        # leaves open, as ``cached_property`` itself writes.
        attributes = self.__dict__
        attributes["packed_bytes"] = packed
        attributes["extent"] = last + 1

    # ------------------------------------------------------------------ shape
    @property
    def ndims(self) -> int:
        """Number of dimensions (1 = fully contiguous)."""
        return len(self.counts)

    @property
    def is_contiguous(self) -> bool:
        """True when the block is a single contiguous run."""
        return self.ndims == 1

    @property
    def block_length(self) -> int:
        """Bytes in each contiguous run (``counts[0]``)."""
        return self.counts[0]

    @property
    def num_blocks(self) -> int:
        """Number of contiguous runs in one object."""
        return self.packed_bytes // self.block_length

    def footprint(self) -> int:
        """Host metadata bytes (8 per integer); the paper's Sec. 2 comparison."""
        return 8 * (1 + 2 * self.ndims)

    def __str__(self) -> str:
        dims = "x".join(str(c) for c in self.counts)
        return f"StridedBlock(start={self.start}, {dims}, strides={list(self.strides)})"


def to_strided_block(ty: Type) -> StridedBlock:
    """Lower a canonicalised Type to a StridedBlock (Alg. 5).

    The offsets of every level add up to ``start``; the dense base is the
    contiguous dimension 0 and the stream rows, innermost first, the slower
    dimensions the kernels expect.
    """
    start, extent = ty.base
    counts, strides = (extent,), (1,)
    for offset, stride, count in reversed(ty.rows):
        start += offset
        counts += (count,)
        strides += (stride,)
    return StridedBlock(start, counts, strides)


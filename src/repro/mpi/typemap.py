"""Type-map flattening.

"In the most general sense, a datatype can be considered as a list of
contiguous blocks, where each has an offset and a size" (Sec. 2).  The
baseline datatype engine and the generic fallback path both work on that
representation; this module produces it from a :class:`~repro.mpi.datatype.Datatype`.

Two forms are provided:

* :func:`flatten` — an iterator of merged ``(offset, length)`` blocks for one
  element of the type;
* :func:`flatten_many` — the same for ``count`` elements placed ``extent``
  bytes apart (the *incount* of ``MPI_Pack`` and friends), with a base offset.

Merging is performed wherever consecutive blocks touch, so the result is the
list of *maximal* contiguous runs — the number of ``cudaMemcpyAsync`` calls
the baseline engine issues, and the quantity whose growth explains the
baseline's collapse in Figs. 8 and 11.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.mpi.datatype import Datatype
from repro.mpi.errors import MpiTypeError


def _raw_blocks(datatype: Datatype, base: int = 0) -> Iterator[tuple[int, int]]:
    """Unmerged type-map blocks of one element, shifted by ``base``."""
    for offset, length in datatype.layout():
        yield (base + offset, length)


def merge_blocks(blocks: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Merge blocks that touch (``offset + length == next offset``).

    The input must be in type-map order; MPI type maps produced by the
    constructors in this package are monotonically non-decreasing in offset
    for the strided types the paper considers.
    """
    current_offset: int | None = None
    current_length = 0
    for offset, length in blocks:
        if length < 0 or offset < 0:
            raise MpiTypeError("type map blocks must have non-negative offset and length")
        if length == 0:
            continue
        if current_offset is None:
            current_offset, current_length = offset, length
        elif offset == current_offset + current_length:
            current_length += length
        else:
            yield (current_offset, current_length)
            current_offset, current_length = offset, length
    if current_offset is not None:
        yield (current_offset, current_length)


def flatten(datatype: Datatype, base: int = 0) -> Iterator[tuple[int, int]]:
    """Merged ``(offset, length)`` blocks of one element of ``datatype``."""
    return merge_blocks(_raw_blocks(datatype, base))


def flatten_many(
    datatype: Datatype, count: int, base: int = 0
) -> Iterator[tuple[int, int]]:
    """Merged blocks of ``count`` consecutive elements of ``datatype``.

    Successive elements are placed ``datatype.extent`` bytes apart, as MPI
    requires for count arguments.
    """
    if count <= 0:
        raise MpiTypeError(f"count must be positive, got {count}")

    def generate() -> Iterator[tuple[int, int]]:
        for i in range(count):
            yield from _raw_blocks(datatype, base + i * datatype.extent)

    return merge_blocks(generate())


def block_count(datatype: Datatype, count: int = 1) -> int:
    """Number of maximal contiguous blocks in ``count`` elements.

    Uses the datatype's analytic :meth:`~repro.mpi.datatype.Datatype.block_count`
    for one element; consecutive elements only merge when the type is fully
    dense, in which case the answer is 1.
    """
    if count <= 0:
        raise MpiTypeError(f"count must be positive, got {count}")
    per_element = datatype.block_count()
    if datatype.is_contiguous_bytes:
        return 1
    return per_element * count


def packed_size(datatype: Datatype, count: int = 1) -> int:
    """Bytes produced by packing ``count`` elements (``MPI_Pack_size``)."""
    if count <= 0:
        raise MpiTypeError(f"count must be positive, got {count}")
    return datatype.size * count


def offsets_and_lengths(datatype: Datatype, count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Block offsets and lengths as NumPy arrays (for vectorised block copies)."""
    pairs = list(flatten_many(datatype, count))
    if not pairs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    return arr[:, 0], arr[:, 1]

"""Functional pack/unpack "kernel".

On the GPU, TEMPI's kernels gather the contiguous runs of a strided object
into a contiguous buffer (pack) or scatter a contiguous buffer back into the
strided object (unpack).  Here there is one strided-copy kernel for both
directions and any number of objects: the strided side and the dense side
are each exposed as one zero-copy ``np.ndarray`` view of the underlying byte
array, of the same shape, and the transfer is a single assignment between
the two (a cell pack, below, is one cast plus one column) — no temporary,
no Python-level loop over objects or runs.

* ``count`` objects are one extra outermost dimension whose stride is the
  object extent.
* Elements are words of ``word_size`` bytes (the ``W`` TEMPI specialises its
  kernels to, Sec. 3.3), narrowed until the run length, the start and dense
  offsets, every stride and the object extent are multiples of it; a run of
  exactly one word drops its dimension, so 8-byte runs move as a ``uint64``
  vector, not as an ``(N, 8)`` byte matrix.  The word shapes only this host
  copy; the result is the same bytes for every word size.
* A pack whose innermost stride is a *cell* — 2, 4 or 8 bytes, wider than
  the word, over at least 2 elements, e.g. one-byte runs at a two-byte
  pitch — is not a word-at-a-time gather.  Every element but each row's
  last is read as one little-endian ``cell``-byte integer and narrowed to
  its first ``word`` bytes by one ``np.copyto(..., casting="unsafe")``; the
  last column is peeled off and assigned word by word, so no byte past the
  object's last run is read.  Unpack stays the plain scatter: a widen, mask
  and merge unpack was measured no faster.  The choice is geometric, like
  the word, with no option or size threshold, and the benchmark's
  ``datatype_pack`` workload packs objects on both sides of it (the 4 MiB
  one-byte-block object of Fig. 8 is a cell pack, its 512-byte-pitch
  objects are not).
* Everything that depends only on the geometry — validation, the word, the
  cell, the shape and strides — is a :class:`StridedLayout`, which callers
  that launch one geometry repeatedly compute once (:func:`strided_layout`)
  and hand back through ``layout=``.

The functions below are deliberately free of any timing logic; durations are
charged by :class:`repro.gpu.runtime.CudaRuntime`, which calls them.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.gpu.errors import CudaInvalidValue

_UINT8 = np.dtype(np.uint8)
#: Element dtype per word size.  16 bytes is an opaque ``V16`` so no bit
#: pattern (NaN payloads included) can be touched in flight.  The integers are
#: little-endian on every host, so narrowing a cell to a word keeps the cell's
#: first bytes.
_WORD_DTYPES = {
    1: _UINT8,
    2: np.dtype("<u2"),
    4: np.dtype("<u4"),
    8: np.dtype("<u8"),
    16: np.dtype("V16"),
}


def required_extent(start: int, counts: Sequence[int], strides: Sequence[int]) -> int:
    """Bytes of the underlying allocation touched by a strided object.

    The object's last byte lives at
    ``start + sum((counts[i] - 1) * strides[i]) + counts[0] * strides[0] - ...``;
    because dimension 0 is the contiguous run (stride 1), the formula below is
    the usual max-offset computation for positive strides.
    """
    if len(counts) != len(strides):
        raise CudaInvalidValue("counts and strides must have the same length")
    if not counts:
        return start
    last = start
    for count, stride in zip(counts, strides):
        if count <= 0:
            raise CudaInvalidValue(f"counts must be positive, got {count}")
        if stride <= 0:
            raise CudaInvalidValue(f"strides must be positive, got {stride}")
        last += (count - 1) * stride
    return last + 1


def packed_size(counts: Sequence[int]) -> int:
    """Number of payload bytes in one strided object (product of counts)."""
    size = 1
    for count in counts:
        size *= int(count)
    return size


class StridedLayout(NamedTuple):
    """The buffer-independent half of one strided-copy launch."""

    #: Payload bytes of the whole launch (all ``count`` objects).
    nbytes: int
    #: Byte range ``[first, end)`` of the strided allocation the launch touches.
    first: int
    end: int
    #: Byte offset of the first element of the strided view.
    start: int
    #: Element width in bytes after narrowing.
    word: int
    #: View shape, outermost dimension first (so C order is the packed order).
    shape: tuple[int, ...]
    #: Byte strides of the strided view; the dense view is C-contiguous.
    strides: tuple[int, ...]
    #: The innermost byte stride when it is 2, 4 or 8 bytes, wider than
    #: ``word``, over at least 2 elements; else 0.  Such a pack reads every
    #: element but each row's last as one ``cell``-byte integer and narrows
    #: it to its first ``word`` bytes in one cast; the last column is copied
    #: word by word, so no byte past the object's last run is read.  Unpack
    #: ignores it: the widened scatter was measured no faster.
    cell: int


def strided_layout(
    start: int,
    counts: Sequence[int],
    strides: Sequence[int],
    count: int = 1,
    object_extent: int = 0,
    word_size: int = 1,
) -> StridedLayout:
    """Validate one launch geometry and lay out its view.

    Dimension order follows the :class:`~repro.tempi.strided_block.StridedBlock`
    convention: index 0 is the innermost (contiguous, stride 1) dimension.
    ``object_extent`` is only read for ``count > 1``.
    """
    if count <= 0:
        raise CudaInvalidValue(f"count must be positive, got {count}")
    if word_size not in _WORD_DTYPES:
        raise CudaInvalidValue(f"word size must be one of 1, 2, 4, 8, 16, got {word_size}")
    if not counts:
        raise CudaInvalidValue("a strided object needs at least one dimension")
    end = required_extent(start, counts, strides)
    span = (count - 1) * object_extent
    shape = [int(c) for c in reversed(counts[1:])]
    byte_strides = [int(s) for s in reversed(strides[1:])]
    if count > 1:
        shape.insert(0, count)
        byte_strides.insert(0, object_extent)
    # word_size is a power of two, so the gcd is the widest word that every
    # argument is a multiple of.  A strided "run" has no words to widen.
    word = math.gcd(word_size, counts[0], start, *byte_strides) if strides[0] == 1 else 1
    if counts[0] > word:
        shape.append(counts[0] // word)
        byte_strides.append(word * strides[0])
    cell = byte_strides[-1] if shape and shape[-1] > 1 else 0
    if cell not in (2, 4, 8) or cell <= word:
        cell = 0
    return StridedLayout(
        nbytes=packed_size(counts) * count,
        first=start + min(span, 0),
        end=end + max(span, 0),
        start=start,
        word=word,
        shape=tuple(shape),
        strides=tuple(byte_strides),
        cell=cell,
    )


def _views(
    strided: np.ndarray,
    dense: np.ndarray,
    roles: tuple[str, str],
    geometry: tuple,
    dense_offset: int,
    layout: Optional[StridedLayout],
) -> tuple[np.ndarray, np.ndarray, StridedLayout]:
    """The strided and the dense view of one launch, and the layout they follow.

    ``geometry`` is ``(start, counts, strides, count, object_extent,
    word_size)`` and ``layout`` its :func:`strided_layout` if the caller kept
    it.  The views have the same shape and dtype.  The returned layout is
    ``layout`` re-narrowed when ``dense_offset`` is not a multiple of its
    word.  ``roles`` names the strided and the dense side in error messages.
    """
    if layout is None:
        layout = strided_layout(*geometry)
    for memory, role in ((strided, roles[0]), (dense, roles[1])):
        if memory.ndim != 1 or memory.dtype != _UINT8 or not memory.flags.c_contiguous:
            raise CudaInvalidValue(f"kernel {role} must be a 1-D C-contiguous uint8 array")
    if layout.first < 0 or layout.end > strided.nbytes:
        raise CudaInvalidValue(
            f"strided object [{layout.first}, {layout.end}) escapes allocation of "
            f"{strided.nbytes} bytes"
        )
    if dense_offset < 0 or dense_offset + layout.nbytes > dense.nbytes:
        raise CudaInvalidValue(
            f"packed object of {layout.nbytes} bytes at offset {dense_offset} escapes "
            f"{roles[1]} of {dense.nbytes} bytes"
        )
    if dense_offset % layout.word:
        # Its lowest set bit is the widest word the dense offset is a multiple of.
        layout = strided_layout(*geometry[:5], dense_offset & -dense_offset)
    dtype = _WORD_DTYPES[layout.word]
    return (
        np.ndarray(layout.shape, dtype, strided, layout.start, layout.strides),
        np.ndarray(layout.shape, dtype, dense, dense_offset),
        layout,
    )


def pack_strided_many(
    src: np.ndarray,
    dst: np.ndarray,
    start: int,
    counts: Sequence[int],
    strides: Sequence[int],
    count: int,
    object_extent: int,
    dst_offset: int = 0,
    *,
    word_size: int = 1,
    layout: Optional[StridedLayout] = None,
) -> int:
    """Pack ``count`` repetitions of a strided object (MPI's *incount* argument).

    Successive objects begin ``object_extent`` bytes apart in ``src`` and are
    packed back to back in ``dst[dst_offset:]``.  ``layout``, when given, must
    be :func:`strided_layout` of the same geometry.  Returns the bytes written.
    """
    geometry = (start, counts, strides, count, object_extent, word_size)
    strided, dense, layout = _views(src, dst, ("source", "destination"), geometry, dst_offset, layout)
    if layout.cell:
        shape = layout.shape
        cells = np.ndarray(
            (*shape[:-1], shape[-1] - 1), _WORD_DTYPES[layout.cell], src, layout.start, layout.strides
        )
        np.copyto(dense[..., :-1], cells, casting="unsafe")
        dense[..., -1] = strided[..., -1]
    else:
        dense[...] = strided
    return dense.nbytes


def unpack_strided_many(
    src: np.ndarray,
    dst: np.ndarray,
    start: int,
    counts: Sequence[int],
    strides: Sequence[int],
    count: int,
    object_extent: int,
    src_offset: int = 0,
    *,
    word_size: int = 1,
    layout: Optional[StridedLayout] = None,
) -> int:
    """Unpack ``count`` back-to-back packed objects into strided storage.

    The inverse of :func:`pack_strided_many`: ``src[src_offset:]`` is the
    dense side, ``dst`` the strided one.  Returns the bytes read.
    """
    geometry = (start, counts, strides, count, object_extent, word_size)
    strided, dense, _ = _views(dst, src, ("destination", "source"), geometry, src_offset, layout)
    strided[...] = dense
    return dense.nbytes


def pack_strided(
    src: np.ndarray,
    dst: np.ndarray,
    start: int,
    counts: Sequence[int],
    strides: Sequence[int],
    dst_offset: int = 0,
) -> int:
    """Gather one strided object from ``src`` into ``dst[dst_offset:]``."""
    return pack_strided_many(src, dst, start, counts, strides, 1, 0, dst_offset)


def unpack_strided(
    src: np.ndarray,
    dst: np.ndarray,
    start: int,
    counts: Sequence[int],
    strides: Sequence[int],
    src_offset: int = 0,
) -> int:
    """Scatter ``src[src_offset:]`` into one strided object inside ``dst``."""
    return unpack_strided_many(src, dst, start, counts, strides, 1, 0, src_offset)


def copy_block_list(
    src: np.ndarray,
    dst: np.ndarray,
    blocks: Sequence[tuple[int, int]],
    *,
    gather: bool = True,
) -> int:
    """Copy an explicit ``(offset, length)`` block list.

    This is the generic representation prior work (and the Spectrum-like
    baseline engine) uses: when ``gather`` is True the blocks are read from
    ``src`` at their offsets and written densely into ``dst``; when False the
    dense ``src`` is scattered into ``dst`` at the block offsets.
    """
    cursor = 0
    for offset, length in blocks:
        if offset < 0 or length < 0:
            raise CudaInvalidValue("block offsets and lengths must be non-negative")
        if gather:
            if offset + length > src.nbytes or cursor + length > dst.nbytes:
                raise CudaInvalidValue("block list escapes its buffers")
            dst[cursor : cursor + length] = src[offset : offset + length]
        else:
            if offset + length > dst.nbytes or cursor + length > src.nbytes:
                raise CudaInvalidValue("block list escapes its buffers")
            dst[offset : offset + length] = src[cursor : cursor + length]
        cursor += length
    return cursor

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
* Elements are words of ``W`` bytes, the width TEMPI specialises its
  kernels to (Sec. 3.3), chosen here and nowhere else: the widest of 16, 8,
  4, 2 and 1 bytes that divides the run length, the start and dense offsets,
  every stride and, for more than one object, the object extent.  A run of
  exactly one word drops its dimension, so 8-byte runs move as a ``uint64``
  vector, not as an ``(N, 8)`` byte matrix.  The word shapes only this host
  copy and has no price; the result is the same bytes for every word.
* A pack whose innermost stride is a *cell* — 2, 4 or 8 bytes, wider than
  the word, over at least 2 elements, e.g. one-byte runs at a two-byte
  pitch — is not a word-at-a-time gather.  Every element but each row's
  last is read as one little-endian ``cell``-byte integer and narrowed to
  its first ``word`` bytes by one ``np.copyto(..., casting="unsafe")``; the
  last column is peeled off and assigned word by word, so no byte past the
  object's last run is read.  Unpack stays the plain scatter: on Fig. 8's
  4 MiB object (numpy 2.4.6, 2 cores) ``cells &= 0xFF00; cells |= src``
  beat ``dst[::2] = src`` only on aligned ``uint16`` cells (1.27 vs 1.69
  ms); the split's second object starts at the odd extent 8 Mi - 1, and
  there it took 2.14 ms against 1.75 ms.  The choice is geometric, like
  the word, with no option or size threshold, and the benchmark's
  ``datatype_pack`` workload packs objects on both sides of it (the 4 MiB
  one-byte-block object of Fig. 8 is a cell pack, its 512-byte-pitch
  objects are not).
* Everything that depends only on the geometry — validation, the word, the
  cell, the shape and strides, the split below — is a :class:`StridedLayout`,
  which callers that launch one geometry repeatedly compute once
  (:func:`strided_layout`) and hand back through ``layout=``.
* A launch that moves at least ``_SPLIT_ELEMENTS`` (4 Mi) elements runs on
  every usable host core, as TEMPI's kernel runs on the whole GPU grid
  (Sec. 3.3).  The outermost view axis with at least 2 entries — the object
  count, for Fig. 8's 4 MiB object — is cut into one chunk per core
  (``os.sched_getaffinity``).  The calling thread copies the last chunk, and
  one lazily started daemon helper per other core copies one chunk each,
  fed through a ``queue.SimpleQueue``.  Each chunk is the single assignment
  (or cast plus peel) of its slice, and numpy releases the GIL inside those
  loops.  With one core no helper starts and the launch is one chunk.

  - *Disjoint chunks.*  Pack chunks write disjoint ranges of the dense side.
    An unpack splits only when the split axis's stride is at least the span
    of one entry (``StridedLayout.disjoint``), so its chunks write disjoint
    strided bytes; an unpack whose entries interleave stays one assignment
    and keeps its sequential semantics.  Buffers that may share memory
    stay unsplit, so no chunk reads what another writes.  The bytes
    therefore do not depend on the schedule, and nothing here is timed, so
    no virtual clock moves.
  - *Break-even* (2-core shared VM, numpy 2.4, median of 25 alternated
    runs, one-byte runs at a 2-byte pitch, count 2, the worst geometry
    measured; µs unsplit → split).  The first sweep ran while the host's
    second core was free; the second (numpy 2.4.6) while two CPU-bound
    processes each took twice as long as one alone:

    ============  ==============  ===============  ==============  ===============
    elements      pack (first)    unpack (first)   pack (second)   unpack (second)
    ============  ==============  ===============  ==============  ===============
    1 Mi          135 → 162       433 → 460        118 → 136       350 → 366
    1.5 Mi        221 → 249       668 → 700        177 → 199       529 → 544
    2 Mi          282 → 314       899 → 453        236 → 263       716 → 737
    2.5 Mi        393 → 193       912 → 593        295 → 323       893 → 921
    3 Mi          361 → 223       1 136 → 616      364 → 394       1 063 → 1 093
    4 Mi          484 → 297       1 517 → 796      470 → 502       1 382 → 1 423
    8 Mi          1 077 → 685     3 305 → 1 983    1 021 → 1 013   2 821 → 2 878
    ============  ==============  ===============  ==============  ===============

    In the first regime an earlier sweep put the pack's break-even between
    2.5 and 3 Mi, and runs at a 3-byte pitch (no cell) or 8-byte runs at a
    16-byte pitch won from 1 Mi on (pack 377 → 226 and 1 012 → 634 µs).
    In the second the split wins nowhere: it costs a few percent below
    8 Mi and breaks even there.  The threshold sits above the first
    regime's break-even, and the benchmark's ``datatype_pack`` workload holds
    objects on both sides of it (its 1 KiB objects below, the 4 MiB one at
    8 Mi elements above).
  - *No split for* ``CudaRuntime.memcpy_async``.  No benchmark workload
    makes a contiguous copy at all, so a split there would be a path that
    nothing measures.

* The helpers also run *digest jobs*: host byte work that touches no priced
  state and need not finish before the caller goes on.  ``apps/replay.py``
  hashes every receive buffer this way.  :func:`digest_jobs` names the
  first helper's queue, and ``put((None, digest, data))`` on it queues
  ``digest.update(data)``.  That is one call on the rank thread, which
  then goes on under the run token while the helper hashes (``hashlib``
  releases the GIL).  All digest jobs go to that one helper, so the
  updates of each digest run in the order they were put, whatever the
  schedule.  :func:`drain_digests` waits until every job queued so far has
  run and raises the first exception one of them raised.  The caller must
  not write ``data`` again before that.  With one core there is no helper,
  and the update runs inline at the ``put``, as a launch runs unsplit.

The functions below are deliberately free of any timing logic; durations are
charged by :class:`repro.gpu.runtime.CudaRuntime`, which calls them.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.gpu.errors import CudaInvalidValue

#: A launch whose layout moves at least this many elements (words) is split
#: across the host's cores; below it one thread copies.  The worst geometry
#: measured (module docstring) breaks even between 2 and 3 Mi elements.
_SPLIT_ELEMENTS = 4 << 20

_UINT8 = np.dtype(np.uint8)
#: The widest word a launch moves, in bytes: a ``float4``.
_WIDEST = 16
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
    """Bytes of the underlying allocation touched by one strided object.

    The object's last byte lives at ``start + sum((counts[i] - 1) *
    strides[i])``; this is one past it, :attr:`StridedLayout.end` of the
    object's :func:`strided_layout`, with the same checks.
    """
    return strided_layout(start, counts, strides).end


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
    #: ignores it: a masked merge of the cells loses on an unaligned object
    #: (see the module docstring).
    cell: int
    #: The view axis a launch of at least ``_SPLIT_ELEMENTS`` elements splits
    #: into one chunk per host core: the outermost with at least 2 entries.
    #: -1 below the threshold, or when no axis has 2 entries.
    split: int
    #: Whether the entries of ``split`` cover disjoint bytes of the strided
    #: side (its stride is at least the span of one entry), so that unpack
    #: chunks write disjoint bytes.  Pack chunks always do; an unpack whose
    #: entries interleave stays one assignment.
    disjoint: bool


def strided_layout(
    start: int,
    counts: Sequence[int],
    strides: Sequence[int],
    count: int = 1,
    object_extent: int = 0,
    dense_offset: int = 0,
) -> StridedLayout:
    """Validate one launch geometry and lay out its view.

    Dimension order follows the :class:`~repro.tempi.strided_block.StridedBlock`
    convention: index 0 is the innermost (contiguous, stride 1) dimension.
    ``object_extent`` is only read for ``count > 1``.  The layout serves a
    dense side at any multiple of its word; ``dense_offset`` narrows the word
    for one that is not.
    """
    if count <= 0:
        raise CudaInvalidValue(f"count must be positive, got {count}")
    if not counts:
        raise CudaInvalidValue("a strided object needs at least one dimension")
    if len(counts) != len(strides):
        raise CudaInvalidValue("counts and strides must have the same length")
    # One pass: the checks, the last byte touched and the payload size.
    last, size = start, count
    for entries, stride in zip(counts, strides):
        if entries <= 0:
            raise CudaInvalidValue(f"counts must be positive, got {entries}")
        if stride <= 0:
            raise CudaInvalidValue(f"strides must be positive, got {stride}")
        last += (entries - 1) * stride
        size *= entries
    # The view's dimensions, outermost first: the objects, then the block's
    # dimensions but its contiguous run, reversed.
    if count > 1:
        shape, byte_strides = (count, *counts[:0:-1]), (object_extent, *strides[:0:-1])
    else:
        shape, byte_strides = (*counts[:0:-1],), (*strides[:0:-1],)
    # Every word is a power of two up to _WIDEST, so the gcd is the widest
    # word that every argument is a multiple of.  A strided "run" has no
    # words to widen.
    word = math.gcd(_WIDEST, counts[0], start, dense_offset, *byte_strides) if strides[0] == 1 else 1
    if counts[0] > word:
        shape, byte_strides = (*shape, counts[0] // word), (*byte_strides, word * strides[0])
    cell = byte_strides[-1] if shape and shape[-1] > 1 else 0
    if cell not in (2, 4, 8) or cell <= word:
        cell = 0
    split, disjoint = -1, False
    if size // word >= _SPLIT_ELEMENTS:
        for axis, entries in enumerate(shape):
            if entries > 1:
                inner = zip(shape[axis + 1 :], byte_strides[axis + 1 :])
                split = axis
                disjoint = byte_strides[axis] >= word + sum((n - 1) * s for n, s in inner)
                break
    # The objects span ``(count - 1) * object_extent`` bytes past the first
    # one's range, or before it for a negative extent.
    span, first, end = (count - 1) * object_extent, start, last + 1
    if span < 0:
        first += span
    else:
        end += span
    return tuple.__new__(StridedLayout, (
        size, first, end, start, word, shape, byte_strides, cell, split, disjoint
    ))


def _views(
    strided: np.ndarray,
    dense: np.ndarray,
    roles: tuple[str, str],
    geometry: tuple,
    dense_offset: int,
    layout: Optional[StridedLayout],
) -> tuple[np.ndarray, np.ndarray, StridedLayout]:
    """The strided and the dense view of one launch, and the layout they follow.

    ``geometry`` is ``(start, counts, strides, count, object_extent)`` and
    ``layout`` its :func:`strided_layout` if the caller kept it.  The views
    have the same shape and dtype.  The returned layout is ``layout``, or the
    geometry's own at ``dense_offset`` when none was kept or the offset is not
    a multiple of its word.  ``roles`` names the strided and the dense side in
    error messages.
    """
    if layout is None or dense_offset % layout.word:
        layout = strided_layout(*geometry, dense_offset)
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
    dtype = _WORD_DTYPES[layout.word]
    return (
        np.ndarray(layout.shape, dtype, strided, layout.start, layout.strides),
        np.ndarray(layout.shape, dtype, dense, dense_offset),
        layout,
    )


#: Job queues of the helper threads, one per usable host core besides the
#: launching thread's; ``None`` until the first split launch or
#: :func:`digest_jobs` starts them.
_helpers: Optional[list[queue.SimpleQueue]] = None
_helpers_lock = threading.Lock()


def _forget_helpers() -> None:
    """After a fork: the child has none of its parent's helper threads."""
    global _helpers, _helpers_lock
    _helpers, _helpers_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helpers)


def _start_helpers() -> list[queue.SimpleQueue]:
    """Start one daemon helper per usable host core but the caller's, once."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            helpers = []
            for index in range(1, cores):
                jobs = queue.SimpleQueue()  # simlint: disable=SIM006 -- a helper waits for jobs, never for a rank
                threading.Thread(target=_serve, args=(jobs,), name=f"kernel-helper-{index}", daemon=True).start()
                helpers.append(jobs)
            _helpers = helpers  # published whole: a launch reads it without the lock
    return _helpers


def _serve(jobs: queue.SimpleQueue) -> None:
    """A helper thread: run each job, in the order it was queued.

    A chunk job ``(done, target, source, cells)`` copies one chunk of a split
    launch, then reports to ``done``: ``None``, or the exception the copy
    raised.  The chunk's views are dropped before the report, so once a
    launch has returned no helper keeps its buffers alive.  A digest job
    ``(None, digest, data)`` runs ``digest.update(data)`` and reports nothing;
    a drain ``(done,)`` reports the first exception a digest job raised since
    the last drain (:func:`drain_digests`).  A ``None`` job ends the loop.
    """
    kept = None
    for done, *job in iter(jobs.get, None):
        if done is None:
            try:
                job[0].update(job[1])
            except Exception as error:  # raised again by the next drain
                kept = kept or error
            del job
            continue
        failure = None
        try:
            if job:
                _copy(*job)
            else:
                failure, kept = kept, None
        except Exception as error:  # raised again by the launching thread
            failure = error
        del job
        done.put(failure)
        del failure


class _InlineDigests:
    """The digest queue of a host with no helper: each job runs as it is put,
    on the putting thread, as a launch there runs unsplit."""

    def put(self, job: tuple) -> None:
        if len(job) == 1:
            job[0].put(None)  # a drain: an update's exception was raised at its put
        else:
            job[1].update(job[2])


_INLINE_DIGESTS = _InlineDigests()


def digest_jobs() -> queue.SimpleQueue | _InlineDigests:
    """Where to queue digest jobs: ``put((None, digest, data))`` runs
    ``digest.update(data)`` off the calling thread.

    Every digest job goes to the first helper, so the updates of one digest
    run in the order they were put.  ``data`` must not be written again
    until :func:`drain_digests` has returned.  With no helper (one usable
    core) the update runs inline at the ``put``.
    """
    helpers = _helpers if _helpers is not None else _start_helpers()
    return helpers[0] if helpers else _INLINE_DIGESTS


def drain_digests(jobs: queue.SimpleQueue | _InlineDigests) -> None:
    """Return once every digest job put on ``jobs`` (a :func:`digest_jobs`)
    has run; raise the first exception one of them raised."""
    done = queue.SimpleQueue()  # simlint: disable=SIM006 -- helpers wait for no rank, so this wait ends
    jobs.put((done,))
    failure = done.get()
    if failure is not None:
        raise failure


def _copy(target: np.ndarray, source: np.ndarray, cells: Optional[np.ndarray]) -> None:
    """One chunk of a split launch.

    ``target[...] = source``; for a cell pack (``cells`` is the cell view of
    ``source`` without its last column) the narrowing cast plus the peel.
    An unsplit launch does the same inline, so it pays no call for it.
    """
    if cells is None:
        target[...] = source
    else:
        np.copyto(target[..., :-1], cells, casting="unsafe")
        target[..., -1] = source[..., -1]


def _split_copy(target: np.ndarray, source: np.ndarray, cells: Optional[np.ndarray], axis: int) -> None:
    """Copy ``source`` into ``target`` in one chunk per host core along ``axis``.

    Every axis outside ``axis`` has one entry, so the chunks are the slices
    of ``axis`` and write disjoint bytes of ``target``.  Helpers copy the
    first chunks and this thread the last; the call returns once every chunk
    is done, and raises a chunk's exception.  If ``source`` may share memory
    with ``target`` a chunk could read what another writes, so the copy
    stays unsplit.
    """
    helpers = _helpers if _helpers is not None else _start_helpers()
    entries = target.shape[axis]
    chunks = min(entries, len(helpers) + 1)
    if chunks < 2 or np.may_share_memory(target, source):
        _copy(target, source, cells)
        return
    lead = (slice(None),) * axis
    # Split along the innermost axis, every chunk of a cell pack peels its own
    # last column: its cells stop one element short.
    peel = int(axis == target.ndim - 1)
    done = queue.SimpleQueue()  # simlint: disable=SIM006 -- helpers wait for no rank, so this wait ends
    for index in range(chunks):
        low, high = entries * index // chunks, entries * (index + 1) // chunks
        part = (*lead, slice(low, high))
        chunk = target[part], source[part], None if cells is None else cells[(*lead, slice(low, high - peel))]
        if index < chunks - 1:
            helpers[index].put((done, *chunk))
    failure = None
    try:
        _copy(*chunk)
    finally:
        for _ in range(chunks - 1):
            failure = done.get() or failure
    if failure is not None:
        raise failure


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
    layout: Optional[StridedLayout] = None,
) -> int:
    """Pack ``count`` repetitions of a strided object (MPI's *incount* argument).

    Successive objects begin ``object_extent`` bytes apart in ``src`` and are
    packed back to back in ``dst[dst_offset:]``.  ``layout``, when given, must
    be :func:`strided_layout` of the same geometry.  Returns the bytes written.
    """
    geometry = (start, counts, strides, count, object_extent)
    strided, dense, layout = _views(src, dst, ("source", "destination"), geometry, dst_offset, layout)
    cells = None
    if layout.cell:
        shape = layout.shape
        cells = np.ndarray(
            (*shape[:-1], shape[-1] - 1), _WORD_DTYPES[layout.cell], src, layout.start, layout.strides
        )
    if layout.split >= 0:
        _split_copy(dense, strided, cells, layout.split)
    elif cells is None:
        dense[...] = strided
    else:
        np.copyto(dense[..., :-1], cells, casting="unsafe")
        dense[..., -1] = strided[..., -1]
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
    layout: Optional[StridedLayout] = None,
) -> int:
    """Unpack ``count`` back-to-back packed objects into strided storage.

    The inverse of :func:`pack_strided_many`: ``src[src_offset:]`` is the
    dense side, ``dst`` the strided one.  Returns the bytes read.
    """
    geometry = (start, counts, strides, count, object_extent)
    strided, dense, layout = _views(dst, src, ("destination", "source"), geometry, src_offset, layout)
    if layout.split >= 0 and layout.disjoint:
        _split_copy(strided, dense, None, layout.split)
    else:
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

"""Property-based tests of the strided-copy kernel.

Invariants, for random geometries, object counts, extents and offsets
(odd offsets and extents that are not a multiple of the word included), so
that the launch layout picks every word from 1 to 16 bytes:

* a pack equals the byte-level reference — :func:`copy_block_list` over the
  enumerated contiguous runs — whatever word the launch layout chooses, and
  reads no byte past the last run (half the geometries are sub-word runs at
  a 2, 4 or 8-byte pitch, which pack by one narrowing cast);
* unpack is the inverse of pack on the packed bytes, and touches no byte
  outside the runs and no byte of the dense side outside ``[offset, offset +
  nbytes)``;
* bytes move as opaque bits: payloads are arbitrary bit patterns, so a
  16-byte word whose halves are NaNs with payloads must arrive unchanged;
* a launch split across helper threads (forced here with a split threshold
  of 0 on a pretended 3-core host) writes the bytes the unsplit launch
  writes and no gap byte, and an unpack whose objects interleave is never
  split.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.gpu import kernels
from tests.gpu.test_kernels import RefusingHelper, unsplit

WORDS = (1, 2, 4, 8, 16)
#: The split walls change module state once per test, not per example.
FIXTURES = dict(suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def cell_launches(draw):
    """Runs of 1, 2 or 4 bytes at a wider 2, 4 or 8-byte pitch: cell packs.

    Odd starts and odd object extents leave the cells unaligned (or narrow
    the word below the run, which is no cell at all).
    """
    run = draw(st.sampled_from([1, 2, 4]))
    pitch = draw(st.sampled_from([p for p in (2, 4, 8) if p > run]))
    counts, strides = [run, draw(st.integers(1, 9))], [1, pitch]
    span = (counts[1] - 1) * pitch + run
    if draw(st.booleans()):
        rows = draw(st.integers(2, 3))
        stride = span + draw(st.sampled_from([0, 1, pitch - run, pitch]))
        counts.append(rows)
        strides.append(stride)
        span = (rows - 1) * stride + span
    count = draw(st.integers(1, 4))
    object_extent = span + draw(st.sampled_from([0, 1, pitch - run, pitch]))
    start = draw(st.sampled_from([0, 1, 3, pitch, 7]))
    return start, counts, strides, count, object_extent


@st.composite
def launches(draw):
    """``(start, counts, strides, count, object_extent)`` of non-overlapping runs.

    Half of them are :func:`cell_launches`.
    """
    if draw(st.booleans()):
        return draw(cell_launches())
    unit = draw(st.sampled_from(WORDS))
    run = unit * draw(st.integers(1, 4)) + draw(st.sampled_from([0, 0, 0, 3]))
    counts, strides = [run], [1]
    span = run
    for _ in range(draw(st.integers(0, 2))):
        n = draw(st.integers(1, 4))
        stride = span + draw(st.sampled_from([0, unit, 3 * unit, 1]))
        counts.append(n)
        strides.append(stride)
        span = (n - 1) * stride + span
    count = draw(st.integers(1, 4))
    object_extent = span + draw(st.sampled_from([0, unit, 5 * unit, 1]))
    start = draw(st.sampled_from([0, 0, unit, 3 * unit, 7]))
    return start, counts, strides, count, object_extent


def enumerate_runs(start, counts, strides, count, object_extent):
    """``(offset, length)`` of every contiguous run, in packed order."""
    runs = []
    for obj in range(count):
        for index in itertools.product(*(range(n) for n in reversed(counts[1:]))):
            offset = start + obj * object_extent
            offset += sum(i * s for i, s in zip(index, reversed(strides[1:])))
            runs.append((offset, counts[0]))
    return runs


def memory_for(launch, seed, slack=5):
    """The strided side: the object's bytes, then ``slack`` more."""
    start, counts, strides, count, object_extent = launch
    nbytes = kernels.required_extent(start, counts, strides) + (count - 1) * object_extent
    rng = np.random.default_rng(seed)
    memory = rng.integers(0, 256, nbytes + slack, dtype=np.uint8)
    # Half of the 16-byte chunks are two NaNs with payloads, one of each sign.
    nans = np.array([0x7FF8DEADBEEF0001, 0xFFF0000000000001], dtype=np.uint64).view(np.uint8)
    chunks = -(-memory.nbytes // 16)
    mask = np.repeat(rng.integers(0, 2, chunks).astype(bool), 16)[: memory.nbytes]
    return np.where(mask, np.tile(nans, chunks)[: memory.nbytes], memory)


@settings(max_examples=200, deadline=None)
@given(launches(), st.integers(0, 9), st.integers(0, 2**31))
def test_pack_equals_block_list_reference(launch, offset, seed):
    # No slack: the last run ends the source, so a pack that reads past it
    # (a cell cast over the last column) fails.
    src = memory_for(launch, seed, slack=0)
    runs = enumerate_runs(*launch)
    nbytes = sum(length for _, length in runs)
    reference = np.zeros(nbytes, dtype=np.uint8)
    assert kernels.copy_block_list(src, reference, runs, gather=True) == nbytes

    dst = np.full(offset + nbytes + 3, 0xA5, dtype=np.uint8)
    assert kernels.pack_strided_many(src, dst, *launch, offset) == nbytes
    assert dst[offset : offset + nbytes].tobytes() == reference.tobytes()
    assert (dst[:offset] == 0xA5).all() and (dst[offset + nbytes :] == 0xA5).all()

    # A kept layout is the same launch.
    layout = kernels.strided_layout(*launch)
    again = np.zeros_like(dst)
    kernels.pack_strided_many(src, again, *launch, offset, layout=layout)
    assert again[offset : offset + nbytes].tobytes() == reference.tobytes()


@settings(max_examples=200, deadline=None)
@given(launches(), st.integers(0, 9), st.integers(0, 2**31))
def test_unpack_inverts_pack_and_touches_only_the_runs(launch, offset, seed):
    original = memory_for(launch, seed)
    runs = enumerate_runs(*launch)
    nbytes = sum(length for _, length in runs)
    packed = np.zeros(offset + nbytes, dtype=np.uint8)
    kernels.pack_strided_many(original, packed, *launch, offset)

    scattered = np.full_like(original, 0x5A)
    assert kernels.unpack_strided_many(packed, scattered, *launch, offset) == nbytes
    expected = np.full_like(original, 0x5A)
    kernels.copy_block_list(packed[offset:], expected, runs, gather=False)
    assert scattered.tobytes() == expected.tobytes()

    repacked = np.zeros_like(packed)
    kernels.pack_strided_many(scattered, repacked, *launch, offset)
    assert repacked.tobytes() == packed.tobytes()


@st.composite
def interleaved_launches(draw):
    """2-4 objects whose extent is shorter than one object's span."""
    start, counts, strides, _, _ = draw(launches())
    span = kernels.required_extent(0, counts, strides)
    assume(span > 1)
    return start, counts, strides, draw(st.integers(2, 4)), draw(st.integers(1, span - 1))


@settings(max_examples=200, deadline=None, **FIXTURES)
@given(launches(), st.integers(0, 9), st.integers(0, 2**31))
def test_a_split_launch_writes_what_the_unsplit_one_writes(host_cores, monkeypatch, launch, offset, seed):
    host_cores(3)
    monkeypatch.setattr(kernels, "_SPLIT_ELEMENTS", 0)
    layout = kernels.strided_layout(*launch)
    assert layout.split >= 0 or max(layout.shape, default=1) == 1
    src = memory_for(launch, seed, slack=0)
    runs = enumerate_runs(*launch)
    nbytes = sum(length for _, length in runs)

    packed = np.full(offset + nbytes + 3, 0xA5, dtype=np.uint8)
    reference = packed.copy()
    kernels.pack_strided_many(src, packed, *launch, offset)
    unsplit(monkeypatch, kernels.pack_strided_many, src, reference, *launch, offset)
    assert packed.tobytes() == reference.tobytes()
    assert (packed[:offset] == 0xA5).all() and (packed[offset + nbytes :] == 0xA5).all()

    scattered = np.full_like(src, 0x5A)
    reference = scattered.copy()
    kernels.unpack_strided_many(packed, scattered, *launch, offset)
    unsplit(monkeypatch, kernels.unpack_strided_many, packed, reference, *launch, offset)
    assert scattered.tobytes() == reference.tobytes()
    expected = np.full_like(src, 0x5A)
    kernels.copy_block_list(packed[offset:], expected, runs, gather=False)
    assert scattered.tobytes() == expected.tobytes()
    assert layout.split < 0 or len(kernels._helpers) == 2


@settings(max_examples=100, deadline=None, **FIXTURES)
@given(interleaved_launches(), st.integers(0, 9), st.integers(0, 2**31))
def test_an_interleaved_unpack_is_never_split(monkeypatch, launch, offset, seed):
    monkeypatch.setattr(kernels, "_helpers", [RefusingHelper(), RefusingHelper()])
    monkeypatch.setattr(kernels, "_SPLIT_ELEMENTS", 0)
    layout = kernels.strided_layout(*launch)
    assert layout.split == 0 and not layout.disjoint
    original = memory_for(launch, seed)
    nbytes = layout.nbytes
    packed = np.random.default_rng(seed).integers(0, 256, offset + nbytes, dtype=np.uint8)
    scattered, reference = original.copy(), original.copy()
    kernels.unpack_strided_many(packed, scattered, *launch, offset)
    unsplit(monkeypatch, kernels.unpack_strided_many, packed, reference, *launch, offset)
    assert scattered.tobytes() == reference.tobytes()

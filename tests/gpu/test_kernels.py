"""Tests for the functional strided pack/unpack kernels."""

import os
import queue
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.gpu import kernels
from repro.gpu.errors import CudaInvalidValue

MIB = 1 << 20


def make_memory(nbytes: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


class TestRequiredExtent:
    def test_single_dense_run(self):
        assert kernels.required_extent(0, [16], [1]) == 16

    def test_two_dimensional(self):
        # 4 rows of 8 bytes, 32 bytes apart, starting at byte 3.
        assert kernels.required_extent(3, [8, 4], [1, 32]) == 3 + 3 * 32 + 8

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(CudaInvalidValue):
            kernels.required_extent(0, [8, 4], [1])

    def test_zero_count_rejected(self):
        with pytest.raises(CudaInvalidValue):
            kernels.required_extent(0, [0], [1])

    def test_zero_stride_rejected(self):
        with pytest.raises(CudaInvalidValue):
            kernels.required_extent(0, [2, 2], [1, 0])

    def test_packed_size_is_product(self):
        assert kernels.packed_size([8, 4, 3]) == 96


class TestPackUnpack2D:
    def test_pack_gathers_rows(self):
        src = make_memory(256)
        dst = np.zeros(32, dtype=np.uint8)
        written = kernels.pack_strided(src, dst, 0, [8, 4], [1, 64])
        assert written == 32
        expected = np.concatenate([src[i * 64 : i * 64 + 8] for i in range(4)])
        assert np.array_equal(dst, expected)

    def test_pack_honours_start_offset(self):
        src = make_memory(256)
        dst = np.zeros(16, dtype=np.uint8)
        kernels.pack_strided(src, dst, 10, [8, 2], [1, 64])
        expected = np.concatenate([src[10:18], src[74:82]])
        assert np.array_equal(dst, expected)

    def test_unpack_is_inverse_of_pack(self):
        original = make_memory(512, seed=1)
        packed = np.zeros(64, dtype=np.uint8)
        kernels.pack_strided(original, packed, 4, [16, 4], [1, 128])
        scattered = np.zeros_like(original)
        kernels.unpack_strided(packed, scattered, 4, [16, 4], [1, 128])
        repacked = np.zeros(64, dtype=np.uint8)
        kernels.pack_strided(scattered, repacked, 4, [16, 4], [1, 128])
        assert np.array_equal(packed, repacked)

    def test_unpack_leaves_other_bytes_untouched(self):
        dst = np.zeros(256, dtype=np.uint8)
        packed = np.full(32, 9, dtype=np.uint8)
        kernels.unpack_strided(packed, dst, 0, [8, 4], [1, 64])
        touched = np.zeros(256, dtype=bool)
        for i in range(4):
            touched[i * 64 : i * 64 + 8] = True
        assert (dst[touched] == 9).all()
        assert not dst[~touched].any()

    def test_pack_out_of_bounds_rejected(self):
        src = make_memory(64)
        dst = np.zeros(64, dtype=np.uint8)
        with pytest.raises(CudaInvalidValue):
            kernels.pack_strided(src, dst, 0, [8, 4], [1, 64])  # needs 8 + 3*64

    def test_pack_destination_too_small_rejected(self):
        src = make_memory(256)
        dst = np.zeros(16, dtype=np.uint8)
        with pytest.raises(CudaInvalidValue):
            kernels.pack_strided(src, dst, 0, [8, 4], [1, 64])

    def test_requires_uint8_1d(self):
        src = make_memory(64).astype(np.uint16)
        with pytest.raises(CudaInvalidValue):
            kernels.pack_strided(src, np.zeros(8, np.uint8), 0, [8], [1])

    @pytest.mark.parametrize(
        "dense",
        [
            np.zeros(32, np.float64),       # 256 bytes: passes the byte bound
            np.zeros(4, np.float64),        # 32 bytes: the exact size in bytes
            np.zeros((4, 8), np.uint8),     # right bytes, wrong rank
            np.zeros(64, np.uint8)[::2],    # right dtype, not contiguous
        ],
        ids=["float64-large", "float64-exact", "2-D", "strided"],
    )
    def test_dense_side_must_be_flat_uint8_too(self, dense):
        memory = make_memory(256)
        with pytest.raises(CudaInvalidValue, match="destination must be a 1-D C-contiguous uint8"):
            kernels.pack_strided(memory, dense, 0, [8, 4], [1, 64])
        with pytest.raises(CudaInvalidValue, match="source must be a 1-D C-contiguous uint8"):
            kernels.unpack_strided(dense, memory.copy(), 0, [8, 4], [1, 64])

    def test_rejected_launch_writes_nothing(self):
        src = make_memory(1024)
        dst = np.zeros(40, dtype=np.uint8)
        with pytest.raises(CudaInvalidValue):  # the third object does not fit
            kernels.pack_strided_many(src, dst, 0, [8, 2], [1, 64], 3, 200)
        assert not dst.any()


class TestPackUnpack3D:
    def test_pack_3d_matches_manual_gather(self):
        src = make_memory(4096, seed=2)
        counts = [4, 3, 2]      # 4-byte runs, 3 rows, 2 planes
        strides = [1, 16, 512]
        dst = np.zeros(24, dtype=np.uint8)
        kernels.pack_strided(src, dst, 0, counts, strides)
        expected = []
        for plane in range(2):
            for row in range(3):
                start = plane * 512 + row * 16
                expected.append(src[start : start + 4])
        assert np.array_equal(dst, np.concatenate(expected))

    def test_roundtrip_3d(self):
        src = make_memory(4096, seed=3)
        counts, strides = [8, 4, 4], [1, 32, 256]
        packed = np.zeros(128, dtype=np.uint8)
        kernels.pack_strided(src, packed, 16, counts, strides)
        dst = np.zeros_like(src)
        kernels.unpack_strided(packed, dst, 16, counts, strides)
        repacked = np.zeros(128, dtype=np.uint8)
        kernels.pack_strided(dst, repacked, 16, counts, strides)
        assert np.array_equal(packed, repacked)


class TestManyObjects:
    def test_pack_many_respects_object_extent(self):
        src = make_memory(1024, seed=4)
        counts, strides = [8, 2], [1, 64]
        extent = 200
        dst = np.zeros(3 * 16, dtype=np.uint8)
        written = kernels.pack_strided_many(src, dst, 0, counts, strides, 3, extent)
        assert written == 48
        expected = []
        for obj in range(3):
            for row in range(2):
                start = obj * extent + row * 64
                expected.append(src[start : start + 8])
        assert np.array_equal(dst, np.concatenate(expected))

    def test_unpack_many_roundtrip(self):
        src = make_memory(1024, seed=5)
        counts, strides = [4, 4], [1, 32]
        packed = np.zeros(2 * 16, dtype=np.uint8)
        kernels.pack_strided_many(src, packed, 0, counts, strides, 2, 256)
        dst = np.zeros_like(src)
        kernels.unpack_strided_many(packed, dst, 0, counts, strides, 2, 256)
        repacked = np.zeros_like(packed)
        kernels.pack_strided_many(dst, repacked, 0, counts, strides, 2, 256)
        assert np.array_equal(packed, repacked)

    def test_zero_count_rejected(self):
        src = make_memory(64)
        with pytest.raises(CudaInvalidValue):
            kernels.pack_strided_many(src, np.zeros(8, np.uint8), 0, [8], [1], 0, 8)


class TestWordSize:
    """The word only widens the elements of the host copy, never the result."""

    @pytest.mark.parametrize("word", [1, 2, 4, 8, 16])
    def test_every_word_moves_the_same_bytes(self, word):
        src = make_memory(4096, seed=7)
        geometry = (16, [32, 5, 3], [1, 48, 512], 2, 1600)
        expected = np.zeros(2 * 480, dtype=np.uint8)
        kernels.pack_strided_many(src, expected, *geometry)
        packed = np.zeros_like(expected)
        assert kernels.pack_strided_many(src, packed, *geometry, word_size=word) == 960
        assert np.array_equal(packed, expected)
        scattered = np.zeros_like(src)
        kernels.unpack_strided_many(packed, scattered, *geometry, word_size=word)
        repacked = np.zeros_like(expected)
        kernels.pack_strided_many(scattered, repacked, *geometry)
        assert np.array_equal(repacked, expected)

    def test_layout_uses_the_selected_word(self):
        layout = kernels.strided_layout(0, [64, 8], [1, 128], word_size=16)
        assert (layout.word, layout.shape, layout.strides) == (16, (8, 4), (128, 16))

    def test_run_of_one_word_drops_its_dimension(self):
        layout = kernels.strided_layout(0, [8, 1024], [1, 16], word_size=8)
        assert (layout.word, layout.shape, layout.strides) == (8, (1024,), (16,))

    def test_count_is_the_outermost_dimension(self):
        layout = kernels.strided_layout(0, [8, 4], [1, 32], 64, 256, 8)
        assert (layout.shape, layout.strides, layout.nbytes) == ((64, 4), (256, 32), 2048)

    @pytest.mark.parametrize(
        "start, counts, strides, count, extent, expected",
        [
            (4, [16, 4], [1, 64], 1, 0, 4),     # start
            (0, [12, 4], [1, 64], 1, 0, 4),     # run length
            (0, [16, 4], [1, 66], 1, 0, 2),     # a stride
            (0, [16, 4], [1, 64], 2, 257, 1),   # object extent, only when count > 1
            (0, [16, 4], [1, 64], 1, 257, 16),
        ],
    )
    def test_word_narrows_to_the_geometry(self, start, counts, strides, count, extent, expected):
        assert kernels.strided_layout(start, counts, strides, count, extent, 16).word == expected

    def test_odd_dense_offset_narrows_the_launch(self):
        src = make_memory(512, seed=8)
        dst = np.zeros(70, dtype=np.uint8)
        layout = kernels.strided_layout(0, [16, 4], [1, 64], word_size=16)
        kernels.pack_strided_many(src, dst, 0, [16, 4], [1, 64], 1, 0, 3, word_size=16, layout=layout)
        expected = np.concatenate([src[i * 64 : i * 64 + 16] for i in range(4)])
        assert np.array_equal(dst[3:67], expected)
        assert not dst[:3].any() and not dst[67:].any()

    def test_unknown_word_rejected(self):
        with pytest.raises(CudaInvalidValue, match="word size"):
            kernels.strided_layout(0, [8, 4], [1, 64], word_size=3)


class TestCell:
    """A pack whose innermost stride is 2, 4 or 8 bytes, wider than the word
    and over at least 2 elements, is one narrowing cast plus the last column."""

    @pytest.mark.parametrize(
        "start, counts, strides, count, extent, word_size, cell",
        [
            (0, [1, 64], [1, 2], 1, 0, 1, 2),
            (0, [1, 64], [1, 2], 2, 127, 1, 2),
            (3, [1, 64], [1, 4], 1, 0, 16, 4),
            (0, [2, 64], [1, 4], 1, 0, 16, 4),
            (0, [4, 64], [1, 8], 1, 0, 16, 8),
            (0, [1], [1], 4, 2, 1, 2),
            (0, [1, 64], [1, 3], 1, 0, 1, 0),
            (0, [1, 64], [1, 16], 1, 0, 1, 0),
            (0, [3, 64], [1, 8], 1, 0, 16, 0),
            (0, [2, 64], [1, 2], 1, 0, 16, 0),
            (0, [1, 1], [1, 2], 1, 0, 1, 0),
            (0, [1], [1], 1, 0, 1, 0),
        ],
        ids=[
            "1-byte runs, 2-byte pitch",
            "count 2 at an odd extent",
            "odd start, 4-byte pitch",
            "2-byte words, 4-byte pitch",
            "4-byte words, 8-byte pitch",
            "1-byte objects, 2-byte extent",
            "stride 3",
            "stride 16",
            "3-byte run",
            "dense 2-byte words",
            "single element",
            "single element, no dimension",
        ],
    )
    def test_cell_of_the_layout(self, start, counts, strides, count, extent, word_size, cell):
        assert kernels.strided_layout(start, counts, strides, count, extent, word_size).cell == cell

    def test_cell_pack_reads_nothing_past_the_last_run(self):
        # The source ends at the last run's byte: a cast of the last column
        # would need one byte more.
        geometry = (1, [1, 9], [1, 2], 3, 17)
        src = make_memory(kernels.required_extent(1, [1, 9], [1, 2]) + 2 * 17, seed=9)
        assert kernels.strided_layout(*geometry).cell == 2
        packed = np.zeros(27, dtype=np.uint8)
        kernels.pack_strided_many(src, packed, *geometry)
        expected = [src[1 + obj * 17 + 2 * i] for obj in range(3) for i in range(9)]
        assert packed.tolist() == expected

    def test_odd_dense_offset_recomputes_the_cell(self):
        # A kept layout of 4-byte words at an 8-byte pitch (cell 8) narrows to
        # bytes at an odd dense offset, where the run is its own dimension and
        # there is no cell: 8-byte reads at a 1-byte stride would run past the
        # last run, which ends the source.
        layout = kernels.strided_layout(0, [4, 8], [1, 8], word_size=4)
        assert (layout.word, layout.cell) == (4, 8)
        src = make_memory(60, seed=10)
        dst = np.zeros(33, dtype=np.uint8)
        kernels.pack_strided_many(src, dst, 0, [4, 8], [1, 8], 1, 0, 1, word_size=4, layout=layout)
        assert np.array_equal(dst[1:], src.reshape(15, 4)[::2].reshape(-1))


#: Two objects of 64 one-byte runs at a 2-byte pitch, back to back: a cell
#: pack whose count axis splits into two chunks.
SMALL_SPLIT = (0, [1, 64], [1, 2], 2, 127)


def _small_split_runs(src: np.ndarray) -> np.ndarray:
    """What packing :data:`SMALL_SPLIT` from ``src`` gives."""
    return np.concatenate([src[0:127:2], src[127:254:2]])


def unsplit(monkeypatch, launch, *args, **kwargs):
    """``launch(*args, **kwargs)`` with splitting off, then back on for the test."""
    monkeypatch.setattr(kernels, "_SPLIT_ELEMENTS", 1 << 62)
    try:
        return launch(*args, **kwargs)
    finally:
        monkeypatch.setattr(kernels, "_SPLIT_ELEMENTS", 0)


class RefusingHelper:
    """A helper's job queue that fails any launch handing it a chunk."""

    def put(self, job):
        raise AssertionError("a chunk was handed to a helper")


class TestSplit:
    """A launch of at least ``_SPLIT_ELEMENTS`` elements copies one chunk per
    host core; the helper threads behind it keep nothing and lose nothing."""

    @pytest.mark.parametrize(
        "start, counts, strides, count, extent, word_size, split, disjoint",
        [
            (0, [1, 4 * MIB], [1, 2], 2, 8 * MIB - 1, 1, 0, True),
            (0, [1, 4 * MIB], [1, 2], 1, 0, 1, 0, True),
            (0, [1, 4 * MIB - 1], [1, 2], 1, 0, 1, -1, False),
            (0, [1, 1024], [1, 512], 1, 0, 1, -1, False),
            (0, [8, MIB], [1, 16], 1, 0, 8, -1, False),
            (0, [8, MIB], [1, 16], 1, 0, 1, 0, True),
        ],
        ids=[
            "Fig. 8's 4 MiB object",
            "one object of 4 Mi elements",
            "one element short",
            "1 KiB object",
            "1 Mi 8-byte words",
            "the same bytes as 8 Mi 1-byte words",
        ],
    )
    def test_the_threshold_counts_elements(
        self, start, counts, strides, count, extent, word_size, split, disjoint
    ):
        layout = kernels.strided_layout(start, counts, strides, count, extent, word_size)
        assert (layout.split, layout.disjoint) == (split, disjoint)

    @pytest.mark.parametrize(
        "start, counts, strides, count, extent, split, disjoint",
        [
            (0, [1, 64], [1, 2], 2, 127, 0, True),
            (0, [1, 64], [1, 2], 2, 64, 0, False),
            (0, [1, 64], [1, 2], 1, 0, 0, True),
            (0, [4, 8, 1], [1, 16, 1000], 1, 0, 1, True),
            (0, [4, 8], [1, 2], 1, 0, 0, False),
            (0, [1], [1], 1, 0, -1, False),
        ],
        ids=[
            "objects back to back",
            "objects interleaved",
            "one object: the runs' axis",
            "a leading axis of one entry",
            "runs interleaved",
            "one element",
        ],
    )
    def test_split_axis_and_disjointness(
        self, monkeypatch, start, counts, strides, count, extent, split, disjoint
    ):
        monkeypatch.setattr(kernels, "_SPLIT_ELEMENTS", 0)
        layout = kernels.strided_layout(start, counts, strides, count, extent)
        assert (layout.split, layout.disjoint) == (split, disjoint)

    def test_a_launch_leaves_no_view_behind(self, host_cores, monkeypatch):
        host_cores(2)
        monkeypatch.setattr(kernels, "_SPLIT_ELEMENTS", 0)
        src, dst = make_memory(256, seed=11), np.zeros(128, dtype=np.uint8)
        kernels.pack_strided_many(src, dst, *SMALL_SPLIT)
        assert len(kernels._helpers) == 1
        # The helper copied one object; once the launch is back, nothing but
        # this test refers to either buffer.
        probes = weakref.ref(src), weakref.ref(dst)
        del src, dst
        assert [probe() for probe in probes] == [None, None]

        packed, dst = make_memory(128, seed=12), np.zeros(256, dtype=np.uint8)
        kernels.unpack_strided_many(packed, dst, *SMALL_SPLIT)
        probes = weakref.ref(packed), weakref.ref(dst)
        del packed, dst
        assert [probe() for probe in probes] == [None, None]

    def test_a_failing_chunk_raises_on_the_caller_and_the_helper_survives(self, host_cores, monkeypatch):
        host_cores(2)
        monkeypatch.setattr(kernels, "_SPLIT_ELEMENTS", 0)
        caller, copy = threading.current_thread(), kernels._copy

        def fails_on_a_helper(target, source, cells):
            if threading.current_thread() is not caller:
                raise RuntimeError("chunk failed on a helper")
            copy(target, source, cells)

        monkeypatch.setattr(kernels, "_copy", fails_on_a_helper)
        src = make_memory(256, seed=13)
        with pytest.raises(RuntimeError, match="chunk failed on a helper"):
            kernels.pack_strided_many(src, np.zeros(128, dtype=np.uint8), *SMALL_SPLIT)
        monkeypatch.setattr(kernels, "_copy", copy)

        (jobs,) = kernels._helpers
        done = queue.SimpleQueue()
        target = np.zeros(4, dtype=np.uint8)
        jobs.put((done, target, np.arange(4, dtype=np.uint8), None))
        assert done.get(timeout=10) is None and target.tolist() == [0, 1, 2, 3]
        dst = np.zeros(128, dtype=np.uint8)
        kernels.pack_strided_many(src, dst, *SMALL_SPLIT)
        assert kernels._helpers == [jobs]
        assert np.array_equal(dst, _small_split_runs(src))

    def test_concurrent_launches_share_the_helpers(self, host_cores, monkeypatch):
        # More launching threads than cores, switching as often as the
        # interpreter allows: the helpers start once, and every launch gets
        # its own chunks back.
        host_cores(3)
        monkeypatch.setattr(kernels, "_SPLIT_ELEMENTS", 0)
        geometry = (0, [1, 64], [1, 2], 3, 127)
        threads_before = threading.active_count()
        launchers, rounds = 6, 40
        sources = [make_memory(3 * 127, seed=20 + i) for i in range(launchers)]
        expected = [np.concatenate([src[o : o + 127 : 2] for o in (0, 127, 254)]) for src in sources]
        gate = threading.Barrier(launchers)
        correct = [0] * launchers

        def launch(i: int) -> None:
            dst = np.zeros(192, dtype=np.uint8)
            gate.wait(timeout=10)
            for _ in range(rounds):
                dst[:] = 0
                kernels.pack_strided_many(sources[i], dst, *geometry)
                correct[i] += int(np.array_equal(dst, expected[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=launch, args=(i,)) for i in range(launchers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert correct == [rounds] * launchers
        assert len(kernels._helpers) == 2 and threading.active_count() == threads_before + 2

    def test_one_core_starts_no_thread(self, host_cores, monkeypatch):
        host_cores(1)
        monkeypatch.setattr(kernels, "_SPLIT_ELEMENTS", 0)
        threads = threading.active_count()
        src, dst = make_memory(256, seed=14), np.zeros(128, dtype=np.uint8)
        kernels.pack_strided_many(src, dst, *SMALL_SPLIT)
        assert kernels._helpers == [] and threading.active_count() == threads
        assert np.array_equal(dst, _small_split_runs(src))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # forking with threads alive is the point
    def test_a_forked_child_starts_its_own_helpers(self, host_cores, monkeypatch):
        host_cores(2)
        monkeypatch.setattr(kernels, "_SPLIT_ELEMENTS", 0)
        src, dst = make_memory(256, seed=15), np.zeros(128, dtype=np.uint8)
        kernels.pack_strided_many(src, dst, *SMALL_SPLIT)
        parents = kernels._helpers
        assert len(parents) == 1
        pid = os.fork()
        if pid == 0:  # the child: its parent's helper thread is not here
            code = 1
            try:
                again = np.zeros_like(dst)
                kernels.pack_strided_many(src, again, *SMALL_SPLIT)
                fresh = kernels._helpers is not parents and len(kernels._helpers) == 1
                code = 0 if fresh and np.array_equal(again, dst) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        reaped, status = os.waitpid(pid, os.WNOHANG)
        while not reaped:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in a split launch")
            time.sleep(0.01)
            reaped, status = os.waitpid(pid, os.WNOHANG)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_buffers_that_share_memory_copy_unsplit(self, monkeypatch):
        monkeypatch.setattr(kernels, "_helpers", [RefusingHelper()])
        monkeypatch.setattr(kernels, "_SPLIT_ELEMENTS", 0)
        memory = make_memory(400, seed=16)
        expected = memory.copy()
        unsplit(monkeypatch, kernels.pack_strided_many, expected, expected[100:], *SMALL_SPLIT)
        kernels.pack_strided_many(memory, memory[100:], *SMALL_SPLIT)
        assert np.array_equal(memory, expected)
        with pytest.raises(AssertionError, match="handed to a helper"):
            kernels.pack_strided_many(memory, np.zeros(128, dtype=np.uint8), *SMALL_SPLIT)


class TestBlockListCopy:
    def test_gather(self):
        src = make_memory(128, seed=6)
        dst = np.zeros(12, dtype=np.uint8)
        blocks = [(0, 4), (50, 4), (100, 4)]
        moved = kernels.copy_block_list(src, dst, blocks, gather=True)
        assert moved == 12
        assert np.array_equal(dst, np.concatenate([src[0:4], src[50:54], src[100:104]]))

    def test_scatter(self):
        src = np.arange(12, dtype=np.uint8)
        dst = np.zeros(128, dtype=np.uint8)
        blocks = [(10, 6), (60, 6)]
        kernels.copy_block_list(src, dst, blocks, gather=False)
        assert np.array_equal(dst[10:16], src[:6])
        assert np.array_equal(dst[60:66], src[6:])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(CudaInvalidValue):
            kernels.copy_block_list(
                np.zeros(8, np.uint8), np.zeros(8, np.uint8), [(4, 8)], gather=True
            )

    def test_negative_block_rejected(self):
        with pytest.raises(CudaInvalidValue):
            kernels.copy_block_list(
                np.zeros(8, np.uint8), np.zeros(8, np.uint8), [(-1, 2)], gather=True
            )

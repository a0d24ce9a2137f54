"""Tests for the Packer (committed-datatype handler)."""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.gpu import kernels
from repro.gpu.cost_model import SUMMIT_GPU, GpuCostModel
from repro.gpu.memory import MemoryKind
from repro.gpu.runtime import CudaRuntime
from repro.tempi.packer import PackError, Packer
from repro.tempi.strided_block import StridedBlock


def block_2d(block=16, count=8, pitch=64) -> StridedBlock:
    return StridedBlock(start=0, counts=(block, count), strides=(1, pitch))


class TestSizes:
    def test_packed_size(self):
        packer = Packer(block_2d(), object_extent=512)
        assert packer.packed_size(1) == 128
        assert packer.packed_size(3) == 384

    def test_required_input(self):
        packer = Packer(block_2d(), object_extent=512)
        assert packer.required_input(1) == 7 * 64 + 16
        assert packer.required_input(2) == 512 + 7 * 64 + 16

    def test_invalid_arguments(self):
        packer = Packer(block_2d(), object_extent=512)
        with pytest.raises(PackError):
            packer.packed_size(0)
        with pytest.raises(PackError):
            Packer(block_2d(), object_extent=0)


class TestFunctionalPack:
    def test_pack_gathers_to_device(self, free_runtime):
        packer = Packer(block_2d(), object_extent=512)
        src = free_runtime.malloc(packer.required_input(1))
        dst = free_runtime.malloc(packer.packed_size(1))
        src.data[:] = np.arange(src.nbytes, dtype=np.uint32).astype(np.uint8)
        written = packer.pack(free_runtime, src, dst)
        assert written == 128
        expected = np.concatenate([src.data[i * 64 : i * 64 + 16] for i in range(8)])
        assert np.array_equal(dst.data, expected)

    def test_pack_to_mapped_host(self, free_runtime):
        packer = Packer(block_2d(), object_extent=512)
        src = free_runtime.malloc(packer.required_input(1))
        dst = free_runtime.host_alloc(packer.packed_size(1), MemoryKind.HOST_MAPPED)
        src.data[:] = 3
        packer.pack(free_runtime, src, dst)
        assert (dst.data == 3).all()

    def test_unpack_roundtrip(self, free_runtime):
        packer = Packer(block_2d(8, 4, 32), object_extent=256)
        original = free_runtime.malloc(packer.required_input(1))
        original.data[:] = np.random.default_rng(7).integers(0, 255, original.nbytes, dtype=np.uint8)
        packed = free_runtime.malloc(packer.packed_size(1))
        packer.pack(free_runtime, original, packed)
        scattered = free_runtime.malloc(packer.required_input(1))
        packer.unpack(free_runtime, packed, scattered)
        repacked = free_runtime.malloc(packer.packed_size(1))
        packer.pack(free_runtime, scattered, repacked)
        assert np.array_equal(packed.data, repacked.data)

    def test_multiple_objects_spaced_by_extent(self, free_runtime):
        packer = Packer(block_2d(4, 2, 16), object_extent=100)
        src = free_runtime.malloc(packer.required_input(3))
        src.data[:] = np.arange(src.nbytes, dtype=np.uint16).astype(np.uint8)
        dst = free_runtime.malloc(packer.packed_size(3))
        packer.pack(free_runtime, src, dst, count=3)
        expected = []
        for obj in range(3):
            for row in range(2):
                start = obj * 100 + row * 16
                expected.append(src.data[start : start + 4])
        assert np.array_equal(dst.data, np.concatenate(expected))

    def test_dst_offset(self, free_runtime):
        packer = Packer(block_2d(4, 2, 16), object_extent=64)
        src = free_runtime.malloc(64)
        dst = free_runtime.malloc(64)
        src.data[:] = 9
        packer.pack(free_runtime, src, dst, dst_offset=32)
        assert (dst.data[32:40] == 9).all()
        assert not dst.data[:32].any()

    def test_contiguous_block_uses_memcpy(self, free_runtime):
        packer = Packer(StridedBlock(4, (64,), (1,)), object_extent=128)
        src = free_runtime.malloc(128)
        dst = free_runtime.malloc(64)
        src.data[:] = np.arange(128, dtype=np.uint8)
        packer.pack(free_runtime, src, dst)
        assert np.array_equal(dst.data, src.data[4:68])
        assert free_runtime.kernel_launches == 0
        assert free_runtime.memcpy_calls == 1

    def test_stats_counters(self, free_runtime):
        packer = Packer(block_2d(), object_extent=512)
        src = free_runtime.malloc(packer.required_input(1))
        dst = free_runtime.malloc(packer.packed_size(1))
        packer.pack(free_runtime, src, dst)
        packer.unpack(free_runtime, dst, src)
        assert packer.stats.packs == 1
        assert packer.stats.unpacks == 1
        assert packer.stats.bytes_packed == 128


class TestValidation:
    def test_source_too_small(self, free_runtime):
        packer = Packer(block_2d(), object_extent=512)
        src = free_runtime.malloc(16)
        dst = free_runtime.malloc(packer.packed_size(1))
        with pytest.raises(PackError):
            packer.pack(free_runtime, src, dst)

    def test_destination_too_small(self, free_runtime):
        packer = Packer(block_2d(), object_extent=512)
        src = free_runtime.malloc(packer.required_input(1))
        dst = free_runtime.malloc(8)
        with pytest.raises(PackError):
            packer.pack(free_runtime, src, dst)

    def test_unpack_source_too_small(self, free_runtime):
        packer = Packer(block_2d(), object_extent=512)
        packed = free_runtime.malloc(8)
        out = free_runtime.malloc(packer.required_input(1))
        with pytest.raises(PackError):
            packer.unpack(free_runtime, packed, out)


class TestTiming:
    def test_device_pack_faster_than_host_pack_for_large_blocks(self, summit_runtime):
        packer = Packer(StridedBlock(0, (256, 4096), (1, 512)), object_extent=4096 * 512)
        src = summit_runtime.malloc(packer.required_input(1))
        device_dst = summit_runtime.malloc(packer.packed_size(1))
        host_dst = summit_runtime.host_alloc(packer.packed_size(1), MemoryKind.HOST_MAPPED)
        start = summit_runtime.clock.now
        packer.pack(summit_runtime, src, device_dst)
        device_elapsed = summit_runtime.clock.now - start
        start = summit_runtime.clock.now
        packer.pack(summit_runtime, src, host_dst)
        host_elapsed = summit_runtime.clock.now - start
        assert device_elapsed < host_elapsed

    def test_unpack_slower_than_pack(self, summit_runtime):
        packer = Packer(StridedBlock(0, (16, 4096), (1, 512)), object_extent=4096 * 512)
        src = summit_runtime.malloc(packer.required_input(1))
        dst = summit_runtime.malloc(packer.packed_size(1))
        start = summit_runtime.clock.now
        packer.pack(summit_runtime, src, dst)
        pack_elapsed = summit_runtime.clock.now - start
        start = summit_runtime.clock.now
        packer.unpack(summit_runtime, dst, src)
        unpack_elapsed = summit_runtime.clock.now - start
        assert unpack_elapsed > pack_elapsed


class _Spy:
    """Count calls of ``owner.name`` for the duration of a test."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def _count_calls(function) -> int:
    """Python and C calls made while ``function`` runs (``sys.setprofile``)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


class TestLaunchPlan:
    """A pack costs what the paper says it does: a lookup and one launch."""

    def test_warm_pack_replans_nothing(self, monkeypatch, summit_runtime):
        priced = _Spy(monkeypatch, GpuCostModel, "kernel_times")
        extents = _Spy(monkeypatch, kernels, "strided_layout")
        packer = Packer(block_2d(), object_extent=512)
        src = summit_runtime.malloc(packer.required_input(2))
        dst = summit_runtime.malloc(packer.packed_size(2))

        packer.pack(summit_runtime, src, dst)
        assert priced.calls and extents.calls
        cold = (priced.calls, extents.calls)
        packer.pack(summit_runtime, src, dst)
        packer.unpack(summit_runtime, dst, src)
        assert (priced.calls, extents.calls) == cold

        # Another count, another datatype: each plans for itself.
        packer.pack(summit_runtime, src, dst, count=2)
        assert priced.calls > cold[0] and extents.calls > cold[1]
        cold = (priced.calls, extents.calls)
        Packer(block_2d(), object_extent=512).pack(summit_runtime, src, dst)
        assert priced.calls > cold[0] and extents.calls > cold[1]

    def test_plan_is_repriced_under_another_cost_model(self):
        packer = Packer(block_2d(), object_extent=512)
        slow = replace(SUMMIT_GPU, d2d_bandwidth=1.0e9)
        elapsed = []
        for cost in (SUMMIT_GPU, slow, SUMMIT_GPU):
            runtime = CudaRuntime(cost_model=cost)
            src = runtime.malloc(packer.required_input(1))
            dst = runtime.malloc(packer.packed_size(1))
            start = runtime.clock.now
            packer.pack(runtime, src, dst)
            elapsed.append(runtime.clock.now - start)
        assert elapsed[0] == elapsed[2] < elapsed[1]

    def test_warm_plan_charges_what_a_cold_one_does(self, summit_runtime):
        warm = Packer(block_2d(), object_extent=512)
        src = summit_runtime.malloc(warm.required_input(3))
        dst = summit_runtime.host_alloc(warm.packed_size(3), MemoryKind.HOST_MAPPED)
        warm.pack(summit_runtime, src, dst, count=3)
        for operation in ("pack", "unpack"):
            elapsed = []
            for packer in (warm, Packer(block_2d(), object_extent=512)):
                start = summit_runtime.clock.now
                if operation == "pack":
                    packer.pack(summit_runtime, src, dst, count=3)
                else:
                    packer.unpack(summit_runtime, dst, src, count=3)
                elapsed.append(summit_runtime.clock.now - start)
            assert elapsed[0].hex() == elapsed[1].hex()

    def test_warm_plan_still_checks_its_buffers(self, free_runtime):
        packer = Packer(block_2d(), object_extent=512)
        src = free_runtime.malloc(packer.required_input(1))
        dst = free_runtime.malloc(packer.packed_size(1))
        small = free_runtime.malloc(16)
        messages = []
        for _ in ("cold", "warm"):
            with pytest.raises(PackError) as strided:
                packer.pack(free_runtime, small, dst)
            with pytest.raises(PackError) as dense:
                packer.unpack(free_runtime, small, src, src_offset=4)
            messages.append((str(strided.value), str(dense.value)))
            packer.pack(free_runtime, src, dst)
        assert messages[0] == messages[1] == (
            "strided source of 16 bytes cannot hold 1 object(s) needing 464 bytes",
            "contiguous source of 16 bytes cannot hold 128 bytes at offset 4",
        )

    def test_calls_do_not_grow_with_count(self, free_runtime):
        packer = Packer(block_2d(4, 2, 16), object_extent=32)
        src = free_runtime.malloc(packer.required_input(64))
        dst = free_runtime.malloc(packer.packed_size(64))
        counts = {}
        for count in (1, 64):
            packer.pack(free_runtime, src, dst, count=count)  # plan
            counts[count] = _count_calls(lambda: packer.pack(free_runtime, src, dst, count=count))
        assert counts[1] == counts[64]

    def test_pack_is_one_pass_without_a_temporary(self, free_runtime):
        # 1 MiB of 8-byte runs, every other run taken.
        packer = Packer(StridedBlock(0, (8, 1 << 17), (1, 16)), object_extent=1 << 21)
        src = free_runtime.malloc(packer.required_input(1))
        dst = free_runtime.malloc(packer.packed_size(1))
        src.data[:] = np.random.default_rng(11).integers(0, 256, src.nbytes, dtype=np.uint8)
        packer.pack(free_runtime, src, dst)  # plan
        tracemalloc.start()
        try:
            packer.pack(free_runtime, src, dst)
            packer.unpack(free_runtime, dst, src)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        rows = np.append(src.data, np.zeros(8, np.uint8)).reshape(-1, 16)
        assert np.array_equal(dst.data, rows[:, :8].reshape(-1))

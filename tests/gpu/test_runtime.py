"""Tests for the CudaRuntime facade."""

import numpy as np
import pytest

from repro.gpu.cost_model import FREE_GPU, SUMMIT_GPU
from repro.gpu.errors import CudaBufferError, CudaInvalidValue, CudaMemcpyError, CudaOutOfMemory
from repro.gpu.memory import MemoryKind
from repro.gpu.runtime import CudaRuntime, MemcpyKind


class TestAllocation:
    def test_malloc_charges_time_and_memory(self, summit_runtime):
        before = summit_runtime.clock.now
        buf = summit_runtime.malloc(4096)
        assert buf.is_device
        assert summit_runtime.clock.now - before == pytest.approx(SUMMIT_GPU.alloc_s)
        assert summit_runtime.device.memory_in_use == 4096

    def test_free_releases_memory(self, summit_runtime):
        buf = summit_runtime.malloc(4096)
        summit_runtime.free(buf)
        assert summit_runtime.device.memory_in_use == 0
        assert buf.freed

    def test_double_free_is_noop(self, summit_runtime):
        buf = summit_runtime.malloc(16)
        summit_runtime.free(buf)
        summit_runtime.free(buf)
        assert summit_runtime.device.memory_in_use == 0

    def test_cannot_free_view(self, summit_runtime):
        buf = summit_runtime.malloc(64)
        with pytest.raises(CudaInvalidValue):
            summit_runtime.free(buf.view(8))

    def test_out_of_memory_propagates(self):
        runtime = CudaRuntime(cost_model=FREE_GPU)
        with pytest.raises(CudaOutOfMemory):
            runtime.malloc(runtime.device.properties.total_memory + 1)

    def test_pinned_host_alloc_costs_more_than_pageable(self, summit_runtime):
        start = summit_runtime.clock.now
        summit_runtime.host_alloc(64, MemoryKind.HOST_PAGEABLE)
        pageable = summit_runtime.clock.now - start
        start = summit_runtime.clock.now
        summit_runtime.host_alloc(64, MemoryKind.HOST_PINNED)
        pinned = summit_runtime.clock.now - start
        assert pinned > pageable

    def test_host_alloc_rejects_device_kind(self, summit_runtime):
        with pytest.raises(CudaInvalidValue):
            summit_runtime.host_alloc(64, MemoryKind.DEVICE)

    def test_freeing_host_memory_charges_no_time(self, summit_runtime):
        buf = summit_runtime.host_alloc(64, MemoryKind.HOST_PINNED)
        before = summit_runtime.clock.now
        summit_runtime.free(buf)
        assert buf.freed
        assert summit_runtime.clock.now == before


class TestMemcpy:
    def test_functional_copy(self, free_runtime):
        src = free_runtime.malloc(64)
        dst = free_runtime.malloc(64)
        src.data[:] = np.arange(64, dtype=np.uint8)
        free_runtime.memcpy(dst, src)
        assert np.array_equal(dst.data, src.data)

    def test_offsets(self, free_runtime):
        src = free_runtime.host_alloc(32, MemoryKind.HOST_PAGEABLE)
        dst = free_runtime.malloc(32)
        src.data[:] = 3
        free_runtime.memcpy(dst, src, 8, dst_offset=16, src_offset=0)
        assert (dst.data[16:24] == 3).all()
        assert not dst.data[:16].any()

    def test_direction_inference_affects_cost(self, summit_runtime):
        device = summit_runtime.malloc(1 << 20)
        host = summit_runtime.host_alloc(1 << 20)
        start = summit_runtime.clock.now
        summit_runtime.memcpy(device, device)
        d2d = summit_runtime.clock.now - start
        start = summit_runtime.clock.now
        summit_runtime.memcpy(host, device)
        d2h = summit_runtime.clock.now - start
        assert d2h > d2d

    def test_explicit_kind_overrides_inference(self, summit_runtime):
        a = summit_runtime.malloc(1 << 20)
        b = summit_runtime.malloc(1 << 20)
        start = summit_runtime.clock.now
        summit_runtime.memcpy(a, b, kind=MemcpyKind.DEVICE_TO_HOST)
        forced = summit_runtime.clock.now - start
        start = summit_runtime.clock.now
        summit_runtime.memcpy(a, b)
        inferred = summit_runtime.clock.now - start
        assert forced > inferred

    def test_async_copy_does_not_block_host(self, summit_runtime):
        a = summit_runtime.malloc(1 << 20)
        b = summit_runtime.malloc(1 << 20)
        before = summit_runtime.clock.now
        summit_runtime.memcpy_async(a, b)
        assert summit_runtime.clock.now == before
        assert summit_runtime.default_stream.ready_time > summit_runtime.clock.now

    def test_too_large_copy_rejected(self, free_runtime):
        a = free_runtime.malloc(16)
        b = free_runtime.malloc(8)
        with pytest.raises(CudaMemcpyError):
            free_runtime.memcpy(a, b, 12)

    def test_negative_copy_size_rejected(self, free_runtime):
        a = free_runtime.malloc(8)
        with pytest.raises(CudaMemcpyError, match="negative"):
            free_runtime.memcpy(a, a, -1)
        assert free_runtime.memcpy_calls == 0

    def test_copy_from_freed_buffer_raises(self, free_runtime):
        src = free_runtime.malloc(8)
        dst = free_runtime.malloc(8)
        free_runtime.free(src)
        with pytest.raises(CudaBufferError):
            free_runtime.memcpy(dst, src, 8)

    def test_memcpy_counter(self, free_runtime):
        a = free_runtime.malloc(8)
        free_runtime.memcpy(a, a, 8)
        free_runtime.memcpy(a, a, 8)
        assert free_runtime.memcpy_calls == 2

    def test_memset(self, free_runtime):
        buf = free_runtime.malloc(32)
        free_runtime.memset(buf, 9)
        assert (buf.data == 9).all()


class TestKernelLaunches:
    def test_pack_moves_bytes(self, free_runtime):
        src = free_runtime.malloc(256)
        dst = free_runtime.malloc(32)
        src.data[:] = np.arange(256, dtype=np.uint8) % 251
        written = free_runtime.launch_pack(src, dst, 0, [8, 4], [1, 64])
        free_runtime.stream_synchronize()
        assert written == 32
        expected = np.concatenate([src.data[i * 64 : i * 64 + 8] for i in range(4)])
        assert np.array_equal(dst.data, expected)

    def test_unpack_moves_bytes(self, free_runtime):
        packed = free_runtime.malloc(32)
        dst = free_runtime.malloc(256)
        packed.data[:] = 7
        free_runtime.launch_unpack(packed, dst, 0, [8, 4], [1, 64])
        free_runtime.stream_synchronize()
        assert (dst.data[0:8] == 7).all()
        assert (dst.data[192:200] == 7).all()
        assert not dst.data[8:64].any()

    def test_kernel_cost_depends_on_block_length(self):
        slow = CudaRuntime(cost_model=SUMMIT_GPU)
        fast = CudaRuntime(cost_model=SUMMIT_GPU)
        size = 1 << 20
        src_slow = slow.malloc(size * 2)
        dst_slow = slow.malloc(size)
        src_fast = fast.malloc(size * 2)
        dst_fast = fast.malloc(size)
        start = slow.clock.now
        slow.launch_pack(src_slow, dst_slow, 0, [1, size], [1, 2])
        slow.stream_synchronize()
        slow_elapsed = slow.clock.now - start
        start = fast.clock.now
        fast.launch_pack(src_fast, dst_fast, 0, [256, size // 256], [1, 512])
        fast.stream_synchronize()
        fast_elapsed = fast.clock.now - start
        assert slow_elapsed > fast_elapsed

    def test_pack_to_host_charges_zero_copy_bandwidth(self, summit_runtime):
        size = 1 << 20
        src = summit_runtime.malloc(2 * size)
        device_dst = summit_runtime.malloc(size)
        host_dst = summit_runtime.host_alloc(size, MemoryKind.HOST_MAPPED)
        start = summit_runtime.clock.now
        summit_runtime.launch_pack(src, device_dst, 0, [256, size // 256], [1, 512])
        summit_runtime.stream_synchronize()
        device_time = summit_runtime.clock.now - start
        start = summit_runtime.clock.now
        summit_runtime.launch_pack(src, host_dst, 0, [256, size // 256], [1, 512])
        summit_runtime.stream_synchronize()
        host_time = summit_runtime.clock.now - start
        assert host_time > device_time

    def test_kept_plan_moves_and_charges_what_a_fresh_one_does(self):
        """``plan=`` skips only the planning: bytes and prices are the same."""
        plan = CudaRuntime(cost_model=SUMMIT_GPU).plan_launch(0, [8, 4], [1, 64])
        results = []
        for extra in ({"plan": plan}, {}):
            runtime = CudaRuntime(cost_model=SUMMIT_GPU)
            src = runtime.malloc(256)
            dst = runtime.malloc(32)
            src.data[:] = np.arange(256, dtype=np.uint8)
            start = runtime.clock.now
            assert runtime.launch_pack(src, dst, 0, [8, 4], [1, 64], **extra) == 32
            runtime.stream_synchronize()
            results.append((runtime.clock.now - start, dst.data.tobytes()))
        assert results[0] == results[1]

    def test_kernel_counter(self, free_runtime):
        src = free_runtime.malloc(128)
        dst = free_runtime.malloc(16)
        free_runtime.launch_pack(src, dst, 0, [8, 2], [1, 64])
        assert free_runtime.kernel_launches == 1


class TestStreamsAndSync:
    def test_stream_create_destroy(self, free_runtime):
        stream = free_runtime.stream_create("pack")
        assert stream.name == "pack"
        free_runtime.stream_destroy(stream)

    def test_stream_synchronize_charges_the_sync_overhead(self, summit_runtime):
        stream = summit_runtime.stream_create()
        ready = stream.enqueue(1e-3)
        assert summit_runtime.stream_synchronize(stream) == pytest.approx(
            ready + SUMMIT_GPU.kernel_sync_s
        )

    def test_work_on_separate_streams_overlaps(self, summit_runtime):
        """Draining two streams waits for the later one, not for the sum."""
        a = summit_runtime.malloc(1 << 20)
        b = summit_runtime.malloc(1 << 20)
        first, second = summit_runtime.stream_create(), summit_runtime.stream_create()
        start = summit_runtime.clock.now
        done_first = summit_runtime.memcpy_async(a, b, stream=first)
        done_second = summit_runtime.memcpy_async(b, a, stream=second)
        assert done_first == done_second
        summit_runtime.stream_synchronize(first)
        summit_runtime.stream_synchronize(second)
        copy_s = done_first - start
        assert summit_runtime.clock.now - start < 2 * copy_s
        assert summit_runtime.clock.now == pytest.approx(done_first + 2 * SUMMIT_GPU.kernel_sync_s)

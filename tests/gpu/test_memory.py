"""Tests for simulated device/host memory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import Device
from repro.gpu.errors import CudaBufferError, CudaInvalidValue
from repro.gpu.memory import Buffer, DeviceBuffer, HostBuffer, MemoryKind, MemoryPool
from repro.gpu.runtime import CudaRuntime


class TestBufferBasics:
    def test_device_buffer_is_device(self):
        buf = DeviceBuffer(64, Device(0))
        assert buf.is_device
        assert buf.kind is MemoryKind.DEVICE

    def test_host_buffer_kinds(self):
        for kind in (MemoryKind.HOST_PAGEABLE, MemoryKind.HOST_PINNED, MemoryKind.HOST_MAPPED):
            buf = HostBuffer(16, kind)
            assert not buf.is_device
            assert buf.kind is kind

    def test_host_buffer_rejects_device_kind(self):
        with pytest.raises(CudaInvalidValue):
            HostBuffer(16, MemoryKind.DEVICE)

    def test_negative_size_rejected(self):
        with pytest.raises(CudaInvalidValue):
            HostBuffer(-1)

    def test_zero_size_allowed(self):
        assert HostBuffer(0).nbytes == 0

    def test_data_initialised_to_zero(self):
        buf = HostBuffer(128)
        assert not buf.data.any()

    def test_len_matches_nbytes(self):
        assert len(HostBuffer(37)) == 37

    def test_host_kind_is_host(self):
        assert MemoryKind.HOST_PINNED.is_host
        assert not MemoryKind.DEVICE.is_host


class TestFillAndCopy:
    def test_fill(self):
        buf = HostBuffer(32)
        buf.fill(7)
        assert (buf.data == 7).all()

    def test_copy_from_host_roundtrip(self):
        buf = HostBuffer(40)
        values = np.arange(10, dtype=np.float32)
        buf.copy_from_host(values)
        assert np.array_equal(buf.as_ndarray("float32"), values)

    def test_copy_from_host_too_large_rejected(self):
        buf = HostBuffer(8)
        with pytest.raises(CudaBufferError):
            buf.copy_from_host(np.zeros(16, dtype=np.uint8))

    def test_to_host_is_a_copy(self):
        buf = HostBuffer(8)
        copy = buf.to_host()
        copy[:] = 99
        assert not buf.data.any()

    def test_as_ndarray_with_shape(self):
        buf = HostBuffer(24)
        arr = buf.as_ndarray("float64", shape=(3,))
        assert arr.shape == (3,)


class TestViews:
    def test_view_shares_memory(self):
        buf = HostBuffer(64)
        view = buf.view(16, 16)
        view.fill(5)
        assert (buf.data[16:32] == 5).all()
        assert not buf.data[:16].any()

    def test_view_of_view_offsets_accumulate(self):
        buf = HostBuffer(64)
        inner = buf.view(8).view(8)
        assert inner.offset == 16
        inner.fill(1)
        assert (buf.data[16:] == 1).all()

    def test_view_out_of_range_rejected(self):
        buf = HostBuffer(16)
        with pytest.raises(CudaBufferError):
            buf.view(8, 16)

    def test_view_is_flagged(self):
        buf = HostBuffer(16)
        assert not buf.is_view
        assert buf.view(4).is_view

    def test_view_inherits_kind_and_device(self):
        device = Device(3)
        buf = DeviceBuffer(16, device)
        view = buf.view(4)
        assert view.is_device
        assert view.device is device


class TestFreedBuffers:
    def _freed(self) -> Buffer:
        buf = HostBuffer(16)
        buf._freed = True
        return buf

    def test_data_after_free_raises(self):
        with pytest.raises(CudaBufferError):
            _ = self._freed().data

    def test_view_after_free_raises(self):
        with pytest.raises(CudaBufferError):
            self._freed().view(0, 4)

    def test_view_of_freed_parent_is_freed(self):
        buf = HostBuffer(16)
        view = buf.view(4)
        buf._freed = True
        assert view.freed


def _reference_freed(buffer: Buffer) -> bool:
    """``Buffer.freed`` as a property that recursed to the parent computed it."""
    if buffer._parent is not None:
        return _reference_freed(buffer._parent)
    return buffer._freed


def _reference(buffer: Buffer) -> tuple:
    """``(nbytes, is_device, is_view, freed)`` as the properties computed them."""
    return (
        int(buffer._array.nbytes),
        buffer.kind is MemoryKind.DEVICE,
        buffer._parent is not None,
        _reference_freed(buffer),
    )


@st.composite
def view_chains(draw):
    """A buffer kind and size, and a chain of views, each of the previous one."""
    kind = draw(st.sampled_from(list(MemoryKind)))
    size = draw(st.integers(0, 256))
    chain, remaining = [], size
    for _ in range(draw(st.integers(0, 4))):
        offset = draw(st.integers(0, remaining))
        nbytes = draw(st.one_of(st.none(), st.integers(0, remaining - offset)))
        chain.append((offset, nbytes))
        remaining = remaining - offset if nbytes is None else nbytes
    return kind, size, chain


def _allocate(runtime: CudaRuntime, kind: MemoryKind, size: int) -> Buffer:
    if kind is MemoryKind.DEVICE:
        return runtime.malloc(size)
    return runtime.host_alloc(size, kind)


class TestSlottedFacts:
    """Size and kind are slots; a view's parent is its root; freeing is seen through it."""

    @settings(max_examples=150, deadline=None)
    @given(case=view_chains())
    def test_facts_equal_what_the_properties_returned(self, case):
        kind, size, chain = case
        runtime = CudaRuntime()
        root = _allocate(runtime, kind, size)
        buffers = [root]
        for offset, nbytes in chain:
            buffers.append(buffers[-1].view(offset, nbytes))
        for buffer in buffers:
            assert (buffer.nbytes, buffer.is_device, buffer.is_view, buffer.freed) == _reference(buffer)
            assert buffer._parent in (None, root)
            assert len(buffer) == buffer.nbytes
        runtime.free(root)
        for buffer in buffers:
            assert (buffer.nbytes, buffer.is_device, buffer.is_view, buffer.freed) == _reference(buffer)
            assert buffer.freed

    @settings(max_examples=60, deadline=None)
    @given(case=view_chains())
    def test_every_view_of_a_freed_root_raises(self, case):
        kind, size, chain = case
        runtime = CudaRuntime()
        root = _allocate(runtime, kind, size)
        buffers = [root]
        for offset, nbytes in chain:
            buffers.append(buffers[-1].view(offset, nbytes))
        for view in buffers[1:]:
            with pytest.raises(CudaInvalidValue, match="cannot free a view"):
                runtime.free(view)
        runtime.free(root)
        uses = {
            "data": lambda b: b.data,
            "view": lambda b: b.view(0, 0),
            "as_ndarray": lambda b: b.as_ndarray(),
            "fill": lambda b: b.fill(1),
            "copy_from_host": lambda b: b.copy_from_host(np.zeros(0, dtype=np.uint8)),
            "to_host": lambda b: b.to_host(),
        }
        for buffer in buffers:
            for use in uses.values():
                with pytest.raises(CudaBufferError, match="^buffer used after free$"):
                    use(buffer)
        for view in buffers[1:]:
            with pytest.raises(CudaInvalidValue, match="cannot free a view"):
                runtime.free(view)


class TestMemoryPool:
    def test_miss_then_hit(self):
        pool = MemoryPool()
        assert pool.acquire(100, MemoryKind.DEVICE) is None
        buf = HostBuffer(128, MemoryKind.HOST_PINNED)
        pool.release(buf)
        again = pool.acquire(100, MemoryKind.HOST_PINNED)
        assert again is buf
        assert pool.hits == 1
        assert pool.misses == 1

    def test_bucketing_rounds_up(self):
        assert MemoryPool._bucket(1) == 1
        assert MemoryPool._bucket(3) == 4
        assert MemoryPool._bucket(1024) == 1024
        assert MemoryPool._bucket(1025) == 2048

    def test_smaller_buffer_of_the_same_bucket_is_not_handed_out(self):
        """43 008 and 45 056 bytes share the 65 536 bucket; only one fits both."""
        pool = MemoryPool()
        small = HostBuffer(43008, MemoryKind.HOST_PINNED)
        pool.release(small)
        assert pool.acquire(45056, MemoryKind.HOST_PINNED) is None
        assert len(pool) == 1  # the small buffer stays pooled ...
        large = HostBuffer(45056, MemoryKind.HOST_PINNED)
        pool.release(large)
        assert pool.acquire(45056, MemoryKind.HOST_PINNED) is large
        assert pool.acquire(43008, MemoryKind.HOST_PINNED) is small  # ... for a fit
        assert (pool.hits, pool.misses) == (2, 1)

    def test_kind_is_part_of_key(self):
        pool = MemoryPool()
        pool.release(HostBuffer(64, MemoryKind.HOST_PINNED))
        assert pool.acquire(64, MemoryKind.HOST_MAPPED) is None

    def test_cannot_pool_freed_buffer(self):
        pool = MemoryPool()
        buf = HostBuffer(16)
        buf._freed = True
        with pytest.raises(CudaBufferError):
            pool.release(buf)

    def test_clear_empties_pool(self):
        pool = MemoryPool()
        pool.release(HostBuffer(16))
        pool.clear()
        assert len(pool) == 0
        assert pool.acquire(16, MemoryKind.HOST_PAGEABLE) is None

"""Tests for simulated device/host memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import Device
from repro.gpu.errors import CudaBufferError, CudaInvalidValue
from repro.gpu.memory import Buffer, DeviceBuffer, HostBuffer, MemoryKind
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


class TestFillAndCopy:
    def test_fill(self):
        buf = HostBuffer(32)
        buf.fill(7)
        assert (buf.data == 7).all()


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

    def test_view_defaults_to_the_rest_of_the_buffer(self):
        buf = HostBuffer(64)
        view = buf.view(24)
        assert (view.offset, view.nbytes) == (24, 40)
        assert view.view().nbytes == 40

    def test_negative_view_rejected(self):
        buf = HostBuffer(16)
        with pytest.raises(CudaBufferError):
            buf.view(-1, 4)
        with pytest.raises(CudaBufferError):
            buf.view(4, -1)

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
            assert len(buffer.data) == buffer.nbytes
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
            "fill": lambda b: b.fill(1),
        }
        for buffer in buffers:
            for use in uses.values():
                with pytest.raises(CudaBufferError, match="^buffer used after free$"):
                    use(buffer)
        for view in buffers[1:]:
            with pytest.raises(CudaInvalidValue, match="cannot free a view"):
                runtime.free(view)

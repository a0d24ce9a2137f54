"""The simulated CUDA runtime facade.

:class:`CudaRuntime` is the single object the rest of the reproduction talks
to when it needs GPU work: allocations, copies, streams, events and the
strided pack/unpack kernels.  Each call both

* performs the functional effect on NumPy-backed buffers, and
* charges virtual time on the runtime's clock / streams according to the
  :class:`~repro.gpu.cost_model.GpuCostModel`.

One :class:`CudaRuntime` corresponds to one process's view of one GPU, which
matches the paper's setting (one V100 per MPI rank on Summit).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import enum

import numpy as np

from repro.gpu import kernels
from repro.gpu.clock import VirtualClock
from repro.gpu.cost_model import SUMMIT_GPU, GpuCostModel
from repro.gpu.device import Device
from repro.gpu.errors import CudaInvalidValue, CudaMemcpyError
from repro.gpu.memory import Buffer, DeviceBuffer, HostBuffer, MemoryKind
from repro.gpu.stream import Stream


class MemcpyKind(enum.Enum):
    """Direction of a ``cudaMemcpy``; DEFAULT infers it from the buffer kinds."""

    HOST_TO_DEVICE = "h2d"
    DEVICE_TO_HOST = "d2h"
    DEVICE_TO_DEVICE = "d2d"
    HOST_TO_HOST = "h2h"
    DEFAULT = "default"


class KernelLaunch(NamedTuple):
    """One planned pack/unpack launch: see :meth:`CudaRuntime.plan_launch`."""

    layout: kernels.StridedLayout
    #: Spacing of consecutive objects, defaulted if the caller gave none.
    object_extent: int
    #: Device seconds of the kernel by direction and by where the dense side
    #: lives; the launch latency is not in them.
    pack_device: float
    pack_host: float
    unpack_device: float
    unpack_host: float


class CudaRuntime:
    """Simulated CUDA runtime bound to one device and one virtual clock."""

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        cost_model: GpuCostModel = SUMMIT_GPU,
        device: Optional[Device] = None,
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.cost = cost_model
        self.device = device if device is not None else Device(0)
        self.default_stream = Stream(self.clock, name="default")
        self.kernel_launches = 0
        self.memcpy_calls = 0

    # ------------------------------------------------------------- allocation
    def malloc(self, nbytes: int) -> DeviceBuffer:
        """``cudaMalloc``: allocate device memory (charged ``alloc_s``)."""
        self.device.allocate(nbytes)
        self.clock.advance(self.cost.alloc_s)
        return DeviceBuffer(nbytes, self.device)

    def free(self, buffer: Buffer) -> None:
        """``cudaFree`` / ``cudaFreeHost``: release an allocation."""
        if buffer.is_view:
            raise CudaInvalidValue("cannot free a view; free its parent allocation")
        if buffer.freed:
            return
        if buffer.is_device:
            self.device.release(buffer.nbytes)
            self.clock.advance(self.cost.free_s)
        buffer._freed = True  # noqa: SLF001 - runtime owns buffer lifecycle

    def host_alloc(self, nbytes: int, kind: MemoryKind = MemoryKind.HOST_PINNED) -> HostBuffer:
        """``cudaHostAlloc`` / ``malloc``: allocate host memory of the given kind."""
        if kind is MemoryKind.DEVICE:
            raise CudaInvalidValue("host_alloc cannot produce device memory")
        if kind in (MemoryKind.HOST_PINNED, MemoryKind.HOST_MAPPED):
            self.clock.advance(self.cost.host_alloc_pinned_s)
        return HostBuffer(nbytes, kind)

    # ---------------------------------------------------------------- streams
    def stream_create(self, name: Optional[str] = None) -> Stream:
        """``cudaStreamCreate``."""
        return Stream(self.clock, name=name)

    def stream_destroy(self, stream: Stream) -> None:
        """``cudaStreamDestroy``."""
        stream.destroy()

    def stream_synchronize(self, stream: Optional[Stream] = None) -> float:
        """``cudaStreamSynchronize``: block the host until the stream drains."""
        stream = stream or self.default_stream
        return stream.synchronize(self.cost.kernel_sync_s)

    # ----------------------------------------------------------------- copies
    @staticmethod
    def _infer_kind(dst: Buffer, src: Buffer) -> MemcpyKind:
        if src.is_device and dst.is_device:
            return MemcpyKind.DEVICE_TO_DEVICE
        if src.is_device and not dst.is_device:
            return MemcpyKind.DEVICE_TO_HOST
        if not src.is_device and dst.is_device:
            return MemcpyKind.HOST_TO_DEVICE
        return MemcpyKind.HOST_TO_HOST

    def _memcpy_duration(self, nbytes: int, kind: MemcpyKind) -> float:
        if kind is MemcpyKind.DEVICE_TO_DEVICE:
            return self.cost.memcpy_d2d_time(nbytes)
        if kind is MemcpyKind.DEVICE_TO_HOST:
            return self.cost.memcpy_d2h_time(nbytes)
        if kind is MemcpyKind.HOST_TO_DEVICE:
            return self.cost.memcpy_h2d_time(nbytes)
        return self.cost.memcpy_h2h_time(nbytes)

    def memcpy_async(
        self,
        dst: Buffer,
        src: Buffer,
        nbytes: Optional[int] = None,
        kind: MemcpyKind = MemcpyKind.DEFAULT,
        stream: Optional[Stream] = None,
        dst_offset: int = 0,
        src_offset: int = 0,
    ) -> float:
        """``cudaMemcpyAsync``: copy bytes and enqueue the transfer time on a stream.

        Returns the virtual completion time of the copy on its stream.
        """
        stream = stream or self.default_stream
        if nbytes is None:
            nbytes = min(dst.nbytes - dst_offset, src.nbytes - src_offset)
        if nbytes < 0:
            raise CudaMemcpyError(f"negative copy size {nbytes}")
        if dst_offset + nbytes > dst.nbytes or src_offset + nbytes > src.nbytes:
            raise CudaMemcpyError(
                f"memcpy of {nbytes} bytes escapes buffers "
                f"(src {src.nbytes - src_offset} avail, dst {dst.nbytes - dst_offset} avail)"
            )
        if kind is MemcpyKind.DEFAULT:
            kind = self._infer_kind(dst, src)
        # Functional effect.
        dst.data[dst_offset : dst_offset + nbytes] = src.data[src_offset : src_offset + nbytes]
        self.memcpy_calls += 1
        duration = self._memcpy_duration(nbytes, kind)
        return stream.enqueue(duration)

    def memcpy(
        self,
        dst: Buffer,
        src: Buffer,
        nbytes: Optional[int] = None,
        kind: MemcpyKind = MemcpyKind.DEFAULT,
        dst_offset: int = 0,
        src_offset: int = 0,
    ) -> float:
        """Synchronous ``cudaMemcpy``: copy then block until it completes."""
        self.memcpy_async(dst, src, nbytes, kind, self.default_stream, dst_offset, src_offset)
        return self.default_stream.synchronize()

    def memset(self, buffer: Buffer, value: int, stream: Optional[Stream] = None) -> float:
        """``cudaMemsetAsync``."""
        stream = stream or self.default_stream
        buffer.fill(value)
        return stream.enqueue(self.cost.memcpy_d2d_time(buffer.nbytes))

    # ---------------------------------------------------------------- kernels
    def plan_launch(
        self,
        start: int,
        counts: Sequence[int],
        strides: Sequence[int],
        *,
        count: int = 1,
        object_extent: int = 0,
    ) -> KernelLaunch:
        """Everything about a pack/unpack launch that no buffer decides.

        The geometry is validated and laid out (the word too:
        :func:`~repro.gpu.kernels.strided_layout` is the one place it is
        chosen) and the kernel is priced for both directions and both
        targets by one :meth:`~repro.gpu.cost_model.GpuCostModel.kernel_times`
        call; :meth:`launch_pack` and
        :meth:`launch_unpack` take the result back as ``plan=``.  Layout and
        prices are pure functions of the arguments and of the frozen cost
        model, so a plan is good for any runtime whose ``cost`` is the one
        it was priced under; whoever keeps a plan checks that.
        """
        if count > 1 and not object_extent:
            # Objects tile the buffer when the caller names no extent.
            object_extent = kernels.required_extent(0, counts, strides)
        layout = kernels.strided_layout(start, counts, strides, count, object_extent)
        # The coalescing behaviour is governed by the contiguous run length
        # (counts[0]); the layout's word only changes instruction counts,
        # which the model folds into the launch constant, so it has no price.
        # The launch itself is charged to the host separately: each duration
        # is ``kernel_time(..., include_sync=False) - kernel_launch_s``.
        launch = self.cost.kernel_launch_s
        pack_device, pack_host, unpack_device, unpack_host = self.cost.kernel_times(
            layout.nbytes, int(counts[0])
        )
        return tuple.__new__(KernelLaunch, (
            layout,
            object_extent,
            pack_device - launch,
            pack_host - launch,
            unpack_device - launch,
            unpack_host - launch,
        ))

    def launch_pack(
        self,
        src: Buffer,
        dst: Buffer,
        start: int,
        counts: Sequence[int],
        strides: Sequence[int],
        *,
        count: int = 1,
        object_extent: int = 0,
        dst_offset: int = 0,
        stream: Optional[Stream] = None,
        plan: Optional[KernelLaunch] = None,
    ) -> int:
        """Launch a pack kernel: gather the strided object in ``src`` into ``dst``.

        ``plan`` is :meth:`plan_launch` of the same geometry, for callers
        that kept it.
        """
        if plan is None:
            plan = self.plan_launch(start, counts, strides, count=count, object_extent=object_extent)
        written = kernels.pack_strided_many(
            src.data, dst.data, start, counts, strides, count, plan.object_extent, dst_offset,
            layout=plan.layout,
        )
        self.kernel_launches += 1
        (stream or self.default_stream).enqueue(
            plan.pack_device if dst.is_device else plan.pack_host,
            host_overhead=self.cost.kernel_launch_s,
        )
        return written

    def launch_unpack(
        self,
        src: Buffer,
        dst: Buffer,
        start: int,
        counts: Sequence[int],
        strides: Sequence[int],
        *,
        count: int = 1,
        object_extent: int = 0,
        src_offset: int = 0,
        stream: Optional[Stream] = None,
        plan: Optional[KernelLaunch] = None,
    ) -> int:
        """Launch an unpack kernel: scatter ``src`` into the strided object in ``dst``."""
        if plan is None:
            plan = self.plan_launch(start, counts, strides, count=count, object_extent=object_extent)
        consumed = kernels.unpack_strided_many(
            src.data, dst.data, start, counts, strides, count, plan.object_extent, src_offset,
            layout=plan.layout,
        )
        self.kernel_launches += 1
        (stream or self.default_stream).enqueue(
            plan.unpack_device if src.is_device else plan.unpack_host,
            host_overhead=self.cost.kernel_launch_s,
        )
        return consumed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CudaRuntime device={self.device.ordinal} t={self.clock.now:.6f}s "
            f"kernels={self.kernel_launches} memcpys={self.memcpy_calls}>"
        )

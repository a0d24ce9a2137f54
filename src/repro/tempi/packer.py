"""Packers: the committed-datatype handlers.

At ``MPI_Type_commit`` time TEMPI builds one :class:`Packer` per datatype and
caches it on the datatype (Sec. 3).  A packer knows the datatype's
:class:`~repro.tempi.strided_block.StridedBlock` and its MPI extent (spacing
of consecutive objects in a user buffer); its :meth:`Packer.pack` /
:meth:`Packer.unpack` move any number of objects between the strided user
buffer and a contiguous buffer.

The paper puts all datatype work at commit time so that a pack is a lookup
plus one kernel launch.  The packer does the same with what only the object
count adds: the first pack or unpack of a ``count`` plans that transfer
(:class:`PackPlan`: sizes, memcpy or kernel, the runtime's launch layout and
its four durations) and every later one replays the plan — two bounds
comparisons and one launch.  The plan reads the block's fields itself, the
layout is laid out in one pass, and the four durations (pack and unpack,
into device or mapped host memory) are priced by one
:meth:`~repro.gpu.cost_model.GpuCostModel.kernel_times` call.  The kernel's word (``W``, Sec. 3.3) is part of
that launch layout, chosen by :func:`repro.gpu.kernels.strided_layout` from
the block, the count and the extent, so a commit selects nothing.

Whether a pack lands in device memory (the *device* method) or in mapped host
memory (the *one-shot* method) is decided by the caller simply by handing a
different destination buffer — the simulated runtime charges the matching
bandwidth, just as the real kernels see different memory behind the same
pointer type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.gpu.cost_model import GpuCostModel
from repro.gpu.memory import Buffer
from repro.gpu.runtime import CudaRuntime, KernelLaunch
from repro.tempi.strided_block import StridedBlock


class PackError(RuntimeError):
    """A pack/unpack call was inconsistent with the committed datatype."""


@dataclass
class PackerStats:
    """Counters used by tests and the cache-ablation benchmark."""

    packs: int = 0
    unpacks: int = 0
    bytes_packed: int = 0
    bytes_unpacked: int = 0


class PackPlan(NamedTuple):
    """What moving ``count`` objects of one committed datatype takes."""

    #: Packed bytes of the transfer.
    nbytes: int
    #: Bytes of user buffer the strided side must have.
    required: int
    #: The cost model ``launch`` was priced under.
    cost: GpuCostModel
    #: The planned kernel launch, or ``None`` when the transfer is one memcpy.
    launch: Optional[KernelLaunch]


class Packer:
    """Pack/unpack engine for one committed datatype."""

    def __init__(self, block: StridedBlock, object_extent: int) -> None:
        """Pack ``block``; objects begin ``object_extent`` bytes apart."""
        if object_extent <= 0:
            raise PackError(f"object extent must be positive, got {object_extent}")
        self.block = block
        #: ``block.block_length`` (bytes per contiguous run), read by every
        #: method selection: an attribute, where the property is a call.
        self.block_length = block.counts[0]
        self.object_extent = object_extent
        self.stats = PackerStats()
        #: count -> plan.  Block and extent never change after construction,
        #: so an entry can only go stale by its cost model.
        self._plans: dict[int, PackPlan] = {}

    # ------------------------------------------------------------------ sizes
    def packed_size(self, count: int = 1) -> int:
        """Bytes produced by packing ``count`` objects."""
        if count <= 0:
            raise PackError(f"count must be positive, got {count}")
        return self.block.packed_bytes * count

    def required_input(self, count: int = 1) -> int:
        """Bytes of user buffer needed to hold ``count`` objects."""
        return self.block.start + (count - 1) * self.object_extent + self.block.extent

    def _plan(self, runtime: CudaRuntime, count: int) -> PackPlan:
        """Plan moving ``count`` objects on ``runtime`` and keep the plan.

        Everything here follows from the committed datatype, ``count`` and
        the runtime's frozen cost model; a plan priced under another cost
        model is replaced.  The transfer is one memcpy when it is one
        contiguous run: a contiguous block for one object, or for several
        when consecutive objects tile the buffer without holes (MPI extent
        equals the payload size).  Otherwise it is one planned launch.
        """
        if count <= 0:
            raise PackError(f"count must be positive, got {count}")
        block, extent = self.block, self.object_extent
        payload = block.packed_bytes
        launch = None
        if block.counts[1:] or count > 1 and extent != payload:
            launch = runtime.plan_launch(
                block.start, block.counts, block.strides, count=count, object_extent=extent
            )
        plan = self._plans[count] = tuple.__new__(PackPlan, (
            payload * count,
            block.start + (count - 1) * extent + block.extent,
            runtime.cost,
            launch,
        ))
        return plan

    # ------------------------------------------------------------------- pack
    def pack(
        self,
        runtime: CudaRuntime,
        src: Buffer,
        dst: Buffer,
        count: int = 1,
        dst_offset: int = 0,
        *,
        stream=None,
        sync: bool = True,
    ) -> int:
        """Gather ``count`` objects from ``src`` into contiguous ``dst``.

        Returns the number of bytes written.  The source is the (possibly
        strided) user buffer; the destination decides the strategy: a device
        buffer for the *device* method, a mapped host buffer for *one-shot*.

        With ``stream`` given and ``sync=False`` the kernels are issued on
        that stream and the host returns after the launch overhead only —
        the plan executor uses this to overlap per-peer packs with wire time;
        the stream's ``ready_time`` is the pack's completion time.
        """
        plans = self._plans
        plan = plans[count] if count in plans else None
        if plan is None or plan.cost is not runtime.cost:
            plan = self._plan(runtime, count)
        nbytes = plan.nbytes
        if (
            src.nbytes < plan.required
            or dst_offset < 0
            or dst_offset + nbytes > dst.nbytes
        ):
            raise self._buffer_error(src, dst, count, plan, dst_offset, packing=True)
        if plan.launch is None:
            runtime.memcpy_async(
                dst,
                src,
                nbytes,
                dst_offset=dst_offset,
                src_offset=self.block.start,
                stream=stream,
            )
        else:
            runtime.launch_pack(
                src,
                dst,
                self.block.start,
                self.block.counts,
                self.block.strides,
                count=count,
                object_extent=self.object_extent,
                dst_offset=dst_offset,
                stream=stream,
                plan=plan.launch,
            )
        if sync:
            runtime.stream_synchronize(stream)
        self.stats.packs += 1
        self.stats.bytes_packed += nbytes
        return nbytes

    def unpack(
        self,
        runtime: CudaRuntime,
        src: Buffer,
        dst: Buffer,
        count: int = 1,
        src_offset: int = 0,
        *,
        stream=None,
        sync: bool = True,
    ) -> int:
        """Scatter ``count`` packed objects from contiguous ``src`` into ``dst``."""
        plans = self._plans
        plan = plans[count] if count in plans else None
        if plan is None or plan.cost is not runtime.cost:
            plan = self._plan(runtime, count)
        nbytes = plan.nbytes
        if (
            dst.nbytes < plan.required
            or src_offset < 0
            or src_offset + nbytes > src.nbytes
        ):
            raise self._buffer_error(dst, src, count, plan, src_offset, packing=False)
        if plan.launch is None:
            runtime.memcpy_async(
                dst,
                src,
                nbytes,
                dst_offset=self.block.start,
                src_offset=src_offset,
                stream=stream,
            )
        else:
            runtime.launch_unpack(
                src,
                dst,
                self.block.start,
                self.block.counts,
                self.block.strides,
                count=count,
                object_extent=self.object_extent,
                src_offset=src_offset,
                stream=stream,
                plan=plan.launch,
            )
        if sync:
            runtime.stream_synchronize(stream)
        self.stats.unpacks += 1
        self.stats.bytes_unpacked += nbytes
        return nbytes

    # -------------------------------------------------------------- validation
    @staticmethod
    def _buffer_error(
        strided: Buffer,
        contiguous: Buffer,
        count: int,
        plan: PackPlan,
        contiguous_offset: int,
        *,
        packing: bool,
    ) -> PackError:
        """The error for a buffer that failed the bounds checks of pack/unpack."""
        if strided.nbytes < plan.required:
            role = "source" if packing else "destination"
            return PackError(
                f"strided {role} of {strided.nbytes} bytes cannot hold {count} object(s) "
                f"needing {plan.required} bytes"
            )
        role = "destination" if packing else "source"
        return PackError(
            f"contiguous {role} of {contiguous.nbytes} bytes cannot hold {plan.nbytes} bytes "
            f"at offset {contiguous_offset}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Packer {self.block} extent={self.object_extent}>"

"""The Spectrum-like baseline datatype engine.

"Spectrum MPI 10.3.1.2 provides a baseline derived datatype handling approach
where each contiguous portion of the derived datatype is copied into a
contiguous buffer through cudaMemcpyAsync (or similar function)" (Sec. 6.2).
That behaviour — one driver call per contiguous block, regardless of how
small the block is — is what TEMPI's speedups are measured against, so the
simulated system MPI reproduces it faithfully in cost even when it shortcuts
the byte movement.

Cost accounting is analytic (``blocks × per-call overhead + bytes/bandwidth``)
so that datatypes with millions of blocks (Fig. 8's 4 MiB objects with 1 B
blocks) can be priced without enumerating the type map; the functional byte
movement is vectorised and can be disabled entirely (``move_data=False``)
for timing-only benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gpu.cost_model import GpuCostModel
from repro.gpu.memory import Buffer
from repro.gpu.runtime import CudaRuntime
from repro.mpi import typemap
from repro.mpi.datatype import Datatype
from repro.mpi.errors import MpiArgumentError


@dataclass(frozen=True)
class BaselineCost:
    """Breakdown of one baseline pack or unpack."""

    blocks: int
    bytes: int
    per_block_s: float
    bandwidth_s: float

    @property
    def total_s(self) -> float:
        """Seconds the whole pack or unpack costs."""
        return self.blocks * self.per_block_s + self.bandwidth_s


class BaselineDatatypeEngine:
    """Per-block ``cudaMemcpyAsync`` datatype handling (the system MPI's path)."""

    def __init__(self, runtime: CudaRuntime, *, move_data: bool = True) -> None:
        """Charge ``runtime``'s clock; ``move_data=False`` prices without copying."""
        self.runtime = runtime
        self.move_data = move_data

    # ------------------------------------------------------------------ costs
    def pack_cost(
        self,
        datatype: Datatype,
        count: int,
        *,
        device: bool = True,
    ) -> BaselineCost:
        """Cost of packing ``count`` elements with one memcpy per block."""
        cost: GpuCostModel = self.runtime.cost
        blocks = typemap.block_count(datatype, count)
        nbytes = typemap.packed_size(datatype, count)
        bandwidth = cost.d2d_bandwidth if device else cost.d2h_bandwidth
        return BaselineCost(
            blocks=blocks,
            bytes=nbytes,
            per_block_s=cost.memcpy_call_s,
            bandwidth_s=nbytes / bandwidth,
        )

    # ------------------------------------------------------------------- pack
    def pack(
        self,
        inbuf: Buffer,
        datatype: Datatype,
        count: int,
        outbuf: Buffer,
        out_offset: int = 0,
        *,
        in_offset: int = 0,
    ) -> int:
        """Pack ``count`` elements of ``datatype`` from ``inbuf`` into ``outbuf``.

        Returns the new position (``out_offset`` plus bytes written), matching
        ``MPI_Pack`` position semantics.  The caller's virtual clock advances
        by the analytic baseline cost.
        """
        datatype._check_committed()
        nbytes = typemap.packed_size(datatype, count)
        if out_offset < 0 or out_offset + nbytes > outbuf.nbytes:
            raise MpiArgumentError(
                f"pack of {nbytes} bytes at position {out_offset} escapes the "
                f"{outbuf.nbytes}-byte output buffer"
            )
        device = inbuf.is_device or outbuf.is_device
        cost = self.pack_cost(datatype, count, device=device)
        if self.move_data:
            self._gather(inbuf, datatype, count, outbuf, out_offset, in_offset)
        self.runtime.clock.advance(cost.total_s)
        return out_offset + nbytes

    def unpack(
        self,
        inbuf: Buffer,
        in_offset: int,
        outbuf: Buffer,
        datatype: Datatype,
        count: int,
        *,
        out_offset: int = 0,
    ) -> int:
        """Unpack ``count`` elements from ``inbuf`` into strided ``outbuf``.

        Returns the new input position.  Mirrors :meth:`pack`.
        """
        datatype._check_committed()
        nbytes = typemap.packed_size(datatype, count)
        if in_offset < 0 or in_offset + nbytes > inbuf.nbytes:
            raise MpiArgumentError(
                f"unpack of {nbytes} bytes at position {in_offset} escapes the "
                f"{inbuf.nbytes}-byte input buffer"
            )
        device = inbuf.is_device or outbuf.is_device
        cost = self.pack_cost(datatype, count, device=device)
        if self.move_data:
            self._scatter(inbuf, in_offset, outbuf, datatype, count, out_offset)
        self.runtime.clock.advance(cost.total_s)
        return in_offset + nbytes

    # ------------------------------------------------------------ byte moving
    # The *cost* is per-block, but the functional byte movement is vectorised
    # whenever every block has the same length (true for all strided types),
    # so simulating a million-block baseline pack does not take minutes of
    # wall time for what is nanoseconds of virtual time accounting.
    @staticmethod
    def _block_indices(offsets: np.ndarray, lengths: np.ndarray) -> Optional[np.ndarray]:
        if len(lengths) == 0:
            return None
        length = int(lengths[0])
        if not np.all(lengths == length):
            return None
        return (offsets[:, None] + np.arange(length, dtype=np.int64)[None, :]).reshape(-1)

    @staticmethod
    def _gather(
        inbuf: Buffer,
        datatype: Datatype,
        count: int,
        outbuf: Buffer,
        out_offset: int,
        in_offset: int,
    ) -> None:
        offsets, lengths = typemap.offsets_and_lengths(datatype, count)
        src = inbuf.data
        dst = outbuf.data
        indices = BaselineDatatypeEngine._block_indices(offsets, lengths)
        if indices is not None:
            total = indices.size
            dst[out_offset : out_offset + total] = src[in_offset + indices]
            return
        cursor = out_offset
        for offset, length in zip(offsets, lengths):
            begin = in_offset + int(offset)
            dst[cursor : cursor + length] = src[begin : begin + int(length)]
            cursor += int(length)

    @staticmethod
    def _scatter(
        inbuf: Buffer,
        in_offset: int,
        outbuf: Buffer,
        datatype: Datatype,
        count: int,
        out_offset: int,
    ) -> None:
        offsets, lengths = typemap.offsets_and_lengths(datatype, count)
        src = inbuf.data
        dst = outbuf.data
        indices = BaselineDatatypeEngine._block_indices(offsets, lengths)
        if indices is not None:
            total = indices.size
            dst[out_offset + indices] = src[in_offset : in_offset + total]
            return
        cursor = in_offset
        for offset, length in zip(offsets, lengths):
            begin = out_offset + int(offset)
            dst[begin : begin + int(length)] = src[cursor : cursor + int(length)]
            cursor += int(length)

    # ------------------------------------------------------------- validation
    @staticmethod
    def check_fits(buffer: Buffer, datatype: Datatype, count: int, offset: int = 0) -> None:
        """Verify ``count`` elements of ``datatype`` fit in ``buffer`` at ``offset``."""
        needed = offset + (count - 1) * datatype.extent + datatype.ub
        if needed > buffer.nbytes:
            raise MpiArgumentError(
                f"user buffer of {buffer.nbytes} bytes cannot hold {count} element(s) "
                f"of extent {datatype.extent}: {needed} bytes needed"
            )


def contiguous_payload(
    buffer: Buffer, datatype: Datatype, count: int, offset: int = 0
) -> Optional[np.ndarray]:
    """Return a zero-copy view of the payload when the datatype is contiguous.

    This is the system library's one statement of "a contiguous section is
    not packed": when ``count`` elements of ``datatype`` are adjacent bytes
    (named types, dense compositions) the caller copies this one slice
    instead of running the per-block engine, and pays no baseline charge.
    The view starts where the engine places the first byte — ``offset`` plus
    the first offset of the type map, which is the ``lb`` of an indexed or
    struct type — so both routes move the same bytes.  Returns ``None`` for
    any other datatype.
    """
    if not datatype.is_contiguous_bytes:
        return None
    begin = offset + next(datatype.layout())[0]
    end = begin + datatype.size * count
    if end > buffer.nbytes:
        raise MpiArgumentError(
            f"{count} contiguous element(s) of {datatype.size} bytes at offset {begin} "
            f"escape the {buffer.nbytes}-byte buffer"
        )
    return buffer.data[begin:end]

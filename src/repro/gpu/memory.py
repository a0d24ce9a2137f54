"""Simulated device and host memory.

Every buffer is backed by a NumPy ``uint8`` array so the pack/unpack kernels
and MPI transfers in this reproduction move real bytes and can be verified.
The *kind* of a buffer matters for two reasons that the paper leans on:

* TEMPI must detect whether an application pointer is GPU resident before it
  decides to interpose (Sec. 6.3 counts this check in the latency floor); the
  simulation exposes :attr:`Buffer.is_device` for the same purpose.
* The "one-shot" method packs directly into *mapped* (zero-copy) host memory,
  which is slower per byte than device memory but skips a later ``cudaMemcpy``;
  :class:`MemoryKind` distinguishes pageable, pinned and mapped host memory so
  the cost model can charge the right bandwidth.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.gpu.device import Device
from repro.gpu.errors import CudaBufferError, CudaInvalidValue


class MemoryKind(enum.Enum):
    """Where a buffer's bytes live in the simulated machine."""

    DEVICE = "device"
    HOST_PAGEABLE = "host_pageable"
    HOST_PINNED = "host_pinned"
    HOST_MAPPED = "host_mapped"

    # Members are singletons compared by identity; hash them the same way, in
    # C (``Enum.__hash__`` is a Python-level call per dict probe of the pool).
    __hash__ = object.__hash__


class Buffer:
    """A contiguous simulated allocation (or a view into one).

    Views share the underlying NumPy storage with their parent, mirroring
    pointer arithmetic on a real allocation; a view's parent is always the
    root allocation.  What construction fixes is a slot, read with no call:
    ``nbytes`` (the size) and ``is_device`` (the bytes live on the GPU).
    """

    __slots__ = ("_array", "kind", "device", "_freed", "_parent", "offset", "nbytes", "is_device")

    def __init__(
        self,
        nbytes: int,
        kind: MemoryKind,
        device: Optional[Device] = None,
        *,
        _array: Optional[np.ndarray] = None,
        _parent: Optional["Buffer"] = None,
        _offset: int = 0,
    ) -> None:
        if nbytes < 0:
            raise CudaInvalidValue(f"buffer size must be non-negative, got {nbytes}")
        if _array is None:
            _array = np.zeros(nbytes, dtype=np.uint8)
        self._array = _array
        self.kind = kind
        self.device = device
        self._freed = False
        self._parent = _parent
        self.offset = _offset
        self.nbytes: int = _array.nbytes
        self.is_device: bool = kind is MemoryKind.DEVICE

    # ------------------------------------------------------------------ basics
    @property
    def data(self) -> np.ndarray:
        """The backing ``uint8`` array (shared with any views)."""
        if self._freed or self._parent is not None and self._parent._freed:
            raise CudaBufferError("buffer used after free")
        return self._array

    @property
    def is_view(self) -> bool:
        """True when this buffer aliases part of a parent allocation."""
        return self._parent is not None

    @property
    def freed(self) -> bool:
        """True once the allocation (or its parent) has been freed."""
        return self._freed or self._parent is not None and self._parent._freed

    # ------------------------------------------------------------------- views
    def view(self, offset: int = 0, nbytes: Optional[int] = None) -> "Buffer":
        """Return a sub-buffer aliasing ``[offset, offset + nbytes)``.

        This is the moral equivalent of pointer arithmetic on a ``void*``.
        """
        if self._freed or self._parent is not None and self._parent._freed:
            raise CudaBufferError("buffer used after free")
        if nbytes is None:
            nbytes = self.nbytes - offset
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise CudaBufferError(
                f"view [{offset}, {offset + nbytes}) outside buffer of {self.nbytes} bytes"
            )
        return Buffer(
            nbytes,
            self.kind,
            self.device,
            _array=self._array[offset : offset + nbytes],
            _parent=self._parent if self._parent is not None else self,
            _offset=self.offset + offset,
        )

    # ------------------------------------------------------------------ access
    def fill(self, value: int) -> None:
        """Set every byte to ``value`` (like ``cudaMemset``)."""
        self.data[:] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"gpu{self.device.ordinal}" if self.device is not None else "host"
        return f"<Buffer {self.kind.value} {self.nbytes}B on {where}>"


class DeviceBuffer(Buffer):
    """A buffer in simulated device memory."""

    def __init__(self, nbytes: int, device: Device, **kwargs) -> None:
        super().__init__(nbytes, MemoryKind.DEVICE, device, **kwargs)


class HostBuffer(Buffer):
    """A buffer in simulated host memory (pageable, pinned or mapped)."""

    def __init__(self, nbytes: int, kind: MemoryKind = MemoryKind.HOST_PAGEABLE, **kwargs) -> None:
        if kind is MemoryKind.DEVICE:
            raise CudaInvalidValue("HostBuffer cannot have DEVICE kind")
        super().__init__(nbytes, kind, None, **kwargs)

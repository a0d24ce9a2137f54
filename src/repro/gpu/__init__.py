"""Simulated CUDA substrate.

The paper's system (TEMPI) performs all of its non-contiguous data handling
with the CUDA runtime: device allocations, pinned/mapped host allocations,
streams, ``cudaMemcpyAsync`` and hand-written pack/unpack kernels.
No GPU is available to this reproduction, so this package provides a
*functional* simulation of that runtime:

* buffers are NumPy byte arrays, so every copy and every pack/unpack kernel
  really moves bytes and can be checked for correctness; and
* every operation advances a per-context :class:`~repro.gpu.clock.VirtualClock`
  by a duration computed from a :class:`~repro.gpu.cost_model.GpuCostModel`
  calibrated to the published characteristics of a Summit node (V100 GPUs,
  NVLink 2 CPU-GPU links), so latency *shapes* (launch floors, bandwidth
  vs. access-coalescing) survive the substitution.

The public surface mirrors the small slice of the CUDA runtime API that TEMPI
uses; see :class:`~repro.gpu.runtime.CudaRuntime`.
"""

from repro.gpu.clock import VirtualClock
from repro.gpu.cost_model import GpuCostModel
from repro.gpu.device import Device, DeviceProperties
from repro.gpu.errors import (
    CudaError,
    CudaInvalidValue,
    CudaMemcpyError,
    CudaOutOfMemory,
)
from repro.gpu.memory import (
    DeviceBuffer,
    HostBuffer,
    MemoryKind,
    MemoryPool,
)
from repro.gpu.runtime import CudaRuntime, MemcpyKind
from repro.gpu.stream import Stream

__all__ = [
    "CudaError",
    "CudaInvalidValue",
    "CudaMemcpyError",
    "CudaOutOfMemory",
    "CudaRuntime",
    "Device",
    "DeviceBuffer",
    "DeviceProperties",
    "GpuCostModel",
    "HostBuffer",
    "MemcpyKind",
    "MemoryKind",
    "MemoryPool",
    "Stream",
    "VirtualClock",
]

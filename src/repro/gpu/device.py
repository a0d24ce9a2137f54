"""Simulated GPU device description.

:class:`DeviceProperties` describes a simulated GPU (a V100 by default);
:class:`Device` owns the memory accounting for one GPU.  The pack kernels
read no device property: their launch layout is geometric
(:func:`repro.gpu.kernels.strided_layout`) and their price comes from
:class:`~repro.gpu.cost_model.GpuCostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.errors import CudaInvalidValue, CudaOutOfMemory


@dataclass(frozen=True)
class DeviceProperties:
    """Static properties of a simulated GPU (defaults: Tesla V100-SXM2-16GB)."""

    name: str = "Tesla V100-SXM2-16GB (simulated)"
    total_memory: int = 16 * 1024**3
    warp_size: int = 32
    multiprocessors: int = 80
    clock_rate_khz: int = 1530000

    def __post_init__(self) -> None:
        if self.total_memory <= 0:
            raise CudaInvalidValue("total_memory must be positive")


@dataclass
class Device:
    """One simulated GPU: an ordinal, static properties and memory accounting."""

    ordinal: int = 0
    properties: DeviceProperties = field(default_factory=DeviceProperties)
    _allocated: int = field(default=0, repr=False)
    _peak: int = field(default=0, repr=False)

    def allocate(self, nbytes: int) -> None:
        """Account for a device allocation; raises :class:`CudaOutOfMemory` on overflow."""
        if nbytes < 0:
            raise CudaInvalidValue(f"allocation size must be non-negative, got {nbytes}")
        if self._allocated + nbytes > self.properties.total_memory:
            raise CudaOutOfMemory(
                f"device {self.ordinal}: allocating {nbytes} bytes exceeds "
                f"{self.properties.total_memory} byte capacity "
                f"({self._allocated} in use)"
            )
        self._allocated += nbytes
        if self._allocated > self._peak:
            self._peak = self._allocated

    def release(self, nbytes: int) -> None:
        """Account for a device free."""
        if nbytes < 0:
            raise CudaInvalidValue(f"free size must be non-negative, got {nbytes}")
        self._allocated = max(0, self._allocated - nbytes)

    @property
    def memory_in_use(self) -> int:
        """Bytes currently allocated on the device."""
        return self._allocated

    @property
    def peak_memory(self) -> int:
        """High-water mark of device allocations (metadata-footprint claims, Sec. 2)."""
        return self._peak

    @property
    def memory_free(self) -> int:
        """Bytes still available."""
        return self.properties.total_memory - self._allocated

"""Timing model of the simulated GPU.

The paper's results are shaped by a small number of device characteristics:

* a latency floor for every kernel launch and every ``cudaMemcpyAsync`` call
  (Sec. 6.2 attributes the Spectrum MPI baseline's pathology to one memcpy
  per contiguous block; Sec. 6.3 attributes TEMPI's ~30 µs send floor mostly
  to pack/unpack kernel launches);
* device-memory bandwidth, whose effective value degrades for short
  contiguous blocks because accesses stop being coalesced ("in-device
  performance is maximized at 128 B blocks", Fig. 10); and
* the CPU-GPU interconnect bandwidth used both by plain ``cudaMemcpy`` and by
  zero-copy (mapped host memory) accesses from pack kernels ("one-shot
  performance is maximized at 32 B blocks", Fig. 10).

:class:`GpuCostModel` turns those characteristics into durations.  Default
values approximate a Summit node (V100 + NVLink 2); they are deliberately
kept as plain dataclass fields so benchmarks and tests can build degenerate
models (e.g. zero launch latency) to isolate effects.
"""

from __future__ import annotations

from dataclasses import dataclass


def _positive(name: str, value: float) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class GpuCostModel:
    """Durations (seconds) and bandwidths (bytes/second) of a simulated GPU.

    Attributes
    ----------
    kernel_launch_s:
        Host-side latency of launching one kernel.
    kernel_sync_s:
        Latency of ``cudaStreamSynchronize`` once the stream is idle.
    memcpy_call_s:
        Host-side latency of one ``cudaMemcpyAsync`` call.  The baseline
        (Spectrum-like) datatype engine pays this once per contiguous block.
    alloc_s / free_s:
        Latency of ``cudaMalloc`` / ``cudaFree``; motivates TEMPI's resource
        cache (Sec. 5).
    host_alloc_pinned_s:
        Latency of ``cudaHostAlloc``; also cached by TEMPI.
    d2d_bandwidth:
        Device-memory copy bandwidth (bytes/s) for perfectly coalesced access.
    d2h_bandwidth / h2d_bandwidth:
        CPU-GPU interconnect bandwidth for bulk copies.
    zero_copy_bandwidth:
        Bandwidth of kernel loads/stores against mapped host memory
        (the "one-shot" path).
    device_saturation_block:
        Contiguous-block length (bytes) at which device-memory accesses from
        the pack kernel become fully coalesced.
    zero_copy_saturation_block:
        Same, for zero-copy accesses over the interconnect.
    min_efficiency:
        Lower bound of the coalescing-efficiency factor (1-byte blocks still
        move one transaction per element, not zero bandwidth).
    unpack_penalty:
        Multiplier applied to kernel time when the *strided* side is written
        rather than read (Fig. 10: unpack is slower than pack).
    """

    kernel_launch_s: float = 4.0e-6
    kernel_sync_s: float = 2.5e-6
    memcpy_call_s: float = 9.0e-6
    alloc_s: float = 120.0e-6
    free_s: float = 80.0e-6
    host_alloc_pinned_s: float = 250.0e-6
    d2d_bandwidth: float = 780.0e9
    d2h_bandwidth: float = 45.0e9
    h2d_bandwidth: float = 45.0e9
    zero_copy_bandwidth: float = 38.0e9
    device_saturation_block: int = 128
    zero_copy_saturation_block: int = 32
    min_efficiency: float = 1.0 / 160.0
    unpack_penalty: float = 1.35

    def __post_init__(self) -> None:
        for name in (
            "d2d_bandwidth",
            "d2h_bandwidth",
            "h2d_bandwidth",
            "zero_copy_bandwidth",
        ):
            _positive(name, getattr(self, name))
        _positive("device_saturation_block", self.device_saturation_block)
        _positive("zero_copy_saturation_block", self.zero_copy_saturation_block)
        if not 0 < self.min_efficiency <= 1:
            raise ValueError("min_efficiency must be in (0, 1]")
        if self.unpack_penalty < 1:
            raise ValueError("unpack_penalty must be >= 1")

    # ------------------------------------------------------------------ copies
    def memcpy_time(self, nbytes: int, bandwidth: float) -> float:
        """Duration of one bulk copy of ``nbytes`` at ``bandwidth``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return self.memcpy_call_s + nbytes / bandwidth

    def memcpy_d2d_time(self, nbytes: int) -> float:
        """Device-to-device bulk copy duration."""
        return self.memcpy_time(nbytes, self.d2d_bandwidth)

    def memcpy_d2h_time(self, nbytes: int) -> float:
        """Device-to-host bulk copy duration."""
        return self.memcpy_time(nbytes, self.d2h_bandwidth)

    def memcpy_h2d_time(self, nbytes: int) -> float:
        """Host-to-device bulk copy duration."""
        return self.memcpy_time(nbytes, self.h2d_bandwidth)

    def memcpy_h2h_time(self, nbytes: int) -> float:
        """Host-to-host copy duration (staging buffers); cheap relative to the rest."""
        return 0.3e-6 + nbytes / (2.0 * self.d2h_bandwidth)

    # ----------------------------------------------------------------- kernels
    def coalescing_efficiency(self, block_bytes: int, saturation_block: int) -> float:
        """Fraction of peak bandwidth achieved for ``block_bytes`` contiguous runs.

        Short blocks waste memory / interconnect transactions; efficiency grows
        linearly with the block length until it saturates at
        ``saturation_block`` bytes, matching the qualitative description of
        Fig. 10.
        """
        if block_bytes <= 0:
            raise ValueError(f"block_bytes must be positive, got {block_bytes}")
        eff = block_bytes / float(saturation_block)
        # min(1.0, max(self.min_efficiency, eff)) without calls; no operand is NaN.
        if not eff > self.min_efficiency:
            eff = self.min_efficiency
        return eff if eff < 1.0 else 1.0

    def kernel_time(
        self,
        total_bytes: int,
        block_bytes: int,
        *,
        target: str = "device",
        unpack: bool = False,
        include_sync: bool = True,
    ) -> float:
        """Duration of one pack or unpack kernel.

        Parameters
        ----------
        total_bytes:
            Number of payload bytes gathered or scattered by the kernel.
        block_bytes:
            Length of each contiguous run in the strided object.
        target:
            ``"device"`` when the contiguous side lives in device memory
            (the *device* method), ``"host"`` when it is a mapped host buffer
            (the *one-shot* method).
        unpack:
            True when the strided side is written (scatter); slower than the
            gather direction because writes are harder to coalesce.
        include_sync:
            Include the trailing ``cudaStreamSynchronize`` latency, which
            TEMPI always performs before handing the buffer to MPI.
        """
        if total_bytes < 0:
            raise ValueError(f"total_bytes must be non-negative, got {total_bytes}")
        if target == "device":
            bandwidth = self.d2d_bandwidth
            saturation = self.device_saturation_block
        elif target == "host":
            bandwidth = self.zero_copy_bandwidth
            saturation = self.zero_copy_saturation_block
        else:
            raise ValueError(f"unknown kernel target {target!r}")
        # max(1, min(block_bytes, total_bytes)) without calls.
        block = total_bytes if total_bytes < block_bytes else block_bytes
        eff = self.coalescing_efficiency(block if block > 1 else 1, saturation)
        transfer = total_bytes / (bandwidth * eff)
        if unpack:
            transfer *= self.unpack_penalty
        duration = self.kernel_launch_s + transfer
        if include_sync:
            duration += self.kernel_sync_s
        return duration


#: Cost model approximating one Summit node (V100 + NVLink 2).  Used as the
#: default by :class:`repro.gpu.runtime.CudaRuntime` and by the benchmarks.
SUMMIT_GPU = GpuCostModel()

#: A zero-latency, infinite-bandwidth model for tests that only care about
#: functional correctness and want clocks to stay put.
FREE_GPU = GpuCostModel(
    kernel_launch_s=0.0,
    kernel_sync_s=0.0,
    memcpy_call_s=0.0,
    alloc_s=0.0,
    free_s=0.0,
    host_alloc_pinned_s=0.0,
    d2d_bandwidth=1e30,
    d2h_bandwidth=1e30,
    h2d_bandwidth=1e30,
    zero_copy_bandwidth=1e30,
)

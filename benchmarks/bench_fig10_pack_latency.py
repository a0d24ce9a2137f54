"""Figure 10: pack/unpack latency of the one-shot and device strategies.

Four panels: {one-shot, device} x {pack, unpack}, each sweeping the object
size (64 B - 4 MiB) and the contiguous block length (1 - 128 B).  The claims
this reproduction checks:

* larger objects are faster per byte (GPU better utilised);
* larger contiguous blocks are faster (coalescing), saturating earlier for
  the one-shot (zero-copy) strategy than for the device strategy;
* unpack is slower than pack (scattered writes).
"""

from __future__ import annotations

from repro.bench.workloads import FIG10_BLOCK_SIZES, FIG10_OBJECT_SIZES
from repro.gpu.memory import MemoryKind
from repro.gpu.runtime import CudaRuntime
from repro.machine.spec import SUMMIT
from repro.tempi.measurement import _measurement_block
from repro.tempi.packer import Packer


def _latency(object_bytes: int, block_bytes: int, *, target: str, unpack: bool) -> float:
    """Simulated latency of one pack or unpack at one grid point."""
    shape = _measurement_block(object_bytes, block_bytes)
    runtime = CudaRuntime(cost_model=SUMMIT.node.gpu)
    packer = Packer(shape, object_extent=shape.start + shape.extent)
    source = runtime.malloc(packer.required_input(1))
    if target == "device":
        staging = runtime.malloc(object_bytes)
    else:
        staging = runtime.host_alloc(object_bytes, MemoryKind.HOST_MAPPED)
    start = runtime.clock.now
    if unpack:
        packer.unpack(runtime, staging, source)
    else:
        packer.pack(runtime, source, staging)
    return runtime.clock.now - start


def panel(target: str, unpack: bool):
    grid = {}
    for object_bytes in FIG10_OBJECT_SIZES:
        for block_bytes in FIG10_BLOCK_SIZES:
            grid[(object_bytes, block_bytes)] = _latency(
                object_bytes, min(block_bytes, object_bytes), target=target, unpack=unpack
            )
    return grid


def saturation(object_bytes: int = 1 << 20):
    """One-shot and device pack latency at 32 B and 128 B blocks."""
    return tuple(
        {block: _latency(object_bytes, block, target=target, unpack=False) for block in (32, 128)}
        for target in ("host", "device")
    )

"""System measurements (the "measurement binary", Sec. 4 / Sec. 6.3).

TEMPI ships a binary that is run once per system before the library is used:
it measures the latency of the primitives the performance model needs —
``T_cpu-cpu`` and ``T_gpu-gpu`` ping-pongs, ``T_d2h``/``T_h2d`` bulk copies,
and pack/unpack latency as a function of object size and contiguous-block
length for both the *device* and the *one-shot* strategies — and writes them
to the file system.  :func:`measure_system` is that binary for the simulated
machine: it exercises the same code paths (the simulated MPI for ping-pongs,
the simulated CUDA runtime for copies and kernels) and records virtual-time
latencies.

The result, :class:`SystemMeasurement`, is a plain serialisable container; the
:class:`~repro.tempi.perf_model.PerformanceModel` interpolates it at runtime.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.gpu.cost_model import GpuCostModel
from repro.gpu.memory import MemoryKind
from repro.gpu.runtime import CudaRuntime
from repro.machine.network import NetworkModel
from repro.machine.spec import SUMMIT, MachineSpec
from repro.tempi.packer import Packer
from repro.tempi.strided_block import StridedBlock

#: Default sweep: message/object sizes from 1 B to 4 MiB in powers of two.
DEFAULT_SIZES = tuple(1 << p for p in range(0, 23))
#: Default contiguous-block lengths for the pack/unpack tables (Fig. 10).
DEFAULT_BLOCKS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
#: Pitch used between contiguous runs while measuring, as in Fig. 8 (512 B),
#: widened when the block itself is larger.
MEASUREMENT_PITCH = 512
#: The per-size latency curves and the ``[block][size]`` pack tables.
_CURVES = ("t_cpu_cpu", "t_gpu_gpu", "t_d2h", "t_h2d")
_TABLES = ("t_pack_device", "t_unpack_device", "t_pack_oneshot", "t_unpack_oneshot")


class MeasurementError(ValueError):
    """A measurement file that cannot be read as one; the message names the field."""


def host_timer() -> float:
    """Read the host's monotonic wall clock, in seconds.

    The one sanctioned wall-clock seam: everything *priced* runs on virtual
    clocks, and simlint's SIM001 bans ``time.*`` reads on those paths — this
    module (together with the benchmark harness) is the whitelist.  Callers
    that want to report how long the *simulator* spent on something
    diagnostic (a ``Type_commit`` translation, a sweep) time it through this
    function, so every wall-clock read in the priced tree funnels through one
    auditable place.
    """
    return time.perf_counter()


@dataclass
class SystemMeasurement:
    """Measured latencies (seconds) of the simulated system."""

    sizes: tuple[int, ...]
    block_lengths: tuple[int, ...]
    t_cpu_cpu: tuple[float, ...]
    t_gpu_gpu: tuple[float, ...]
    t_d2h: tuple[float, ...]
    t_h2d: tuple[float, ...]
    #: Pack/unpack tables indexed ``[block_index][size_index]``.
    t_pack_device: tuple[tuple[float, ...], ...]
    t_unpack_device: tuple[tuple[float, ...], ...]
    t_pack_oneshot: tuple[tuple[float, ...], ...]
    t_unpack_oneshot: tuple[tuple[float, ...], ...]
    machine_name: str = "unknown"
    notes: dict = field(default_factory=dict)

    # ----------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        return {
            "machine_name": self.machine_name,
            "sizes": list(self.sizes),
            "block_lengths": list(self.block_lengths),
            "t_cpu_cpu": list(self.t_cpu_cpu),
            "t_gpu_gpu": list(self.t_gpu_gpu),
            "t_d2h": list(self.t_d2h),
            "t_h2d": list(self.t_h2d),
            "t_pack_device": [list(row) for row in self.t_pack_device],
            "t_unpack_device": [list(row) for row in self.t_unpack_device],
            "t_pack_oneshot": [list(row) for row in self.t_pack_oneshot],
            "t_unpack_oneshot": [list(row) for row in self.t_unpack_oneshot],
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemMeasurement":
        """The measurement :meth:`to_dict` wrote, checked field by field.

        Raises :class:`MeasurementError` naming the field for a missing key,
        ``sizes``/``block_lengths`` that are not strictly increasing positive
        integers, a curve that is not one latency per size, a table that is
        not ``(len(block_lengths), len(sizes))``, or a negative or
        non-finite latency — here, instead of as a numpy or index error at
        the first model query.
        """
        if not isinstance(payload, dict):
            raise MeasurementError("a measurement file holds one JSON object")
        for name in ("sizes", "block_lengths") + _CURVES + _TABLES:
            if name not in payload:
                raise MeasurementError(f"measurement file has no {name!r}")
        axes = {}
        for name in ("sizes", "block_lengths"):
            values = payload[name]
            if not (
                isinstance(values, (list, tuple)) and values
                and all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in values)
                and all(a < b for a, b in zip(values, values[1:]))
            ):
                raise MeasurementError(f"{name} must be strictly increasing positive integers")
            axes[name] = tuple(values)
        shapes = dict.fromkeys(_CURVES, (len(axes["sizes"]),))
        shapes.update(dict.fromkeys(_TABLES, (len(axes["block_lengths"]), len(axes["sizes"]))))
        for name, shape in shapes.items():
            try:
                values = np.asarray(payload[name], dtype=np.float64)
            except (TypeError, ValueError):
                raise MeasurementError(f"{name} must be a {len(shape)}-D array of latencies") from None
            if values.shape != shape:
                raise MeasurementError(f"{name} has shape {values.shape}, expected {shape}")
            if not (np.isfinite(values).all() and (values >= 0).all()):
                raise MeasurementError(f"{name} holds a negative or non-finite latency")
        return cls(
            **axes,
            **{name: tuple(payload[name]) for name in _CURVES},
            **{name: tuple(tuple(row) for row in payload[name]) for name in _TABLES},
            machine_name=payload.get("machine_name", "unknown"),
            notes=payload.get("notes", {}),
        )

    def save(self, path: Path | str) -> Path:
        """Write the measurement file (JSON)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    @classmethod
    def load(cls, path: Path | str) -> "SystemMeasurement":
        """Read a measurement file written by :meth:`save`, checked by :meth:`from_dict`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -------------------------------------------------------------- inspection
    def as_arrays(self) -> dict[str, np.ndarray]:
        """The measurement as NumPy arrays keyed by curve name."""
        return {
            "sizes": np.asarray(self.sizes, dtype=np.float64),
            "block_lengths": np.asarray(self.block_lengths, dtype=np.float64),
            "t_cpu_cpu": np.asarray(self.t_cpu_cpu),
            "t_gpu_gpu": np.asarray(self.t_gpu_gpu),
            "t_d2h": np.asarray(self.t_d2h),
            "t_h2d": np.asarray(self.t_h2d),
            "t_pack_device": np.asarray(self.t_pack_device),
            "t_unpack_device": np.asarray(self.t_unpack_device),
            "t_pack_oneshot": np.asarray(self.t_pack_oneshot),
            "t_unpack_oneshot": np.asarray(self.t_unpack_oneshot),
        }


# --------------------------------------------------------------------------- #
# The measurement sweep
# --------------------------------------------------------------------------- #

def _measure_transfers(
    machine: MachineSpec, sizes: Sequence[int]
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Measure the four Fig. 9a curves.

    Ping-pong latencies come from the network model (the same code that
    prices every simulated message); copy latencies come from running real
    ``memcpy`` operations on a scratch runtime and reading its clock.
    """
    network = NetworkModel(machine)
    runtime = CudaRuntime(cost_model=machine.node.gpu)
    t_cpu, t_gpu, t_d2h, t_h2d = [], [], [], []
    device_buf = runtime.malloc(max(sizes))
    host_buf = runtime.host_alloc(max(sizes), MemoryKind.HOST_PINNED)
    for size in sizes:
        t_cpu.append(network.message_time(size, same_node=False, device_buffers=False))
        t_gpu.append(network.message_time(size, same_node=False, device_buffers=True))
        start = runtime.clock.now
        runtime.memcpy_async(host_buf, device_buf, size)
        runtime.stream_synchronize()
        t_d2h.append(runtime.clock.now - start)
        start = runtime.clock.now
        runtime.memcpy_async(device_buf, host_buf, size)
        runtime.stream_synchronize()
        t_h2d.append(runtime.clock.now - start)
    return t_cpu, t_gpu, t_d2h, t_h2d


def _measurement_block(size: int, block_length: int) -> Optional[StridedBlock]:
    """The 2-D strided object used to measure pack/unpack at one grid point."""
    block_length = min(block_length, size)
    nblocks = size // block_length
    if nblocks < 1:
        return None
    if nblocks == 1:
        return StridedBlock(start=0, counts=(block_length,), strides=(1,))
    # The simulated kernel cost depends on the block length, not the pitch, so
    # the measurement keeps the footprint bounded (2x the object) instead of
    # using the fixed 512 B pitch of Fig. 8; the resulting tables are the same.
    pitch = 2 * block_length
    return StridedBlock(
        start=0, counts=(block_length, nblocks), strides=(1, pitch)
    )


def _measure_pack_tables(
    gpu_cost: GpuCostModel,
    sizes: Sequence[int],
    blocks: Sequence[int],
) -> tuple[list[list[float]], list[list[float]], list[list[float]], list[list[float]]]:
    """Measure pack/unpack latency for the device and one-shot strategies."""
    pack_dev: list[list[float]] = []
    unpack_dev: list[list[float]] = []
    pack_host: list[list[float]] = []
    unpack_host: list[list[float]] = []
    for block_length in blocks:
        row_pd, row_ud, row_ph, row_uh = [], [], [], []
        for size in sizes:
            shape = _measurement_block(size, block_length)
            if shape is None:
                row_pd.append(0.0)
                row_ud.append(0.0)
                row_ph.append(0.0)
                row_uh.append(0.0)
                continue
            runtime = CudaRuntime(cost_model=gpu_cost)
            packer = Packer(shape, object_extent=shape.start + shape.extent)
            source = runtime.malloc(packer.required_input(1))
            staging_device = runtime.malloc(size)
            staging_host = runtime.host_alloc(size, MemoryKind.HOST_MAPPED)

            start = runtime.clock.now
            packer.pack(runtime, source, staging_device)
            row_pd.append(runtime.clock.now - start)

            start = runtime.clock.now
            packer.unpack(runtime, staging_device, source)
            row_ud.append(runtime.clock.now - start)

            start = runtime.clock.now
            packer.pack(runtime, source, staging_host)
            row_ph.append(runtime.clock.now - start)

            start = runtime.clock.now
            packer.unpack(runtime, staging_host, source)
            row_uh.append(runtime.clock.now - start)
        pack_dev.append(row_pd)
        unpack_dev.append(row_ud)
        pack_host.append(row_ph)
        unpack_host.append(row_uh)
    return pack_dev, unpack_dev, pack_host, unpack_host


def measure_system(
    machine: MachineSpec = SUMMIT,
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    block_lengths: Sequence[int] = DEFAULT_BLOCKS,
    path: Optional[Path | str] = None,
) -> SystemMeasurement:
    """Run the full measurement sweep; optionally persist it to ``path``.

    This is the reproduction's equivalent of running TEMPI's measurement
    binary once before using the library (Sec. 6.3).
    """
    sizes = tuple(int(s) for s in sizes)
    block_lengths = tuple(int(b) for b in block_lengths)
    if not sizes or not block_lengths:
        raise ValueError("sizes and block_lengths must be non-empty")
    if any(s <= 0 for s in sizes) or any(b <= 0 for b in block_lengths):
        raise ValueError("sizes and block_lengths must be positive")

    t_cpu, t_gpu, t_d2h, t_h2d = _measure_transfers(machine, sizes)
    pack_dev, unpack_dev, pack_host, unpack_host = _measure_pack_tables(
        machine.node.gpu, sizes, block_lengths
    )
    measurement = SystemMeasurement(
        sizes=sizes,
        block_lengths=block_lengths,
        t_cpu_cpu=tuple(t_cpu),
        t_gpu_gpu=tuple(t_gpu),
        t_d2h=tuple(t_d2h),
        t_h2d=tuple(t_h2d),
        t_pack_device=tuple(tuple(row) for row in pack_dev),
        t_unpack_device=tuple(tuple(row) for row in unpack_dev),
        t_pack_oneshot=tuple(tuple(row) for row in pack_host),
        t_unpack_oneshot=tuple(tuple(row) for row in unpack_host),
        machine_name=machine.name,
        notes={"pitch": MEASUREMENT_PITCH},
    )
    if path is not None:
        measurement.save(path)
    return measurement

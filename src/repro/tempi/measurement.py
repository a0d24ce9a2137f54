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

The sweep's contract:

* **One allocation set per call.**  Every grid point packs and copies in the
  same three buffers (:class:`_SweepBuffers`): a device source as wide as the
  widest measured object, and a device and a mapped-host staging buffer as
  large as the largest size.  They are allocated once and each page is
  first touched once, so the sweep's allocations and page faults do not
  grow with the grid.
* **Each point's clock origin.**  Every pack/unpack grid point runs on a
  fresh :class:`~repro.gpu.runtime.CudaRuntime` whose clock starts where
  allocating the point's own source, device staging and mapped staging
  would leave it: ``alloc_s``, ``alloc_s``, then ``host_alloc_pinned_s``,
  added in that order.  The copy curves' runtime starts after ``alloc_s``
  then ``host_alloc_pinned_s`` (its device and pinned buffer).  A latency is
  a difference of two clock readings, and its last bits depend on where the
  clock stands, so the origin is part of the measured value.
* **One rule for the axes.**  ``sizes`` and ``block_lengths`` are checked by
  the rule :meth:`SystemMeasurement.from_dict` applies to a file, so every
  measurement the sweep returns can be saved and loaded back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.gpu.clock import VirtualClock
from repro.gpu.cost_model import GpuCostModel
from repro.gpu.memory import DeviceBuffer, HostBuffer, MemoryKind
from repro.gpu.runtime import CudaRuntime
from repro.machine.network import NetworkModel
from repro.machine.spec import SUMMIT, MachineSpec
from repro.tempi.packer import Packer
from repro.tempi.strided_block import StridedBlock

#: Default sweep: message/object sizes from 1 B to 4 MiB in powers of two.
DEFAULT_SIZES = tuple(1 << p for p in range(0, 23))
#: Default contiguous-block lengths for the pack/unpack tables (Fig. 10).
DEFAULT_BLOCKS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
#: The per-size latency curves and the ``[block][size]`` pack tables.
_CURVES = ("t_cpu_cpu", "t_gpu_gpu", "t_d2h", "t_h2d")
_TABLES = ("t_pack_device", "t_unpack_device", "t_pack_oneshot", "t_unpack_oneshot")


class MeasurementError(ValueError):
    """A measurement file or sweep argument that is not one; the message names the field."""


def _checked_axis(name: str, values) -> tuple[int, ...]:
    """``values`` as a sweep axis, or :class:`MeasurementError` naming ``name``.

    The one rule for ``sizes`` and ``block_lengths``, whether a file or a
    caller of :func:`measure_system` supplies them: a non-empty list or tuple
    of strictly increasing positive ``int`` values (``bool`` is not one).
    """
    if not (
        isinstance(values, (list, tuple)) and values
        and all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in values)
        and all(a < b for a, b in zip(values, values[1:]))
    ):
        raise MeasurementError(f"{name} must be strictly increasing positive integers")
    return tuple(values)


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
    #: Free-form metadata carried through the file; the sweep records none.
    notes: dict = field(default_factory=dict)

    # ----------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        """The measurement as the JSON object :meth:`save` writes."""
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
        axes = {name: _checked_axis(name, payload[name]) for name in ("sizes", "block_lengths")}
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

class _SweepBuffers(NamedTuple):
    """The one allocation set a :func:`measure_system` call runs in."""

    #: Device memory for the strided side, as wide as the widest object.
    source: DeviceBuffer
    #: Device staging as large as the largest size: the device method's
    #: target, and the device end of the copy curves.
    device: DeviceBuffer
    #: Mapped host staging as large as the largest size: the one-shot
    #: method's target, and the host end of the copy curves (mapped memory
    #: is page-locked, so a copy sees pinned memory).
    host: HostBuffer


def _runtime_after(gpu_cost: GpuCostModel, *charges: float) -> CudaRuntime:
    """A fresh runtime whose clock has been advanced by ``charges``, in order.

    ``charges`` are the allocations a measurement's own buffers would cost
    before its first clock reading (the clock origin, see the module
    docstring); the buffers themselves come from the shared set.
    """
    clock = VirtualClock()
    for charge in charges:
        clock.advance(charge)
    return CudaRuntime(clock, cost_model=gpu_cost)


def _measure_transfers(
    machine: MachineSpec, sizes: Sequence[int], buffers: _SweepBuffers
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Measure the four Fig. 9a curves, in :data:`_CURVES` order.

    Ping-pong latencies come from the network model (the same code that
    prices every simulated message); copy latencies come from running real
    ``memcpy`` operations between the sweep's staging buffers on one scratch
    runtime and reading its clock.
    """
    network = NetworkModel(machine)
    gpu = machine.node.gpu
    runtime = _runtime_after(gpu, gpu.alloc_s, gpu.host_alloc_pinned_s)
    t_cpu, t_gpu, t_d2h, t_h2d = [], [], [], []
    for size in sizes:
        t_cpu.append(network.message_time(size, same_node=False, device_buffers=False))
        t_gpu.append(network.message_time(size, same_node=False, device_buffers=True))
        start = runtime.clock.now
        runtime.memcpy_async(buffers.host, buffers.device, size)
        runtime.stream_synchronize()
        t_d2h.append(runtime.clock.now - start)
        start = runtime.clock.now
        runtime.memcpy_async(buffers.device, buffers.host, size)
        runtime.stream_synchronize()
        t_h2d.append(runtime.clock.now - start)
    return t_cpu, t_gpu, t_d2h, t_h2d


def _measurement_block(size: int, block_length: int) -> StridedBlock:
    """The 2-D strided object used to measure pack/unpack at one grid point."""
    block_length = min(block_length, size)
    nblocks = size // block_length
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
    grid: list[list[StridedBlock]],
    buffers: _SweepBuffers,
) -> tuple[list[list[float]], ...]:
    """Measure pack/unpack latency for the device and one-shot strategies.

    ``grid[block_index][size_index]`` is the object measured at that point;
    the four tables, in :data:`_TABLES` order, are indexed the same way.  The
    four measurements of a point run in turn on its own runtime, all in
    ``buffers``.
    """
    steps = (
        (Packer.pack, buffers.source, buffers.device),
        (Packer.unpack, buffers.device, buffers.source),
        (Packer.pack, buffers.source, buffers.host),
        (Packer.unpack, buffers.host, buffers.source),
    )
    charges = (gpu_cost.alloc_s, gpu_cost.alloc_s, gpu_cost.host_alloc_pinned_s)
    tables: tuple[list[list[float]], ...] = ([], [], [], [])
    for row in grid:
        for table in tables:
            table.append([])
        for shape in row:
            runtime = _runtime_after(gpu_cost, *charges)
            packer = Packer(shape, object_extent=shape.start + shape.extent)
            for table, (move, src, dst) in zip(tables, steps):
                start = runtime.clock.now
                move(packer, runtime, src, dst)
                table[-1].append(runtime.clock.now - start)
    return tables


def measure_system(
    machine: MachineSpec = SUMMIT,
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    block_lengths: Sequence[int] = DEFAULT_BLOCKS,
    path: Optional[Path | str] = None,
) -> SystemMeasurement:
    """Run the full measurement sweep; optionally persist it to ``path``.

    This is the reproduction's equivalent of running TEMPI's measurement
    binary once before using the library (Sec. 6.3).  Raises
    :class:`MeasurementError` naming ``sizes`` or ``block_lengths`` unless
    each is a non-empty list or tuple of strictly increasing positive
    integers, the rule a measurement file is loaded under.  The whole sweep
    runs in one allocation set, each point on a clock with a fixed origin
    (see the module docstring).
    """
    sizes = _checked_axis("sizes", sizes)
    block_lengths = _checked_axis("block_lengths", block_lengths)
    grid = [[_measurement_block(size, block) for size in sizes] for block in block_lengths]
    # The first grid point to write a page faults it in and every later point
    # reuses it; writing every page up front saved no time and raised peak RSS.
    scratch = CudaRuntime(cost_model=machine.node.gpu)
    buffers = _SweepBuffers(
        scratch.malloc(max(shape.start + shape.extent for row in grid for shape in row)),
        scratch.malloc(max(sizes)),
        scratch.host_alloc(max(sizes), MemoryKind.HOST_MAPPED),
    )
    curves = _measure_transfers(machine, sizes, buffers)
    tables = _measure_pack_tables(machine.node.gpu, grid, buffers)
    measurement = SystemMeasurement(
        sizes=sizes,
        block_lengths=block_lengths,
        **{name: tuple(curve) for name, curve in zip(_CURVES, curves)},
        **{name: tuple(tuple(row) for row in table) for name, table in zip(_TABLES, tables)},
        machine_name=machine.name,
    )
    if path is not None:
        measurement.save(path)
    return measurement

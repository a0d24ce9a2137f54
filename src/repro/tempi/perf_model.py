"""The runtime performance model (Sec. 4, Sec. 6.3).

The model combines the measured curves of :class:`~repro.tempi.measurement.SystemMeasurement`
into the three end-to-end send latencies of the paper:

.. math::

    T_{device}  &= T_{gpu\\text{-}pack} + T_{gpu\\text{-}gpu} + T_{gpu\\text{-}unpack}      \\\\
    T_{oneshot} &= T_{host\\text{-}pack} + T_{cpu\\text{-}cpu} + T_{host\\text{-}unpack}    \\\\
    T_{staged}  &= T_{gpu\\text{-}pack} + T_{d2h} + T_{cpu\\text{-}cpu} + T_{h2d} + T_{gpu\\text{-}unpack}

Measurements are sparse by necessity: transfers are interpolated in 1-D over
the message size, pack/unpack latencies in 2-D over (contiguous block length,
object size), both on logarithmic axes.  Queries are pure functions of their
arguments, so results are memoised; the interposer charges the measured
~277 ns only for cached queries and a few microseconds for cold ones.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.tempi.config import PackMethod
from repro.tempi.measurement import SystemMeasurement


@dataclass(frozen=True)
class MethodEstimate:
    """The three modelled latencies for one (object size, block length) query."""

    oneshot: float
    device: float
    staged: float

    def best(self) -> PackMethod:
        """The method the model selects (staged is never preferred, Fig. 9b)."""
        return PackMethod.ONESHOT if self.oneshot <= self.device else PackMethod.DEVICE


def _cell(axis: List[float], x: float) -> Tuple[int, float]:
    """Grid cell of ``x`` on an ascending axis and its normalised distance into it.

    The cell index is clamped to the axis, so a point outside it gets a
    distance below 0 or above 1: linear extrapolation from the edge cell.
    """
    i = min(max(bisect_right(axis, x) - 1, 0), len(axis) - 2)
    return i, (x - axis[i]) / (axis[i + 1] - axis[i])


class PerformanceModel:
    """Interpolating model over one machine's measurement file."""

    def __init__(self, measurement: SystemMeasurement) -> None:
        self.measurement = measurement
        arrays = measurement.as_arrays()
        self._log_sizes = np.log2(arrays["sizes"])
        self._transfer_curves = {
            "cpu_cpu": arrays["t_cpu_cpu"],
            "gpu_gpu": arrays["t_gpu_gpu"],
            "d2h": arrays["t_d2h"],
            "h2d": arrays["t_h2d"],
        }
        # Plain floats, for the scalar bilinear lookup of _interp_pack.
        self._block_axis: List[float] = np.log2(arrays["block_lengths"]).tolist()
        self._size_axis: List[float] = self._log_sizes.tolist()
        self._pack_rows: Dict[Tuple[str, str], List[List[float]]] = {
            ("device", "pack"): arrays["t_pack_device"].tolist(),
            ("device", "unpack"): arrays["t_unpack_device"].tolist(),
            ("oneshot", "pack"): arrays["t_pack_oneshot"].tolist(),
            ("oneshot", "unpack"): arrays["t_unpack_oneshot"].tolist(),
        }
        self._memo: Dict[Tuple, float] = {}
        #: ``(nbytes, block_length) -> PackMethod``: :meth:`choose_method`'s
        #: answers.  The choice is a pure function of its key on a fixed model,
        #: and the model outlives the worlds that share it, so a decision is
        #: made once per process.  Only :meth:`choose_method` reads or writes
        #: it; :meth:`decide` is the comparison without it.
        self._decisions: Dict[Tuple[int, int], PackMethod] = {}
        self.queries = 0
        self.cache_hits = 0

    # ------------------------------------------------------------- primitives
    def transfer_time(self, kind: str, nbytes: int) -> float:
        """Interpolated transfer latency (``cpu_cpu``, ``gpu_gpu``, ``d2h``, ``h2d``)."""
        if kind not in self._transfer_curves:
            raise KeyError(f"unknown transfer kind {kind!r}")
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        key = ("transfer", kind, int(nbytes))
        self.queries += 1
        if key in self._memo:
            self.cache_hits += 1
            return self._memo[key]
        value = self._memo[key] = self._interp_transfer(kind, nbytes)
        return value

    def _interp_transfer(self, kind: str, nbytes: int) -> float:
        curve = self._transfer_curves[kind]
        log_size = np.log2(nbytes)
        value = np.interp(log_size, self._log_sizes, curve)
        # np.interp clamps; extrapolate the bandwidth term beyond the sweep.
        if log_size > self._log_sizes[-1]:
            slope = (curve[-1] - curve[-2]) / (self._log_sizes[-1] - self._log_sizes[-2])
            value = curve[-1] + slope * (log_size - self._log_sizes[-1])
        return float(value)

    def pack_time(self, strategy: str, operation: str, nbytes: int, block_length: int) -> float:
        """Interpolated pack/unpack latency for a strategy (``device``/``oneshot``)."""
        key = ("pack", strategy, operation, int(nbytes), int(block_length))
        self.queries += 1
        if key in self._memo:
            self.cache_hits += 1
            return self._memo[key]
        value = self._memo[key] = self._interp_pack(strategy, operation, nbytes, block_length)
        return value

    def _interp_pack(self, strategy: str, operation: str, nbytes: int, block_length: int) -> float:
        if (strategy, operation) not in self._pack_rows:
            raise KeyError(f"unknown pack table {(strategy, operation)!r}")
        if nbytes <= 0 or block_length <= 0:
            raise ValueError("nbytes and block_length must be positive")
        rows = self._pack_rows[(strategy, operation)]
        blocks, sizes = self._block_axis, self._size_axis
        # Block lengths clamp to the sweep; sizes extrapolate linearly.
        x0 = min(max(float(np.log2(block_length)), blocks[0]), blocks[-1])
        x1 = float(np.log2(nbytes))
        i0, y0 = _cell(blocks, x0)
        i1, y1 = _cell(sizes, x1)
        # Bilinear interpolation in the term order of scipy's
        # RegularGridInterpolator(method="linear"), which this replaces and
        # which a test still compares it to, bit for bit.
        value = (
            rows[i0][i1] * (1 - y0) * (1 - y1)
            + rows[i0][i1 + 1] * (1 - y0) * y1
            + rows[i0 + 1][i1] * y0 * (1 - y1)
            + rows[i0 + 1][i1 + 1] * y0 * y1
        )
        return max(0.0, value)

    # --------------------------------------------------------------- the model
    def estimate(self, nbytes: int, block_length: int) -> MethodEstimate:
        """Evaluate Eqs. 1-3 for an object of ``nbytes`` with ``block_length`` runs."""
        oneshot = (
            self.pack_time("oneshot", "pack", nbytes, block_length)
            + self.transfer_time("cpu_cpu", nbytes)
            + self.pack_time("oneshot", "unpack", nbytes, block_length)
        )
        device = (
            self.pack_time("device", "pack", nbytes, block_length)
            + self.transfer_time("gpu_gpu", nbytes)
            + self.pack_time("device", "unpack", nbytes, block_length)
        )
        staged = (
            self.pack_time("device", "pack", nbytes, block_length)
            + self.transfer_time("d2h", nbytes)
            + self.transfer_time("cpu_cpu", nbytes)
            + self.transfer_time("h2d", nbytes)
            + self.pack_time("device", "unpack", nbytes, block_length)
        )
        return MethodEstimate(oneshot=oneshot, device=device, staged=staged)

    def choose_method(self, nbytes: int, block_length: int) -> PackMethod:
        """:meth:`decide`, memoised by ``(nbytes, block_length)``.

        A repeat is one query and one hit; a first ask counts only
        :meth:`decide`'s six probes.  An argument the probes reject raises
        before anything is stored.
        """
        key = (nbytes, block_length)
        decisions = self._decisions
        if key in decisions:
            self.queries += 1
            self.cache_hits += 1
            return decisions[key]
        method = decisions[key] = self.decide(nbytes, block_length)
        return method

    def decide(self, nbytes: int, block_length: int) -> PackMethod:
        """The faster of one-shot and device for this object (Sec. 6.3).

        :meth:`estimate`'s ``best()``, summing only the two terms it compares
        (in :meth:`estimate`'s term order, so every sum is bit-identical):
        staged is never preferred, so it is not priced.  Nothing is
        remembered: a selector without a resource cache decides here every
        time.
        """
        pack, transfer = self.pack_time, self.transfer_time
        oneshot = (
            pack("oneshot", "pack", nbytes, block_length)
            + transfer("cpu_cpu", nbytes)
            + pack("oneshot", "unpack", nbytes, block_length)
        )
        device = (
            pack("device", "pack", nbytes, block_length)
            + transfer("gpu_gpu", nbytes)
            + pack("device", "unpack", nbytes, block_length)
        )
        return PackMethod.ONESHOT if oneshot <= device else PackMethod.DEVICE

    # ------------------------------------------------------------- inspection
    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered from the memo (tests for the 277 ns claim)."""
        return self.cache_hits / self.queries if self.queries else 0.0

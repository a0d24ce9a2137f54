"""Figure 9: raw transfer measurements and partial method models.

Fig. 9a plots the four measured primitives (``T_d2h``, ``T_h2d``,
``T_cpu-cpu``, ``T_gpu-gpu``) against message size; Fig. 9b combines them
into the three send methods of Eqs. 1-3 with pack time held at zero, showing
that the staged method is never preferable and that the CUDA-aware path's
higher latency floor gives one-shot an edge for small messages.
"""

from __future__ import annotations

from repro.machine.spec import SUMMIT
from repro.tempi.measurement import measure_system

SIZES = [1 << p for p in range(0, 21, 2)]


def transfer_curves():
    """Fig. 9a: the four measured primitives at :data:`SIZES`."""
    return measure_system(SUMMIT, sizes=SIZES, block_lengths=[8])


def partial_models(model):
    """Fig. 9b: ``(size, T_device, T_oneshot, T_staged)`` with pack time held at zero."""
    rows = []
    for size in SIZES:
        t_device = model.transfer_time("gpu_gpu", size)
        t_oneshot = model.transfer_time("cpu_cpu", size)
        t_staged = (
            model.transfer_time("d2h", size)
            + model.transfer_time("cpu_cpu", size)
            + model.transfer_time("h2d", size)
        )
        rows.append((size, t_device, t_oneshot, t_staged))
    return rows

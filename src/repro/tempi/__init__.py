"""TEMPI: the paper's contribution.

This package implements the three contributions of the paper on top of the
simulated substrates:

1. **Canonical datatype handling** (Sec. 3): MPI derived datatypes are
   translated into a small IR (:mod:`repro.tempi.ir`, :mod:`repro.tempi.translate`),
   canonicalised by four fixed-point transformations
   (:mod:`repro.tempi.canonicalize`), lowered to a :class:`~repro.tempi.strided_block.StridedBlock`
   and bound to a :class:`~repro.tempi.packer.Packer`, whose launches run the
   strided pack kernel of :mod:`repro.gpu.kernels` at the widest word the
   geometry allows.
2. **Model-driven method selection** (Sec. 4): a measurement sweep
   (:mod:`repro.tempi.measurement`) feeds an interpolating performance model
   (:mod:`repro.tempi.perf_model`); the unified selection subsystem
   (:mod:`repro.tempi.selection`) picks between the *one-shot*, *device* and
   *staged* send methods (:class:`~repro.tempi.config.PackMethod`) —
   contention-free by default, or against the live NIC injection-port backlog
   (``TempiConfig(selection="contended")``).  Like the paper's measurement
   binary, the sweep runs once per machine: every rank of a process shares
   its model (:attr:`~repro.tempi.interposer.Tempi.model`).
3. **The interposer** (Sec. 5): :class:`~repro.tempi.interposer.TempiCommunicator`
   exports the same call surface as the system MPI
   (:class:`repro.mpi.communicator.Communicator`), overriding exactly the calls
   TEMPI accelerates and forwarding everything else.

Beyond the paper, the interposer also accelerates the **datatype-carrying
collectives**: ``Alltoallv`` and ``Neighbor_alltoallv`` called with
``sendtypes``/``recvtypes`` pack each destination's sections with one kernel
through the commit-time :class:`~repro.tempi.packer.Packer`, stage them in
per-peer buffers held by the :class:`~repro.tempi.cache.ResourceCache`
(``get_persistent``), and pick *one-shot* / *device* / *staged* per message
from the :class:`~repro.tempi.perf_model.PerformanceModel`.  Contiguous or
uncommitted datatypes, host buffers and the byte signature fall back to the
system path,
counted by :class:`~repro.tempi.interposer.InterposerStats`
(``collective_hits`` / ``collective_fallbacks``).  The halo-exchange
application (:mod:`repro.apps.stencil`, ``mode="neighbor"``) rides this path
instead of its hand-rolled pack/exchange/unpack loops;
``benchmarks/bench_fig13_alltoallv.py`` measures it against the baseline.

Every accelerated operation — blocking or nonblocking — compiles to a
:class:`~repro.tempi.plan.MessagePlan` of typed pack/post/unpack stages and
runs through the :class:`~repro.tempi.executor.PlanExecutor`, which overlaps
pack kernels on per-peer streams with wire time (``TempiConfig.overlap``);
``Isend`` / ``Irecv`` / ``Ialltoallv`` / ``Ineighbor_alltoallv`` return
:class:`~repro.mpi.request.Request` objects whose ``Wait``/``Test`` drive the
deferred receive-side unpacks.  ``benchmarks/bench_fig14_overlap.py`` measures
the overlapped engine against the serial one.
"""

from repro.tempi.canonicalize import canonicalize, simplify
from repro.tempi.config import PackMethod, TempiConfig
from repro.tempi.executor import PlanExecutor
from repro.tempi.interposer import Tempi, TempiCommunicator
from repro.tempi.ir import DenseData, StreamData, Type
from repro.tempi.measurement import SystemMeasurement, measure_system
from repro.tempi.perf_model import PerformanceModel
from repro.tempi.plan import (
    MessagePlan,
    PackStage,
    PlanError,
    PlanSection,
    PostStage,
    UnpackStage,
    compile_allgather,
    compile_bcast,
    compile_exchange,
    compile_recv,
    compile_send,
)
from repro.tempi.selection import (
    ContendedSelector,
    FixedSelector,
    MethodSelector,
    ModelSelector,
    SelectionError,
    contended_estimate,
    make_selector,
)
from repro.tempi.progress import PlanWindow, ProgressEngine, ProgressError
from repro.tempi.strided_block import StridedBlock, to_strided_block
from repro.tempi.translate import TranslationError, translate

__all__ = [
    "ContendedSelector",
    "DenseData",
    "FixedSelector",
    "MessagePlan",
    "MethodSelector",
    "ModelSelector",
    "PackMethod",
    "PackStage",
    "PerformanceModel",
    "PlanError",
    "PlanExecutor",
    "PlanSection",
    "PlanWindow",
    "PostStage",
    "ProgressEngine",
    "ProgressError",
    "SelectionError",
    "StreamData",
    "StridedBlock",
    "SystemMeasurement",
    "Tempi",
    "TempiCommunicator",
    "TempiConfig",
    "TranslationError",
    "Type",
    "UnpackStage",
    "canonicalize",
    "compile_allgather",
    "compile_bcast",
    "compile_exchange",
    "compile_recv",
    "compile_send",
    "contended_estimate",
    "make_selector",
    "measure_system",
    "simplify",
    "to_strided_block",
    "translate",
]

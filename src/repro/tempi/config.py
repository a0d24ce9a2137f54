"""TEMPI configuration.

The real library is configured through environment variables (disable
interposition, force a packing method, point at the measurement file); the
reproduction uses an explicit :class:`TempiConfig` object with the same knobs
so benchmarks and ablations can construct variants directly.  A field stays
only while some file outside ``tests/`` needs its other value
(``docs/CONFIG.md`` names that caller per field); what no caller ever varied
is a module constant below.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from repro.machine.nic import NicSink
from repro.machine.topology import TopologySpec


class PackMethod(enum.Enum):
    """How a non-contiguous send is staged (Sec. 4)."""

    #: Pack into an intermediate device buffer, send with CUDA-aware MPI.
    DEVICE = "device"
    #: Pack directly into mapped host memory, send from the host buffers.
    ONESHOT = "oneshot"
    #: Device pack, explicit D2H, host send, H2D, device unpack (Eq. 3).
    STAGED = "staged"
    #: Query the performance model and pick ONESHOT or DEVICE per call.
    AUTO = "auto"


#: Selection policies accepted by ``TempiConfig.selection``; the selector
#: classes themselves live in :mod:`repro.tempi.selection`.
SELECTION_MODES = ("model", "contended")

#: Progress-engine modes accepted by ``TempiConfig.progress``.
PROGRESS_MODES = ("shared", "per_plan")

#: NIC-accounting modes accepted by ``TempiConfig.nic``.  ``"duplex"`` prices
#: both ends of the wire (injection *and* ingestion ports); ``"inject_only"``
#: keeps the PR-3/PR-4 send-side-only accounting as an ablation.
NIC_MODES = ("duplex", "inject_only")

#: Allreduce schedules accepted by ``TempiConfig.allreduce_algorithm``.
#: ``"auto"`` defers to :func:`repro.tempi.selection.choose_allreduce_algorithm`
#: (topology- and size-aware); the named algorithms pin the schedule for
#: ablations and the property wall.
ALLREDUCE_ALGORITHMS = ("auto", "ring", "tree", "hierarchical")

#: Clock charge per model query when the result is not memoised, and when it
#: is — the 277 ns the paper measures shows up through these.
MODEL_QUERY_S = 2.0e-6
MODEL_CACHED_QUERY_S = 277.0e-9
#: Clock charge of looking up the cached datatype handler and of checking
#: whether the user pointers are device resident; every interposed call pays
#: their sum (part of the ~30 µs send floor).
HANDLER_LOOKUP_S = 1.2e-6
POINTER_CHECK_S = 0.6e-6

#: Most quantized-backlog entries a
#: :class:`~repro.tempi.selection.ContendedSelector` memoises (LRU eviction).
SELECTION_MEMO_SIZE = 1024
#: Most sub-eager send plans one progress-engine batch coalesces before it
#: is flushed.
BATCH_MAX_MESSAGES = 8

#: Ambient default of ``TempiConfig.trace``: ``repro sanitize`` (and the
#: tests) set it through :func:`trace_default` so benchmarks that build
#: their own configs replay traced without modification.
_TRACE_DEFAULT: Optional[NicSink] = None


def _default_trace() -> Optional[NicSink]:
    """The ambient ``trace`` default (see :func:`trace_default`)."""
    return _TRACE_DEFAULT


@contextmanager
def trace_default(sink: Optional[NicSink]) -> Iterator[None]:
    """Temporarily set the ambient default of ``TempiConfig.trace``.

    Only configs *constructed inside* the context inherit the default;
    explicit ``TempiConfig(trace=...)`` always wins.
    """
    global _TRACE_DEFAULT
    previous = _TRACE_DEFAULT
    _TRACE_DEFAULT = sink
    try:
        yield
    finally:
        _TRACE_DEFAULT = previous


@dataclass(frozen=True)
class TempiConfig:
    """Runtime configuration of the interposer."""

    #: Master switch: when False every call passes straight to the system MPI.
    enabled: bool = True
    #: Accelerate MPI_Pack/MPI_Unpack on device buffers.
    datatype_handling: bool = True
    #: Accelerate MPI_Send/MPI_Recv on non-contiguous device datatypes.
    send_handling: bool = True
    #: Packing-method policy for sends.
    method: PackMethod = PackMethod.AUTO
    #: Which :mod:`repro.tempi.selection` selector resolves ``AUTO`` methods.
    #: ``"model"`` (the default) prices candidates contention-free (Eqs. 1-3);
    #: ``"contended"`` additionally folds the rank's live injection-port
    #: backlog from the shared :class:`~repro.machine.nic.NicTimeline` into
    #: each candidate, so the one-shot/device crossover shifts under load
    #: (``bench_fig9_selection.py`` measures the shift).  A concrete
    #: ``method`` never consults a policy, so it is only accepted under the
    #: default one.
    selection: str = "model"
    #: Allreduce schedule for the interposed ``Allreduce``/``Iallreduce``.
    #: ``"auto"`` (the default) picks per call through
    #: :func:`repro.tempi.selection.choose_allreduce_algorithm` — the
    #: hierarchical schedule under a hierarchical topology, the binomial tree
    #: for latency-bound vectors, the chunked ring otherwise; ``"ring"``,
    #: ``"tree"`` and ``"hierarchical"`` pin the schedule for ablations
    #: (``bench_allreduce.py`` measures the spread).
    allreduce_algorithm: str = "auto"
    #: Overlap pack kernels with wire time: the plan executor issues each
    #: peer's pack on its own stream and posts that peer's message the moment
    #: its pack completes.  ``False`` reproduces the serial engine (pack every
    #: peer, then post) for ablations — ``bench_fig14_overlap.py`` measures
    #: the difference.
    overlap: bool = True
    #: Wire-state accounting of the progress engine.  ``"shared"`` (the
    #: default) reserves every message on the world's shared
    #: :class:`~repro.machine.nic.NicTimeline`, so concurrent plans contend
    #: for the rank's injection port; ``"per_plan"`` keeps the PR-2 per-plan
    #: cursor (no cross-plan contention) for ablations —
    #: ``bench_fig15_contention.py`` measures the difference.
    progress: str = "shared"
    #: Which ends of the wire the shared NIC timeline prices.  ``"duplex"``
    #: (the default) routes every plan-posted message through the sender's
    #: injection port *and* the receiver's ingestion port, so an incast (many
    #: senders converging on one rank) queues at the hot receiver and
    #: ``Wait``/``Test``/``Waitany`` arrival hints reflect its backlog;
    #: ``"inject_only"`` keeps the PR-3/PR-4 send-side-only accounting,
    #: bit-identical, as an ablation — ``bench_incast.py`` measures the
    #: difference.  Only meaningful under ``progress="shared"`` (the
    #: per-plan ablation has no shared timeline to ingest against).
    nic: str = "duplex"
    #: Coalesce consecutive sub-eager-threshold nonblocking sends to one peer
    #: into one pack launch burst and one posted wire message (shared-progress
    #: mode only; the batch flushes at the next progress point).
    batch_eager_sends: bool = True
    #: Reuse streams, intermediate buffers and model query results (Sec. 5).
    use_cache: bool = True
    #: Let a persistent collective's restart reuse the plan template its
    #: first start recorded.  A restart skips argument validation and plan
    #: construction but *replays* method selection call-for-call, so every
    #: priced charge (model queries, interposition overhead) is identical to
    #: a fresh compile; off, every start compiles again.  One-shot calls
    #: always compile.  Off is the reference switch of
    #: ``tests/property/test_property_fastpath.py``, and
    #: ``tests/perf/test_call_budget.py`` counts what the template saves.
    plan_cache: bool = True
    #: A sink for the NIC event stream (:data:`~repro.machine.nic.NicSink`):
    #: the interposer attaches it to the world's timeline, which then calls
    #: it once per post, sequence draw and ingestion commit; the
    #: contended selector adds its backlog reads and pricing brackets, the
    #: interposer its collective joins.  Priced results are unchanged — a
    #: sink only observes — and ``None`` (the default) emits nothing.
    #: ``repro sanitize`` replays the figure benchmarks with a
    #: :class:`~repro.tempi.sanitizer.ClockSanitizer` as the sink (through
    #: :func:`trace_default`).
    trace: Optional[NicSink] = field(default_factory=_default_trace)
    #: Cluster topology the engine routes and prices against
    #: (:class:`~repro.machine.topology.TopologySpec`): NVLink islands,
    #: shared NIC rails and the two-level fat-tree with oversubscribed
    #: uplinks.  ``None`` (the default) keeps the flat pre-topology books,
    #: bit-identically; a *flat* spec (``TopologySpec.flat(...)``) routes
    #: every post through path resolution but still reproduces the flat
    #: books bit-for-bit (Hypothesis-pinned).  Hierarchical specs make the
    #: wire price, the NIC binding and the contended selection all
    #: per-path-class — ``bench_topology.py`` measures the divergence.
    topology: Optional[TopologySpec] = None
    #: Where the system-measurement file lives; None keeps it in memory only.
    measurement_path: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.trace is not None and not callable(self.trace):
            raise ValueError(f"trace must be a sink called as sink(timeline, event), got {self.trace!r}")
        if self.selection not in SELECTION_MODES:
            raise ValueError(
                f"unknown selection policy {self.selection!r}; expected one of {SELECTION_MODES}"
            )
        if self.progress not in PROGRESS_MODES:
            raise ValueError(
                f"unknown progress mode {self.progress!r}; expected one of {PROGRESS_MODES}"
            )
        if self.nic not in NIC_MODES:
            raise ValueError(
                f"unknown nic mode {self.nic!r}; expected one of {NIC_MODES}"
            )
        if self.allreduce_algorithm not in ALLREDUCE_ALGORITHMS:
            raise ValueError(
                f"unknown allreduce algorithm {self.allreduce_algorithm!r}; "
                f"expected one of {ALLREDUCE_ALGORITHMS}"
            )
        if self.selection == "contended" and self.progress == "per_plan":
            raise ValueError(
                "selection='contended' prices the shared NicTimeline's backlog, which "
                "progress='per_plan' never books: the combination is inert; use "
                "progress='shared' (or selection='model')"
            )
        if self.selection == "contended" and self.method is not PackMethod.AUTO:
            raise ValueError(
                f"method=PackMethod.{self.method.name} forces every message, so "
                "selection='contended' would never price one: the combination is "
                "inert; use method=PackMethod.AUTO (or selection='model')"
            )

    @staticmethod
    def disabled() -> "TempiConfig":
        """A configuration that turns TEMPI into a transparent pass-through."""
        return TempiConfig(enabled=False, datatype_handling=False, send_handling=False)

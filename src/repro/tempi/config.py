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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional


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
    #: its pack completes.  ``False`` reproduces the serial schedule (every
    #: pack synchronised on the host, a collective's messages posted when its
    #: last pack is done, every unpack synchronous) for ablations —
    #: ``bench_fig14_overlap.py`` measures the difference.  Both schedules
    #: book every message on the same NIC, so only the schedule differs.
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
    #: per-plan ablation has no shared timeline to ingest against), so
    #: ``"inject_only"`` is refused there.
    nic: str = "duplex"
    #: Coalesce consecutive sub-eager-threshold nonblocking sends to one peer
    #: into one pack launch burst and one posted wire message (the batch
    #: flushes at the next progress point).  Batching needs shared progress
    #: and the overlapped executor, so ``False`` is refused under
    #: ``progress="per_plan"`` or ``overlap=False``, where it is already off.
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
    #: Where the system-measurement file lives; None keeps it in memory only.
    measurement_path: Optional[Path] = None

    def __post_init__(self) -> None:
        if not self.enabled:
            # Every other field is inert when the master switch is off: only
            # ``disabled()``'s values are accepted beside it.
            for field in fields(self):
                if field.name == "enabled":
                    continue
                value = getattr(self, field.name)
                expected = False if field.name in _DISABLED_OFF else field.default
                if value != expected:
                    raise ValueError(
                        f"enabled=False passes every call to the system MPI, so "
                        f"{field.name}={value!r} would never act: the combination is "
                        f"inert; use TempiConfig.disabled() (which sets {field.name}="
                        f"{expected!r})"
                    )
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
        if not self.send_handling and self.allreduce_algorithm != "auto":
            raise ValueError(
                "send_handling=False passes Allreduce to the system fan-in, so "
                f"allreduce_algorithm={self.allreduce_algorithm!r} would never act: the "
                "combination is inert; use allreduce_algorithm='auto' (or send_handling=True)"
            )
        if self.selection == "contended" and self.progress == "per_plan":
            raise ValueError(
                "selection='contended' prices the shared NicTimeline's backlog, which "
                "progress='per_plan' never books: the combination is inert; use "
                "progress='shared' (or selection='model')"
            )
        if self.nic == "inject_only" and self.progress == "per_plan":
            raise ValueError(
                "nic='inject_only' picks which ends of the shared NicTimeline are priced, "
                "and progress='per_plan' books none: the combination is inert; use "
                "progress='shared' (or nic='duplex')"
            )
        if not self.batch_eager_sends and (self.progress == "per_plan" or not self.overlap):
            already = "progress='per_plan'" if self.progress == "per_plan" else "overlap=False"
            raise ValueError(
                f"batch_eager_sends=False turns off batching, which {already} already "
                "turns off: the combination is inert; use batch_eager_sends=True"
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
        return TempiConfig(enabled=False, **dict.fromkeys(_DISABLED_OFF, False))


#: The fields ``TempiConfig.disabled()`` switches off beside ``enabled``;
#: every other field keeps its default there.
_DISABLED_OFF = ("datatype_handling", "send_handling")

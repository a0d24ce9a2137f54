"""The interposer (Sec. 5).

On a real system TEMPI is a shared library inserted ahead of the system MPI
in the link order (or via ``LD_PRELOAD``): it exports a *partial* MPI
implementation, so the dynamic linker resolves the overridden symbols to
TEMPI and everything else to the system MPI.  The reproduction mirrors that
structure with plain object composition:

* :class:`TempiCommunicator` exposes the same call surface as
  :class:`repro.mpi.communicator.Communicator`;
* the calls TEMPI accelerates (``Type_commit``, ``Pack``, ``Unpack``,
  ``Send``/``Isend``/``Send_init``, ``Recv``/``Irecv``/``Recv_init``,
  ``Sendrecv``, ``Bcast``, and the datatype-carrying ``Alltoallv`` /
  ``Neighbor_alltoallv`` / ``Allgather`` / ``Allgatherv`` with their
  nonblocking forms, and the persistent ``Alltoallv_init`` /
  ``Neighbor_alltoallv_init``) are overridden here;
* every other attribute falls through to the underlying communicator via
  ``__getattr__`` — the analogue of unresolved symbols binding to the system
  MPI.

Every accelerated operation is **compiled to a**
:class:`~repro.tempi.plan.MessagePlan` — typed pack/post/unpack stages
carrying method selection and staging keys — and run by the per-rank
:class:`~repro.tempi.executor.PlanExecutor`, which issues pack kernels on
per-peer streams and posts each peer's wire transfer as soon as its pack
completes.  Every collective entry point goes through one starter
(:meth:`TempiCommunicator._start`): a compiled plan is executed, anything else
is a progress point followed by the system's split-phase call; either way a
:class:`~repro.mpi.request.Request` comes back, which the nonblocking calls
return (the receive-side unpack deferred to ``Wait``/``Test``) and the
blocking calls wait on at once.  Point-to-point messages have one entry too
(:meth:`TempiCommunicator._bind_p2p`): what no round changes is bound once,
and every start of the bound request pays the round's charges and executes
the bound plan — once for ``Isend``/``Irecv``, every round for
``Send_init``/``Recv_init`` + ``Start``.  A persistent collective
(:class:`PersistentCollective`) is bound the same way; its
:meth:`~PersistentCollective.charge` is what a start owes, and
:func:`charge_batch` charges a whole round of them at once.  All wire
state lives in the per-rank :class:`~repro.tempi.progress.ProgressEngine`
(cross-plan NIC accounting on the world's shared
:class:`~repro.machine.nic.NicTimeline`, small-plan send batching,
``Test``-driven progress), configured by ``TempiConfig.progress`` and
``TempiConfig.batch_eager_sends``.

Applications written against the system MPI therefore run unmodified against
either object, which is how the examples and benchmarks switch between the
baseline and TEMPI.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from typing import Sequence

from repro.gpu.memory import Buffer
from repro.machine.nic import JoinEvent
from repro.machine.spec import MachineSpec
from repro.mpi.collectives import _next_collective_tag, check_allreduce, check_section, section_types
from repro.mpi.communicator import Communicator, as_buffer
from repro.mpi.datatype import Datatype, check_datatype, check_int
from repro.mpi.errors import MpiArgumentError
from repro.mpi.request import Request, null_request
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status
from repro.tempi import plan as _plan
from repro.tempi.cache import ResourceCache
from repro.tempi.canonicalize import simplify
from repro.tempi.config import HANDLER_LOOKUP_S, MODEL_CACHED_QUERY_S, POINTER_CHECK_S, TempiConfig
from repro.tempi.executor import PlanExecutor
from repro.tempi.measurement import SystemMeasurement, measure_system
from repro.tempi.packer import PackError, Packer
from repro.tempi.progress import ProgressEngine
from repro.tempi.perf_model import PerformanceModel
from repro.tempi.plan import MessagePlan, PlanSection
from repro.tempi.selection import (
    ModelSelector,
    SelectionError,
    choose_allreduce_algorithm,
    make_selector,
)
from repro.tempi.strided_block import to_strided_block
from repro.tempi.translate import TranslationError, translate


@dataclass
class TypeHandler:
    """What TEMPI attaches to a datatype at commit time."""

    packer: Optional[Packer]
    #: Why there is no packer, when there is none (fallback reporting).
    fallback_reason: Optional[str] = None
    uses: int = 0
    #: Whether the committed type is one contiguous run — such a message is
    #: the system MPI's to send as it is.  Known at commit; every
    #: ``Send``/``Recv`` asks.
    contiguous: bool = field(init=False)

    def __post_init__(self) -> None:
        self.contiguous = self.packer is not None and len(self.packer.block.counts) == 1

    @property
    def accelerated(self) -> bool:
        return self.packer is not None


@dataclass
class InterposerStats:
    """Counters for tests and the ablation benchmarks."""

    commits: int = 0
    accelerated_commits: int = 0
    packs: int = 0
    sends: int = 0
    recvs: int = 0
    fallbacks: int = 0
    #: Typed collectives taken over by the interposer vs handed back to the
    #: system MPI (one count per collective call, not per message).
    collective_hits: int = 0
    collective_fallbacks: int = 0
    #: Plans run by the executor (one per accelerated operation).
    plans_built: int = 0
    #: Pack/unpack stages issued on per-peer streams without blocking the
    #: host — the stages whose device time overlapped wire time.
    stages_overlapped: int = 0
    #: Receive-side unpacks deferred from a nonblocking call to ``Wait``.
    deferred_unpacks: int = 0
    #: Sub-eager send plans the progress engine coalesced into shared wire
    #: messages (counted per constituent plan, batches of two or more).
    batched_plans: int = 0
    #: Messages whose injection the shared NIC timeline delayed because the
    #: port or link was still occupied by earlier (cross-plan) traffic.
    contention_stalls: int = 0
    #: Messages whose landing this rank's ingestion port delayed because
    #: earlier arrivals were still draining (duplex accounting only).
    ingest_stalls: int = 0
    #: Persistent-collective starts under ``TempiConfig.plan_cache``: a
    #: restart that replays the bound template is a hit, the first start that
    #: records it a miss.  One-shot collectives count neither.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Method selections whose *value* came from the selection memo (a
    #: selector without a resource cache counts every selection a miss).
    selection_memo_hits: int = 0
    selection_memo_misses: int = 0
    method_counts: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        methods_repr = ",".join(
            f"{name}={count}" for name, count in sorted(self.method_counts.items())
        )
        return (
            "InterposerStats("
            f"commits={self.commits}/{self.accelerated_commits} "
            f"packs={self.packs} sends={self.sends} recvs={self.recvs} "
            f"fallbacks={self.fallbacks} "
            f"collectives={self.collective_hits}+{self.collective_fallbacks}fb "
            f"plans={self.plans_built} overlapped={self.stages_overlapped} "
            f"deferred_unpacks={self.deferred_unpacks} "
            f"batched={self.batched_plans} stalls={self.contention_stalls} "
            f"ingest_stalls={self.ingest_stalls} "
            f"plan_cache={self.plan_cache_hits}+{self.plan_cache_misses}miss "
            f"selection_memo={self.selection_memo_hits}+{self.selection_memo_misses}miss "
            f"methods=[{methods_repr}])"
        )


#: Each machine's measured model, shared by every rank of the process: like
#: the paper's measurement binary, the sweep runs once per system.
_MODELS: dict[MachineSpec, PerformanceModel] = {}
_MODELS_LOCK = threading.Lock()


class Tempi:
    """Per-rank library state shared by all interposed communicators."""

    def __init__(
        self,
        runtime,
        machine,
        config: TempiConfig = TempiConfig(),
        model: Optional[PerformanceModel] = None,
    ) -> None:
        self.config = config
        self.cache = ResourceCache(runtime, enabled=config.use_cache)
        self.stats = InterposerStats()
        self._machine = machine
        self._model = model

    @property
    def model(self) -> PerformanceModel:
        """The performance model, lazily loaded or measured.

        ``config.measurement_path`` loads a file, which must be for this
        machine (or for ``"unknown"``); otherwise the machine's sweep runs
        once per process and every rank shares its model.
        """
        if self._model is None:
            machine = self._machine
            path = self.config.measurement_path
            if path is not None:
                measurement = SystemMeasurement.load(path)
                if measurement.machine_name not in ("unknown", machine.name):
                    raise SelectionError(
                        f"measurement file {str(path)!r} is for machine "
                        f"{measurement.machine_name!r}, not {machine.name!r}"
                    )
                self._model = PerformanceModel(measurement)
            else:
                with _MODELS_LOCK:
                    model = _MODELS.get(machine)
                    if model is None:
                        model = _MODELS[machine] = PerformanceModel(measure_system(machine))
                self._model = model
        return self._model


class TempiCommunicator:
    """The interposed MPI surface for one rank."""

    def __init__(
        self,
        comm: Communicator,
        config: TempiConfig = TempiConfig(),
        *,
        library: Optional[Tempi] = None,
        model: Optional[PerformanceModel] = None,
    ) -> None:
        self._comm = comm
        self.config = config
        self.tempi = library if library is not None else Tempi(
            comm.gpu, comm.network.machine, config, model
        )
        self._executor = PlanExecutor(comm, self.tempi.cache, self.tempi.stats, config)
        self._engine = self._executor.engine
        #: The unified method-selection policy (Sec. 4 / selection.py): every
        #: AUTO decision — p2p, bcast, typed collectives — goes through this
        #: one object, which owns memoisation, query-overhead charging and
        #: (for ``selection="contended"``) the live NIC-backlog pricing.
        self._selector = make_selector(config, lambda: self.tempi.model, self._engine)
        self._clock = comm.clock
        #: What every interposed call is charged (Sec. 6.3): the handler
        #: lookup plus the pointer check.
        self._overhead_s = HANDLER_LOOKUP_S + POINTER_CHECK_S

    # ------------------------------------------------------------ passthrough
    def __getattr__(self, name: str):
        # Anything TEMPI does not override resolves in the "system MPI",
        # exactly like unresolved symbols at link time.
        return getattr(self._comm, name)

    def _fall_through(self, system, join: bool, *args, **kwargs):
        """Hand a call that can block on (or observe) other ranks to the system MPI.

        ``system`` is the bound method of the underlying communicator.  Such a
        call is a **progress point**: the engine's deferred sends are flushed
        first — a system ``Barrier`` reached with a batched sub-eager message
        still pending would park this rank while the receiver blocks on the
        unposted message, the deadlock MPI's eager-delivery guarantee forbids.
        A ``Send``/``Recv`` that compiled to no plan comes through here for
        the same reason: the system's message must not overtake a deferred one.
        ``join`` marks the collective join points (no rank returns before
        every rank entered): on a traced timeline each emits a
        :class:`~repro.machine.nic.JoinEvent`, the happens-before edge a
        barrier establishes.
        """
        self._engine.progress()
        nic = self._engine.nic
        if join and nic.sink is not None:
            # Before the real collective: the last arriver's event completes
            # the join while every rank is still blocked inside it.
            nic.sink(nic, JoinEvent(self._comm.rank, self._comm.size))
        return system(*args, **kwargs)

    def _start(self, plan: Optional[MessagePlan], system, *args, join: bool = False, **kwargs) -> Request:
        """The interposer's one rule, for every collective entry point.

        A compiled ``plan`` is TEMPI's business and is executed; ``None``
        means the call is the system's symbol (:meth:`_fall_through`).  The
        result is always the request that completes the operation — a system
        call with no split-phase form (``Bcast``, ``Allreduce``) has completed
        by the time it returns, hence the null request.  Blocking entry points
        wait on it at once; they still compile with ``nonblocking=False``,
        because the flag is part of the plan (its cache key, whether unpacks
        count as deferred, when a send completes).
        """
        if plan is not None:
            return self._executor.execute(plan)
        return self._fall_through(system, join, *args, **kwargs) or null_request()

    def Barrier(self) -> None:
        """``MPI_Barrier`` of the system MPI: a progress point and a join."""
        self._fall_through(self._comm.Barrier, True)

    def Allreduce_scalar(self, value: float, op: str = "sum") -> float:
        """The system MPI's scalar allreduce: a progress point and a join."""
        return self._fall_through(self._comm.Allreduce_scalar, True, value, op)

    def Allgather_object(self, value) -> list:
        """The system MPI's object allgather: a progress point and a join."""
        return self._fall_through(self._comm.Allgather_object, True, value)

    def Probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """The system MPI's nonblocking probe: a progress point, but not a
        join — it observes one peer."""
        return self._fall_through(self._comm.Probe, False, source, tag)

    @property
    def system(self) -> Communicator:
        """The underlying system MPI communicator."""
        return self._comm

    @property
    def stats(self) -> InterposerStats:
        return self.tempi.stats

    @property
    def executor(self) -> PlanExecutor:
        """The plan executor running this rank's accelerated operations."""
        return self._executor

    @property
    def progress_engine(self) -> ProgressEngine:
        """The progress engine owning this rank's deferred wire state."""
        return self._engine

    # ----------------------------------------------------------------- commit
    def Type_commit(self, datatype: Datatype) -> Datatype:
        """``MPI_Type_commit`` with TEMPI's translation pipeline attached.

        The system MPI's commit is always performed; when interposition is
        enabled the datatype is additionally translated, canonicalised and
        bound to a packer, and the handler is cached on the datatype for
        every later communication call (Sec. 3).
        """
        check_datatype(datatype, "datatype").Commit()
        self.tempi.stats.commits += 1
        if not (self.config.enabled and self.config.datatype_handling):
            return datatype
        handler = datatype.attachment = self._build_handler(datatype)
        if handler.packer is not None:
            self.tempi.stats.accelerated_commits += 1
        return datatype

    def _build_handler(self, datatype: Datatype) -> TypeHandler:
        try:
            ir = translate(datatype)
        except TranslationError as exc:
            return TypeHandler(packer=None, fallback_reason=str(exc))
        block = to_strided_block(simplify(ir))
        return TypeHandler(packer=Packer(block, object_extent=datatype.extent))

    @staticmethod
    def handler_of(datatype: Datatype) -> Optional[TypeHandler]:
        """The TEMPI handler attached at commit time, if any."""
        attachment = datatype.attachment
        return attachment if isinstance(attachment, TypeHandler) else None

    # ------------------------------------------------------------- accounting
    def _charge_interposition_overhead(self) -> None:
        self._clock.advance(self._overhead_s)

    def _can_accelerate(self, datatype: Datatype, *buffers: Buffer) -> Optional[TypeHandler]:
        if not self.config.enabled:
            return None
        handler = datatype.attachment
        if not isinstance(handler, TypeHandler):
            return None
        if handler.packer is None:
            self.tempi.stats.fallbacks += 1
            return None
        for buffer in buffers:
            if not buffer.is_device:
                return None
        return handler

    # -------------------------------------------------------------------- pack
    def Pack(self, in_spec, outbuf, position: int = 0) -> int:
        """``MPI_Pack``: one kernel launch instead of one memcpy per block.

        A ``position`` or user buffer the packer refuses raises the system
        library's ``MpiArgumentError`` naming it; the check runs only once
        the packer has refused, so a good call pays nothing for it.
        """
        buffer, count, datatype = self._comm._resolve(in_spec)
        out = as_buffer(outbuf)
        handler = (
            self._can_accelerate(datatype, buffer, out)
            if self.config.datatype_handling
            else None
        )
        if handler is None:
            return self._comm.Pack(in_spec, outbuf, position)
        self._charge_interposition_overhead()
        handler.uses += 1
        self.tempi.stats.packs += 1
        try:
            return position + handler.packer.pack(
                self._comm.gpu, buffer, out, count, dst_offset=position
            )
        except PackError:
            self._comm._check_pack(buffer, count, datatype, out, position)
            raise

    def Unpack(self, inbuf, position: int, out_spec) -> int:
        """``MPI_Unpack`` accelerated symmetrically to :meth:`Pack`."""
        buffer, count, datatype = self._comm._resolve(out_spec)
        source = as_buffer(inbuf)
        handler = (
            self._can_accelerate(datatype, buffer, source)
            if self.config.datatype_handling
            else None
        )
        if handler is None:
            return self._comm.Unpack(inbuf, position, out_spec)
        self._charge_interposition_overhead()
        handler.uses += 1
        self.tempi.stats.packs += 1
        try:
            return position + handler.packer.unpack(
                self._comm.gpu, source, buffer, count, src_offset=position
            )
        except PackError:
            self._comm._check_pack(buffer, count, datatype, source, position)
            raise

    # ------------------------------------------------------------ p2p binding
    def _bind_p2p(
        self, kind: str, spec, peer: int, tag: int, nonblocking: bool, persistent: bool = False
    ) -> Optional[Request]:
        """Bind one send or receive; ``None`` means it is the system's call.

        The one place a point-to-point message meets TEMPI.  What no round
        changes happens here, once: the spec is resolved, the commit-time
        handler found, the peer checked, the packed size taken.  The request's
        ``start`` is what every round owes — the interposition charge, the
        selector's charge-and-count, the stats lines — and executes the bound
        plan, compiled at the first start and again only if the selector's
        answer changes.  ``Isend``/``Irecv``/``Send``/``Recv`` are this bind
        started once, here; ``persistent`` (``Send_init``/``Recv_init``)
        hands the request out inactive, to be started every round.
        """
        comm = self._comm
        buffer, count, datatype = comm._resolve(spec)
        handler = (
            self._can_accelerate(datatype, buffer)
            if self.config.send_handling
            else None
        )
        if handler is None or handler.contiguous:
            return None
        send = kind == "send"
        comm._check_peer(peer, allow_any=not send)
        packer = handler.packer
        nbytes = packer.packed_size(count)
        # A send's destination rides along so a duplex-aware selector can
        # price the link to — and the ingestion backlog of — that rank.
        select_peer = peer if send else None
        # Every start asks the selector; a restart's is by then a memo hit.
        selector = self._selector
        compile_plan = _plan.compile_send if send else _plan.compile_recv
        clock = self._clock
        overhead = self._overhead_s
        stats = self.tempi.stats
        execute = self._executor.execute
        plan: Optional[MessagePlan] = None
        bound_method = None

        def start() -> None:
            nonlocal plan, bound_method
            # _charge_interposition_overhead, inlined: every start pays it.
            clock.now += overhead
            clock._events += 1
            method = selector(packer, nbytes, select_peer)
            if send:
                stats.sends += 1
            else:
                stats.recvs += 1
            name = method._value_  # ``.value`` without the descriptor's two Python calls
            counts = stats.method_counts
            counts[name] = counts[name] + 1 if name in counts else 1
            handler.uses += 1
            if method is not bound_method:
                bound_method = method
                plan = compile_plan(
                    packer, buffer, count, peer, tag, method, nonblocking=nonblocking
                )
            execute(plan, request)

        if persistent:
            request = Request(kind, start=start, peer=peer, tag=tag, registry=comm.requests)
        else:
            request = Request(kind, peer=peer, tag=tag, ledger=comm.books if send else None)
            try:
                start()
            except BaseException:
                request.Wait()  # never started, so never left open
                raise
        return request

    def _init_p2p(self, kind: str, post, spec, peer: int, tag: int) -> Request:
        """``Send_init``/``Recv_init``: the bind, handed out to be restarted.

        The system's message becomes the system's persistent request around
        ``post`` — this communicator's own ``Isend``/``Irecv``, which falls
        through (and counts its ``fallbacks``) at every start as it does today.
        """
        stats = self.tempi.stats
        fallbacks = stats.fallbacks
        request = self._bind_p2p(kind, spec, peer, tag, True, persistent=True)
        if request is None:
            stats.fallbacks = fallbacks  # a start owes the count, not the bind
            request = self._comm._persistent(kind, post, spec, peer, tag, peer=peer, tag=tag)
        return request

    def Send_init(self, spec, dest: int, tag: int = 0) -> Request:
        """``MPI_Send_init``: bind once, ``Start`` every round."""
        return self._init_p2p("send", self.Isend, spec, dest, tag)

    def Recv_init(self, spec, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """``MPI_Recv_init``: bind once, ``Start`` every round."""
        return self._init_p2p("recv", self.Irecv, spec, source, tag)

    @staticmethod
    def _into_status(result: Status, status: Optional[Status]) -> Status:
        return result if status is None else status.copy_from(result)

    # -------------------------------------------------------------------- send
    def Send(self, spec, dest: int, tag: int = 0) -> None:
        """``MPI_Send``: bind, start, wait."""
        request = self._bind_p2p("send", spec, dest, tag, False)
        if request is None:
            self._fall_through(self._comm.Send, False, spec, dest, tag)
        else:
            request.Wait()

    def Isend(self, spec, dest: int, tag: int = 0) -> Request:
        """``MPI_Isend``: the plan's pack runs on its own stream; the request
        completes when the user buffer is reusable (pack done + injection)."""
        request = self._bind_p2p("send", spec, dest, tag, True)
        if request is None:
            return self._fall_through(self._comm.Isend, False, spec, dest, tag)
        return request

    def Recv(
        self,
        spec,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Status:
        """``MPI_Recv``: bind, start, wait."""
        request = self._bind_p2p("recv", spec, source, tag, False)
        if request is None:
            return self._fall_through(self._comm.Recv, False, spec, source, tag, status)
        return self._into_status(request.Wait(), status)

    def Irecv(self, spec, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """``MPI_Irecv``: matching and unpacking deferred to ``Wait``/``Test``."""
        request = self._bind_p2p("recv", spec, source, tag, True)
        if request is None:
            return self._fall_through(self._comm.Irecv, False, spec, source, tag)
        return request

    def Sendrecv(
        self,
        send_spec,
        dest: int,
        sendtag: int,
        recv_spec,
        source: int,
        recvtag: int,
        status: Optional[Status] = None,
    ) -> Status:
        """``MPI_Sendrecv`` as a nonblocking send plan overlapping a receive.

        Both halves compile to plans when their datatypes are accelerable, so
        a strided exchange rides the progress engine (NIC accounting, batcher)
        exactly like an ``Isend``/``Recv`` pair; either half independently
        falls back to the system path.
        """
        request = self.Isend(send_spec, dest, sendtag)
        result = self.Recv(recv_spec, source, recvtag, status)
        request.Wait()
        return result

    # ------------------------------------------------------------------- bcast
    def _compile_bcast(self, spec, root: int) -> Optional[MessagePlan]:
        """Compile a broadcast to a plan, or return ``None`` for the system path.

        Acceleration requires the datatype-handler family the kernels cover
        (committed, non-contiguous, device buffer) and at least two ranks; as
        with the typed collectives, every rank of the communicator must reach
        the same decision, which holds for SPMD programs because the buffer
        residency and datatype are part of the collective's signature.  The
        collective tag is consumed only on the accelerated path (the system
        broadcast draws its own), keeping the sequence aligned either way.
        """
        comm = self._comm
        if comm.size < 2 or not 0 <= root < comm.size:
            return None
        if not (self.config.enabled and self.config.datatype_handling):
            return None
        buffer, count, datatype = comm._resolve(spec)
        handler = self._can_accelerate(datatype, buffer)
        if handler is None or handler.contiguous:
            return None
        self._charge_interposition_overhead()
        nbytes = handler.packer.packed_size(count)
        method = self._selector(handler.packer, nbytes)
        handler.uses += 1
        self.tempi.stats.collective_hits += 1
        plan = _plan.compile_bcast(
            handler.packer,
            buffer,
            count,
            root,
            comm.rank,
            comm.size,
            method,
            tag=_next_collective_tag(comm),
        )
        self._count_methods(plan, self.tempi.stats.method_counts)
        return plan

    def Bcast(self, spec, root: int = 0) -> None:
        """``MPI_Bcast`` with datatype acceleration.

        The root packs its strided elements once and fans the payload out
        through the plan executor (one wire reservation per peer on the
        progress engine); receivers unpack through the same packer, so
        derived datatypes broadcast element-wise instead of as a raw byte
        prefix.  Contiguous or uncommitted datatypes and host buffers fall
        through to the system broadcast.
        """
        self._start(self._compile_bcast(spec, root), self._comm.Bcast, spec, root).Wait()

    # --------------------------------------------------------------- allgather
    def _start_allgatherv(
        self, sendbuf, sendcount, recvbuf, recvcounts, recvdispls, sendtype, recvtypes,
        nonblocking: bool,
    ) -> Request:
        """Start an all-gather-v: the typed form compiles to a root-less
        fan-out plan; the byte signature, disabled interposition, host buffers
        and unhandled datatypes are the system's ``Iallgatherv`` — exactly
        like the typed all-to-all-v."""
        if type(sendcount) is not int:  # named as the system path names it
            sendcount = check_int(sendcount, "sendcount", MpiArgumentError)
        if sendtype is not None:  # one datatype, not a list: checked as the system checks it
            check_datatype(sendtype, "sendtype")
        size = self._comm.size
        plan = None
        if size >= 2:
            plan, _ = self._compile_collective(
                "allgather", range(size),
                sendbuf, [sendcount], [0], sendtype,
                recvbuf, recvcounts, recvdispls, recvtypes,
                nonblocking=nonblocking,
                sections=self._allgather_sections,
                compiler=self._compile_allgather,
            )
        return self._start(
            plan, self._comm.Iallgatherv, sendbuf, sendcount, recvbuf, recvcounts, recvdispls,
            sendtype=sendtype, recvtypes=recvtypes,
        )

    def _start_allgather(
        self, sendbuf, sendcount, recvbuf, sendtype, recvtype, nonblocking: bool
    ) -> Request:
        """:meth:`_start_allgatherv` of ``MPI_Allgather``'s uniform contribution."""
        counts, displs = self._comm._allgather_uniform(sendcount, sendtype, recvtype)
        return self._start_allgatherv(
            sendbuf, sendcount, recvbuf, counts, displs, sendtype, recvtype, nonblocking
        )

    def _allgather_sections(self, peers, *sides):
        """Section builder of the all-gather-v front-end.

        ``sides`` are the buffer/counts/displs/types of both sides, as
        :meth:`_exchange_sections` takes them.  One send section (this rank's contribution) against a receive
        section per peer; the two must agree on this rank's bytes — the
        system path's own consistency check, raised before any bytes move so
        both paths reject the call identically.
        """
        rank = self._comm.rank
        built = self._exchange_sections(list(peers), *sides, send_peers=[rank])
        if built is not None:
            send_sections, recv_sections, _ = built
            sent = sum(s.packer.packed_size(s.count) for s in send_sections)
            if sum(s.packer.packed_size(s.count) for s in recv_sections if s.peer == rank) != sent:
                raise MpiArgumentError(
                    "this rank's contribution disagrees with its recv section"
                )
        return built

    def _compile_allgather(
        self, rank, send, send_sections, recv, recv_sections, select, *, op, nonblocking
    ) -> MessagePlan:
        """:func:`~repro.tempi.plan.compile_exchange`-shaped fan-out compile."""
        send_section = send_sections[0] if send_sections else PlanSection(rank, 0, 0, None)
        return _plan.compile_allgather(
            rank, self._comm.size, send, send_section, recv, recv_sections, select,
            nonblocking=nonblocking,
        )

    def Allgather(
        self,
        sendbuf,
        sendcount: int,
        recvbuf,
        *,
        sendtype=None,
        recvtype=None,
    ) -> None:
        """``MPI_Allgather`` with datatype acceleration (uniform contribution)."""
        self._start_allgather(sendbuf, sendcount, recvbuf, sendtype, recvtype, False).Wait()

    def Iallgather(
        self,
        sendbuf,
        sendcount: int,
        recvbuf,
        *,
        sendtype=None,
        recvtype=None,
    ) -> Request:
        """Nonblocking ``MPI_Iallgather`` over the same plan engine."""
        return self._start_allgather(sendbuf, sendcount, recvbuf, sendtype, recvtype, True)

    def Allgatherv(
        self,
        sendbuf,
        sendcount: int,
        recvbuf,
        recvcounts: Sequence[int],
        recvdispls: Sequence[int],
        *,
        sendtype=None,
        recvtypes=None,
    ) -> None:
        """``MPI_Allgatherv`` with datatype acceleration.

        The datatype-carrying form compiles to a root-less fan-out
        :class:`MessagePlan`: this rank's contribution is packed **once**
        (one kernel pipeline, method selected per message) and every peer's
        post stage shares that payload, while incoming contributions unpack
        per peer — selection, pack/wire overlap and the progress engine's
        NIC accounting exactly as ``Alltoallv`` gets them.  The byte form,
        contiguous or uncommitted datatypes, and host buffers fall through
        to the system MPI.
        """
        self._start_allgatherv(
            sendbuf, sendcount, recvbuf, recvcounts, recvdispls, sendtype, recvtypes, False
        ).Wait()

    def Iallgatherv(
        self,
        sendbuf,
        sendcount: int,
        recvbuf,
        recvcounts: Sequence[int],
        recvdispls: Sequence[int],
        *,
        sendtype=None,
        recvtypes=None,
    ) -> Request:
        """Nonblocking ``MPI_Iallgatherv``: packs and posts now, receives and
        unpacks at ``Wait``/``Test`` (the deferred-unpack side of the plan)."""
        return self._start_allgatherv(
            sendbuf, sendcount, recvbuf, recvcounts, recvdispls, sendtype, recvtypes, True
        )

    # ------------------------------------------------------------- collectives
    def _collective_sections(
        self,
        buffer: Buffer,
        peers: Sequence[int],
        counts: Sequence[int],
        displs: Sequence[int],
        types,
        what: str,
    ) -> Optional[tuple[list[PlanSection], list[tuple]]]:
        """Build the plan-section list of one typed-collective side.

        Every section is validated with the system path's own checks before
        any fallback, so invalid calls raise the same MPI errors whichever
        path runs.  Returns ``None`` (fall back to the system path) unless
        every nonzero section carries a committed datatype whose handler
        holds a non-contiguous packer — the family the kernels accelerate —
        and the user buffer is device resident.  Otherwise returns the
        sections and one ``(handler, sections)`` pair per run of nonzero
        sections sharing a datatype, as ``uses`` counts sections.
        """
        if not buffer.is_device:
            return None
        datatypes = section_types(peers, counts, displs, types, what)
        sections: Optional[list[PlanSection]] = []
        runs: list[tuple] = []
        datatype = handler = None
        length = 0
        for index, (peer, count, displ, section_type) in enumerate(zip(peers, counts, displs, datatypes)):
            if type(peer) is not int:
                peer = check_int(peer, f"neighbors[{index}]", MpiArgumentError)
            if type(count) is not int:
                count = check_int(count, f"{what}counts[{index}]", MpiArgumentError)
            if type(displ) is not int:
                displ = check_int(displ, f"{what}displs[{index}]", MpiArgumentError)
            check_section(self._comm, buffer, peer, count, displ, section_type, what)
            if sections is None or count == 0:
                continue  # a fallback still checks the sections after it
            if section_type is not datatype:
                # One handler lookup per run of sections sharing a datatype.
                if length:
                    runs.append((handler, length))
                datatype = section_type
                handler = self.handler_of(datatype)
                if handler is None or handler.packer is None or handler.contiguous:
                    sections = None
                    continue
                length = 0
            length += 1
            sections.append(PlanSection(peer, count, displ, handler.packer))
        if sections is None:
            return None
        if length:
            runs.append((handler, length))
        return sections, runs

    def _exchange_sections(
        self, peers, send, sendcounts, senddispls, sendtypes,
        recv, recvcounts, recvdispls, recvtypes, send_peers=None,
    ) -> Optional[tuple[list[PlanSection], list[PlanSection], list[tuple]]]:
        """Both sides' sections and their handler runs, or ``None`` to fall back.

        ``send_peers`` defaults to ``peers`` (the all-to-all-v shapes).
        """
        send_side = self._collective_sections(
            send, peers if send_peers is None else send_peers,
            sendcounts, senddispls, sendtypes, "send",
        )
        if send_side is None:
            return None
        recv_side = self._collective_sections(
            recv, peers, recvcounts, recvdispls, recvtypes, "recv"
        )
        if recv_side is None:
            return None
        return send_side[0], recv_side[0], send_side[1] + recv_side[1]

    # ---------------------------------------------------------- plan templates
    @staticmethod
    def _count_methods(plan: MessagePlan, counts: dict) -> None:
        """Fold one plan's wire messages per method (one per post stage) into
        ``counts``, keyed by the method's value."""
        for post in plan.post_stages:
            name = post.pack.method._value_  # ``.value`` without the descriptor's two Python calls
            counts[name] = counts[name] + 1 if name in counts else 1

    def _compile_collective(
        self,
        op: str,
        peers: Sequence[int],
        sendbuf,
        sendcounts,
        senddispls,
        sendtypes,
        recvbuf,
        recvcounts,
        recvdispls,
        recvtypes,
        *,
        nonblocking: bool,
        sections=None,
        compiler=_plan.compile_exchange,
    ) -> tuple[Optional[MessagePlan], list[tuple]]:
        """Compile a typed collective to a plan, fully charged.

        The front half of every collective start — validation, the fallback
        decision and the compile, with every clock charge and stats count
        applied.  Returns ``(plan, handlers)``: the plan is ``None`` when the
        call is not TEMPI's business or must fall back (the caller then runs
        the system path); ``handlers`` are the ``(handler, sections)`` runs
        whose ``uses`` the compile counted, which a persistent collective's
        template counts again at every restart.  No cache is consulted: a
        one-shot call always compiles, and only a persistent collective
        reuses its first compile (see :class:`PersistentCollective`).

        ``sections`` and ``compiler`` are the two steps that differ between
        collectives: the section builder (default :meth:`_exchange_sections`)
        and the ``compile_exchange``-shaped plan compiler.
        """
        if sendtypes is None or recvtypes is None:
            # The byte signature (or a half-specified typed one, which the
            # system path rejects) is not TEMPI's business.
            return None, []
        if not (self.config.enabled and self.config.datatype_handling):
            return None, []
        send = as_buffer(sendbuf)
        recv = as_buffer(recvbuf)
        built = (sections or self._exchange_sections)(
            peers, send, sendcounts, senddispls, sendtypes,
            recv, recvcounts, recvdispls, recvtypes,
        )
        if built is None or not (built[0] or built[1]):
            self.tempi.stats.collective_fallbacks += 1
            return None, []
        send_sections, recv_sections, handlers = built
        # Both sides confirmed accelerable: only now count the handler uses.
        for handler, sections in handlers:
            handler.uses += sections
        self._charge_interposition_overhead()
        stats = self.tempi.stats
        stats.collective_hits += 1
        plan: MessagePlan = compiler(
            self._comm.rank, send, send_sections, recv, recv_sections, self._selector,
            op=op, nonblocking=nonblocking,
        )
        self._count_methods(plan, stats.method_counts)
        return plan, handlers

    def _start_exchange(
        self, op: str, system, head: tuple, peers: Sequence[int],
        sendbuf, sendcounts, senddispls, recvbuf, recvcounts, recvdispls,
        sendtypes, recvtypes, nonblocking: bool,
    ) -> Request:
        """Start an all-to-all-v over ``peers``: the typed form compiles to a
        plan; the byte or half-specified signature, disabled interposition,
        host buffers and unhandled datatypes are ``system`` — the underlying
        ``Ialltoallv``, or ``Ineighbor_alltoallv`` with the neighbour list as
        ``head``."""
        plan, _ = self._compile_collective(
            op, peers, sendbuf, sendcounts, senddispls, sendtypes,
            recvbuf, recvcounts, recvdispls, recvtypes, nonblocking=nonblocking,
        )
        return self._start(
            plan, system, *head, sendbuf, sendcounts, senddispls, recvbuf, recvcounts, recvdispls,
            sendtypes=sendtypes, recvtypes=recvtypes,
        )

    def Alltoallv(
        self,
        sendbuf,
        sendcounts: Sequence[int],
        senddispls: Sequence[int],
        recvbuf,
        recvcounts: Sequence[int],
        recvdispls: Sequence[int],
        *,
        sendtypes=None,
        recvtypes=None,
    ) -> None:
        """``MPI_Alltoallv`` with datatype acceleration (Sec. 5, extended).

        The datatype-carrying form compiles to a :class:`MessagePlan` — one
        pack kernel per destination, per-message method selection, per-peer
        persistent staging — executed with pack/wire overlap; the byte form,
        contiguous or uncommitted datatypes, and host buffers all fall
        through to the system MPI.
        """
        self._start_exchange(
            "alltoallv", self._comm.Ialltoallv, (), list(range(self._comm.size)),
            sendbuf, sendcounts, senddispls, recvbuf, recvcounts, recvdispls,
            sendtypes, recvtypes, False,
        ).Wait()

    def Ialltoallv(
        self,
        sendbuf,
        sendcounts: Sequence[int],
        senddispls: Sequence[int],
        recvbuf,
        recvcounts: Sequence[int],
        recvdispls: Sequence[int],
        *,
        sendtypes=None,
        recvtypes=None,
    ) -> Request:
        """Nonblocking ``MPI_Ialltoallv``: packs and posts now, receives and
        unpacks at ``Wait``/``Test`` (the deferred-unpack side of the plan)."""
        return self._start_exchange(
            "alltoallv", self._comm.Ialltoallv, (), list(range(self._comm.size)),
            sendbuf, sendcounts, senddispls, recvbuf, recvcounts, recvdispls,
            sendtypes, recvtypes, True,
        )

    # --------------------------------------------------------------- allreduce
    def _compile_allreduce(
        self, sendbuf, recvbuf, op: str, *, nonblocking: bool
    ) -> Optional[MessagePlan]:
        """Compile an allreduce to a :class:`MessagePlan`, fully charged.

        An unknown ``op``, a derived datatype or two datatypes of different
        element types raise what the system communicator raises
        (:func:`~repro.mpi.collectives.check_allreduce`), before anything is
        charged.  Returns ``None`` when the call is not TEMPI's business (host
        buffers, send and receive extents that differ, interposition
        disabled) — the caller then runs the naive system fan-in, a
        collective join that has finished when it returns.  Reduction plans
        are never kept as templates: the schedule is a pure function of
        ``(rank, size, count, algorithm)`` and compiles in microseconds, so
        the priced clocks stay trivially bit-identical across ``plan_cache``
        configs (the property wall pins this).
        """
        cfg = self.config
        if not (cfg.enabled and cfg.send_handling):
            return None
        comm = self._comm
        send_buffer, send_count, send_type = comm._resolve(sendbuf)
        recv_buffer, recv_count, recv_type = comm._resolve(recvbuf)
        dtype = check_allreduce(op, send_type, recv_type)
        if not (send_buffer.is_device and recv_buffer.is_device):
            self.tempi.stats.collective_fallbacks += 1
            return None
        nbytes = recv_type.size * recv_count
        if send_type.size * send_count != nbytes:
            self.tempi.stats.collective_fallbacks += 1
            return None
        topology = self._engine.topology
        algorithm = choose_allreduce_algorithm(
            comm.size, nbytes, topology=topology, algorithm=cfg.allreduce_algorithm
        )
        islands = (
            topology.islands() if algorithm == "hierarchical" and topology is not None else None
        )
        self._charge_interposition_overhead()
        self.tempi.stats.collective_hits += 1
        return _plan.compile_allreduce(
            comm.rank,
            comm.size,
            send_buffer,
            recv_buffer,
            recv_count,
            recv_type.size,
            dtype,
            op=op,
            algorithm=algorithm,
            islands=islands,
            nonblocking=nonblocking,
        )

    def Allreduce(self, sendbuf, recvbuf, op: str = "sum") -> None:
        """``MPI_Allreduce`` compiled to a reduction plan (ring/tree/hierarchical).

        Device buffers of one elementary datatype compile to a
        :class:`MessagePlan` of :class:`~repro.tempi.plan.ReduceStage` rounds —
        the schedule picked per call by
        :func:`~repro.tempi.selection.choose_allreduce_algorithm` (or pinned
        by ``config.allreduce_algorithm``) — and execute with combines priced
        like unpack kernels.  Everything else falls through to the naive
        system fan-in, byte-identically.
        """
        plan = self._compile_allreduce(sendbuf, recvbuf, op, nonblocking=False)
        self._start(plan, self._comm.Allreduce, sendbuf, recvbuf, op, join=True).Wait()

    def Iallreduce(self, sendbuf, recvbuf, op: str = "sum") -> Request:
        """Nonblocking ``MPI_Iallreduce``: the whole reduction schedule —
        every round's post, receive and combine — runs at ``Wait``/``Test``.

        Because rounds are deferred end-to-end, interleaving *other blocking
        traffic against the same peers* between ``Iallreduce`` and ``Wait``
        can deadlock, exactly as unmatched eager traffic would in MPI; the
        apps drive ``Wait`` before any such traffic.  The fallback runs the
        naive fan-in immediately and returns an already-complete request.
        """
        plan = self._compile_allreduce(sendbuf, recvbuf, op, nonblocking=True)
        return self._start(plan, self._comm.Allreduce, sendbuf, recvbuf, op, join=True)

    def Neighbor_alltoallv(
        self,
        neighbors: Sequence[int],
        sendbuf,
        sendcounts: Sequence[int],
        senddispls: Sequence[int],
        recvbuf,
        recvcounts: Sequence[int],
        recvdispls: Sequence[int],
        *,
        sendtypes=None,
        recvtypes=None,
    ) -> None:
        """``MPI_Neighbor_alltoallv`` accelerated symmetrically to :meth:`Alltoallv`."""
        self._start_exchange(
            "neighbor_alltoallv", self._comm.Ineighbor_alltoallv, (neighbors,), list(neighbors),
            sendbuf, sendcounts, senddispls, recvbuf, recvcounts, recvdispls,
            sendtypes, recvtypes, False,
        ).Wait()

    def Ineighbor_alltoallv(
        self,
        neighbors: Sequence[int],
        sendbuf,
        sendcounts: Sequence[int],
        senddispls: Sequence[int],
        recvbuf,
        recvcounts: Sequence[int],
        recvdispls: Sequence[int],
        *,
        sendtypes=None,
        recvtypes=None,
    ) -> Request:
        """Nonblocking neighbour collective over the same plan engine."""
        return self._start_exchange(
            "neighbor_alltoallv", self._comm.Ineighbor_alltoallv, (neighbors,), list(neighbors),
            sendbuf, sendcounts, senddispls, recvbuf, recvcounts, recvdispls,
            sendtypes, recvtypes, True,
        )

    # ---------------------------------------------------- persistent collectives
    def Alltoallv_init(self, sendbuf, sendcounts, senddispls, recvbuf, recvcounts, recvdispls,
                       *, sendtypes=None, recvtypes=None) -> "PersistentCollective":
        """``MPI_Alltoallv_init``: :meth:`Ialltoallv` bound once, ``Start`` every round."""
        buffers = (sendbuf, sendcounts, senddispls, recvbuf, recvcounts, recvdispls)
        return PersistentCollective(self, "alltoallv", self._comm.Ialltoallv, (), list(range(self._comm.size)),
                                    buffers, (sendtypes, recvtypes))

    def Neighbor_alltoallv_init(self, neighbors, sendbuf, sendcounts, senddispls, recvbuf, recvcounts,
                                recvdispls, *, sendtypes=None, recvtypes=None) -> "PersistentCollective":
        """``MPI_Neighbor_alltoallv_init``: :meth:`Ineighbor_alltoallv` bound once, ``Start`` every round."""
        buffers = (sendbuf, sendcounts, senddispls, recvbuf, recvcounts, recvdispls)
        return PersistentCollective(self, "neighbor_alltoallv", self._comm.Ineighbor_alltoallv, (neighbors,),
                                    list(neighbors), buffers, (sendtypes, recvtypes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TempiCommunicator over {self._comm!r} method={self.config.method.value}>"


class PersistentCollective(Request):
    """A typed all-to-all-v bound once (``Alltoallv_init``/``Neighbor_alltoallv_init``).

    The bind only captures the arguments.  :meth:`charge` is what one
    ``Start`` owes: the first is the one-shot call's compile (validation, the
    fallback decision, every charge), and under ``plan_cache`` it records
    the compiled plan as a :class:`~repro.tempi.plan.PlanTemplate` and counts
    one ``plan_cache_misses``; a restart replays that template and counts one
    ``plan_cache_hits``.  :func:`charge_batch` charges a *steady* restart
    (see :attr:`_steady`) without the replay.  With ``plan_cache`` off, or
    a call that falls back, a restart compiles again, as the one-shot call
    would.  This template is the only plan reuse there is.  ``Start``
    executes the charged plan into this request, or runs the system's call
    when there is none.  The request joins the rank's registry at its first
    ``Start``, the first time it can be active.
    """

    def __init__(self, owner: TempiCommunicator, op: str, system, head: tuple, peers: list,
                 buffers: tuple, types: tuple) -> None:
        super().__init__("coll")
        self._owner = owner
        self._op, self._system, self._head, self._peers = op, system, head, peers
        self._buffers, self._types = buffers, types
        self._template: Optional[_plan.PlanTemplate] = None
        self._send = self._recv = None
        self._clock_id = id(owner._clock)
        #: What a steady restart needs, read by :func:`charge_batch`, when
        #: the template allows one (else None):
        #: the selection memo, the probe key, the bound method, the
        #: ``(overhead, count)`` class, then the clock, the two stats
        #: objects, ``(handler, uses)`` pairs and the per-method message
        #: counts a restart bumps.
        self._steady: Optional[tuple] = None

    def _bind(self, plan: MessagePlan, handlers: list) -> None:
        """Record the first start's ``plan`` as the template every restart
        replays, and fill :attr:`_steady` when a restart may be charged
        without replaying it: one ``(nbytes, block_length)`` class of
        positive size, one recorded method, and a peer-invariant model
        selector whose memo can hold it."""
        owner = self._owner
        template = self._template = _plan.PlanTemplate.from_plan(plan, handlers=handlers)
        self._send, self._recv = as_buffer(self._buffers[0]), as_buffer(self._buffers[3])
        selector = owner._selector
        classes = {(n, p.block_length) for p, n, _ in template.selections}
        if len(classes) != 1:  # a self-only exchange asks the selector nothing
            return
        ((nbytes, block_length),) = classes
        if not (
            nbytes > 0 and len(set(template.methods)) == 1
            and isinstance(selector, ModelSelector) and selector.peer_invariant
            and selector.cache.enabled
        ):
            return
        uses: dict[int, list] = {}  # id -> [handler, sections of it in the template]
        for handler, sections in template.handlers:
            uses.setdefault(id(handler), [handler, 0])[1] += sections
        counts: dict[str, int] = {}
        owner._count_methods(plan, counts)
        self._steady = (
            selector.cache._queries,
            ("method", int(nbytes), int(block_length)),
            template.methods[0],
            (owner._overhead_s, len(template.selections)),
            owner._clock,
            owner.tempi.stats,
            selector.cache.stats,
            tuple(map(tuple, uses.values())),
            tuple(counts.items()),
        )

    def charge(self) -> Optional[MessagePlan]:
        """Apply every charge and stats line one ``Start`` owes; return the
        plan to execute, or ``None`` when the round is the system's call.

        A restart pays a recompile's charges without the compile: handler
        uses, the interposition overhead and the replayed selection
        transcript.
        """
        owner = self._owner
        template = self._template
        if template is None:
            sendbuf, sendcounts, senddispls, recvbuf, recvcounts, recvdispls = self._buffers
            plan, handlers = owner._compile_collective(
                self._op, self._peers, sendbuf, sendcounts, senddispls, self._types[0],
                recvbuf, recvcounts, recvdispls, self._types[1], nonblocking=True,
            )
            if plan is not None and owner.config.plan_cache:
                owner.tempi.stats.plan_cache_misses += 1
                self._bind(plan, handlers)
            return plan
        stats = owner.tempi.stats
        stats.plan_cache_hits += 1
        stats.collective_hits += 1
        for handler, sections in template.handlers:
            handler.uses += sections
        owner._charge_interposition_overhead()
        plan = template.materialize(template.replay(owner._selector), self._send, self._recv)
        owner._count_methods(plan, stats.method_counts)
        return plan

    def _start(self) -> None:
        if self._registry is None:
            self._registry = self._owner._comm.requests
            self._registry.append(self)
        plan = self.charge()
        if plan is not None:
            self._owner._executor.execute(plan, self)
            return
        sendtypes, recvtypes = self._types
        posted = self._owner._fall_through(
            self._system, False, *self._head, *self._buffers,
            sendtypes=sendtypes, recvtypes=recvtypes,
        )
        self.arm(posted.Wait, lambda: posted.Test()[0], posted.arrival_hint)


def charge_batch(requests: Sequence[PersistentCollective]) -> np.ndarray:
    """``[r.charge() for r in requests]``, then each request's ``clock.now``.

    Bit for bit that loop, without materialising a plan per request.  A
    member is *steady* when its restart would replay a one-class template
    whose recorded method the member's selection memo still holds — probed
    once per member, exactly as ``ModelSelector.__call__`` probes it.  Its
    charges are then the interposition overhead plus ``count`` cached-query
    charges, the same for its whole ``(overhead, count)`` class, so they are
    applied as numpy vector adds over the class's clocks (the same serial
    float sums) and the counters are bumped in place.  Every other member — a first
    start, a memo miss, a changed method, ``plan_cache`` off, a selector that
    is not peer-invariant — takes its scalar :meth:`~PersistentCollective.charge`,
    and so does the whole batch when two members share a clock.
    """
    flags = None
    if len({r._clock_id for r in requests}) == len(requests):
        flags = [(s := r._steady) is not None and s[0].get(s[1]) is s[2] for r in requests]
    for request in requests if flags is None else [r for r, f in zip(requests, flags) if not f]:
        request.charge()
    steady = [] if flags is None else [r._steady for r, f in zip(requests, flags) if f]
    classes = {s[3] for s in steady}
    for overhead, count in classes:
        members = steady if len(classes) == 1 else [s for s in steady if s[3] == (overhead, count)]
        nows = np.array([s[4].now for s in members])
        nows += overhead
        for _ in range(count):
            nows += MODEL_CACHED_QUERY_S
        events = 1 + count
        for (_, _, _, _, clock, stats, cache_stats, uses, counts), now in zip(members, nows.tolist()):
            clock.now = now
            clock._events += events
            stats.plan_cache_hits += 1
            stats.collective_hits += 1
            stats.selection_memo_hits += count
            cache_stats.query_hits += count
            for handler, n in uses:
                handler.uses += n
            methods = stats.method_counts
            for name, hits in counts:
                methods[name] = methods[name] + hits if name in methods else hits
        if len(members) == len(requests):
            return nows
    return np.array([r._owner._clock.now for r in requests])


def interpose(ctx, config: Optional[TempiConfig] = None, **kwargs) -> TempiCommunicator:
    """Wrap a :class:`~repro.mpi.world.ProcessContext`'s communicator with TEMPI.

    This is the one-liner applications use instead of changing their code:
    the returned object is a drop-in replacement for ``ctx.comm``.  ``config``
    defaults to ``TempiConfig()``.
    """
    if config is None:
        config = TempiConfig()
    return TempiCommunicator(ctx.comm, config, **kwargs)

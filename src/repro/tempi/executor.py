"""The plan executor: stages to kernels, copies and wire messages.

A :class:`~repro.tempi.plan.MessagePlan` says *what* moves; this module
decides *when*.  Two schedules are supported, selected by
``TempiConfig.overlap``:

**Overlapped** (the default).  Every pack stage is issued on its own stream
from the resource cache and the host returns after the launch overhead; the
matching post stage hands the message to the wire at the stage's stream
completion time.  Pack kernels for peer *k+1* therefore run while peer *k*'s
bytes are on the wire — the pipeline the paper's halo applications build by
hand with ``Isend``/``Irecv``/``Waitall``.  Receive sides defer to
``Request.Wait``: each arriving peer's unpack is issued on its own stream and
the host synchronises once at the end.

**Serial** (``overlap=False``, the PR-1 schedule, kept for ablations and
``bench_fig14_overlap.py``).  Every pack runs with a host synchronisation, so
a collective posts its messages only when its last pack is done, and a send
or broadcast each message when its own pack is; each arriving peer is
unpacked synchronously at its landing.  Pack time and wire time add up
instead of overlapping.

Both schedules move exactly the same bytes and price the wire by one rule:
every post reserves its slot on the
:class:`~repro.machine.nic.NicTimeline` and every receive lands through it,
so a serial-vs-overlap comparison changes the schedule alone.

Wire state itself lives one layer down, in the per-rank
:class:`~repro.tempi.progress.ProgressEngine`: every post reserves its slot
through the engine (cross-plan NIC contention under
``TempiConfig(progress="shared")``, the PR-2 per-plan cursor under
``progress="per_plan"``), sub-eager nonblocking sends may be handed to the
engine's batcher instead of executing immediately, and receive-side readiness
probes run the engine's progress step so ``Test`` advances deferred arrivals.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu.memory import MemoryKind
from repro.machine.nic import NicReservation
from repro.mpi.collectives import _REDUCE_UFUNCS, _next_collective_tag, _receive_raw
from repro.mpi.errors import MpiTruncationError
from repro.mpi.p2p import Envelope
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.tempi.cache import ResourceCache, _StagingTracker
from repro.tempi.config import PackMethod, TempiConfig
from repro.tempi.plan import (
    MessagePlan,
    PackStage,
    PlanError,
    ReduceStage,
    UnpackStage,
)
from repro.tempi.progress import ProgressEngine


class PlanExecutor:
    """Executes :class:`MessagePlan` objects against one rank's communicator."""

    def __init__(self, comm, cache: ResourceCache, stats, config: TempiConfig) -> None:
        self.comm = comm
        self.cache = cache
        self.stats = stats
        self.overlap = config.overlap
        #: What a nonblocking send's buffer-reuse completion adds to its pack:
        #: the host-side injection latency, a constant of the machine.
        self.injection_overhead = comm.network.message_cost(
            0, same_node=True, device_buffers=False
        ).latency_s
        self.engine = ProgressEngine(self, config)

    # ------------------------------------------------------------------ entry
    def execute(self, plan: MessagePlan, request: Optional[Request] = None) -> Request:
        """Run a plan's send side now; return the request that drives the rest.

        A ``send``, ``recv`` or exchange plan arms ``request`` (its bind's,
        armed again every round of a persistent operation; a fresh one when
        omitted).

        * ``send`` plans return a send request (completion at buffer-reuse
          time for nonblocking plans, at wire-completion time for blocking
          ones); sub-eager nonblocking sends may instead be enqueued on the
          progress engine's batcher;
        * ``recv`` plans return a receive request whose ``Wait`` matches the
          message and unpacks it;
        * ``bcast`` plans pack once and post every peer off that one payload;
        * collective plans pack and post every outgoing peer immediately and
          return a request whose ``Wait`` receives and unpacks every incoming
          peer (the deferred-unpack side).

        Every non-batched execution is a progress point: pending batches are
        flushed first, so deferred posts can never be overtaken.
        """
        self.stats.plans_built += 1
        if plan.op == "send":
            return self._execute_send(plan, request if request is not None else Request("send"))
        self.engine.progress()
        if plan.op == "recv":
            # All of a receive happens at ``Wait``/``Test``: executing it arms
            # the request with the plan's probes, built the first time only.
            if plan.probes is None:
                plan.probes = self._recv_probes(plan)
            return (request if request is not None else Request("recv")).arm(*plan.probes)
        if plan.op == "bcast":
            return self._execute_bcast(plan)
        if plan.op == "allreduce":
            return self._execute_allreduce(plan)
        return self._execute_exchange(plan, request)

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _host_key(staging_key):
        """The pinned-host bounce buffer's key for a staged-method stage."""
        if staging_key is None:
            return None
        scope, role, peer, _ = staging_key
        return (scope, role + "-host", peer, MemoryKind.HOST_PINNED)

    def _pack_stage(self, stage: PackStage, source, staging: _StagingTracker, stream):
        """Issue one pack stage; returns ``(payload_buffer, ready_time)``.

        ``ready_time`` is the virtual time at which the packed bytes are
        wire-ready: the stream completion of the kernels (plus the explicit
        D2H bounce for the staged method).  In serial mode the host has
        already synchronised past it.
        """
        comm = self.comm
        buffer = staging.get(stage.staging_key, stage.nbytes, stage.kind, stage.bucket)
        sync = stream is None
        offset = 0
        for section in stage.sections:
            offset += section.packer.pack(
                comm.gpu,
                source.view(section.displ) if section.displ else source,
                buffer,
                section.count,
                dst_offset=offset,
                stream=stream,
                sync=sync,
            )
        if stage.method is PackMethod.STAGED:
            host = staging.get(
                self._host_key(stage.staging_key), stage.nbytes, MemoryKind.HOST_PINNED, stage.bucket
            )
            comm.gpu.memcpy_async(host, buffer, stage.nbytes, stream=stream)
            if sync:
                comm.gpu.stream_synchronize()
            buffer = host
        stage.stream = stream
        ready = stream.ready_time if stream is not None else comm.clock.now
        return buffer, ready

    def _unpack_stage(self, stage: UnpackStage, payload: np.ndarray, dest, staging, stream):
        """Scatter one peer's packed payload into the user buffer."""
        comm = self.comm
        buffer = staging.get(stage.staging_key, stage.nbytes, stage.kind, stage.bucket)
        sync = stream is None
        nbytes = payload.nbytes  # every caller has checked it against stage.nbytes
        if stage.method is PackMethod.STAGED:
            host = staging.get(
                self._host_key(stage.staging_key), stage.nbytes, MemoryKind.HOST_PINNED, stage.bucket
            )
            host.data[:nbytes] = payload[:nbytes]
            comm.gpu.memcpy_async(buffer, host, nbytes, stream=stream)
            if sync:
                comm.gpu.stream_synchronize()
        else:
            buffer.data[:nbytes] = payload[:nbytes]
        offset = 0
        for section in stage.sections:
            offset += section.packer.unpack(
                comm.gpu,
                buffer,
                dest.view(section.displ) if section.displ else dest,
                section.count,
                src_offset=offset,
                stream=stream,
                sync=sync,
            )
        stage.stream = stream

    def _post(
        self,
        peer: int,
        tag: int,
        payload: np.ndarray,
        device: bool,
        available_at: float,
        slot: Optional[NicReservation] = None,
    ) -> None:
        """Post one wire message carrying a copy of ``payload``, a view of its bytes.

        The one post helper of every plan.  Only a ``slot`` reserved on the
        shared timeline (``seq >= 0``) stamps the envelope with its NIC
        identity for receive-side ingestion; per-plan posts opt out and keep
        ``available_at``, the sender-computed arrival, final.
        """
        comm = self.comm
        wire_s, post_time, seq = (
            (slot.wire_s, slot.start, slot.seq) if slot is not None and slot.seq >= 0
            else (0.0, 0.0, -1)
        )
        comm.router.post(Envelope(
            source=comm.rank, dest=peer, tag=tag, context=comm.context, payload=payload.copy(),
            available_at=available_at, device=device, wire_s=wire_s, post_time=post_time,
            source_seq=seq,
        ))

    def _run_local(self, plan: MessagePlan, staging: _StagingTracker) -> None:
        """Self-sections bounce through device staging without the wire."""
        pack_stage, unpack_stage = plan.local
        buffer, _ = self._pack_stage(pack_stage, plan.send_buffer, staging, None)
        self._unpack_stage(
            unpack_stage, buffer.data[: pack_stage.nbytes], plan.recv_buffer, staging, None
        )

    # -------------------------------------------------------------------- send
    def _execute_send(self, plan: MessagePlan, request: Request) -> Request:
        comm = self.comm
        batched = self.engine.offer_send(plan, request)
        if batched is not None:
            return batched
        self.engine.progress()
        stage = plan.pack_stages[0]
        post = plan.post_stages[0]
        staging = _StagingTracker(self.cache)
        stream = self.cache.get_stream() if self.overlap else None
        try:
            payload, ready = self._pack_stage(stage, plan.send_buffer, staging, stream)
            wire = comm._message_time(post.nbytes, post.peer, payload.is_device)
            slot = self.engine.reserve_wire(post.peer, ready, wire, post.nbytes, device=payload.is_device)
            arrival = slot.arrival
            self._post(post.peer, plan.tag, payload.data[: post.nbytes], payload.is_device, arrival, slot)
        finally:
            staging.release()
            if stream is not None:
                self.cache.put_stream(stream)
        if self.overlap:
            self.stats.stages_overlapped += 1
        completion = ready + self.injection_overhead if plan.nonblocking else arrival
        return request.arm(completion_time=completion, clock=comm.clock)

    # ------------------------------------------------------------------- bcast
    def _execute_bcast(self, plan: MessagePlan) -> Request:
        """Root side of a plan-compiled broadcast: pack once, post every peer.

        All post stages share the single pack stage's payload, so the packed
        bytes take one kernel pipeline and then fan out over the wire, each
        transfer reserving its own slot on the NIC window.  The returned
        request completes at buffer-reuse time (pack done + injection), the
        local semantics ``MPI_Bcast`` requires of the root.
        """
        comm = self.comm
        stage = plan.pack_stages[0]
        staging = _StagingTracker(self.cache)
        stream = self.cache.get_stream() if self.overlap else None
        window = self.engine.plan_window()
        try:
            payload, ready = self._pack_stage(stage, plan.send_buffer, staging, stream)
            for post in plan.post_stages:
                wire = comm._message_time(post.nbytes, post.peer, payload.is_device)
                slot = window.reserve_wire(post.peer, ready, wire, post.nbytes, device=payload.is_device)
                data = payload.data[: post.nbytes]
                self._post(post.peer, plan.tag, data, payload.is_device, slot.arrival, slot)
        finally:
            staging.release()
            if stream is not None:
                self.cache.put_stream(stream)
        if self.overlap:
            self.stats.stages_overlapped += 1
        return Request(
            "send", completion_time=ready + self.injection_overhead, clock=comm.clock
        )

    # -------------------------------------------------------------------- recv
    def _recv_probes(self, plan: MessagePlan) -> tuple:
        """A receive plan's ``(complete, ready, arrival)``.

        They hold the plan's fields, not the plan, which holds them: a cycle
        would leave every one-shot receive to the garbage collector.
        """
        comm = self.comm
        stage = plan.unpack_stages[0]
        tag, nonblocking, recv_buffer = plan.tag, plan.nonblocking, plan.recv_buffer

        def complete() -> Status:
            self.engine.progress()
            if nonblocking:
                self.stats.deferred_unpacks += 1
            envelope = comm.router.receive(comm.rank, stage.peer, tag, comm.context)
            comm.clock.advance_to(self.engine.ingest_one(envelope))
            nbytes = envelope.payload.nbytes
            if nbytes > stage.nbytes:
                raise MpiTruncationError(
                    f"message of {nbytes} bytes truncates a receive of "
                    f"{stage.nbytes} bytes"
                )
            staging = _StagingTracker(self.cache)
            try:
                self._unpack_stage(stage, envelope.payload, recv_buffer, staging, None)
            finally:
                staging.release()
            return Status(source=envelope.source, tag=envelope.tag, count_bytes=nbytes)

        def ready() -> bool:
            return self.engine.arrived(stage.peer, tag)

        def arrival() -> Optional[float]:
            envelope = comm.router.probe(comm.rank, stage.peer, tag, comm.context)
            if envelope is None:
                return None
            return self.engine.arrival_preview(envelope)

        return complete, ready, arrival

    # --------------------------------------------------------------- exchange
    def _execute_exchange(self, plan: MessagePlan, request: Optional[Request]) -> Request:
        comm = self.comm
        if plan.tag is None:
            plan.tag = _next_collective_tag(comm)
        tag = plan.tag
        staging = _StagingTracker(self.cache)
        streams: list = []
        # Fan-out plans (allgather) share one pack stage across every post;
        # pack each distinct stage once and reuse its payload for later posts.
        packed: dict[int, tuple] = {}

        def pack_once(stage: PackStage, stream) -> tuple:
            key = id(stage)
            if key not in packed:
                packed[key] = self._pack_stage(stage, plan.send_buffer, staging, stream)
            return packed[key]

        try:
            window = self.engine.plan_window()
            if self.overlap:
                for post in plan.post_stages:
                    if id(post.pack) not in packed:
                        stream = self.cache.get_stream()
                        streams.append(stream)
                    else:
                        stream = post.pack.stream
                    payload, ready = pack_once(post.pack, stream)
                    wire = comm._message_time(post.nbytes, post.peer, payload.is_device)
                    slot = window.reserve_wire(
                        post.peer, ready, wire, post.nbytes, device=payload.is_device
                    )
                    data = payload.data[: post.nbytes]
                    self._post(post.peer, tag, data, payload.is_device, slot.arrival, slot)
                self.stats.stages_overlapped += len(plan.pack_stages)
            else:
                for post in plan.post_stages:
                    pack_once(post.pack, None)
                # Each pack synchronised the host: every message is ready
                # when the last pack is.
                ready = comm.clock.now
                for post in plan.post_stages:
                    payload = packed[id(post.pack)][0]
                    wire = comm._message_time(post.nbytes, post.peer, payload.is_device)
                    slot = window.reserve_wire(
                        post.peer, ready, wire, post.nbytes, device=payload.is_device
                    )
                    data = payload.data[: post.nbytes]
                    self._post(post.peer, tag, data, payload.is_device, slot.arrival, slot)
            if plan.local is not None:
                self._run_local(plan, staging)
        finally:
            for stream in streams:
                self.cache.put_stream(stream)
            staging.release()

        def complete() -> Status:
            self.engine.progress()
            if plan.nonblocking:
                self.stats.deferred_unpacks += len(plan.unpack_stages)
            recv_staging = _StagingTracker(self.cache)
            recv_streams: list = []
            try:
                # Receive the whole set first: the receive side of one plan is
                # one ingestion batch, served in the deterministic
                # (post_time, source, seq) order whatever wall-clock order
                # the peers posted in.
                envelopes = [_receive_raw(comm, stage.peer, tag) for stage in plan.unpack_stages]
                landings = self.engine.ingest_batch(envelopes)
                for stage, envelope, landing in zip(plan.unpack_stages, envelopes, landings):
                    if envelope.payload.nbytes != stage.nbytes:
                        raise PlanError(
                            f"rank {comm.rank} expected {stage.nbytes} packed bytes from "
                            f"{stage.peer}, got {envelope.payload.nbytes}"
                        )
                    comm.clock.advance_to(landing)
                    stream = None
                    if self.overlap:
                        stream = self.cache.get_stream()
                        recv_streams.append(stream)
                    self._unpack_stage(
                        stage, envelope.payload, plan.recv_buffer, recv_staging, stream
                    )
                if self.overlap:
                    for stream in recv_streams:
                        comm.gpu.stream_synchronize(stream)
                    self.stats.stages_overlapped += len(plan.unpack_stages)
            finally:
                for stream in recv_streams:
                    self.cache.put_stream(stream)
                recv_staging.release()
            return Status()

        def ready() -> bool:
            return all(self.engine.arrived(stage.peer, tag) for stage in plan.unpack_stages)

        def arrival() -> Optional[float]:
            # Completable only once every peer has arrived, so the hint is the
            # latest known arrival — unknown while any peer is missing.
            # Duplex accounting previews each landing against the receiver's
            # ingestion cursor, so the hint reflects this rank's backlog.
            latest = None
            for stage in plan.unpack_stages:
                envelope = comm.router.probe(comm.rank, stage.peer, tag, comm.context)
                if envelope is None:
                    return None
                when = self.engine.arrival_preview(envelope)
                latest = when if latest is None else max(latest, when)
            return latest

        if request is not None:
            return request.arm(complete, ready, arrival)
        return Request("coll", complete=complete, ready=ready, arrival=arrival)

    # --------------------------------------------------------------- allreduce
    def _reduce_time(self, nbytes: int, device: bool) -> float:
        """One combine's clock charge: priced like an unpack kernel.

        A reduction visits every arriving byte exactly like an unpack does
        (read staging, write the user buffer), so it is charged through the
        same cost-model seam — one contiguous ``nbytes`` run, launch and
        sync included, since the executor folds combines synchronously
        between rounds.
        """
        return self.comm.gpu.cost.kernel_time(
            nbytes,
            nbytes,
            target="device" if device else "host",
            unpack=True,
            include_sync=True,
        )

    def _allreduce_round(
        self, stage: ReduceStage, plan: MessagePlan, acc, typed, priced: dict
    ) -> None:
        """Walk one reduction round: post the send half, fold the receive half.

        Runs once per round of every allreduce, so it takes the fewest calls
        the round allows.  ``acc`` is the accumulator's byte array and
        ``typed`` its one view as ``plan.reduce_dtype``, both taken once per
        execution by the calling ``complete()``; ``priced`` is that call's own
        dict of wire times (keyed ``(send_nbytes, dest)``) and combine charges
        (keyed by ``recv_nbytes``): a ring's rounds repeat both, and each
        distinct one is priced once per plan execution, never across plans.
        The chunk is posted from a slice of ``acc`` (no buffer view), received
        straight from the router, checked by its payload's size, and folded
        into the slice of ``typed`` over the stage's elements.
        """
        comm = self.comm
        device = plan.recv_buffer.is_device
        dest, send_nbytes = stage.dest, stage.send_nbytes
        if dest >= 0:
            key = (send_nbytes, dest)
            if key in priced:
                wire = priced[key]
            else:
                wire = priced[key] = comm._message_time(send_nbytes, dest, device)
            offset = stage.send_offset
            payload = acc[offset : offset + send_nbytes]
            slot = self.engine.reserve_wire(dest, comm.clock.now, wire, send_nbytes, device=device)
            self._post(dest, plan.tag, payload, device, slot.arrival, slot)
        if stage.source < 0:
            return
        envelope = comm.router.receive(comm.rank, stage.source, plan.tag, comm.context)
        comm.clock.advance_to(self.engine.ingest_one(envelope))
        nbytes = stage.recv_nbytes
        if envelope.payload.nbytes != nbytes:
            raise PlanError(
                f"rank {comm.rank} expected a {nbytes}-byte reduction "
                f"chunk from {stage.source}, got {envelope.payload.nbytes}"
            )
        if not nbytes:
            return
        offset = stage.recv_offset
        if stage.combine:
            if nbytes in priced:
                charge = priced[nbytes]
            else:
                charge = priced[nbytes] = self._reduce_time(nbytes, device)
            comm.clock.advance(charge)
            # Chunk boundaries are element-aligned (``_chunk_layout``).
            folded = typed[offset // typed.itemsize : (offset + nbytes) // typed.itemsize]
            _REDUCE_UFUNCS[stage.op](folded, envelope.payload.view(typed.dtype), out=folded)
        else:
            acc[offset : offset + nbytes] = envelope.payload

    def _execute_allreduce(self, plan: MessagePlan) -> Request:
        """Walk a reduction plan's rounds: each posts its chunk and folds the
        arriving one.

        Unlike the exchange plans there is no post-everything-first phase —
        round ``k+1``'s outgoing partial *is* round ``k``'s fold — so the
        whole schedule runs at ``Wait`` time: immediately for the blocking
        call, deferred for ``Iallreduce`` (every rank must eventually wait,
        as MPI requires of nonblocking collectives).  The accumulator is the
        receive buffer, seeded from the send buffer; every wire slot goes
        through the engine (injection, link, fabric and ingestion ledgers all
        engage) and every combine is charged like an unpack kernel.
        """
        comm = self.comm
        if plan.tag is None:
            plan.tag = _next_collective_tag(comm)

        def complete() -> Status:
            self.engine.progress()
            nbytes = plan.reduce_nbytes
            # The execution's one ``Buffer.data`` read of the accumulator:
            # it keeps the use-after-free check, and the rounds slice it.
            acc = plan.recv_buffer.data
            acc[:nbytes] = plan.send_buffer.data[:nbytes]
            typed = acc[:nbytes].view(plan.reduce_dtype)
            priced: dict = {}
            for stage in plan.reduce_stages:
                self._allreduce_round(stage, plan, acc, typed, priced)
            return Status()

        def ready() -> bool:
            for stage in plan.reduce_stages:
                if stage.source >= 0:
                    return self.engine.arrived(stage.source, plan.tag)
            return True

        return Request("coll", complete=complete, ready=ready)

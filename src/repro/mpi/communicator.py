"""Communicators: the MPI call surface each rank sees.

A :class:`Communicator` binds together one rank's virtual clock, its simulated
GPU runtime, the world's message router and the machine's network model, and
exposes the MPI operations the paper's applications use, with mpi4py-style
capitalised names (``Send``, ``Recv``, ``Pack`` …).

Buffer arguments follow the mpi4py convention: a buffer-like object alone
(treated as bytes), or a 2-tuple ``(buffer, datatype)``, or a 3-tuple
``(buffer, count, datatype)``.  Buffers are :class:`repro.gpu.memory.Buffer`
objects (device or host) or NumPy arrays (treated as pageable host memory).

Datatype handling is the *baseline* path here — one ``cudaMemcpyAsync`` per
contiguous block — because this class plays the role of the system MPI
(Spectrum MPI on Summit).  TEMPI's interposer wraps this class and replaces
exactly the calls the paper's library replaces.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.gpu.memory import Buffer, HostBuffer, MemoryKind
from repro.gpu.runtime import CudaRuntime
from repro.machine.network import NetworkModel
from repro.machine.topology import Topology
from repro.mpi import collectives as _collectives
from repro.mpi import typemap
from repro.mpi.baseline import BaselineDatatypeEngine, contiguous_payload
from repro.mpi.datatype import BYTE, Datatype, check_datatype, check_int
from repro.mpi.errors import MpiArgumentError, MpiRankError, MpiTruncationError
from repro.mpi.p2p import Envelope, MessageRouter
from repro.mpi.request import Request
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status

#: Things accepted as the buffer part of a message specification.
BufferLike = Union[Buffer, np.ndarray]
BufferSpec = Union[BufferLike, tuple]


def as_buffer(obj: BufferLike) -> Buffer:
    """Coerce a NumPy array into a (shared-memory) host buffer."""
    if isinstance(obj, Buffer):
        return obj
    if isinstance(obj, np.ndarray):
        flat = obj.reshape(-1).view(np.uint8)
        return HostBuffer(flat.nbytes, MemoryKind.HOST_PAGEABLE, _array=flat)
    raise MpiArgumentError(f"expected a Buffer or ndarray, got {type(obj).__name__}")


class Communicator:
    """One rank's endpoint of a simulated MPI world."""

    def __init__(
        self,
        rank: int,
        size: int,
        router: MessageRouter,
        runtime: CudaRuntime,
        network: NetworkModel,
        topology: Topology,
        *,
        context: int = 0,
        world,
    ) -> None:
        if not 0 <= rank < size:
            raise MpiRankError(f"rank {rank} outside communicator of size {size}")
        self.rank = rank
        self.size = size
        self.router = router
        self.gpu = runtime
        #: This rank's virtual clock (shared with its GPU runtime).
        self.clock = runtime.clock
        self.network = network
        self.topology = topology
        self.context = context
        self.world = world
        self.baseline = BaselineDatatypeEngine(runtime)
        self._ndups = 0
        #: Persistent requests bound on this rank (by either library) and not
        #: freed; ``World.run`` reports the ones a rank function leaves active.
        self.requests: list[Request] = []
        #: One-shot sends bound on this communicator and not completed:
        #: ``World.run`` fails a rank that returns with any.
        self.open_sends = 0
        #: The communicator that keeps this one's ``requests`` and
        #: ``open_sends``: itself, or for a ``Dup`` the rank's communicator
        #: it descends from, whose books ``World.run`` reads.
        self.books = self

    # ------------------------------------------------------------------ intro
    def Get_rank(self) -> int:
        """``MPI_Comm_rank``."""
        return self.rank

    def Get_size(self) -> int:
        """``MPI_Comm_size``."""
        return self.size

    def Dup(self) -> "Communicator":
        """``MPI_Comm_dup``: same group, fresh context id.

        The new context id is derived deterministically from the parent's so
        that every rank calling ``Dup`` collectively (as MPI requires) agrees
        on it without central coordination.  Its requests are booked on
        :attr:`books`, so ``World.run`` reports what a rank left open on it.
        """
        self._ndups += 1
        dup = Communicator(
            self.rank,
            self.size,
            self.router,
            self.gpu,
            self.network,
            self.topology,
            context=self.context * 1009 + self._ndups,
            world=self.world,
        )
        dup.books = self.books
        dup.requests = self.books.requests
        return dup

    # --------------------------------------------------------------- resolve
    def _resolve(self, spec: BufferSpec) -> tuple[Buffer, int, Datatype]:
        """Normalise a message specification to ``(buffer, count, datatype)``."""
        if isinstance(spec, (tuple, list)):
            if len(spec) == 3:
                buffer, count, datatype = spec
                if not isinstance(buffer, Buffer):
                    buffer = as_buffer(buffer)
                if not isinstance(datatype, Datatype):
                    raise MpiArgumentError("third element of a 3-tuple spec must be a Datatype")
                if type(count) is not int:
                    count = check_int(count, "count", MpiArgumentError)
                if count <= 0:
                    raise MpiArgumentError(f"count must be positive, got {count}")
                return buffer, count, datatype
            if len(spec) == 2:
                buffer, datatype = spec
                buffer = as_buffer(buffer)
                if not isinstance(datatype, Datatype):
                    raise MpiArgumentError("second element of a 2-tuple spec must be a Datatype")
                if datatype.extent == 0:
                    raise MpiArgumentError("cannot infer a count for a zero-extent datatype")
                count = buffer.nbytes // datatype.extent
                if count == 0:
                    raise MpiArgumentError(
                        f"buffer of {buffer.nbytes} bytes holds no element of extent {datatype.extent}"
                    )
                return buffer, count, datatype
        elif isinstance(spec, (Buffer, np.ndarray)):
            buffer = as_buffer(spec)
            return buffer, buffer.nbytes, BYTE
        raise MpiArgumentError(f"cannot interpret message specification {spec!r}")

    def _check_peer(self, peer: int, *, allow_any: bool = False) -> None:
        if allow_any and peer == ANY_SOURCE:
            return
        if not 0 <= peer < self.size:
            raise MpiRankError(f"peer rank {peer} outside communicator of size {self.size}")

    # ----------------------------------------------------------- p2p internals
    def _prepare_payload(
        self, buffer: Buffer, count: int, datatype: Datatype
    ) -> tuple[np.ndarray, bool]:
        """Produce the contiguous wire payload for a send.

        A contiguous datatype is not packed (:func:`contiguous_payload`): it
        ships straight from the user buffer.  Any other goes through the
        baseline engine into a host staging buffer, which is exactly the
        per-block path the paper measures.
        """
        datatype._check_committed()
        view = contiguous_payload(buffer, datatype, count)
        if view is not None:
            return view.copy(), buffer.is_device
        staging = HostBuffer(typemap.packed_size(datatype, count), MemoryKind.HOST_PINNED)
        self.baseline.pack(buffer, datatype, count, staging)
        return staging.data, False

    def _deliver_payload(
        self, envelope: Envelope, buffer: Buffer, count: int, datatype: Datatype
    ) -> int:
        """Copy a received payload into the user buffer; returns bytes received."""
        datatype._check_committed()
        capacity = typemap.packed_size(datatype, count)
        nbytes = envelope.payload.nbytes
        if nbytes > capacity:
            raise MpiTruncationError(
                f"message of {nbytes} bytes truncates a receive of {capacity} bytes"
            )
        view = contiguous_payload(buffer, datatype, count)
        if view is not None:
            view[:nbytes] = envelope.payload
        else:
            staging = HostBuffer(nbytes, MemoryKind.HOST_PINNED, _array=envelope.payload)
            elements = nbytes // datatype.size if datatype.size else 0
            if elements:
                self.baseline.unpack(staging, 0, buffer, datatype, elements)
        return nbytes

    def _message_time(self, nbytes: int, peer: int, device: bool) -> float:
        topology = self.topology
        if topology.hierarchical:
            return topology.message_time(self.rank, peer, nbytes, device_buffers=device)
        same_node = topology.same_node(self.rank, peer)
        return self.network.message_time(nbytes, same_node=same_node, device_buffers=device)

    # ------------------------------------------------------------------ sends
    def Send(self, spec: BufferSpec, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send (``MPI_Send``)."""
        self._check_peer(dest)
        buffer, count, datatype = self._resolve(spec)
        payload, device = self._prepare_payload(buffer, count, datatype)
        duration = self._message_time(payload.nbytes, dest, device)
        self.clock.advance(duration)
        self.router.post(
            Envelope(
                source=self.rank,
                dest=dest,
                tag=tag,
                context=self.context,
                payload=payload,
                available_at=self.clock.now,
                device=device,
            )
        )

    def Isend(self, spec: BufferSpec, dest: int, tag: int = 0) -> Request:
        """Nonblocking send (``MPI_Isend``)."""
        self._check_peer(dest)
        buffer, count, datatype = self._resolve(spec)
        payload, device = self._prepare_payload(buffer, count, datatype)
        duration = self._message_time(payload.nbytes, dest, device)
        available = self.clock.now + duration
        self.router.post(
            Envelope(
                source=self.rank,
                dest=dest,
                tag=tag,
                context=self.context,
                payload=payload,
                available_at=available,
                device=device,
            )
        )
        # The send buffer is reusable once the payload is captured; charge the
        # injection overhead only.
        injection = self.network.message_cost(0, same_node=True, device_buffers=False).latency_s
        return Request("send", completion_time=self.clock.now + injection, clock=self.clock, ledger=self.books)

    # ----------------------------------------------------------------- receives
    def Recv(
        self,
        spec: BufferSpec,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Status:
        """Blocking receive (``MPI_Recv``)."""
        self._check_peer(source, allow_any=True)
        buffer, count, datatype = self._resolve(spec)
        envelope = self.router.receive(self.rank, source, tag, self.context)
        self.clock.advance_to(envelope.available_at)
        nbytes = self._deliver_payload(envelope, buffer, count, datatype)
        result = status if status is not None else Status()
        result.source = envelope.source
        result.tag = envelope.tag
        result.count_bytes = nbytes
        return result

    def Irecv(
        self,
        spec: BufferSpec,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Request:
        """Nonblocking receive (``MPI_Irecv``); matching happens at ``Wait``.

        ``Test`` completes the receive once a matching message is present
        *and* virtually arrived (its ``available_at`` has passed on this
        rank's clock) — mailbox presence alone would make ``Test`` outcomes
        depend on the wall-clock thread schedule.
        """
        self._check_peer(source, allow_any=True)

        def complete() -> Status:
            return self.Recv(spec, source, tag)

        def arrival() -> Optional[float]:
            envelope = self.router.probe(self.rank, source, tag, self.context)
            return None if envelope is None else envelope.available_at

        # Readiness derives from the arrival probe: completable once the
        # matching message is present and its wire time has passed.
        return Request("recv", complete=complete, arrival=arrival, clock=self.clock)

    # -------------------------------------------------------------- persistent
    def _persistent(self, kind: str, post, *args, peer=None, tag=None, **kwargs) -> Request:
        """Bind ``post`` — a nonblocking call: ``Isend``, ``Irecv``,
        ``Ialltoallv``, ``Ineighbor_alltoallv`` — to its arguments.

        Every ``Start`` of the returned request *is* that call: it posts once
        more and the persistent request completes as the posted one does.  A
        point-to-point bind names its ``peer`` and ``tag``, checked here.
        """
        if peer is not None:
            self._check_peer(peer, allow_any=kind == "recv")

        def start() -> None:
            posted = post(*args, **kwargs)
            ledger = posted._ledger
            if ledger is not None:  # this request answers for its post
                ledger.open_sends -= 1
                posted._ledger = None
            request.arm(posted.Wait, lambda: posted.Test()[0], posted.arrival_hint)

        request = Request(kind, start=start, peer=peer, tag=tag, registry=self.requests)
        return request

    def Send_init(self, spec: BufferSpec, dest: int, tag: int = 0) -> Request:
        """``MPI_Send_init``: a send whose every ``Start`` is one ``Isend``."""
        return self._persistent("send", self.Isend, spec, dest, tag, peer=dest, tag=tag)

    def Recv_init(self, spec: BufferSpec, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """``MPI_Recv_init``: a receive whose every ``Start`` is one ``Irecv``."""
        return self._persistent("recv", self.Irecv, spec, source, tag, peer=source, tag=tag)

    #: ``MPI_Start`` / ``MPI_Startall``: the request knows which library bound it.
    Start = staticmethod(Request.Start)
    Startall = staticmethod(Request.Startall)

    def Sendrecv(
        self,
        send_spec: BufferSpec,
        dest: int,
        sendtag: int,
        recv_spec: BufferSpec,
        source: int,
        recvtag: int,
        status: Optional[Status] = None,
    ) -> Status:
        """Combined send and receive (``MPI_Sendrecv``), deadlock-free."""
        request = self.Isend(send_spec, dest, sendtag)
        result = self.Recv(recv_spec, source, recvtag, status)
        request.Wait()
        return result

    def Probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe: status of a pending matching message, or None."""
        envelope = self.router.probe(self.rank, source, tag, self.context)
        if envelope is None:
            return None
        return Status(source=envelope.source, tag=envelope.tag, count_bytes=envelope.payload.nbytes)

    # ------------------------------------------------------------------- pack
    def _check_pack(self, user: Buffer, count: int, datatype: Datatype, packed: Buffer, position: int) -> int:
        """Check ``position`` in ``packed`` and the extent of ``user``; return the packed bytes."""
        nbytes = typemap.packed_size(datatype, count)
        if position < 0 or position + nbytes > packed.nbytes:
            raise MpiArgumentError(
                f"position {position}: {nbytes} packed bytes do not fit the {packed.nbytes}-byte buffer"
            )
        self.baseline.check_fits(user, datatype, count)
        return nbytes

    def Pack(
        self,
        in_spec: BufferSpec,
        outbuf: BufferLike,
        position: int = 0,
    ) -> int:
        """``MPI_Pack`` with the system MPI's per-block baseline engine.

        Returns the updated position.
        """
        buffer, count, datatype = self._resolve(in_spec)
        out = as_buffer(outbuf)
        nbytes = self._check_pack(buffer, count, datatype, out, position)
        if datatype.is_contiguous_bytes:
            self.gpu.memcpy_async(out, buffer, nbytes, dst_offset=position)
            self.gpu.stream_synchronize()
            return position + nbytes
        return self.baseline.pack(buffer, datatype, count, out, position)

    def Unpack(
        self,
        inbuf: BufferLike,
        position: int,
        out_spec: BufferSpec,
    ) -> int:
        """``MPI_Unpack`` with the baseline engine; returns the updated position."""
        buffer, count, datatype = self._resolve(out_spec)
        source = as_buffer(inbuf)
        nbytes = self._check_pack(buffer, count, datatype, source, position)
        if datatype.is_contiguous_bytes:
            self.gpu.memcpy_async(buffer, source, nbytes, src_offset=position)
            self.gpu.stream_synchronize()
            return position + nbytes
        return self.baseline.unpack(source, position, buffer, datatype, count)

    def Pack_size(self, count: int, datatype: Datatype) -> int:
        """``MPI_Pack_size``: bytes needed to pack ``count`` elements."""
        if type(count) is not int:
            count = check_int(count, "count", MpiArgumentError)
        return typemap.packed_size(check_datatype(datatype, "datatype"), count)

    def Type_commit(self, datatype: Datatype) -> Datatype:
        """``MPI_Type_commit`` as the system MPI performs it (no acceleration).

        Exposed on the communicator so that applications written against the
        interposed surface run unmodified against the plain system MPI.
        """
        return check_datatype(datatype, "datatype").Commit()

    # ------------------------------------------------------------- collectives
    def Barrier(self) -> None:
        """``MPI_Barrier``."""
        _collectives.barrier(self)

    def Bcast(self, spec: BufferSpec, root: int = 0) -> None:
        """``MPI_Bcast``."""
        _collectives.bcast(self, spec, root)

    def Allreduce_scalar(self, value: float, op: str = "sum") -> float:
        """Allreduce of one Python scalar (sum/max/min)."""
        return _collectives.allreduce_scalar(self, value, op)

    def Allreduce(self, sendbuf: BufferSpec, recvbuf: BufferSpec, op: str = "sum") -> None:
        """``MPI_Allreduce`` (vector form, elementary datatypes)."""
        _collectives.allreduce(self, sendbuf, recvbuf, op)

    def Allgather_object(self, value) -> list:
        """Allgather of one picklable Python object per rank."""
        return _collectives.allgather_object(self, value)

    @staticmethod
    def _types(sendtypes, recvtypes, names: str) -> tuple:
        """Both datatype arguments — a missing datatype is ``MPI_BYTE`` — or an error for one."""
        if (sendtypes is None) != (recvtypes is None):
            raise MpiArgumentError(f"{names} must be given together")
        if sendtypes is None:
            return BYTE, BYTE
        return sendtypes, recvtypes

    def _allgather_uniform(
        self, sendcount: int, sendtype: Optional[Datatype], recvtype: Optional[Datatype]
    ) -> tuple[list[int], list[int]]:
        """Expand ``MPI_Allgather``'s uniform contribution to the v-form lists.

        ``sendcount`` elements land at ``rank * sendcount * extent`` (MPI's
        extent-based placement rule for the receive type; ``MPI_BYTE`` when
        no datatype is given, i.e. ``rank * sendcount`` bytes).
        """
        sendtype, recvtype = self._types(sendtype, recvtype, "sendtype and recvtype")
        check_datatype(sendtype, "sendtype")
        check_datatype(recvtype, "recvtype")
        if type(sendcount) is not int:
            sendcount = check_int(sendcount, "sendcount", MpiArgumentError)
        if sendcount < 0:
            raise MpiArgumentError(f"sendcount must be non-negative, got {sendcount}")
        stride = sendcount * recvtype.extent
        counts = [sendcount] * self.size
        displs = [peer * stride for peer in range(self.size)]
        return counts, displs

    def Allgather(
        self,
        sendbuf: BufferLike,
        sendcount: int,
        recvbuf: BufferLike,
        *,
        sendtype: Optional[Datatype] = None,
        recvtype: Optional[Datatype] = None,
    ) -> None:
        """``MPI_Allgather``: every rank's uniform contribution to everyone.

        Without datatypes, ``sendcount`` is bytes and rank *i*'s contribution
        lands at byte ``i * sendcount`` of ``recvbuf``.  With datatypes the
        counts are elements and placement follows the receive type's extent —
        the datatype-carrying signature TEMPI's interposer accelerates.
        """
        self.Iallgather(sendbuf, sendcount, recvbuf, sendtype=sendtype, recvtype=recvtype).Wait()

    def Allgatherv(
        self,
        sendbuf: BufferLike,
        sendcount: int,
        recvbuf: BufferLike,
        recvcounts: Sequence[int],
        recvdispls: Sequence[int],
        *,
        sendtype: Optional[Datatype] = None,
        recvtypes: Optional[_collectives.TypesArg] = None,
    ) -> None:
        """``MPI_Allgatherv``.

        Each rank contributes ``sendcount`` elements of ``sendtype`` and
        section *i* of ``recvbuf`` is unpacked as ``recvcounts[i]`` elements
        of rank *i*'s receive datatype at byte displacement ``recvdispls[i]``.
        A missing datatype is ``MPI_BYTE``: without ``sendtype``/``recvtypes``
        the counts are bytes, through the same path.
        """
        self.Iallgatherv(
            sendbuf, sendcount, recvbuf, recvcounts, recvdispls,
            sendtype=sendtype, recvtypes=recvtypes,
        ).Wait()

    def Alltoallv(
        self,
        sendbuf: BufferLike,
        sendcounts: Sequence[int],
        senddispls: Sequence[int],
        recvbuf: BufferLike,
        recvcounts: Sequence[int],
        recvdispls: Sequence[int],
        *,
        sendtypes: Optional[_collectives.TypesArg] = None,
        recvtypes: Optional[_collectives.TypesArg] = None,
    ) -> None:
        """``MPI_Alltoallv``.

        Counts are elements of the section's datatype and displacements are
        bytes.  A missing datatype is ``MPI_BYTE``: without
        ``sendtypes``/``recvtypes`` the counts are byte ranges of pre-packed
        buffers, through the same path.  A contiguous section is one slice
        copy; any other is packed/unpacked by the per-block baseline engine —
        the datatype-carrying signature TEMPI's interposer accelerates.
        """
        self.Ialltoallv(
            sendbuf, sendcounts, senddispls, recvbuf, recvcounts, recvdispls,
            sendtypes=sendtypes, recvtypes=recvtypes,
        ).Wait()

    def Neighbor_alltoallv(
        self,
        neighbors: Sequence[int],
        sendbuf: BufferLike,
        sendcounts: Sequence[int],
        senddispls: Sequence[int],
        recvbuf: BufferLike,
        recvcounts: Sequence[int],
        recvdispls: Sequence[int],
        *,
        sendtypes: Optional[_collectives.TypesArg] = None,
        recvtypes: Optional[_collectives.TypesArg] = None,
    ) -> None:
        """``MPI_Neighbor_alltoallv`` over an explicit neighbour list.

        Sections as in :meth:`Alltoallv` (a missing datatype is ``MPI_BYTE``).
        Duplicate neighbours are allowed; sections of one pair travel
        concatenated in list order.
        """
        self.Ineighbor_alltoallv(
            neighbors, sendbuf, sendcounts, senddispls, recvbuf, recvcounts, recvdispls,
            sendtypes=sendtypes, recvtypes=recvtypes,
        ).Wait()

    # ------------------------------------------------- split-phase collectives
    # The implementations: each blocking collective above is its ``I`` form
    # waited on at once.
    def Ialltoallv(
        self,
        sendbuf: BufferLike,
        sendcounts: Sequence[int],
        senddispls: Sequence[int],
        recvbuf: BufferLike,
        recvcounts: Sequence[int],
        recvdispls: Sequence[int],
        *,
        sendtypes: Optional[_collectives.TypesArg] = None,
        recvtypes: Optional[_collectives.TypesArg] = None,
    ) -> Request:
        """Nonblocking ``MPI_Ialltoallv`` (a missing datatype is ``MPI_BYTE``).

        Outgoing sections are validated, packed and posted immediately; the
        receive (and unpack) side is deferred to the returned request's
        ``Wait``/``Test``.  Like all collectives, every rank must post it in
        the same order and eventually complete it.
        """
        sendtypes, recvtypes = self._types(sendtypes, recvtypes, "sendtypes and recvtypes")
        return _collectives.alltoallv_begin(
            self, sendbuf, sendcounts, senddispls, sendtypes,
            recvbuf, recvcounts, recvdispls, recvtypes,
        )

    def Iallgather(
        self,
        sendbuf: BufferLike,
        sendcount: int,
        recvbuf: BufferLike,
        *,
        sendtype: Optional[Datatype] = None,
        recvtype: Optional[Datatype] = None,
    ) -> Request:
        """Nonblocking ``MPI_Iallgather`` (a missing datatype is ``MPI_BYTE``)."""
        counts, displs = self._allgather_uniform(sendcount, sendtype, recvtype)
        return self.Iallgatherv(
            sendbuf, sendcount, recvbuf, counts, displs, sendtype=sendtype, recvtypes=recvtype
        )

    def Iallgatherv(
        self,
        sendbuf: BufferLike,
        sendcount: int,
        recvbuf: BufferLike,
        recvcounts: Sequence[int],
        recvdispls: Sequence[int],
        *,
        sendtype: Optional[Datatype] = None,
        recvtypes: Optional[_collectives.TypesArg] = None,
    ) -> Request:
        """Nonblocking ``MPI_Iallgatherv``: contribution posted now, receives
        and unpacks deferred to the returned request's ``Wait``/``Test``."""
        sendtype, recvtypes = self._types(sendtype, recvtypes, "sendtype and recvtypes")
        check_datatype(sendtype, "sendtype")
        return _collectives.allgatherv_begin(
            self, sendbuf, sendcount, sendtype, recvbuf, recvcounts, recvdispls, recvtypes
        )

    def Ineighbor_alltoallv(
        self,
        neighbors: Sequence[int],
        sendbuf: BufferLike,
        sendcounts: Sequence[int],
        senddispls: Sequence[int],
        recvbuf: BufferLike,
        recvcounts: Sequence[int],
        recvdispls: Sequence[int],
        *,
        sendtypes: Optional[_collectives.TypesArg] = None,
        recvtypes: Optional[_collectives.TypesArg] = None,
    ) -> Request:
        """Nonblocking ``MPI_Ineighbor_alltoallv`` over an explicit neighbour list."""
        sendtypes, recvtypes = self._types(sendtypes, recvtypes, "sendtypes and recvtypes")
        return _collectives.neighbor_alltoallv_begin(
            self, neighbors, sendbuf, sendcounts, senddispls, sendtypes,
            recvbuf, recvcounts, recvdispls, recvtypes,
        )

    # ---------------------------------------------------- persistent collectives
    def Alltoallv_init(self, *args, sendtypes=None, recvtypes=None) -> Request:
        """``MPI_Alltoallv_init``: every ``Start`` is one :meth:`Ialltoallv`
        of these arguments (validated at the ``Start``, as that call does)."""
        return self._persistent("coll", self.Ialltoallv, *args, sendtypes=sendtypes, recvtypes=recvtypes)

    def Neighbor_alltoallv_init(self, *args, sendtypes=None, recvtypes=None) -> Request:
        """``MPI_Neighbor_alltoallv_init``: every ``Start`` is one
        :meth:`Ineighbor_alltoallv` of these arguments."""
        return self._persistent("coll", self.Ineighbor_alltoallv, *args, sendtypes=sendtypes, recvtypes=recvtypes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator rank {self.rank}/{self.size} ctx={self.context}>"

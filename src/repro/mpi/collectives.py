"""Collective operations.

Only a small set is needed by the paper's evaluation: ``Barrier`` for phase
timing, ``Bcast``/``Allgather``/``Allreduce`` for bookkeeping in the examples,
``Alltoallv`` / ``Neighbor_alltoallv`` for the 3-D stencil halo exchange
(Sec. 6.4), and ``Allgatherv`` (the root-less fan-out TEMPI also routes
through plans).  All of them are composed from the point-to-point router;
their virtual-time cost is charged analytically from the network model so
that the functional data movement (which is interleaved arbitrarily by the
thread scheduler) does not distort the reported latencies.

One datatype language: a section is ``count`` elements of a committed
(possibly derived) datatype starting ``displ`` bytes into the user buffer
(``MPI_Alltoallw``'s displacement convention).  A missing datatype is
``MPI_BYTE``, so the byte signature — the paper's halo after its explicit
``MPI_Pack`` loop (Sec. 6.4) — is not a second engine.  How a section moves
is decided once, by :func:`~repro.mpi.baseline.contiguous_payload`, and
applied only in :func:`_pack_sections` / :func:`_unpack_sections`: a
contiguous section is one uncharged slice copy, as for a system ``Send``;
any other goes through the per-block baseline engine — what makes the system
path slow for non-contiguous types and what TEMPI's interposed collectives
accelerate with one pack kernel per destination (Sec. 5).  ``Bcast`` moves
its datatype's elements the same way.

Every all-to-all-v and all-gather-v here is **split-phase** and exists in
that form only: a ``*_begin`` starter validates, posts this rank's sends and
lands its self section *now*, then hands :func:`_split_phase` what is still to
come and gets back the :class:`~repro.mpi.request.Request` whose ``Wait`` runs
the receive phase.  The blocking MPI calls are that request waited on at once
(``Communicator.Alltoallv`` is ``Ialltoallv(...).Wait()``).

Collective calls must be made by every rank of the communicator in the same
order, as in MPI; a per-communicator sequence number keeps successive
collectives from matching each other's messages.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import partial
from typing import Sequence, Union

import numpy as np

from repro.gpu.memory import HostBuffer, MemoryKind
from repro.mpi.baseline import contiguous_payload
from repro.mpi.datatype import Datatype, check_int
from repro.mpi.errors import MpiArgumentError, MpiTypeError
from repro.mpi.p2p import Envelope
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.mpi import typemap

#: Tag space reserved for collectives, far above what applications use.
_COLLECTIVE_TAG_BASE = 1_000_000_000


def _next_collective_tag(comm) -> int:
    sequence = getattr(comm, "_collective_sequence", 0)
    comm._collective_sequence = sequence + 1
    return _COLLECTIVE_TAG_BASE + sequence


def _post_raw(comm, dest: int, tag: int, payload: np.ndarray, available_at: float) -> None:
    comm.router.post(
        Envelope(
            source=comm.rank,
            dest=dest,
            tag=tag,
            context=comm.context,
            payload=np.ascontiguousarray(payload, dtype=np.uint8),
            available_at=available_at,
            device=False,
        )
    )


def _receive_raw(comm, source: int, tag: int) -> Envelope:
    return comm.router.receive(comm.rank, source, tag, comm.context)


def _split_phase(comm, tag: int, now: float, expected, per_pair, device: bool) -> Request:
    """The receive phase every split-phase collective defers to ``Wait``.

    ``expected`` lists what is still to come as ``(peer, nbytes, land)``:
    ``Wait`` receives each peer's envelope in list order, checks it carries
    ``nbytes`` and hands it to ``land(envelope)``, which puts the bytes where
    the caller wants them (and charges what that costs).  The clock then
    advances to the latest arrival (never before ``now``, the start of the
    collective) and the analytic wire cost of ``per_pair`` — the bytes
    exchanged with each rank — is charged once.

    ``Test`` completes the request once every expected envelope is present
    *and* virtually arrived (``available_at`` passed on this rank's clock) —
    mailbox presence alone would make ``Test`` outcomes depend on the thread
    scheduler.
    """

    def finish() -> Status:
        latest = now
        for peer, nbytes, land in expected:
            envelope = _receive_raw(comm, peer, tag)
            if envelope.payload.nbytes != nbytes:
                raise MpiArgumentError(
                    f"rank {comm.rank} expected {nbytes} bytes from {peer}, "
                    f"got {envelope.payload.nbytes}"
                )
            land(envelope)
            latest = max(latest, envelope.available_at)
        comm.clock.advance_to(latest)
        comm.clock.advance(
            comm.network.alltoallv_time(per_pair, comm.topology, comm.rank, device_buffers=device)
        )
        return Status()

    def ready() -> bool:
        for peer, _, _ in expected:
            envelope = comm.router.probe(comm.rank, peer, tag, comm.context)
            if envelope is None or envelope.available_at > comm.clock.now:
                return False
        return True

    return Request("coll", complete=finish, ready=ready)


def _pack_sections(comm, send, sections) -> HostBuffer:
    """Pack ``sections`` of ``send`` back to back into a fresh staging buffer.

    A contiguous section is one slice copy, uncharged; any other goes through
    the per-block baseline engine (one memcpy per block, charged).
    """
    staging = HostBuffer(sum(s.packed_bytes for s in sections), MemoryKind.HOST_PINNED)
    offset = 0
    for section in sections:
        view = contiguous_payload(send, section.datatype, section.count, section.displ)
        if view is None:
            offset = comm.baseline.pack(
                send, section.datatype, section.count, staging, offset, in_offset=section.displ
            )
        else:
            staging.data[offset : offset + view.size] = view
            offset += view.size
    return staging


def _unpack_sections(comm, recv, sections, staging) -> None:
    """Unpack ``sections`` of ``recv`` from ``staging`` in order.

    The reverse of :func:`_pack_sections`, by the same contiguous rule.
    """
    offset = 0
    for section in sections:
        view = contiguous_payload(recv, section.datatype, section.count, section.displ)
        if view is None:
            offset = comm.baseline.unpack(
                staging, offset, recv, section.datatype, section.count, out_offset=section.displ
            )
        else:
            view[:] = staging.data[offset : offset + view.size]
            offset += view.size


def _land_sections(comm, recv, sections, envelope: Envelope) -> None:
    """Land a peer's segment: unpack ``sections`` from the payload."""
    staging = HostBuffer(envelope.payload.nbytes, MemoryKind.HOST_PINNED, _array=envelope.payload)
    _unpack_sections(comm, recv, sections, staging)


def _expected_sections(comm, recv, peer: int, sections) -> tuple:
    """One ``(peer, nbytes, land)`` entry of :func:`_split_phase`.

    What is still expected from ``peer``: the packed bytes of ``sections``,
    unpacked into ``recv`` on arrival.
    """
    return (
        peer,
        sum(s.packed_bytes for s in sections),
        partial(_land_sections, comm, recv, sections),
    )


# --------------------------------------------------------------------------- #
# Barrier
# --------------------------------------------------------------------------- #

def barrier(comm) -> None:
    """Synchronise all ranks.

    Clocks advance to the global maximum plus a logarithmic latency term (a
    dissemination barrier's critical path).
    """
    import math

    latency = comm.network.machine.inter_cpu.latency_s
    rounds = max(1, math.ceil(math.log2(max(2, comm.size))))
    if comm.size > 1:
        latest = comm.world.barrier_wait(comm.rank, comm.clock.now)
        comm.clock.advance_to(latest)
    comm.clock.advance(rounds * latency)


# --------------------------------------------------------------------------- #
# Broadcast and object collectives
# --------------------------------------------------------------------------- #

def bcast(comm, spec, root: int = 0) -> None:
    """Broadcast ``root``'s elements of the datatype to every rank (linear tree).

    The root packs its ``count`` elements once (:func:`_pack_sections`) and
    posts the payload to every peer; receivers land it element-wise
    (:func:`_land_sections`), so the gaps of a derived datatype are left
    alone on every rank.
    """
    if not 0 <= root < comm.size:
        raise MpiArgumentError(f"root {root} outside communicator of size {comm.size}")
    tag = _next_collective_tag(comm)
    buffer, count, datatype = comm._resolve(spec)
    sections = [TypedSection(root, count, 0, datatype)]
    sections[0].check(comm, buffer, "bcast")
    nbytes = sections[0].packed_bytes
    if comm.rank == root:
        payload = _pack_sections(comm, buffer, sections).data
        for peer in range(comm.size):
            if peer == root:
                continue
            duration = comm._message_time(nbytes, peer, buffer.is_device)
            _post_raw(comm, peer, tag, payload, comm.clock.now + duration)
        comm.clock.advance(comm._message_time(nbytes, (root + 1) % comm.size, buffer.is_device))
    else:
        envelope = _receive_raw(comm, root, tag)
        if envelope.payload.nbytes != nbytes:
            raise MpiArgumentError(
                f"rank {comm.rank} expected a {nbytes}-byte broadcast from root {root}, "
                f"got {envelope.payload.nbytes}"
            )
        comm.clock.advance_to(envelope.available_at)
        _land_sections(comm, buffer, sections, envelope)


def allgather_object(comm, value) -> list:
    """Gather one picklable object from every rank onto every rank."""
    gather_tag = _next_collective_tag(comm)
    reply_tag = _next_collective_tag(comm)
    blob = np.frombuffer(pickle.dumps(value), dtype=np.uint8)
    if comm.rank == 0:
        gathered = [None] * comm.size
        gathered[0] = value
        for _ in range(comm.size - 1):
            envelope = _receive_raw(comm, -1, gather_tag)
            comm.clock.advance_to(envelope.available_at)
            gathered[envelope.source] = pickle.loads(envelope.payload.tobytes())
        result_blob = np.frombuffer(pickle.dumps(gathered), dtype=np.uint8)
        for peer in range(1, comm.size):
            _post_raw(comm, peer, reply_tag, result_blob, comm.clock.now)
        return gathered
    _post_raw(comm, 0, gather_tag, blob, comm.clock.now)
    envelope = _receive_raw(comm, 0, reply_tag)
    comm.clock.advance_to(envelope.available_at)
    return pickle.loads(envelope.payload.tobytes())


def allreduce_scalar(comm, value: float, op: str = "sum") -> float:
    """Allreduce of one scalar with ``sum``, ``max`` or ``min``."""
    if op not in ("sum", "max", "min"):
        raise MpiArgumentError(f"unsupported reduction {op!r}")
    values = allgather_object(comm, float(value))
    if op == "sum":
        return float(sum(values))
    if op == "max":
        return float(max(values))
    return float(min(values))


#: Element-wise combiners of the vector ``allreduce`` (MPI_SUM/PROD/MIN/MAX).
_REDUCE_UFUNCS = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}


def check_allreduce(op: str, send_type: Datatype, recv_type: Datatype) -> np.dtype:
    """The element dtype an allreduce combines, or the error MPI gives.

    Both communicators call this before anything is charged.  ``op`` must
    name one of :data:`_REDUCE_UFUNCS` (``MpiArgumentError``), and both
    datatypes must be elementary with one numpy dtype (``MpiTypeError``
    naming both): a FLOAT send summed as INT, or a strided send copied as
    contiguous bytes, would otherwise return wrong bytes without an error.
    """
    if op not in _REDUCE_UFUNCS:
        raise MpiArgumentError(
            f"unsupported reduction {op!r}; expected one of {tuple(_REDUCE_UFUNCS)}"
        )
    send_dtype = getattr(send_type, "numpy_dtype", None)
    recv_dtype = getattr(recv_type, "numpy_dtype", None)
    # Both tested against None: numpy reads ``dtype == None`` as float64.
    if send_dtype is None or recv_dtype is None or send_dtype != recv_dtype:
        names = [getattr(t, "name", f"a derived {t.combiner.value} type") for t in (send_type, recv_type)]
        raise MpiTypeError(
            f"allreduce needs one elementary datatype on both sides, "
            f"got send {names[0]} and recv {names[1]}"
        )
    return send_dtype


def allreduce(comm, send_spec, recv_spec, op: str = "sum") -> None:
    """Naive vector allreduce: every rank fans its contribution to every peer.

    Each rank posts its raw send buffer to all ``N-1`` peers, collects the
    ``N-1`` contributions, and folds them element-wise in ascending-rank
    order (rank 0's vector first), so every rank applies the identical
    combine sequence.  This is the system path TEMPI falls back to *and*
    the reference schedule the interposed ring/tree/hierarchical plans are
    pinned against byte-for-byte (``tests/property/test_property_allreduce``).
    """
    send_buffer, send_count, send_type = comm._resolve(send_spec)
    recv_buffer, recv_count, recv_type = comm._resolve(recv_spec)
    dtype = check_allreduce(op, send_type, recv_type)
    ufunc = _REDUCE_UFUNCS[op]
    tag = _next_collective_tag(comm)
    nbytes = recv_type.size * recv_count
    if send_type.size * send_count != nbytes:
        raise MpiArgumentError(
            f"allreduce send extent ({send_type.size * send_count} B) does not "
            f"match recv extent ({nbytes} B)"
        )
    payload = send_buffer.data[:nbytes].copy()
    for peer in range(comm.size):
        if peer == comm.rank:
            continue
        duration = comm._message_time(nbytes, peer, send_buffer.is_device)
        _post_raw(comm, peer, tag, payload, comm.clock.now + duration)
    if comm.size > 1:
        comm.clock.advance(
            comm._message_time(nbytes, (comm.rank + 1) % comm.size, send_buffer.is_device)
        )
    contributions = {comm.rank: payload}
    for _ in range(comm.size - 1):
        envelope = _receive_raw(comm, -1, tag)
        comm.clock.advance_to(envelope.available_at)
        if envelope.payload.nbytes != nbytes:
            raise MpiArgumentError(
                f"rank {comm.rank} expected a {nbytes}-byte allreduce contribution "
                f"from rank {envelope.source}, got {envelope.payload.nbytes}"
            )
        contributions[envelope.source] = envelope.payload
    accumulator = recv_buffer.data[:nbytes].view(dtype)
    for index, source in enumerate(sorted(contributions)):
        contribution = contributions[source][:nbytes].view(dtype)
        if index == 0:
            accumulator[:] = contribution
        else:
            ufunc(accumulator, contribution, out=accumulator)


# --------------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------------- #

#: ``sendtypes``/``recvtypes`` arguments: one datatype for every section, or
#: one per section (per rank for Alltoallv, per list entry for the neighbour
#: variant).
TypesArg = Union[Datatype, Sequence[Datatype]]


@dataclass(frozen=True)
class TypedSection:
    """One section of a collective.

    ``count`` elements of ``datatype`` starting ``displ`` bytes into the user
    buffer, exchanged with ``peer``.  Several sections may address the same
    peer (the neighbour variant on small periodic grids); their packed bytes
    travel concatenated in section order, so sender and receiver must list
    sections of one pair in a mutually agreed order.
    """

    peer: int
    count: int
    displ: int
    datatype: Datatype

    @property
    def packed_bytes(self) -> int:
        """Bytes this section occupies on the wire (``MPI_Pack_size``)."""
        return typemap.packed_size(self.datatype, self.count) if self.count else 0

    def check(self, comm, buffer, what: str) -> None:
        """Raise ``MpiArgumentError`` unless the section is valid on ``buffer``."""
        check_section(comm, buffer, self.peer, self.count, self.displ, self.datatype, what)


def check_section(comm, buffer, peer: int, count: int, displ: int, datatype: Datatype, what: str) -> None:
    """Raise ``MpiArgumentError`` unless the section is valid on ``buffer``.

    The one section check of the system path and of the interposer's section loop.
    """
    if not 0 <= peer < comm.size:
        raise MpiArgumentError(f"{what} peer {peer} outside communicator of size {comm.size}")
    if count < 0 or displ < 0:
        raise MpiArgumentError(f"{what} counts and displacements must be non-negative")
    if count == 0:
        return
    if datatype.freed or not datatype.committed:
        datatype._check_committed()  # raises, naming which
    extent = datatype.extent
    span = displ + (count - 1) * extent + datatype.lb + extent
    if span > buffer.nbytes:
        raise MpiArgumentError(
            f"{what} section to/from peer {peer} spans {span} bytes, "
            f"escaping the {buffer.nbytes}-byte buffer"
        )


def section_types(peers, counts, displs, types: TypesArg, what: str) -> list[Datatype]:
    """Check the argument lists' lengths, then expand ``types`` to one datatype per section."""
    if not (len(peers) == len(counts) == len(displs)):
        raise MpiArgumentError(f"{what} argument lists must have equal lengths")
    nsections = len(peers)
    if isinstance(types, Datatype):
        return [types] * nsections
    try:
        result = list(types)
    except TypeError:
        raise MpiArgumentError(
            f"{what}types: expected a Datatype or one per section, got {types!r}"
        ) from None
    if len(result) != nsections:
        raise MpiArgumentError(
            f"{what} needs one datatype per section ({nsections}), got {len(result)}"
        )
    for index, datatype in enumerate(result):
        if not isinstance(datatype, Datatype):
            raise MpiArgumentError(f"{what}types[{index}]: expected a Datatype, got {datatype!r}")
    return result


def build_sections(
    comm,
    buffer,
    peers: Sequence[int],
    counts: Sequence[int],
    displs: Sequence[int],
    types: TypesArg,
    what: str,
) -> list[TypedSection]:
    """Validate and assemble the section list of one collective side.

    Peers, counts and displacements obey :func:`check_int`; a bad one raises
    ``MpiArgumentError`` naming it (``neighbors[i]``, ``sendcounts[i]``,
    ``recvdispls[i]`` …).  A plain ``int`` costs no call.
    """
    datatypes = section_types(peers, counts, displs, types, what)
    sections = []
    for index, (peer, count, displ, datatype) in enumerate(zip(peers, counts, displs, datatypes)):
        if type(peer) is not int:
            peer = check_int(peer, f"neighbors[{index}]", MpiArgumentError)
        if type(count) is not int:
            count = check_int(count, f"{what}counts[{index}]", MpiArgumentError)
        if type(displ) is not int:
            displ = check_int(displ, f"{what}displs[{index}]", MpiArgumentError)
        check_section(comm, buffer, peer, count, displ, datatype, what)
        sections.append(TypedSection(peer, count, displ, datatype))
    return sections


def group_by_peer(sections: Sequence[TypedSection]) -> dict[int, list[TypedSection]]:
    """Nonempty sections grouped per peer, preserving section order."""
    groups: dict[int, list[TypedSection]] = {}
    for section in sections:
        if section.count:
            groups.setdefault(section.peer, []).append(section)
    return groups


# --------------------------------------------------------------------------- #
# All-to-all-v
# --------------------------------------------------------------------------- #

def alltoallv_begin(
    comm,
    sendbuf,
    sendcounts: Sequence[int],
    senddispls: Sequence[int],
    sendtypes: TypesArg,
    recvbuf,
    recvcounts: Sequence[int],
    recvdispls: Sequence[int],
    recvtypes: TypesArg,
):
    """Start an ``MPI_Ialltoallv`` (one section per rank).

    Counts are elements of the per-rank datatype; displacements are byte
    offsets of the first element in the user buffer.  It is the neighbour
    exchange over every rank in rank order.
    """
    if len(sendcounts) != comm.size or len(recvcounts) != comm.size:
        raise MpiArgumentError(
            f"counts/displacements must have one entry per rank ({comm.size})"
        )
    return neighbor_alltoallv_begin(
        comm, range(comm.size), sendbuf, sendcounts, senddispls, sendtypes,
        recvbuf, recvcounts, recvdispls, recvtypes,
    )


def neighbor_alltoallv_begin(
    comm,
    neighbors: Sequence[int],
    sendbuf,
    sendcounts: Sequence[int],
    senddispls: Sequence[int],
    sendtypes: TypesArg,
    recvbuf,
    recvcounts: Sequence[int],
    recvdispls: Sequence[int],
    recvtypes: TypesArg,
):
    """Start an ``MPI_Ineighbor_alltoallv`` over an explicit neighbour list.

    Duplicate neighbours are allowed: several sections addressed to the same
    peer travel concatenated in list order, so callers with multiple regions
    per peer (small periodic halo grids) must order the two sides of each
    pair consistently — the halo application orders send sections by
    direction and receive sections by negated direction, as its packed
    layout already does.

    Every outgoing section is packed (:func:`_pack_sections`), concatenated
    per peer and posted; the self sections round-trip through a staging
    buffer immediately.  The returned request receives and unpacks every
    incoming peer segment and charges the analytic wire cost once.
    """
    from repro.mpi.communicator import as_buffer

    send = as_buffer(sendbuf)
    recv = as_buffer(recvbuf)
    send_sections = build_sections(comm, send, neighbors, sendcounts, senddispls, sendtypes, "send")
    recv_sections = build_sections(comm, recv, neighbors, recvcounts, recvdispls, recvtypes, "recv")
    tag = _next_collective_tag(comm)
    send_groups = group_by_peer(send_sections)
    recv_groups = group_by_peer(recv_sections)
    now = comm.clock.now

    # Pack and post every outgoing peer segment.
    for peer, group in send_groups.items():
        if peer != comm.rank:
            _post_raw(comm, peer, tag, _pack_sections(comm, send, group).data, comm.clock.now)

    # Local sections round-trip through a staging buffer without the wire.
    local_send = send_groups.get(comm.rank, [])
    local_recv = recv_groups.get(comm.rank, [])
    if sum(s.packed_bytes for s in local_send) != sum(s.packed_bytes for s in local_recv):
        raise MpiArgumentError("self send/recv sections disagree on packed size")
    if local_send:
        _unpack_sections(comm, recv, local_recv, _pack_sections(comm, send, local_send))

    expected = [
        _expected_sections(comm, recv, peer, group)
        for peer, group in recv_groups.items()
        if peer != comm.rank
    ]
    # Bytes exchanged with each rank: the larger of the two directions.
    per_pair = [0] * comm.size
    for groups in (send_groups, recv_groups):
        for peer, group in groups.items():
            per_pair[peer] = max(per_pair[peer], sum(s.packed_bytes for s in group))
    return _split_phase(comm, tag, now, expected, per_pair, send.is_device or recv.is_device)


# --------------------------------------------------------------------------- #
# All-gather-v
# --------------------------------------------------------------------------- #

def allgatherv_begin(
    comm,
    sendbuf,
    sendcount: int,
    sendtype: Datatype,
    recvbuf,
    recvcounts: Sequence[int],
    recvdispls: Sequence[int],
    recvtypes: TypesArg,
):
    """Start an ``MPI_Iallgatherv`` (one receive section per rank).

    Counts are elements of the per-rank datatypes; displacements are byte
    offsets of the first element in the receive buffer, as in
    :func:`alltoallv_begin`.  Every rank's ``sendcount * sendtype.size`` must
    equal the packed size of the section its peers expect from it.

    This rank's ``sendcount`` elements of ``sendtype`` are packed **once**,
    the packed bytes are posted to every peer (the root-less fan-out), and
    the self-contribution is unpacked directly.  The returned request unpacks
    every incoming contribution through its receive section's datatype and
    charges the analytic wire cost once — comparable message-for-message
    with TEMPI's plan-compiled path.
    """
    from repro.mpi.communicator import as_buffer

    send = as_buffer(sendbuf)
    recv = as_buffer(recvbuf)
    if len(recvcounts) != comm.size or len(recvdispls) != comm.size:
        raise MpiArgumentError(
            f"recv counts/displacements must have one entry per rank ({comm.size})"
        )
    peers = list(range(comm.size))
    recv_sections = build_sections(comm, recv, peers, recvcounts, recvdispls, recvtypes, "recv")
    if type(sendcount) is not int:
        sendcount = check_int(sendcount, "sendcount", MpiArgumentError)
    send_section = TypedSection(comm.rank, sendcount, 0, sendtype)
    send_section.check(comm, send, "send")
    nbytes = send_section.packed_bytes
    my_recv = recv_sections[comm.rank]
    if my_recv.packed_bytes != nbytes:
        raise MpiArgumentError("this rank's contribution disagrees with its recv section")
    tag = _next_collective_tag(comm)
    now = comm.clock.now

    if nbytes:
        staging = _pack_sections(comm, send, [send_section])
        for peer in range(comm.size):
            if peer != comm.rank:
                _post_raw(comm, peer, tag, staging.data, comm.clock.now)
        _unpack_sections(comm, recv, [my_recv], staging)

    expected = [
        _expected_sections(comm, recv, section.peer, [section])
        for section in recv_sections
        if section.peer != comm.rank and section.count
    ]
    per_pair = [max(nbytes, section.packed_bytes) for section in recv_sections]
    return _split_phase(comm, tag, now, expected, per_pair, send.is_device or recv.is_device)

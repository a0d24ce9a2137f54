"""The ``MessagePlan`` IR: every interposed operation as typed stages.

TEMPI's accelerated operations all decompose into the same three stage
kinds:

* a :class:`PackStage` gathers one peer's sections from the (strided) user
  buffer into a contiguous staging buffer with one kernel per section;
* a :class:`PostStage` hands the packed bytes to the wire as soon as its
  pack stage's kernels complete;
* an :class:`UnpackStage` scatters one peer's packed bytes from staging into
  the user buffer.

``Send`` is one pack + one post; ``Recv`` is one unpack; the datatype-carrying
``Alltoallv`` / ``Neighbor_alltoallv`` are one pack/post/unpack triple per
peer plus an off-wire local stage pair for self-sections.  Compiling an
operation to a :class:`MessagePlan` *before* touching the GPU or the wire is
what lets the :class:`~repro.tempi.executor.PlanExecutor` schedule stages for
overlap: every stage already carries its method selection, its staging-buffer
key and (once executing) its GPU stream, so the executor is free to issue
pack kernels on per-peer streams and post each peer's transfer the moment its
pack completes instead of packing everything first and posting serially.

The compilers here are pure: they validate, group sections per peer, and run
the per-message method selection (through the caller's selector callback, so
model-query overhead stays charged where the paper charges it).  No bytes
move until the executor runs the plan.

Because iterative applications repeat the same exchange every round, a
persistent collective keeps its first compile as a :class:`PlanTemplate`:
the compiled stages plus the selector calls the compile made.  A restart
*replays* those calls through the live selector — same calls, same order,
same charges — so priced results are bit-identical to a fresh compile, then
materializes a new :class:`MessagePlan` around the template's stages
(rebuilding any stage whose replayed method diverged, e.g. under shifting
contended backlog).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

from repro.gpu.memory import Buffer, MemoryKind
from repro.gpu.stream import Stream
from repro.tempi.config import PackMethod
from repro.tempi.packer import Packer
from repro.tempi.selection import MethodSelector

__all__ = [
    "MessagePlan",
    "MethodSelector",
    "PackStage",
    "PlanError",
    "PlanSection",
    "PlanTemplate",
    "PostStage",
    "ReduceStage",
    "UnpackStage",
    "allreduce_schedule",
    "compile_allgather",
    "compile_allreduce",
    "compile_bcast",
    "compile_exchange",
    "compile_recv",
    "compile_send",
    "hierarchical_allreduce_schedule",
    "ring_allreduce_schedule",
    "staging_kind",
    "tree_allreduce_schedule",
]


class PlanError(RuntimeError):
    """A plan was asked to describe something impossible."""


def staging_kind(method: PackMethod) -> MemoryKind:
    """Where a method's intermediate buffer lives (Sec. 4)."""
    if method is PackMethod.DEVICE:
        return MemoryKind.DEVICE
    if method is PackMethod.ONESHOT:
        return MemoryKind.HOST_MAPPED
    if method is PackMethod.STAGED:
        return MemoryKind.DEVICE
    raise PlanError(f"{method} is not a concrete packing method")


@dataclass(frozen=True)
class PlanSection:
    """One section of a plan stage.

    ``count`` objects of a committed, accelerated datatype starting ``displ``
    bytes into the user buffer, bound to the :class:`Packer` its commit-time
    handler cached.  Sections addressed to one peer travel concatenated in
    section order — the same wire layout as the system path, so the two are
    interchangeable message-for-message.
    """

    peer: int
    count: int
    displ: int
    packer: Packer

    @property
    def packed_bytes(self) -> int:
        return self.packer.packed_size(self.count) if self.count else 0


@dataclass
class PackStage:
    """Gather one peer's sections into a contiguous staging buffer."""

    peer: int
    sections: tuple[PlanSection, ...]
    method: PackMethod
    nbytes: int
    #: Key of the persistent per-peer staging buffer; ``None`` checks a
    #: transient buffer out of the size-bucketed pool instead (p2p sends).
    staging_key: Optional[Hashable] = None
    #: The stream the executor issued this stage's kernels on (set at run time).
    stream: Optional[Stream] = None


@dataclass
class PostStage:
    """Hand one peer's packed bytes to the wire.

    Depends on exactly one :class:`PackStage`; the executor posts the message
    the moment that stage's kernels complete on its stream.
    """

    peer: int
    nbytes: int
    pack: PackStage = field(repr=False)


@dataclass
class UnpackStage:
    """Scatter one peer's packed bytes from staging into the user buffer."""

    peer: int
    sections: tuple[PlanSection, ...]
    method: PackMethod
    nbytes: int
    staging_key: Optional[Hashable] = None
    stream: Optional[Stream] = None


#: Reduction operators a :class:`ReduceStage` may carry.  All four are
#: elementwise numpy kernels on the executor side; the property wall drives
#: exactly-representable values so every schedule's combine order lands on
#: the same bits (see ``docs/ARCHITECTURE.md`` § Workloads).
REDUCE_OPS = ("sum", "prod", "min", "max")


@dataclass
class ReduceStage:
    """One round of a reduction schedule: an optional send half and an
    optional receive-and-combine half.

    The fourth stage kind, next to pack/post/unpack: where an
    :class:`UnpackStage` scatters arriving bytes into the user buffer, a
    ``ReduceStage`` *combines* them into the accumulator (``op`` applied
    elementwise), or overwrites when ``combine`` is false (the broadcast
    half of every allreduce schedule).  ``dest``/``source`` of ``-1`` mark a
    round where this rank only receives / only sends (tree interior vs leaf
    ranks).  Offsets and byte counts are chunk positions into the flat
    reduction vector; the executor prices the combine like an unpack kernel
    over ``recv_nbytes`` contiguous bytes.
    """

    round: int
    op: str
    #: Send half: chunk ``[send_offset, send_offset + send_nbytes)`` of the
    #: current accumulator goes to ``dest`` (skipped when ``dest < 0``).
    dest: int = -1
    send_offset: int = 0
    send_nbytes: int = 0
    #: Receive half: ``source``'s chunk lands at ``recv_offset`` (skipped
    #: when ``source < 0``); ``combine`` folds it with ``op``, else copies.
    source: int = -1
    recv_offset: int = 0
    recv_nbytes: int = 0
    combine: bool = True


@dataclass
class MessagePlan:
    """One operation, compiled to stages.

    ``tag`` is fixed at compile time for point-to-point plans and assigned by
    the executor (from the communicator's collective sequence) for collective
    plans, so that every rank of a collective agrees on it.
    """

    op: str  # "send" | "recv" | "bcast" | "allgather" | "alltoallv" | "neighbor_alltoallv" | "allreduce"
    send_buffer: Optional[Buffer] = None
    recv_buffer: Optional[Buffer] = None
    pack_stages: list[PackStage] = field(default_factory=list)
    post_stages: list[PostStage] = field(default_factory=list)
    unpack_stages: list[UnpackStage] = field(default_factory=list)
    #: Off-wire self-exchange: packed through device staging, never posted.
    local: Optional[tuple[PackStage, UnpackStage]] = None
    tag: Optional[int] = None
    #: Nonblocking plans defer unpack to ``Request.Wait`` and complete their
    #: send side at buffer-reuse time instead of wire-completion time.
    nonblocking: bool = False
    #: Reduction schedule (``op == "allreduce"`` only): the rounds this rank
    #: walks, in order.  ``reduce_dtype`` is the numpy element type the
    #: combines operate on; ``reduce_nbytes`` the flat vector's size.
    reduce_stages: list[ReduceStage] = field(default_factory=list)
    reduce_dtype: Optional[str] = None
    reduce_nbytes: int = 0
    #: A ``recv`` plan's ``(complete, ready, arrival)``, set by the executor
    #: the first time it runs the plan; a persistent receive runs one plan
    #: every round and arms its request with the same three.
    probes: Optional[tuple] = field(default=None, repr=False, compare=False)

    def method_counts(self) -> dict[str, int]:
        """Wire messages per method (one per post stage), for stats."""
        counts: dict[str, int] = {}
        for post in self.post_stages:
            name = post.pack.method.value
            counts[name] = counts.get(name, 0) + 1
        return counts


# --------------------------------------------------------------------------- #
# Compilers
# --------------------------------------------------------------------------- #

def compile_send(
    packer: Packer,
    buffer: Buffer,
    count: int,
    dest: int,
    tag: int,
    method: PackMethod,
    *,
    nonblocking: bool = False,
) -> MessagePlan:
    """Compile ``MPI_Send``/``MPI_Isend`` of one strided object group."""
    stage = PackStage(
        peer=dest,
        sections=(PlanSection(dest, count, 0, packer),),
        method=method,
        nbytes=packer.packed_size(count),
    )
    return MessagePlan(
        op="send",
        send_buffer=buffer,
        pack_stages=[stage],
        post_stages=[PostStage(peer=dest, nbytes=stage.nbytes, pack=stage)],
        tag=tag,
        nonblocking=nonblocking,
    )


def compile_recv(
    packer: Packer,
    buffer: Buffer,
    count: int,
    source: int,
    tag: int,
    method: PackMethod,
    *,
    nonblocking: bool = False,
) -> MessagePlan:
    """Compile ``MPI_Recv``/``MPI_Irecv`` of one strided object group."""
    stage = UnpackStage(
        peer=source,
        sections=(PlanSection(source, count, 0, packer),),
        method=method,
        nbytes=packer.packed_size(count),
    )
    return MessagePlan(
        op="recv",
        recv_buffer=buffer,
        unpack_stages=[stage],
        tag=tag,
        nonblocking=nonblocking,
    )


def compile_bcast(
    packer: Packer,
    buffer: Buffer,
    count: int,
    root: int,
    rank: int,
    size: int,
    method: PackMethod,
    tag: int,
    *,
    nonblocking: bool = False,
) -> MessagePlan:
    """Compile ``MPI_Bcast`` of one strided object group to a plan.

    The root packs **once** and fans the same payload out over one post stage
    per peer (all sharing the single pack stage); every other rank is simply
    a receive plan from the root.  As in the system broadcast, the packed
    payload round-trips through the datatype, so receivers get the root's
    strided elements and their gap bytes are left alone.
    """
    if size < 2:
        raise PlanError("a broadcast plan needs at least two ranks")
    if not 0 <= root < size:
        raise PlanError(f"root {root} outside communicator of size {size}")
    if rank != root:
        return compile_recv(packer, buffer, count, root, tag, method, nonblocking=nonblocking)
    section = PlanSection(root, count, 0, packer)
    stage = PackStage(
        peer=root,
        sections=(section,),
        method=method,
        nbytes=section.packed_bytes,
        staging_key=("collective", "bcast", root, staging_kind(method)),
    )
    return MessagePlan(
        op="bcast",
        send_buffer=buffer,
        pack_stages=[stage],
        post_stages=[
            PostStage(peer=peer, nbytes=stage.nbytes, pack=stage)
            for peer in range(size)
            if peer != root
        ],
        tag=tag,
        nonblocking=nonblocking,
    )


def compile_allgather(
    rank: int,
    size: int,
    send_buffer: Buffer,
    send_section: PlanSection,
    recv_buffer: Buffer,
    recv_sections: Sequence[PlanSection],
    select: MethodSelector,
    *,
    op: str = "allgather",
    nonblocking: bool = False,
) -> MessagePlan:
    """Compile a datatype-carrying ``Allgather``/``Allgatherv`` to a plan.

    The root-less fan-out: this rank packs its contribution **once** and
    every other peer's post stage shares that single pack stage (the
    broadcast shape, but from every rank at once), while one unpack stage per
    incoming peer scatters that peer's contribution into the receive buffer.
    The self-contribution bounces through device staging off the wire,
    exactly like an exchange's self-sections.  Methods are selected per
    message through ``select`` — the outgoing payload once, each incoming
    peer's independently — so the collective rides selection, overlap and the
    progress engine like ``Alltoallv`` does.
    """
    if size < 2:
        raise PlanError("an allgather plan needs at least two ranks")
    if send_section.peer != rank:
        raise PlanError("the send section of an allgather is this rank's own contribution")
    recv_groups = _group_sections(recv_sections)
    nbytes = send_section.packed_bytes

    local_recv = recv_groups.get(rank, [])
    if sum(s.packed_bytes for s in local_recv) != nbytes:
        raise PlanError("self send/recv sections disagree on packed size")

    pack_stages: list[PackStage] = []
    post_stages: list[PostStage] = []
    if nbytes:
        method = select(send_section.packer, nbytes)
        stage = PackStage(
            peer=rank,
            sections=(send_section,),
            method=method,
            nbytes=nbytes,
            staging_key=("collective", "gather-send", rank, staging_kind(method)),
        )
        pack_stages.append(stage)
        post_stages.extend(
            PostStage(peer=peer, nbytes=nbytes, pack=stage)
            for peer in range(size)
            if peer != rank
        )

    local: Optional[tuple[PackStage, UnpackStage]] = None
    if local_recv:
        local = (
            PackStage(
                peer=rank,
                sections=(send_section,),
                method=PackMethod.DEVICE,
                nbytes=nbytes,
                staging_key=("collective", "gather-send", rank, staging_kind(PackMethod.DEVICE)),
            ),
            UnpackStage(
                peer=rank,
                sections=tuple(local_recv),
                method=PackMethod.DEVICE,
                nbytes=nbytes,
                staging_key=("collective", "gather-recv", rank, staging_kind(PackMethod.DEVICE)),
            ),
        )

    unpack_stages: list[UnpackStage] = []
    for peer in sorted(recv_groups):
        if peer == rank:
            continue
        group = recv_groups[peer]
        peer_bytes = sum(section.packed_bytes for section in group)
        method = select(group[0].packer, peer_bytes)
        unpack_stages.append(
            UnpackStage(
                peer=peer,
                sections=tuple(group),
                method=method,
                nbytes=peer_bytes,
                staging_key=("collective", "gather-recv", peer, staging_kind(method)),
            )
        )

    return MessagePlan(
        op=op,
        send_buffer=send_buffer,
        recv_buffer=recv_buffer,
        pack_stages=pack_stages,
        post_stages=post_stages,
        unpack_stages=unpack_stages,
        local=local,
        nonblocking=nonblocking,
    )


# --------------------------------------------------------------------------- #
# Plan templates (a persistent collective's restart)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PlanTemplate:
    """One compiled exchange plan, kept for replay at every restart.

    Holds the compile's stages (shared across materializations — the executor
    only touches per-execution state on them) and the selection transcript:
    ``(packer, nbytes, peer)`` per selector call plus the returned methods,
    in call order.  ``posts`` keeps each recorded post stage with the index
    of its pack stage in ``pack_stages``, so a post re-links only when its
    pack stage was rebuilt.  A restart is :meth:`replay` then
    :meth:`materialize`.
    """

    op: str
    nonblocking: bool
    pack_stages: tuple[PackStage, ...]
    unpack_stages: tuple[UnpackStage, ...]
    posts: tuple[tuple[PostStage, int], ...]
    local: Optional[tuple[PackStage, UnpackStage]]
    selections: tuple[tuple[Packer, int, Optional[int]], ...]
    methods: tuple[PackMethod, ...]
    #: Datatype handlers the interposer bumps ``uses`` on per call.
    handlers: tuple = ()

    @classmethod
    def from_plan(cls, plan: MessagePlan, *, handlers=()) -> "PlanTemplate":
        """Capture a plan fresh from :func:`compile_exchange`.

        The transcript is read off the stages: that compiler calls the
        selector once per wire pack stage, as ``(packer, nbytes, peer)`` in
        pack order, then once per wire unpack stage with no peer, and each
        stage keeps the method its call returned.
        """
        packs, unpacks = tuple(plan.pack_stages), tuple(plan.unpack_stages)
        index = {id(stage): i for i, stage in enumerate(packs)}
        return cls(
            op=plan.op,
            nonblocking=plan.nonblocking,
            pack_stages=packs,
            unpack_stages=unpacks,
            posts=tuple((post, index[id(post.pack)]) for post in plan.post_stages),
            local=plan.local,
            selections=tuple((s.sections[0].packer, int(s.nbytes), s.peer) for s in packs)
            + tuple((s.sections[0].packer, int(s.nbytes), None) for s in unpacks),
            methods=tuple(stage.method for stage in packs + unpacks),
            handlers=tuple(handlers),
        )

    def replay(self, select: MethodSelector) -> list[PackMethod]:
        """Re-run the recorded selector calls: same order, so same charges.

        Each call goes through the selector's ``select_many``, the entry
        every restart asks again through (a point-to-point restart too).
        """
        return [select.select_many(packer, nbytes, peer) for packer, nbytes, peer in self.selections]

    @staticmethod
    def _rebind(stage, method: PackMethod):
        """A copy of the stage with ``method`` and its staging kind."""
        key = stage.staging_key
        if key is not None:
            key = key[:-1] + (staging_kind(method),)
        return type(stage)(
            peer=stage.peer,
            sections=stage.sections,
            method=method,
            nbytes=stage.nbytes,
            staging_key=key,
        )

    def materialize(
        self,
        methods: Sequence[PackMethod],
        send_buffer: Optional[Buffer],
        recv_buffer: Optional[Buffer],
    ) -> MessagePlan:
        """A fresh :class:`MessagePlan` around the template's stages.

        ``methods`` is the replayed transcript.  A stage whose method it
        keeps is shared; a stage whose method changed is rebuilt with the new
        method and staging kind (:meth:`_rebind`), and only the posts of a
        rebuilt pack stage are rebuilt to link to it.  The plan object itself
        is always new — the executor stamps the collective ``tag`` onto it,
        which must not leak across calls.
        """
        packs = [
            stage if method is stage.method else self._rebind(stage, method)
            for stage, method in zip(self.pack_stages, methods)
        ]
        return MessagePlan(
            op=self.op,
            send_buffer=send_buffer,
            recv_buffer=recv_buffer,
            pack_stages=packs,
            post_stages=[
                post if post.pack is packs[i]
                else PostStage(peer=post.peer, nbytes=post.nbytes, pack=packs[i])
                for post, i in self.posts
            ],
            unpack_stages=[
                stage if method is stage.method else self._rebind(stage, method)
                for stage, method in zip(self.unpack_stages, methods[len(packs):])
            ],
            local=self.local,
            nonblocking=self.nonblocking,
        )


def _group_sections(sections: Sequence[PlanSection]) -> dict[int, list[PlanSection]]:
    groups: dict[int, list[PlanSection]] = {}
    for section in sections:
        if section.count:
            groups.setdefault(section.peer, []).append(section)
    return groups


def compile_exchange(
    rank: int,
    send_buffer: Buffer,
    send_sections: Sequence[PlanSection],
    recv_buffer: Buffer,
    recv_sections: Sequence[PlanSection],
    select: MethodSelector,
    *,
    op: str = "alltoallv",
    nonblocking: bool = False,
) -> MessagePlan:
    """Compile a datatype-carrying all-to-all-v (dense or neighbour).

    One pack/post pair per outgoing wire peer, one unpack per incoming wire
    peer, and a local stage pair for self-sections; each wire peer's method is
    selected per message through ``select``.  Staging keys preserve the
    per-``(role, peer, kind)`` binding of the resource cache so iterative
    applications find the same buffers on every exchange (Sec. 5).
    """
    send_groups = _group_sections(send_sections)
    recv_groups = _group_sections(recv_sections)

    local_send = send_groups.get(rank, [])
    local_recv = recv_groups.get(rank, [])
    if sum(s.packed_bytes for s in local_send) != sum(s.packed_bytes for s in local_recv):
        raise PlanError("self send/recv sections disagree on packed size")

    pack_stages: list[PackStage] = []
    post_stages: list[PostStage] = []
    for peer, group in send_groups.items():
        if peer == rank:
            continue
        nbytes = sum(section.packed_bytes for section in group)
        # Send-side selections carry the destination peer so NIC-aware
        # selectors can price its link and ingestion backlog; receive-side
        # selections (below) have no single remote port to price.
        method = select(group[0].packer, nbytes, peer=peer)
        stage = PackStage(
            peer=peer,
            sections=tuple(group),
            method=method,
            nbytes=nbytes,
            staging_key=("collective", "send", peer, staging_kind(method)),
        )
        pack_stages.append(stage)
        post_stages.append(PostStage(peer=peer, nbytes=nbytes, pack=stage))

    local: Optional[tuple[PackStage, UnpackStage]] = None
    if local_send:
        nbytes = sum(section.packed_bytes for section in local_send)
        local = (
            PackStage(
                peer=rank,
                sections=tuple(local_send),
                method=PackMethod.DEVICE,
                nbytes=nbytes,
                staging_key=("collective", "send", rank, staging_kind(PackMethod.DEVICE)),
            ),
            UnpackStage(
                peer=rank,
                sections=tuple(local_recv),
                method=PackMethod.DEVICE,
                nbytes=nbytes,
                staging_key=("collective", "recv", rank, staging_kind(PackMethod.DEVICE)),
            ),
        )

    unpack_stages: list[UnpackStage] = []
    for peer, group in recv_groups.items():
        if peer == rank:
            continue
        nbytes = sum(section.packed_bytes for section in group)
        method = select(group[0].packer, nbytes)
        unpack_stages.append(
            UnpackStage(
                peer=peer,
                sections=tuple(group),
                method=method,
                nbytes=nbytes,
                staging_key=("collective", "recv", peer, staging_kind(method)),
            )
        )

    return MessagePlan(
        op=op,
        send_buffer=send_buffer,
        recv_buffer=recv_buffer,
        pack_stages=pack_stages,
        post_stages=post_stages,
        unpack_stages=unpack_stages,
        local=local,
        nonblocking=nonblocking,
    )


# --------------------------------------------------------------------------- #
# Allreduce schedules
# --------------------------------------------------------------------------- #

def _chunk_layout(count: int, parts: int, element_size: int) -> list[tuple[int, int]]:
    """Split ``count`` elements into ``parts`` contiguous byte ranges.

    Returns ``(offset_bytes, nbytes)`` per part; the first ``count % parts``
    parts carry one extra element, so every boundary is element-aligned and
    the layout is a pure function of ``(count, parts)`` — each rank computes
    it independently and identically.
    """
    if parts <= 0:
        raise PlanError(f"cannot split a vector into {parts} chunks")
    base, extra = divmod(count, parts)
    layout = []
    offset = 0
    for index in range(parts):
        elements = base + (1 if index < extra else 0)
        nbytes = elements * element_size
        layout.append((offset, nbytes))
        offset += nbytes
    return layout


def ring_allreduce_schedule(
    rank: int,
    ranks: Sequence[int],
    count: int,
    element_size: int,
    op: str,
    *,
    round_base: int = 0,
) -> list[ReduceStage]:
    """The bandwidth-optimal ring: reduce-scatter then allgather.

    ``ranks`` is the (ascending) participant list — the whole communicator
    for a flat ring, the island leaders for the cross-leaf phase of the
    hierarchical schedule.  Each of the ``2 * (N - 1)`` rounds moves one
    ``count / N`` chunk to the right neighbour; after the first ``N - 1``
    rounds rank ``i`` owns chunk ``(i + 1) % N`` fully reduced, and the
    second ``N - 1`` rounds circulate the finished chunks (``combine=False``).
    """
    size = len(ranks)
    if size <= 1:
        return []
    index = ranks.index(rank)
    chunks = _chunk_layout(count, size, element_size)
    right = ranks[(index + 1) % size]
    left = ranks[(index - 1) % size]
    stages = []
    for step in range(size - 1):
        send_chunk = (index - step) % size
        recv_chunk = (index - step - 1) % size
        stages.append(
            ReduceStage(
                round=round_base + step,
                op=op,
                dest=right,
                send_offset=chunks[send_chunk][0],
                send_nbytes=chunks[send_chunk][1],
                source=left,
                recv_offset=chunks[recv_chunk][0],
                recv_nbytes=chunks[recv_chunk][1],
                combine=True,
            )
        )
    for step in range(size - 1):
        send_chunk = (index - step + 1) % size
        recv_chunk = (index - step) % size
        stages.append(
            ReduceStage(
                round=round_base + size - 1 + step,
                op=op,
                dest=right,
                send_offset=chunks[send_chunk][0],
                send_nbytes=chunks[send_chunk][1],
                source=left,
                recv_offset=chunks[recv_chunk][0],
                recv_nbytes=chunks[recv_chunk][1],
                combine=False,
            )
        )
    return stages


def tree_allreduce_schedule(
    rank: int,
    size: int,
    count: int,
    element_size: int,
    op: str,
) -> list[ReduceStage]:
    """The latency-optimal binomial tree: reduce to rank 0, broadcast back.

    Full-vector messages over ``2 * ceil(log2 N)`` rounds: in reduce round
    ``k`` every rank with bit ``k`` set sends its partial to ``rank - 2^k``
    and goes idle; the broadcast phase replays those edges in reverse.  Works
    for any ``N`` (receives from partners ``>= N`` are skipped).
    """
    if size <= 1:
        return []
    nbytes = count * element_size
    parent = -1
    parent_round = 0
    children: list[tuple[int, int]] = []
    mask = 1
    rounds = 0
    while mask < size:
        if parent < 0:
            if rank & mask:
                parent = rank - mask
                parent_round = rounds
            else:
                child = rank + mask
                if child < size:
                    children.append((child, rounds))
        mask <<= 1
        rounds += 1
    stages = []
    for child, k in children:
        stages.append(
            ReduceStage(
                round=k, op=op, source=child, recv_offset=0, recv_nbytes=nbytes,
                combine=True,
            )
        )
    if parent >= 0:
        stages.append(
            ReduceStage(
                round=parent_round, op=op, dest=parent,
                send_offset=0, send_nbytes=nbytes,
            )
        )
        stages.append(
            ReduceStage(
                round=rounds + (rounds - 1 - parent_round), op=op,
                source=parent, recv_offset=0, recv_nbytes=nbytes, combine=False,
            )
        )
    # Broadcast edges replay the reduce edges in reverse round order, so a
    # rank forwards to its latest-reduced child first.
    for child, k in sorted(children, key=lambda edge: -edge[1]):
        stages.append(
            ReduceStage(
                round=rounds + (rounds - 1 - k), op=op, dest=child,
                send_offset=0, send_nbytes=nbytes,
            )
        )
    stages.sort(key=lambda stage: stage.round)
    return stages


def hierarchical_allreduce_schedule(
    rank: int,
    size: int,
    count: int,
    element_size: int,
    op: str,
    islands: Sequence[Sequence[int]],
) -> list[ReduceStage]:
    """Intra-island reduce → cross-leaf leader ring → intra-island broadcast.

    ``islands`` partitions the communicator into locality groups (NVLink
    islands under a hierarchical topology; singletons degrade this to a flat
    ring).  Members fold into their island's leader (lowest rank) over the
    expensive-path-free intra-island wires, the leaders run a chunked ring
    across the fabric — the only phase that touches uplink ledgers — and the
    result fans back out inside each island.
    """
    if size <= 1:
        return []
    nbytes = count * element_size
    my_island = None
    for group in islands:
        if rank in group:
            my_island = sorted(group)
            break
    if my_island is None:
        raise PlanError(f"rank {rank} missing from the island partition")
    leaders = sorted(min(group) for group in islands)
    leader = my_island[0]
    gather_rounds = max(len(group) for group in islands) - 1
    stages: list[ReduceStage] = []
    if rank == leader:
        for position, member in enumerate(my_island[1:]):
            stages.append(
                ReduceStage(
                    round=position, op=op, source=member,
                    recv_offset=0, recv_nbytes=nbytes, combine=True,
                )
            )
    else:
        stages.append(
            ReduceStage(
                round=my_island.index(rank) - 1, op=op, dest=leader,
                send_offset=0, send_nbytes=nbytes,
            )
        )
    if rank == leader and len(leaders) > 1:
        stages.extend(
            ring_allreduce_schedule(
                rank, leaders, count, element_size, op, round_base=gather_rounds,
            )
        )
    bcast_base = gather_rounds + 2 * (len(leaders) - 1)
    if rank == leader:
        for position, member in enumerate(my_island[1:]):
            stages.append(
                ReduceStage(
                    round=bcast_base + position, op=op, dest=member,
                    send_offset=0, send_nbytes=nbytes,
                )
            )
    else:
        stages.append(
            ReduceStage(
                round=bcast_base + my_island.index(rank) - 1, op=op,
                source=leader, recv_offset=0, recv_nbytes=nbytes, combine=False,
            )
        )
    return stages


def allreduce_schedule(
    algorithm: str,
    rank: int,
    size: int,
    count: int,
    element_size: int,
    op: str,
    islands: Optional[Sequence[Sequence[int]]] = None,
) -> list[ReduceStage]:
    """One rank's rounds under ``algorithm`` — the one algorithm → schedule map.

    Read by :func:`compile_allreduce` (the runtime) and by the analytic twin
    ``repro.apps.exchange_model.model_allreduce``, so the two cannot disagree
    about who sends what when.  ``islands`` (hierarchical only) defaults to
    singletons, which degrades that schedule to a pure leader ring.
    """
    if algorithm == "ring":
        return ring_allreduce_schedule(rank, list(range(size)), count, element_size, op)
    if algorithm == "tree":
        return tree_allreduce_schedule(rank, size, count, element_size, op)
    if algorithm == "hierarchical":
        if islands is None:
            islands = [[r] for r in range(size)]
        return hierarchical_allreduce_schedule(rank, size, count, element_size, op, islands)
    raise PlanError(f"unknown allreduce algorithm {algorithm!r}")


def compile_allreduce(
    rank: int,
    size: int,
    send_buffer: Buffer,
    recv_buffer: Buffer,
    count: int,
    element_size: int,
    dtype: str,
    *,
    op: str = "sum",
    algorithm: str = "ring",
    islands: Optional[Sequence[Sequence[int]]] = None,
    nonblocking: bool = False,
) -> MessagePlan:
    """Compile one rank's side of an allreduce to a reduction plan.

    Pure, like every compiler here: the schedule is a function of
    ``(rank, size, count, algorithm)`` (plus the island partition for the
    hierarchical algorithm), so all ranks independently compile matching
    rounds.  The executor walks the rounds in order, posting the send half
    and combining the receive half of each.
    """
    if op not in REDUCE_OPS:
        raise PlanError(f"unknown reduction op {op!r}; expected one of {REDUCE_OPS}")
    if count < 0:
        raise PlanError(f"allreduce count must be non-negative, got {count}")
    nbytes = count * element_size
    if recv_buffer.nbytes < nbytes or send_buffer.nbytes < nbytes:
        raise PlanError(
            f"allreduce of {nbytes} bytes does not fit its buffers "
            f"(send {send_buffer.nbytes}, recv {recv_buffer.nbytes})"
        )
    return MessagePlan(
        op="allreduce",
        send_buffer=send_buffer,
        recv_buffer=recv_buffer,
        nonblocking=nonblocking,
        reduce_stages=allreduce_schedule(
            algorithm, rank, size, count, element_size, op, islands
        ),
        reduce_dtype=dtype,
        reduce_nbytes=nbytes,
    )

"""Per-layer tracing from outside the program.

:class:`Tracer` swaps the public functions at each layer's boundary (the
*seams* below) for wrappers that bracket the call with ``perf_counter`` and
record a span: name, start, end, the span that caused it, its thread and
the block it ran in.  Nothing under ``src/`` is edited; the wrappers go in
before a workload is constructed (drivers pre-bind methods) and come out
when the traced pass ends.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  Rank threads are children of the ``World.run`` span
that started them, so ``World.run``'s self time is spawn and join cost, not
the eight threads' work.  All times are wall-clock per thread: under the
GIL a rank thread's span includes the time it waited for the interpreter,
which is the cost the thread-per-rank design imposes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, NamedTuple, Optional

import numpy as np

#: layer -> seams as ``(module, dotted attribute)``.  The layer names are
#: the rows of docs/ARCHITECTURE.md's layer map.
SEAMS: dict[str, list[tuple[str, str]]] = {
    "mpi.world": [
        ("repro.mpi.world", "World.__init__"),
        ("repro.mpi.world", "World.run"),
        ("repro.mpi.world", "World.barrier_wait"),
    ],
    "mpi.p2p": [
        ("repro.mpi.p2p", "MessageRouter.post"),
        ("repro.mpi.p2p", "MessageRouter.receive"),
        ("repro.mpi.p2p", "MessageRouter.probe"),
    ],
    "mpi.communicator": [
        ("repro.mpi.communicator", f"Communicator.{name}")
        for name in (
            "Send", "Isend", "Recv", "Irecv", "Sendrecv", "Probe", "Pack", "Unpack",
            "Type_commit", "Barrier", "Bcast", "Allreduce", "Allgather", "Allgatherv",
            "Alltoallv", "Neighbor_alltoallv", "Ialltoallv", "Iallgather", "Iallgatherv",
            "Ineighbor_alltoallv",
        )
    ],
    "mpi.datatype": [
        ("repro.mpi.constructors", name)
        for name in (
            "Type_contiguous", "Type_vector", "Type_create_hvector", "Type_create_subarray",
            "Type_indexed", "Type_create_hindexed", "Type_create_struct", "Type_create_resized",
        )
    ],
    "tempi.interposer": [
        ("repro.tempi.interposer", f"TempiCommunicator.{name}")
        for name in (
            "Type_commit", "Pack", "Unpack", "Send", "Isend", "Recv", "Irecv", "Sendrecv",
            "Bcast", "Alltoallv", "Ialltoallv", "Neighbor_alltoallv", "Ineighbor_alltoallv",
            "Allreduce", "Iallreduce", "Allgather", "Allgatherv",
        )
    ] + [
        # Completion runs the interposer's deferred unpacks.
        ("repro.mpi.request", "Request.Wait"),
        ("repro.mpi.request", "Request.Waitall"),
        ("repro.mpi.request", "Request.Test"),
    ],
    "tempi.commit": [
        ("repro.tempi.translate", "translate"),
        ("repro.tempi.canonicalize", "simplify"),
        ("repro.tempi.strided_block", "to_strided_block"),
    ],
    "tempi.plan": [
        ("repro.tempi.plan", "compile_send"),
        ("repro.tempi.plan", "compile_recv"),
        ("repro.tempi.plan", "compile_bcast"),
        ("repro.tempi.plan", "compile_exchange"),
        ("repro.tempi.plan", "compile_allreduce"),
        ("repro.tempi.plan", "PlanCache.get"),
        ("repro.tempi.plan", "PlanCache.touch"),
        ("repro.tempi.plan", "PlanCache.put"),
        ("repro.tempi.plan", "PlanTemplate.replay"),
        ("repro.tempi.plan", "PlanTemplate.materialize"),
        # The compile memo and plan-template front end of tempi.plan lives in
        # interposer.py; the pricing drivers enter the stack here.
        ("repro.tempi.interposer", "TempiCommunicator._compile_collective"),
    ],
    "tempi.selection": [
        ("repro.tempi.selection", "ModelSelector.__call__"),
        ("repro.tempi.selection", "ModelSelector.select_many"),
        ("repro.tempi.selection", "ContendedSelector.__call__"),
        ("repro.tempi.selection", "choose_allreduce_algorithm"),
    ],
    "tempi.executor": [("repro.tempi.executor", "PlanExecutor.execute")],
    "tempi.progress": [
        ("repro.tempi.progress", f"ProgressEngine.{name}")
        for name in (
            "reserve_wire", "reserve_wire_batch", "ingest_one", "ingest_batch",
            "offer_send", "flush", "progress",
        )
    ],
    "tempi.packer": [
        ("repro.tempi.packer", "Packer.pack"),
        ("repro.tempi.packer", "Packer.unpack"),
    ],
    "gpu.kernels": [
        ("repro.gpu.kernels", name)
        for name in (
            "pack_strided", "unpack_strided", "pack_strided_many", "unpack_strided_many",
            "copy_block_list",
        )
    ],
    "gpu.runtime": [
        ("repro.gpu.runtime", f"CudaRuntime.{name}")
        for name in (
            "malloc", "free", "host_alloc", "memcpy_async", "memcpy", "memset",
            "launch_pack", "launch_unpack",
        )
    ],
    "machine.nic": [
        ("repro.machine.nic", f"NicTimeline.{name}")
        for name in (
            "reserve", "reserve_batch", "ingest", "ingest_batch_vec", "ingest_preview",
            "ingest_backlog",
        )
    ],
    "machine.topology": [
        ("repro.machine.topology", "Topology.resolve"),
        ("repro.machine.topology", "Topology.message_time"),
    ],
    "tempi.measurement": [("repro.tempi.measurement", "measure_system")],
    "apps.replay": [("repro.apps.replay", "load_trace")],
    # Application and driver code between the benchmark and the MPI surface.
    # Whatever a rank thread does outside every other seam is its rank
    # program, so the thread root spans count here too (see THREAD_SPAN).
    "apps.driver": [
        ("repro.apps.stencil", "HaloExchange.exchange"),
        ("repro.apps.replay", "replay_trace"),
        ("repro.bench.simthroughput", "HaloDriver.round"),
    ],
}

LAYERS = tuple(SEAMS)

#: The harness's own root span around a block; its self time is what no
#: layer claims (the benchmark's loop).
BLOCK_SPAN = "harness.block"
#: Root span of every thread started while tracing: the rank program that
#: the application handed to ``World.run``; counted under ``apps.driver``.
THREAD_SPAN = "rank thread"


class _ThreadLog:
    """One thread's spans; only its own thread appends to it."""

    __slots__ = ("spans", "stack", "cause")

    def __init__(self, cause: Optional[tuple["_ThreadLog", int]]) -> None:
        #: ``(name id, start, end, parent index or -1, block id)``
        self.spans: list = []
        self.stack: list[int] = []
        #: The span (in another thread's log) whose call started this thread.
        self.cause = cause


class LayerTotals(NamedTuple):
    calls: int
    self_s: float


class Tracer:
    """Install wrappers on every seam, collect spans, sum them per layer."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.missing: list[str] = []
        self.block_id = 0
        #: ``NicTimeline`` and ``InterposerStats`` objects made while installed,
        #: so counters can be read at the same boundaries as the spans.
        self.nics: list = []
        self.stats: list = []
        self._logs: list[_ThreadLog] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._block_name = self._name_id(BLOCK_SPAN)

    # ------------------------------------------------------------- recording
    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog(None)
            self._logs.append(log)
            return log

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _traced(self, fn, name: str):
        name_id = self._name_id(name)
        get_log = self._log

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = get_log()
            spans, stack = log.spans, log.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.block_id)

        return traced

    @contextmanager
    def _root_span(self, log: _ThreadLog, name_id: int) -> Iterator[None]:
        """A parentless span on ``log`` (``_traced`` inlines the same steps,
        because it runs once per traced call)."""
        index = len(log.spans)
        log.spans.append(None)
        log.stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            log.stack.pop()
            log.spans[index] = (name_id, start, end, -1, self.block_id)

    def block(self):
        """The harness's root span around one block of rounds."""
        self.block_id += 1
        return self._root_span(self._log(), self._block_name)

    # ------------------------------------------------------------ installing
    def _swap(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every seam that exists; note the ones that do not."""
        for layer, seams in SEAMS.items():
            for module_name, dotted in seams:
                name = f"{module_name.removeprefix('repro.')}.{dotted}"
                self.layer_of[name] = layer
                module = importlib.import_module(module_name)
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = owner.__dict__.get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, staticmethod):
                    self._swap(owner, attr, staticmethod(self._traced(raw.__func__, name)))
                elif owner_name:
                    self._swap(owner, attr, self._traced(raw, name))
                else:
                    # A module function: other modules hold it by name too
                    # (``from repro.tempi.translate import translate``).
                    wrapper = self._traced(raw, name)
                    for other in list(sys.modules.values()):
                        if getattr(other, "__name__", "").startswith("repro."):
                            for key, value in list(vars(other).items()):
                                if value is raw:
                                    self._swap(other, key, wrapper)
        self._install_captures()
        self._install_thread_roots()

    def _install_captures(self) -> None:
        from repro.machine.nic import NicTimeline
        from repro.tempi.interposer import InterposerStats

        def capturing(init, sink: list):
            @functools.wraps(init)
            def __init__(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                sink.append(obj)

            return __init__

        for cls, sink in ((NicTimeline, self.nics), (InterposerStats, self.stats)):
            self._swap(cls, "__init__", capturing(cls.__dict__["__init__"], sink))

    def _install_thread_roots(self) -> None:
        """Open a root span in every thread started while tracing, caused by
        the span that was open in the starting thread."""
        name_id = self._name_id(THREAD_SPAN)
        self.layer_of[THREAD_SPAN] = "apps.driver"
        start_thread = threading.Thread.start

        def start(thread: threading.Thread) -> None:
            parent_log = self._log()
            cause = (parent_log, parent_log.stack[-1]) if parent_log.stack else None
            run = thread.run

            def traced_run() -> None:
                log = self._local.log = _ThreadLog(cause)
                self._logs.append(log)
                with self._root_span(log, name_id):
                    run()

            thread.run = traced_run
            start_thread(thread)

        self._swap(threading.Thread, "start", start)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ reporting
    def columns(self) -> dict[str, np.ndarray]:
        """Every finished span as columns (written out when the run ends)."""
        rows = [
            (name_id, start, end, parent, block, thread)
            for thread, log in enumerate(self._logs)
            for name_id, start, end, parent, block in filter(None, log.spans)
        ]
        table = np.array(rows, dtype=np.float64).reshape(-1, 6)
        return {
            "name_id": table[:, 0].astype(np.int32),
            "start_s": table[:, 1],
            "end_s": table[:, 2],
            "parent": table[:, 3].astype(np.int32),
            "block": table[:, 4].astype(np.int32),
            "thread": table[:, 5].astype(np.int32),
            "names": np.array(self.names),
        }

    def totals(self) -> tuple[dict[str, LayerTotals], float]:
        """Per-layer call counts and self seconds of the spans inside blocks.

        Spans recorded before the first :meth:`block` (set-up, checks) are
        kept in :meth:`columns` but not counted here.

        Returns ``(layers, unclaimed_s)``; ``unclaimed_s`` is the self time of
        the harness's own :data:`BLOCK_SPAN` roots.
        """
        calls: dict[int, int] = defaultdict(int)
        self_s: dict[int, float] = defaultdict(float)
        #: (id of the causing log, span index) -> intervals of the threads it started
        covered: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
        for log in self._logs:
            if log.cause is not None and log.spans and log.spans[0] is not None:
                cause_log, cause_span = log.cause
                covered[(id(cause_log), cause_span)].append(log.spans[0][1:3])
        for log in self._logs:
            spans = log.spans
            child_s = [0.0] * len(spans)
            for span in spans:
                if span is not None and span[3] >= 0:
                    child_s[span[3]] += span[2] - span[1]
            for index, span in enumerate(spans):
                if span is None or span[4] == 0:
                    continue
                name_id, start, end = span[0], span[1], span[2]
                own = end - start - child_s[index]
                own -= _union_length(covered.get((id(log), index), ()), start, end)
                calls[name_id] += 1
                self_s[name_id] += own
        layers = {layer: LayerTotals(0, 0.0) for layer in LAYERS}
        unclaimed_s = 0.0
        for name_id, count in calls.items():
            name = self.names[name_id]
            if name == BLOCK_SPAN:
                unclaimed_s += self_s[name_id]
                continue
            layer = self.layer_of[name]
            before = layers[layer]
            layers[layer] = LayerTotals(before.calls + count, before.self_s + self_s[name_id])
        return layers, unclaimed_s


def _union_length(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    edge = low
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, high)
        if end > start:
            total += end - start
            edge = end
    return total

"""Trace replay: turn a recorded op/counts/peers schedule into a benchmark.

A *trace* is a JSON document describing a communication schedule rank-free:

.. code-block:: json

    {"version": 1, "nranks": 8, "ranks_per_node": 2, "ops": [
        {"op": "alltoallv", "counts": [[...]], "item_bytes": 2048, "item_pad": 64},
        {"op": "allreduce", "count": 4096, "dtype": "float32", "reduce": "sum"},
        {"op": "p2p", "edges": [[0, 1, 1]], "item_bytes": 65536, "item_pad": 64}
    ]}

:func:`replay_trace` runs the schedule on a fresh
:class:`~repro.mpi.world.World` through TEMPI's interposer and returns every
rank's priced clock, counter snapshot and receive-buffer digest — all
deterministic, so the same trace under the same config replays bit-identically
(``repro replay`` asserts exactly that across two runs).  Traces come from
:func:`repro.apps.moe.moe_trace`, :func:`repro.apps.pipeline.pipeline_trace`,
or any external recorder emitting the schema above; :func:`load_trace`
validates the document and names the offending record on any malformed field.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.gpu import kernels
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE, Datatype
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose

#: Trace-record ops :func:`replay_trace` understands.
TRACE_OPS = ("alltoallv", "allreduce", "p2p")

#: Elementary dtypes an ``allreduce`` record may name.
_ALLREDUCE_DTYPES = ("int8", "int32", "int64", "float32", "float64")

#: Tag space of replayed p2p edges (disjoint from apps and collectives).
_REPLAY_TAG_BASE = 4_000_000


class TraceError(ValueError):
    """A malformed trace document; the message names the offending record."""


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise TraceError(f"{where}: {message}")


def _check_pitched_item(record: dict, where: str) -> None:
    item_bytes = record.get("item_bytes")
    item_pad = record.get("item_pad")
    _require(
        isinstance(item_bytes, int) and item_bytes > 0 and item_bytes % 2 == 0,
        where, f"item_bytes must be a positive even integer, got {item_bytes!r}",
    )
    _require(
        isinstance(item_pad, int) and item_pad > 0 and item_pad % 2 == 0,
        where, f"item_pad must be a positive even integer, got {item_pad!r}",
    )


def _validate_record(record, index: int, nranks: int) -> None:
    where = f"ops[{index}]"
    _require(isinstance(record, dict), where, f"record must be an object, got {type(record).__name__}")
    op = record.get("op")
    _require(op in TRACE_OPS, where, f"unknown op {op!r}; expected one of {TRACE_OPS}")
    if op == "alltoallv":
        counts = record.get("counts")
        _require(
            isinstance(counts, list) and len(counts) == nranks
            and all(isinstance(row, list) and len(row) == nranks for row in counts),
            where, f"counts must be a {nranks}x{nranks} matrix",
        )
        _require(
            all(isinstance(c, int) and c >= 0 for row in counts for c in row),
            where, "counts entries must be non-negative integers",
        )
        _check_pitched_item(record, where)
    elif op == "allreduce":
        count = record.get("count")
        _require(isinstance(count, int) and count > 0, where,
                 f"count must be a positive integer, got {count!r}")
        dtype = record.get("dtype")
        _require(dtype in _ALLREDUCE_DTYPES, where,
                 f"dtype must be one of {_ALLREDUCE_DTYPES}, got {dtype!r}")
        reduce_op = record.get("reduce", "sum")
        _require(reduce_op in ("sum", "prod", "min", "max"), where,
                 f"reduce must be sum/prod/min/max, got {reduce_op!r}")
    else:  # p2p
        edges = record.get("edges")
        _require(isinstance(edges, list) and edges, where, "edges must be a non-empty list")
        # Checked inline, not by ``_require``: no call and no message per edge.
        for position, edge in enumerate(edges):
            if not (
                isinstance(edge, list) and len(edge) == 3
                and isinstance(edge[0], int) and isinstance(edge[1], int) and isinstance(edge[2], int)
            ):
                raise TraceError(f"{where}: edges[{position}] must be [src, dst, nitems] integers")
            src, dst, nitems = edge
            if not (0 <= src < nranks and 0 <= dst < nranks and src != dst):
                raise TraceError(f"{where}: edges[{position}] endpoints ({src}, {dst}) invalid for {nranks} ranks")
            if not nitems > 0:
                raise TraceError(f"{where}: edges[{position}] nitems must be positive, got {nitems}")
        _check_pitched_item(record, where)


def load_trace(source: Union[str, Path, dict]) -> dict:
    """Load and validate a trace document (path or already-parsed dict).

    Raises :class:`TraceError` naming the offending field or record index
    for any malformed document.
    """
    if isinstance(source, (str, Path)):
        try:
            trace = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise TraceError(f"{source}: not valid JSON ({exc})") from exc
    else:
        trace = source
    _require(isinstance(trace, dict), "trace", f"document must be an object, got {type(trace).__name__}")
    _require(trace.get("version") == 1, "trace", f"unsupported version {trace.get('version')!r}")
    nranks = trace.get("nranks")
    _require(isinstance(nranks, int) and nranks > 0, "trace",
             f"nranks must be a positive integer, got {nranks!r}")
    ranks_per_node = trace.get("ranks_per_node", 1)
    _require(isinstance(ranks_per_node, int) and ranks_per_node > 0, "trace",
             f"ranks_per_node must be a positive integer, got {ranks_per_node!r}")
    ops = trace.get("ops")
    _require(isinstance(ops, list), "trace", f"ops must be a list, got {type(ops).__name__}")
    for index, record in enumerate(ops):
        _validate_record(record, index, nranks)
    return trace


def _pitched_datatype(item_bytes: int, item_pad: int) -> Datatype:
    half = item_bytes // 2
    return Type_vector(2, half, half + item_pad // 2, BYTE)


def _replay_alltoallv(ctx, comm, record: dict, index: int, put, digest) -> None:
    counts = np.asarray(record["counts"], dtype=np.int64)
    datatype = comm.Type_commit(_pitched_datatype(record["item_bytes"], record["item_pad"]))
    extent = datatype.extent
    sends, recvs = counts[ctx.rank], counts[:, ctx.rank]
    sendcounts, recvcounts = sends.tolist(), recvs.tolist()
    # Exclusive prefix sums, in bytes: whole-array calls, no loop per peer.
    senddispls = ((sends.cumsum() - sends) * extent).tolist()
    recvdispls = ((recvs.cumsum() - recvs) * extent).tolist()
    send = ctx.gpu.malloc(max(1, sum(sendcounts) * extent))
    recv = ctx.gpu.malloc(max(1, sum(recvcounts) * extent))
    send.data[:] = (index + ctx.rank) % 251
    comm.Alltoallv(
        send, sendcounts, senddispls, recv, recvcounts, recvdispls,
        sendtypes=datatype, recvtypes=datatype,
    )
    put((None, digest, recv.data))


@functools.lru_cache(maxsize=8)
def _ramp(count: int, dtype: str) -> np.ndarray:
    """``arange(count) % 97`` as ``dtype``, read-only: every rank of every
    allreduce record of that shape fills from the one array."""
    ramp = (np.arange(count) % 97).astype(dtype)
    ramp.flags.writeable = False
    return ramp


def _replay_allreduce(ctx, comm, record: dict, index: int, put, digest) -> None:
    from repro.mpi import datatype as _datatype

    dtype = np.dtype(record["dtype"])
    named = {
        "int8": _datatype.CHAR,
        "int32": _datatype.INT,
        "int64": _datatype.INT64,
        "float32": _datatype.FLOAT,
        "float64": _datatype.DOUBLE,
    }[record["dtype"]]
    count = record["count"]
    nbytes = count * dtype.itemsize
    send = ctx.gpu.malloc(nbytes)
    recv = ctx.gpu.malloc(nbytes)
    # At most 96 + 6: exact in every dtype a record may name, int8 included.
    np.add(_ramp(count, record["dtype"]), (ctx.rank + index) % 7, out=send.data[:nbytes].view(dtype))
    comm.Allreduce((send, count, named), (recv, count, named), record.get("reduce", "sum"))
    put((None, digest, recv.data))


def _replay_p2p(ctx, comm, record: dict, index: int, put, digest) -> None:
    datatype = comm.Type_commit(_pitched_datatype(record["item_bytes"], record["item_pad"]))
    extent = datatype.extent
    requests = []
    for position, (src, dst, nitems) in enumerate(record["edges"]):
        tag = _REPLAY_TAG_BASE + index * 1000 + position
        if ctx.rank == dst:
            recv = ctx.gpu.malloc(nitems * extent)
            requests.append((comm.Irecv((recv, nitems, datatype), src, tag), recv))
        if ctx.rank == src:
            send = ctx.gpu.malloc(nitems * extent)
            send.data[:] = (index + position + src) % 251
            requests.append((comm.Isend((send, nitems, datatype), dst, tag), None))
    for request, recv in requests:
        request.Wait()
        if recv is not None:
            put((None, digest, recv.data))


_REPLAYERS = {
    "alltoallv": _replay_alltoallv,
    "allreduce": _replay_allreduce,
    "p2p": _replay_p2p,
}


@dataclass(frozen=True)
class ReplayResult:
    """One replay run's observables (per-rank lists, rank order)."""

    nranks: int
    ops: int
    clocks: list
    stats: list
    digests: list

    @property
    def completion_s(self) -> float:
        """The schedule's completion: the slowest rank's priced clock."""
        return max(self.clocks)


def replay_trace(
    source: Union[str, Path, dict],
    *,
    model,
    config: Optional[TempiConfig] = None,
    topology=None,
) -> ReplayResult:
    """Replay a trace on a fresh :class:`World` and report priced clocks.

    Deterministic: the same trace under the same config returns bit-identical
    clocks, counters and digests on every run.
    """
    trace = load_trace(source)
    # Each receive buffer's digest update runs on the kernels' helper, off
    # the run token; the replay never writes a buffer it has queued.
    jobs = kernels.digest_jobs()
    put = jobs.put

    def program(ctx):
        cfg = config if config is not None else TempiConfig()
        comm = interpose(ctx, cfg, model=model)
        digest = hashlib.sha256()
        for index, record in enumerate(trace["ops"]):
            _REPLAYERS[record["op"]](ctx, comm, record, index, put, digest)
        stats = comm.stats
        snapshot = {
            "collective_hits": stats.collective_hits,
            "collective_fallbacks": stats.collective_fallbacks,
            "plans_built": stats.plans_built,
            "contention_stalls": stats.contention_stalls,
            "ingest_stalls": stats.ingest_stalls,
            "sends": stats.sends,
            "recvs": stats.recvs,
        }
        return ctx.clock.now, snapshot, digest

    kwargs = {"ranks_per_node": trace["ranks_per_node"]}
    if topology is not None:
        kwargs["topology"] = topology
    try:
        rows = World(trace["nranks"], **kwargs).run(program)
    finally:
        kernels.drain_digests(jobs)
    return ReplayResult(
        nranks=trace["nranks"],
        ops=len(trace["ops"]),
        clocks=[row[0] for row in rows],
        stats=[row[1] for row in rows],
        digests=[row[2].hexdigest() for row in rows],
    )

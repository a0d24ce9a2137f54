"""Pipeline-parallel p2p chain driver (forward activation relay).

Pipeline parallelism places consecutive model stages on consecutive ranks
and relays each microbatch's activations stage-to-stage: rank ``r`` receives
microbatch ``m`` from ``r-1``, "computes", and forwards to ``r+1``.  The
communication skeleton is a chain of typed nonblocking p2p messages whose
steady state keeps every link busy and whose fill/drain ramp costs
``(stages - 1)`` extra hops — the classic pipeline-depth latency the
analytic twin :func:`repro.apps.exchange_model.model_pipeline_chain` prices.

The activation is described as a pitched two-block vector (same shape as the
MoE token rows), so the interposer compiles each hop to a
:class:`~repro.tempi.plan.MessagePlan` and the hops land on the shared NIC
ledgers.  :func:`pipeline_trace` records the schedule for
:mod:`repro.apps.replay`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose

#: Tag space of the microbatch relay, disjoint from the halo-direction tags
#: (2_000_000) and far below the collective range (1_000_000_000).
_MICROBATCH_TAG_BASE = 3_000_000


@dataclass(frozen=True)
class PipelineSpec:
    """One forward pass of a pipeline-parallel schedule."""

    #: Microbatches relayed through the chain per pass.
    microbatches: int = 4
    #: Payload bytes of one microbatch's activation (must be even).
    activation_bytes: int = 1 << 16
    #: Pitch padding (must be even and positive — keeps the datatype
    #: non-contiguous, i.e. on TEMPI's plan path).
    activation_pad: int = 64
    #: Seed stamped into the activation payload.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.microbatches <= 0:
            raise ValueError(f"microbatches must be positive, got {self.microbatches}")
        if self.activation_bytes <= 0 or self.activation_bytes % 2:
            raise ValueError(
                f"activation_bytes must be positive and even, got {self.activation_bytes}"
            )
        if self.activation_pad <= 0 or self.activation_pad % 2:
            raise ValueError(
                f"activation_pad must be positive and even, got {self.activation_pad}"
            )


def activation_datatype(spec: PipelineSpec):
    """One activation as a pitched two-block vector (non-contiguous)."""
    half = spec.activation_bytes // 2
    return Type_vector(2, half, half + spec.activation_pad // 2, BYTE)


def microbatch_tag(microbatch: int) -> int:
    """The message tag microbatch ``microbatch`` travels under."""
    return _MICROBATCH_TAG_BASE + microbatch


@dataclass(frozen=True)
class PipelineResult:
    """One forward pass's observables (per-rank lists, rank order)."""

    clocks: list
    digests: list

    @property
    def completion_s(self) -> float:
        """The pass's completion: the last stage's priced clock."""
        return max(self.clocks)


def run_pipeline(
    nranks: int,
    spec: PipelineSpec,
    *,
    model,
    config: TempiConfig | None = None,
    ranks_per_node: int = 2,
    topology=None,
) -> PipelineResult:
    """Relay ``spec.microbatches`` activations through an ``nranks`` chain.

    Stage 0 sources each microbatch (payload stamped from ``spec.seed``),
    interior stages receive-then-forward, the last stage sinks.  Each hop is
    a typed ``Isend``/``Irecv`` pair waited in microbatch order, so the wire
    pipeline fills and drains exactly as the analytic twin prices it.
    Deterministic — two identical calls return bit-identical clocks.
    """

    def program(ctx):
        cfg = config if config is not None else TempiConfig()
        comm = interpose(ctx, cfg, model=model)
        datatype = comm.Type_commit(activation_datatype(spec))
        extent = datatype.extent
        buffer = ctx.gpu.malloc(max(1, spec.microbatches * extent))
        half = spec.activation_bytes // 2
        stride = half + spec.activation_pad // 2
        if ctx.rank == 0:
            for microbatch in range(spec.microbatches):
                value = (spec.seed + microbatch) % 251
                base = microbatch * extent
                buffer.data[base : base + half] = value
                buffer.data[base + stride : base + stride + half] = value
        for microbatch in range(spec.microbatches):
            view = buffer.view(microbatch * extent) if microbatch else buffer
            spec_tuple = (view, 1, datatype)
            if ctx.rank > 0:
                comm.Recv(spec_tuple, ctx.rank - 1, microbatch_tag(microbatch))
            if ctx.rank < ctx.size - 1:
                comm.Isend(spec_tuple, ctx.rank + 1, microbatch_tag(microbatch)).Wait()
        return ctx.clock.now, hashlib.sha256(buffer.data.tobytes()).hexdigest()

    kwargs = {"ranks_per_node": ranks_per_node}
    if topology is not None:
        kwargs["topology"] = topology
    rows = World(nranks, **kwargs).run(program)
    return PipelineResult(clocks=[row[0] for row in rows], digests=[row[1] for row in rows])


def pipeline_trace(spec: PipelineSpec, nranks: int, *, ranks_per_node: int = 2) -> dict:
    """The forward pass as a replayable trace (:mod:`repro.apps.replay`)."""
    return {
        "version": 1,
        "nranks": nranks,
        "ranks_per_node": ranks_per_node,
        "ops": [
            {
                "op": "p2p",
                "edges": [[rank, rank + 1, 1] for rank in range(nranks - 1)],
                "item_bytes": spec.activation_bytes,
                "item_pad": spec.activation_pad,
            }
            for _ in range(spec.microbatches)
        ],
    }

"""Machine specifications.

A :class:`MachineSpec` is a plain-data description of the cluster the
simulated MPI runs on: how many GPUs and ranks fit on a node, and the
latency/bandwidth of each communication path.  The :data:`SUMMIT` preset uses
the numbers published for OLCF Summit and the floors the paper itself reports
in Fig. 9a (≈1.3 µs CPU-CPU, ≈6 µs GPU-GPU small-message latency); everything
downstream (network model, performance model, benchmarks) reads this object
rather than hard-coding constants, so alternative machines are one dataclass
away.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.gpu.cost_model import SUMMIT_GPU, GpuCostModel


@dataclass(frozen=True)
class InterconnectSpec:
    """One communication path: a latency floor plus a bandwidth.

    ``per_message_overhead`` models software costs charged per message on top
    of the wire latency (matching engine, CUDA-awareness checks, etc.).
    """

    name: str
    latency_s: float
    bandwidth_Bps: float
    per_message_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.per_message_overhead_s < 0:
            raise ValueError(f"{self.name}: latencies must be non-negative")
        if self.bandwidth_Bps <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")

    def transfer_time(self, nbytes: int) -> float:
        """Postal-model time for ``nbytes``: latency + size/bandwidth."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return self.latency_s + self.per_message_overhead_s + nbytes / self.bandwidth_Bps


@dataclass(frozen=True)
class NodeSpec:
    """Resources of one node."""

    cpus: int = 2
    gpus: int = 6
    cores_per_cpu: int = 21
    gpu: GpuCostModel = SUMMIT_GPU
    #: CPU-GPU link used by cudaMemcpy and zero-copy traffic (NVLink 2 on Summit).
    cpu_gpu: InterconnectSpec = field(
        default_factory=lambda: InterconnectSpec("nvlink2-cpu-gpu", 8.0e-6, 45.0e9)
    )
    #: GPU-GPU link within a node (NVLink 2).
    gpu_gpu: InterconnectSpec = field(
        default_factory=lambda: InterconnectSpec("nvlink2-gpu-gpu", 7.0e-6, 47.0e9)
    )
    #: CPU shared-memory path between ranks on the same node.
    intra_cpu: InterconnectSpec = field(
        default_factory=lambda: InterconnectSpec("shared-memory", 0.9e-6, 30.0e9)
    )


@dataclass(frozen=True)
class MachineSpec:
    """A cluster: identical nodes joined by an inter-node network."""

    name: str
    node: NodeSpec = field(default_factory=NodeSpec)
    #: Inter-node CPU-to-CPU path (EDR InfiniBand via Spectrum MPI on Summit).
    inter_cpu: InterconnectSpec = field(
        default_factory=lambda: InterconnectSpec("edr-ib-cpu", 1.3e-6, 12.0e9)
    )
    #: Inter-node GPU-to-GPU path (CUDA-aware MPI, GPUDirect).  The latency
    #: floor is markedly higher than the CPU path (Fig. 9a).
    inter_gpu: InterconnectSpec = field(
        default_factory=lambda: InterconnectSpec("edr-ib-gpu", 6.0e-6, 10.5e9, 0.5e-6)
    )
    #: Message size at which the MPI switches from eager to rendezvous.
    eager_threshold: int = 64 * 1024
    #: Additional latency of the rendezvous handshake.
    rendezvous_overhead_s: float = 1.6e-6
    max_nodes: int = 4608


def summit_like(
    *,
    gpu: GpuCostModel | None = None,
    inter_cpu: InterconnectSpec | None = None,
    inter_gpu: InterconnectSpec | None = None,
    eager_threshold: int | None = None,
) -> MachineSpec:
    """Build a Summit-like machine, optionally overriding selected paths."""
    node = NodeSpec(gpu=gpu if gpu is not None else SUMMIT_GPU)
    spec = MachineSpec(name="summit-like", node=node)
    overrides = {}
    if inter_cpu is not None:
        overrides["inter_cpu"] = inter_cpu
    if inter_gpu is not None:
        overrides["inter_gpu"] = inter_gpu
    if eager_threshold is not None:
        overrides["eager_threshold"] = eager_threshold
    return replace(spec, **overrides) if overrides else spec


#: The default machine used throughout the benchmarks: OLCF-Summit-like.
SUMMIT = summit_like()

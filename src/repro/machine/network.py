"""Network cost model.

The simulated MPI prices every message with this model.  It follows the
postal/alpha-beta family the paper cites (Bar-Noy & Kipnis; Bienz et al.):
a latency floor, a bandwidth term, an eager→rendezvous switch, and — because
CUDA-awareness matters enormously here — different constants for host-resident
and device-resident buffers, and for intra- versus inter-node endpoints.

Fig. 9a of the paper is, essentially, a direct measurement of four of this
model's curves (``T_cpu-cpu``, ``T_gpu-gpu``, ``T_d2h``, ``T_h2d``); the
benchmark ``bench_fig09_transfers.py`` regenerates them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.machine.spec import SUMMIT, InterconnectSpec, MachineSpec
from repro.machine.topology import Topology


#: Fraction of a message's serial wire time that occupies the NIC when
#: transfers to distinct peers overlap: the port occupancy
#: :class:`~repro.machine.nic.NicTimeline` books per message
#: (``wire_overlap``), which prices every TEMPI schedule and analytic twin,
#: and the discount of :meth:`NetworkModel.alltoallv_time`, which prices the
#: system library's all-to-all-v alone.
DEFAULT_WIRE_OVERLAP = 0.65


class TransferPath(enum.Enum):
    """Which physical path a message takes."""

    INTRA_CPU = "intra_cpu"
    INTRA_GPU = "intra_gpu"
    INTER_CPU = "inter_cpu"
    INTER_GPU = "inter_gpu"


@dataclass(frozen=True)
class MessageCost:
    """Breakdown of one message's cost."""

    path: TransferPath
    nbytes: int
    latency_s: float
    bandwidth_s: float
    rendezvous_s: float

    @property
    def total_s(self) -> float:
        return self.latency_s + self.bandwidth_s + self.rendezvous_s


class NetworkModel:
    """Prices point-to-point messages on a :class:`MachineSpec`."""

    def __init__(self, machine: MachineSpec = SUMMIT) -> None:
        self.machine = machine
        node = machine.node
        #: ``(same_node, device_buffers)`` -> the path a message takes and
        #: the interconnect that prices it; both are fixed by the machine.
        self._routes: dict[tuple[bool, bool], tuple[TransferPath, InterconnectSpec]] = {
            (True, False): (TransferPath.INTRA_CPU, node.intra_cpu),
            (True, True): (TransferPath.INTRA_GPU, node.gpu_gpu),
            (False, False): (TransferPath.INTER_CPU, machine.inter_cpu),
            (False, True): (TransferPath.INTER_GPU, machine.inter_gpu),
        }

    # ----------------------------------------------------------------- paths
    def path(self, *, same_node: bool, device_buffers: bool) -> TransferPath:
        """Select the transfer path for a message."""
        return self._routes[same_node, device_buffers][0]

    # -------------------------------------------------------------- messages
    def message_cost(
        self,
        nbytes: int,
        *,
        same_node: bool = False,
        device_buffers: bool = False,
    ) -> MessageCost:
        """Cost of one matched send/recv pair carrying ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        path, link = self._routes[same_node, device_buffers]
        rendezvous = (
            self.machine.rendezvous_overhead_s if nbytes > self.machine.eager_threshold else 0.0
        )
        return MessageCost(
            path=path,
            nbytes=nbytes,
            latency_s=link.latency_s + link.per_message_overhead_s,
            bandwidth_s=nbytes / link.bandwidth_Bps,
            rendezvous_s=rendezvous,
        )

    def message_time(
        self,
        nbytes: int,
        *,
        same_node: bool = False,
        device_buffers: bool = False,
    ) -> float:
        """Total time of one message (Fig. 9a): ``message_cost(...).total_s``, bit for bit."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        link = self._routes[same_node, device_buffers][1]
        machine = self.machine
        rendezvous = machine.rendezvous_overhead_s if nbytes > machine.eager_threshold else 0.0
        return link.latency_s + link.per_message_overhead_s + nbytes / link.bandwidth_Bps + rendezvous

    # ------------------------------------------------------------ collectives
    def alltoallv_time(
        self,
        per_pair_bytes: list[int],
        topology: Topology,
        rank: int,
        *,
        device_buffers: bool = False,
    ) -> float:
        """Approximate time rank ``rank`` spends in the system all-to-all-v.

        The exchanges to distinct peers partially overlap on the NIC;
        :data:`DEFAULT_WIRE_OVERLAP` discounts the serial sum accordingly.
        """
        if len(per_pair_bytes) != topology.nranks:
            raise ValueError("per_pair_bytes must have one entry per rank")
        serial = 0.0
        for peer, nbytes in enumerate(per_pair_bytes):
            if peer == rank or nbytes == 0:
                continue
            serial += self.message_time(
                nbytes,
                same_node=topology.same_node(rank, peer),
                device_buffers=device_buffers,
            )
        return serial * DEFAULT_WIRE_OVERLAP

    def d2h_time(self, nbytes: int) -> float:
        """Bulk device→host copy time (the ``T_d2h`` curve of Fig. 9a)."""
        link = self.machine.node.cpu_gpu
        return link.transfer_time(nbytes)

    def h2d_time(self, nbytes: int) -> float:
        """Bulk host→device copy time (the ``T_h2d`` curve of Fig. 9a)."""
        link = self.machine.node.cpu_gpu
        return link.transfer_time(nbytes)

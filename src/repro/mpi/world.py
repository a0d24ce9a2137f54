"""The SPMD runner.

:class:`World` plays the role of ``mpiexec``: it builds one simulated process
per rank — a virtual clock, a simulated GPU, a communicator — and runs the
same Python function on every rank in its own thread.  Tests and examples use
it to execute real multi-rank programs (halo exchanges, ping-pongs) whose
bytes genuinely move between ranks, while the per-rank virtual clocks report
latencies from the machine's cost models.  The threads take turns: one rank
runs at a time, holding the router's run token (see :mod:`repro.mpi.p2p`)
until it blocks in a receive or a barrier, polls and misses, or returns —
so a rank must never block on a private primitive or ``time.sleep``.

Large-scale experiments (the 3072-rank points of Fig. 12) do not spawn 3072
threads; they use the analytic :mod:`repro.apps.exchange_model` instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import monotonic
from typing import Callable, Optional, Sequence

from repro.gpu.clock import VirtualClock
from repro.gpu.device import Device
from repro.gpu.runtime import CudaRuntime
from repro.machine.network import NetworkModel
from repro.machine.nic import NicTimeline
from repro.machine.spec import SUMMIT, MachineSpec
from repro.machine.topology import Topology, TopologySpec
from repro.mpi.communicator import Communicator
from repro.mpi.errors import MpiError
from repro.mpi.p2p import MessageRouter
from repro.mpi.request import Request


@dataclass
class ProcessContext:
    """Everything one simulated rank can see."""

    rank: int
    size: int
    comm: Communicator
    gpu: CudaRuntime
    clock: VirtualClock
    topology: Topology
    machine: MachineSpec
    world: "World"


class WorldError(MpiError):
    """A rank raised inside :meth:`World.run`; carries the original errors."""

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = failures
        summary = "; ".join(f"rank {rank}: {exc!r}" for rank, exc in sorted(failures.items()))
        super().__init__(f"{len(failures)} rank(s) failed: {summary}")


def _left_open(rank: int, leaked: list, open_sends: int) -> str:
    """The exit report of a rank that returned with requests still open."""
    parts = []
    if leaked:
        parts.append(f"persistent requests started and never completed: {leaked}")
    if open_sends:
        parts.append(f"{open_sends} one-shot send request(s) never completed")
    return f"rank {rank} returned with " + " and ".join(parts)


class World:
    """A set of simulated ranks sharing a message router and a machine."""

    def __init__(
        self,
        nranks: int,
        *,
        ranks_per_node: int = 1,
        machine: MachineSpec = SUMMIT,
        topology: Optional[TopologySpec] = None,
    ) -> None:
        if nranks <= 0:
            raise MpiError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self.machine = machine
        #: ``topology=`` overlays a hierarchical shape (islands, rails,
        #: fat-tree) on the block placement; its ``ranks_per_node`` wins.
        self.topology = Topology(
            nranks, ranks_per_node=ranks_per_node, machine=machine, spec=topology
        )
        self.network = NetworkModel(machine)
        #: The shared virtual NIC: one injection port per rank, one occupancy
        #: ledger per link, reserved by the TEMPI progress engine so that
        #: concurrent plans contend for the wire (``TempiConfig(progress=...)``).
        self.nic = NicTimeline()
        self.router = MessageRouter(nranks)
        self.nic.runner = self.router.token_holder
        self.contexts: list[ProcessContext] = []
        for rank in range(nranks):
            clock = VirtualClock()
            placement = self.topology.placement(rank)
            runtime = CudaRuntime(clock=clock, cost_model=machine.node.gpu, device=Device(placement.gpu))
            comm = Communicator(
                rank,
                nranks,
                self.router,
                runtime,
                self.network,
                self.topology,
                context=0,
                world=self,
            )
            self.contexts.append(
                ProcessContext(
                    rank=rank,
                    size=nranks,
                    comm=comm,
                    gpu=runtime,
                    clock=clock,
                    topology=self.topology,
                    machine=machine,
                    world=self,
                )
            )
        self.router.clocks = [ctx.clock for ctx in self.contexts]
        # One barrier phase, guarded by ``router.lock``: arrivals fold their
        # time into ``_barrier_latest``; the last one publishes the result and
        # opens the next generation.
        self._barrier_generation = 0
        self._barrier_count = 0
        self._barrier_latest = float("-inf")
        self._barrier_result = 0.0

    # ----------------------------------------------------------------- running
    def run(
        self,
        fn: Callable[..., object],
        *args,
        timeout: float = 300.0,
    ) -> list[object]:
        """Run ``fn(ctx, *args)`` on every rank; returns per-rank results.

        Ranks run one at a time, in the deterministic order of the router's
        run token.  Any exception raised by a rank aborts the whole world
        (waking blocked receivers and barrier waiters) and is re-raised as
        :class:`WorldError`; so is a deadlock, the moment every unfinished
        rank is blocked, with each rank's error naming what it waited for,
        and a rank that returns with persistent requests still active (their
        peers and tags) or one-shot sends never completed (their count), on
        its communicator or any ``Dup`` of it, and a run that leaves a
        message no rank received, with its source, destination, tag and
        context.
        ``timeout`` bounds the wall-clock wait for the whole run.
        """
        results: list[object] = [None] * self.nranks
        failures: dict[int, BaseException] = {}
        router = self.router

        def target(ctx: ProcessContext) -> None:
            router.enter(ctx.rank)
            try:
                results[ctx.rank] = fn(ctx, *args)
                leaked = ctx.comm.requests and Request.active(ctx.comm.requests)
                if leaked or ctx.comm.open_sends:
                    raise MpiError(_left_open(ctx.rank, leaked, ctx.comm.open_sends))
            except BaseException as exc:  # noqa: BLE001 - propagate to the caller
                failures[ctx.rank] = exc
                router.shutdown()
            finally:
                router.retire(ctx.rank)

        # Ranks leave a run only between barrier phases, so a phase still
        # open here is a failed run's: this run starts its own.
        self._barrier_count, self._barrier_latest = 0, float("-inf")
        threads = [threading.current_thread()] if self.nranks == 1 else [
            threading.Thread(target=target, args=(ctx,), name=f"rank-{ctx.rank}", daemon=True)
            for ctx in self.contexts
        ]
        router.launch(threads)
        if self.nranks == 1:
            target(self.contexts[0])
        else:
            for thread in threads:
                thread.start()
            deadline = monotonic() + timeout  # simlint: disable=SIM001 -- host-side join deadline, never priced
            for thread in threads:
                thread.join(max(0.0, deadline - monotonic()))  # simlint: disable=SIM001 -- same deadline
            if any(thread.is_alive() for thread in threads):
                router.shutdown()
                raise MpiError(
                    f"world of {self.nranks} ranks did not finish within {timeout}s "
                    f"(a rank is stuck outside the router, or polls for a message "
                    f"that never comes)"
                )
        if failures:
            raise WorldError(failures)
        if router.messages_posted != router.messages_received:
            raise WorldError({
                dest: MpiError(
                    f"rank {dest} never received "
                    + ", ".join(
                        f"(source={e.source}, dest={dest}, tag={e.tag}, context={e.context})"
                        for e in envelopes
                    )
                )
                for dest, envelopes in router.undelivered().items()
            })
        return results

    # ----------------------------------------------------------------- barrier
    def barrier_wait(self, rank: int, time: float) -> float:
        """Fold in ``rank``'s time, wait for every rank, return the global maximum.

        A waiter gives up the run token; the last arrival publishes the
        maximum, opens the next generation and wakes the others in rank
        order.  The published value outlives the phase safely: the next
        barrier cannot complete before every rank has returned from this one.
        """
        if self.nranks == 1:
            return time
        router = self.router
        with router.lock:
            if router.stopped:
                raise router.stop_error(rank, "barrier")
            self._barrier_latest = max(self._barrier_latest, time)
            self._barrier_count += 1
            if self._barrier_count == self.nranks:
                self._barrier_result = self._barrier_latest
                self._barrier_latest = float("-inf")
                self._barrier_count = 0
                self._barrier_generation += 1
                for other in range(self.nranks):
                    if other != rank:
                        router.wake(other)
            else:
                generation = self._barrier_generation
                while generation == self._barrier_generation:
                    if router.stopped:
                        raise router.stop_error(rank, "barrier")
                    router.block(rank)
            return self._barrier_result

    # --------------------------------------------------------------- inspection
    @property
    def clocks(self) -> list[float]:
        """Current virtual time of every rank."""
        return [ctx.clock.now for ctx in self.contexts]

    def max_clock(self) -> float:
        """Latest virtual time across all ranks (a run's makespan)."""
        return max(self.clocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<World {self.nranks} ranks on {self.topology.nnodes} nodes>"

"""Point-to-point message transport and the rank scheduler.

The :class:`MessageRouter` is the shared mailbox of one :class:`~repro.mpi.world.World`:
sending ranks post :class:`Envelope` objects, receiving ranks block until a
matching one arrives.  Matching follows MPI rules — ``(source, tag,
communicator)`` with wildcards, FIFO per (source, communicator) pair, which
holds because a mailbox lists its envelopes in post order — and every
envelope carries the *virtual* time at which its payload becomes
available at the destination, so receivers can advance their clocks
consistently regardless of the order in which the rank threads run.

It is also where rank threads take turns.  The ranks a ``World.run`` launches
share one **run token**: a rank executes only while it holds it and gives it
up only where it would block anyway — a :meth:`~MessageRouter.receive` with
no match, the world's barrier (:meth:`~MessageRouter.block`), a
:meth:`~MessageRouter.probe` that finds nothing (a yield, so a ``Test`` poll
loop cannot starve the rank it waits for) and rank exit.  The token goes to
the rank that became runnable first (rank order at start), and a post wakes
only the destination rank, and only when the envelope matches what it waits
for.  A virtual-time simulator gains nothing from host concurrency — free
-running rank threads only convoy on the GIL — and the fixed hand-off order
makes a threaded run repeat exactly.

Only the token holder posts, receives and probes, so a post, a receive that
matches at once and a probe that hits take no lock; ``lock`` guards the
hand-off alone (the waits, the dispatch, the world's barrier), where the
rank giving the token up and the one taking it both run for a moment.
Outside a ``World.run`` no rank could wake a waiter, so a receive or a
barrier that would block there fails at once, naming the rank.

The token moves through one **baton** per rank: a ``threading.Lock`` held
from the start, which :meth:`~MessageRouter._dispatch` releases to hand the
rank the token and the rank acquires to take it.  A hand-off is one release
and one acquire — a ``threading.Condition`` wait and notify are pure Python
and cost twice the calls — and every release is matched by exactly one
acquire, so no baton is ever left released for a later wait to fall through.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.gpu.clock import VirtualClock
from repro.mpi.errors import MpiCommError
from repro.mpi.status import ANY_SOURCE, ANY_TAG


@dataclass(eq=False)
class Envelope:
    """One in-flight message (compared by identity: payloads are arrays).

    Its size is ``payload.nbytes``, read where it is needed."""

    source: int
    dest: int
    tag: int
    context: int
    payload: np.ndarray
    available_at: float
    device: bool
    #: Receive-side NIC identity (duplex accounting): the serial wire seconds
    #: this message occupies, the virtual time it entered the wire, and its
    #: per-source sequence number.  ``wire_s <= 0`` (system-path and serial
    #: -engine messages) opts the envelope out of ingestion-port pricing.
    wire_s: float = field(default=0.0)
    post_time: float = field(default=0.0)
    source_seq: int = field(default=-1)


class MessageRouter:
    """The mailboxes shared by all ranks of a world, and their run token."""

    def __init__(self, nranks: int) -> None:
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self._mailboxes: dict[int, list[Envelope]] = {rank: [] for rank in range(nranks)}
        #: Guards the hand-off and the world's barrier state, for short
        #: critical sections only (the *token* is ``_running``, not this lock).
        self.lock = threading.Lock()
        #: One baton per rank, held while the rank may not run: a release
        #: wakes the rank, its acquire is the rank's wait.
        self._batons = [threading.Lock() for _ in range(nranks)]
        for baton in self._batons:
            baton.acquire()
        self.stopped = False
        self._deadlocked = False
        self.messages_posted = 0
        #: Envelopes taken by a receive: ``messages_posted`` minus this is
        #: what the mailboxes hold, without a call to count them.
        self.messages_received = 0
        #: Blocked ranks -> the ``(source, tag, context)`` they wait to
        #: receive (``None``: blocked on something no post can satisfy).
        self._waiting: dict[int, Optional[tuple[int, int, int]]] = {}
        #: The run token: the unfinished ranks of the current ``World.run``,
        #: the one executing, and those ready to, in the order they became so.
        self._scheduled: set[int] = set()
        self._running: Optional[int] = None
        self._runnable: deque[int] = deque()
        #: Launched rank threads that have reached :meth:`enter`, and each
        #: rank's host thread in the current run.
        self._entered = 0
        self._threads: Sequence[threading.Thread] = ()
        #: Each rank's clock (handed over by the ``World``) and the ranks
        #: parked in :meth:`await_key` with their keys: the ranks' bounds.
        self.clocks: list[VirtualClock] = []
        self._parked: dict[int, float] = {}
        #: Each rank's ``(messages_posted, clock)`` at its last probe miss,
        #: and the ranks suspended in a miss that repeats it (a spin: only
        #: another rank's post can end it) with the post count they saw.
        self._missed: dict[int, tuple[int, float]] = {}
        self._spinning: dict[int, int] = {}

    # ------------------------------------------------------------------- post
    def post(self, envelope: Envelope) -> None:
        """Deliver an envelope to the destination mailbox, waking the
        destination rank if this is the message it is blocked on (the token
        holder's call: no lock)."""
        dest = envelope.dest
        if not (0 <= dest < self.nranks):
            raise MpiCommError(f"destination rank {dest} outside world of {self.nranks}")
        if self.stopped:
            raise MpiCommError("message posted after world shutdown")
        self._mailboxes[dest].append(envelope)
        self.messages_posted += 1
        if dest in self._waiting:
            awaited = self._waiting[dest]
            if awaited is not None and self._matches(envelope, *awaited):
                self.wake(dest)

    # ------------------------------------------------------------------ match
    @staticmethod
    def _matches(envelope: Envelope, source: int, tag: int, context: int) -> bool:
        if envelope.context != context:
            return False
        if source != ANY_SOURCE and envelope.source != source:
            return False
        if tag != ANY_TAG and envelope.tag != tag:
            return False
        return True

    def _find(self, rank: int, source: int, tag: int, context: int) -> Optional[int]:
        """Mailbox index of the oldest matching envelope (a mailbox lists
        its envelopes in post order, so the first match is the oldest)."""
        any_source = source == ANY_SOURCE
        any_tag = tag == ANY_TAG
        for index, envelope in enumerate(self._mailboxes[rank]):
            # :meth:`_matches`, spelled inline: this scan runs per mailbox
            # entry per receive, and a call per entry was a tenth of the
            # router's cost.
            if (
                envelope.context == context
                and (any_source or envelope.source == source)
                and (any_tag or envelope.tag == tag)
            ):
                return index
        return None

    def receive(self, rank: int, source: int, tag: int, context: int) -> Envelope:
        """Block until a matching envelope is available; remove and return it.

        A match found at once takes no lock.  Otherwise the rank gives up
        the run token while it waits, and a wait no rank is left to end is
        reported at once as a deadlock; outside a ``World.run`` the wait
        fails at once (:meth:`block`).
        """
        if not (0 <= rank < self.nranks):
            raise MpiCommError(f"rank {rank} outside world of {self.nranks}")
        index = self._find(rank, source, tag, context)
        if index is None:
            waited_for = f"receive(source={source}, tag={tag}, context={context})"
            with self.lock:
                while index is None:
                    if self.stopped:
                        raise self.stop_error(rank, waited_for)
                    self.block(rank, (source, tag, context), waited_for)
                    index = self._find(rank, source, tag, context)
        self.messages_received += 1
        mailbox = self._mailboxes[rank]
        envelope = mailbox[index]
        del mailbox[index]  # not ``pop``, a call per receive
        return envelope

    def probe(self, rank: int, source: int, tag: int, context: int) -> Optional[Envelope]:
        """Nonblocking check for a matching envelope (not removed).

        A miss passes the run token round once before returning, so a
        ``Test`` poll loop lets the rank it is waiting for run.  A miss with
        no post anywhere and no move of the rank's clock since its previous
        miss marks the rank spinning while it waits for the token, so a
        rank parked in :meth:`await_key` does not wait on it.  A hit takes
        no lock.
        """
        index = self._find(rank, source, tag, context)
        if index is not None:
            return self._mailboxes[rank][index]
        if self._running == rank and self._runnable:
            with self.lock:
                missed, mark = self._missed, (self.messages_posted, self.clocks[rank].now)
                spin = rank in missed and missed[rank] == mark
                missed[rank] = mark
                if spin:
                    self._spinning[rank] = mark[0]
                self._runnable.append(rank)
                self._pass_token(rank)
                if spin:
                    del self._spinning[rank]
        return None

    def await_key(self, rank: int, time: float) -> None:
        """Wait, holding the run token, until this rank's commit is least by key.

        A commit to a shared NIC rail or uplink bundle is keyed ``(time,
        rank)``.  The wait returns once no other unfinished rank that is
        neither blocked nor spinning in :meth:`probe` since the last post
        has a bound below that key: its parked key, or else its clock
        (``docs/ARCHITECTURE.md`` § Determinism says why that is a bound).
        Until then the rank parks with its key and passes the token round,
        as a missed :meth:`probe` does.  Threads outside ``World.run`` and
        1-rank worlds return at once.
        """
        if self._running != rank or self.nranks == 1:
            return
        key = (time, rank)
        clocks, parked, waiting, spinning = self.clocks, self._parked, self._waiting, self._spinning
        with self.lock:
            while not self.stopped:
                for other in self._scheduled:
                    if other != rank and other not in waiting and (
                        other not in spinning or spinning[other] != self.messages_posted
                    ) and (parked[other] if other in parked else clocks[other].now, other) < key:
                        break
                else:
                    break
                parked[rank] = time
                self._runnable.append(rank)
                self._pass_token(rank)
            parked.pop(rank, None)

    # -------------------------------------------------------------- run token
    def launch(self, threads: Sequence[threading.Thread]) -> None:
        """Schedule every rank for one ``World.run``, in rank order, on its
        host thread in ``threads``; the token is first handed out once every
        rank thread is in :meth:`enter`.

        A run starts unstopped: a previous run's deadlock or failure stopped
        that run, not the router.  A failed run's undelivered envelopes stay
        for the next run to receive; a run that succeeds leaves none, or
        ``World.run`` fails it naming them (:meth:`undelivered`)."""
        with self.lock:
            self.stopped = False
            self._deadlocked = False
            self._scheduled = set(range(self.nranks))
            self._running = None
            self._runnable = deque(range(self.nranks))
            self._entered = 0
            self._threads = threads
            self._missed = {}

    def enter(self, rank: int) -> None:
        """First thing a launched rank thread does: wait for its turn.

        The last thread to arrive dispatches rank 0, so no rank is handed the
        token before it waits for it: what a run executes does not depend on
        how fast its threads start.
        """
        with self.lock:
            self._entered += 1
            if self._entered == self.nranks:
                self._dispatch()
            self._await_token(rank)

    def retire(self, rank: int) -> None:
        """Last thing a launched rank thread does: hand the token on for good."""
        with self.lock:
            self._scheduled.discard(rank)
            self._dispatch()

    def token_holder(self) -> Optional[tuple[int, threading.Thread]]:
        """The run-token holder's rank and host thread; ``None`` off a run."""
        running = self._running
        return None if running is None else (running, self._threads[running])

    def block(
        self,
        rank: int,
        awaited: Optional[tuple[int, int, int]] = None,
        waited_for: str = "barrier",
    ) -> None:
        """Hand the token on until :meth:`wake` and the rank's turn come.
        Call with ``lock`` held, and re-check the awaited condition after.

        With no rank left to wake it, the wait is a deadlock, reported at
        once.  ``awaited`` is the ``(source, tag, context)`` a post must
        match to wake the rank; with ``None`` only an explicit :meth:`wake`
        does.  A rank that does not hold the token (no ``World.run`` is
        active) has no one to wake it: its ``waited_for`` fails at once.
        """
        if self._running != rank:
            raise MpiCommError(
                f"rank {rank} would block in {waited_for} outside a World.run, "
                f"where no rank could wake it"
            )
        self._waiting[rank] = awaited
        self._pass_token(rank)

    def wake(self, rank: int) -> None:
        """Make a blocked rank runnable: it runs when the token reaches it."""
        del self._waiting[rank]
        self._runnable.append(rank)

    def stop_error(self, rank: int, waited_for: str) -> MpiCommError:
        """The error a rank raises when a stopped world ends its wait."""
        if self._deadlocked:
            return MpiCommError(
                f"deadlock: rank {rank} is blocked in {waited_for} and so is every "
                f"other unfinished rank"
            )
        return MpiCommError(f"{waited_for} after world shutdown")

    def _pass_token(self, rank: int) -> None:
        self._dispatch()
        self._await_token(rank)

    def _await_token(self, rank: int) -> None:
        """Wait, ``lock`` let go, for the one release :meth:`_dispatch` makes."""
        lock = self.lock
        lock.release()
        self._batons[rank].acquire()
        lock.acquire()

    def _dispatch(self) -> None:
        """Hand the token to the rank that became runnable first: release
        its baton (every dispatch is matched by one :meth:`_await_token`)."""
        if not self._runnable and self._scheduled:
            # Every unfinished rank is blocked, and only a rank could wake one.
            self._deadlocked = True
            self._stop()
        if self._runnable:
            self._running = self._runnable.popleft()
            self._batons[self._running].release()
        else:
            self._running = None

    def _stop(self) -> None:
        self.stopped = True
        for rank in list(self._waiting):
            self.wake(rank)

    # --------------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        """Wake every blocked rank with an error (world teardown)."""
        with self.lock:
            self._stop()

    def undelivered(self) -> dict[int, list[Envelope]]:
        """Every rank's envelopes that no receive took, by destination."""
        return {rank: list(mailbox) for rank, mailbox in self._mailboxes.items() if mailbox}

    def pending(self, rank: int) -> int:
        """Number of undelivered envelopes for a rank (used by tests)."""
        return len(self._mailboxes[rank])

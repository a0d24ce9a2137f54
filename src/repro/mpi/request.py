"""Nonblocking-communication requests."""

from __future__ import annotations

from typing import Callable, Optional

from repro.mpi.errors import MpiError
from repro.mpi.status import Status


class Request:
    """Handle for a nonblocking operation (``MPI_Request``).

    The simulation keeps nonblocking semantics simple and deadlock-free:

    * ``Isend`` performs its local work (datatype packing, posting the
      envelope) immediately and records the virtual time at which the send
      buffer may be reused; ``Wait`` advances the caller's clock there.
    * ``Irecv`` (and the receive side of nonblocking collectives) defers
      matching and unpacking to ``Wait``/``Test``; because sends never block
      on a thread level, deferring receives cannot deadlock.

    ``complete`` runs the deferred work and returns its :class:`Status`;
    ``ready`` is an optional nonblocking readiness probe (e.g. a router
    probe) that lets :meth:`Test` finish a deferred receive without blocking
    once its message has arrived.  ``arrival`` is an optional hint probe
    returning the virtual time at which the operation becomes completable
    (``None`` while unknown); :meth:`Waitany` uses it to block on the
    earliest-arriving request instead of list order.  Probes supplied by the
    TEMPI progress engine also advance deferred wire state (flushing batched
    sends), so ``Test``/``Testall`` genuinely make progress.

    A **persistent** request (``Send_init``/``Recv_init``) carries ``start``,
    the bound operation, which posts one round and :meth:`arm`-s this same
    request.  It is born *inactive* — ``Wait``/``Test`` return an empty
    status and leave the clock alone — :meth:`Start` makes it active, its
    completion inactive again, and :meth:`Free` ends it.

    A **one-shot send** counts itself on its communicator's ``open_sends``
    (the ``ledger``) from bind to completion, with no call; ``World.run``
    checks the count.
    """

    KINDS = ("send", "recv", "coll", "null")
    #: The bound operation (``None``: one-shot, or freed).  A persistent
    #: subclass may define it as a method, which keeps the request out of a
    #: reference cycle with a bound method of its own.
    _start: Optional[Callable[[], None]] = None
    #: A one-shot send's ledger until it completes (see above).
    _ledger = None

    def __init__(
        self,
        kind: str,
        *,
        complete: Optional[Callable[[], Status]] = None,
        completion_time: Optional[float] = None,
        clock=None,
        ready: Optional[Callable[[], bool]] = None,
        arrival: Optional[Callable[[], Optional[float]]] = None,
        start: Optional[Callable[[], None]] = None,
        peer: Optional[int] = None,
        tag: Optional[int] = None,
        registry: Optional[list["Request"]] = None,
        ledger=None,
    ) -> None:
        if kind not in self.KINDS:
            raise MpiError(f"unknown request kind {kind!r}")
        self.kind = kind
        self._complete = complete
        self._completion_time = completion_time
        self._clock = clock
        self._ready = ready
        self._arrival = arrival
        if start is not None:
            self._start = start
        #: What a bound point-to-point request names in error reports.
        self.peer = peer
        self.tag = tag
        #: The binding rank's list of persistent requests: ``Free`` takes the
        #: request off it, ``World.run`` scans it when the rank returns.
        self._registry = registry
        if registry is not None:
            registry.append(self)
        if ledger is not None:
            self._ledger = ledger
            ledger.open_sends += 1
        self._done = self._start is not None
        self._status = Status()

    def __repr__(self) -> str:
        bound = "" if self.peer is None else f" peer={self.peer} tag={self.tag}"
        return f"<Request {self.kind}{bound}>"

    # ------------------------------------------------------------- persistence
    def arm(self, complete=None, ready=None, arrival=None, *, completion_time=None, clock=None):
        """Make the request active for one operation — the constructor's five
        fields, on the object the caller already holds; returns the request."""
        self._complete, self._ready, self._arrival = complete, ready, arrival
        self._completion_time, self._clock = completion_time, clock
        self._done = False
        return self

    def Start(self) -> None:
        """``MPI_Start``: post one round of a persistent request."""
        if self._start is None:
            raise MpiError(f"Start on {self!r}, which is not persistent or was freed")
        if not self._done:
            raise MpiError(f"Start on {self!r}, which is still active: Wait or Test it first")
        self._start()

    def Free(self) -> None:
        """``MPI_Request_free``: the request can never be started again.

        An active one still completes, as MPI lets it; an inactive one has
        nothing left to complete, so a later ``Wait``/``Test`` raises.
        """
        if self._start is None:
            raise MpiError(f"Free on {self!r}, which is not persistent or was already freed")
        self._start = None
        if self._registry is not None:
            self._registry.remove(self)
            self._registry = None
        if self._done:
            self.arm(self._use_after_free, self._use_after_free)

    def _use_after_free(self):
        raise MpiError(f"{self!r} used after Free")

    @staticmethod
    def Startall(requests: list["Request"]) -> None:
        """``MPI_Startall``: start every persistent request, in list order."""
        for request in requests:
            request.Start()

    @staticmethod
    def active(requests: list["Request"]) -> list["Request"]:
        """Those of ``requests`` that were started and not completed."""
        return [request for request in requests if not request._done]

    # ------------------------------------------------------------------ waits
    def Wait(self) -> Status:
        """Block until the operation completes; returns its :class:`Status`."""
        if self._done:
            return self._status
        status = self._status
        if self._complete is not None:
            status = self._complete()
        if self._completion_time is not None and self._clock is not None:
            self._clock.advance_to(self._completion_time)
        self._done = True
        if self._start is None:
            # A one-shot request remembers its outcome; a persistent one is
            # inactive again, and an inactive request's status is empty.
            self._status = status
            if self._ledger is not None:
                self._ledger.open_sends -= 1
        return status

    def Test(self) -> tuple[bool, Optional[Status]]:
        """Nonblocking completion check.

        Sends complete as soon as their completion time has passed on the
        clock.  Deferred receives complete through :meth:`Wait`; when the
        request carries a readiness probe and the probe reports the message
        present, ``Test`` runs the (now nonblocking) completion itself.
        """
        if self._done:
            return True, self._status
        if self.kind == "send" and self._completion_time is not None and self._clock is not None:
            if self._clock.now >= self._completion_time:
                return True, self.Wait()
        if self._ready is not None:
            if self._ready():
                return True, self.Wait()
            return False, None
        if self._arrival is not None and self._clock is not None:
            # No bespoke probe: the operation is completable exactly when its
            # known arrival time has passed on the caller's clock.
            hint = self._arrival()
            if hint is not None and hint <= self._clock.now:
                return True, self.Wait()
        return False, None

    @property
    def completed(self) -> bool:
        """True once :meth:`Wait` (or a successful :meth:`Test`) has run."""
        return self._done

    def arrival_hint(self) -> Optional[float]:
        """Virtual time this request becomes completable, when known.

        Sends report their completion time; receives probe for a posted
        message's arrival.  ``None`` means the operation's arrival is not yet
        determined (e.g. the matching message has not been posted).
        """
        if self._completion_time is not None:
            return self._completion_time
        if self._arrival is not None:
            return self._arrival()
        return None

    # ------------------------------------------------------------- aggregates
    @staticmethod
    def Waitall(requests: list["Request"]) -> list[Status]:
        """Wait for every request; returns their statuses in order."""
        return [request.Wait() for request in requests]

    @staticmethod
    def Waitany(requests: list["Request"]) -> tuple[int, Status]:
        """Wait for (at least) one request; returns ``(index, status)``.

        Per the MPI contract, an already-completed (or nonblockingly
        completable) active request is returned before blocking on anything.
        Only when no request can complete without waiting does ``Waitany``
        block — on the active request with the **earliest known arrival
        time** (falling back to list order when no arrival is known), so the
        caller's clock advances to the first completion rather than to
        whichever request happened to be listed first.  A list of nothing but
        null requests can never complete an operation — MPI returns
        ``MPI_UNDEFINED`` there, and a caller looping on ``Waitany`` until
        every request finishes would spin forever — so it raises instead.
        Inactive persistent requests are ignored the same way.
        """
        if not requests:
            raise MpiError("Waitany requires at least one request")
        active = [
            index
            for index, request in enumerate(requests)
            if request.kind != "null" and not (request._done and request._start is not None)
        ]
        if not active:
            raise MpiError(
                "Waitany on a list of null or inactive requests would never complete an operation"
            )
        for index in active:
            if requests[index].completed:
                return index, requests[index].Wait()
        for index in active:
            done, status = requests[index].Test()
            if done:
                return index, status
        earliest = active[0]
        earliest_time: Optional[float] = None
        for index in active:
            hint = requests[index].arrival_hint()
            if hint is not None and (earliest_time is None or hint < earliest_time):
                earliest, earliest_time = index, hint
        return earliest, requests[earliest].Wait()

    @staticmethod
    def Testall(requests: list["Request"]) -> tuple[bool, Optional[list[Status]]]:
        """Nonblocking :meth:`Waitall`: all-done flag plus statuses when done."""
        outcomes = [request.Test() for request in requests]
        if all(done for done, _ in outcomes):
            return True, [status for _, status in outcomes]
        return False, None


#: A request that is already complete (``MPI_REQUEST_NULL`` analogue).
def null_request() -> Request:
    request = Request("null")
    request._done = True  # noqa: SLF001 - factory for the null handle
    return request

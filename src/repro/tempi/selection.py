"""The unified method-selection subsystem (Sec. 4, Sec. 6.3, and beyond).

Until this module existed the per-message packing-method decision was smeared
across three layers: :meth:`~repro.tempi.perf_model.PerformanceModel.choose_method`
held the contention-free Eqs. 1-3 comparison, ``tempi/plan.py`` declared the
selector callback type, and the interposer wired cache memoisation and
query-overhead charging ad hoc.  Worse, every candidate was priced as if the
NIC were idle even though the shared :class:`~repro.machine.nic.NicTimeline`
knows the rank's live injection-port occupancy.  This module owns all of it:

* :class:`MethodSelector` — the protocol every selector satisfies (and the
  callback type the :mod:`repro.tempi.plan` compilers take);
* :class:`FixedSelector` — a forced method, never queries the model
  (``TempiConfig(method=PackMethod.DEVICE)`` and friends);
* :class:`ModelSelector` — the contention-free model path: memoises the
  ``(nbytes, block_length)`` query through the resource cache and charges the
  measured query overhead on the rank's clock, exactly as the paper charges
  it (kept as the default and for ablations);
* :class:`ContendedSelector` — prices each candidate against the live NIC
  state this rank can see, through the one pricing equation
  :func:`contended_estimate` implements::

      T_method = max(T_pack, B_inject, B_link, B_ingest) + T_wire + T_unpack

  where ``B_inject`` is this rank's injection-port backlog, ``B_link`` the
  remaining occupancy of this rank's link to the destination peer, and
  ``B_ingest`` the destination's ingestion-port backlog (the hot-peer
  signal; read from the posted-but-not-yet-ingested ledger, and folded in
  only under ``TempiConfig(nic="duplex")`` — the ``"inject_only"`` ablation
  prices ``max(pack, B_inject) + wire + unpack``, bit-identical to PR 4).
  A queued port — at either end — hides pack time (the pack runs while
  earlier messages drain), so under load the decision tilts toward the
  method with the cheaper wire-plus-unpack tail and the one-shot/device
  crossover of Fig. 9 shifts; a single hot *receiver* does the same to
  every sender targeting it (``bench_incast.py``).
  ``bench_fig9_selection.py`` measures the injection-side shift and
  ``repro select-table`` tabulates it analytically through the *same*
  :func:`contended_estimate`.

Every selector accepts ``(packer, nbytes, peer=...)`` — ``peer`` being the
destination rank of a send-side decision, or ``None`` when the message has
no single destination (receives, fan-outs) — and returns a concrete
:class:`~repro.tempi.config.PackMethod`.  Zero-byte sections short-circuit to
:data:`NOOP_METHOD` without touching model or clock — an empty section moves
nothing, so any staging kind is trivially correct and pricing primitives
(which reject ``nbytes <= 0``) are never consulted.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol, Union

from repro.machine.nic import BacklogReadEvent, NicTimeline, PricingEvent
from repro.machine.topology import Topology
from repro.tempi.config import (
    MODEL_CACHED_QUERY_S,
    MODEL_QUERY_S,
    SELECTION_MEMO_SIZE,
    PackMethod,
    TempiConfig,
)
from repro.tempi.perf_model import PerformanceModel

if TYPE_CHECKING:  # progress -> plan -> selection: a runtime import would cycle
    from repro.tempi.progress import ProgressEngine

#: The trivial selection for a zero-byte section: nothing is packed and
#: nothing is posted, so the method only names a staging kind that is never
#: allocated.  DEVICE keeps such sections on the same path self-sections use.
NOOP_METHOD = PackMethod.DEVICE


#: Granularity at which :class:`ContendedSelector` reads the port backlog:
#: coarse enough that stable queue depths share one memoised decision (and
#: one cached-query charge), fine enough (0.1 µs, far below the microseconds
#: at which selections flip) never to matter for the decision itself.
BACKLOG_RESOLUTION_S = 1e-7


class SelectionError(ValueError):
    """A selector was configured impossibly, or a measurement is for another machine."""


class MethodSelector(Protocol):
    """The per-message method policy: ``(packer, nbytes, peer=...) -> method``.

    The plan compilers call the selector once per wire message at compile
    time, so model-query overhead stays charged where the paper charges it
    (inside the interposed call, before any bytes move).  ``peer`` names the
    destination rank of a send-side decision so NIC-aware selectors can price
    the link to — and the ingestion backlog of — that specific peer; pass
    ``None`` (the default) when the message has no single destination.
    """

    def __call__(
        self, packer: Any, nbytes: int, peer: Optional[int] = None
    ) -> PackMethod:  # pragma: no cover - protocol
        ...

    def select_many(
        self, packer: Any, nbytes: int, peer: Optional[int] = None
    ) -> PackMethod:  # pragma: no cover - protocol
        """Select as ``__call__`` does, charge for charge (a restart asks here)."""
        ...


# --------------------------------------------------------------------------- #
# Contended pricing (shared by the selector, the benchmark and the analytic
# exchange model — one function, so the three can never drift)
# --------------------------------------------------------------------------- #

#: The pricing terms a contended candidate can be bound by, in tie-break
#: priority order: its own pack kernel, this rank's injection-port backlog,
#: the remaining occupancy of the link to the destination, the destination's
#: ingestion-port backlog (duplex accounting only), this rank's shared NIC
#: rail, or the shared leaf-uplink bundles on the path (both topology-aware
#: selection only — appended last so every pre-topology tie breaks exactly
#: as before).
BACKLOG_PORTS = ("pack", "inject", "link", "ingest", "rail", "uplink")


@dataclass(frozen=True)
class ContendedEstimate:
    """End-to-end candidate latencies under live NIC backlog.

    A message cannot enter the wire before its pack completes, nor before
    this rank's injection port and its link to the destination drain; and its
    landing cannot outrun the destination's ingestion-port backlog (whose
    mirror-rule wait algebraically folds into the same ``max`` — see
    :mod:`repro.machine.nic`).  Queued time therefore hides pack time, and
    each candidate's effective latency is::

        max(pack, B_inject, B_link, B_ingest) + wire + unpack

    At zero backlogs this is exactly the contention-free Eqs. 1-3 total;
    with ``link_backlog_s == ingest_backlog_s == 0`` it is exactly the PR-4
    injection-only pricing, bit-for-bit.  ``oneshot_bound``/``device_bound``
    name the term that bound each candidate (ties break in
    :data:`BACKLOG_PORTS` order), which is what ``repro select-table --nic``
    prints per cell.
    """

    oneshot: float
    device: float
    backlog_s: float
    link_backlog_s: float = 0.0
    ingest_backlog_s: float = 0.0
    rail_backlog_s: float = 0.0
    uplink_backlog_s: float = 0.0
    oneshot_bound: str = "pack"
    device_bound: str = "pack"

    def best(self) -> PackMethod:
        """Ties break toward one-shot, matching :class:`MethodEstimate`."""
        return PackMethod.ONESHOT if self.oneshot <= self.device else PackMethod.DEVICE

    def bound(self) -> str:
        """The term (:data:`BACKLOG_PORTS`) that bound the selected method."""
        return self.oneshot_bound if self.best() is PackMethod.ONESHOT else self.device_bound


def contended_estimate(
    model: PerformanceModel,
    nbytes: int,
    block_length: int,
    backlog_s: float,
    *,
    link_backlog_s: float = 0.0,
    ingest_backlog_s: float = 0.0,
    rail_backlog_s: float = 0.0,
    uplink_backlog_s: float = 0.0,
    oneshot_wire_s: Optional[float] = None,
    device_wire_s: Optional[float] = None,
) -> ContendedEstimate:
    """Price the one-shot and device candidates under live NIC backlog.

    ``backlog_s`` is the sender's injection-port queue (the PR-4 term);
    ``link_backlog_s`` the remaining occupancy of the sender's link to the
    destination; ``ingest_backlog_s`` the destination's ingestion-port queue;
    ``rail_backlog_s`` the sender's shared NIC-rail queue and
    ``uplink_backlog_s`` the worst shared leaf-uplink bundle on the path
    (both zero outside a hierarchical topology).  All backlogs default to
    zero, in which case the function is exactly the PR-4
    ``max(pack, backlog) + wire + unpack`` pricing.  ``oneshot_wire_s`` /
    ``device_wire_s`` replace the measured flat transfer time with a
    path-resolved wire price (:meth:`~repro.machine.topology.Topology.message_time`),
    which is what moves the Fig. 9 crossover per path class; ``None`` (the
    default) keeps the flat ``model.transfer_time`` pricing bit-for-bit.
    """
    for name, value in (
        ("backlog", backlog_s),
        ("link backlog", link_backlog_s),
        ("ingest backlog", ingest_backlog_s),
        ("rail backlog", rail_backlog_s),
        ("uplink backlog", uplink_backlog_s),
    ):
        if value < 0:
            raise SelectionError(f"{name} must be non-negative, got {value}")

    def candidate(
        strategy: str, wire_kind: str, wire_override: Optional[float]
    ) -> tuple[float, str]:
        """One strategy's effective latency and its binding term."""
        pack = model.pack_time(strategy, "pack", nbytes, block_length)
        terms = (
            pack, backlog_s, link_backlog_s, ingest_backlog_s,
            rail_backlog_s, uplink_backlog_s,
        )
        entry = max(terms)
        bound = BACKLOG_PORTS[terms.index(entry)]
        wire = (
            model.transfer_time(wire_kind, nbytes)
            if wire_override is None
            else wire_override
        )
        total = entry + wire + model.pack_time(strategy, "unpack", nbytes, block_length)
        return total, bound

    oneshot, oneshot_bound = candidate("oneshot", "cpu_cpu", oneshot_wire_s)
    device, device_bound = candidate("device", "gpu_gpu", device_wire_s)
    return ContendedEstimate(
        oneshot=oneshot,
        device=device,
        backlog_s=backlog_s,
        link_backlog_s=link_backlog_s,
        ingest_backlog_s=ingest_backlog_s,
        rail_backlog_s=rail_backlog_s,
        uplink_backlog_s=uplink_backlog_s,
        oneshot_bound=oneshot_bound,
        device_bound=device_bound,
    )


# --------------------------------------------------------------------------- #
# Selectors
# --------------------------------------------------------------------------- #

class FixedSelector:
    """Always the configured method — ``TEMPI_PLACE_*``-style forcing.

    Nothing is priced, so a restart's :meth:`select_many` is the plain call.
    """

    def __init__(self, method: PackMethod) -> None:
        if method is PackMethod.AUTO:
            raise SelectionError("a fixed selector needs a concrete method, not AUTO")
        self.method = method

    def __call__(self, packer: Any, nbytes: int, peer: Optional[int] = None) -> PackMethod:
        """Return the forced method (zero-byte sections are no-ops)."""
        if nbytes <= 0:
            return NOOP_METHOD
        return self.method

    #: A restart's selection: the same call.
    select_many = __call__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FixedSelector {self.method.value}>"


class ModelSelector:
    """The contention-free model path (Eqs. 1-3), with paper-faithful costs.

    Results are memoised through the resource cache keyed by
    ``(nbytes, block_length)``; the rank's clock is charged the measured
    ~277 ns for cached queries and a few microseconds for cold ones — the
    overhead accounting that used to live inside the interposer.
    ``model`` may be a :class:`~repro.tempi.perf_model.PerformanceModel` or a
    zero-argument callable producing one (so construction never forces the
    measurement sweep).
    """

    #: The contention-free decision is a pure function of
    #: ``(nbytes, block_length)`` — ``peer`` never participates — so a memo
    #: hit found by that key alone is the answer (:meth:`__call__`), and a
    #: steady restart's charge is the same for every rank
    #: (:func:`~repro.tempi.interposer.charge_batch`).
    peer_invariant = True

    def __init__(
        self,
        model: Union[PerformanceModel, Callable[[], PerformanceModel]],
        *,
        cache: Any = None,
        clock: Any = None,
        config: Optional[TempiConfig] = None,
        stats: Any = None,
    ) -> None:
        self._model = model
        self.cache = cache
        self.clock = clock
        self.config = config if config is not None else TempiConfig()
        #: Optional :class:`~repro.tempi.interposer.InterposerStats` whose
        #: ``selection_memo_hits``/``selection_memo_misses`` counters this
        #: selector bumps (a hit means the *value* came from the memo).
        self.stats = stats

    @property
    def model(self) -> PerformanceModel:
        """The performance model (lazily constructed on first use)."""
        if not isinstance(self._model, PerformanceModel):
            self._model = self._model()
        return self._model

    # ------------------------------------------------------------- accounting
    def _note_memo(self, hit: bool) -> None:
        """Count a memo hit/miss on the interposer stats (when wired)."""
        if self.stats is None:
            return
        if hit:
            self.stats.selection_memo_hits += 1
        else:
            self.stats.selection_memo_misses += 1

    def _charge(self, cached: bool) -> None:
        """Advance the rank's clock by the (cached or cold) query cost."""
        if self.clock is not None:
            self.clock.advance(MODEL_CACHED_QUERY_S if cached else MODEL_QUERY_S)

    # -------------------------------------------------------------- selection
    def __call__(self, packer: Any, nbytes: int, peer: Optional[int] = None) -> PackMethod:
        """Select the contention-free best method (``peer`` is ignored).

        One probe of the resource cache's query memo decides hit or miss, and
        the books are written inline: the cache's query hit or miss, the memo
        note on the stats, and the cached (~277 ns, as the paper measures) or
        cold query charge on the clock.  A miss asks
        :meth:`~repro.tempi.perf_model.PerformanceModel.choose_method`, which
        answers a decision the model has made before (for this world or an
        earlier one sharing the model) from its decision memo; the charge is
        the cold one either way.  A restart selects through this same call
        (:attr:`select_many`).
        """
        if nbytes <= 0:
            return NOOP_METHOD
        nbytes, block_length = int(nbytes), int(packer.block_length)
        key = ("method", nbytes, block_length)
        cache = self.cache
        if cache is None:  # no resource cache: decide afresh, charged cold
            self._note_memo(False)
            method = self.model.decide(nbytes, block_length)
            self._charge(False)
            return method
        queries, stats, clock = cache._queries, self.stats, self.clock
        if cache.enabled and key in queries:
            stored: PackMethod = queries[key]  # not ``cast``, a call per hit
            cache.stats.query_hits += 1
            if stats is not None:
                stats.selection_memo_hits += 1
            if clock is not None:
                clock.now += MODEL_CACHED_QUERY_S
                clock._events += 1
            return stored
        cache.stats.query_misses += 1
        method = self.model.choose_method(nbytes, block_length)
        if cache.enabled:
            queries[key] = method
        if stats is not None:
            stats.selection_memo_misses += 1
        if clock is not None:
            clock.now += MODEL_QUERY_S
            clock._events += 1
        return method

    #: A restart's selection (the e2e tracer names it): the same call.
    select_many = __call__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class ContendedSelector(ModelSelector):
    """NIC-aware selection: folds live port and link backlog into Eqs. 1-3.

    Backlogs are read off the shared :class:`~repro.machine.nic.NicTimeline`
    at selection time, each clamped at zero against this rank's clock: the
    rank's own injection-port queue (``port_free_at(rank) - now``, the PR-4
    term, always); and — under ``TempiConfig(nic="duplex")``, when the
    destination ``peer`` is known — the remaining occupancy of this rank's
    link to that peer (``link_free_at(rank, peer) - now``) and the peer's
    ingestion-port backlog (:meth:`~repro.machine.nic.NicTimeline.ingest_backlog`,
    the advisory incast signal), so selection reacts to a single hot peer.
    At zero backlog the decision is *identical* to :class:`ModelSelector`'s
    (the memoised contention-free path — the equivalence the property suite
    pins down); under load the shared :func:`contended_estimate` pricing
    takes over.  Backlogs are quantised to :data:`BACKLOG_RESOLUTION_S`
    *before* pricing, so the memo key and the decision always agree,
    repeated selections at a stable queue depth genuinely hit the cache (and
    pay the cached-query charge), and the memo cannot grow one entry per
    float jitter over a long run — far below any flip threshold, the
    resolution never changes a decision.

    Determinism note: the link term reads this rank's own send state and the
    ingestion term reads posted traffic; both are exact for traffic whose
    posts happened-before the selection (e.g. across a barrier), which is
    how ``bench_incast.py`` drives them.
    """

    #: Pricing reads the link to — and the ingestion backlog of — the
    #: specific ``peer`` at the *current* clock, so a memo probe by
    #: ``(nbytes, block_length)`` cannot answer: a restart prices again and
    #: :func:`~repro.tempi.interposer.charge_batch` charges every restart
    #: through its plan.
    peer_invariant = False

    def __init__(
        self,
        model: Union[PerformanceModel, Callable[[], PerformanceModel]],
        nic: NicTimeline,
        rank: int,
        *,
        cache: Any = None,
        clock: Any = None,
        config: Optional[TempiConfig] = None,
        stats: Any = None,
        topology: Optional[Topology] = None,
    ) -> None:
        super().__init__(model, cache=cache, clock=clock, config=config, stats=stats)
        if nic is None:
            raise SelectionError("a contended selector needs the shared NIC timeline")
        self.nic = nic
        self.rank = rank
        #: A *hierarchical* topology makes pricing per-path-class: the wire
        #: term comes from the resolved path and the rail/uplink cursors join
        #: the backlog max.  ``None`` or a flat topology keeps the flat
        #: pricing bit-for-bit.
        self.topology = topology
        #: Bounded LRU over quantized-backlog selection keys.  Unlike the
        #: unbounded resource-cache memo a long contended run cannot grow one
        #: entry per observed queue depth; :attr:`memo_size` bounds
        #: residency.
        self._memo: OrderedDict[tuple[Any, ...], PackMethod] = OrderedDict()
        #: Most entries :attr:`_memo` retains (the eviction tests shrink it).
        self.memo_size = SELECTION_MEMO_SIZE

    @staticmethod
    def _quantise(raw: float) -> float:
        """Round a backlog to the memoisation resolution."""
        return round(raw / BACKLOG_RESOLUTION_S) * BACKLOG_RESOLUTION_S

    @property
    def _now(self) -> float:
        """This rank's virtual time (0.0 when driven without a clock)."""
        return self.clock.now if self.clock is not None else 0.0

    @property
    def duplex(self) -> bool:
        """True when link and ingestion backlog are folded into pricing."""
        return self.config.nic == "duplex"

    def backlog(self) -> float:
        """Seconds of queued injection on this rank's port, as of its clock.

        Quantised to :data:`BACKLOG_RESOLUTION_S` so stable queue depths
        memoise (method flip thresholds sit orders of magnitude higher).
        """
        return self._quantise(max(0.0, self.nic.port_free_at(self.rank) - self._now))

    def link_backlog(self, peer: Optional[int]) -> float:
        """Remaining occupancy of this rank's link to ``peer`` (quantised)."""
        if peer is None or not self.duplex:
            return 0.0
        return self._quantise(max(0.0, self.nic.link_free_at(self.rank, peer) - self._now))

    def ingest_backlog(self, peer: Optional[int]) -> float:
        """``peer``'s ingestion-port backlog — the hot-peer term (quantised).

        A cross-rank read: on a traced timeline it emits a
        :class:`~repro.machine.nic.BacklogReadEvent` carrying the records it
        replays, which the sanitizer audits for a happens-before edge.
        """
        if peer is None or not self.duplex:
            return 0.0
        nic = self.nic
        if nic.sink is not None:
            nic.sink(nic, BacklogReadEvent(self.rank, peer, self._now, nic.pending_records(peer)))
        return self._quantise(nic.ingest_backlog(peer, self._now))

    def rail_backlog(self, peer: Optional[int]) -> float:
        """Queue on this rank's shared NIC rail toward ``peer`` (quantised).

        The rail key is a pure function of placement (identical for host and
        device wire paths), so the device-path resolution stands in for both.
        Zero without a hierarchical topology, for intra-node peers, and for
        dedicated (un-railed) NICs.
        """
        topology = self.topology
        if peer is None or topology is None or not topology.hierarchical:
            return 0.0
        path = topology.resolve(self.rank, peer, device_buffers=True)
        if path.rail is None:
            return 0.0
        return self._quantise(max(0.0, self.nic.rail_free_at(path.rail) - self._now))

    def uplink_backlog(self, peer: Optional[int]) -> float:
        """Worst shared leaf-uplink occupancy on the path to ``peer``.

        Reads the shared fabric ledgers other ranks also write; like the
        ingestion term this is exact for traffic whose posts happened-before
        the selection (the barrier-phased drivers the benchmarks use).
        """
        topology = self.topology
        if peer is None or topology is None or not topology.hierarchical:
            return 0.0
        path = topology.resolve(self.rank, peer, device_buffers=True)
        worst = 0.0
        for key, _bandwidth in path.shared:
            worst = max(worst, self.nic.shared_free_at(key) - self._now)
        return self._quantise(max(0.0, worst))

    def _contended_memoize(
        self, key: tuple[Any, ...], compute: Callable[[], PackMethod]
    ) -> tuple[PackMethod, bool]:
        """Bounded-LRU memoisation on the resource cache's books.

        Mirrors the resource cache's ``query_hits``/``query_misses`` counters
        (and its ``use_cache=False`` always-cold semantics) so existing
        ablation accounting is unchanged; eviction follows strict LRU order
        with :attr:`memo_size` entries.
        """
        if self.cache is None:
            self._note_memo(False)
            return compute(), False
        stats = self.cache.stats
        if not self.cache.enabled:
            stats.query_misses += 1
            self._note_memo(False)
            return compute(), False
        if key in self._memo:
            self._memo.move_to_end(key)
            stats.query_hits += 1
            self._note_memo(True)
            return self._memo[key], True
        stats.query_misses += 1
        self._note_memo(False)
        value = self._memo[key] = compute()
        while len(self._memo) > self.memo_size:
            self._memo.popitem(last=False)
        return value, False

    def __call__(self, packer: Any, nbytes: int, peer: Optional[int] = None) -> PackMethod:
        """Select under live NIC backlog (identical to the model path at idle).

        With a hierarchical topology and a known ``peer`` the zero-backlog
        short-circuit is disabled: even an idle NIC prices the two candidates
        along the *resolved path* (intra-island NVLink vs cross-switch rail),
        so the crossover differs per path class — the divergence
        ``bench_topology.py`` measures.  On a traced timeline the pricing is
        bracketed by two :class:`~repro.machine.nic.PricingEvent` records carrying
        this rank's ledger fingerprint, which the sanitizer compares: the
        dynamic twin of simlint's SIM002.
        """
        if nbytes <= 0:
            return NOOP_METHOD
        nic = self.nic
        if nic.sink is None:
            return self._price(packer, nbytes, peer)
        nic.sink(nic, PricingEvent(self.rank, nic.state_fingerprint(self.rank), False))
        method = self._price(packer, nbytes, peer)
        nic.sink(nic, PricingEvent(self.rank, nic.state_fingerprint(self.rank), True))
        return method

    select_many = __call__

    def _price(self, packer: Any, nbytes: int, peer: Optional[int]) -> PackMethod:
        """The pricing :meth:`__call__` brackets: read the backlogs, then decide."""
        backlog = self.backlog()
        link = self.link_backlog(peer)
        ingest = self.ingest_backlog(peer)
        rail = self.rail_backlog(peer)
        uplink = self.uplink_backlog(peer)
        oneshot_wire: Optional[float] = None
        device_wire: Optional[float] = None
        kind: Optional[str] = None
        topology = self.topology
        if peer is not None and topology is not None and topology.hierarchical:
            oneshot_wire = topology.message_time(
                self.rank, peer, int(nbytes), device_buffers=False
            )
            device_wire = topology.message_time(
                self.rank, peer, int(nbytes), device_buffers=True
            )
            kind = topology.resolve(self.rank, peer, device_buffers=True).kind
        elif backlog <= 0.0 and link <= 0.0 and ingest <= 0.0:
            return super().__call__(packer, nbytes)
        block_length = packer.block_length
        method, cached = self._contended_memoize(
            (
                "method-contended",
                int(nbytes),
                int(block_length),
                float(backlog),
                float(link),
                float(ingest),
                float(rail),
                float(uplink),
                # The path class (with nbytes) determines both wire
                # overrides, so it closes the key over them.
                kind,
            ),
            lambda: contended_estimate(
                self.model,
                int(nbytes),
                int(block_length),
                backlog,
                link_backlog_s=link,
                ingest_backlog_s=ingest,
                rail_backlog_s=rail,
                uplink_backlog_s=uplink,
                oneshot_wire_s=oneshot_wire,
                device_wire_s=device_wire,
            ).best(),
        )
        self._charge(cached)
        return method


def make_selector(
    config: TempiConfig,
    model: Union[PerformanceModel, Callable[[], PerformanceModel]],
    engine: ProgressEngine,
) -> MethodSelector:
    """Build the selector ``config`` asks for (the interposer's factory).

    A non-``AUTO`` ``config.method`` forces that method — the ablation knob
    the benchmarks rely on (:class:`TempiConfig` only accepts one under the
    default policy).  Every other selector charges the rank's clock, memoises
    through the engine's cache and counts on its stats; the contended one
    also reads the engine's NIC timeline and topology.
    """
    if config.method is not PackMethod.AUTO:
        return FixedSelector(config.method)
    comm = engine.comm
    if config.selection == "contended":
        return ContendedSelector(
            model, engine.nic, comm.rank, cache=engine.cache, clock=comm.clock,
            config=config, stats=engine.stats, topology=engine.topology,
        )
    return ModelSelector(
        model, cache=engine.cache, clock=comm.clock, config=config, stats=engine.stats
    )


#: Vectors at or below this many bytes are latency-bound: the binomial tree's
#: ``ceil(log2 N)`` full-vector hops beat the ring's ``2(N-1)`` chunk hops
#: because every chunk hop still pays the per-message latency floor.
ALLREDUCE_TREE_CUTOFF_BYTES = 16384


def choose_allreduce_algorithm(
    nranks: int,
    nbytes: int,
    *,
    topology: Optional[Topology] = None,
    algorithm: str = "auto",
) -> str:
    """Pick the allreduce schedule for one call (``config.allreduce_algorithm``).

    A non-``"auto"`` ``algorithm`` always wins — the ablation knob
    ``bench_allreduce.py`` sweeps.  Under ``"auto"`` the policy is pure
    (no clock charge, no NIC read, deterministic in its arguments):

    * two ranks (or fewer) degenerate to the tree — the ring's chunking
      buys nothing at that scale;
    * a hierarchical topology whose islands actually group ranks (more
      than one island, fewer islands than ranks) takes the hierarchical
      schedule, concentrating cross-island traffic on one leader per
      island so oversubscribed uplinks carry ``L-1`` messages per round
      instead of ``N-1``;
    * latency-bound vectors (at most :data:`ALLREDUCE_TREE_CUTOFF_BYTES`) take the binomial
      tree's ``O(log N)`` rounds;
    * everything else takes the bandwidth-optimal chunked ring.
    """
    if algorithm != "auto":
        if algorithm not in ("ring", "tree", "hierarchical"):
            raise SelectionError(
                f"unknown allreduce algorithm {algorithm!r}; "
                "expected 'auto', 'ring', 'tree' or 'hierarchical'"
            )
        return algorithm
    if nranks <= 2:
        return "tree"
    if topology is not None and topology.hierarchical:
        islands = {topology.island_of(rank) for rank in range(nranks)}
        if 1 < len(islands) < nranks:
            return "hierarchical"
    if nbytes <= ALLREDUCE_TREE_CUTOFF_BYTES:
        return "tree"
    return "ring"

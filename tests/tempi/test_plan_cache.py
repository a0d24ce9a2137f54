"""Plan templates and the selection-memo counters.

A persistent collective's first ``Start`` compiles and, under
``TempiConfig.plan_cache``, records the plan as a template; every restart
replays it.  That is the only plan reuse: one-shot collectives always
compile.  These tests drive ``Alltoallv_init`` and ``Neighbor_alltoallv_init``
restarts and assert, through the ``InterposerStats`` counters, that the knob
governs exactly that reuse, that a restart never replays another request's
template, and that a restart whose replayed selection differs from the
recorded one rebuilds its stages instead of reusing stale ones.  Every
restart is checked against the same call posted one-shot: clocks, clock
events, every counter and the received bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools

import numpy as np

from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.request import Request
from repro.mpi.world import World
from repro.tempi.config import PackMethod, TempiConfig
from repro.tempi.interposer import TempiCommunicator, interpose
from repro.tempi.packer import Packer
from repro.tempi.plan import PlanSection, PlanTemplate, compile_exchange
from repro.tempi.strided_block import StridedBlock

NRANKS = 3
ROUNDS = 3


def _world(config=None, summit_model=None):
    """An interposed world of ``NRANKS`` ranks, two per node: per-rank
    (ctx, comm, datatype, buffers)."""
    world = World(NRANKS, ranks_per_node=2)
    setup = []
    for ctx in world.contexts:
        comm = interpose(ctx, config or TempiConfig(), model=summit_model)
        datatype = comm.Type_commit(Type_vector(4, 8, 24, BYTE))
        send = ctx.gpu.malloc(datatype.extent * 4 * NRANKS)
        recv = ctx.gpu.malloc(datatype.extent * 4 * NRANKS)
        send.data[:] = np.arange(send.nbytes, dtype=np.uint64).astype(np.uint8)
        setup.append((ctx, comm, datatype, send, recv))
    return setup


def _calls(setup, counts=None, displs=None, datatypes=None, sent=None, neighbor=False):
    """Each rank's ``(post, bind, args, types)`` of one all-to-all-v: unit
    counts at double-extent displacements of the rank's own datatype unless
    overridden.  ``sent[r][p]`` is what rank ``r`` sends rank ``p`` (its
    receive counts are the transpose).  ``neighbor`` makes the call a
    neighbour exchange over the other ranks; ``post`` and ``bind`` are the
    nonblocking and the persistent form of whichever call it is."""
    calls = []
    for index, (ctx, comm, datatype, send, recv) in enumerate(setup):
        dt = datatypes[index] if datatypes is not None else datatype
        peers = [peer for peer in range(NRANKS) if not neighbor or peer != index]
        sends = recvs = counts if counts is not None else [1] * len(peers)
        if sent is not None:
            sends = [sent[index][peer] for peer in peers]
            recvs = [sent[peer][index] for peer in peers]
        dis = displs if displs is not None else [i * dt.extent * 2 for i in range(len(peers))]
        args = (send, sends, dis, recv, recvs, dis)
        if neighbor:
            post, bind, args = comm.Ineighbor_alltoallv, comm.Neighbor_alltoallv_init, (peers,) + args
        else:
            post, bind = comm.Ialltoallv, comm.Alltoallv_init
        calls.append((post, bind, args, {"sendtypes": dt, "recvtypes": dt}))
    return calls


def _exchange(setup, **shape):
    """One inline nonblocking round: all ranks post, then all ranks wait."""
    requests = [post(*args, **types) for post, _, args, types in _calls(setup, **shape)]
    for request in requests:
        request.Wait()


def _bind(setup, **shape):
    """Each rank's persistent form of the exchange :func:`_exchange` posts."""
    return [bind(*args, **types) for _, bind, args, types in _calls(setup, **shape)]


def _restart(bound):
    """One inline round of the bound requests: all ranks start, then wait."""
    for request in bound:
        request.Start()
    for request in bound:
        request.Wait()


def _stats(setup):
    hits = sum(comm.tempi.stats.plan_cache_hits for _, comm, *_ in setup)
    misses = sum(comm.tempi.stats.plan_cache_misses for _, comm, *_ in setup)
    return hits, misses


def _observed(setup):
    """Per rank: its clock, the clock's event count, the interposer and cache
    counters (a restart counts a plan-cache hit where the one-shot call counts
    nothing, so those two are left out) and a digest of its receive buffer."""
    observed = []
    for ctx, comm, _, _, recv in setup:
        stats = dataclasses.asdict(comm.tempi.stats)
        del stats["plan_cache_hits"], stats["plan_cache_misses"]
        observed.append((
            ctx.clock.now.hex(), ctx.clock.events, stats,
            dataclasses.asdict(comm.tempi.cache.stats),
            hashlib.sha256(recv.data).hexdigest(),
        ))
    return observed


def _against_one_shot(summit_model, shapes, rounds, config=None):
    """Bind one request per shape and restart them in turn for ``rounds``,
    while a second world posts the same calls one-shot; after every call the
    two must agree on everything :func:`_observed` reads.  ``shapes`` map a
    setup to :func:`_calls` overrides.  Returns the bound world and its
    requests."""
    bound_world, one_shot_world = (_world(config, summit_model) for _ in range(2))
    bound = [_bind(bound_world, **shape(bound_world)) for shape in shapes]
    one_shot = [shape(one_shot_world) for shape in shapes]
    for _ in range(rounds):
        for requests, shape in zip(bound, one_shot):
            _restart(requests)
            _exchange(one_shot_world, **shape)
            assert _observed(bound_world) == _observed(one_shot_world)
    return bound_world, bound


def _default(setup):
    return {}


def _neighbor(setup):
    return {"neighbor": True}


def _two_classes(setup):
    """Unequal per-peer counts: each rank's transcript spans two
    ``(nbytes, block_length)`` classes, in runs of one and of two."""
    return {"sent": [[1, 2, 2], [1, 1, 2], [1, 1, 1]]}


def _recommitted(setup):
    return {"datatypes": [comm.Type_commit(Type_vector(4, 8, 24, BYTE)) for _, comm, *_ in setup]}


#: The configs whose restarts the equivalence wall replays: the default, the
#: peer-dependent selector, and the one that takes the selection memo away.
CONFIGS = (
    TempiConfig(),
    TempiConfig(selection="contended"),
    TempiConfig(use_cache=False),
)


class TestPlanCacheKeying:
    """A restart replays only the template its own first ``Start`` recorded.

    Templates belong to bound requests, not to a keyed cache: a request bound
    with other counts, other displacements or another commit of the same
    shape — or on a communicator under another config — records its own, and
    one-shot calls never consult one.  Each test checks the counters and that
    clocks and received bytes equal the same calls posted one-shot, since a
    replay of the wrong template would price or move the wrong sections.
    """

    def test_repeated_shape_hits(self, summit_model):
        """Under every wall config, an all-to-all-v, a neighbour exchange and
        a two-class transcript each restart as their one-shot calls run."""
        setup, _ = _against_one_shot(summit_model, [_default], rounds=1)
        assert _stats(setup) == (0, NRANKS)  # first start per rank records
        for config, shape in itertools.product(CONFIGS, (_default, _neighbor, _two_classes)):
            setup, _ = _against_one_shot(summit_model, [shape], rounds=4, config=config)
            assert _stats(setup) == (3 * NRANKS, NRANKS)

    def test_mutated_counts_miss(self, summit_model):
        setup, (ones, twos) = _against_one_shot(summit_model, [
            lambda setup: {"counts": [1] * NRANKS},
            lambda setup: {"counts": [2] * NRANKS},
        ], rounds=2)
        assert _stats(setup) == (2 * NRANKS, 2 * NRANKS)
        assert all(a._template is not b._template for a, b in zip(ones, twos))

    def test_mutated_displs_miss(self, summit_model):
        def spaced(stride):
            return lambda setup: {"displs": [peer * setup[0][2].extent * stride
                                             for peer in range(NRANKS)]}

        setup, (near, far) = _against_one_shot(summit_model, [spaced(2), spaced(3)], rounds=2)
        assert _stats(setup) == (2 * NRANKS, 2 * NRANKS)
        assert all(a._template is not b._template for a, b in zip(near, far))

    def test_recommitted_datatype_misses(self, summit_model):
        """An identical shape under a *new* commit binds its own template."""
        setup, (first, again) = _against_one_shot(
            summit_model, [_default, _recommitted], rounds=2,
        )
        assert _stats(setup) == (2 * NRANKS, 2 * NRANKS)
        assert all(a._template is not b._template for a, b in zip(first, again))

    def test_blocking_and_nonblocking_are_distinct_keys(self, summit_model):
        """Blocking and nonblocking one-shot calls of a bound shape never
        replay its template, and leave it for the next restart."""
        def run(persistent):
            world = World(1, ranks_per_node=1)
            ctx = world.contexts[0]
            comm = interpose(ctx, TempiConfig(), model=summit_model)
            datatype = comm.Type_commit(Type_vector(4, 8, 24, BYTE))
            send = ctx.gpu.malloc(datatype.extent * 4)
            send.data[:] = np.arange(send.nbytes, dtype=np.uint64).astype(np.uint8)
            recv = ctx.gpu.malloc(datatype.extent * 4)
            args = (send, [1], [0], recv, [1], [0])
            types = {"sendtypes": datatype, "recvtypes": datatype}
            bound = comm.Alltoallv_init(*args, **types)

            def restart():
                if persistent:
                    bound.Start()
                    bound.Wait()
                else:
                    comm.Ialltoallv(*args, **types).Wait()

            stats = comm.tempi.stats
            observed = []
            restart()
            template = bound._template
            comm.Ialltoallv(*args, **types).Wait()
            comm.Alltoallv(*args, **types)
            observed.append((stats.plan_cache_hits, stats.plan_cache_misses))
            restart()
            observed.append((stats.plan_cache_hits, stats.plan_cache_misses))
            assert bound._template is template
            return observed, ctx.clock.now.hex(), hashlib.sha256(recv.data).hexdigest()

        persistent, one_shot = run(True), run(False)
        assert persistent[0] == [(0, 1), (1, 1)]
        assert one_shot[0] == [(0, 0), (0, 0)]
        assert persistent[1:] == one_shot[1:]

    def test_config_change_means_cold_cache(self, summit_model):
        """A new TempiConfig interposes a new communicator: structurally cold."""
        warm, warm_bound = _against_one_shot(summit_model, [_default], rounds=2)
        assert _stats(warm) == (NRANKS, NRANKS)
        variant_config = TempiConfig(batch_eager_sends=False)
        variant, variant_bound = _against_one_shot(
            summit_model, [_default], rounds=1, config=variant_config,
        )
        assert _stats(variant) == (0, NRANKS)
        assert all(
            a._template is not None and a._template is not b._template
            for a, b in zip(variant_bound[0], warm_bound[0])
        )


class TestPlanCacheBounds:
    def test_disabled_cache_never_consulted(self, summit_model, monkeypatch):
        """``plan_cache=False``: every restart compiles, no template is kept."""
        compiles = []
        compile_collective = TempiCommunicator._compile_collective

        def counting(self, *args, **kwargs):
            compiles.append(self)
            return compile_collective(self, *args, **kwargs)

        monkeypatch.setattr(TempiCommunicator, "_compile_collective", counting)
        for plan_cache, counters, starts_compiled in (
            (True, ((ROUNDS - 1) * NRANKS, NRANKS), NRANKS),
            (False, (0, 0), ROUNDS * NRANKS),
        ):
            del compiles[:]
            setup = _world(config=TempiConfig(plan_cache=plan_cache), summit_model=summit_model)
            bound = _bind(setup)
            for _ in range(ROUNDS):
                _restart(bound)
            assert _stats(setup) == counters
            assert len(compiles) == starts_compiled
            assert all((request._template is not None) is plan_cache for request in bound)


class TestSelectionMemoCounters:
    def test_memo_on_hits_repeats(self, summit_model):
        setup = _world(summit_model=summit_model)
        _exchange(setup)
        _exchange(setup)
        stats = setup[0][1].tempi.stats
        assert stats.selection_memo_hits > 0

    def test_contended_memo_stays_bounded(self, summit_model, free_runtime):
        """Distinct message sizes are distinct memo keys; the LRU must evict."""
        from repro.machine.nic import NicTimeline
        from repro.tempi.cache import ResourceCache
        from repro.tempi.packer import Packer
        from repro.tempi.selection import ContendedSelector
        from repro.tempi.strided_block import StridedBlock

        config = TempiConfig(selection="contended")
        nic = NicTimeline()
        nic.reserve(0, 1, 0.0, 200e-6, 4096)  # backlog: leave the idle fast path
        selector = ContendedSelector(
            summit_model, nic, 0, config=config, cache=ResourceCache(free_runtime)
        )
        selector.memo_size = 2
        shape = StridedBlock(start=0, counts=(8, 64), strides=(1, 16))
        packer = Packer(shape, object_extent=shape.extent)
        for nbytes in (1024, 2048, 4096, 8192):
            selector(packer, nbytes)
        assert len(selector._memo) == 2


class TestTemplateTranscript:
    def test_transcript_is_what_the_compile_asked_the_selector(self):
        """``from_plan`` reads the transcript off the stages; it must be the
        calls ``compile_exchange`` made, in order, and the methods returned."""
        small = StridedBlock(start=0, counts=(8, 4), strides=(1, 16))
        large = StridedBlock(start=0, counts=(8, 64), strides=(1, 16))
        small, large = (Packer(shape, object_extent=shape.extent) for shape in (small, large))
        send = [PlanSection(peer, count, 0, packer) for peer, count, packer in (
            (0, 2, small), (1, 1, large), (2, 1, large), (2, 3, small), (3, 0, small),
        )]
        recv = [PlanSection(peer, count, 0, packer) for peer, count, packer in (
            (3, 1, small), (1, 1, large), (0, 2, large),
        )]
        calls, methods = [], []
        answers = itertools.cycle((PackMethod.DEVICE, PackMethod.ONESHOT, PackMethod.STAGED))

        def select(packer, nbytes, peer=None):
            calls.append((packer, nbytes, peer))
            methods.append(next(answers))
            return methods[-1]

        template = PlanTemplate.from_plan(compile_exchange(1, None, send, None, recv, select))
        assert template.selections == tuple(calls)
        assert template.methods == tuple(methods)
        assert [peer for _, _, peer in calls] == [0, 2, None, None]


class TestTemplateRebind:
    """A restart whose replayed selection *differs* from the recorded one.

    The replay changes the method of every stage, so
    ``PlanTemplate.materialize`` rebuilds each of them around the new method
    (``_rebind``) and the interposer recounts the methods.  It needs a
    selector whose answer for one shape moves between calls, i.e. the
    contended one behind a loaded port — the ``bench_fig9_selection.py``
    burst (its ``PROBE`` and ``BACKGROUND`` shapes), with the probe bound and
    first started on an idle port so the template records ``device``.
    """

    #: 4 KiB per peer in single-byte runs: device when idle, one-shot queued.
    PROBE = (4096, 1, 2)
    #: 256 KiB per peer: each plan parks ~60 us of injection on the port.
    BACKGROUND = (1024, 256, 512)

    def _burst(self, config, summit_model):
        def program(ctx):
            comm = interpose(ctx, config, model=summit_model)
            size = comm.Get_size()
            probe = comm.Type_commit(Type_vector(*self.PROBE, BYTE))
            big = comm.Type_commit(Type_vector(*self.BACKGROUND, BYTE))

            def buffers(datatype):
                send = ctx.gpu.malloc(datatype.extent * size)
                send.data[:] = (ctx.rank + 1) % 251
                return send, ctx.gpu.malloc(datatype.extent * size)

            def arguments(datatype, send, recv):
                counts = [1] * size
                displs = [peer * datatype.extent for peer in range(size)]
                return (send, counts, displs, recv, counts, displs)

            probe_buffers = buffers(probe)
            background = [buffers(big) for _ in range(4)]
            bound = comm.Alltoallv_init(
                *arguments(probe, *probe_buffers), sendtypes=probe, recvtypes=probe,
            )
            bound.Start()  # idle port: records device x3
            bound.Wait()
            comm.Barrier()
            requests = [
                comm.Ialltoallv(*arguments(big, *pair), sendtypes=big, recvtypes=big)
                for pair in background
            ]
            bound.Start()  # the same exchange restarted behind the queued port
            Request.Waitall(requests + [bound])
            return (
                ctx.clock.now.hex(),
                hashlib.sha256(probe_buffers[1].data).hexdigest(),
                dict(comm.stats.method_counts),
                comm.stats.plan_cache_hits,
            )

        return World(4, ranks_per_node=1).run(program)

    def test_replay_that_flips_the_method_rebinds_every_stage(self, summit_model, monkeypatch):
        rebound = []
        rebind = PlanTemplate._rebind

        def counting(stage, method):
            out = rebind(stage, method)
            if out is not stage:
                rebound.append(method)
            return out

        monkeypatch.setattr(PlanTemplate, "_rebind", staticmethod(counting))
        config = TempiConfig(selection="contended", nic="inject_only")
        cached = self._burst(config, summit_model)
        # 3 pack + 3 unpack stages per rank, all device -> one-shot.
        assert rebound == [PackMethod.ONESHOT] * 24
        fresh = self._burst(dataclasses.replace(config, plan_cache=False), summit_model)
        assert len(rebound) == 24  # nothing to rebind without templates
        for (clock, digest, methods, hits), (f_clock, f_digest, f_methods, f_hits) in zip(
            cached, fresh
        ):
            assert (clock, digest, methods) == (f_clock, f_digest, f_methods)
            assert methods == {"device": 15, "oneshot": 3}
            # The one restart, which replayed the flipped probe.
            assert (hits, f_hits) == (1, 0)

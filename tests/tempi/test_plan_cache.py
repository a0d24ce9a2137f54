"""Plan-cache and selection-memo invalidation: every key change must miss.

The fast path may only ever reuse a compiled plan for the *exact* same
call: same counts, same displacements, same committed datatype object,
same blocking mode.  Each test mutates one of those and asserts — through
the ``InterposerStats`` hit/miss counters — that the cache missed.  A hit
on a changed shape would replay the wrong transcript and silently corrupt
the simulation, so these are correctness tests, not performance tests.

Config and machine changes invalidate structurally: the cache lives on the
communicator, and a different ``TempiConfig`` or machine spec means a
different interposed communicator with its own empty cache.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.request import Request
from repro.mpi.world import World
from repro.tempi.config import PackMethod, TempiConfig
from repro.tempi.interposer import interpose
from repro.tempi.plan import PlanCache, PlanError, PlanTemplate

NRANKS = 2


def _world(config=None, summit_model=None):
    """An interposed 2-rank world: per-rank (ctx, comm, datatype, buffers)."""
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


def _exchange(setup, counts=None, displs=None, datatypes=None):
    """One inline nonblocking round: all ranks post, then all ranks wait."""
    requests = []
    for index, (ctx, comm, datatype, send, recv) in enumerate(setup):
        dt = datatypes[index] if datatypes is not None else datatype
        row = counts if counts is not None else [1] * NRANKS
        dis = displs if displs is not None else [peer * dt.extent * 2 for peer in range(NRANKS)]
        requests.append(comm.Ialltoallv(
            send, row, dis, recv, row, dis, sendtypes=dt, recvtypes=dt,
        ))
    for request in requests:
        request.Wait()


def _stats(setup):
    hits = sum(comm.tempi.stats.plan_cache_hits for _, comm, *_ in setup)
    misses = sum(comm.tempi.stats.plan_cache_misses for _, comm, *_ in setup)
    return hits, misses


class TestPlanCacheKeying:
    def test_repeated_shape_hits(self, summit_model):
        setup = _world(summit_model=summit_model)
        _exchange(setup)
        assert _stats(setup) == (0, NRANKS)  # cold compile per rank
        _exchange(setup)
        _exchange(setup)
        assert _stats(setup) == (2 * NRANKS, NRANKS)

    def test_mutated_counts_miss(self, summit_model):
        setup = _world(summit_model=summit_model)
        _exchange(setup, counts=[1] * NRANKS)
        _exchange(setup, counts=[2] * NRANKS)
        hits, misses = _stats(setup)
        assert hits == 0
        assert misses == 2 * NRANKS

    def test_mutated_displs_miss(self, summit_model):
        setup = _world(summit_model=summit_model)
        extent = setup[0][2].extent
        _exchange(setup, displs=[peer * extent * 2 for peer in range(NRANKS)])
        _exchange(setup, displs=[peer * extent * 3 for peer in range(NRANKS)])
        hits, misses = _stats(setup)
        assert hits == 0
        assert misses == 2 * NRANKS

    def test_recommitted_datatype_misses(self, summit_model):
        """An identical shape under a *new* commit is a new key (id-keyed)."""
        setup = _world(summit_model=summit_model)
        _exchange(setup)
        recommitted = [comm.Type_commit(Type_vector(4, 8, 24, BYTE))
                       for _, comm, *_ in setup]
        _exchange(setup, datatypes=recommitted)
        hits, misses = _stats(setup)
        assert hits == 0
        assert misses == 2 * NRANKS

    def test_blocking_and_nonblocking_are_distinct_keys(self, summit_model):
        """Same shape, blocking vs nonblocking: the flag is part of the key."""
        world = World(1, ranks_per_node=1)
        ctx = world.contexts[0]
        comm = interpose(ctx, TempiConfig(), model=summit_model)
        datatype = comm.Type_commit(Type_vector(4, 8, 24, BYTE))
        send = ctx.gpu.malloc(datatype.extent * 4)
        recv = ctx.gpu.malloc(datatype.extent * 4)
        args = (send, [1], [0], recv, [1], [0])
        comm.Ialltoallv(*args, sendtypes=datatype, recvtypes=datatype).Wait()
        comm.Alltoallv(*args, sendtypes=datatype, recvtypes=datatype)
        stats = comm.tempi.stats
        assert (stats.plan_cache_hits, stats.plan_cache_misses) == (0, 2)
        comm.Ialltoallv(*args, sendtypes=datatype, recvtypes=datatype).Wait()
        comm.Alltoallv(*args, sendtypes=datatype, recvtypes=datatype)
        assert (stats.plan_cache_hits, stats.plan_cache_misses) == (2, 2)

    def test_config_change_means_cold_cache(self, summit_model):
        """A new TempiConfig interposes a new communicator: structurally cold."""
        warm = _world(summit_model=summit_model)
        _exchange(warm)
        _exchange(warm)
        assert _stats(warm)[0] == NRANKS
        variant = _world(config=TempiConfig(batch_eager_sends=False),
                         summit_model=summit_model)
        _exchange(variant)
        hits, misses = _stats(variant)
        assert hits == 0
        assert misses == NRANKS
        assert all(len(comm.plan_cache) == 1 for _, comm, *_ in variant)


class TestPlanCacheBounds:
    def test_disabled_cache_never_consulted(self, summit_model):
        setup = _world(config=TempiConfig(plan_cache=False), summit_model=summit_model)
        _exchange(setup)
        _exchange(setup)
        assert _stats(setup) == (0, 0)
        assert all(len(comm.plan_cache) == 0 for _, comm, *_ in setup)

    def test_bounded_cache_evicts(self, summit_model):
        setup = _world(summit_model=summit_model)
        for _, comm, *_ in setup:
            comm.plan_cache.size = 1
        for _ in range(2):
            _exchange(setup, counts=[1] * NRANKS)
            _exchange(setup, counts=[2] * NRANKS)  # evicts the previous entry
        hits, misses = _stats(setup)
        assert hits == 0
        assert misses == 4 * NRANKS
        assert all(len(comm.plan_cache) == 1 for _, comm, *_ in setup)

    def test_clear_forces_recompile(self, summit_model):
        setup = _world(summit_model=summit_model)
        _exchange(setup)
        _exchange(setup)
        assert _stats(setup)[0] == NRANKS
        for _, comm, *_ in setup:
            comm.plan_cache.clear()
        _exchange(setup)
        hits, misses = _stats(setup)
        assert hits == NRANKS
        assert misses == 2 * NRANKS

    def test_cache_rejects_degenerate_capacity(self):
        with pytest.raises(PlanError):
            PlanCache(0)


class TestSelectionMemoCounters:
    def test_memo_on_hits_repeats(self, summit_model):
        setup = _world(summit_model=summit_model)
        _exchange(setup)
        _exchange(setup)
        stats = setup[0][1].tempi.stats
        assert stats.selection_memo_hits > 0

    def test_memo_off_never_hits_but_still_counts(self, summit_model):
        setup = _world(config=TempiConfig(selection_memo=False), summit_model=summit_model)
        _exchange(setup)
        _exchange(setup)
        stats = setup[0][1].tempi.stats
        assert stats.selection_memo_hits == 0
        assert stats.selection_memo_misses > 0

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


class TestTemplateRebind:
    """A cache hit whose replayed selection *differs* from the recorded one.

    The steady state shares the template's stages; this is the other lane:
    ``PlanTemplate.materialize`` rebuilds every stage around the new method
    (``_rebind``) and the interposer recounts the methods.  It needs a
    selector whose answer for one shape moves between calls, i.e. the
    contended one behind a loaded port — the ``bench_fig9_selection.py``
    burst (its ``PROBE`` and ``BACKGROUND`` shapes), with the probe compiled
    once on an idle port first so the template records ``device``.
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

            def exchange(datatype, send, recv):
                counts = [1] * size
                displs = [peer * datatype.extent for peer in range(size)]
                return comm.Ialltoallv(
                    send, counts, displs, recv, counts, displs,
                    sendtypes=datatype, recvtypes=datatype,
                )

            probe_buffers = buffers(probe)
            background = [buffers(big) for _ in range(4)]
            exchange(probe, *probe_buffers).Wait()  # idle port: records device x3
            comm.Barrier()
            requests = [exchange(big, *pair) for pair in background]
            requests.append(exchange(probe, *probe_buffers))  # same call, queued port
            Request.Waitall(requests)
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
        fresh = self._burst(config.with_overrides(plan_cache=False), summit_model)
        assert len(rebound) == 24  # nothing to rebind without templates
        for (clock, digest, methods, hits), (f_clock, f_digest, f_methods, f_hits) in zip(
            cached, fresh
        ):
            assert (clock, digest, methods) == (f_clock, f_digest, f_methods)
            assert methods == {"device": 15, "oneshot": 3}
            # Three repeats of the background shape, then the flipped probe.
            assert (hits, f_hits) == (4, 0)

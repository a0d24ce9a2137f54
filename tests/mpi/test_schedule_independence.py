"""Priced clocks do not depend on which runnable rank gets the run token.

``MessageRouter._dispatch`` is the one place a rank thread is chosen to run
next, and it hands the token to the rank that became runnable first.  Any
runnable rank is a schedule a real machine could run, so here a test-only
hook (monkeypatched, not a config field) picks a seeded-random one instead,
with the same deadlock handling, and every priced result must come out
bit-identical to the FIFO hand-off's:

* the golden figure fixture, rebuilt leaf for leaf;
* the ``topology`` and ``fig12-functional`` figure rows at their smoke grid,
  and the ``allreduce`` and ``topology`` rows at their full grid, compared
  by ``float.hex()``;
* one block of the ``halo_world`` and ``ml_replay`` benchmark workloads
  (``benchmarks/e2e/workloads.py``, loaded read-only), by their
  ``virtual_digest``;
* small fat-tree programs whose posts meet on one uplink bundle: two at
  equal ready times, and a batch flushed behind its rank's clock.

Every case also checks that the hook chose among at least two ranks, so the
wall cannot pass without exercising a schedule FIFO would not run.  Not
covered: the ``fig13`` row (12.6 s at smoke).
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from repro.cli import _load_figures
from repro.machine.nic import PostEvent, trace_default
from repro.machine.topology import TopologySpec
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.p2p import MessageRouter
from repro.mpi.request import Request
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose

REPO = Path(__file__).resolve().parents[2]
SEEDS = (1, 2)
FIGURE_ROWS = ("topology", "fig12-functional")
#: Rows compared at their full grid as well (about a second per run).
FULL_ROWS = ("allreduce", "topology")
WORKLOADS = ("HaloWorld", "MlReplay")
#: One rank per node and two nodes per leaf: ranks 0 and 1 share leaf 0's
#: uplink bundle and nothing else, rank 2 sits on leaf 1.
THREE_RANK_FATTREE = TopologySpec(ranks_per_node=1, rails_per_node=1, leaf_radix=2, oversubscription=4.0)


def permute_dispatch(monkeypatch, seed: int) -> list[int]:
    """Make every hand-off pick a seeded-random runnable rank.

    Returns the list the hook appends to: the number of runnable ranks at
    each hand-off that had a choice.
    """
    rng, choices = random.Random(seed), []

    def dispatch(router: MessageRouter) -> None:
        runnable = router._runnable
        if not runnable and router._scheduled:
            # Every unfinished rank is blocked, and only a rank could wake one.
            router._deadlocked = True
            router._stop()
        if len(runnable) > 1:
            choices.append(len(runnable))
            index = rng.randrange(len(runnable))
            router._running = runnable[index]
            del runnable[index]
        else:
            router._running = runnable.popleft() if runnable else None
        if router._running is not None:
            router._batons[router._running].release()

    monkeypatch.setattr(MessageRouter, "_dispatch", dispatch)
    return choices


def exact(value):
    """``value`` as plain data with every float spelled by ``float.hex()``.

    Objects that are not data (the performance model a row hands back) are
    named by their type: they are inputs, not results.
    """
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, dict):
        return sorted((repr(exact(key)), exact(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    if dataclasses.is_dataclass(value):
        return [type(value).__name__, exact(dataclasses.asdict(value))]
    return type(value).__name__


def _load(path: Path, name: str):
    """A module from its file, leaving ``sys.path`` as it found it."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def _figure_row(model, name: str, grid: str = "smoke"):
    (row,) = [row for row in _load_figures().FIGURES if row.id == name]
    return exact(row.run(model, grid))


def _workload_digest(model, name: str) -> str:
    cls = getattr(_load(REPO / "benchmarks" / "e2e" / "workloads.py", "_e2e_workloads"), name)
    workload = cls(model, seed=1)
    workload.block(cls.block_rounds)
    assert workload.failed_ops == 0, name
    return workload.virtual_digest()


@pytest.fixture(scope="module")
def fifo(summit_model) -> dict:
    """The FIFO hand-off's figure rows and workload digests, by name."""
    results = {name: _figure_row(summit_model, name) for name in FIGURE_ROWS}
    results.update(((name, "full"), _figure_row(summit_model, name, "full")) for name in FULL_ROWS)
    results.update((name, _workload_digest(summit_model, name)) for name in WORKLOADS)
    return results


@pytest.mark.parametrize("seed", SEEDS)
def test_the_golden_fixture_replays_under_a_permuted_schedule(monkeypatch, summit_model, seed):
    golden = _load(REPO / "tools" / "make_golden_fixtures.py", "_make_golden_fixtures")
    choices = permute_dispatch(monkeypatch, seed)
    fresh = json.loads(json.dumps(golden.build_fixture(summit_model)))
    committed = json.loads((REPO / "tests" / "fixtures" / "golden_figures.json").read_text())
    assert golden.changed_leaves(committed, fresh) == []
    assert choices and max(choices) >= 2


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIGURE_ROWS)
def test_figure_rows_price_what_fifo_prices(monkeypatch, summit_model, fifo, name, seed):
    choices = permute_dispatch(monkeypatch, seed)
    assert _figure_row(summit_model, name) == fifo[name]
    assert choices and max(choices) >= 2


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FULL_ROWS)
def test_full_grids_price_what_fifo_prices(monkeypatch, summit_model, fifo, name, seed):
    choices = permute_dispatch(monkeypatch, seed)
    assert _figure_row(summit_model, name, "full") == fifo[name, "full"]
    assert choices and max(choices) >= 2


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_blocks_keep_fifos_virtual_digest(monkeypatch, summit_model, fifo, name, seed):
    choices = permute_dispatch(monkeypatch, seed)
    assert _workload_digest(summit_model, name) == fifo[name]
    assert choices and max(choices) >= 2


def _fattree_run(model, program) -> list:
    """Run ``program(ctx, comm)`` on the three-rank fat-tree, interposed."""

    def run(ctx):
        return program(ctx, interpose(ctx, TempiConfig(), model=model))

    return World(3, topology=THREE_RANK_FATTREE).run(run)


def _equal_keys(ctx, comm) -> str:
    """Ranks 0 and 1 send one message each to rank 2, from clock 0 with the
    same pack: equal ready times on leaf 0's up-bundle, so rank 0's key is
    the lower and its message takes the bundle first."""
    vector = comm.Type_commit(Type_vector(256, 64, 128, BYTE))
    buffer = ctx.gpu.malloc(vector.extent)
    if ctx.rank < 2:
        comm.Send((buffer, 1, vector), dest=2)
    else:
        for source in (0, 1):
            comm.Recv((buffer, 1, vector), source=source)
    return ctx.clock.now.hex()


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_keys_on_one_bundle_commit_in_rank_order(monkeypatch, summit_model, seed):
    fifo = _fattree_run(summit_model, _equal_keys)
    choices = permute_dispatch(monkeypatch, seed)
    assert [_fattree_run(summit_model, _equal_keys) for _ in range(4)] == [fifo] * 4
    assert choices and max(choices) >= 2


def _burst_behind_clock(posts):
    """Rank 0 batches three small sends to rank 2, computes past the packs,
    then flushes: its one wire message posts behind its clock.  Rank 1
    sends one message to rank 2 over the same up-bundle meanwhile."""

    def program(ctx, comm):
        small = comm.Type_commit(Type_vector(16, 8, 16, BYTE))
        buffers = [ctx.gpu.malloc(small.extent) for _ in range(3)]
        if ctx.rank == 0:
            requests = [comm.Isend((buf, 1, small), dest=2, tag=tag) for tag, buf in enumerate(buffers)]
            ctx.clock.advance(40e-6)
            posts.append(ctx.clock.now)
            Request.Waitall(requests)
        elif ctx.rank == 1:
            comm.Send((buffers[0], 1, small), dest=2, tag=7)
        else:
            comm.Recv((buffers[0], 1, small), source=1, tag=7)
            for tag, buf in enumerate(buffers):
                comm.Recv((buf, 1, small), source=0, tag=tag)
        return ctx.clock.now.hex(), comm.stats.batched_plans

    return program


def test_a_burst_flushed_behind_its_clock_posts_behind_it(summit_model):
    """The case below is what it says: the flush's ready time is below the
    clock rank 0 flushed at."""
    flushed_at, events = [], []

    def program(ctx):
        comm = interpose(ctx, TempiConfig(), model=summit_model)
        return _burst_behind_clock(flushed_at)(ctx, comm)

    with trace_default(lambda _, event: events.append(event)):
        world = World(3, topology=THREE_RANK_FATTREE)
    results = world.run(program)
    (flush,) = [event for event in events if isinstance(event, PostEvent) and event.rank == 0]
    assert results[0][1] == 3 and flush.ready < flushed_at[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_burst_flushed_behind_its_clock_prices_what_fifo_prices(monkeypatch, summit_model, seed):
    fifo = _fattree_run(summit_model, _burst_behind_clock([]))
    choices = permute_dispatch(monkeypatch, seed)
    assert [_fattree_run(summit_model, _burst_behind_clock([])) for _ in range(4)] == [fifo] * 4
    assert choices and max(choices) >= 2


def _probe_spin(spin: bool):
    """Rank 0 sends a vector to rank 2 over leaf 0's up-bundle.  Rank 2
    receives it, after spinning on ``Probe`` at clock 0 when ``spin``:
    misses that never move its clock, so its clock stays below rank 0's
    key until the message is there."""

    def program(ctx, comm):
        vector = comm.Type_commit(Type_vector(256, 64, 128, BYTE))
        buffer = ctx.gpu.malloc(vector.extent)
        if ctx.rank == 0:
            comm.Send((buffer, 1, vector), dest=2)
        elif ctx.rank == 2:
            while spin and comm.Probe(source=0) is None:
                pass
            comm.Recv((buffer, 1, vector), source=0)
        return ctx.clock.now.hex()

    return program


@pytest.mark.parametrize("seed", (None,) + SEEDS)
def test_a_rank_spinning_on_probe_does_not_hold_back_a_commit(monkeypatch, summit_model, seed):
    """Rank 0's commit may not wait for a spinning rank's clock to pass its
    key: nothing but rank 0's post ends the spin.  The run ends, and prices
    what a blocking receive prices."""
    blocking = _fattree_run(summit_model, _probe_spin(False))
    if seed is not None:
        permute_dispatch(monkeypatch, seed)

    def run(ctx):
        return _probe_spin(True)(ctx, interpose(ctx, TempiConfig(), model=summit_model))

    assert World(3, topology=THREE_RANK_FATTREE).run(run, timeout=30.0) == blocking


def test_a_thread_outside_world_run_never_waits():
    """Without a run no rank holds the token: ``await_key`` returns at once,
    even with every other rank's clock below the key, and parks nothing."""
    world = World(3, topology=THREE_RANK_FATTREE)
    router = world.router
    router.await_key(2, 1.0)
    assert router._parked == {} and not router._runnable
    world.run(lambda ctx: None)
    router.await_key(2, 1.0)
    assert router._parked == {} and not router._runnable

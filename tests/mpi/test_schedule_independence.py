"""Priced clocks do not depend on which runnable rank gets the run token.

``MessageRouter._dispatch`` is the one place a rank thread is chosen to run
next, and it hands the token to the rank that became runnable first.  Any
runnable rank is a schedule a real machine could run, so here a test-only
hook (monkeypatched, not a config field) picks a seeded-random one instead,
with the same deadlock handling, and every priced result must come out
bit-identical to the FIFO hand-off's:

* the golden figure fixture, rebuilt leaf for leaf;
* the ``topology`` and ``fig12-functional`` figure rows at their smoke grid,
  compared by ``float.hex()``;
* one block of the ``halo_world`` and ``ml_replay`` benchmark workloads
  (``benchmarks/e2e/workloads.py``, loaded read-only), by their
  ``virtual_digest``.

Every case also checks that the hook chose among at least two ranks, so the
wall cannot pass without exercising a schedule FIFO would not run.  Not
covered: the ``fig13`` row (12.6 s at smoke) and the full ``allreduce``
grid, whose 6-node ``tree`` entry moves under some schedules today.
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
from repro.mpi.p2p import MessageRouter

REPO = Path(__file__).resolve().parents[2]
SEEDS = (1, 2)
FIGURE_ROWS = ("topology", "fig12-functional")
WORKLOADS = ("HaloWorld", "MlReplay")


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


def _figure_row(model, name: str):
    (row,) = [row for row in _load_figures().FIGURES if row.id == name]
    return exact(row.run(model, "smoke"))


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
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_blocks_keep_fifos_virtual_digest(monkeypatch, summit_model, fifo, name, seed):
    choices = permute_dispatch(monkeypatch, seed)
    assert _workload_digest(summit_model, name) == fifo[name]
    assert choices and max(choices) >= 2

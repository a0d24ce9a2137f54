"""Seam guard: every public name the end-to-end tracer wraps still exists.

``benchmarks/e2e/tracer.py`` (read here, never edited by a refactor) swaps
wrappers onto the functions listed in its ``SEAMS`` table and silently skips
a name it cannot find — so a refactor that drops or renames a traced entry
point would not fail the benchmark, it would just make the per-layer numbers
incomparable with every earlier run.  This test fails instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent.parent / "benchmarks" / "e2e" / "tracer.py"

#: Seams the program no longer has, each with the change that removed it.
REMOVED = {
    # PR 12 deleted the per-rank batch-booking fork.
    ("repro.tempi.progress", "ProgressEngine.reserve_wire_batch"),
    # Deleted with the one-shot plan LRU: a persistent collective's bound
    # template is the only plan reuse left.
    ("repro.tempi.plan", "PlanCache.get"),
    ("repro.tempi.plan", "PlanCache.touch"),
    ("repro.tempi.plan", "PlanCache.put"),
}


def _seams() -> dict[str, list[tuple[str, str]]]:
    spec = importlib.util.spec_from_file_location("_e2e_tracer_seams", TRACER)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SEAMS


def _resolves(module_name: str, dotted: str) -> bool:
    """The tracer's own lookup: the attribute in its owner's ``__dict__``."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = dotted.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    return owner is not None and vars(owner).get(attr) is not None


def test_every_traced_seam_resolves():
    seams = [seam for layer in _seams().values() for seam in layer]
    assert len(seams) > 80  # the table itself was found and is not a stub
    missing = {seam for seam in seams if not _resolves(*seam)}
    assert missing == REMOVED, (
        f"traced seams that no longer resolve: {sorted(missing - REMOVED)}; "
        f"allow-listed seams that exist again: {sorted(REMOVED - missing)}"
    )

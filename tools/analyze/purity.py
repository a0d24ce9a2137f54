"""SIM002 — selection/pricing code must be a pure read of the timelines.

``ContendedSelector`` prices candidates against the live NIC state; the
determinism contract (see ``docs/ARCHITECTURE.md``) requires those reads to
be *pure*: a pricing call that reserved a slot, committed an ingest batch or
advanced a sequence counter would move priced state as a side effect of
*looking at it* — the class of bug the runtime sanitizer's ledger checksum
catches dynamically, flagged here statically.

The check walks the call graph from every function defined in
``repro.tempi.selection`` and, inside each reachable body, flags method
calls where both

* the method name is a known mutating ``NicTimeline``/``ProgressEngine``
  API (:data:`MUTATING_APIS`), and
* the receiver's terminal name marks it as a timeline/engine handle
  (:data:`TIMELINE_RECEIVERS` — ``self.nic``, ``engine``, ...).
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from tools.analyze.callgraph import CallGraph, module_name
from tools.analyze.core import SourceFile, Violation

#: The module whose reachable set is the pricing path.
ENTRY_MODULE = "repro.tempi.selection"

#: State-advancing APIs of :class:`~repro.machine.nic.NicTimeline` and
#: :class:`~repro.tempi.progress.ProgressEngine`.  ``port_free_at`` /
#: ``link_free_at`` / ``ingest_backlog`` / ``ingest_preview`` are the pure
#: reads pricing is allowed.
MUTATING_APIS = frozenset(
    {
        # NicTimeline
        "reserve",
        "ingest",
        "reset",
        "_register_pending",
        # ProgressEngine
        "reserve_wire",
        "ingest_one",
        "ingest_batch",
        "arrival_commit",
        "offer_send",
        "flush",
        "progress",
        "bind",
    }
)

#: Terminal receiver names that denote a timeline or engine handle.
TIMELINE_RECEIVERS = frozenset(
    {"nic", "timeline", "engine", "_engine", "progress_engine"}
)


def _receiver_name(node: ast.expr) -> Optional[str]:
    """``self.nic.reserve`` → ``nic``; ``engine.flush`` → ``engine``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def check_selection_purity(files: Iterable[SourceFile]) -> list[Violation]:
    """Flag mutating timeline/engine calls reachable from the selection module."""
    file_list = list(files)
    graph = CallGraph.build(file_list)
    reachable = graph.reachable_from_module(ENTRY_MODULE)
    if not reachable:
        return []
    relpath_by_module: dict[str, str] = {}
    for source_file in file_list:
        name = module_name(source_file.relpath)
        if name is not None:
            relpath_by_module[name] = source_file.relpath
    findings: list[Violation] = []
    for key in sorted(reachable):
        function = graph.functions.get(key)
        if function is None:
            continue
        relpath = relpath_by_module.get(function.module)
        if relpath is None:
            continue
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in MUTATING_APIS:
                continue
            receiver = _receiver_name(func.value)
            if receiver not in TIMELINE_RECEIVERS:
                continue
            findings.append(
                Violation(
                    relpath,
                    node.lineno,
                    "SIM002",
                    f"pricing path calls mutating API `{receiver}.{func.attr}` "
                    f"(reachable from {ENTRY_MODULE}); selection must be a "
                    "pure read of the timelines",
                )
            )
    return findings

"""The per-file simlint rules: SIM001, SIM003, SIM005, SIM006, SIM007 and SIM008.

Each rule is a callable ``rule(source_file) -> list[Violation]``; the driver
in :mod:`tools.analyze.core` runs every entry of :data:`FILE_RULES` over
every parsed file and handles suppressions afterwards, so the rules report
unconditionally.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from tools.analyze.core import SourceFile, Violation

# --------------------------------------------------------------------------- #
# SIM001 — no wall-clock or random on priced paths
# --------------------------------------------------------------------------- #

#: Exact dotted names whose *call* reads the host clock.  Anything priced
#: must advance virtual clocks only; host time belongs to the benchmark
#: harness, ``repro.bench``.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Module prefixes whose every call is a nondeterminism source.
RANDOM_PREFIXES = ("random.", "numpy.random.")

#: Files allowed to read the host clock: the simulator's own benchmark
#: harness, which times the *simulator*, not the simulation.
SIM001_WHITELIST_PREFIXES = ("src/repro/bench/",)


class _ImportMap(ast.NodeVisitor):
    """Resolve local names back to the dotted module paths they import."""

    def __init__(self) -> None:
        self.names: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        """Record ``import x.y [as z]`` aliases."""
        for alias in node.names:
            local = alias.asname if alias.asname else alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.names[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        """Record ``from x import y [as z]`` aliases (absolute imports only)."""
        if node.module is None or node.level:
            return
        for alias in node.names:
            local = alias.asname if alias.asname else alias.name
            self.names[local] = f"{node.module}.{alias.name}"


def _dotted_name(node: ast.expr, imports: _ImportMap) -> Optional[str]:
    """The import-resolved dotted path of a Name/Attribute chain, if any."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = imports.names.get(current.id, current.id)
    parts.append(root)
    return ".".join(reversed(parts))


def _resolved_calls(source_file: SourceFile) -> Iterator[tuple[ast.Call, str]]:
    """Every call in the file whose callee resolves to a dotted import path."""
    tree = source_file.tree
    if tree is None:
        return
    imports = _ImportMap()
    imports.visit(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func, imports)
            if name is not None:
                yield node, name


def check_wall_clock(source_file: SourceFile) -> list[Violation]:
    """SIM001: flag wall-clock and ``random`` calls outside the whitelist."""
    relpath = source_file.relpath
    if not relpath.startswith("src/"):
        return []
    if relpath.startswith(SIM001_WHITELIST_PREFIXES):
        return []
    findings: list[Violation] = []
    for node, name in _resolved_calls(source_file):
        if name in WALL_CLOCK_CALLS:
            findings.append(
                Violation(
                    relpath,
                    node.lineno,
                    "SIM001",
                    f"wall-clock call `{name}` on a priced path; host timing "
                    "belongs in the benchmark harness (repro.bench)",
                )
            )
        elif name.startswith(RANDOM_PREFIXES) or name == "random":
            findings.append(
                Violation(
                    relpath,
                    node.lineno,
                    "SIM001",
                    f"random-source call `{name}` on a priced path; priced "
                    "results must be reproducible",
                )
            )
    return findings


# --------------------------------------------------------------------------- #
# SIM003 — no unordered iteration feeding clock arithmetic
# --------------------------------------------------------------------------- #

#: Modules whose loops feed virtual clocks: the priced core.
SIM003_SCOPE_PREFIXES = ("src/repro/machine/", "src/repro/tempi/")

#: Terminal names of the rank-keyed ledger dictionaries whose *insertion*
#: order is wall-clock-dependent (threads interleave their inserts); loops
#: that accumulate over their views must sort by an explicit key first.
#: The topology maps (NIC-rail and shared-uplink cursors, the memoised path
#: cache) are rank/rail-keyed the same way: first-use order is scheduling.
RANK_KEYED_DICTS = frozenset(
    {
        "_ports",
        "_links",
        "_ingest_ports",
        "_seqs",
        "_pending",
        "pending",
        "_batches",
        "batches",
        "_rail_ports",
        "_ingest_rails",
        "_shared_links",
        "_paths",
        # Batch-booking grouping maps: per-equivalence-class counts captured
        # on plan templates and folded into the stats books by the batched
        # replay.  The classes themselves are discovered in transcript order,
        # but the maps are plain dicts — any loop that accumulates over their
        # views must sort by an explicit key first.
        "_steady_counts",
        "method_counts",
    }
)

_DICT_VIEWS = frozenset({"keys", "values", "items"})


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The last identifier of a Name/Attribute chain (``self._pending`` → ``_pending``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_unordered_set(node: ast.expr) -> bool:
    """True for set displays, set comprehensions and ``set()``/``frozenset()`` calls."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_rank_keyed_view(node: ast.expr) -> bool:
    """True when ``node`` iterates a watched ledger dict or one of its views."""
    if _terminal_name(node) in RANK_KEYED_DICTS:
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEWS
        and _terminal_name(node.func.value) in RANK_KEYED_DICTS
    ):
        return True
    return False


def _accumulates(body: list[ast.stmt]) -> bool:
    """True when a loop body carries state across iterations (order matters).

    Two shapes count: an augmented arithmetic assignment (``x += ...``) and a
    plain assignment whose right-hand side reads its own target (the
    ``port = max(port, ...)`` recurrence shape).
    """
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult)
            ):
                return True
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = _terminal_name(node.targets[0])
                if target is None:
                    continue
                reads = {
                    _terminal_name(sub)
                    for sub in ast.walk(node.value)
                    if isinstance(sub, (ast.Name, ast.Attribute))
                }
                if target in reads:
                    return True
    return False


def check_unordered_iteration(source_file: SourceFile) -> list[Violation]:
    """SIM003: flag order-sensitive loops over unordered/rank-keyed iterables."""
    relpath = source_file.relpath
    if not relpath.startswith(SIM003_SCOPE_PREFIXES):
        return []
    tree = source_file.tree
    if tree is None:
        return []
    findings: list[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            iterable = node.iter
            if (
                _is_unordered_set(iterable) or _is_rank_keyed_view(iterable)
            ) and _accumulates(node.body):
                findings.append(
                    Violation(
                        relpath,
                        node.lineno,
                        "SIM003",
                        "iteration order feeds clock arithmetic; serve in an "
                        "explicit order (e.g. sorted by `(post_time, source, seq)`)",
                    )
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                if _is_unordered_set(generator.iter):
                    findings.append(
                        Violation(
                            relpath,
                            node.lineno,
                            "SIM003",
                            "comprehension over an unordered set in the priced "
                            "core; sort by an explicit key first",
                        )
                    )
    return findings


# --------------------------------------------------------------------------- #
# SIM005 — float accumulation in ledger loops must use the ledger helper
# --------------------------------------------------------------------------- #

#: The two files owning port/ledger loops, where accumulation order is the
#: determinism contract itself.
SIM005_SCOPE = frozenset({"src/repro/machine/nic.py", "src/repro/tempi/progress.py"})

#: The sanctioned ordering-stable summation helpers (a strict left fold over
#: an explicitly ordered sequence).  The helper bodies are exempt — they are
#: the one place the fold loop is allowed to live.
LEDGER_HELPERS = frozenset({"ledger_sum"})

#: Virtual-seconds accumulator shapes: the repo-wide ``*_s`` suffix plus the
#: cursor names the port recurrences use.
_FLOAT_ACCUMULATOR = re.compile(r"(_s$)|(^port$)|(^cursor$)|(^total$)|(^serial$)")


def _enclosing_helpers(tree: ast.Module) -> set[int]:
    """Line spans (as a set of line numbers) of the ledger-helper bodies."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in LEDGER_HELPERS and node.end_lineno is not None:
                lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _loops(tree: ast.Module) -> Iterator[ast.stmt]:
    """Every ``for``/``while`` statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.While)):
            yield node


def check_ledger_accumulation(source_file: SourceFile) -> list[Violation]:
    """SIM005: flag ``+=`` float accumulation inside ledger/port loops."""
    relpath = source_file.relpath
    if relpath not in SIM005_SCOPE:
        return []
    tree = source_file.tree
    if tree is None:
        return []
    helper_lines = _enclosing_helpers(tree)
    findings: list[Violation] = []
    for loop in _loops(tree):
        assert isinstance(loop, (ast.For, ast.While))
        for node in ast.walk(loop):
            if not isinstance(node, ast.AugAssign) or not isinstance(node.op, ast.Add):
                continue
            if node.lineno in helper_lines:
                continue
            target = _terminal_name(node.target)
            if target is None or not _FLOAT_ACCUMULATOR.search(target):
                continue
            findings.append(
                Violation(
                    relpath,
                    node.lineno,
                    "SIM005",
                    f"float accumulation `{target} +=` inside a ledger loop; "
                    "collect the terms and fold them with `ledger_sum` "
                    "(ordering-stable summation)",
                )
            )
    return findings


# --------------------------------------------------------------------------- #
# SIM006 — no private blocking primitive on a rank thread
# --------------------------------------------------------------------------- #

#: Calls that make (or are) a wait the run token does not know about.  One
#: rank runs at a time and gives the token up only inside the router's
#: waits, so a rank that blocks on anything else stalls the whole world.
#: ``Lock``/``RLock`` stay legal: a short critical section is not a wait.
BLOCKING_CALLS = frozenset(
    {
        "threading.Condition",
        "threading.Event",
        "threading.Barrier",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "queue.Queue",
        "queue.LifoQueue",
        "queue.PriorityQueue",
        "queue.SimpleQueue",
        "time.sleep",
    }
)

#: The two files that implement the token-aware waits.
SIM006_WHITELIST = frozenset({"src/repro/mpi/p2p.py", "src/repro/mpi/world.py"})


def check_private_blocking(source_file: SourceFile) -> list[Violation]:
    """SIM006: flag blocking primitives outside the run token's two files."""
    relpath = source_file.relpath
    if not relpath.startswith("src/repro/") or relpath in SIM006_WHITELIST:
        return []
    return [
        Violation(
            relpath,
            node.lineno,
            "SIM006",
            f"`{name}` is a wait the run token cannot see: a rank blocked on it "
            "stalls every rank; wait through MessageRouter.receive/block "
            "(World.barrier_wait) instead",
        )
        for node, name in _resolved_calls(source_file)
        if name in BLOCKING_CALLS
    ]


# --------------------------------------------------------------------------- #
# SIM007 — a pricing rule is written down in its home, nowhere else
# --------------------------------------------------------------------------- #

#: The rules' homes: the NIC's port/link/ingest recurrences, the stream
#: recurrence, the analytic all-to-all-v discount and the ``per_plan``
#: ablation's private window.
#: Everything else *drives* those objects (``docs/ARCHITECTURE.md`` §
#: "Scalar message path").
SIM007_HOMES = frozenset(
    {
        "src/repro/machine/nic.py",
        "src/repro/gpu/stream.py",
        "src/repro/machine/network.py",
        "src/repro/tempi/progress.py",
    }
)

def _cursor_name(node: ast.expr) -> Optional[str]:
    """Terminal name of an assignment target, looking through ``x[key]``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return _terminal_name(node)


def _read_back(value: ast.expr) -> Optional[str]:
    """The ``x`` that ``x[k]`` or ``x.get(k, ...)`` reads a cursor back from."""
    if isinstance(value, ast.Subscript):
        return _cursor_name(value)
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute) and value.func.attr == "get":
        return _cursor_name(value.func.value)
    return None


def _read_back_aliases(tree: ast.AST) -> dict[ast.Assign, dict[str, str]]:
    """Per assignment, its function's read-back aliases: each name assigned
    from ``x[k]`` or ``x.get(k, ...)`` there, mapped to ``x``."""
    scopes: dict[ast.Assign, dict[str, str]] = {}
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigns = [node for node in ast.walk(function) if isinstance(node, ast.Assign)]
        aliases: dict[str, str] = {}
        for node in assigns:
            container = _read_back(node.value)
            if container is not None and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                aliases[node.targets[0].id] = container
        scopes.update(dict.fromkeys(assigns, aliases))
    return scopes


def _restates_cursor_rule(node: ast.Assign, aliases: dict[str, str]) -> bool:
    """True for ``x = max(..., x) + ...``, whatever ``x`` is called, and for
    ``x[k] = max(..., free) + ...`` where ``free`` was read back from ``x``."""
    if len(node.targets) != 1 or not isinstance(node.value, ast.BinOp):
        return False
    target = _cursor_name(node.targets[0])
    if target is None:
        return False
    value = node.value
    if not isinstance(value.op, ast.Add):
        return False
    for side in (value.left, value.right):
        if isinstance(side, ast.Call) and _terminal_name(side.func) == "max":
            for arg in side.args:
                name = _cursor_name(arg)
                if name == target or (isinstance(arg, ast.Name) and aliases.get(arg.id) == target):
                    return True
    return False


def check_restated_pricing_rule(source_file: SourceFile) -> list[Violation]:
    """SIM007: flag occupancy products and cursor recurrences outside the homes."""
    relpath = source_file.relpath
    if not relpath.startswith("src/repro/") or relpath in SIM007_HOMES:
        return []
    tree = source_file.tree
    if tree is None:
        return []
    aliases = _read_back_aliases(tree)
    findings: list[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            names = [_terminal_name(side) or "" for side in (node.left, node.right)]
            overlap = next((name for name in names if name.lower().endswith("overlap")), None)
            if overlap is not None:
                findings.append(
                    Violation(
                        relpath,
                        node.lineno,
                        "SIM007",
                        f"`{overlap} * wire` restates the NIC's occupancy rule; "
                        "reserve/ingest on a NicTimeline instead",
                    )
                )
        elif isinstance(node, ast.Assign) and _restates_cursor_rule(node, aliases.get(node, {})):
            findings.append(
                Violation(
                    relpath,
                    node.lineno,
                    "SIM007",
                    "`x = max(..., x) + ...` restates a cursor recurrence; drive a "
                    "Stream (enqueue) or a NicTimeline (reserve/ingest) instead",
                )
            )
    return findings


# --------------------------------------------------------------------------- #
# SIM008 — threads start in two files only
# --------------------------------------------------------------------------- #

#: Calls that start host threads.  A thread outside the run token runs when
#: the host's scheduler says, so anything it touches is ordered differently
#: from run to run.
THREAD_CALLS = frozenset({"threading.Thread", "threading.Timer"})

#: The rank threads (which take turns under the run token) and the kernels'
#: fan-out (whose chunks write disjoint bytes and touch no priced state).
SIM008_WHITELIST = frozenset({"src/repro/mpi/world.py", "src/repro/gpu/kernels.py"})


def check_private_threads(source_file: SourceFile) -> list[Violation]:
    """SIM008: flag threads and ``concurrent.futures`` executors outside the whitelist."""
    relpath = source_file.relpath
    if not relpath.startswith("src/repro/") or relpath in SIM008_WHITELIST:
        return []
    return [
        Violation(
            relpath,
            node.lineno,
            "SIM008",
            f"`{name}` starts a thread the run token does not order, so what it "
            "touches changes order from run to run; rank work runs on World's "
            "rank threads, byte copies on the kernels' fan-out",
        )
        for node, name in _resolved_calls(source_file)
        if name in THREAD_CALLS
        or (name.startswith("concurrent.futures.") and name.endswith("Executor"))
    ]


#: The per-file rules the driver runs, in reporting order.
FILE_RULES = (
    check_wall_clock,
    check_unordered_iteration,
    check_ledger_accumulation,
    check_private_blocking,
    check_restated_pricing_rule,
    check_private_threads,
)

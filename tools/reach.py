"""Which functions under ``src/repro`` no program reaches.

    python tools/reach.py [--entry figures|e2e|examples|cli|all]

Runs the chosen entry points in this process with a profile hook on every
thread (``sys.setprofile`` here, ``threading.setprofile`` for the threads
they start) that records each Python code object called, then prints every
function defined under ``src/repro`` that none of them reached, with its line
count, grouped by file, and a total.  Tests are not an entry: a function only
tests call is what this lists.

* ``figures`` — every row of ``benchmarks/figures.py`` at the smoke grid, in
  this process (run, table, check, record), then
  ``tools/make_golden_fixtures.py --diff``;
* ``e2e`` — the five ``benchmarks/e2e/run.py`` leaves, ``--quick --trace 0``;
* ``examples`` — every ``examples/*.py``;
* ``cli`` — ``repro predict``, ``halo``, ``select-table`` (unloaded and
  ``--plans 2``), ``topo show --spec``, ``sanitize``, ``explain incast``,
  ``lint`` and ``measure``;
* ``all`` — the four together (4 to 7 minutes on 2 cores).

The e2e harness sets and clears its own call-counting hook around counted
rounds.  While the census runs, ``sys.setprofile`` and
``threading.setprofile`` are wrapped, so a hook set by an entry runs after
the census's instead of replacing it.  An entry that fails or exits (a
failed check, say) is reported on stderr, what it reached until then
counts, and the census goes on.  Entries' own output is discarded.
``docs/ARCHITECTURE.md`` § "Reach census" says why each unreached function
stays.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


class Function(NamedTuple):
    """One ``def`` under ``src/repro``."""

    path: str      # relative to the repository root
    qualname: str
    first: int     # first line, decorators included (a code object's co_firstlineno)
    lines: int


def functions() -> list[Function]:
    """Every function and method defined under ``src/repro``, in file order."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = str(path.relative_to(ROOT))

        def walk(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    found.append(Function(relative, qualname, first, child.end_lineno - first + 1))
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return found


class Census:
    """Record the code objects called on every thread while active.

    Entering wraps ``sys.setprofile`` and ``threading.setprofile``: a hook
    an entry point installs is chained after the census's, and clearing it
    puts the census's own back.  Exiting restores both functions and the
    hooks that were set before.
    """

    def __init__(self) -> None:
        self.codes: set = set()
        self._saved: tuple = ()

    def _record(self, frame, event: str, arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    def _chain(self, hook):
        if hook is None:
            return self._record
        if hook == self._record or getattr(hook, "census", None) is self:
            return hook  # a new thread installing the hook it was started with
        record = self._record

        def both(frame, event: str, arg) -> None:
            record(frame, event, arg)
            hook(frame, event, arg)

        both.census = self
        return both

    def __enter__(self) -> "Census":
        set_sys, set_threading = sys.setprofile, threading.setprofile
        self._saved = (set_sys, set_threading, sys.getprofile(), threading.getprofile())
        sys.setprofile = lambda hook: set_sys(self._chain(hook))
        threading.setprofile = lambda hook: set_threading(self._chain(hook))
        threading.setprofile(None)
        sys.setprofile(None)
        return self

    def __exit__(self, *exc) -> None:
        set_sys, set_threading, before_sys, before_threading = self._saved
        sys.setprofile, threading.setprofile = set_sys, set_threading
        set_sys(before_sys)
        set_threading(before_threading)

    def reached(self, table: list[Function]) -> set[Function]:
        """The functions of ``table`` whose code ran."""
        ran = {
            (os.path.realpath(code.co_filename), code.co_firstlineno) for code in self.codes
        }
        return {f for f in table if (str(ROOT / f.path), f.first) in ran}


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #

@contextlib.contextmanager
def _path(*directories: Path) -> Iterator[None]:
    saved = list(sys.path)
    sys.path[:0] = [str(d) for d in directories]
    try:
        yield
    finally:
        sys.path[:] = saved


@contextlib.contextmanager
def _argv(argv: list[str]) -> Iterator[None]:
    saved = sys.argv
    sys.argv = argv
    try:
        yield
    finally:
        sys.argv = saved


def run_example(path: Path) -> None:
    """One ``examples/*.py`` as a script."""
    with _path(path.parent):
        runpy.run_path(str(path), run_name="__main__")


def _figures() -> Iterator[tuple[str, Callable[[], object]]]:
    from repro import cli

    for row in cli._load_figures().FIGURES:
        def run(row=row):
            failure = cli._run_figure(row, "smoke")[2]
            if failure is not None:
                raise RuntimeError(failure.splitlines()[-1])

        yield f"figures {row.id}", run

    def golden():
        from tools import make_golden_fixtures

        return make_golden_fixtures.main(["--diff"])

    yield "make_golden_fixtures.py --diff", golden


def _e2e() -> Iterator[tuple[str, Callable[[], object]]]:
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        def run(workload=workload):
            argv = ["run.py", "--workload", workload, "--trace", "0", "--quick"]
            with _path(ROOT / "benchmarks" / "e2e"), _argv(argv):
                return runpy.run_path(str(ROOT / "benchmarks" / "e2e" / "run.py"))["main"]()

        yield f"e2e {workload}", run


def _examples() -> Iterator[tuple[str, Callable[[], object]]]:
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield f"examples/{path.name}", lambda path=path: run_example(path)


def _cli() -> Iterator[tuple[str, Callable[[], object]]]:
    from repro.cli import main

    spec = str(ROOT / "examples" / "topology_fattree.json")
    with tempfile.TemporaryDirectory() as scratch:
        for argv in (
            ["predict", "--size", "1048576", "--block", "8"],
            ["halo", "--nodes", "2", "--ranks-per-node", "6"],
            ["select-table"],
            ["select-table", "--plans", "2"],
            ["topo", "show", "--spec", spec],
            ["sanitize"],
            ["explain", "incast"],
            ["lint"],
            ["measure", "--output", str(Path(scratch) / "measurement.json")],
        ):
            yield "repro " + " ".join(argv[:2]), lambda argv=argv: main(argv)


ENTRIES = {"figures": _figures, "e2e": _e2e, "examples": _examples, "cli": _cli}


def run_entries(names: list[str]) -> None:
    """Run each entry point of ``names``, their output discarded."""
    with open(os.devnull, "w") as sink:
        for name in names:
            for label, run in ENTRIES[name]():
                print(f"reach: {label}", file=sys.stderr)
                try:
                    with contextlib.redirect_stdout(sink):
                        run()
                except (Exception, SystemExit) as exc:  # noqa: BLE001 - a stopped entry still counts
                    print(f"reach: {label} stopped: {exc!r}"[:300], file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entry", choices=(*ENTRIES, "all"), default="all")
    args = parser.parse_args(argv)
    names = list(ENTRIES) if args.entry == "all" else [args.entry]
    with Census() as census:
        run_entries(names)
    table = functions()
    reached = census.reached(table)
    unreached = [f for f in table if f not in reached]
    current = None
    for function in unreached:
        if function.path != current:
            current = function.path
            print(current)
        print(f"  {function.qualname:60s} {function.lines:5d}")
    print(
        f"{len(unreached)} of {len(table)} functions unreached "
        f"({sum(f.lines for f in unreached)} lines; entry: {args.entry})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

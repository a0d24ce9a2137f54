"""Smoke tests of the reach census, ``tools/reach.py``."""

import importlib.util
import inspect
import sys
import threading
from pathlib import Path

import pytest

from repro.gpu import memory
from repro.gpu.clock import VirtualClock
from repro.tempi import interposer

ROOT = Path(__file__).resolve().parents[1]


def _reach():
    """The tool as a module, leaving ``sys.path`` as it found it."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("_reach", ROOT / "tools" / "reach.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_one_example_reaches_the_commit_stages_and_no_communicator():
    """``datatype_zoo.py`` runs the commit stages on bare datatypes: it builds
    no communicator, interposed or not."""
    reach = _reach()
    with reach.Census() as census:
        reach.run_example(ROOT / "examples" / "datatype_zoo.py")
    reached = {(f.path, f.qualname) for f in census.reached(reach.functions())}
    assert {
        ("src/repro/tempi/translate.py", "translate"),
        ("src/repro/tempi/canonicalize.py", "simplify"),
        ("src/repro/tempi/strided_block.py", "to_strided_block"),
    } <= reached
    assert ("src/repro/tempi/interposer.py", "TempiCommunicator.Type_commit") not in reached
    assert ("src/repro/mpi/communicator.py", "Communicator.Dup") not in reached


def test_a_hook_set_inside_the_census_is_chained_not_replacing_it():
    """The e2e harness sets and clears its own hook around counted rounds."""
    reach = _reach()
    before = sys.getprofile()
    seen = []

    def first():
        return 1

    def second():
        return 2

    with reach.Census() as census:
        sys.setprofile(lambda frame, event, arg: seen.append(frame.f_code) if event == "call" else None)
        first()
        sys.setprofile(None)
        second()
    assert sys.getprofile() is before
    assert first.__code__ in seen and second.__code__ not in seen
    assert {first.__code__, second.__code__} <= census.codes


def test_table_first_lines_are_the_code_objects_first_lines():
    """A function is matched to its code by first line, decorators included."""
    reach = _reach()
    checked = 0
    for function in reach.functions():
        module = {
            "src/repro/gpu/memory.py": memory,
            "src/repro/tempi/interposer.py": interposer,
        }.get(function.path)
        if module is None or "<locals>" in function.qualname:
            continue
        target = module
        for name in function.qualname.split("."):
            target = inspect.getattr_static(target, name)
        target = getattr(target, "fget", target)
        target = getattr(target, "__func__", target)
        source, first = inspect.getsourcelines(target)
        assert (target.__code__.co_firstlineno, first, len(source)) == (
            function.first, function.first, function.lines
        ), function
        checked += 1
    assert checked > 50
    qualnames = {f.qualname for f in reach.functions() if f.path == "src/repro/gpu/memory.py"}
    assert {"Buffer.data", "Buffer.view", "MemoryPool._bucket", "MemoryPool.acquire"} <= qualnames


def test_calls_on_a_thread_started_inside_the_census_are_recorded():
    reach = _reach()
    with reach.Census() as census:
        worker = threading.Thread(target=lambda: VirtualClock().advance(1.0))
        worker.start()
        worker.join()
    assert VirtualClock.advance.__code__ in census.codes
    assert VirtualClock.advance_to.__code__ not in census.codes


def test_exit_restores_the_setters_and_the_hooks_set_before():
    reach = _reach()
    setters = (sys.setprofile, threading.setprofile)

    def outer(frame, event, arg):
        return None

    sys.setprofile(outer)
    threading.setprofile(outer)
    try:
        with reach.Census():
            assert (sys.setprofile, threading.setprofile) != setters
            assert sys.getprofile() is not outer
        assert (sys.setprofile, threading.setprofile) == setters
        assert sys.getprofile() is outer and threading.getprofile() is outer
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def test_a_stopped_entry_is_reported_and_the_next_one_still_runs(monkeypatch, capsys):
    reach = _reach()

    def stops():
        print("entry output is discarded")
        raise SystemExit(1)

    def runs():
        VirtualClock().advance(1.0)

    monkeypatch.setitem(reach.ENTRIES, "examples", lambda: iter([("stops", stops), ("runs", runs)]))
    with reach.Census() as census:
        reach.run_entries(["examples"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "reach: stops", "reach: stops stopped: SystemExit(1)", "reach: runs"
    ]
    assert VirtualClock.advance.__code__ in census.codes


def test_main_lists_unreached_functions_under_their_file_with_a_total(monkeypatch, capsys):
    reach = _reach()
    monkeypatch.setitem(
        reach.ENTRIES, "examples", lambda: iter([("clock", lambda: VirtualClock().advance(1.0))])
    )
    assert reach.main(["--entry", "examples"]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed, files, under = [], [], {}
    for line in lines[:-1]:
        if line.startswith("  "):
            qualname, count = line.split()
            listed.append(int(count))
            under.setdefault(files[-1], []).append(qualname)
        else:
            files.append(line)
    assert len(files) == len(set(files))
    assert "VirtualClock.advance" not in under["src/repro/gpu/clock.py"]
    assert "VirtualClock.advance_to" in under["src/repro/gpu/clock.py"]
    table = reach.functions()
    assert lines[-1] == (
        f"{len(listed)} of {len(table)} functions unreached "
        f"({sum(listed)} lines; entry: examples)"
    )
    assert len(listed) == len(table) - 1


def test_unknown_entry_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as stopped:
        _reach().main(["--entry", "nosuch"])
    assert stopped.value.code == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err

"""Fixture-snippet tests for every simlint rule (``tools/analyze``).

Each rule gets a positive case (the violation fires), a negative case
(idiomatic clean code stays clean) and a suppression case (the
``# simlint: disable=...`` escape hatch works, and an unjustified disable is
itself reported as SIM000).  The snippets are written into a temporary tree
mirroring the ``src/repro/...`` layout, because every rule scopes by path.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from tools.analyze.cli import main as lint_main
from tools.analyze.core import Violation, run_lint


def lint_tree(tmp_path: Path, files: dict[str, str], select=None) -> list[Violation]:
    """Write a fixture tree and lint it."""
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return run_lint(tmp_path, select)


def codes(findings: list[Violation]) -> list[str]:
    return [finding.code for finding in findings]


class TestSim001WallClock:
    def test_wall_clock_call_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/clocked.py": """\
                import time

                def priced():
                    return time.perf_counter()
            """,
        })
        assert codes(findings) == ["SIM001"]
        assert findings[0].line == 4
        assert "time.perf_counter" in findings[0].message

    def test_from_import_alias_resolves(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/sneaky.py": """\
                from time import perf_counter as pc

                def priced():
                    return pc()
            """,
        })
        assert codes(findings) == ["SIM001"]

    def test_random_call_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/jitter.py": """\
                import random

                def priced():
                    return random.random()
            """,
        })
        assert codes(findings) == ["SIM001"]
        assert "random" in findings[0].message

    def test_only_the_bench_harness_is_whitelisted(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/measurement.py": """\
                import time

                def host_timer():
                    return time.perf_counter()
            """,
            "src/repro/bench/harness.py": """\
                import time

                def wall():
                    return time.perf_counter()
            """,
        })
        assert [(f.path, f.code) for f in findings] == [("src/repro/tempi/measurement.py", "SIM001")]

    def test_justified_disable_suppresses(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/clocked.py": """\
                import time

                def diagnostic():
                    return time.perf_counter()  # simlint: disable=SIM001 -- never priced
            """,
        })
        assert findings == []

    def test_unjustified_disable_is_sim000(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/clocked.py": """\
                import time

                def diagnostic():
                    return time.perf_counter()  # simlint: disable=SIM001
            """,
        })
        assert codes(findings) == ["SIM000"]
        assert "justification" in findings[0].message


class TestSim002SelectionPurity:
    def test_reachable_mutation_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/selection.py": """\
                def price(nic):
                    return helper(nic)

                def helper(nic):
                    nic.reserve(0, 1, 0.0, 1.0)
            """,
        })
        assert codes(findings) == ["SIM002"]
        assert "nic.reserve" in findings[0].message

    def test_mutation_through_method_chain_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/selection.py": """\
                class Selector:
                    def __call__(self, nbytes):
                        return self._decide(nbytes)

                    def _decide(self, nbytes):
                        self.nic.ingest(0, [])
                        return nbytes
            """,
        })
        assert codes(findings) == ["SIM002"]

    def test_pure_reads_are_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/selection.py": """\
                def price(nic, rank, now):
                    backlog = nic.port_free_at(rank) - now
                    return backlog + nic.ingest_backlog(rank, now)
            """,
        })
        assert findings == []

    def test_unreachable_mutation_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/selection.py": """\
                def price(nic, rank):
                    return nic.port_free_at(rank)
            """,
            "src/repro/tempi/progress.py": """\
                def post(nic):
                    nic.reserve(0, 1, 0.0, 1.0)
            """,
        })
        assert findings == []

    def test_justified_disable_suppresses(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/selection.py": """\
                def warm(nic):
                    nic.reserve(0, 1, 0.0, 0.0)  # simlint: disable=SIM002 -- test-only warmup
            """,
        })
        assert findings == []


class TestSim003UnorderedIteration:
    def test_rank_keyed_accumulation_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/ledger.py": """\
                class Ledger:
                    def drain(self):
                        busy = 0.0
                        for record in self._pending.values():
                            busy += record
                        return busy
            """,
        })
        assert codes(findings) == ["SIM003"]

    def test_set_comprehension_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/mixer.py": """\
                def order(ranks):
                    return [rank * 2 for rank in {1, 2, 3}]
            """,
        })
        assert codes(findings) == ["SIM003"]

    def test_rail_cursor_accumulation_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/fabric.py": """\
                class Fabric:
                    def busy(self):
                        total = 0.0
                        for free_at in self._rail_ports.values():
                            total += free_at
                        return total
            """,
        })
        assert codes(findings) == ["SIM003"]

    def test_shared_uplink_recurrence_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/fabric.py": """\
                class Fabric:
                    def horizon(self):
                        last = 0.0
                        for key in self._shared_links:
                            last = max(last, self._shared_links[key])
                        return last
            """,
        })
        assert codes(findings) == ["SIM003"]

    def test_path_cache_accumulation_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/routes.py": """\
                class Router:
                    def latency_floor(self):
                        floor = 0.0
                        for path in self._paths.values():
                            floor += path.latency_s
                        return floor
            """,
        })
        assert codes(findings) == ["SIM003"]

    def test_batch_class_count_accumulation_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/replay.py": """\
                class Replay:
                    def charge(self, clock, costs):
                        for name, hits in self._steady_counts.items():
                            clock += hits * costs[name]
                        return clock
            """,
        })
        assert codes(findings) == ["SIM003"]

    def test_method_count_recurrence_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/stats.py": """\
                class Stats:
                    def dominant(self):
                        best = 0
                        for hits in self.method_counts.values():
                            best = max(best, best + hits)
                        return best
            """,
        })
        assert codes(findings) == ["SIM003"]

    def test_sorted_batch_class_iteration_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/replay.py": """\
                class Replay:
                    def charge(self, clock, costs):
                        for name in sorted(self._steady_counts):
                            clock += self._steady_counts[name] * costs[name]
                        return clock
            """,
        })
        assert findings == []

    def test_sorted_rail_iteration_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/fabric.py": """\
                class Fabric:
                    def busy(self):
                        total = 0.0
                        for key in sorted(self._ingest_rails):
                            total += self._ingest_rails[key]
                        return total
            """,
        })
        assert findings == []

    def test_sorted_iteration_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/ledger.py": """\
                class Ledger:
                    def drain(self):
                        busy = 0.0
                        for key in sorted(self._pending):
                            busy += self._pending[key]
                        return busy
            """,
        })
        assert findings == []

    def test_order_independent_loop_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/ledger.py": """\
                class Ledger:
                    def expired(self, now):
                        stale = []
                        for key in self._pending:
                            if key < now:
                                stale.append(key)
                        return stale
            """,
        })
        assert findings == []

    def test_out_of_scope_files_are_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/apps/sweep.py": """\
                def total(entries):
                    acc = 0.0
                    for entry in {1.0, 2.0}:
                        acc += entry
                    return acc
            """,
        })
        assert findings == []

    def test_justified_disable_suppresses(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/ledger.py": """\
                class Ledger:
                    def drain(self):
                        busy = 0.0
                        for record in self._pending.values():  # simlint: disable=SIM003 -- single-rank dict
                            busy += record
                        return busy
            """,
        })
        assert findings == []


class TestSim004DocCoverage:
    CONFIG = """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class TempiConfig:
            alpha: int = 0
            beta: float = 0.0
    """

    def test_undocumented_field_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/config.py": self.CONFIG,
            "docs/CONFIG.md": "Only `alpha` is documented.\n",
        })
        assert codes(findings) == ["SIM004"]
        assert "`beta`" in findings[0].message
        assert findings[0].line == 6

    def test_documented_fields_are_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/config.py": self.CONFIG,
            "docs/CONFIG.md": "Both `alpha` and `beta` are documented.\n",
        })
        assert findings == []

    def test_justified_disable_suppresses(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/config.py": """\
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class TempiConfig:
                    alpha: int = 0
                    beta: float = 0.0  # simlint: disable=SIM004 -- internal scratch knob
            """,
            "docs/CONFIG.md": "Only `alpha` is documented.\n",
        })
        assert findings == []


class TestSim005LedgerAccumulation:
    def test_float_augadd_in_loop_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/nic.py": """\
                class NicTimeline:
                    def ingest(self, stalls):
                        for stall in stalls:
                            self.ingest_stalled_s += stall
            """,
        })
        assert codes(findings) == ["SIM005"]
        assert "ledger_sum" in findings[0].message

    def test_ledger_helper_body_is_exempt(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/nic.py": """\
                def ledger_sum(values, start=0.0):
                    total = start
                    for value in values:
                        total += value
                    return total
            """,
        })
        assert findings == []

    def test_integer_counters_are_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/nic.py": """\
                class NicTimeline:
                    def ingest(self, records):
                        for record in records:
                            self.ingests += 1
            """,
        })
        assert findings == []

    def test_justified_disable_suppresses(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/nic.py": """\
                class NicTimeline:
                    def ingest(self, stalls):
                        for stall in stalls:
                            self.ingest_stalled_s += stall  # simlint: disable=SIM005 -- singleton loop
            """,
        })
        assert findings == []


class TestSim006PrivateBlocking:
    def test_blocking_primitives_fire(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/waiter.py": """\
                import queue
                import threading
                import time
                from threading import Event as Flag

                class Waiter:
                    def __init__(self):
                        self.ready = threading.Condition()
                        self.flag = Flag()
                        self.inbox = queue.Queue()

                    def nap(self):
                        time.sleep(0.01)
            """,
        })
        assert codes(findings) == ["SIM006"] * 4
        assert [finding.line for finding in findings] == [8, 9, 10, 13]
        assert "threading.Event" in findings[1].message

    def test_locks_and_namesakes_are_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/ledger.py": """\
                import threading
                from repro.gpu.stream import Event

                class Ledger:
                    def __init__(self, clock):
                        self._lock = threading.Lock()
                        self._guard = threading.RLock()
                        self.done = Event(clock)
            """,
        })
        assert findings == []

    def test_the_token_files_are_whitelisted(self, tmp_path):
        body = """\
            import threading

            wakeup = threading.Condition()
        """
        findings = lint_tree(tmp_path, {
            "src/repro/mpi/p2p.py": body,
            "src/repro/mpi/world.py": body,
            "src/repro/mpi/collectives.py": body,
        })
        assert [(f.path, f.code) for f in findings] == [("src/repro/mpi/collectives.py", "SIM006")]

    def test_justified_disable_suppresses(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/bench/pace.py": """\
                import time

                def pace():
                    time.sleep(0.1)  # simlint: disable=SIM006 -- main thread, between worlds
            """,
        })
        assert findings == []


class TestSim007RestatedPricingRule:
    def test_hand_copied_rules_fire(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/apps/twin.py": """\
                def walk(timeline, messages, launch):
                    host = ready = ingest_free = 0.0
                    for post, wire, kernel in messages:
                        held = timeline.wire_overlap * wire
                        ingest_free = max(post, ingest_free) + held
                        host += launch
                        ready = max(ready, host) + kernel
                    ports = {}
                    ports["port_free"] = 0.0
                    return ingest_free, ready

                class Window:
                    def book(self, start, wire):
                        self._nic_free = max(start, self._nic_free) + self._wire_overlap * wire
            """,
        })
        assert codes(findings) == ["SIM007"] * 5
        assert [finding.line for finding in findings] == [4, 5, 7, 14, 14]
        assert "wire_overlap" in findings[0].message

    def test_renamed_copies_fire(self, tmp_path):
        """An ingest walk that names its occupancy factor ``overlap`` and its
        cursor ``port`` still restates the NIC's rules, and so does its rail
        recurrence written through ``free``, a value read back from ``rails``."""
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/sanitizer.py": """\
                class Audit:
                    def ingest(self, ingest, dest):
                        port = self.ingest_cursor.get(dest, (0.0,))[0]
                        rails = {}
                        for (post_time, _, _, wire, arrival, rail), landing in ingest.landings:
                            held = self.overlap * wire
                            cursors = [("ingestion port", port + wire)]
                            port = max(post_time, port) + held
                            if rail is not None:
                                free = rails.get(rail, self._free("ingest-rail", rail))
                                cursors.append(("NIC rail", free + wire))
                                rails[rail] = max(post_time, free) + held
                            self._charge(dest, arrival, landing, cursors)
            """,
        })
        assert codes(findings) == ["SIM007"] * 3
        assert [finding.line for finding in findings] == [6, 8, 12]
        assert "overlap" in findings[0].message

    def test_a_read_back_alias_fires_only_in_its_own_function(self, tmp_path):
        """A name read from ``x[k]`` or ``x.get(k, ...)`` stands for ``x`` in
        its own function; the same name in another function is just a name."""
        findings = lint_tree(tmp_path, {
            "src/repro/apps/planted.py": """\
                def subscripted(cursors, rank, post, wire):
                    free = cursors[rank]
                    cursors[rank] = max(post, free) + wire

                def fetched(cursors, rank, post, wire):
                    free = cursors.get(rank, 0.0)
                    cursors[rank] = max(post, free) + wire

                def unrelated(cursors, rank, post, free, wire):
                    cursors[rank] = max(post, free) + wire
            """,
        })
        assert codes(findings) == ["SIM007"] * 2
        assert [finding.line for finding in findings] == [3, 7]

    def test_the_upper_case_constant_fires(self, tmp_path):
        """The module constant the NIC's factor defaults to is an occupancy
        factor too: a synthetic backlog priced with it restates the rule."""
        findings = lint_tree(tmp_path, {
            "src/repro/cli.py": """\
                from repro.machine.network import DEFAULT_WIRE_OVERLAP

                def backlog(plans, incast, wire):
                    inject = plans * DEFAULT_WIRE_OVERLAP * wire
                    return inject, incast * DEFAULT_WIRE_OVERLAP * wire
            """,
        })
        assert codes(findings) == ["SIM007"] * 2
        assert [finding.line for finding in findings] == [4, 5]
        assert "DEFAULT_WIRE_OVERLAP" in findings[0].message

    def test_driving_the_real_objects_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/apps/twin.py": """\
                def walk(timeline, stream, host, messages, launch):
                    for source, ready, wire, kernel in messages:
                        stream.enqueue(kernel, host_overhead=launch)
                        booked = timeline.reserve(source, 0, stream.ready_time, wire)
                        host.advance_to(booked.arrival)
                    # Sums, maxima and cursors read back are not recurrences.
                    last_ready = max(ready for _, ready, _, _ in messages)
                    port_free = timeline.port_free_at(0)
                    backlog = max(0.0, port_free - host.now) + launch
                    return last_ready, backlog, timeline.wire_overlap
            """,
        })
        assert findings == []

    def test_only_the_rules_homes_may_state_them(self, tmp_path):
        body = """\
            def occupy(self, start, wire):
                self.port_free = max(start, self.port_free) + self.wire_overlap * wire
        """
        homes = (
            "src/repro/machine/nic.py", "src/repro/gpu/stream.py",
            "src/repro/machine/network.py", "src/repro/tempi/progress.py",
        )
        # The sanitizer reads the port cursor off the post event: no home.
        strays = ("src/repro/tempi/perf_model.py", "src/repro/tempi/sanitizer.py")
        findings = lint_tree(
            tmp_path,
            {path: body for path in homes + strays + ("tools/walk.py",)},
        )
        assert {(f.path, f.code) for f in findings} == {(path, "SIM007") for path in strays}

    def test_justified_disable_suppresses(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/apps/twin.py": """\
                def held(timeline, wire):
                    return timeline.wire_overlap * wire  # simlint: disable=SIM007 -- reporting only
            """,
        })
        assert findings == []


class TestSim008PrivateThreads:
    def test_threads_and_executors_fire(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/apps/fanout.py": """\
                import concurrent.futures as cf
                import threading
                from concurrent.futures import ThreadPoolExecutor
                from threading import Thread as Worker

                def fan_out(work):
                    threading.Thread(target=work).start()
                    Worker(target=work).start()
                    threading.Timer(1.0, work).start()
                    with ThreadPoolExecutor(2) as pool:
                        pool.submit(work)
                    return cf.ProcessPoolExecutor()
            """,
        })
        assert codes(findings) == ["SIM008"] * 5
        assert [finding.line for finding in findings] == [7, 8, 9, 10, 12]
        assert "concurrent.futures.ThreadPoolExecutor" in findings[3].message

    def test_locks_futures_helpers_and_namesakes_are_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/tempi/plan_pool.py": """\
                import threading
                from concurrent.futures import wait

                class Thread:
                    pass

                def settle(futures):
                    guard = threading.Lock()
                    with guard:
                        wait(futures)
                    return Thread(), threading.current_thread()
            """,
        })
        assert findings == []

    def test_rank_threads_and_the_kernel_fan_out_are_whitelisted(self, tmp_path):
        body = """\
            import threading

            def start(run):
                threading.Thread(target=run, daemon=True).start()
        """
        findings = lint_tree(tmp_path, {
            "src/repro/mpi/world.py": body,
            "src/repro/gpu/kernels.py": body,
            "src/repro/gpu/runtime.py": body,
            "tools/fanout.py": body,
        })
        assert [(f.path, f.code) for f in findings] == [("src/repro/gpu/runtime.py", "SIM008")]

    def test_justified_disable_suppresses(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/bench/pool.py": """\
                from concurrent.futures import ThreadPoolExecutor

                def pool():
                    return ThreadPoolExecutor(2)  # simlint: disable=SIM008 -- fans out whole worlds
            """,
        })
        assert findings == []

    def test_unjustified_disable_is_sim000(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/bench/pool.py": """\
                import threading

                def spawn(run):
                    threading.Thread(target=run).start()  # simlint: disable=SIM008
            """,
        })
        assert codes(findings) == ["SIM000"]


class TestDriverAndCli:
    def test_findings_sort_stably(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/b.py": """\
                import time

                def late():
                    return time.monotonic()
            """,
            "src/repro/machine/a.py": """\
                import time

                def early():
                    return time.time()
            """,
        })
        assert [finding.path for finding in findings] == [
            "src/repro/machine/a.py",
            "src/repro/machine/b.py",
        ]

    def test_select_restricts_codes(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/machine/mixed.py": """\
                import time

                def f(self):
                    busy = 0.0
                    for record in self._pending.values():
                        busy += record
                    return busy + time.time()
            """,
        }, select=["SIM003"])
        assert codes(findings) == ["SIM003"]

    def test_cli_reports_and_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "src/repro/machine").mkdir(parents=True)
        (tmp_path / "src/repro/machine/clocked.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        code = lint_main(["--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "src/repro/machine/clocked.py:4: SIM001" in out

    def test_cli_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "src/repro").mkdir(parents=True)
        (tmp_path / "src/repro/pure.py").write_text("def f():\n    return 1\n")
        code = lint_main(["--root", str(tmp_path)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_repo_tree_is_clean(self):
        """The real tree stays lint-clean (the acceptance gate, as a test)."""
        root = Path(__file__).resolve().parents[2]
        findings = run_lint(root)
        assert findings == [], "\n".join(finding.render() for finding in findings)

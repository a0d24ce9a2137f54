"""Where a benchmark workload's Python/C calls go, per op.

    python tools/call_histogram.py --workload halo|replay|pack [--top N]
    python tools/call_histogram.py --workload halo|replay|pack --callers NAME
    python tools/call_histogram.py --workload pack|replay|halo --stages
    python tools/call_histogram.py --workload replay|halo --stages --markdown

Runs the benchmark's own ``halo_world`` / ``ml_replay`` / ``datatype_pack``
workload (``benchmarks/e2e/workloads.py``, read only) warm, then six more
rounds with one ``cProfile`` per thread — the driver's and every rank
thread's; ``pack`` runs on the driver's thread alone — and prints the merged
profile per *op* (the workload's: a wire message, an executed plan, a
``Pack`` or ``Unpack`` call): calls and self-µs per source file, then per
function, most calls first.  The calls column is exact: over the same
steps it sums to the ``--stages`` total, functions that share a label (every
dataclass's ``__init__``) added up.  The µs column is
each thread's own CPU time (``cProfile.Profile(time.thread_time)``), so a
rank waiting for the run token, a thread ``join`` or a kernel helper
waiting on an empty queue reads about 0, and the column shows where the
running thread spent its time; ``cProfile`` inflates call-heavy Python
against numpy, so read it as a ranking (``benchmarks/e2e/run.py`` has the
gated numbers).
``docs/ARCHITECTURE.md`` § "Scalar message path" and § "Commit path" are
sized from it.

``--callers NAME`` prints, instead of the two tables, every profiled function
whose name contains ``NAME`` (``is_device``, ``_check_rank``, ``builtins.max``
…) with its calls per op, and under it each caller and the calls per op it
makes, most first: which call sites a per-op count is worth chasing at.

``--stages`` prints a table of stages instead, each call charged to the
innermost stage running when it was made, counted exactly as the
benchmark's ``CallCounter`` counts; the rows sum to the total printed last.
With ``pack`` it is § "Commit path"'s table: the calls of one warm
``datatype_pack`` round by ``translate``, ``simplify``,
``to_strided_block``, ``Packer``, the rest of ``Type_commit``, building the
datatypes, ``Pack``/``Unpack``, and the round loop for the remainder.  With
``replay`` it is § "Scalar message path"'s table: the calls of six warm
``ml_replay`` steps on every thread, per plan and per entry of each stage
of a wire message — ``message_time`` (``Communicator._message_time``),
``reserve_wire``, the post, ``router.receive``, ``ingest_one``,
``ingest_batch``, the run-token hand-off
(``MessageRouter.block``), the rest of an allreduce round, the rest of
``PlanExecutor.execute``, the rest of a pack stage and of an unpack stage
(``PlanExecutor._pack_stage``/``_unpack_stage``: the kernel or copy launch,
wherever it runs), a pack's plan of a new count (``Packer._plan``) and
staging (``_StagingTracker.get``/``release``, the cache's
``get_stream``/``put_stream``), both nested inside those two stages — then
the plan around them: method
selection, the collective compile (``_compile_collective``), the allreduce
compile (``_compile_allreduce``), the point-to-point compile
(``compile_send``/``compile_recv``), ``Type_commit`` — and other for the
remainder (the step's ``World``, its threads, the replay app).  With
``halo`` it is the same table per wire message of six warm ``halo_world``
rounds, with two more rows: a bound request's ``Request.Start`` and every
``Request.Wait``, each around the stages it runs.
``--markdown`` prints either table as the Markdown ``docs/ARCHITECTURE.md``
carries between its census markers; a tier-1 test holds the two equal.
The collector is off while a census or a profile runs, so the count does not
depend on when a collection falls.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import pstats
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]


#: How ``cProfile`` labels its own ``disable``, the call that ends a profile.
_DISABLE = "<method 'disable' of '_lsprof.Profiler' objects>"


class _Profile(cProfile.Profile):
    """A thread's ``cProfile`` whose stats count what :func:`census` counts.

    ``cProfile`` keys its stats by ``(file, line, name)`` and keeps the last
    entry under each, so functions that share a label lost their counts to
    one another: every dataclass's generated ``__init__`` is
    ``<string>:2(__init__)``, 17 calls per ``ml_replay`` plan.  Here entries
    under one label add up.  ``started`` is the call a started thread's
    profile began inside (its ``run``), which the profile did not see; the
    profile's own ``disable`` is not counted.
    """

    started = None

    def snapshot_stats(self) -> None:
        entries = [entry for entry in self.getstats() if entry.code != _DISABLE]
        stats: dict = {}
        if self.started is not None:
            stats[cProfile.label(self.started)] = (1, 1, 0.0, 0.0, {})
        for entry in entries:
            func = cProfile.label(entry.code)
            cc, nc, tt, ct, callers = stats.get(func, (0, 0, 0.0, 0.0, {}))
            stats[func] = (
                cc + entry.callcount - entry.reccallcount, nc + entry.callcount,
                tt + entry.inlinetime, ct + entry.totaltime, callers,
            )
        for entry in entries:
            func = cProfile.label(entry.code)
            for sub in entry.calls or ():
                if sub.code == _DISABLE:
                    continue
                callers = stats[cProfile.label(sub.code)][4]
                nc, cc, tt, ct = callers.get(func, (0, 0, 0.0, 0.0))
                callers[func] = (
                    nc + sub.callcount, cc + sub.callcount - sub.reccallcount,
                    tt + sub.inlinetime, ct + sub.totaltime,
                )
        self.stats = stats


def profile_threads(run) -> tuple[object, pstats.Stats]:
    """``run()`` with a profiler on this thread and on each it starts.

    The calls counted are :func:`census`'s: ``run`` itself is not, a
    started thread's ``run`` is, and the collector is off.
    """
    profiles: list[_Profile] = []
    outer = sys._getframe()

    def attach(frame, _event, _arg) -> None:
        # The first profile event of a thread swaps this hook for a cProfile
        # timed by that thread's own CPU clock.  The call it reports is under
        # way, so the profile sees only its return.
        profiles.append(_Profile(time.thread_time))
        if frame.f_back is not outer:
            profiles[-1].started = frame.f_code
        profiles[-1].enable()

    gc.collect()
    gc.disable()
    threading.setprofile(attach)
    sys.setprofile(attach)
    try:
        result = run()
    finally:
        profiles[0].disable()  # the rank threads exited with theirs enabled
        sys.setprofile(None)
        threading.setprofile(None)
        gc.enable()
    return result, pstats.Stats(*profiles)


#: Rows of the ``--stages`` table, in print order; the first five are a commit's.
COMMIT_STAGES = ("translate", "simplify", "to_strided_block", "Packer", "rest of Type_commit")
STAGES = COMMIT_STAGES + ("building", "Pack/Unpack", "round loop")
#: Rows of the ``--workload replay --stages`` table, in print order.
WIRE_STAGES = (
    "message_time", "reserve_wire", "post", "router.receive", "ingest_one", "ingest_batch",
    "token hand-off", "rest of allreduce round", "rest of execute", "pack stage", "unpack stage",
    "pack plan", "staging",
    "selection", "collective compile", "allreduce compile", "p2p compile", "Type_commit", "other",
)
#: Rows of the ``--workload halo --stages`` table: a bound request's start and
#: its wait join the rows of a wire message.
HALO_STAGES = WIRE_STAGES[:-1] + ("Request.Start", "Request.Wait", "other")


def stage_codes(workload) -> dict[object, str]:
    """Code object -> stage, for a ``DatatypePack`` workload's round."""
    from repro.tempi.canonicalize import simplify
    from repro.tempi.interposer import TempiCommunicator
    from repro.tempi.packer import Packer
    from repro.tempi.strided_block import to_strided_block
    from repro.tempi.translate import translate

    codes = {
        translate.__code__: "translate",
        simplify.__code__: "simplify",
        to_strided_block.__code__: "to_strided_block",
        Packer.__init__.__code__: "Packer",
        TempiCommunicator.Type_commit.__code__: "rest of Type_commit",
        TempiCommunicator.Pack.__code__: "Pack/Unpack",
        TempiCommunicator.Unpack.__code__: "Pack/Unpack",
    }
    for build in workload.builders:
        codes[build.__code__] = "building"
    return codes


def wire_stage_codes() -> dict[object, str]:
    """Code object -> stage, for the scalar path of one wire message and
    the plan around it."""
    from repro.mpi.communicator import Communicator
    from repro.mpi.p2p import MessageRouter
    from repro.mpi.request import Request
    from repro.tempi import plan, selection
    from repro.tempi.cache import ResourceCache, _StagingTracker
    from repro.tempi.executor import PlanExecutor
    from repro.tempi.interposer import TempiCommunicator
    from repro.tempi.packer import Packer
    from repro.tempi.progress import ProgressEngine

    return {
        Communicator._message_time.__code__: "message_time",
        ProgressEngine.reserve_wire.__code__: "reserve_wire",
        PlanExecutor._post.__code__: "post",
        MessageRouter.receive.__code__: "router.receive",
        ProgressEngine.ingest_one.__code__: "ingest_one",
        ProgressEngine.ingest_batch.__code__: "ingest_batch",
        MessageRouter.block.__code__: "token hand-off",
        PlanExecutor._allreduce_round.__code__: "rest of allreduce round",
        PlanExecutor.execute.__code__: "rest of execute",
        PlanExecutor._pack_stage.__code__: "pack stage",
        PlanExecutor._unpack_stage.__code__: "unpack stage",
        Packer._plan.__code__: "pack plan",
        _StagingTracker.get.__code__: "staging",
        _StagingTracker.release.__code__: "staging",
        ResourceCache.get_stream.__code__: "staging",
        ResourceCache.put_stream.__code__: "staging",
        selection.FixedSelector.__call__.__code__: "selection",
        selection.ModelSelector.__call__.__code__: "selection",
        selection.ContendedSelector.__call__.__code__: "selection",
        selection.choose_allreduce_algorithm.__code__: "selection",
        TempiCommunicator._compile_collective.__code__: "collective compile",
        TempiCommunicator._compile_allreduce.__code__: "allreduce compile",
        plan.compile_send.__code__: "p2p compile",
        plan.compile_recv.__code__: "p2p compile",
        TempiCommunicator.Type_commit.__code__: "Type_commit",
        Request.Start.__code__: "Request.Start",
        Request.Wait.__code__: "Request.Wait",
    }


def census(block, rounds: int, codes: dict, stages: tuple) -> tuple[object, Counter, Counter]:
    """``block(rounds)``, and its calls and stage entries by stage, on every thread.

    Every Python and C call, on this thread and each thread it starts, is
    charged to the innermost stage whose frame is running when it is made
    (a call that enters a stage counts in it), and to ``stages[-1]`` outside
    them all; the ``block`` call itself is not counted.  Each thread tallies
    into its own counters, so no update is lost to a thread switch.
    """
    tallies: list[tuple[Counter, Counter]] = []
    local = threading.local()
    outer = sys._getframe()

    def hook(frame, event: str, _arg) -> None:
        try:
            stack, calls, entries = local.state
        except AttributeError:
            stack, calls, entries = local.state = [(stages[-1], None)], Counter(), Counter()
            tallies.append((calls, entries))
        if event == "call":
            if frame.f_back is outer:
                return  # ``block`` itself
            stage = codes.get(frame.f_code)
            if stage is not None:
                stack.append((stage, frame))
                entries[stage] += 1
            calls[stack[-1][0]] += 1
        elif event == "c_call":
            if frame is not outer:  # not ``sys.setprofile(None)`` below
                calls[stack[-1][0]] += 1
        elif event == "return" and frame is stack[-1][1]:
            stack.pop()

    gc.collect()
    gc.disable()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        result = block(rounds)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        gc.enable()
    calls, entries = Counter(dict.fromkeys(stages, 0)), Counter()  # a stage may make no call
    for thread_calls, thread_entries in tallies:
        calls.update(thread_calls)
        entries.update(thread_entries)
    return result, calls, entries


def stage_calls(workload, rounds: int = 1) -> Counter:
    """Calls of ``workload.block(rounds)`` by commit stage, the ``block`` call itself excluded."""
    return census(workload.block, rounds, stage_codes(workload), STAGES)[1]


def print_stages(workload, rounds: int) -> None:
    calls = stage_calls(workload, rounds)
    commits = sum(calls[stage] for stage in COMMIT_STAGES)
    print(f"pack: calls per round by stage, {rounds} warm rounds")
    print(f"{'calls/round':>12}  stage")
    for stage in STAGES:
        print(f"{calls[stage] / rounds:12.1f}  {stage}")
        if stage == COMMIT_STAGES[-1]:
            print(f"{commits / rounds:12.1f}  = {len(workload.builders)} commits")
    print(f"{sum(calls.values()) / rounds:12.1f}  = round")


def wire_census(workload, rounds: int) -> tuple[int, Counter, Counter]:
    """Ops, and calls and entries by wire stage, of ``rounds`` warm rounds of
    the ``halo_world`` or ``ml_replay`` workload (whose op is an executed plan)."""
    stages = HALO_STAGES if workload.name == "halo_world" else WIRE_STAGES
    codes = {code: stage for code, stage in wire_stage_codes().items() if stage in stages}
    return census(workload.block, rounds, codes, stages)


def _unit(calls: Counter) -> tuple[str, tuple]:
    """What a wire census counts per, and its rows."""
    return ("op", HALO_STAGES) if "Request.Wait" in calls else ("plan", WIRE_STAGES)


def wire_markdown(ops: int, calls: Counter, entries: Counter) -> str:
    """The ``--markdown`` table of a :func:`wire_census`."""
    unit, stages = _unit(calls)
    lines = [f"| stage | entries/{unit} | calls/entry | calls/{unit} |", "|---|---|---|---|"]
    for stage in stages:
        if entries[stage]:
            lines.append(f"| {stage} | {entries[stage] / ops:.2f} | "
                         f"{calls[stage] / entries[stage]:.1f} | {calls[stage] / ops:.1f} |")
        else:
            lines.append(f"| {stage} | | | {calls[stage] / ops:.1f} |")
    lines.append(f"| **{unit}** | | | **{sum(calls.values()) / ops:.1f}** |")
    return "\n".join(lines)


def print_wire_stages(rounds: int, ops: int, calls: Counter, entries: Counter) -> None:
    """Per op and per entry, a :func:`wire_census` of ``rounds`` warm rounds."""
    unit, stages = _unit(calls)
    workload, steps = ("halo", "rounds") if unit == "op" else ("replay", "steps")
    print(f"{workload}: calls by stage, {rounds} warm {steps}, {ops} {unit}s, every thread")
    print(f"{'calls/' + unit:>11} {'entries/' + unit:>13} {'calls/entry':>12}  stage")
    for stage in stages:
        if entries[stage]:
            per_entry = f"{entries[stage] / ops:13.2f} {calls[stage] / entries[stage]:12.1f}"
        else:
            per_entry = f"{'':13} {'':12}"
        print(f"{calls[stage] / ops:11.1f} {per_entry}  {stage}")
    print(f"{sum(calls.values()) / ops:11.1f} {'':13} {'':12}  = {unit}")


def print_callers(stats: pstats.Stats, ops: int, name: str) -> None:
    """Each profiled function whose name contains ``name``, and its callers, per op."""
    for (path, line, function), (_, ncalls, _, _, callers) in sorted(
        stats.stats.items(), key=lambda item: -item[1][1]
    ):
        if name not in function:
            continue
        print(f"{ncalls / ops:10.3f}  {Path(path).name}:{line}({function})")
        for (caller_path, caller_line, caller), counts in sorted(
            callers.items(), key=lambda item: -item[1][0]
        ):
            print(f"{counts[0] / ops:10.3f}    <- {Path(caller_path).name}:{caller_line}({caller})")


def warm_workload(name: str):
    """The benchmark's ``halo``/``replay``/``pack`` workload at seed 1, warmed up."""
    import workloads
    from repro.tempi import measurement
    from repro.tempi.perf_model import PerformanceModel
    cls = {
        "halo": workloads.HaloWorld, "replay": workloads.MlReplay, "pack": workloads.DatatypePack,
    }[name]
    workload = cls(PerformanceModel(measurement.measure_system()), seed=1)
    workload.block(cls.warmup_rounds)
    return workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("halo", "replay", "pack"), required=True)
    parser.add_argument("--top", type=int, default=40, help="functions to list")
    parser.add_argument("--stages", action="store_true",
                        help="calls by commit stage (pack) or wire stage (replay, halo)")
    parser.add_argument("--callers", metavar="NAME",
                        help="callers per op of each function whose name contains NAME")
    parser.add_argument("--markdown", action="store_true",
                        help="with --workload replay|halo --stages: the table as Markdown")
    args = parser.parse_args(argv)
    if args.stages and args.callers:
        parser.error("--stages and --callers print different tables; pick one")
    if args.markdown and not (args.stages and args.workload != "pack"):
        parser.error("--markdown needs --workload replay or halo, and --stages")
    workload = warm_workload(args.workload)
    rounds = workload.counted_rounds
    if args.stages and args.workload == "pack":
        print_stages(workload, rounds)
    elif args.stages:
        census = wire_census(workload, rounds)
        if args.markdown:
            print(wire_markdown(*census))
        else:
            print_wire_stages(rounds, *census)
    if args.stages:
        return 1 if workload.failed_ops else 0
    ops, stats = profile_threads(functools.partial(workload.block, 6))
    if args.callers:
        print_callers(stats, ops, args.callers)
        return 1 if workload.failed_ops else 0
    functions = sorted((
        (ncalls / ops, 1e6 * self_s / ops, Path(path).name, f"{line}({name})")
        for (path, line, name), (_, ncalls, self_s, _, _) in stats.stats.items()
    ), reverse=True)
    calls_in, us_in = Counter(), Counter()
    for calls, self_us, file, _ in functions:
        calls_in[file] += calls
        us_in[file] += self_us
    print(f"{args.workload}: {ops} ops ({workload.op}), {sum(calls_in.values()):.1f} calls and "
          f"{sum(us_in.values()):.1f} profiled self-us per op")
    print(f"{'calls/op':>10} {'self-us/op':>12}  file, then function")
    for file, calls in calls_in.most_common():
        print(f"{calls:10.3f} {us_in[file]:12.3f}  {file}")
    for calls, self_us, file, where in functions[: args.top]:
        print(f"{calls:10.3f} {self_us:12.3f}  {file}:{where}")
    return 1 if workload.failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())

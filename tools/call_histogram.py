"""Where a benchmark workload's Python/C calls go, per op.

    python tools/call_histogram.py --workload halo|replay|pack [--top N]
    python tools/call_histogram.py --workload pack --stages

Runs the benchmark's own ``halo_world`` / ``ml_replay`` / ``datatype_pack``
workload (``benchmarks/e2e/workloads.py``, read only) warm, then six more
rounds with one ``cProfile`` per thread — the driver's and every rank
thread's; ``pack`` runs on the driver's thread alone — and prints the merged
profile per *op* (the workload's: a wire message, an executed plan, a
``Pack`` or ``Unpack`` call): calls and self-µs per source file, then per
function, most calls first.  The calls column is exact; ``cProfile``
inflates call-heavy Python against numpy, so read the µs column as a
ranking (``benchmarks/e2e/run.py`` has the gated numbers).
``docs/ARCHITECTURE.md`` § "Scalar message path" and § "Commit path" are
sized from it.

``--stages`` (``pack`` only) prints § "Commit path"'s table instead: the
calls of one warm ``datatype_pack`` round, each charged to the innermost
stage running when it was made — ``translate``, ``simplify``,
``to_strided_block``, ``Packer``, the rest of ``Type_commit``, building the
datatypes, ``Pack``/``Unpack``, and the round loop for the remainder.  The
rows sum to the round's total, counted exactly as the benchmark's
``CallCounter`` counts.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]


def profile_threads(run) -> tuple[object, pstats.Stats]:
    """``run()`` with a profiler on this thread and on each it starts."""
    profiles: list[cProfile.Profile] = []

    def attach(*_event) -> None:
        # The first profile event of a new thread swaps this hook for a cProfile.
        profiles.append(cProfile.Profile())
        profiles[-1].enable()

    threading.setprofile(attach)
    attach()
    try:
        result = run()
    finally:
        threading.setprofile(None)
        profiles[0].disable()  # the rank threads exited with theirs enabled
    return result, pstats.Stats(*profiles)


#: Rows of the ``--stages`` table, in print order; the first five are a commit's.
COMMIT_STAGES = ("translate", "simplify", "to_strided_block", "Packer", "rest of Type_commit")
STAGES = COMMIT_STAGES + ("building", "Pack/Unpack", "round loop")


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


def stage_calls(workload, rounds: int = 1) -> Counter:
    """Calls of ``workload.block(rounds)`` by stage, the ``block`` call itself excluded.

    Every Python and C call is charged to the innermost stage whose frame is
    running when it is made; a call that enters a stage counts in it.
    """
    codes = stage_codes(workload)
    calls: Counter = Counter()
    stack: list[tuple[str, object]] = [("round loop", None)]
    outer = sys._getframe()

    def hook(frame, event: str, _arg) -> None:
        if event == "call":
            if frame.f_back is outer:
                return  # ``block`` itself
            stage = codes.get(frame.f_code)
            if stage is not None:
                stack.append((stage, frame))
            calls[stack[-1][0]] += 1
        elif event == "c_call":
            if frame is not outer:  # not ``sys.setprofile(None)`` below
                calls[stack[-1][0]] += 1
        elif event == "return" and frame is stack[-1][1]:
            stack.pop()

    sys.setprofile(hook)
    try:
        workload.block(rounds)
    finally:
        sys.setprofile(None)
    return calls


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("halo", "replay", "pack"), required=True)
    parser.add_argument("--top", type=int, default=40, help="functions to list")
    parser.add_argument("--stages", action="store_true",
                        help="calls per round by commit stage (pack only)")
    args = parser.parse_args(argv)
    if args.stages and args.workload != "pack":
        parser.error("--stages needs --workload pack")
    import workloads
    from repro.tempi import measurement
    from repro.tempi.perf_model import PerformanceModel
    cls = {
        "halo": workloads.HaloWorld, "replay": workloads.MlReplay, "pack": workloads.DatatypePack,
    }[args.workload]
    workload = cls(PerformanceModel(measurement.measure_system()), seed=1)
    workload.block(cls.warmup_rounds)
    if args.stages:
        print_stages(workload, cls.counted_rounds)
        return 1 if workload.failed_ops else 0
    ops, stats = profile_threads(lambda: workload.block(6))
    functions = sorted((
        (ncalls / ops, 1e6 * self_s / ops, Path(path).name, f"{line}({name})")
        for (path, line, name), (_, ncalls, self_s, _, _) in stats.stats.items()
        if "acquire" not in name or "_thread.lock" not in name  # a rank awaiting its turn
    ), reverse=True)
    calls_in, us_in = Counter(), Counter()
    for calls, self_us, file, _ in functions:
        calls_in[file] += calls
        us_in[file] += self_us
    print(f"{args.workload}: {ops} ops ({cls.op}), {sum(calls_in.values()):.1f} calls and "
          f"{sum(us_in.values()):.1f} profiled self-us per op")
    print(f"{'calls/op':>10} {'self-us/op':>12}  file, then function")
    for file, calls in calls_in.most_common():
        print(f"{calls:10.3f} {us_in[file]:12.3f}  {file}")
    for calls, self_us, file, where in functions[: args.top]:
        print(f"{calls:10.3f} {self_us:12.3f}  {file}:{where}")
    return 1 if workload.failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())

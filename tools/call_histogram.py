"""Where a benchmark workload's Python/C calls go, per op.

    python tools/call_histogram.py --workload halo|replay|pack [--top N]

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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("halo", "replay", "pack"), required=True)
    parser.add_argument("--top", type=int, default=40, help="functions to list")
    args = parser.parse_args(argv)
    import workloads
    from repro.tempi import measurement
    from repro.tempi.perf_model import PerformanceModel
    cls = {
        "halo": workloads.HaloWorld, "replay": workloads.MlReplay, "pack": workloads.DatatypePack,
    }[args.workload]
    workload = cls(PerformanceModel(measurement.measure_system()), seed=1)
    workload.block(cls.warmup_rounds)
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

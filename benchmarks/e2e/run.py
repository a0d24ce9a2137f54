"""End-to-end, per-layer host-cost benchmark of the simulator.

    python3 benchmarks/e2e/run.py [--workload NAME] [--trace 0|1] [--seed N]
                                  [--seconds S] [--quick] [--repeat K] [--selfcheck]

With ``--workload`` and ``--trace`` it measures that one workload in this
process and prints one JSON object as its last line (``--trace 0``: the
end-to-end metrics, ``--trace 1``: the per-layer metrics).  Without them it
runs every selected workload and trace mode, each in a fresh subprocess one
at a time, and prints every metric by name.  README.md in this directory
defines the metrics and the method.

What is measured is the *host* cost of simulating; simulated time is
deterministic and is reported and checked (``virtual_digest``), never gated.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before the imports set-up time includes

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(REPO / "src"))

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


class Budget(NamedTuple):
    """How much of a workload one run executes."""

    warmup_rounds: int
    counted_rounds: int
    block_rounds: int
    seconds: float
    #: Timed regions are cut into at least this many blocks.
    min_blocks: int


def budget(cls, args) -> Budget:
    if not args.quick:
        return Budget(cls.warmup_rounds, cls.counted_rounds, cls.block_rounds, args.seconds, 16)
    return Budget(
        max(1, cls.warmup_rounds // 10), max(1, cls.counted_rounds // 10),
        max(1, cls.block_rounds // 3), args.seconds / 10, 4,
    )


# --------------------------------------------------------------------------- #
# one workload, in this process
# --------------------------------------------------------------------------- #

class Setup:
    """One model + workload construction + warm-up, timed."""

    def __init__(self, cls, seed: int, warmup_rounds: int) -> None:
        import measure
        from repro.tempi import measurement
        from repro.tempi.perf_model import PerformanceModel

        self.round_s: list[float] = []

        def build() -> None:
            model = PerformanceModel(measurement.measure_system())
            self.workload = cls(model, seed)
            for _ in range(warmup_rounds):
                start = time.perf_counter()
                ops = self.workload.block(1)
                self.round_s.append((time.perf_counter() - start) / ops)

        self.raw_s, self.norm_s = measure.scaled(build)

    @property
    def knee_ratio(self) -> float:
        """Per-op time of the last warm-up decile over the fastest decile.

        The fastest, not the first: the first rounds are cold, and would hide
        a step up that comes once the caches are warm.
        """
        tenth = max(1, len(self.round_s) // 10)
        deciles = [
            statistics.median(self.round_s[i:i + tenth])
            for i in range(0, len(self.round_s) - tenth + 1, tenth)
        ]
        return deciles[-1] / min(deciles)


def _summarise(blocks: list) -> dict:
    """Fold timed blocks into the numbers both trace modes report."""
    import measure

    norm = [b.norm_us_per_op for b in blocks]
    ops = sum(b.ops for b in blocks)
    return {
        "ops": ops,
        "blocks": len(blocks),
        "norm_us_per_op": statistics.median(norm),
        "host_us_per_op": statistics.median(b.raw_us_per_op for b in blocks),
        "wall_s": sum(b.wall_s for b in blocks),
        "slowdown": statistics.median(b.slowdown for b in blocks),
        "block_p95_over_p50": measure.quantile(norm, 0.95) / statistics.median(norm),
    }


def _failures(*workloads) -> int:
    return sum(w.failed_ops + w.checks_failed for w in workloads)


def measure_end_to_end(cls, args, info: dict) -> tuple[dict, int, int]:
    """--trace 0: three set-ups; a counted pass, a repeat of it, a timed pass."""
    import measure

    plan = budget(cls, args)
    import_s = time.perf_counter() - _PROCESS_START
    import_norm_s = import_s / measure.slowdown()

    counted_setup = Setup(cls, args.seed, plan.warmup_rounds)
    with measure.CallCounter() as counter:
        counted_ops = counted_setup.workload.block(plan.counted_rounds)
    digest = counted_setup.workload.virtual_digest()
    failed = _failures(counted_setup.workload)
    del counted_setup.workload

    repeat_setup = Setup(cls, args.seed, plan.warmup_rounds)
    repeat_setup.workload.block(plan.counted_rounds)
    mismatch = int(repeat_setup.workload.virtual_digest() != digest)
    repeat_setup.workload.check()
    failed += _failures(repeat_setup.workload) + mismatch
    del repeat_setup.workload
    gc.collect()

    timed_setup = Setup(cls, args.seed, plan.warmup_rounds)
    workload = timed_setup.workload
    virtual_before, rounds_before = workload.virtual_seconds(), workload.rounds_run
    timed = _summarise(measure.timed_blocks(
        lambda: workload.block(plan.block_rounds),
        seconds=plan.seconds, min_blocks=plan.min_blocks,
    ))
    failed += _failures(workload)

    setups = (counted_setup, repeat_setup, timed_setup)
    info.update(
        virtual_digest=digest,
        digest_repeats=not mismatch,
        virtual_us_per_round=(workload.virtual_seconds() - virtual_before)
        / (workload.rounds_run - rounds_before) * 1e6,
        host_us_per_op=timed["host_us_per_op"], wall_s=timed["wall_s"],
        host_slowdown=timed["slowdown"], blocks=timed["blocks"],
        setup_raw_s=import_s + statistics.median(s.raw_s for s in setups),
    )
    values = {
        "setup_s": import_norm_s + statistics.median(s.norm_s for s in setups),
        "norm_us_per_op": timed["norm_us_per_op"],
        "calls_per_op": counter.calls / counted_ops,
        "peak_rss_mb": measure.peak_rss_mib(),
    }
    attempted = 2 * counted_ops + timed["ops"]
    return values, attempted, failed


#: ``InterposerStats`` and ``NicTimeline`` counters summed over every
#: instance the traced pass created.
_STAT_FIELDS = (
    "plan_cache_hits", "plan_cache_misses", "selection_memo_hits", "selection_memo_misses",
    "fallbacks", "collective_fallbacks", "collective_hits", "plans_built", "packs",
)
_NIC_FIELDS = ("reservations", "stalls", "ingests", "ingest_stalls")


def _counters(tracer) -> dict[str, float]:
    sums = {f: float(sum(getattr(s, f) for s in tracer.stats)) for f in _STAT_FIELDS}
    sums.update({f: float(sum(getattr(n, f) for n in tracer.nics)) for f in _NIC_FIELDS})
    return sums


def _slow_down_nic(fraction: float) -> None:
    """--selfcheck's planted regression: ``reserve_batch`` busy-waits
    ``fraction`` of its own duration again before returning."""
    from repro.machine.nic import NicTimeline

    original = NicTimeline.reserve_batch

    def slowed(self, *a, **kw):
        start = time.perf_counter()
        result = original(self, *a, **kw)
        until = time.perf_counter() + fraction * (time.perf_counter() - start)
        while time.perf_counter() < until:
            pass
        return result

    NicTimeline.reserve_batch = slowed


def measure_per_layer(cls, args, info: dict) -> tuple[dict, int, int]:
    """--trace 1: an untraced timed pass, then the same pass with spans on."""
    import measure
    import tracer as tracing

    plan = budget(cls, args)
    seconds = plan.seconds / 2

    plain = Setup(cls, args.seed, plan.warmup_rounds)
    virtual_before, rounds_before = plain.workload.virtual_seconds(), plain.workload.rounds_run
    user0, sys0 = measure.cpu_times()
    untraced = _summarise(measure.timed_blocks(
        lambda: plain.workload.block(plan.block_rounds),
        seconds=seconds, min_blocks=plan.min_blocks,
    ))
    user1, sys1 = measure.cpu_times()
    virtual_us_per_round = (plain.workload.virtual_seconds() - virtual_before) / (
        plain.workload.rounds_run - rounds_before) * 1e6
    failed = _failures(plain.workload)
    del plain.workload
    gc.collect()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = Setup(cls, args.seed, plan.warmup_rounds).workload
        workload.check()
        before = _counters(tracer)

        def traced_block() -> int:
            with tracer.block():
                return workload.block(plan.block_rounds)

        traced = _summarise(
            measure.timed_blocks(traced_block, seconds=seconds, min_blocks=plan.min_blocks)
        )
    finally:
        tracer.uninstall()
    failed += _failures(workload)
    after = _counters(tracer)
    delta = {key: after[key] - before[key] for key in after}
    layers, unclaimed_s = tracer.totals()

    ops = traced["ops"]
    thread_s = sum(t.self_s for t in layers.values()) + unclaimed_s
    values: dict[str, float] = {}
    for layer, totals in layers.items():
        values[f"{layer}.calls_per_op"] = totals.calls / ops
        values[f"{layer}.self_us_per_op"] = totals.self_s / traced["slowdown"] / ops * 1e6
        values[f"{layer}.share"] = totals.self_s / thread_s

    def ratio(hit: str, miss: str) -> float:
        return delta[hit] / max(1.0, delta[hit] + delta[miss])

    fallbacks = delta["fallbacks"] + delta["collective_fallbacks"]
    values.update({
        "tempi.plan.cache_hit_ratio": ratio("plan_cache_hits", "plan_cache_misses"),
        "tempi.selection.memo_hit_ratio": ratio("selection_memo_hits", "selection_memo_misses"),
        "tempi.interposer.fallback_share": fallbacks
        / max(1.0, fallbacks + delta["plans_built"] + delta["collective_hits"] + delta["packs"]),
        "tempi.interposer.plans_per_op": delta["plans_built"] / ops,
        "machine.nic.stall_share": (delta["stalls"] + delta["ingest_stalls"])
        / max(1.0, delta["reservations"] + delta["ingests"]),
        "machine.nic.peak_pending": float(max((n.peak_pending for n in tracer.nics), default=0)),
        "machine.nic.ledger_nbytes": float(max((n.ledger_nbytes() for n in tracer.nics), default=0)),
        "gpu.kernels.bytes_per_op": float(workload.computed_bytes_per_op),
        "mpi.world.sys_cpu_share": (sys1 - sys0) / max(1e-9, (user1 - user0) + (sys1 - sys0)),
        "mpi.world.knee_ratio": plain.knee_ratio,
        "harness.trace_overhead": traced["norm_us_per_op"] / untraced["norm_us_per_op"],
        "harness.coverage": 1.0 - unclaimed_s / thread_s,
        "harness.norm_us_per_op": untraced["norm_us_per_op"],
        "harness.host_us_per_op": untraced["host_us_per_op"],
        "harness.wall_s": untraced["wall_s"],
        "harness.host_slowdown": untraced["slowdown"],
        "harness.block_p95_over_p50": untraced["block_p95_over_p50"],
        "virtual.us_per_round": virtual_us_per_round,
    })
    attempted = untraced["ops"] + ops
    values["harness.failed_share"] = min(failed, attempted) / attempted

    info.update(traced_blocks=traced["blocks"], spans=sum(t.calls for t in layers.values()),
                missing_seams=tracer.missing)
    if not args.inject_nic_slowdown:
        import numpy

        OUT.mkdir(exist_ok=True)
        numpy.savez_compressed(OUT / f"{cls.name}.spans.npz", **tracer.columns())
    return values, attempted, failed


def run_leaf(args) -> int:
    """Measure one workload in this process; last stdout line is the result."""
    import numpy

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.inject_nic_slowdown:
        _slow_down_nic(args.inject_nic_slowdown)
    info = {
        "workload": cls.name, "op": cls.op, "trace": args.trace, "seed": args.seed,
        "quick": args.quick, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(), "commit": _git_commit(),
    }
    spec, measure_fn = (
        (PER_LAYER, measure_per_layer) if args.trace else (END_TO_END, measure_end_to_end)
    )
    values, attempted, failed = measure_fn(cls, args, info)
    if set(values) != set(spec):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(spec))}"
        )
    metrics = {name: {"value": values[name], "unit": spec[name]["unit"]} for name in spec}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": metrics,
    }
    for name, metric in metrics.items():
        print(f"{cls.name:15s} {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print("info " + json.dumps(info))
    if not args.inject_nic_slowdown:  # a planted regression is not a result
        OUT.mkdir(exist_ok=True)
        (OUT / f"{cls.name}.trace{args.trace}.json").write_text(
            json.dumps({**result, "info": info}, indent=1)
        )
    print(json.dumps(result))
    return 0


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# --------------------------------------------------------------------------- #
# every workload, one fresh subprocess each
# --------------------------------------------------------------------------- #

def spawn_leaf(args, workload: str, trace: int, *, seed: int, inject: float = 0.0) -> dict:
    """Run one leaf to completion; return its result with ``info`` attached."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", str(trace),
        "--seed", str(seed), "--seconds", str(args.seconds),
    ]
    if args.quick:
        command.append("--quick")
    if inject:
        command += ["--inject-nic-slowdown", str(inject)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{done.stdout}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2].removeprefix("info "))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    return result


def run_set(args, seed: int) -> dict[tuple[str, int], dict]:
    """One leaf per selected workload and trace mode.

    Leaves run one at a time, so that nothing else loads the two cores while
    one measures; only --quick, whose numbers are not gated, runs two at once.
    """
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    traces = [args.trace] if args.trace is not None else [0, 1]
    jobs = [(name, trace) for name in names for trace in traces]
    with ThreadPoolExecutor(max_workers=2 if args.quick else 1) as pool:
        results = pool.map(lambda job: spawn_leaf(args, *job, seed=seed), jobs)
        return dict(zip(jobs, results))


def combined(sets: list[dict]) -> dict:
    """Fold leaf results into one result object of the same shape."""
    leaves = [leaf for one in sets for leaf in one.values()]
    metrics = {}
    for (name, _), leaf in sets[-1].items():
        for metric, entry in leaf["metrics"].items():
            metrics[f"{name}:{metric}"] = entry
    return {
        "correct": all(leaf["correct"] for leaf in leaves),
        "attempted": sum(leaf["attempted"] for leaf in leaves),
        "failed": sum(leaf["failed"] for leaf in leaves),
        "metrics": metrics,
    }


def report_repeat(sets: list[dict]) -> bool:
    """Print median, quartiles and spread/bound of every end-to-end metric
    over the sets (spread = (q3 - q1) / median, quartiles as
    ``statistics.quantiles(values, n=4)`` gives them); return whether every
    spread stayed within its bound and every virtual digest repeated."""
    ok = True
    print(f"\n{'workload':15s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s} {'spread/bound':>12s}")
    names = sorted({name for name, trace in sets[0] if trace == 0}, key=WORKLOAD_NAMES.index)
    for name in names:
        leaves = [one[(name, 0)] for one in sets]
        for metric, spec in END_TO_END.items():
            values = [leaf["metrics"][metric]["value"] for leaf in leaves]
            # Fewer than four values cannot carry the default method's
            # extrapolated quartiles; interpolate inside the data instead.
            method = "exclusive" if len(values) >= 4 else "inclusive"
            q1, _, q3 = statistics.quantiles(values, n=4, method=method)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            flag = ""
            # setup_s is gated on its median only, never on its spread.
            if spread > spec["bound"] and metric != "setup_s":
                ok, flag = False, "  OVER"
            print(f"{name:15s} {metric:16s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {spec['bound']:6.2f} {spread / spec['bound']:12.2f}{flag}")
        digests = {leaf["info"]["virtual_digest"] for leaf in leaves}
        repeats = all(leaf["info"]["digest_repeats"] for leaf in leaves)
        if len(digests) != 1 or not repeats:
            ok = False
        print(f"{name:15s} virtual_digest   {' '.join(sorted(digests))}"
              f"{'' if len(digests) == 1 and repeats else '  DIFFERS'}")
    return ok


def selfcheck(args) -> int:
    """Plant a 50 % slowdown in ``NicTimeline.reserve_batch`` and require the
    benchmark to see it where it is and nowhere else."""
    runs = {
        (name, inject): spawn_leaf(args, name, 1, seed=args.seed, inject=inject)["metrics"]
        for name in ("halo_pricing", "datatype_pack") for inject in (0.0, 0.5)
    }

    def value(name: str, inject: float, metric: str) -> float:
        return runs[(name, inject)][metric]["value"]

    bound = END_TO_END["norm_us_per_op"]["bound"]
    rise = value("halo_pricing", 0.5, "harness.norm_us_per_op") / value(
        "halo_pricing", 0.0, "harness.norm_us_per_op")
    still = value("datatype_pack", 0.5, "harness.norm_us_per_op") / value(
        "datatype_pack", 0.0, "harness.norm_us_per_op")
    moved = {
        layer: value("halo_pricing", 0.5, f"{layer}.self_us_per_op")
        - value("halo_pricing", 0.0, f"{layer}.self_us_per_op")
        for layer in sorted({m.rsplit(".", 1)[0] for m in PER_LAYER if m.endswith(".share")})
    }
    nic_before = value("halo_pricing", 0.0, "machine.nic.self_us_per_op")
    checks = {
        f"halo_pricing norm_us_per_op rose ({rise:.3f}x)": rise > 1.0,
        f"datatype_pack norm_us_per_op within its bound ({still:.3f}x)": abs(still - 1) <= bound,
        f"machine.nic took the largest rise (+{moved['machine.nic']:.3f} us/op of "
        f"{nic_before:.3f})": max(moved, key=moved.get) == "machine.nic"
        and moved["machine.nic"] > 0.15 * nic_before,
    }
    for text, passed in checks.items():
        print(f"selfcheck {'ok  ' if passed else 'FAIL'} {text}")
    return 0 if all(checks.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="length of one timed region")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the rounds and seconds; numbers are not gated")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run K full sets and report the spread of each end-to-end metric")
    parser.add_argument("--selfcheck", action="store_true",
                        help="plant a slowdown in machine.nic and check it is seen there only")
    parser.add_argument("--inject-nic-slowdown", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.selfcheck:
        return selfcheck(args)
    if args.workload and args.trace is not None and args.repeat == 1:
        return run_leaf(args)
    sets = [run_set(args, args.seed) for _ in range(args.repeat)]
    ok = True
    if args.repeat > 1 and args.trace != 1:
        ok = report_repeat(sets)
    result = combined(sets)
    print(json.dumps(result))
    return 0 if ok and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Paired-block wall-clock A/B of one benchmark workload on two source trees.

    python tools/ab.py PARENT_DIR CHANGE_DIR --workload W [--pairs N] [--null]

Starts exactly two worker processes, A on ``PARENT_DIR`` and B on
``CHANGE_DIR``.  Each imports its own tree's ``src/`` and
``benchmarks/e2e/workloads.py`` (read only), builds the workload the way
``benchmarks/e2e/run.py`` does (a ``measure_system`` model, the seed) and
warms it up once, then counts the calls of one counted pass with its
tree's ``CallCounter``, as ``run.py`` counts ``calls_per_op`` at the same
seed.  Then the two run blocks of about :data:`BLOCK_S` in turn, AB in even pairs and BA in odd ones, one process at a time, and each
pair gives the ratio B/A of their host seconds per op.  The host's speed
drifts over seconds (``benchmarks/e2e/README.md`` § Method); two adjacent
blocks share one regime, so their ratio cancels it where a whole-run median
cannot.

Both workers run the same rounds, so their ``virtual_digest`` must be equal:
a mismatch means the trees simulated different things, and the tool exits
with status 2 naming the workload.  A failed op exits with status 2 too.
(The outputs themselves are checked by ``run.py``; equal digests tie the
change's outputs to the parent's.)

The report is the median ratio, the sign count (pairs where B was faster),
a distribution-free 95 % interval for the median (binomial order statistics)
and a verdict: ``faster`` or ``slower`` when the whole interval lies beyond
1 ∓ :data:`MARGIN`, else ``unresolved``.  Two processes running one tree
can differ by a percent or so, and their pairs scatter by about ±6 % on a
shared two-core host, so the margin keeps such a bias from reading as a
change.  ``--null`` runs ``PARENT_DIR`` in both workers: its verdict must
read ``unresolved``.
``--json`` prints the report as one JSON object instead.

Both workers are stopped when the tool exits, on an error too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import IO, Any, Optional, Sequence

#: An interval that reaches closer to 1 than this is never a verdict.  Null
#: runs (one tree in both workers) on a 2-core shared VM read medians from
#: 0.978 to 1.058; the worst interval, ``ml_replay`` over 40 pairs, was
#: [1.013, 1.071], which a rule of "median past 1.5 % and an interval that
#: excludes 1" called slower.  The 2 % margin was chosen after those runs.
#: Four null runs of 60 pairs made after it was fixed (``ml_replay`` twice,
#: ``halo_world``, ``datatype_pack``) read medians 1.000-1.025, with
#: interval ends 0.981 and 1.053 at the widest, all unresolved.
MARGIN = 0.02
#: Two-sided level of the order-statistic interval.
ALPHA = 0.05
#: Seconds per timed block: long enough to hold a few rounds of every
#: workload, short against the seconds over which the host's speed drifts.
BLOCK_S = 0.25


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #

def median_interval(ratios: Sequence[float], alpha: float = ALPHA) -> tuple[float, float]:
    """A distribution-free ``1 - alpha`` interval for the median of ``ratios``.

    The ``k``-th smallest and ``k``-th largest value, with ``k`` the largest
    count for which fewer than ``k`` of ``n`` fair coin flips land heads with
    probability at most ``alpha / 2``.  Too few values for any such ``k``
    give the whole line.
    """
    n = len(ratios)
    ordered = sorted(ratios)
    k, tail = 0, 0.0
    while k < n:
        tail += math.comb(n, k) / 2.0 ** n  # P(heads <= k)
        if tail > alpha / 2:
            break
        k += 1
    if k == 0:
        return -math.inf, math.inf
    return ordered[k - 1], ordered[n - k]


def sign_test_p(faster: int, slower: int) -> float:
    """Two-sided sign-test p-value of ``faster`` against ``slower`` (ties dropped)."""
    n = faster + slower
    if n == 0:
        return 1.0
    low = min(faster, slower)
    tail = sum(math.comb(n, i) for i in range(low + 1)) / 2.0 ** n
    return min(1.0, 2 * tail)


def verdict(interval: tuple[float, float], margin: float = MARGIN) -> str:
    """``faster``/``slower`` for B against A, or ``unresolved``."""
    low, high = interval
    if high < 1.0 - margin:
        return "faster"
    if low > 1.0 + margin:
        return "slower"
    return "unresolved"


def summarize(ratios: Sequence[float]) -> dict[str, Any]:
    """The report of a list of B/A ratios."""
    median = statistics.median(ratios)
    low, high = median_interval(ratios)
    faster = sum(ratio < 1.0 for ratio in ratios)
    slower = sum(ratio > 1.0 for ratio in ratios)
    return {
        "pairs": len(ratios),
        "median_ratio": median,
        "interval": [low, high],
        "b_faster": faster,
        "b_slower": slower,
        "sign_p": sign_test_p(faster, slower),
        "verdict": verdict((low, high)),
    }


# --------------------------------------------------------------------------- #
# the worker: one tree, one workload, commands on stdin
# --------------------------------------------------------------------------- #

def worker(tree: Path, workload_name: str, seed: int) -> int:
    """Serve ``run``/``digest`` commands for one warmed-up workload of ``tree``.

    Replies go to the original stdout, one JSON line each; the workload's
    own prints are sent to stderr so they cannot corrupt the protocol.
    """
    replies = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "e2e")]
    import gc

    import measure
    import repro
    import workloads
    from repro.tempi import measurement
    from repro.tempi.perf_model import PerformanceModel

    for module in (measure, repro, workloads):
        if not Path(module.__file__).is_relative_to(tree):
            raise SystemExit(f"{module.__name__} imported from {module.__file__}, not from {tree}")
    cls = workloads.WORKLOADS[workload_name]
    workload = cls(PerformanceModel(measurement.measure_system()), seed)
    workload.block(cls.warmup_rounds)
    with measure.CallCounter() as counter:
        counted = workload.block(cls.counted_rounds)
    replies.write(json.dumps(
        {"block_rounds": cls.block_rounds, "calls_per_op": counter.calls / counted}
    ) + "\n")
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "run":
            gc.collect()
            start = time.perf_counter()
            ops = workload.block(command["rounds"])
            seconds = time.perf_counter() - start
            reply: dict[str, Any] = {"ops": ops, "seconds": seconds}
        elif command["op"] == "digest":
            reply = {"digest": workload.virtual_digest(), "failed": workload.failed_ops}
        else:
            raise SystemExit(f"unknown command {command!r}")
        replies.write(json.dumps(reply) + "\n")
    return 0


# --------------------------------------------------------------------------- #
# the controller
# --------------------------------------------------------------------------- #

class WorkerError(RuntimeError):
    """A worker exited before it answered (its traceback is on stderr)."""


class Worker:
    """One worker process and its command pipe."""

    def __init__(self, label: str, tree: Path, workload: str, seed: int) -> None:
        self.label, self.tree = label, tree
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        env["PYTHONHASHSEED"] = "0"  # one dict/set layout in both workers
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
             "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def receive(self) -> dict[str, Any]:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line:
            code = self.process.wait()
            raise WorkerError(f"worker {self.label} ({self.tree}) exited with status {code}")
        return json.loads(line)

    def ask(self, **command: Any) -> dict[str, Any]:
        stdin: Optional[IO[str]] = self.process.stdin
        assert stdin is not None
        try:
            stdin.write(json.dumps(command) + "\n")
            stdin.flush()
        except BrokenPipeError:
            pass  # ``receive`` reports the exit status
        return self.receive()

    def stop(self) -> None:
        """End the process: close its stdin, then terminate, then kill."""
        process = self.process
        if process.poll() is None:
            try:
                assert process.stdin is not None
                process.stdin.close()
                process.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                process.terminate()
                try:
                    process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        for pipe in (process.stdin, process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


def compare(parent: Path, change: Path, workload: str, *, pairs: int, seed: int) -> dict[str, Any]:
    """Run the paired blocks; the report, with both digests."""
    workers: list[Worker] = []
    try:
        workers.append(Worker("A", parent, workload, seed))
        workers.append(Worker("B", change, workload, seed))
        a, b = workers
        ready = [w.receive() for w in workers]
        block_rounds = ready[0]["block_rounds"]
        # One calibration block on each side: rounds per block for the pairs.
        calibration = [w.ask(op="run", rounds=block_rounds) for w in workers]
        slowest = max(reply["seconds"] for reply in calibration)
        rounds = max(1, round(BLOCK_S * block_rounds / max(slowest, 1e-9)))
        ratios = []
        for pair in range(pairs):
            order = (a, b) if pair % 2 == 0 else (b, a)
            seconds = {w.label: w.ask(op="run", rounds=rounds) for w in order}
            per_op = {label: reply["seconds"] / reply["ops"] for label, reply in seconds.items()}
            ratios.append(per_op["B"] / per_op["A"])
        digests = [w.ask(op="digest") for w in workers]
    finally:
        for w in workers:
            w.stop()
    report = summarize(ratios)
    report.update(
        workload=workload, rounds_per_block=rounds, ratios=ratios,
        calls_per_op_a=ready[0]["calls_per_op"], calls_per_op_b=ready[1]["calls_per_op"],
        digest_a=digests[0]["digest"], digest_b=digests[1]["digest"],
        failed=digests[0]["failed"] + digests[1]["failed"],
    )
    return report


def render(report: dict[str, Any], parent: Path, change: Path) -> str:
    low, high = report["interval"]
    return "\n".join((
        f"ab: {report['workload']}, A = {parent}, B = {change}",
        f"  {report['pairs']} pairs of {report['rounds_per_block']}-round blocks, AB then BA",
        f"  median B/A {report['median_ratio']:.4f}, 95% interval [{low:.4f}, {high:.4f}]",
        f"  calls per op: A {report['calls_per_op_a']:.3f}, B {report['calls_per_op_b']:.3f}",
        f"  B faster in {report['b_faster']}/{report['pairs']} pairs "
        f"(slower in {report['b_slower']}, sign test p = {report['sign_p']:.2g})",
        f"  virtual_digest {report['digest_a']} on both trees",
        f"verdict: {report['verdict']}",
    ))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?", help="tree A (the parent)")
    parser.add_argument("change", type=Path, nargs="?", help="tree B (the change)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--null", action="store_true", help="run PARENT_DIR in both workers")
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return worker(args.worker.resolve(), args.workload, args.seed)
    if args.parent is None or (args.change is None and not args.null):
        parser.error("give PARENT_DIR and CHANGE_DIR (or PARENT_DIR and --null)")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    parent = args.parent.resolve()
    change = parent if args.null else args.change.resolve()
    try:
        report = compare(parent, change, args.workload, pairs=args.pairs, seed=args.seed)
    except WorkerError as error:
        print(f"ab: {args.workload}: {error}", file=sys.stderr)
        return 2
    if report["digest_a"] != report["digest_b"]:
        print(f"ab: {args.workload}: virtual_digest differs: A {report['digest_a']}, "
              f"B {report['digest_b']}; the trees simulated different things", file=sys.stderr)
        return 2
    if report["failed"]:
        print(f"ab: {args.workload}: {report['failed']} failed ops or checks", file=sys.stderr)
        return 2
    print(json.dumps(report) if args.json else render(report, parent, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Simulator throughput — the event-driven fast path vs the eager path.

Not a paper figure: this benchmark measures the *simulator itself*.  It
drives the typed-collective control plane (compile + shared-NIC pricing) at
halo-exchange scale and reports simulated messages per wall-clock second,
eager (plan cache and selection memo off — the pre-fast-path behaviour)
against cached (both on), plus the NIC's peak resident ledger footprint.

``python benchmarks/bench_sim_throughput.py --smoke`` runs the CI sweep
(256/512/1024 ranks) and, with ``--baseline BENCH_sim.json``, regression-
gates the cached/eager and batched/cached speedup ratios against the
committed numbers (dimensionless, so robust to CI machine speed) — the
``--topology`` leg against the committed ``topology`` section.  ``--output``
rewrites the baseline file.  The full sweep extends to 8192 ranks and
asserts the acceptance gates: the cached/eager speedup floor at 256 ranks
and the batched-over-cached booking ratio at 4096 ranks (>=3x flat, and a
floor on the ``--topology`` leg beside it).  ``--profile``
cProfiles the booking loop instead of sweeping (top 20 functions by
cumulative time, scalar and batched legs).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

from repro.bench.simthroughput import (
    CACHED_CONFIG,
    FABRIC_SPEC,
    FULL_RANKS,
    HALO_DEGREE,
    SMOKE_RANKS,
    _cached_iters,
    check_sweep,
    compare_baseline,
    default_model,
    profile_drive,
    render_table,
    run_sweep,
)

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"
#: Full-mode floor on the ``--topology`` leg's batched-over-cached ratio at
#: 4096 ranks.  The fat-tree preset measures 2.55-2.86x (committed row
#: 2.86x); the floor sits a noise band (~20 %) under the lowest of those.
FABRIC_FLOOR = 2.0


def sweep_payload(results: dict, *, mode: str, topology=None) -> dict:
    """The JSON document committed as ``BENCH_sim.json``.

    ``topology`` is an optional ``(spec, results)`` pair recording the
    hierarchical sweep leg (path resolution + ledger binding per message).
    """
    payload = {
        "schema": 1,
        "benchmark": "sim-throughput",
        "mode": mode,
        "halo_degree": HALO_DEGREE,
        "results": {str(nranks): entry for nranks, entry in sorted(results.items())},
    }
    if topology is not None:
        spec, topo_results = topology
        payload["topology"] = {
            "spec": spec.to_dict(),
            "results": {str(n): entry for n, entry in sorted(topo_results.items())},
        }
    return payload


@pytest.mark.benchmark
@pytest.mark.slow
def test_sim_throughput(benchmark, summit_model, report):
    results = benchmark.pedantic(
        lambda: run_sweep((64, 128), summit_model), rounds=1, iterations=1
    )
    print("\nSimulator throughput — eager vs cached control plane (wall-clock)")
    print(render_table(results))
    check_sweep(results)
    smallest = min(results)
    report.add(
        "sim throughput (infrastructure)",
        f"event-core speedup over eager recompile at {smallest} ranks",
        "no paper value (simulator wall-clock, not simulated latency)",
        f"{results[smallest]['speedup']:.1f}x",
        matches_shape=results[smallest]["speedup"] > 1.0,
        note="plan cache + selection memo replay the same charges (bit-identity pinned)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI sweep (256/512/1024 ranks) without the 2048-rank point")
    parser.add_argument("--ranks", type=int, nargs="*", default=None,
                        help="explicit rank counts to sweep")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed BENCH_sim.json to regression-gate against "
                             "(>20%% speedup-ratio drop fails)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the sweep as a BENCH_sim.json baseline here")
    parser.add_argument("--topology", default=None,
                        help="also sweep with a hierarchical topology: 'fabric' "
                             "(the built-in fat-tree preset) or a TopologySpec JSON file")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the booking loop at the largest requested rank "
                             "count (scalar and batched legs, top 20 by cumulative "
                             "time) instead of sweeping")
    args = parser.parse_args(argv)
    if args.ranks:
        rank_counts, mode = tuple(args.ranks), "custom"
    elif args.smoke:
        rank_counts, mode = SMOKE_RANKS, "smoke"
    else:
        rank_counts, mode = FULL_RANKS, "full"

    spec = None
    if args.topology is not None:
        if args.topology == "fabric":
            spec = FABRIC_SPEC
        else:
            from repro.machine.topology import TopologySpec

            spec = TopologySpec.load(Path(args.topology))
        if spec.is_flat:
            print("--topology spec is flat; nothing hierarchical to sweep", file=sys.stderr)
            return 2

    if args.profile:
        nranks = max(rank_counts)
        iters = _cached_iters(nranks)
        model = default_model()
        for booking in ("scalar", "batched"):
            print(f"profile — {booking} booking, {nranks} ranks, {iters} rounds")
            print(profile_drive(nranks, CACHED_CONFIG, model, iters=iters,
                                topology=spec, booking=booking))
        return 0

    results = run_sweep(rank_counts)
    print("Simulator throughput — eager vs cached control plane (wall-clock)")
    print(render_table(results))
    check_sweep(results)

    topo_results = None
    if spec is not None:
        topo_results = run_sweep(rank_counts, topology=spec)
        print("\nWith hierarchical topology (path resolution + ledger binding per message)")
        print(render_table(topo_results))
        check_sweep(topo_results)

    if mode == "full":
        smallest = min(results)
        speedup = results[smallest]["speedup"]
        # Measured ~5.3x on the reference host with the compact sparse-peer
        # halo layout; the gate sits a noise band below the measurement.
        if speedup is not None:
            assert speedup >= 4.0, (
                f"{smallest} ranks: fast path {speedup:.1f}x under the 4x target"
            )
            print(f"OK: {speedup:.1f}x over the eager path at {smallest} ranks (target 4x)")
        if 4096 in results:
            ratio = results[4096]["batched_vs_cached"]
            assert ratio >= 3.0, (
                f"4096 ranks: batched booking {ratio:.2f}x under the 3x target"
            )
            print(f"OK: batched booking {ratio:.2f}x over per-message pricing "
                  f"at 4096 ranks (target 3x)")
        if topo_results is not None and 4096 in topo_results:
            ratio = topo_results[4096]["batched_vs_cached"]
            assert ratio >= FABRIC_FLOOR, (
                f"4096 ranks, {args.topology}: batched booking {ratio:.2f}x "
                f"under the {FABRIC_FLOOR}x floor"
            )
            print(f"OK: {args.topology} batched booking {ratio:.2f}x over "
                  f"per-message pricing at 4096 ranks (floor {FABRIC_FLOOR}x)")

    if args.output is not None:
        topology = (spec, topo_results) if spec is not None else None
        payload = sweep_payload(results, mode=mode, topology=topology)
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote baseline {args.output}")

    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
        failures = compare_baseline(results, baseline)
        if topo_results is not None and "topology" in baseline:
            failures += [
                f"{args.topology}: {failure}"
                for failure in compare_baseline(topo_results, baseline["topology"])
            ]
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"OK: no regression vs committed {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

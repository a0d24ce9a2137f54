"""Command-line interface.

TEMPI ships a measurement binary that administrators run once per system;
this module is the reproduction's equivalent, plus two convenience commands
used while studying the model:

``python -m repro.cli measure --output summit.json``
    Run the full system-measurement sweep and write the measurement file the
    performance model loads at run time (Sec. 6.3).

``python -m repro.cli predict --measurement summit.json --size 1048576 --block 8``
    Query the performance model: the three Eq. 1-3 latencies and the selected
    method for one (object size, block length) point.

``python -m repro.cli halo --nodes 512 --ranks-per-node 6``
    Evaluate the paper-scale halo-exchange model (Fig. 12) for one scale
    point, printing the phase breakdown and the speedup over the baseline.

``python -m repro.cli select-table --plans 4 --nic duplex --incast 4``
    Dump the selected packing method per (object size, block length) grid
    cell — the Fig. 9b selection map — contention-free (all loads 0) or
    under NIC backlog, through the same :mod:`repro.tempi.selection` pricing
    the interposer uses.  ``--plans`` folds in this rank's injection-port
    queue, ``--incast`` the destination's ingestion-port queue and
    ``--link-busy`` the occupancy of the link to it (the latter two priced
    only under ``--nic duplex``; ``--nic inject_only`` is the PR-4
    injection-only ablation).  Under load each cell is annotated with the
    term that bound it: ``/pak`` (its own pack kernel), ``/inj`` (injection
    port), ``/lnk`` (link) or ``/ing`` (ingestion port).  With
    ``--topology spec.json`` the map is printed once per resolvable path
    class (intra-island, cross-island, intra-leaf, cross-leaf), each cell
    priced along its resolved path — the crossover divergence
    ``bench_topology.py`` measures.

``python -m repro.cli topo show --spec spec.json --ranks 16``
    Resolve a :class:`~repro.machine.topology.TopologySpec` (flat when
    ``--spec`` is omitted) over ``--ranks`` ranks and print the placed
    shape: nodes, islands, rails, leaves, uplink bundle bandwidths, and one
    representative pair per path class with its hops, bound ledgers and
    wire times.

``python -m repro.cli replay trace.json``
    Replay a recorded communication trace (:mod:`repro.apps.replay`: MoE
    dispatch rounds, pipeline hops, allreduces — anything emitting the
    op/counts/peers schema) through TEMPI's interposer on a fresh world,
    twice, and assert the priced clocks, counters and payload digests are
    bit-identical across the runs before printing the per-rank breakdown.
    ``--runs`` raises the repetition count, ``--allreduce-algorithm`` and
    ``--nic`` pin the config knobs the replay prices under.

``python -m repro.cli lint``
    Run the static determinism lint (:mod:`tools.analyze`) over the source
    tree: wall-clock/randomness on priced paths, mutation reachable from
    selection pricing, unordered iteration feeding clock arithmetic,
    undocumented knobs/counters, raw float accumulation in the NIC ledgers.
    Nonzero exit on any finding.

``python -m repro.cli figures [--smoke | --full] [--only fig12b ...]``
    Run the paper-vs-measured table (``benchmarks/figures.py``): each row
    measures one figure claim at its default, ``--smoke`` or ``--full`` grid,
    prints its tables and evaluates its named claims, the rows spread over
    one worker process per core and printed in table order.  Nonzero exit
    naming every failing row and claim; a row with a known deviation from
    the paper prints it under the row.  A default-grid run that passes
    rewrites the rows it ran in ``benchmarks/bench_report.json``, the
    host-timed ``fig07`` (wall-clock commits, nothing priced) only when
    ``--only`` names it.

``python -m repro.cli sanitize``
    Replay the table's fig9/fig15/incast/topology/allreduce/moe rows
    (``--smoke`` grids, or ``--full``) and Fig. 14's three engines with the
    runtime clock sanitizer (:mod:`repro.tempi.sanitizer`) as the NIC trace
    sink, one fresh sink per replay: vector clocks over NIC commits,
    cross-rank backlog reads audited for a happens-before edge, shared
    rails and uplink bundles for key order, port monotonicity, and
    pricing-purity checksums.  Prints every audit counter; nonzero exit on
    any violation.

``python -m repro.cli explain incast``
    Replay one row at the smoke grid under the sanitizer and print, per
    traced timeline, each resource's busy and stall seconds and each rank's
    stall by binding resource; exit 1 if the batch sweep, which emits no
    events, booked on one of them.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.apps.exchange_model import model_halo_exchange
from repro.apps.halo import HaloSpec
from repro.machine.spec import SUMMIT
from repro.tempi.measurement import SystemMeasurement, measure_system
from repro.tempi.perf_model import PerformanceModel


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TEMPI reproduction utilities (measurement sweep, model queries, halo model)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="run the system measurement sweep")
    measure.add_argument("--output", type=Path, default=Path("measurement.json"),
                         help="where to write the measurement file")

    predict = sub.add_parser("predict", help="query the packing-method performance model")
    predict.add_argument("--measurement", type=Path, default=None,
                         help="measurement file from 'measure' (measured on the fly if omitted)")
    predict.add_argument("--size", type=int, required=True, help="object payload in bytes")
    predict.add_argument("--block", type=int, required=True, help="contiguous block length in bytes")

    halo = sub.add_parser("halo", help="evaluate the paper-scale halo-exchange model (Fig. 12)")
    halo.add_argument("--nodes", type=int, required=True)
    halo.add_argument("--ranks-per-node", type=int, default=6)
    halo.add_argument("--points", type=int, default=256,
                      help="gridpoints per rank along each axis (paper: 256)")
    halo.add_argument("--radius", type=int, default=3, help="stencil radius (paper: 3)")

    table = sub.add_parser(
        "select-table",
        help="dump the selected method per (size, block length) grid cell (Fig. 9b map)",
    )
    table.add_argument("--measurement", type=Path, default=None,
                       help="measurement file from 'measure' (measured on the fly if omitted)")
    table.add_argument("--plans", type=int, default=0,
                       help="concurrent plans' worth of injection-port backlog to fold in "
                            "(0: no send-side queue)")
    table.add_argument("--nic", choices=("duplex", "inject_only"), default="duplex",
                       help="NIC accounting to price with: 'duplex' folds link and "
                            "ingestion backlog in, 'inject_only' is the PR-4 "
                            "injection-only ablation")
    table.add_argument("--incast", type=int, default=0,
                       help="senders' worth of ingestion-port backlog converging on the "
                            "destination peer (duplex only; the hot-receiver term)")
    table.add_argument("--link-busy", type=int, default=0,
                       help="pending messages' worth of full-wire occupancy on the link "
                            "to the destination (duplex only)")
    table.add_argument("--sizes", type=int, nargs="*", default=None,
                       help="object sizes in bytes (default: 256 B to 4 MiB, powers of two)")
    table.add_argument("--blocks", type=int, nargs="*", default=None,
                       help="contiguous block lengths in bytes (default: the Fig. 10 sweep)")
    table.add_argument("--topology", type=Path, default=None,
                       help="TopologySpec JSON file: print one map per resolvable path "
                            "class, each cell priced along its resolved path")

    topo = sub.add_parser("topo", help="inspect a cluster topology")
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)
    topo_show = topo_sub.add_parser(
        "show",
        help="resolve a topology spec over a rank count and print the placed shape",
    )
    topo_show.add_argument("--spec", type=Path, default=None,
                           help="TopologySpec JSON file (flat when omitted)")
    topo_show.add_argument("--ranks", type=int, default=16,
                           help="world size to place (default 16)")
    topo_show.add_argument("--ranks-per-node", type=int, default=1,
                           help="ranks per node for a flat default spec "
                                "(ignored when --spec is given)")
    topo_show.add_argument("--size", type=int, default=1 << 20,
                           help="sample message bytes for the per-class wire times")

    replay = sub.add_parser(
        "replay",
        help="replay a recorded communication trace and report priced clocks",
    )
    replay.add_argument("trace", type=Path,
                        help="trace JSON document (see repro.apps.replay for the schema)")
    replay.add_argument("--measurement", type=Path, default=None,
                        help="measurement file for the performance model "
                             "(default: measure in-process)")
    replay.add_argument("--runs", type=int, default=2,
                        help="independent replays to run; all must agree bit-for-bit "
                             "(default: 2)")
    replay.add_argument("--allreduce-algorithm", default="auto",
                        choices=("auto", "ring", "tree", "hierarchical"),
                        help="pin the allreduce schedule replayed allreduce records use")
    replay.add_argument("--nic", default="duplex", choices=("duplex", "inject_only"),
                        help="NIC accounting mode the replay prices under")

    lint = sub.add_parser(
        "lint",
        help="run the simulator's static determinism lint (tools/analyze)",
    )
    lint.add_argument("--select", nargs="*", default=None, metavar="SIMxxx",
                      help="only run these rule codes (default: all rules)")

    figures = sub.add_parser(
        "figures",
        help="run the paper-vs-measured figure table and check every row's claims; a "
        "passing default-grid run rewrites its rows in benchmarks/bench_report.json, "
        "the host-timed fig07 only when --only names it",
    )
    grid = figures.add_mutually_exclusive_group()
    grid.add_argument("--smoke", action="store_true", help="the smallest grids (CI)")
    grid.add_argument("--full", action="store_true", help="the paper's full grids")
    figures.add_argument("--only", nargs="+", default=None, metavar="ID",
                         help="run only these rows (default: the whole table)")

    sanitize = sub.add_parser(
        "sanitize",
        help="replay the figure benchmarks under the runtime clock sanitizer",
    )
    sanitize.add_argument("--full", action="store_true",
                          help="full benchmark sweeps instead of the --smoke subsets")

    explain = sub.add_parser("explain", help="print where one figure row's virtual time went")
    explain.add_argument("row", help="a figure row id (figures --only nosuch lists them)")

    return parser


def _cmd_measure(args: argparse.Namespace) -> int:
    measurement = measure_system(SUMMIT, path=args.output)
    print(f"wrote {args.output} ({len(measurement.sizes)} sizes x "
          f"{len(measurement.block_lengths)} block lengths, machine '{measurement.machine_name}')")
    return 0


def _load_model(measurement_path: Optional[Path]) -> PerformanceModel:
    if measurement_path is not None:
        return PerformanceModel(SystemMeasurement.load(measurement_path))
    return PerformanceModel(measure_system(SUMMIT))


def _bad_flag(values, *, zero_ok: bool = False) -> bool:
    """Print the error line naming the first ``(flag, value)`` out of range
    (below 1, or below 0 when ``zero_ok``); return whether there was one."""
    for flag, value in values:
        if value < 0 or (value == 0 and not zero_ok):
            need = "non-negative" if zero_ok else "positive"
            print(f"error: {flag} must be {need}, got {value}", file=sys.stderr)
            return True
    return False


def _cmd_predict(args: argparse.Namespace) -> int:
    if _bad_flag([("--size", args.size), ("--block", args.block)]):
        return 2
    model = _load_model(args.measurement)
    estimate = model.estimate(args.size, args.block)
    print(f"object          : {args.size:,} B in {args.block} B contiguous runs")
    print(f"T_oneshot (Eq.2): {estimate.oneshot * 1e6:12.1f} us")
    print(f"T_device  (Eq.1): {estimate.device * 1e6:12.1f} us")
    print(f"T_staged  (Eq.3): {estimate.staged * 1e6:12.1f} us")
    print(f"selected method : {estimate.best().value}")
    return 0


def _cmd_halo(args: argparse.Namespace) -> int:
    try:
        spec = HaloSpec(nx=args.points, ny=args.points, nz=args.points, radius=args.radius)
        baseline = model_halo_exchange(args.nodes, args.ranks_per_node, spec=spec, tempi=False)
        accelerated = model_halo_exchange(args.nodes, args.ranks_per_node, spec=spec, tempi=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"scale             : {args.nodes} nodes x {args.ranks_per_node} ranks/node "
          f"= {baseline.nranks} ranks")
    print(f"domain            : {args.points}^3 points/rank, radius {args.radius}, "
          f"{spec.point_bytes} B/point")
    print(f"baseline exchange : pack {baseline.pack_s * 1e3:9.2f} ms | "
          f"alltoallv {baseline.comm_s * 1e3:9.2f} ms | unpack {baseline.unpack_s * 1e3:9.2f} ms")
    print(f"TEMPI exchange    : pack {accelerated.pack_s * 1e3:9.2f} ms | "
          f"alltoallv {accelerated.comm_s * 1e3:9.2f} ms | unpack {accelerated.unpack_s * 1e3:9.2f} ms")
    print(f"speedup           : {baseline.total_s / accelerated.total_s:,.0f}x")
    return 0


def _booked_backlog(plans: int, incast: int, wire: float) -> tuple[float, float]:
    """Rank 0's injection backlog after ``plans`` posts to distinct peers, and
    its ingestion backlog after ``incast`` senders' posts, booked on a
    throwaway timeline: ``select-table``'s synthetic load."""
    from repro.machine.nic import NicTimeline

    nic = NicTimeline(ledger_limit=0, pending_limit=incast)
    for peer in range(1, plans + 1):
        nic.reserve(0, peer, 0.0, wire)
    for sender in range(1, incast + 1):
        nic.reserve(sender, 0, 0.0, wire)
    return nic.port_free_at(0), nic.ingest_backlog(0)


def _cmd_select_table(args: argparse.Namespace) -> int:
    from repro.machine.network import NetworkModel
    from repro.machine.topology import Topology, TopologyError, TopologySpec
    from repro.tempi.measurement import DEFAULT_BLOCKS
    from repro.tempi.selection import contended_estimate

    if _bad_flag(
        [("--plans", args.plans), ("--incast", args.incast), ("--link-busy", args.link_busy)],
        zero_ok=True,
    ):
        return 2
    sizes = args.sizes if args.sizes else [1 << p for p in range(8, 23)]
    blocks = args.blocks if args.blocks else list(DEFAULT_BLOCKS)
    if _bad_flag([(f"--sizes[{i}]", size) for i, size in enumerate(sizes)]
                 + [(f"--blocks[{i}]", block) for i, block in enumerate(blocks)]):
        return 2
    topology: Optional[Topology] = None
    if args.topology is not None:
        try:
            spec = TopologySpec.load(args.topology)
        except (OSError, TopologyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        nnodes = 2 * spec.leaf_radix if spec.leaf_radix else 2
        topology = Topology(nnodes * spec.ranks_per_node, spec=spec)
    model = _load_model(args.measurement)
    network = NetworkModel(SUMMIT)
    duplex = args.nic == "duplex"
    incast = args.incast if duplex else 0
    link_busy = args.link_busy if duplex else 0
    loaded = args.plans or incast or link_busy
    parts = [f"nic={args.nic}"]
    if args.plans:
        parts.append(f"{args.plans} concurrent plans' injection backlog")
    if incast:
        parts.append(f"{incast} senders' ingestion backlog at the destination")
    if link_busy:
        parts.append(f"{link_busy} messages queued on the link")
    if (args.incast or args.link_busy) and not duplex:
        parts.append("(--incast/--link-busy ignored: inject_only prices the send side only)")
    if not loaded:
        load = ", ".join(["contention-free", parts[0]] + parts[1:])
    else:
        load = ", ".join(parts)

    def print_grid(oneshot_wire, device_wire) -> None:
        """One selection map; wire callables map a size to its override."""
        if loaded or oneshot_wire is not None:
            print("each cell: method/bound — pak=pack kernel, inj=injection port, "
                  "lnk=link, ing=ingestion port")
        width = 13 if loaded or oneshot_wire is not None else 9
        print("bytes      " + "".join(f"{block:>{width}}" for block in blocks))
        for size in sizes:
            cells = []
            for block in blocks:
                if not loaded and oneshot_wire is None:
                    cells.append(model.choose_method(size, min(block, size)).value)
                    continue
                # Each in-flight plan parks one inter-node message of this size
                # on the respective port — the same load shape the Fig. 9 and
                # incast benchmarks sweep — and selection prices the queues it
                # would see.
                wire = network.message_time(size, same_node=False, device_buffers=True)
                inject_s, ingest_s = _booked_backlog(args.plans, incast, wire)
                estimate = contended_estimate(
                    model,
                    size,
                    min(block, size),
                    inject_s,
                    link_backlog_s=link_busy * wire,
                    ingest_backlog_s=ingest_s,
                    oneshot_wire_s=None if oneshot_wire is None else oneshot_wire(size),
                    device_wire_s=None if device_wire is None else device_wire(size),
                )
                bound = {"pack": "pak", "inject": "inj", "link": "lnk",
                         "ingest": "ing", "rail": "ral", "uplink": "upl"}
                cells.append(f"{estimate.best().value}/{bound[estimate.bound()]}")
            print(f"{size:>9}  " + "".join(f"{cell:>{width}}" for cell in cells))

    if topology is None or not topology.hierarchical:
        if topology is not None:
            print("(flat topology spec: one map, the pre-topology pricing)")
        print(f"selected method per (size, block length) cell — {load}")
        print_grid(None, None)
        return 0
    pairs = {k: v for k, v in topology.representative_pairs().items() if k != "self"}
    print(f"selected method per (size, block length) cell, per path class — {load}")
    for kind, (src, dst) in pairs.items():
        print(f"\n== path class {kind} (ranks {src} -> {dst})")
        print_grid(
            lambda size, s=src, d=dst: topology.message_time(
                s, d, size, device_buffers=False
            ),
            lambda size, s=src, d=dst: topology.message_time(
                s, d, size, device_buffers=True
            ),
        )
    return 0


def _cmd_topo_show(args: argparse.Namespace) -> int:
    from repro.machine.topology import Topology, TopologyError, TopologySpec

    if _bad_flag([("--ranks", args.ranks), ("--size", args.size)]):
        return 2
    try:
        if args.spec is not None:
            spec = TopologySpec.load(args.spec)
        else:
            spec = TopologySpec.flat(args.ranks_per_node)
        topology = Topology(args.ranks, spec=spec)
    except (OSError, TopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shape = "flat (pre-topology books)" if spec.is_flat else "hierarchical"
    print(f"topology          : {shape} on {topology.machine.name}")
    print(f"placement         : {topology.nranks} ranks on {topology.nnodes} nodes "
          f"({spec.ranks_per_node}/node)")
    island = spec.island_size if spec.island_size else spec.ranks_per_node
    print(f"islands           : {island} rank(s) per NVLink island")
    if spec.rails_per_node:
        print(f"rails             : {spec.rails_per_node} shared NIC rail(s)/node, "
              f"policy '{spec.rail_policy}'")
    else:
        print("rails             : dedicated per-rank NIC")
    if spec.leaf_radix:
        device_bw = topology.uplink_bandwidth_Bps(topology.machine.inter_gpu)
        host_bw = topology.uplink_bandwidth_Bps(topology.machine.inter_cpu)
        print(f"fabric            : {topology.nleaves} leaf switch(es), "
              f"{spec.leaf_radix} nodes/leaf, {spec.oversubscription:g}x oversubscribed")
        print(f"uplink bundle     : {device_bw / 1e9:.2f} GB/s device, "
              f"{host_bw / 1e9:.2f} GB/s host")
    else:
        print("fabric            : single flat switch")
    print(f"path classes at {args.size:,} B:")
    for kind, (src, dst) in topology.representative_pairs().items():
        path = topology.resolve(src, dst, device_buffers=True)
        hops = "+".join(hop.kind for hop in path.hops)
        ledgers = []
        if path.rail is not None:
            ledgers.append(f"rail{path.rail}")
        for key, _bandwidth in path.shared:
            ledgers.append(f"{key[0]}{key[1]}")
        device_us = topology.message_time(src, dst, args.size, device_buffers=True) * 1e6
        host_us = topology.message_time(src, dst, args.size, device_buffers=False) * 1e6
        print(f"  {kind:7} {src:>4} -> {dst:<4} hops {hops:<18} "
              f"ledgers {','.join(ledgers) or '-':<12} "
              f"wire {device_us:9.1f} us device / {host_us:9.1f} us host")
    return 0


def _repo_root() -> Optional[Path]:
    """The repository checkout this package was imported from, if any.

    ``repro`` lives at ``<root>/src/repro``; the lint tool and the figure
    table live beside ``src`` at ``<root>/tools`` and ``<root>/benchmarks``.
    An installed copy of the package has neither, in which case the
    source-tree commands (``lint``, ``figures``, ``sanitize``) refuse.
    """
    root = Path(__file__).resolve().parents[2]
    if (root / "tools" / "analyze" / "__init__.py").exists():
        return root
    return None


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.apps.replay import TraceError, load_trace, replay_trace
    from repro.tempi.config import TempiConfig

    if args.runs < 1:
        print(f"error: --runs must be >= 1, got {args.runs}", file=sys.stderr)
        return 2
    try:
        trace = load_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    except TraceError as exc:
        print(f"error: malformed trace: {exc}", file=sys.stderr)
        return 2
    model = _load_model(args.measurement)
    config = TempiConfig(allreduce_algorithm=args.allreduce_algorithm, nic=args.nic)
    results = [replay_trace(trace, model=model, config=config) for _ in range(args.runs)]
    first = results[0]
    for index, result in enumerate(results[1:], start=2):
        if (
            result.clocks != first.clocks
            or result.stats != first.stats
            or result.digests != first.digests
        ):
            print(
                f"error: run {index} diverged from run 1 "
                "(clocks/counters/digests are not bit-identical)",
                file=sys.stderr,
            )
            return 1
    print(f"trace    : {args.trace} ({first.ops} ops, {first.nranks} ranks)")
    print(f"runs     : {args.runs} replays, bit-identical clocks/counters/digests")
    for rank, (clock, stats) in enumerate(zip(first.clocks, first.stats)):
        print(
            f"rank {rank:3d} : {clock * 1e3:10.4f} ms | "
            f"plans {stats['plans_built']:4d} | "
            f"stalls inj {stats['contention_stalls']:3d} "
            f"ing {stats['ingest_stalls']:3d}"
        )
    print(f"completion: {first.completion_s * 1e3:.4f} ms")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    root = _repo_root()
    if root is None:
        print("error: 'repro lint' needs the source checkout (tools/analyze not found)",
              file=sys.stderr)
        return 2
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from tools.analyze.cli import main as lint_main

    argv = ["--root", str(root)]
    if args.select:
        argv.append("--select")
        argv.extend(args.select)
    return lint_main(argv)


def _load_figures():
    """``benchmarks/figures.py`` of this checkout, imported beside its ``bench_*`` modules."""
    import importlib

    root = _repo_root()
    if root is None:
        raise FileNotFoundError("the figure table needs the source checkout (benchmarks/ not found)")
    bench_dir = str(root / "benchmarks")
    sys.path.insert(0, bench_dir)
    try:
        return importlib.import_module("figures")
    finally:
        sys.path.remove(bench_dir)


@functools.lru_cache(maxsize=None)
def _figure_model() -> PerformanceModel:
    """The model every row of one process prices with (measured once)."""
    return _load_model(None)


def _run_figure(row, sweep: str) -> tuple[str, Optional[dict], Optional[str]]:
    """Run one row: ``(printed tables, report record, failure)``.

    The record is ``None`` and the failure is the traceback when the
    measurement raised, or one line per failing case of the row's claims,
    each naming the row and the claim.
    """
    import traceback

    from repro.bench.harness import format_table

    text = ""
    try:
        result = row.run(_figure_model(), sweep)
        text = "\n".join(format_table(headers, rows) for headers, rows in row.table(result))
        failures = row.failures(result)
        if failures:
            return text, None, "\n".join(failures)
        return text, row.record(result), None
    except Exception:  # noqa: BLE001 - any failure fails the row
        return text, None, traceback.format_exc().rstrip()


def _figure_task(row_id: str, sweep: str):
    """One worker process's share: the row named ``row_id``."""
    rows = {row.id: row for row in _load_figures().FIGURES}
    return _run_figure(rows[row_id], sweep)


def _figure_rows(wanted: Sequence[str]):
    """The figure table and its rows by id, or ``None`` once it printed why
    not: no checkout, or a row of ``wanted`` it does not have."""
    try:
        figures = _load_figures()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    rows = {row.id: row for row in figures.FIGURES}
    unknown = [row_id for row_id in wanted if row_id not in rows]
    if unknown:
        print(f"error: no figure row {', '.join(unknown)} (rows: {' '.join(rows)})",
              file=sys.stderr)
        return None
    return figures, rows


def _cmd_figures(args: argparse.Namespace) -> int:
    import os
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    loaded = _figure_rows(args.only or ())
    if loaded is None:
        return 2
    figures, rows = loaded
    sweep = "smoke" if args.smoke else "full" if args.full else "default"
    selected = [row for row in rows.values() if args.only is None or row.id in args.only]
    if len(selected) == 1:
        # One row runs in this process: a pool would only add a process start.
        outcomes = iter([_run_figure(selected[0], sweep)])
        pool = None
    else:
        # Spawned, not forked: a fork of a process whose kernel helpers run
        # would inherit their bookkeeping without the threads.
        pool = ProcessPoolExecutor(  # simlint: disable=SIM008 -- a process per row, nothing shared
            max_workers=os.cpu_count(), mp_context=get_context("spawn")
        )
        outcomes = pool.map(_figure_task, [row.id for row in selected], [sweep] * len(selected))
    failures, records = [], []
    try:
        for row, (text, record, failure) in zip(selected, outcomes):
            print(f"== {row.id}: {row.experiment}")
            if text:
                print(text)
            if failure is None:
                records.append(record)
                print(f"   measured {record['measured_value']} (paper: {row.paper})")
            else:
                failures.append(row.id)
                print(f"   FAILED: {failure}")
            if row.deviates:
                print(f"   deviates: {row.deviates}")
    finally:
        if pool is not None:
            pool.shutdown()
    if failures:
        print(f"figures: {len(failures)} failing row(s): {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"figures: {len(records)} row(s) hold ({sweep} grids)")
    if sweep == "default":
        fresh = {row.id: record for row, record in zip(selected, records)}
        _write_report(figures.REPORT, list(rows), fresh, args.only or ())
        print(f"wrote {figures.REPORT}")
    return 0


#: Figure rows timed by the host's clock: a rerun moves them, nothing priced.
HOST_TIMED_ROWS = ("fig07",)


def _write_report(path: Path, row_ids: Sequence[str], fresh: dict, named: Sequence[str]) -> None:
    """Write one record per table row: its ``fresh`` one, or the committed one
    (which maps onto the table row by row) where the row did not run or is
    host-timed and not ``named`` by ``--only``."""
    import json

    committed = json.loads(path.read_text()) if path.exists() else []
    kept = dict(zip(row_ids, committed)) if len(committed) == len(row_ids) else {}
    fresh = {row_id: record for row_id, record in fresh.items()
             if row_id not in HOST_TIMED_ROWS or row_id in named or row_id not in kept}
    records = [fresh.get(row_id, kept.get(row_id)) for row_id in row_ids]
    path.write_text(json.dumps([record for record in records if record], indent=2) + "\n")


def _sanitized(name: str, run: Callable[[], Optional[str]], failures: list[str]):
    """Run one replay with a fresh sanitizer on every timeline it builds,
    print its counters and add to ``failures`` what went wrong; the sink only
    observes, so each row's own claims still validate the real numbers."""
    from repro.machine.nic import trace_default
    from repro.tempi.sanitizer import ClockSanitizer

    sanitizer = ClockSanitizer()
    with trace_default(sanitizer):
        failure = run()
    if failure is not None:
        failures.append(f"{name}: {failure}")
        print(f"   FAILED: {failure}", file=sys.stderr)
        return sanitizer
    counters = sanitizer.counters
    print("   sanitizer: " + " ".join(f"{key}={value}" for key, value in counters.items()))
    if counters["violations"]:
        failures.append(f"{name}: {counters['violations']} recorded violation(s)")
    if counters["posts"] == 0:
        failures.append(f"{name}: sanitizer observed no NIC traffic (vacuous replay)")
    return sanitizer


def _print_row(row, sweep: str) -> Optional[str]:
    """Run one row, print its tables and return its failure (``None`` if it held)."""
    text, _, failure = _run_figure(row, sweep)
    print(text)
    return failure


def _cmd_sanitize(args: argparse.Namespace) -> int:
    """Replay benchmark rows under a :class:`ClockSanitizer`; 1 on any violation."""
    replays = ("fig9", "fig15", "incast", "topology", "allreduce", "moe")
    loaded = _figure_rows(replays)
    if loaded is None:
        return 2
    figures, rows = loaded
    sweep = "full" if args.full else "smoke"
    failures: list[str] = []

    def run_fig14(mode: str, overlap: bool) -> Optional[str]:
        try:
            figures.fig14.exchange_latency(4, _figure_model(), mode=mode, overlap=overlap)
        except Exception as exc:  # noqa: BLE001 - any failure fails the replay
            return f"{type(exc).__name__}: {exc}"
        return None

    for row_id in replays:
        print(f"== sanitized replay: {row_id} ({sweep} grids)")
        _sanitized(row_id, functools.partial(_print_row, rows[row_id], sweep), failures)
    # Fig. 14's columns are checked on their own: each books on the NIC, and
    # the isend/irecv one (``mode="overlap"``) posts through persistent
    # requests, so none may pass on another column's traffic.
    print("== sanitized replay: fig14 (exchange sweep at 4 ranks)")
    for mode, overlap in (("neighbor", False), ("neighbor", True), ("overlap", True)):
        _sanitized(f"fig14[mode={mode}, overlap={overlap}]",
                   functools.partial(run_fig14, mode, overlap), failures)
    if failures:
        print(f"sanitize: {len(failures)} failure(s)", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("sanitize: all benchmark replays clean")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    loaded = _figure_rows([args.row])
    if loaded is None:
        return 2
    failures: list[str] = []
    sanitizer = _sanitized(args.row, functools.partial(_print_row, loaded[1][args.row], "smoke"), failures)
    if failures:
        print(f"explain: {'; '.join(failures)}", file=sys.stderr)
        return 1
    return _explain(sanitizer)


def _explain(sanitizer) -> int:
    """Print each traced timeline's accounts."""
    from repro.bench.harness import format_table
    from repro.tempi.sanitizer import RESOURCES

    for index, audit in enumerate(sanitizer.audits.values(), 1):
        print(f"== timeline {index} of {len(sanitizer.audits)}: {audit.posts} posts, "
              f"{audit.stalls} stalled ({audit.fabric_stalls} by the fabric, "
              f"{audit.fabric_stalled_s:.6g} s); {audit.ingest_stalls} landings stalled")
        ranks = sorted(audit.rank_stall.items())
        print(format_table(["resource", "busy s", "stall s"], [
            [name, f"{audit.busy[name]:.6g}", f"{sum(stalls[name] for _, stalls in ranks):.6g}"]
            for name in RESOURCES
        ]))
        print(format_table(["rank stall s", *RESOURCES], [
            [rank, *(f"{stalls[name]:.6g}" for name in RESOURCES)]
            for rank, stalls in ranks
        ]))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.cli`` (returns a process exit code)."""
    args = _build_parser().parse_args(argv)
    return {
        "measure": _cmd_measure, "predict": _cmd_predict, "halo": _cmd_halo,
        "select-table": _cmd_select_table, "topo": _cmd_topo_show, "replay": _cmd_replay,
        "lint": _cmd_lint, "figures": _cmd_figures, "sanitize": _cmd_sanitize,
        "explain": _cmd_explain,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

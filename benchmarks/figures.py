"""The paper-vs-measured table: one row per figure claim, one runner for all.

Each :class:`Figure` row names one quantity of the paper's evaluation (or of
a beyond-paper extension) and carries three callables over the ``bench_*``
module that measures it, plus the claims its result must meet:

* ``run(model, sweep)`` measures at the ``"smoke"``, ``"default"`` or
  ``"full"`` grid the module declares;
* ``table(result)`` returns the ``(headers, rows)`` tables to print;
* ``measured(result)`` is the report's measured value;
* ``claims`` is a tuple of named :class:`Claim` s, each of one kind: a
  :class:`Band` on a quantity, an :class:`Order` over a sweep, a
  :class:`Crossover` (or none), or a :class:`Same` identity between two
  measured values (a twin and its ``World``, a rerun and its run).

A claim's ``of(result)`` picks the cases it covers, keyed by where in the
sweep each sits; :meth:`Figure.failures` is the one evaluator, and names the
row, the claim and the case for each that does not hold.  A row whose
measured value leaves the paper's band for a known cause says so in
``deviates``, which ``repro figures`` prints under the row.

``python -m repro.cli figures [--smoke | --full] [--only ID ...]`` runs the
rows; a default-grid run whose every claim held rewrites the records of the
rows it ran in :data:`REPORT` and keeps the others, so a row in that file
means its claims held.  The host-timed ``fig07`` row keeps its committed
record unless ``--only`` names it.  Tier-1 (``tests/bench/test_figures.py``)
evaluates every row's claims at the smoke grid except ``fig13`` and
``fig12-functional``, the two slowest, which CI's figure smoke step runs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

import bench_ablation_cache as cache
import bench_ablation_canonicalize as canon
import bench_allreduce as allreduce
import bench_fig07_commit as fig07
import bench_fig08_pack as fig08
import bench_fig09_transfers as fig09
import bench_fig10_pack_latency as fig10
import bench_fig11_send as fig11
import bench_fig12_halo as fig12
import bench_fig13_alltoallv as fig13
import bench_fig14_overlap as fig14
import bench_fig15_contention as fig15
import bench_fig9_selection as fig9
import bench_incast as incast
import bench_moe as moe
import bench_table1_related as table1
import bench_topology as topology

from repro.apps.exchange_model import model_fused_exchange, model_overlap_exchange
from repro.bench.harness import format_us
from repro.bench.workloads import (
    FIG10_BLOCK_SIZES,
    FIG10_OBJECT_SIZES,
    FIG11_OBJECT_SIZES,
    Fig11Config,
    fig8_configurations,
)
from repro.machine.network import DEFAULT_WIRE_OVERLAP

#: The committed paper-vs-measured report.
REPORT = Path(__file__).with_name("bench_report.json")

Table = tuple[Sequence[str], Sequence[Sequence[object]]]
#: A report string, fixed or computed from the row's result.
Text = Union[str, Callable[[Any], str]]

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Claim:
    """A named claim on a row's result.

    ``of(result)`` returns the cases the claim covers: a ``{where: case}``
    dict over a sweep, or one case.  :meth:`holds` judges one case.
    """

    name: str
    of: Callable[[Any], Any]

    def holds(self, case) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Band(Claim):
    """Each case is a number above ``gt`` (or at least ``ge``) and below ``lt``."""

    gt: Optional[float] = None
    ge: Optional[float] = None
    lt: Optional[float] = None

    def holds(self, value) -> bool:
        bounds = ((">", self.gt), (">=", self.ge), ("<", self.lt))
        return all(_OPS[op](value, bound) for op, bound in bounds if bound is not None)


@dataclass(frozen=True)
class Order(Claim):
    """Each case is a sequence whose neighbours stand in ``op``: one of
    ``<``, ``<=``, ``>``, ``>=``, or a tuple of them, one per step."""

    op: Union[str, tuple[str, ...]]

    def holds(self, values) -> bool:
        values = list(values)
        steps = list(zip(values, values[1:]))
        ops = (self.op,) * len(steps) if isinstance(self.op, str) else self.op
        return all(_OPS[op](a, b) for op, (a, b) in zip(ops, steps, strict=True))


@dataclass(frozen=True)
class Same(Claim):
    """Each case is a sequence of values equal to its first: exactly, or,
    given a tolerance, by ``pytest.approx``'s rule with the first value
    expected (``|value - first| <= max(rel_tol * |first|, abs_tol)``)."""

    rel_tol: float = 0.0
    abs_tol: float = 0.0

    def holds(self, values) -> bool:
        first, *rest = values
        if not (self.rel_tol or self.abs_tol):
            return all(value == first for value in rest)
        tolerance = max(self.rel_tol * abs(first), self.abs_tol)
        return all(value == first or abs(value - first) <= tolerance for value in rest)


@dataclass(frozen=True)
class Crossover(Claim):
    """Each case is where a crossover falls: a location or a list of them,
    ``None`` or ``[]`` where there is none.  ``present`` says which holds."""

    present: bool = True

    def holds(self, where) -> bool:
        found = bool(where) if isinstance(where, list) else where is not None
        return found == self.present


@dataclass(frozen=True)
class Figure:
    """One paper-vs-measured row: how to measure it and what must hold."""

    id: str
    experiment: str
    quantity: Text
    paper: str
    run: Callable[[Any, str], Any]
    table: Callable[[Any], list[Table]]
    measured: Callable[[Any], str]
    claims: tuple[Claim, ...]
    note: Text = ""
    #: Why the measured value leaves the paper's, where a known cause does.
    deviates: str = ""

    def record(self, result) -> dict[str, str]:
        """The row as written to :data:`REPORT`."""

        def text(value: Text) -> str:
            return value(result) if callable(value) else value

        return {
            "experiment": self.experiment,
            "quantity": text(self.quantity),
            "paper_value": self.paper,
            "measured_value": self.measured(result),
            "note": text(self.note),
        }

    def failures(self, result) -> list[str]:
        """One line per case of a claim that does not hold on ``result``."""
        lines = []
        for claim in self.claims:
            cases = claim.of(result)
            for where, case in cases.items() if isinstance(cases, dict) else [(None, cases)]:
                if not claim.holds(case):
                    at = "" if where is None else f" at {where}"
                    lines.append(f"{self.id}: claim {claim.name} ({type(claim).__name__}) "
                                 f"fails{at}: {case!r}")
        return lines


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:10.1f}"


def _counts(by_method: dict[str, int]) -> str:
    """Per-method message counts as ``method=n,...``."""
    return ",".join(f"{k}={v}" for k, v in sorted(by_method.items())) or "-"


def _ends(values) -> tuple:
    """A sweep's first and last values."""
    values = list(values)
    return values[0], values[-1]


# --------------------------------------------------------------- ablations
def _cache_run(model, sweep):
    (on, on_rate), (off, off_rate) = cache.iterated_send(model, True), cache.iterated_send(model, False)
    return dict(on=on, on_rate=on_rate, off=off, off_rate=off_rate)


def _canon_run(model, sweep):
    rows = canon.run_sweep()
    canonical, raw = canon.kernel_shapes(rows)
    # How much larger a block list is than the canonical metadata, at worst.
    ratio = max(row["blocklist_bytes"] / row["canonical_block"].footprint() for row in rows)
    return dict(rows=rows, canonical=canonical, raw=raw, ratio=ratio)


def _canon_table(result) -> list[Table]:
    return [(
        ["construction", "raw depth", "canonical depth",
         "canonical metadata (B)", "block-list metadata (B)"],
        [
            [row["config"].label, row["raw_depth"], row["canonical_depth"],
             row["canonical_block"].footprint(), f"{row['blocklist_bytes']:,}"]
            for row in result["rows"]
        ],
    )]


# --------------------------------------------------------------- Figs. 7-8
def _fig07_table(rows) -> list[Table]:
    return [(
        ["cfg", "construction", "create us", "commit us", "commit (TEMPI) us", "slowdown"],
        [
            [config.index, config.family, f"{create * 1e6:8.2f}", f"{base * 1e6:8.2f}",
             f"{tempi * 1e6:8.2f}", f"{tempi / base:6.1f}x"]
            for config, create, base, tempi in rows
        ],
    )]


def _fig08_run(model, sweep):
    rows = fig08.run_sweep(model)
    return dict(rows=rows, speedups={config.label: baseline / tempi for config, baseline, tempi in rows})


def _fig08_construction(model, sweep):
    """The 'vec 1KiB 1/8' and 'sub 1KiB 1/8' bars: same object, two descriptions."""
    configs = {config.label: config for config in fig8_configurations()}
    return tuple(
        fig08.pack_latency(configs[label], model, use_tempi=True)
        for label in ("vec 1KiB 1/8", "sub 1KiB 1/8")
    )


# --------------------------------------------------------------- Fig. 9
def _fig9_run(model, sweep):
    grid = fig9.SWEEPS[sweep]
    cells = fig9.run_grid(model, grid["sizes"], grid["blocks"], fig9.LOAD_SWEEP)
    bursts = fig9.run_bursts(grid["plans"], model)
    return dict(
        grid=cells, bursts=bursts, flips=fig9.flipped_cells(cells, fig9.LOAD_SWEEP),
        idle=fig9.idle_selections(cells, model),
    )


def _fig9_table(result) -> list[Table]:
    loads = fig9.LOAD_SWEEP
    return [
        (
            ["bytes", "block"] + [f"k={plans}" for plans in loads] + [""],
            [
                [size, block] + [cell[plans] for plans in loads]
                + ["<-- flip" if len(set(cell.values())) > 1 else ""]
                for (size, block), cell in sorted(result["grid"].items(), key=lambda kv: kv[0][::-1])
            ],
        ),
        (
            ["bg plans", "model probe", "contended probe", "model us", "contended us", ""],
            [
                [background, _counts(row["model_probe"]), _counts(row["contended_probe"]),
                 _us(row["model_time"]), _us(row["contended_time"]),
                 "shifted" if row["contended_probe"] != row["model_probe"] else "same"]
                for background, row in sorted(result["bursts"].items())
            ],
        ),
    ]


# --------------------------------------------------------------- Fig. 10
def _fig10_panels(target: str) -> Callable[[Any, str], Any]:
    kernel_target = "host" if target == "oneshot" else "device"
    return lambda model, sweep: (
        fig10.panel(kernel_target, unpack=False),
        fig10.panel(kernel_target, unpack=True),
    )


def _fig10_table(panels) -> list[Table]:
    return [
        (
            [f"{side} \\ block"] + [f"{block} B" for block in FIG10_BLOCK_SIZES],
            [
                [f"{size:,} B"] + [f"{grid[(size, block)] * 1e6:9.1f}" for block in FIG10_BLOCK_SIZES]
                for size in FIG10_OBJECT_SIZES
            ],
        )
        for side, grid in zip(("pack", "unpack"), panels)
    ]


#: Both Fig. 10 panels' claims, on ``(pack, unpack)`` latency grids.
_FIG10_CLAIMS = (
    Order("larger-blocks-never-slower", lambda panels: [
        panels[0][(FIG10_OBJECT_SIZES[-1], block)] for block in FIG10_BLOCK_SIZES
    ], ">="),
    Order("unpack-at-least-pack", lambda panels: {
        key: (panels[1][key], pack) for key, pack in panels[0].items()
    }, ">="),
    Order("per-byte-latency-drops-with-size", lambda panels: (
        panels[0][(FIG10_OBJECT_SIZES[-1], 8)] / FIG10_OBJECT_SIZES[-1],
        panels[0][(64 * 1024, 8)] / (64 * 1024),
    ), "<"),
)


def _fig10_saturation(model, sweep):
    oneshot, device = fig10.saturation()
    # Going from 32 B to 128 B blocks: (one-shot gain, device gain).
    return dict(latency=(oneshot, device), gains=(oneshot[32] / oneshot[128], device[32] / device[128]))


# --------------------------------------------------------------- Fig. 11
def _fig11a_table(results) -> list[Table]:
    return [(
        ["object/block", "baseline", "one-shot", "device", "auto", "speedup"],
        [
            [config.label, format_us(modes["baseline"]), format_us(modes["oneshot"]),
             format_us(modes["device"]), format_us(modes["auto"]),
             f"{modes['baseline'] / modes['auto']:,.0f}x"]
            for config, modes in results.items()
        ],
    )]


def _fig11b_run(model, sweep):
    """The sweep, its mis-selections, and auto's overhead over the faster forced method."""
    results = fig11.run_sweep(model, sweep)
    misses, overheads = 0, []
    for modes in results.values():
        best = min(modes["oneshot"], modes["device"])
        worst = max(modes["oneshot"], modes["device"])
        overheads.append(modes["auto"] / best - 1.0)
        if modes["auto"] > best * 1.25 and modes["auto"] > worst * 0.95:
            misses += 1
    return dict(modes=results, misses=misses, overheads=overheads)


def _fig11b_table(result) -> list[Table]:
    rows = []
    for config, modes in result["modes"].items():
        worst = max(modes["oneshot"], modes["device"])
        rows.append([
            config.label, f"{modes['oneshot'] / worst:6.3f}", f"{modes['device'] / worst:6.3f}",
            f"{modes['auto'] / worst:6.3f}",
            "oneshot" if modes["oneshot"] <= modes["device"] else "device",
        ])
    return [(["object/block", "one-shot", "device", "auto", "faster method"], rows)]


#: Sec. 6.3's floor: the smallest Fig. 11 object in 256 B runs.
_FLOOR_CONFIG = Fig11Config(object_bytes=FIG11_OBJECT_SIZES[0], block_bytes=256)


# --------------------------------------------------------------- Fig. 12
def _fig12_functional_table(result) -> list[Table]:
    baseline, tempi = result
    return [(
        ["phase", "baseline us", "TEMPI us", "speedup"],
        [
            [name, _us(getattr(baseline, phase)), _us(getattr(tempi, phase)),
             f"{getattr(baseline, phase) / max(getattr(tempi, phase), 1e-12):6.1f}x"]
            for name, phase in (("MPI_Pack", "pack_s"), ("Alltoallv", "comm_s"),
                                ("MPI_Unpack", "unpack_s"))
        ],
    )]


def _fig12b_note(speedups) -> str:
    at_192, at_3072 = round(speedups[(32, 6)]), round(speedups[(512, 6)])
    trend = "flat" if at_192 == at_3072 else "declining"
    return (
        f"{trend}: {at_192}x at 192 ranks and {at_3072}x at 3072, against the paper's "
        "~1050x -> ~917x decline; each rank's wire books on its own NIC port, and the "
        "flat model has no shared fabric to contend for"
    )


# --------------------------------------------------------------- Figs. 13-15
def _fig13_measured(results) -> str:
    baseline, tempi = results[(4, min(block for _, block in results))]
    return f"{baseline / tempi:.0f}x"


def _fig15_table(results) -> list[Table]:
    return [(
        ["plans", "serial us", "duplex arr", "inject arr", "per-plan arr", "speedup",
         "claimed", "efficiency"],
        [
            [plans, _us(row["serial"]), _us(row["shared_arrival"]), _us(row["inject_arrival"]),
             _us(row["per_plan_arrival"]), f"{row['serial'] / row['shared_total']:7.2f}x",
             f"{row['serial'] / row['per_plan_total']:7.2f}x", f"{row['efficiency']:10.4f}"]
            for plans, row in sorted(results.items())
        ],
    )]


# --------------------------------------------------------------- extensions
def _allreduce_table(results) -> list[Table]:
    return [(
        ["nodes", "ring us", "tree us", "hier us", "sim speedup", "analytic"],
        [
            [nodes, _us(row["ring"]["completion"]), _us(row["tree"]["completion"]),
             _us(row["hierarchical"]["completion"]),
             f"{row['ring']['completion'] / row['hierarchical']['completion']:.2f}x",
             f"{row['analytic_speedup']:.2f}x"]
            for nodes, row in sorted(results.items())
        ],
    )]


def _allreduce_measured(results) -> str:
    largest = max(results)
    row = results[largest]
    return f"{row['ring']['completion'] / row['hierarchical']['completion']:.2f}x at {largest} nodes"


def _incast_run(model, sweep):
    grid = incast.SWEEPS[sweep]
    incasts = incast.run_incasts(grid["senders"], model)
    probes = incast.run_probes(grid["backgrounds"], model)
    return dict(incasts=incasts, probes=probes, flips=incast.probe_flips(probes))


def _incast_table(result) -> list[Table]:
    return [
        (
            ["senders", "inject us", "duplex us", "analytic us", "stalls", "efficiency"],
            [
                [senders, _us(row["inject"]), _us(row["duplex"]), _us(row["analytic"].completion_s),
                 row["duplex_stalls"], f"{row['efficiency']:.3f}"]
                for senders, row in sorted(result["incasts"].items())
            ],
        ),
        (
            ["bg senders", "probe", "idle", "duplex", "inject_only", ""],
            [
                [background, f"{cell['probe']['nblocks']}x{cell['probe']['block']}B",
                 _counts(cell["idle"]), _counts(cell["duplex"]), _counts(cell["inject"]),
                 "flip" if cell["duplex"] != cell["idle"] else "same"]
                for background, row in sorted(result["probes"].items())
                for cell in row
            ],
        ),
    ]


def _incast_measured(result) -> str:
    incasts = result["incasts"]
    return (
        f"{len(result['flips'])} probe flips; efficiency "
        f"{min(row['efficiency'] for row in incasts.values()):.2f} at {max(incasts)} senders"
    )


def _moe_table(results) -> list[Table]:
    return [(
        ["skew", "hot tok", "sim ms", "stalls", "hot excess", "twin hot us", "twin cold us"],
        [
            [f"{skew:.0f}x", int(row["twin"].hot_tokens), f"{row['result'].completion_s * 1e3:8.3f}",
             row["result"].ingest_stalls, f"{row['excess']:6.2f}",
             f"{row['twin'].hot_ingest_stalled_s * 1e6:8.1f}",
             f"{row['twin'].cold_ingest_stalled_s * 1e6:8.1f}"]
            for skew, row in sorted(results.items())
        ],
    )]


def _moe_measured(results) -> str:
    hottest = max(results)
    return (
        f"excess {results[1.0]['excess']:.2f} at 1x, "
        f"{results[hottest]['excess']:.2f} at {hottest:.0f}x"
    )


def _table1_table(result) -> list[Table]:
    packs, pingpongs = result

    def at(latencies, scale):
        return ", ".join(f"{v * scale:,.0f} us @ {k >> 10} KiB" for k, v in latencies.items()) or "-"

    rows = [[work, platform, at(pack, 1), at(ping, 1)]
            for work, platform, pack, ping in table1.RELATED_WORK]
    rows.append(["This reproduction", "simulated Summit node", at(packs, 1e6), at(pingpongs, 1e6)])
    return [(["work", "platform", "pack", "ping-pong"], rows)]


def _topology_run(model, sweep):
    grid = topology.SWEEPS[sweep]
    crossovers = topology.run_crossovers(model, grid["sizes"], grid["blocks"])
    fabric = topology.run_fabric(grid["flows"], grid["oversubs"], model)
    oversubs = sorted({oversub for oversub, _ in fabric})
    most = max(flows for _, flows in fabric)
    return dict(
        model=model, sizes=grid["sizes"], grid=crossovers, fabric=fabric,
        blocks=sorted({block for block, _ in crossovers}),
        crossover={key: topology.crossover_size(row) for key, row in crossovers.items()},
        diverging=topology.diverging_blocks(crossovers),
        # The burst at the most flows, (heaviest, lightest) oversubscription.
        extremes=[((oversubs[-1], most), (oversubs[0], most))] if len(oversubs) > 1 and most > 1 else [],
    )


def _topology_table(result) -> list[Table]:
    sizes, grid, fabric = result["sizes"], result["grid"], result["fabric"]
    rows = []
    for block in result["blocks"]:
        for kind in ("island", "node", "leaf", "spine", "flat"):
            if (block, kind) in grid:
                cross = result["crossover"][(block, kind)]
                cells = "".join("d" if grid[(block, kind)][size] == "device" else "o" for size in sizes)
                rows.append([block, kind, cells, "-" if cross is None else cross])
    return [
        (["block", "path", "o=oneshot d=device (sizes ascending)", "crossover B"], rows),
        (
            ["oversub", "flows", "completion us", "analytic us", "stalls", "stalled us", "efficiency"],
            [
                [f"{oversub:g}", flows, _us(row["completion"]), _us(row["analytic"].completion_s),
                 row["stalls"], f"{row['stalled_s'] * 1e6:9.1f}", f"{row['efficiency']:.3f}"]
                for (oversub, flows), row in sorted(fabric.items())
            ],
        ),
    ]


def _topology_measured(result) -> str:
    fabric = result["fabric"]
    return (
        f"{len(result['diverging'])} diverging blocks; efficiency "
        f"{min(row['efficiency'] for row in fabric.values()):.2f} at "
        f"oversub {max(oversub for oversub, _ in fabric):g}"
    )


#: Every row, in report order.
FIGURES: tuple[Figure, ...] = (
    Figure(
        "ablation-cache", "Ablation (resource cache)",
        "steady-state interposed send latency, cache on vs off",
        "amortised to ~ns lookups (Sec. 5)",
        run=_cache_run,
        table=lambda result: [(
            ["iteration", "cache on", "cache off", "penalty"],
            [[index, format_us(on), format_us(off), f"{off / on:6.1f}x"]
             for index, (on, off) in enumerate(zip(result["on"], result["off"]))],
        )],
        measured=lambda result: (
            f"{format_us(min(result['on'][1:]))} us vs {format_us(min(result['off'][1:]))} us"
        ),
        # The first iteration is cold either way; with the cache, steady state sheds that cost.
        claims=(
            Order("first-iteration-cold", lambda r: (r["on"][0], min(r["on"][1:])), ">"),
            Order("cache-off-over-twice-on", lambda r: (min(r["off"][1:]), min(r["on"][1:]) * 2), ">"),
            Band("cache-on-hit-rate", lambda r: r["on_rate"], gt=0.5),
            Same("cache-off-hit-rate", lambda r: (0.0, r["off_rate"])),
        ),
        note=lambda result: f"cache hit rate {result['on_rate']:.0%} after warm-up",
    ),
    Figure(
        "ablation-canonicalize", "Ablation (canonicalisation)",
        "distinct kernel shapes per object with/without the passes",
        "1 with (implied by Sec. 3); many without",
        run=_canon_run,
        table=_canon_table,
        measured=lambda result: (
            f"1 with; {max(len(s) for s in result['raw'].values())} without (worst geometry)"
        ),
        # With the passes each geometry needs one kernel configuration; without
        # them every geometry fragments (the explosion the paper avoids).
        claims=(
            Same("one-shape-with-passes", lambda r: {g: (1, len(shapes)) for g, shapes in r["canonical"].items()}),
            Band("many-shapes-without", lambda r: {g: len(shapes) for g, shapes in r["raw"].items()}, gt=1),
            Band("block-list-over-canonical", lambda r: r["ratio"], gt=10),
        ),
        note=lambda result: (
            f"canonical metadata is up to {result['ratio']:,.0f}x smaller than a block list"
        ),
    ),
    Figure(
        "allreduce", "Allreduce schedules (beyond paper)",
        "ring vs tree vs hierarchical gradient allreduce on the oversubscribed fat-tree",
        "hierarchical < ring at every node count; auto picks it (no paper value)",
        run=lambda model, sweep: allreduce.run_allreduces(allreduce.NODE_SWEEPS[sweep], model),
        table=_allreduce_table,
        measured=_allreduce_measured,
        claims=(
            Same("schedules-reduce-alike", lambda res: {
                n: [row[name]["digest"] for name in allreduce.ALGORITHMS] for n, row in res.items()}),
            Order("hierarchical-beats-ring", lambda res: {
                n: (row["hierarchical"]["completion"], row["ring"]["completion"]) for n, row in res.items()}, "<"),
            Same("auto-is-hierarchical", lambda res: {
                n: (row["hierarchical"]["clocks"], row["auto"]["clocks"]) for n, row in res.items()}),
            Band("analytic-twin-agrees", lambda res: {n: row["analytic_speedup"] for n, row in res.items()}, gt=1.0),
        ),
        note="reductions byte-identical across schedules (Hypothesis-pinned vs naive)",
    ),
    Figure(
        "fig07", "Fig. 7", "commit slowdown (TEMPI vs system MPI)", "3.8x - 8.3x",
        run=lambda model, sweep: fig07.run_sweep(model),
        table=_fig07_table,
        measured=lambda rows: (
            f"{min(t / b for _, _, b, t in rows):.1f}x - {max(t / b for _, _, b, t in rows):.1f}x"
        ),
        # TEMPI always slows commit, and the absolute (one-time) cost stays tiny.
        claims=(
            Order("tempi-commit-at-least-system", lambda rows: {
                config.index: (tempi, base) for config, _, base, tempi in rows}, ">="),
            Band("largest-tempi-commit", lambda rows: max(tempi for *_, tempi in rows), lt=0.05),
        ),
        note="wall-clock trimean; absolute commit cost stays microseconds-scale",
        deviates=(
            "far above the paper's band: the system Commit() only sets a flag, so each "
            "ratio divides by timer noise"
        ),
    ),
    Figure(
        "fig08-range", "Fig. 8", "MPI_Pack speedup range", "5.7x - 242,000x",
        run=_fig08_run,
        table=lambda result: [(
            ["configuration", "blocks", "baseline", "TEMPI", "speedup"],
            [[config.label, f"{config.nblocks * config.count:,}", format_us(baseline),
              format_us(tempi), f"{baseline / tempi:,.0f}x"] for config, baseline, tempi in result["rows"]],
        )],
        measured=lambda result: (
            f"{min(result['speedups'].values()):,.0f}x - {max(result['speedups'].values()):,.0f}x"
        ),
        # TEMPI always wins, more with more blocks, by tens of thousands at most.
        claims=(
            Band("tempi-always-wins", lambda r: r["speedups"], gt=1),
            Order("win-grows-with-blocks", lambda r: _ends(r["speedups"][config.label] for config, _, _ in sorted(
                r["rows"], key=lambda row: row[0].nblocks * row[0].count)), "<"),
            Band("largest-speedup", lambda r: max(r["speedups"].values()), gt=10_000),
        ),
        note="largest speedup on the 4 MiB / 1 B-block object, as in the paper",
    ),
    Figure(
        "fig08-construction", "Fig. 8", "TEMPI latency independent of datatype construction",
        "vector and subarray bars equal",
        run=_fig08_construction,
        table=lambda result: [(["description", "TEMPI us"],
                               [["vector", format_us(result[0])], ["subarray", format_us(result[1])]])],
        measured=lambda result: f"{format_us(result[0])} us vs {format_us(result[1])} us",
        claims=(Same("vector-is-subarray", lambda r: (r[1], r[0]), rel_tol=0.05),),
    ),
    Figure(
        "fig09a", "Fig. 9a", "small-message latency floors (CPU vs CUDA-aware path)",
        "~1.3 us vs ~6 us",
        run=lambda model, sweep: fig09.transfer_curves(),
        table=lambda m: [(
            ["size (B)", "T_d2h", "T_h2d", "T_cpu-cpu", "T_gpu-gpu"],
            [[f"{size:,}", format_us(m.t_d2h[i]), format_us(m.t_h2d[i]),
              format_us(m.t_cpu_cpu[i]), format_us(m.t_gpu_gpu[i])]
             for i, size in enumerate(m.sizes)],
        )],
        measured=lambda m: f"{m.t_cpu_cpu[0] * 1e6:.1f} us vs {m.t_gpu_gpu[0] * 1e6:.1f} us",
        claims=(
            Order("cpu-floor-below-gpu", lambda m: (m.t_cpu_cpu[0], m.t_gpu_gpu[0]), "<"),
            Order("curves-rise-with-size", lambda m: {
                "cpu-cpu": m.t_cpu_cpu, "gpu-gpu": m.t_gpu_gpu, "d2h": m.t_d2h, "h2d": m.t_h2d}, "<="),
        ),
    ),
    Figure(
        "fig09b", "Fig. 9b", "staged method never preferable to device", "no crossover",
        run=lambda model, sweep: fig09.partial_models(model),
        table=lambda rows: [(
            ["size (B)", "T_device", "T_oneshot", "T_staged"],
            [[f"{size:,}", format_us(device), format_us(oneshot), format_us(staged)]
             for size, device, oneshot, staged in rows],
        )],
        measured=lambda rows: (
            "no crossover" if all(s >= d for _, d, _, s in rows) else "staged below device"
        ),
        # Staged adds two copies to the device wire time; one-shot is cheapest.
        claims=(
            Crossover("staged-never-below-device", lambda rows: [
                size for size, device, _, staged in rows if not staged >= device], present=False),
            Order("oneshot-cheapest", lambda rows: {
                size: (oneshot, device) for size, device, oneshot, _ in rows}, "<="),
        ),
        note="one-shot partial model cheapest at every size, as in the paper",
    ),
    *(
        Figure(
            f"fig10-{target}", "Fig. 10",
            f"{target} pack latency trends (block length, object size, unpack penalty)",
            "faster with larger blocks and larger objects; unpack slower than pack",
            run=_fig10_panels(target),
            table=_fig10_table,
            measured=lambda panels: "same ordering at every grid point",
            claims=_FIG10_CLAIMS,
        )
        for target in ("oneshot", "device")
    ),
    Figure(
        "fig10-saturation", "Fig. 10", "coalescing saturation block length (one-shot vs device)",
        "32 B vs 128 B",
        run=_fig10_saturation,
        table=lambda result: [(
            ["method", "32 B us", "128 B us", "gain"],
            [[method, _us(latency[32]), _us(latency[128]), f"{latency[32] / latency[128]:.2f}x"]
             for method, latency in zip(("one-shot", "device"), result["latency"])],
        )],
        measured=lambda result: (
            "one-shot flat beyond 32 B (gain {:.2f}x), device still gains {:.2f}x".format(
                *result["gains"]
            )
        ),
        # One-shot saturates at shorter blocks than device.
        claims=(Order("device-gains-more", lambda r: r["gains"], "<"),),
    ),
    Figure(
        "fig11a", "Fig. 11a", "MPI_Send speedup (auto vs baseline), best case", "up to 59,000x",
        run=fig11.run_sweep,
        table=_fig11a_table,
        measured=lambda results: (
            f"up to {max(m['baseline'] / m['auto'] for m in results.values()):,.0f}x"
        ),
        claims=(
            Order("a-tempi-mode-beats-baseline", lambda res: {
                config.label: (min(m["oneshot"], m["device"]), m["baseline"]) for config, m in res.items()}, "<"),
            Band("best-speedup", lambda res: max(m["baseline"] / m["auto"] for m in res.values()), gt=1_000),
        ),
        note="largest for big objects with small contiguous blocks, as in the paper",
    ),
    Figure(
        "fig11b", "Fig. 11b", "automatic method selection picks the faster method",
        "reliable, with ~277 ns query overhead",
        run=_fig11b_run,
        table=_fig11b_table,
        measured=lambda result: (
            "{} mis-selections over {} configurations; max overhead {:.1f}% of the send".format(
                result["misses"], len(result["modes"]), max(result["overheads"]) * 100,
            )
        ),
        claims=(
            Same("no-mis-selection", lambda r: (0, r["misses"])),
            Band("selection-overhead", lambda r: max(r["overheads"]), lt=0.25),
        ),
    ),
    Figure(
        "fig11-floor", "Sec. 6.3", "TEMPI send latency floor", "~30 us",
        run=lambda model, sweep: fig11.send_latency(_FLOOR_CONFIG, "auto", model),
        table=lambda floor: [(["object/block", "auto us"], [[_FLOOR_CONFIG.label, format_us(floor)]])],
        measured=lambda floor: f"{floor * 1e6:.1f} us",
        claims=(Band("floor", lambda floor: floor, gt=5e-6, lt=200e-6),),
        note="dominated by pack/unpack kernel launches on both sides",
    ),
    Figure(
        "fig12-functional", "Fig. 12 (functional)",
        "halo-exchange phases with real byte movement and ghost verification",
        "pack/unpack dominate the baseline; TEMPI removes that cost",
        run=lambda model, sweep: (
            fig12.functional_exchange(model, use_tempi=False),
            fig12.functional_exchange(model, use_tempi=True),
        ),
        table=_fig12_functional_table,
        measured=lambda result: (
            f"pack speedup {result[0].pack_s / result[1].pack_s:.0f}x, "
            f"comm unchanged ({result[1].comm_s * 1e6:.1f} us)"
        ),
        claims=(
            Band("pack-speedup", lambda r: r[0].pack_s / r[1].pack_s, gt=2),
            Order("tempi-total-below-baseline", lambda r: (r[1].total_s, r[0].total_s), "<"),
        ),
    ),
    Figure(
        "fig12a", "Fig. 12a", "phase behaviour across the node sweep",
        "pack/unpack constant; alltoallv grows with ranks",
        run=lambda model, sweep: fig12.phases_at_scale(),
        table=lambda results: [(
            ["nodes/rpn", "ranks", "pack ms", "alltoallv ms", "unpack ms", "total ms"],
            [[f"{nodes}/{rpn}", b.nranks, f"{b.pack_s * 1e3:8.2f}", f"{b.comm_s * 1e3:8.2f}",
              f"{b.unpack_s * 1e3:8.2f}", f"{b.total_s * 1e3:8.2f}"]
             for (nodes, rpn), b in results.items()],
        )],
        measured=lambda results: "pack/unpack constant; alltoallv grows then saturates",
        # Pack/unpack constant across the sweep; alltoallv grows with ranks per
        # node and with nodes (until the neighbour set saturates).
        claims=(
            Band("pack-constant", lambda res: (
                max(b.pack_s for b in res.values()) / min(b.pack_s for b in res.values())), lt=1.01),
            Order("alltoallv-grows-with-nodes", lambda res: (res[(512, 6)].comm_s, res[(1, 6)].comm_s), ">="),
            Order("alltoallv-grows-with-ranks-per-node", lambda res: (
                res[(8, 6)].comm_s, res[(8, 1)].comm_s * 0.5), ">="),
        ),
        note="saturation is earlier than on Summit because the model has no network contention term",
    ),
    Figure(
        "fig12b", "Fig. 12b", "halo-exchange speedup at 3072 ranks / 192 ranks", "~917x / ~1050x",
        run=lambda model, sweep: fig12.speedups_at_scale(),
        table=lambda speedups: [(
            ["nodes/rpn", "ranks", "speedup"],
            [[f"{nodes}/{rpn}", nodes * rpn, f"{speedup:10.0f}x"]
             for (nodes, rpn), speedup in speedups.items()],
        )],
        measured=lambda speedups: f"{speedups[(512, 6)]:.0f}x / {speedups[(32, 6)]:.0f}x",
        # Largest at small scale, still in the hundreds at 3072 ranks (paper: 917x).
        claims=(
            Order("speedup-falls-with-scale", lambda s: (s[(1, 1)], s[(32, 6)], s[(512, 6)]), (">", ">=")),
            Band("speedup-at-3072-ranks", lambda s: s[(512, 6)], gt=100),
        ),
        note=_fig12b_note,
    ),
    Figure(
        "fig13", "Fig. 13 (beyond paper)", "typed alltoallv speedup, 4 ranks, smallest blocks",
        "TEMPI beats per-block baseline (no paper value)",
        run=lambda model, sweep: fig13.run_sweep(fig13.BLOCK_SWEEPS[sweep], model),
        table=lambda results: [(
            ["ranks", "block B", "baseline us", "TEMPI us", "speedup"],
            [[nranks, block, _us(base), _us(tempi), f"{base / tempi:8.1f}x"]
             for (nranks, block), (base, tempi) in results.items()],
        )],
        measured=_fig13_measured,
        # TEMPI wins at every point, more as blocks shrink (more per-block copies saved).
        claims=(
            Order("tempi-beats-baseline", lambda res: {key: (tempi, base) for key, (base, tempi) in res.items()}, "<"),
            Order("speedup-grows-as-blocks-shrink", lambda res: {
                n: _ends(base / tempi for (m, _), (base, tempi) in sorted(res.items()) if m == n)
                for n in fig13.RANK_SWEEP}, ">"),
        ),
        note="collective analogue of Fig. 11: per-block copies replaced by one kernel per peer",
    ),
    Figure(
        "fig14", "Fig. 14 (beyond paper)", "halo exchange, 8 ranks: overlapped vs serial engine",
        "pack kernels hidden behind wire time (no paper value)",
        run=lambda model, sweep: fig14.run_sweep(fig14.RANK_SWEEPS[sweep], model),
        table=lambda results: [(
            ["ranks", "serial coll", "overlap coll", "pack+a2av", "isend/irecv", "speedup"],
            [[nranks, _us(row["serial"]), _us(row["overlapped"]), _us(row["packed"]),
              _us(row["nonblocking"]), f"{row['serial'] / row['overlapped']:8.2f}x"]
             for nranks, row in results.items()],
        )],
        measured=lambda results: f"{results[8]['serial'] / results[8]['overlapped']:.2f}x",
        # The Isend/Irecv pipeline pays one message per *direction*, so its honest
        # baseline is what it replaces in halo codes: pack all, exchange, unpack.
        claims=(
            Order("overlapped-beats-serial", lambda res: {
                n: (row["overlapped"], row["serial"]) for n, row in res.items()}, "<"),
            Order("isend-irecv-beats-packed", lambda res: {
                n: (row["nonblocking"], row["packed"]) for n, row in res.items()}, "<"),
            Order("analytic-twin-agrees", lambda res: (
                model_overlap_exchange(2, 4, spec=fig14.SPEC).total_s,
                model_fused_exchange(2, 4, spec=fig14.SPEC).total_s), "<"),
        ),
        note="plan executor posts each peer at pack completion; PR-1 packed all peers then posted",
    ),
    Figure(
        "fig15", "Fig. 15 (beyond paper)",
        lambda results: (
            f"{max(results)} concurrent Ialltoallv plans: overlap efficiency under shared NIC"
        ),
        "per-plan overlap win degrades as the injection port saturates (no paper value)",
        run=lambda model, sweep: fig15.run_sweep(fig15.PLAN_SWEEPS[sweep], model),
        table=_fig15_table,
        measured=lambda results: f"{results[max(results)]['efficiency']:.2f}",
        # One plan has nothing to contend with; honest accounting only delays
        # arrivals, and the overlap win degrades as the port saturates.
        claims=(
            Band("one-plan-does-not-contend", lambda res: {
                k: abs(row["efficiency"] - 1.0) for k, row in res.items() if k == 1}, lt=1e-9),
            Band("one-plan-inject-is-per-plan", lambda res: {
                k: abs(row["inject_total"] - row["per_plan_total"]) for k, row in res.items() if k == 1}, lt=1e-12),
            Order("one-plan-duplex-at-least-inject", lambda res: {
                k: (row["shared_total"], row["inject_total"] - 1e-12) for k, row in res.items() if k == 1}, ">="),
            Order("duplex-arrival-at-least-inject", lambda res: {
                k: (row["shared_arrival"], row["inject_arrival"] - 1e-12) for k, row in res.items()}, ">="),
            Order("inject-arrival-at-least-per-plan", lambda res: {
                k: (row["inject_arrival"], row["per_plan_arrival"] - 1e-12) for k, row in res.items()}, ">="),
            Order("efficiency-never-rises", lambda res: {
                k: (res[k]["efficiency"], res[j]["efficiency"] + 1e-9) for j, k in zip(sorted(res), sorted(res)[1:])},
                "<="),
            Order("shared-speedup-below-per-plan", lambda res: {
                k: (row["serial"] / row["shared_total"], row["serial"] / row["per_plan_total"])
                for k, row in res.items() if k > 1}, "<"),
        ),
        note="progress=per_plan ablation reproduces PR-2 pricing at every plan count",
    ),
    Figure(
        "fig9", "Fig. 9 (extended)", "one-shot/device crossover under NIC contention",
        "crossover shifts under load; idle selection reproduces Fig. 9b (no paper value)",
        run=_fig9_run,
        table=_fig9_table,
        measured=lambda result: f"{len(result['flips'])} flipped cells",
        # Zero load and selection="model" select as the idle model does; an idle
        # port makes contended selection contention-free.
        claims=(
            Same("load-0-is-choose_method", lambda r: {
                cell: (r["idle"][cell][0], methods[0]) for cell, methods in r["grid"].items()}),
            Same("idle-contended-is-choose_method", lambda r: r["idle"]),
            Crossover("a-cell-flips-at-4-plans", lambda r: [flip for flip in r["flips"] if flip[2] >= 4]),
            Same("model-counts-are-default", lambda r: {
                k: (row["default_counts"], row["model_counts"]) for k, row in r["bursts"].items()}),
            Same("model-makespan-is-default", lambda r: {
                k: (row["default_time"], row["model_time"]) for k, row in r["bursts"].items()}),
            Same("unloaded-probe-is-contention-free", lambda r: {
                k: (row["model_probe"], row["contended_probe"]) for k, row in r["bursts"].items() if k == 0}),
            Crossover("contended-shifts-the-probe-at-4-plans", lambda r: [
                k for k, row in r["bursts"].items() if k >= 4 and row["contended_probe"] != row["model_probe"]]),
        ),
        note="selection='model' bit-identical to the default (PR-3) configuration",
    ),
    Figure(
        "incast", "Incast (beyond paper)",
        "N senders -> 1 receiver: ingestion-port serialisation and selection shift",
        "duplex prices the hot receiver above inject_only; selection flips (no paper value)",
        run=_incast_run,
        table=_incast_table,
        measured=_incast_measured,
        # The ablation never touches ingestion state.  Duplex landings serialise,
        # adding ~overlap*wire per extra sender less what the unpacks hide
        # (hence 0.25).  The ablation's probe sees only its own idle port.
        claims=(
            Same("inject-only-counts-no-ingest-stall", lambda r: {
                n: (0, row["inject_stalls"]) for n, row in r["incasts"].items()}),
            Same("inject-only-leaves-the-ingest-ledger", lambda r: {
                n: (0, row["inject_world_stalls"]) for n, row in r["incasts"].items()}),
            Same("analytic-inject-only-never-queues", lambda r: {
                n: (0.0, row["analytic_inject"].ingest_stalled_s) for n, row in r["incasts"].items()}),
            Same("one-sender-duplex-is-inject-only", lambda r: {
                n: (row["inject"], row["duplex"]) for n, row in r["incasts"].items() if n == 1}),
            Same("one-sender-efficiency", lambda r: {
                n: (1.0, row["efficiency"]) for n, row in r["incasts"].items() if n == 1}, rel_tol=1e-6, abs_tol=1e-12),
            Order("duplex-above-inject-only-by-the-floor", lambda r: {
                n: (row["duplex"] - row["inject"], 0.25 * (n - 1) * DEFAULT_WIRE_OVERLAP * wire)
                for wire in [incast.incast_wire_s()] for n, row in r["incasts"].items() if n != 1}, ">="),
            Same("one-ingest-stall-per-extra-sender", lambda r: {
                n: (n - 1, row["duplex_stalls"]) for n, row in r["incasts"].items() if n != 1}),
            Order("efficiency-falls-with-senders", lambda r: [1.0 + 1e-12] + [
                row["efficiency"] for n, row in sorted(r["incasts"].items()) if n != 1], ">"),
            Same("inject-only-probe-stays-idle", lambda r: {
                (k, i): (cell["idle"], cell["inject"])
                for k, row in r["probes"].items() for i, cell in enumerate(row)}),
            Same("unloaded-duplex-probe-stays-idle", lambda r: {
                (k, i): (cell["idle"], cell["duplex"]) for k, row in r["probes"].items() if k == 0
                for i, cell in enumerate(row)}),
            Crossover("a-probe-flips-behind-4-senders", lambda r: [flip for flip in r["flips"] if flip[0] >= 4]),
        ),
        note="nic='inject_only' bit-identical to the PR-4 books (property-pinned)",
    ),
    Figure(
        "moe", "MoE hot-expert incast (beyond paper)",
        "skewed expert-parallel Alltoallv through the interposer and NIC ledgers",
        "hot-port excess stalls < 2 at skew 1, >= 2 at skew >= 4 (no paper value)",
        run=lambda model, sweep: moe.run_moes(moe.SKEW_SWEEPS[sweep], model),
        table=_moe_table,
        measured=_moe_measured,
        # At skew 1 the hot expert sits at the all-to-all background; from skew 4
        # its port queues beyond it, and the twin's hot port out-stalls the cold.
        claims=(
            Same("typed-exchange-never-falls-back", lambda res: {
                k: (0, row["result"].collective_fallbacks) for k, row in res.items()}),
            Band("uniform-excess-below-onset", lambda res: {
                k: row["excess"] for k, row in res.items() if k == 1.0}, lt=moe.EXCESS_STALL_ONSET),
            Order("uniform-twin-hot-port-not-above-cold", lambda res: {
                k: (row["twin"].hot_ingest_stalled_s, row["twin"].cold_ingest_stalled_s)
                for k, row in res.items() if k == 1.0}, "<="),
            Band("skewed-excess-at-onset", lambda res: {
                k: row["excess"] for k, row in res.items() if k >= 4.0}, ge=moe.EXCESS_STALL_ONSET),
            Order("skewed-twin-hot-port-above-cold", lambda res: {
                k: (row["twin"].hot_ingest_stalled_s, row["twin"].cold_ingest_stalled_s)
                for k, row in res.items() if k >= 4.0}, ">"),
            Same("rerun-replays-the-clocks", lambda res: {
                k: (row["result"].clocks, row["rerun"].clocks) for k, row in res.items()
                if k == min(res) and "rerun" in row}),
            Same("rerun-replays-the-payloads", lambda res: {
                k: (row["result"].digests, row["rerun"].digests) for k, row in res.items()
                if k == min(res) and "rerun" in row}),
        ),
        note="twin's hot-port stalled-seconds overtake cold at the same onset",
    ),
    Figure(
        "table1", "Table 1", "pack 4 MiB / ping-pong 4 MiB latency (TEMPI row)", "21 us / 888 us",
        run=lambda model, sweep: table1.measure(model),
        table=_table1_table,
        measured=lambda result: (
            f"{result[0][4 << 20] * 1e6:.0f} us / {result[1][4 << 20] * 1e6:.0f} us"
        ),
        # The paper's order of magnitude, well below the older related work.
        claims=(
            Band("pack-4-mib-us", lambda r: r[0][4 << 20] * 1e6, lt=1_000),
            Band("ping-pong-4-mib-us", lambda r: r[1][4 << 20] * 1e6, lt=7_000),
            Band("ping-pong-1-kib-us", lambda r: r[1][1024] * 1e6, lt=70.0),
        ),
        note="same order of magnitude; remains far below the pre-V100 related-work rows",
    ),
    Figure(
        "topology", "Topology (beyond paper)",
        "path-class selection crossovers; cross-leaf uplink incast",
        "island/spine crossovers diverge; shared uplink serialises (no paper value)",
        run=_topology_run,
        table=_topology_table,
        measured=_topology_measured,
        # Flat idle selection is Fig. 9b's map.  Behind the oversubscribed uplink
        # the device method wins later or never.  Only the shared uplink bundle
        # lifts a reservation, once per extra flow, as in the analytic walk.
        claims=(
            Same("flat-is-choose_method", lambda r: {
                (size, block): (r["model"].choose_method(size, min(block, size)).value, method)
                for block in r["blocks"] for size, method in r["grid"][(block, "flat")].items()}),
            Crossover("island-crossover", lambda r: {
                block: r["crossover"][(block, "island")] for block in r["blocks"]}),
            Order("spine-crossover-not-below-island", lambda r: {
                block: pair for block in r["blocks"]
                for pair in [(r["crossover"][(block, "spine")], r["crossover"][(block, "island")])]
                if None not in pair}, ">="),
            Crossover("island-and-spine-crossovers-diverge", lambda r: r["diverging"]),
            Same("one-fabric-stall-per-extra-flow", lambda r: {
                key: (key[1] - 1, row["stalls"]) for key, row in r["fabric"].items()}),
            Same("twin-fabric-stall-per-extra-flow", lambda r: {
                key: (key[1] - 1, row["analytic"].fabric_stalls) for key, row in r["fabric"].items()}),
            Same("stalled-seconds-are-the-twin's", lambda r: {
                key: (row["analytic"].fabric_stalled_s, row["stalled_s"]) for key, row in r["fabric"].items()},
                rel_tol=1e-9, abs_tol=1e-12),
            Same("one-flow-efficiency", lambda r: {
                key: (1.0, row["efficiency"]) for key, row in r["fabric"].items() if key[1] == 1},
                rel_tol=1e-6, abs_tol=1e-12),
            Order("efficiency-falls-with-flows", lambda r: {
                o: [row["efficiency"] for (x, _), row in sorted(r["fabric"].items()) if x == o]
                for o in {o for o, _ in r["fabric"]}}, ">"),
            Order("oversubscription-slows-the-burst", lambda r: {
                heavy: (r["fabric"][heavy]["completion"], r["fabric"][light]["completion"])
                for heavy, light in r["extremes"]}, ">"),
            Order("oversubscription-lowers-efficiency", lambda r: {
                heavy: (r["fabric"][heavy]["efficiency"], r["fabric"][light]["efficiency"])
                for heavy, light in r["extremes"]}, "<"),
        ),
        note="flat spec bit-identical to the pre-topology books (property-pinned)",
    ),
)

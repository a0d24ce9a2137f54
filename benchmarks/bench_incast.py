"""Incast (beyond the paper): N senders converge on one hot receiver.

The paper's contention figures (and our Fig. 15 extension) saturate the
*sender's* injection port.  This benchmark drives the opposite skew — the
many-senders-to-one-receiver pattern cluster all-to-alls degenerate into
(cf. the pairwise-correlation workloads of PAPERS.md) — where every sender's
port is idle and the bottleneck is the receiver's **ingestion port**, which
only the duplex NIC accounting (``TempiConfig(nic="duplex")``, PR 5) models.

Two harnesses share the acceptance claims:

* **completion pricing** — each of N sender ranks fires one large typed
  ``Isend`` at rank 0; under duplex accounting the receiver's landings
  serialise on its ingestion port, so its completion clock exceeds the
  ``nic="inject_only"`` ablation's by roughly ``(N-1) * overlap * wire`` and
  the world NIC counts one ingestion stall per extra sender, while the
  ablation reproduces the PR-3/PR-4 books exactly (zero ingestion state
  touched — the property suite pins it bit-for-bit).  The analytic companion
  is :func:`repro.apps.exchange_model.model_duplex_exchange`;
  :func:`repro.apps.exchange_model.incast_efficiency` is the degradation
  curve (1.0 at one sender, monotone down as senders pile on).

* **selection shift** — background senders park their incast on the hot
  receiver, a barrier makes the posts visible, and then an idle *probe* rank
  compiles one ``Isend`` to the same receiver under
  ``TempiConfig(selection="contended")``.  With ``nic="duplex"`` the
  selector reads the receiver's ingestion backlog
  (:meth:`~repro.machine.nic.NicTimeline.ingest_backlog`) and the
  one-shot/device decision flips for crossover-zone shapes — the fast
  device wire buys nothing when the receiver cannot drain it — while the
  ``nic="inject_only"`` ablation (the PR-4 pricing: the probe's own idle
  injection port) never flips.

Run through the figure table (``--smoke`` is the CI sweep, ``--full`` the
larger one):

    PYTHONPATH=src python -m repro.cli figures --only incast
"""

from __future__ import annotations

import pytest

from repro.apps.exchange_model import incast_efficiency, model_duplex_exchange
from repro.machine.network import DEFAULT_WIRE_OVERLAP, NetworkModel
from repro.machine.spec import SUMMIT
from repro.mpi.constructors import Type_vector
from repro.mpi.datatype import BYTE
from repro.mpi.request import Request
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose

#: The incast payload: 4 MiB packed per sender in 4 KiB runs — wire time
#: dwarfs pack and unpack, so the receiver's completion clock isolates the
#: ingestion-port serialisation.
INCAST = dict(nblocks=1024, block=4096, pitch=8192)
#: Wire-bound background traffic for the selection probe (256 KiB per
#: sender, the Fig. 15 shape): each parks ~65% of its wire time on the hot
#: receiver's ingestion ledger.
BACKGROUND = dict(nblocks=1024, block=256, pitch=512)
#: Crossover-zone probe shapes: the idle model picks *device* for the first
#: (4 KiB in single-byte runs) and sits near the boundary for the others, so
#: a hot receiver can flip at least one.
PROBES = (
    dict(nblocks=4096, block=1, pitch=2),
    dict(nblocks=4096, block=8, pitch=16),
    dict(nblocks=2048, block=64, pitch=128),
)

#: Sender counts and background-sender counts per sweep.
SWEEPS = {
    "smoke": dict(senders=(1, 2, 4), backgrounds=(0, 4)),
    "default": dict(senders=(1, 2, 4), backgrounds=(0, 4)),
    "full": dict(senders=(1, 2, 4, 8, 16), backgrounds=(0, 1, 2, 4, 8)),
}


def incast_wire_s(machine=SUMMIT) -> float:
    """Serial wire seconds of one incast message (inter-node, device path)."""
    nbytes = INCAST["nblocks"] * INCAST["block"]
    return NetworkModel(machine).message_time(nbytes, same_node=False, device_buffers=True)


# --------------------------------------------------------------------------- #
# Completion pricing (functional incast vs the analytic duplex model)
# --------------------------------------------------------------------------- #

def measure_incast(senders: int, model, config: TempiConfig):
    """One functional incast burst; returns receiver-side timings.

    Ranks ``1..senders`` each fire one large typed ``Isend`` at rank 0; the
    receiver posts matching ``Irecv``s and waits for all.  Returns
    ``(completion_s, receiver_ingest_stalls, world_ingest_stalls)``.
    """

    def program(ctx):
        comm = interpose(ctx, config, model=model)
        t = comm.Type_commit(
            Type_vector(INCAST["nblocks"], INCAST["block"], INCAST["pitch"], BYTE)
        )
        buf = ctx.gpu.malloc(t.extent)
        if ctx.rank == 0:
            requests = [
                comm.Irecv((buf, 1, t), source=source, tag=source)
                for source in range(1, comm.Get_size())
            ]
            Request.Waitall(requests)
            return ctx.clock.now, comm.stats.ingest_stalls
        comm.Isend((buf, 1, t), dest=0, tag=ctx.rank).Wait()
        return None

    world = World(senders + 1, ranks_per_node=1)
    results = world.run(program)
    completion, stalls = results[0]
    return completion, stalls, world.nic.ingest_stalls


def run_incasts(sender_counts, model):
    """The completion sweep: duplex vs inject_only at each sender count."""
    nbytes = INCAST["nblocks"] * INCAST["block"]
    table = {}
    for senders in sender_counts:
        duplex, duplex_stalls, _ = measure_incast(senders, model, TempiConfig())
        inject, inject_stalls, inject_world = measure_incast(
            senders, model, TempiConfig(nic="inject_only")
        )
        table[senders] = dict(
            duplex=duplex,
            inject=inject,
            duplex_stalls=duplex_stalls,
            inject_stalls=inject_stalls,
            inject_world_stalls=inject_world,
            analytic=model_duplex_exchange(senders, nbytes),
            analytic_inject=model_duplex_exchange(senders, nbytes, nic="inject_only"),
            efficiency=incast_efficiency(senders, nbytes),
        )
    return table


def check_incasts(results) -> None:
    """The completion acceptance claims."""
    wire = incast_wire_s()
    previous_efficiency = 1.0 + 1e-12
    for senders, row in sorted(results.items()):
        # The ablation never touches ingestion state: the PR-3/PR-4 books.
        assert row["inject_stalls"] == 0, "inject_only counted an ingestion stall"
        assert row["inject_world_stalls"] == 0, "inject_only advanced the ingestion ledger"
        assert (
            row["analytic_inject"].ingest_stalled_s == 0.0
        ), "the analytic ablation queued at the receiver"
        if senders == 1:
            assert row["duplex"] == row["inject"], (
                "a single sender has no incast: duplex must price it identically"
            )
            assert row["efficiency"] == pytest.approx(1.0)
            continue
        # Duplex prices the hot receiver above the ablation: the landings
        # serialise, adding ~overlap*wire per extra sender minus whatever the
        # receive-side unpacks hide (hence the 0.25 safety factor).
        floor = 0.25 * (senders - 1) * DEFAULT_WIRE_OVERLAP * wire
        assert row["duplex"] - row["inject"] >= floor, (
            f"{senders} senders: duplex only {row['duplex'] - row['inject']:.2e}s above "
            f"the ablation (expected >= {floor:.2e}s)"
        )
        assert row["duplex_stalls"] == senders - 1, (
            f"expected one ingestion stall per extra sender, got {row['duplex_stalls']}"
        )
        assert row["efficiency"] < previous_efficiency, (
            "incast efficiency must degrade monotonically with senders"
        )
        previous_efficiency = row["efficiency"]


# --------------------------------------------------------------------------- #
# Selection shift (the contended selector behind a hot receiver)
# --------------------------------------------------------------------------- #

def probe_selection(background: int, probe: dict, model, config: TempiConfig):
    """The probe rank's selected method behind ``background`` incast senders.

    Ranks ``2..background+1`` park one wire-bound message each on the hot
    receiver (rank 0); a barrier makes those posts visible; then rank 1 — its
    own injection port idle — compiles one probe ``Isend`` to rank 0.
    Returns the probe's per-method wire-message counts.
    """

    def program(ctx):
        comm = interpose(ctx, config, model=model)
        big = comm.Type_commit(
            Type_vector(BACKGROUND["nblocks"], BACKGROUND["block"], BACKGROUND["pitch"], BYTE)
        )
        small = comm.Type_commit(
            Type_vector(probe["nblocks"], probe["block"], probe["pitch"], BYTE)
        )
        big_buf = ctx.gpu.malloc(big.extent)
        small_buf = ctx.gpu.malloc(small.extent)
        requests = []
        if ctx.rank >= 2:
            requests.append(comm.Isend((big_buf, 1, big), dest=0, tag=ctx.rank))
        comm.Barrier()  # happens-before: every background post is now visible
        counts = None
        if ctx.rank == 1:
            before = dict(comm.stats.method_counts)
            requests.append(comm.Isend((small_buf, 1, small), dest=0, tag=1))
            counts = {
                name: hits - before.get(name, 0)
                for name, hits in comm.stats.method_counts.items()
                if hits - before.get(name, 0)
            }
        if ctx.rank == 0:
            for source in range(2, comm.Get_size()):
                comm.Recv((big_buf, 1, big), source=source, tag=source)
            comm.Recv((small_buf, 1, small), source=1, tag=1)
        Request.Waitall(requests)
        return counts

    return World(background + 2, ranks_per_node=1).run(program)[1]


def run_probes(background_counts, model):
    """The selection sweep: duplex vs inject_only contended at each load."""
    table = {}
    for background in background_counts:
        row = []
        for probe in PROBES:
            idle = probe_selection(0, probe, model, TempiConfig(selection="contended"))
            duplex = probe_selection(
                background, probe, model, TempiConfig(selection="contended")
            )
            inject = probe_selection(
                background,
                probe,
                model,
                TempiConfig(selection="contended", nic="inject_only"),
            )
            row.append(dict(probe=probe, idle=idle, duplex=duplex, inject=inject))
        table[background] = row
    return table


def check_probes(results) -> list[tuple[int, int]]:
    """The selection acceptance claims; returns the flipped (load, probe) pairs."""
    flips = []
    for background, row in sorted(results.items()):
        for index, cell in enumerate(row):
            # The ablation prices the probe's own (idle) injection port only:
            # it can never see the hot receiver, at any load.
            assert cell["inject"] == cell["idle"], (
                f"inject_only probe shifted behind {background} senders"
            )
            if background == 0:
                assert cell["duplex"] == cell["idle"], (
                    "an unloaded duplex probe must select contention-free"
                )
            elif cell["duplex"] != cell["idle"]:
                flips.append((background, index))
    heavy = [flip for flip in flips if flip[0] >= 4]
    assert heavy, "no probe shape flipped behind >=4 incast senders"
    return flips

"""Allreduce schedules on a hierarchical fabric: ring vs tree vs hierarchical.

Data-parallel training is bounded by gradient ``Allreduce``; which schedule
wins depends on the fabric.  The flat chunked ring moves ``2(N-1)`` chunk
hops per rank and is bandwidth-optimal on a crossbar, but on an
oversubscribed fat-tree every one of those hops crosses the uplink bundle.
The hierarchical schedule (intra-island gather → leader ring → broadcast)
concentrates cross-island traffic on one leader per island, so the uplinks
carry ``L-1`` messages per round instead of ``N-1`` — and TEMPI's
topology-aware chooser (:func:`repro.tempi.selection.choose_allreduce_algorithm`)
picks it automatically whenever the topology actually groups ranks.

The functional sweep runs every schedule on the committed fat-tree example
spec (``examples/topology_fattree.json``) and pins three claims:

* every schedule's reduction is **byte-identical** to every other's (the
  Hypothesis wall extends this to the naive reference);
* the hierarchical schedule prices **strictly cheaper** than the flat ring
  at every node count ≥ 2, and ``allreduce_algorithm="auto"`` reproduces
  its clocks bit-for-bit;
* the analytic twin (:func:`repro.apps.exchange_model.model_allreduce`)
  agrees on the ordering — its ring/hierarchical speedup is > 1 wherever
  the simulated one is.

Run through the figure table (``--smoke`` is the CI sweep, ``--full`` the
larger one):

    PYTHONPATH=src python -m repro.cli figures --only allreduce
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.apps.exchange_model import allreduce_hierarchy_speedup, model_allreduce
from repro.machine.spec import SUMMIT
from repro.machine.topology import Topology, TopologySpec
from repro.mpi.datatype import FLOAT
from repro.mpi.world import World
from repro.tempi.config import TempiConfig
from repro.tempi.interposer import interpose

#: The committed fat-tree example the acceptance claims price against.
FATTREE_SPEC_PATH = Path(__file__).resolve().parents[1] / "examples" / "topology_fattree.json"

#: Gradient shard: 4096 float32 elements (16 KiB) — big enough that wire
#: dominates the combine kernels, small enough for CI.
COUNT = 4096

ALGORITHMS = ("ring", "tree", "hierarchical")

NODE_SWEEPS = {"smoke": (2, 3), "default": (2, 3), "full": (2, 3, 4, 6)}


def fattree_spec() -> TopologySpec:
    """The committed example spec (island pairs, oversubscribed uplinks)."""
    return TopologySpec(**json.loads(FATTREE_SPEC_PATH.read_text()))


def measure_allreduce(nranks: int, algorithm: str, model, spec: TopologySpec):
    """One interposed allreduce on the fat-tree world.

    Every rank contributes a deterministic integer-valued float vector and
    reduces with ``sum``; returns ``(clocks, digest)`` where ``digest``
    hashes every rank's reduced bytes (identical across schedules when the
    reductions agree byte-for-byte).
    """

    def program(ctx):
        config = TempiConfig(allreduce_algorithm=algorithm)
        comm = interpose(ctx, config, model=model)
        nbytes = COUNT * FLOAT.size
        send = ctx.gpu.malloc(nbytes)
        recv = ctx.gpu.malloc(nbytes)
        rng = np.random.default_rng(11 + ctx.rank)
        values = rng.integers(-1000, 1000, COUNT).astype(np.float32)
        send.data[:nbytes] = values.view(np.uint8)
        comm.Allreduce((send, COUNT, FLOAT), (recv, COUNT, FLOAT))
        return ctx.clock.now, recv.data[:nbytes].tobytes()

    rows = World(nranks, ranks_per_node=spec.ranks_per_node, topology=spec).run(program)
    digest = hashlib.sha256(b"".join(row[1] for row in rows)).hexdigest()
    return [row[0] for row in rows], digest


def run_allreduces(node_counts, model):
    """The schedule sweep on the fat-tree example, plus the analytic twins."""
    spec = fattree_spec()
    topology_for = {
        nodes: Topology(nodes * spec.ranks_per_node, machine=SUMMIT, spec=spec)
        for nodes in node_counts
    }
    table = {}
    for nodes in node_counts:
        nranks = nodes * spec.ranks_per_node
        row = {}
        for algorithm in ALGORITHMS + ("auto",):
            clocks, digest = measure_allreduce(nranks, algorithm, model, spec)
            row[algorithm] = dict(clocks=clocks, completion=max(clocks), digest=digest)
        row["analytic"] = {
            algorithm: model_allreduce(
                nranks, COUNT, FLOAT.size,
                algorithm=algorithm, topology=topology_for[nodes],
            )
            for algorithm in ALGORITHMS
        }
        row["analytic_speedup"] = allreduce_hierarchy_speedup(
            nranks, COUNT, FLOAT.size, topology=topology_for[nodes]
        )
        table[nodes] = row
    return table

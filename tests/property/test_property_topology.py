"""Property pin: the flat topology books are the pre-topology books, exactly.

``NicTimeline.reserve`` grew a ``path=`` binding for the topology subsystem.
A *flat* spec resolves every pair to a path with no rail keys and no shared
uplinks, so threading those paths through the NIC must be invisible: every
reservation's start/arrival/stall, every ingest landing and the full ledger
fingerprint (which covers the rail and shared-uplink cursor maps) must be
bit-identical to running the same sequence with ``path=None``.  Hypothesis
drives random reservation/ingest sequences through both timelines in
lockstep and compares everything.

A second pin anchors the hierarchical side's conservation law: binding real
paths may only *delay* starts, never accelerate them, and the flat books are
recovered the instant the resolved paths stop carrying rails and uplinks.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.machine.nic import NicTimeline
from repro.machine.topology import Topology, TopologySpec

FLAT_RANKS = 8
FLAT = Topology(FLAT_RANKS, ranks_per_node=2)

HIER = Topology(
    16,
    spec=TopologySpec(
        ranks_per_node=4, island_size=2, rails_per_node=2,
        leaf_radix=2, oversubscription=4.0,
    ),
)


@st.composite
def reservation_sequences(draw, nranks=FLAT_RANKS):
    """A short random program of sends plus interleaved ingest drains."""
    n = draw(st.integers(min_value=1, max_value=24))
    events = []
    for _ in range(n):
        src = draw(st.integers(min_value=0, max_value=nranks - 1))
        dst = draw(st.integers(min_value=0, max_value=nranks - 1))
        ready = draw(st.floats(min_value=0.0, max_value=1e-3,
                               allow_nan=False, allow_infinity=False))
        wire = draw(st.floats(min_value=0.0, max_value=5e-4,
                              allow_nan=False, allow_infinity=False))
        nbytes = draw(st.sampled_from((0, 4096, 1 << 20)))
        drain = draw(st.booleans())
        events.append((src, dst, ready, wire, nbytes, drain))
    return events


def _run(events, topology, *, bind_paths):
    """Replay one event sequence; returns the full observable trace."""
    nic = NicTimeline()
    pending: dict[int, list] = {}
    trace = []
    for src, dst, ready, wire, nbytes, drain in events:
        path = (
            topology.resolve(src, dst, device_buffers=True) if bind_paths else None
        )
        res = nic.reserve(src, dst, ready, wire, nbytes, path=path)
        trace.append((res.start, res.arrival, res.stalled_s, res.seq))
        if wire > 0:
            pending.setdefault(dst, []).append(
                next(r for r in nic.pending_records(dst) if r.seq == res.seq and r.source == src)
            )
        if drain and pending.get(dst):
            trace.append(tuple(nic.ingest(dst, pending.pop(dst))))
    for dst in sorted(pending):
        trace.append(tuple(nic.ingest(dst, pending.pop(dst))))
    trace.append(nic.state_fingerprint())
    trace.append((nic.stalls, nic.ingest_stalls, nic.fabric_stalls, nic.fabric_stalled_s))
    return trace


@given(events=reservation_sequences())
@settings(max_examples=60, deadline=None)
def test_flat_paths_are_invisible(events):
    """Flat-spec resolved paths and ``path=None`` book bit-identically."""
    with_paths = _run(events, FLAT, bind_paths=True)
    without = _run(events, FLAT, bind_paths=False)
    assert with_paths == without


@given(events=reservation_sequences(nranks=16))
@settings(max_examples=40, deadline=None)
def test_hierarchical_paths_only_delay(events):
    """Binding real rails/uplinks never starts a message earlier."""
    bound = _run(events, HIER, bind_paths=True)
    free = _run(events, HIER, bind_paths=False)
    for got, base in zip(bound, free):
        if not (isinstance(got, tuple) and len(got) == 4 and isinstance(got[3], int)):
            continue  # only compare the reservation rows
        assert got[0] >= base[0]  # start
        assert got[1] >= base[1]  # arrival
        assert got[3] == base[3]  # per-source sequencing is path-independent

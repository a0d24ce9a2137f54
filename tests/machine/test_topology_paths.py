"""Path-resolution edge cases of the topology subsystem.

The placement tests live in ``test_topology.py``; this module pins the
resolver's corners: self paths bind nothing, single-node worlds never grow
fabric classes, islands that do not divide the node still cover every rank,
the rail assignment is a pure function of the (node, local rank) slot —
renumbering the world cannot move a slot's rail — and a malformed spec
fails at load with its field named.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.network import NetworkModel
from repro.machine.spec import SUMMIT
from repro.machine.topology import (
    PATH_KINDS,
    RAIL_POLICIES,
    RouteTable,
    Topology,
    TopologyError,
    TopologySpec,
)

HIER = TopologySpec(
    ranks_per_node=4, island_size=2, rails_per_node=2,
    leaf_radix=2, oversubscription=4.0,
)


class TestSelfPaths:
    def test_self_path_binds_nothing(self):
        topo = Topology(16, spec=HIER)
        for rank in (0, 7, 15):
            for device in (False, True):
                path = topo.resolve(rank, rank, device_buffers=device)
                assert path.kind == "self"
                assert path.rail is None
                assert path.ingest_rail is None
                assert path.shared == ()

    def test_self_path_prices_like_the_nearest_hop(self):
        topo = Topology(8, spec=HIER)
        device = topo.resolve(3, 3, device_buffers=True)
        host = topo.resolve(3, 3, device_buffers=False)
        gpu_gpu, intra = SUMMIT.node.gpu_gpu, SUMMIT.node.intra_cpu
        assert device.latency_s == gpu_gpu.latency_s + gpu_gpu.per_message_overhead_s
        assert host.latency_s == intra.latency_s + intra.per_message_overhead_s

    def test_self_path_has_finite_bandwidth(self):
        path = Topology(4, spec=HIER).resolve(0, 0, device_buffers=True)
        assert 0 < path.bandwidth_Bps < math.inf


class TestSingleNodeWorlds:
    def test_no_fabric_classes(self):
        topo = Topology(4, spec=HIER)
        pairs = topo.representative_pairs()
        assert "leaf" not in pairs
        assert "spine" not in pairs
        assert set(pairs) <= set(PATH_KINDS)

    def test_all_paths_stay_on_node(self):
        topo = Topology(4, spec=HIER)
        for src in range(4):
            for dst in range(4):
                path = topo.resolve(src, dst, device_buffers=True)
                assert path.kind in ("self", "island", "node")
                assert path.rail is None and path.ingest_rail is None
                assert path.shared == ()

    def test_single_rank_world(self):
        topo = Topology(1, spec=TopologySpec(ranks_per_node=1, leaf_radix=2))
        assert topo.representative_pairs() == {"self": (0, 0)}

    def test_cross_island_device_path_bounces_through_the_bridge(self):
        topo = Topology(4, spec=HIER)
        path = topo.resolve(0, 2, device_buffers=True)  # islands {0,1} vs {2,3}
        assert path.kind == "node"
        assert tuple(hop.kind for hop in path.hops) == ("nvlink", "bridge")

    def test_host_buffers_ignore_islands(self):
        topo = Topology(4, spec=HIER)
        path = topo.resolve(0, 2, device_buffers=False)
        assert path.kind == "node"
        assert tuple(hop.kind for hop in path.hops) == ("shm",)


class TestOddShapes:
    def test_island_size_not_dividing_node(self):
        spec = TopologySpec(ranks_per_node=6, island_size=4)
        topo = Topology(6, spec=spec)
        islands = [topo.placement(r).island for r in range(6)]
        assert islands == [0, 0, 0, 0, 1, 1]  # a full island and a remnant

    def test_partial_last_node_resolves_every_pair(self):
        spec = TopologySpec(ranks_per_node=4, island_size=2, rails_per_node=2,
                            leaf_radix=2, oversubscription=2.0)
        topo = Topology(11, spec=spec)  # 3 nodes, the last holding 3 ranks
        assert topo.nnodes == 3
        kinds = {
            topo.resolve(src, dst, device_buffers=True).kind
            for src in range(11) for dst in range(11)
        }
        assert kinds == {"self", "island", "node", "leaf", "spine"}

    def test_island_larger_than_node_is_one_island(self):
        spec = TopologySpec(ranks_per_node=2, island_size=4)
        topo = Topology(4, spec=spec)
        assert topo.same_island(0, 1)
        assert not topo.same_island(0, 2)  # different nodes, never one island

    def test_more_rails_than_islands_leaves_rails_idle(self):
        spec = TopologySpec(ranks_per_node=2, island_size=0, rails_per_node=4)
        topo = Topology(4, spec=spec)
        # One island per node under the island policy: every rank rides rail 0.
        assert {topo.rail_of(r) for r in range(4)} == {0}

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(TopologyError):
            TopologySpec.from_dict({"ranks_per_node": 2, "rails": 1})


# --------------------------------------------------------------------------- #
# Malformed spec files fail at load, naming the field
# --------------------------------------------------------------------------- #

INTEGER_FIELDS = ("ranks_per_node", "island_size", "rails_per_node", "leaf_radix")
#: Values no field accepts: wrong JSON types, and ``true`` (a ``bool`` is an
#: ``int`` to Python, never to a spec).
NOT_A_NUMBER = ("4", None, True, False, [2], {"n": 2})


@st.composite
def well_formed_specs(draw):
    """The JSON mapping of any valid spec."""
    return {
        "ranks_per_node": draw(st.integers(min_value=1, max_value=64)),
        "island_size": draw(st.integers(min_value=0, max_value=8)),
        "rails_per_node": draw(st.integers(min_value=0, max_value=4)),
        "rail_policy": draw(st.sampled_from(RAIL_POLICIES)),
        "leaf_radix": draw(st.integers(min_value=0, max_value=16)),
        "oversubscription": draw(
            st.integers(min_value=1, max_value=8)
            | st.floats(min_value=1e-3, max_value=64.0, allow_nan=False)
        ),
    }


@st.composite
def malformed_specs(draw):
    """``(mapping, field)``: a valid spec mapping with one field broken."""
    data = draw(well_formed_specs())
    name = draw(st.sampled_from(INTEGER_FIELDS + ("oversubscription", "rail_policy")))
    if name in INTEGER_FIELDS:
        lowest = 1 if name == "ranks_per_node" else 0
        bad = st.sampled_from(NOT_A_NUMBER) | st.floats(allow_nan=True) | st.integers(
            max_value=lowest - 1
        )
    elif name == "oversubscription":
        bad = st.sampled_from(NOT_A_NUMBER + (math.inf, -math.inf, math.nan)) | st.floats(
            max_value=0.0
        ) | st.integers(max_value=0)
    else:
        bad = st.sampled_from(NOT_A_NUMBER + (2,)) | st.text().filter(
            lambda text: text not in RAIL_POLICIES
        )
    data[name] = draw(bad)
    return data, name


class TestMalformedSpecs:
    @settings(max_examples=200, deadline=None)
    @given(case=malformed_specs())
    def test_a_broken_field_is_named(self, case):
        data, name = case
        with pytest.raises(TopologyError, match=rf"\b{name}\b"):
            TopologySpec.from_dict(data)

    @settings(max_examples=60, deadline=None)
    @given(data=well_formed_specs())
    def test_any_well_formed_spec_round_trips(self, data):
        spec = TopologySpec.from_dict(data)
        assert spec.to_dict() == data
        assert TopologySpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_the_failures_seen_before_now_name_their_field(self, tmp_path):
        """Three used to escape as a bare ``TypeError`` from a comparison, and
        four were accepted — each from a file."""
        for index, (name, text) in enumerate((
            ("ranks_per_node", '{"ranks_per_node": "4"}'),
            ("ranks_per_node", '{"ranks_per_node": null}'),
            ("oversubscription", '{"oversubscription": "2"}'),
            ("ranks_per_node", '{"ranks_per_node": 2.5}'),
            ("island_size", '{"island_size": 1.5}'),
            ("leaf_radix", '{"leaf_radix": true}'),
            ("oversubscription", '{"oversubscription": Infinity}'),
        )):
            path = tmp_path / f"spec{index}.json"
            path.write_text(text)
            with pytest.raises(TopologyError, match=rf"^{re.escape(str(path))}: {name}\b"):
                TopologySpec.load(path)

    def test_a_file_that_is_not_an_object_is_refused(self):
        with pytest.raises(TopologyError, match="JSON object"):
            TopologySpec.from_dict([{"ranks_per_node": 2}])


class TestRailDeterminism:
    @pytest.mark.parametrize("policy", ["island", "local"])
    def test_rail_is_a_pure_function_of_the_slot(self, policy):
        spec = TopologySpec(ranks_per_node=4, island_size=2, rails_per_node=2,
                            rail_policy=policy, leaf_radix=2)
        small = Topology(8, spec=spec)
        large = Topology(32, spec=spec)
        for rank in range(8):
            place = small.placement(rank)
            rail = small.rail_of(rank)
            # The same (node, local rank) slot in any world gets the same rail.
            for node in range(large.nnodes):
                twin = node * spec.ranks_per_node + place.local_rank
                assert large.rail_of(twin) == rail

    def test_rail_key_carries_the_node(self):
        topo = Topology(16, spec=HIER)
        for rank in range(16):
            key = topo.rail_key(rank)
            assert key is not None
            assert key[0] == topo.node_of(rank)

    def test_local_policy_round_robins(self):
        spec = TopologySpec(ranks_per_node=4, rails_per_node=3, rail_policy="local")
        topo = Topology(4, spec=spec)
        assert [topo.rail_of(r) for r in range(4)] == [0, 1, 2, 0]

    def test_flat_spec_has_no_rails(self):
        topo = Topology(8, ranks_per_node=2)
        assert all(topo.rail_of(r) is None for r in range(8))
        assert all(topo.rail_key(r) is None for r in range(8))


class TestResolutionContracts:
    def test_resolution_is_memoised(self):
        topo = Topology(16, spec=HIER)
        assert topo.resolve(0, 9) is topo.resolve(0, 9)
        assert topo.resolve(0, 9) is not topo.resolve(0, 9, device_buffers=True)

    def test_spine_path_shares_both_uplink_bundles(self):
        topo = Topology(16, spec=HIER)
        src, dst = 0, 8  # leaf 0 -> leaf 1
        path = topo.resolve(src, dst, device_buffers=True)
        assert path.kind == "spine"
        assert dict(path.shared).keys() == {("up", 0), ("down", 1)}
        uplink = topo.uplink_bandwidth_Bps(SUMMIT.inter_gpu)
        assert path.bandwidth_Bps == min(SUMMIT.inter_gpu.bandwidth_Bps, uplink)

    def test_flat_message_time_matches_the_flat_model(self):
        topo = Topology(8, ranks_per_node=2)
        network = NetworkModel(SUMMIT)
        for src, dst in ((0, 1), (0, 2), (3, 3)):
            same = topo.same_node(src, dst)
            for device in (False, True):
                for nbytes in (0, 4096, SUMMIT.eager_threshold + 1):
                    assert topo.message_time(
                        src, dst, nbytes, device_buffers=device
                    ) == network.message_time(nbytes, same_node=same, device_buffers=device)

    def test_out_of_range_resolution_rejected(self):
        topo = Topology(4, spec=HIER)
        with pytest.raises(ValueError):
            topo.resolve(0, 4)
        with pytest.raises(ValueError):
            topo.message_time(-1, 0, 64)

    def test_negative_nbytes_rejected(self):
        with pytest.raises(ValueError):
            Topology(4).message_time(0, 1, -1)


class TestRouteTable:
    def test_ids_name_exactly_what_resolve_binds(self):
        """The table is ``resolve`` tabulated: every id, read back through its
        key tuple, is the cursor the resolved path names (``-1``: none)."""
        topo = Topology(16, spec=HIER)
        sources = [0, 5, 9]
        dests = [[0, 1, 2, 8], [4, 7, 13, 0], [8, 9, 0, 15]]
        table = topo.route_table(sources, dests, device_buffers=True)
        assert table.rail.shape == table.ingest_rail.shape == (3, 4)
        assert table.shared.shape == table.shared_bandwidth.shape == (3, 4, 2)
        for i, src in enumerate(sources):
            for j, dst in enumerate(dests[i]):
                path = topo.resolve(src, dst, device_buffers=True)
                rail, ingest = int(table.rail[i, j]), int(table.ingest_rail[i, j])
                assert (table.rail_keys[rail] if rail >= 0 else None) == path.rail
                assert (table.ingest_rail_keys[ingest] if ingest >= 0 else None) == path.ingest_rail
                named = tuple(
                    (table.share_keys[share], float(bandwidth))
                    for share, bandwidth in zip(table.shared[i, j], table.shared_bandwidth[i, j])
                    if share >= 0
                )
                assert named == path.shared

    def test_table_is_frozen_and_none_binds_nothing(self):
        topo = Topology(16, spec=HIER)
        table = RouteTable.from_paths([[None, topo.resolve(0, 8)], [topo.resolve(1, 4), None]])
        for array in (table.rail, table.ingest_rail, table.shared, table.shared_bandwidth):
            assert not array.flags.writeable
        assert table.rail[0, 0] == table.ingest_rail[0, 0] == -1
        assert (table.shared[0, 0] == -1).all() and (table.shared[1, 0] == -1).all()
        with pytest.raises(AttributeError):
            table.rail = table.ingest_rail
        # A hand-built table is frozen too: the NIC memoises on its identity.
        ids = np.zeros((1, 1), dtype=np.int64)
        built = RouteTable(ids, ids.copy(), np.empty((1, 1, 0), dtype=np.int64),
                           np.empty((1, 1, 0)), ((0, 0),), ((0, 0),), ())
        assert not ids.flags.writeable and not built.shared_bandwidth.flags.writeable

    def test_ragged_paths_rejected(self):
        topo = Topology(4, spec=HIER)
        with pytest.raises(TopologyError, match="nested sequence"):
            RouteTable.from_paths([[topo.resolve(0, 1)], []])

    def test_flat_world_tabulates_no_fabric_cursors(self):
        table = Topology(8, ranks_per_node=2).route_table([0, 1], [[2, 3], [4, 5]])
        assert table.rail_keys == table.ingest_rail_keys == table.share_keys == ()
        assert table.shared.shape == (2, 2, 0)

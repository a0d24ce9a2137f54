"""Tests for rank placement."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.spec import SUMMIT
from repro.machine.topology import Topology, TopologySpec


class TestConstruction:
    def test_node_count_rounds_up(self):
        assert Topology(7, ranks_per_node=6).nnodes == 2
        assert Topology(6, ranks_per_node=6).nnodes == 1
        assert Topology(13, ranks_per_node=2).nnodes == 7

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            Topology(0)
        with pytest.raises(ValueError):
            Topology(4, ranks_per_node=0)

    def test_too_many_ranks_per_node_rejected(self):
        with pytest.raises(ValueError):
            Topology(12, ranks_per_node=SUMMIT.node.gpus + 1)

    def test_too_many_nodes_rejected(self):
        with pytest.raises(ValueError):
            Topology(SUMMIT.max_nodes + 1, ranks_per_node=1)

    def test_paper_scale_fits(self):
        topo = Topology(3072, ranks_per_node=6)
        assert topo.nnodes == 512


class TestPlacement:
    def test_block_placement(self):
        topo = Topology(12, ranks_per_node=6)
        assert topo.placement(0).node == 0
        assert topo.placement(5).node == 0
        assert topo.placement(6).node == 1
        assert topo.placement(11).node == 1

    def test_local_rank_and_gpu(self):
        topo = Topology(12, ranks_per_node=6)
        placement = topo.placement(8)
        assert placement.local_rank == 2
        assert placement.gpu == 2

    def test_same_node(self):
        topo = Topology(12, ranks_per_node=6)
        assert topo.same_node(0, 5)
        assert not topo.same_node(5, 6)

    def test_one_rank_per_node_never_shares(self):
        topo = Topology(8, ranks_per_node=1)
        assert not any(topo.same_node(0, r) for r in range(1, 8))

    def test_ranks_on_node(self):
        topo = Topology(10, ranks_per_node=4)
        assert topo.ranks_on_node(0) == [0, 1, 2, 3]
        assert topo.ranks_on_node(2) == [8, 9]

    def test_out_of_range_rank_rejected(self):
        topo = Topology(4)
        with pytest.raises(ValueError):
            topo.placement(4)
        with pytest.raises(ValueError):
            topo.node_of(-1)

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError):
            Topology(4, ranks_per_node=2).ranks_on_node(5)


def _rank_error(rank: int, nranks: int) -> str:
    """The ``ValueError`` text a rank outside the world has always raised."""
    return f"^{re.escape(f'rank {rank} outside [0, {nranks})')}$"


class TestRankChecks:
    """``node_of``/``same_node`` check ranks inline and name the first bad one."""

    @settings(max_examples=200, deadline=None)
    @given(
        nranks=st.integers(1, 40),
        ranks_per_node=st.integers(1, SUMMIT.node.gpus),
        a=st.integers(-3, 44),
        b=st.integers(-3, 44),
    )
    def test_lookups_equal_the_checked_reference(self, nranks, ranks_per_node, a, b):
        topo = Topology(nranks, ranks_per_node)
        for rank in (a, b):
            if 0 <= rank < nranks:
                assert topo.node_of(rank) == rank // ranks_per_node
            else:
                with pytest.raises(ValueError, match=_rank_error(rank, nranks)):
                    topo.node_of(rank)
        bad = [rank for rank in (a, b) if not 0 <= rank < nranks]
        if bad:
            with pytest.raises(ValueError, match=_rank_error(bad[0], nranks)):
                topo.same_node(a, b)
        else:
            assert topo.same_node(a, b) == (a // ranks_per_node == b // ranks_per_node)

    def test_hierarchical_is_fixed_at_construction(self):
        assert not Topology(8, 2).hierarchical
        assert not Topology(8, spec=TopologySpec.flat(2)).hierarchical
        assert Topology(8, spec=TopologySpec(ranks_per_node=2, rails_per_node=1)).hierarchical

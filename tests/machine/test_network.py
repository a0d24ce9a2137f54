"""Tests for the network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.network import NetworkModel, TransferPath
from repro.machine.spec import SUMMIT, InterconnectSpec, summit_like
from repro.machine.topology import Topology


@pytest.fixture
def network() -> NetworkModel:
    return NetworkModel(SUMMIT)


class TestPathSelection:
    def test_inter_node_device(self, network):
        assert network.path(same_node=False, device_buffers=True) is TransferPath.INTER_GPU

    def test_inter_node_host(self, network):
        assert network.path(same_node=False, device_buffers=False) is TransferPath.INTER_CPU

    def test_intra_node_device(self, network):
        assert network.path(same_node=True, device_buffers=True) is TransferPath.INTRA_GPU

    def test_intra_node_host(self, network):
        assert network.path(same_node=True, device_buffers=False) is TransferPath.INTRA_CPU


class TestMessageCost:
    def test_latency_floor_cpu(self, network):
        cost = network.message_cost(1, same_node=False, device_buffers=False)
        assert cost.total_s == pytest.approx(
            SUMMIT.inter_cpu.latency_s + 1 / SUMMIT.inter_cpu.bandwidth_Bps
        )

    def test_gpu_floor_higher_than_cpu_floor(self, network):
        """The Fig. 9a crossover driver: CUDA-aware sends have a higher floor."""
        cpu = network.message_time(1, device_buffers=False)
        gpu = network.message_time(1, device_buffers=True)
        assert gpu > cpu
        assert gpu >= 6e-6

    def test_bandwidth_dominates_large_messages(self, network):
        small = network.message_time(1 << 10, device_buffers=False)
        large = network.message_time(1 << 24, device_buffers=False)
        assert large > 10 * small

    def test_rendezvous_kicks_in_above_threshold(self, network):
        below = network.message_cost(SUMMIT.eager_threshold, device_buffers=False)
        above = network.message_cost(SUMMIT.eager_threshold + 1, device_buffers=False)
        assert below.rendezvous_s == 0.0
        assert above.rendezvous_s > 0.0

    def test_monotonic_in_size(self, network):
        sizes = [1 << p for p in range(0, 22)]
        times = [network.message_time(s, device_buffers=True) for s in sizes]
        assert times == sorted(times)

    def test_intra_node_faster_than_inter_node(self, network):
        intra = network.message_time(1 << 16, same_node=True, device_buffers=True)
        inter = network.message_time(1 << 16, same_node=False, device_buffers=True)
        assert intra < inter

    def test_negative_size_rejected(self, network):
        with pytest.raises(ValueError):
            network.message_time(-1)

    def test_between_ranks_uses_topology(self, network):
        topo = Topology(4, ranks_per_node=2)
        same = topo.message_time(0, 1, 1024)
        cross = topo.message_time(1, 2, 1024)
        assert same < cross
        # A flat topology prices exactly like the placement-free model.
        assert same == network.message_time(1024, same_node=True)
        assert cross == network.message_time(1024, same_node=False)


class TestCollectiveCost:
    def test_self_and_zero_entries_ignored(self, network):
        topo = Topology(4, ranks_per_node=1)
        time = network.alltoallv_time([0, 100, 0, 0], topo, rank=0)
        only = network.message_time(100, same_node=False) * 0.65
        assert time == pytest.approx(only)

    def test_more_peers_cost_more(self, network):
        topo = Topology(8, ranks_per_node=1)
        few = network.alltoallv_time([0, 1000, 0, 0, 0, 0, 0, 0], topo, rank=0)
        many = network.alltoallv_time([0] + [1000] * 7, topo, rank=0)
        assert many > few

    def test_wrong_length_rejected(self, network):
        topo = Topology(4, ranks_per_node=1)
        with pytest.raises(ValueError):
            network.alltoallv_time([1, 2, 3], topo, rank=0)

    def test_d2h_and_h2d_times(self, network):
        assert network.d2h_time(0) == pytest.approx(SUMMIT.node.cpu_gpu.latency_s)
        assert network.h2d_time(1 << 20) > network.h2d_time(1)


PATHS = [(same, device) for same in (False, True) for device in (False, True)]


class TestMessageTimeIsTheCostTotal:
    """``message_time`` prices without a ``MessageCost``, bit for bit its ``total_s``."""

    @pytest.mark.parametrize("same_node, device_buffers", PATHS)
    def test_every_path_at_the_eager_edges(self, network, same_node, device_buffers):
        threshold = network.machine.eager_threshold
        for nbytes in (0, 1, threshold, threshold + 1, 1 << 30):
            cost = network.message_cost(nbytes, same_node=same_node, device_buffers=device_buffers)
            time = network.message_time(nbytes, same_node=same_node, device_buffers=device_buffers)
            assert time.hex() == cost.total_s.hex()
            assert cost.path is network.path(same_node=same_node, device_buffers=device_buffers)

    @settings(max_examples=200, deadline=None)
    @given(
        nbytes=st.integers(0, 1 << 34),
        path=st.sampled_from(PATHS),
        latency=st.floats(0.0, 1e-3),
        overhead=st.floats(0.0, 1e-4),
        bandwidth=st.floats(1e3, 1e12),
        eager=st.integers(0, 1 << 20),
    )
    def test_drawn_machines(self, nbytes, path, latency, overhead, bandwidth, eager):
        link = InterconnectSpec("drawn", latency, bandwidth, overhead)
        network = NetworkModel(summit_like(inter_cpu=link, inter_gpu=link, eager_threshold=eager))
        same_node, device_buffers = path
        cost = network.message_cost(nbytes, same_node=same_node, device_buffers=device_buffers)
        time = network.message_time(nbytes, same_node=same_node, device_buffers=device_buffers)
        assert time.hex() == cost.total_s.hex()

    def test_a_negative_size_raises_on_both(self, network):
        for price in (network.message_cost, network.message_time):
            with pytest.raises(ValueError, match="^nbytes must be non-negative, got -1$"):
                price(-1)

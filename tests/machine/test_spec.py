"""Tests for machine specifications."""

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.gpu.cost_model import GpuCostModel
from repro.machine.spec import SUMMIT, InterconnectSpec, MachineSpec, NodeSpec, summit_like


class TestInterconnectSpec:
    def test_transfer_time_is_latency_plus_bandwidth(self):
        link = InterconnectSpec("test", 1e-6, 1e9)
        assert link.transfer_time(0) == pytest.approx(1e-6)
        assert link.transfer_time(1000) == pytest.approx(1e-6 + 1e-6)

    def test_per_message_overhead_included(self):
        link = InterconnectSpec("test", 1e-6, 1e9, per_message_overhead_s=0.5e-6)
        assert link.transfer_time(0) == pytest.approx(1.5e-6)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            InterconnectSpec("bad", -1e-6, 1e9)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            InterconnectSpec("bad", 1e-6, 0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            InterconnectSpec("test", 1e-6, 1e9).transfer_time(-1)


class TestSummitPreset:
    def test_six_gpus_per_node(self):
        assert SUMMIT.node.gpus == 6

    def test_cpu_floor_below_gpu_floor(self):
        """Fig. 9a: ~1.3 us host path vs ~6 us CUDA-aware path."""
        assert SUMMIT.inter_cpu.latency_s < SUMMIT.inter_gpu.latency_s
        assert SUMMIT.inter_cpu.latency_s == pytest.approx(1.3e-6)
        assert SUMMIT.inter_gpu.latency_s == pytest.approx(6.0e-6)

    def test_eager_threshold_positive(self):
        assert SUMMIT.eager_threshold > 0

    def test_max_nodes_matches_summit(self):
        assert SUMMIT.max_nodes == 4608

    def test_replace_makes_a_changed_copy(self):
        other = replace(SUMMIT, name="other-machine", eager_threshold=1)
        assert (other.name, other.eager_threshold) == ("other-machine", 1)
        assert (SUMMIT.name, SUMMIT.eager_threshold) == ("summit-like", 64 * 1024)
        assert other.node is SUMMIT.node and other != SUMMIT
        with pytest.raises(FrozenInstanceError):
            SUMMIT.eager_threshold = 1

    def test_replaced_path_is_validated(self):
        with pytest.raises(ValueError, match="edr-ib-gpu: latencies must be non-negative"):
            replace(SUMMIT, inter_gpu=replace(SUMMIT.inter_gpu, latency_s=-1e-6))


class TestSummitLike:
    def test_plain_call_equals_preset_values(self):
        machine = summit_like()
        assert machine.inter_cpu.latency_s == SUMMIT.inter_cpu.latency_s

    def test_gpu_override(self):
        cheap = GpuCostModel(kernel_launch_s=0.0)
        machine = summit_like(gpu=cheap)
        assert machine.node.gpu.kernel_launch_s == 0.0

    def test_network_override(self):
        slow = InterconnectSpec("slow", 100e-6, 1e9)
        machine = summit_like(inter_cpu=slow)
        assert machine.inter_cpu.latency_s == pytest.approx(100e-6)

    def test_eager_override(self):
        machine = summit_like(eager_threshold=123)
        assert machine.eager_threshold == 123


class TestNodeSpec:
    def test_defaults(self):
        node = NodeSpec()
        assert node.cpus == 2
        assert node.gpus == 6

    def test_intra_node_paths_faster_than_inter_node(self):
        machine = MachineSpec(name="m")
        assert machine.node.intra_cpu.latency_s < machine.inter_cpu.latency_s + 1e-6
        assert machine.node.gpu_gpu.bandwidth_Bps > machine.inter_gpu.bandwidth_Bps

"""Tests for the GPU cost model."""

from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.cost_model import FREE_GPU, SUMMIT_GPU, GpuCostModel
from repro.gpu.runtime import CudaRuntime


class TestValidation:
    def test_default_model_is_valid(self):
        GpuCostModel()

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            GpuCostModel(d2d_bandwidth=0)

    def test_negative_saturation_rejected(self):
        with pytest.raises(ValueError):
            GpuCostModel(device_saturation_block=0)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            GpuCostModel(min_efficiency=0.0)
        with pytest.raises(ValueError):
            GpuCostModel(min_efficiency=1.5)

    def test_unpack_penalty_below_one_rejected(self):
        with pytest.raises(ValueError):
            GpuCostModel(unpack_penalty=0.5)


class TestMemcpy:
    def test_latency_floor(self):
        cost = SUMMIT_GPU
        assert cost.memcpy_d2d_time(0) == pytest.approx(cost.memcpy_call_s)

    def test_bandwidth_term_scales_linearly(self):
        cost = SUMMIT_GPU
        one = cost.memcpy_d2d_time(1 << 20) - cost.memcpy_call_s
        two = cost.memcpy_d2d_time(2 << 20) - cost.memcpy_call_s
        assert two == pytest.approx(2 * one)

    def test_d2h_slower_than_d2d_for_large_copies(self):
        cost = SUMMIT_GPU
        nbytes = 64 << 20
        assert cost.memcpy_d2h_time(nbytes) > cost.memcpy_d2d_time(nbytes)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            SUMMIT_GPU.memcpy_d2d_time(-1)

    def test_h2h_much_cheaper_latency(self):
        assert SUMMIT_GPU.memcpy_h2h_time(0) < SUMMIT_GPU.memcpy_call_s


def _transfers(cost: GpuCostModel, total_bytes: int, block_bytes: int) -> tuple:
    """:meth:`GpuCostModel.kernel_times` with no launch latency: the four transfers."""
    return replace(cost, kernel_launch_s=0.0).kernel_times(total_bytes, block_bytes)


class TestCoalescingEfficiency:
    """The clamp inside ``kernel_times``: efficiency grows with the run
    length up to the saturation block, never below ``min_efficiency``."""

    def test_saturates_at_saturation_block(self):
        cost, total = SUMMIT_GPU, 1 << 20
        saturated = total / cost.d2d_bandwidth
        assert _transfers(cost, total, cost.device_saturation_block)[0] == saturated
        assert _transfers(cost, total, 4 * cost.device_saturation_block)[0] == saturated

    def test_monotonic_in_block_length(self):
        transfers = [_transfers(SUMMIT_GPU, 1 << 20, b)[0] for b in (1, 2, 8, 32, 64, 128)]
        assert transfers == sorted(transfers, reverse=True)

    def test_floor_applies_to_tiny_blocks(self):
        cost = replace(SUMMIT_GPU, device_saturation_block=1024)
        floor = (1 << 20) / (cost.d2d_bandwidth * cost.min_efficiency)
        assert _transfers(cost, 1 << 20, 1)[0] == floor

    def test_zero_block_prices_as_one_byte(self):
        assert SUMMIT_GPU.kernel_times(1 << 20, 0) == SUMMIT_GPU.kernel_times(1 << 20, 1)


class TestKernelTime:
    def test_launch_floor_for_empty_kernel(self):
        cost = SUMMIT_GPU
        duration = cost.kernel_time(0, 1, target="device")
        assert duration == pytest.approx(cost.kernel_launch_s + cost.kernel_sync_s)

    def test_unpack_slower_than_pack(self):
        cost = SUMMIT_GPU
        pack = cost.kernel_time(1 << 20, 8, target="device", unpack=False)
        unpack = cost.kernel_time(1 << 20, 8, target="device", unpack=True)
        assert unpack > pack

    def test_small_blocks_slower_than_large_blocks(self):
        """The Fig. 10 effect: short contiguous runs waste bandwidth."""
        cost = SUMMIT_GPU
        small = cost.kernel_time(1 << 20, 1, target="device")
        large = cost.kernel_time(1 << 20, 256, target="device")
        assert small > large

    def test_device_saturates_later_than_zero_copy(self):
        """One-shot saturates at 32 B, device at 128 B (Sec. 6.3)."""
        assert SUMMIT_GPU.device_saturation_block > SUMMIT_GPU.zero_copy_saturation_block

    def test_device_beats_host_for_saturated_blocks(self):
        cost = SUMMIT_GPU
        device = cost.kernel_time(4 << 20, 256, target="device")
        host = cost.kernel_time(4 << 20, 256, target="host")
        assert device < host

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            SUMMIT_GPU.kernel_time(1024, 8, target="weird")

    def test_sync_can_be_excluded(self):
        cost = SUMMIT_GPU
        with_sync = cost.kernel_time(1024, 8)
        without = cost.kernel_time(1024, 8, include_sync=False)
        assert with_sync - without == pytest.approx(cost.kernel_sync_s)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            SUMMIT_GPU.kernel_time(-1, 8)


class TestOverridesAndPresets:
    def test_free_model_has_no_launch_cost(self):
        assert FREE_GPU.kernel_launch_s == 0.0
        assert FREE_GPU.memcpy_call_s == 0.0

    def test_free_model_kernel_time_negligible(self):
        assert FREE_GPU.kernel_time(1 << 30, 1) < 1e-12

    def test_replace_makes_a_changed_copy(self):
        fast = replace(SUMMIT_GPU, kernel_launch_s=0.0)
        assert fast.kernel_launch_s == 0.0
        assert SUMMIT_GPU.kernel_launch_s > 0.0
        assert fast.kernel_time(1 << 20, 8) < SUMMIT_GPU.kernel_time(1 << 20, 8)

    def test_replace_is_validated(self):
        with pytest.raises(ValueError, match="min_efficiency"):
            replace(SUMMIT_GPU, min_efficiency=0.0)
        with pytest.raises(ValueError, match="unpack_penalty"):
            replace(SUMMIT_GPU, unpack_penalty=0.5)


def _reference_kernel_time(
    model: GpuCostModel, total_bytes, block_bytes, target, unpack, include_sync
) -> float:
    """``kernel_time`` with its clamps spelled as ``min``/``max`` calls, as they were."""
    if target == "device":
        bandwidth, saturation = model.d2d_bandwidth, model.device_saturation_block
    else:
        bandwidth, saturation = model.zero_copy_bandwidth, model.zero_copy_saturation_block
    block = max(1, min(block_bytes, total_bytes)) if total_bytes else 1
    eff = min(1.0, max(model.min_efficiency, block / float(saturation)))
    transfer = total_bytes / (bandwidth * eff)
    if unpack:
        transfer *= model.unpack_penalty
    duration = model.kernel_launch_s + transfer
    if include_sync:
        duration += model.kernel_sync_s
    return duration


overridden_models = st.builds(
    partial(replace, SUMMIT_GPU),
    d2d_bandwidth=st.floats(1e3, 1e13),
    zero_copy_bandwidth=st.floats(1e3, 1e13),
    device_saturation_block=st.integers(1, 4096),
    zero_copy_saturation_block=st.integers(1, 4096),
    min_efficiency=st.floats(1e-6, 1.0),
    unpack_penalty=st.floats(1.0, 4.0),
    kernel_launch_s=st.floats(0.0, 1e-4),
    kernel_sync_s=st.floats(0.0, 1e-4),
)


class TestClampsWithoutCalls:
    """The comparison-spelled clamps price what ``min``/``max`` priced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        model=st.one_of(st.just(SUMMIT_GPU), overridden_models),
        total_bytes=st.integers(0, 1 << 32),
        block_bytes=st.integers(1, 1 << 20),
        target=st.sampled_from(["device", "host"]),
        unpack=st.booleans(),
        include_sync=st.booleans(),
    )
    def test_kernel_time_equals_the_min_max_reference(
        self, model, total_bytes, block_bytes, target, unpack, include_sync
    ):
        got = model.kernel_time(
            total_bytes, block_bytes, target=target, unpack=unpack, include_sync=include_sync
        )
        want = _reference_kernel_time(model, total_bytes, block_bytes, target, unpack, include_sync)
        assert got.hex() == want.hex()

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.one_of(st.just(SUMMIT_GPU), overridden_models),
        block_bytes=st.integers(1, 1 << 16),
    )
    def test_coalescing_efficiency_equals_the_min_max_reference(self, model, block_bytes):
        total = 1 << 20
        got = _transfers(model, total, block_bytes)
        for index, (bandwidth, saturation) in enumerate((
            (model.d2d_bandwidth, model.device_saturation_block),
            (model.zero_copy_bandwidth, model.zero_copy_saturation_block),
        )):
            eff = min(1.0, max(model.min_efficiency, block_bytes / float(saturation)))
            assert got[index].hex() == (total / (bandwidth * eff)).hex()


class TestPlannedDurations:
    """``plan_launch``'s four durations are ``kernel_time`` less the launch,
    bit for bit: one ``kernel_times`` call prices what four ``kernel_time``
    calls priced."""

    @settings(max_examples=300, deadline=None)
    @given(
        model=st.one_of(st.just(SUMMIT_GPU), st.just(FREE_GPU), overridden_models),
        run=st.integers(1, 4096),
        rows=st.integers(1, 64),
        pitch=st.integers(0, 256),
        count=st.integers(1, 4),
    )
    def test_each_duration_is_kernel_time_less_the_launch(self, model, run, rows, pitch, count):
        launch = CudaRuntime(cost_model=model).plan_launch(
            0, [run, rows], [1, run + pitch], count=count
        )
        nbytes = run * rows * count
        assert launch.layout.nbytes == nbytes
        fields = {
            ("device", False): launch.pack_device,
            ("host", False): launch.pack_host,
            ("device", True): launch.unpack_device,
            ("host", True): launch.unpack_host,
        }
        for (target, unpack), got in fields.items():
            timed = model.kernel_time(nbytes, run, target=target, unpack=unpack, include_sync=False)
            reference = _reference_kernel_time(model, nbytes, run, target, unpack, False)
            assert got.hex() == (timed - model.kernel_launch_s).hex()
            assert got.hex() == (reference - model.kernel_launch_s).hex()

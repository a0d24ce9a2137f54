"""Tests for the interpolating performance model (Sec. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tempi.config import PackMethod
from repro.tempi.perf_model import PerformanceModel

KIB = 1024
MIB = 1024 * 1024


class TestTransferInterpolation:
    def test_exact_grid_points_reproduced(self, summit_model, summit_measurement):
        for index, size in enumerate(summit_measurement.sizes):
            assert summit_model.transfer_time("cpu_cpu", size) == pytest.approx(
                summit_measurement.t_cpu_cpu[index]
            )

    def test_interpolation_between_points_is_bracketed(self, summit_model, summit_measurement):
        sizes = summit_measurement.sizes
        mid = (sizes[3] + sizes[4]) // 2
        value = summit_model.transfer_time("cpu_cpu", mid)
        low = summit_measurement.t_cpu_cpu[3]
        high = summit_measurement.t_cpu_cpu[4]
        assert min(low, high) <= value <= max(low, high)

    def test_extrapolation_beyond_sweep_grows(self, summit_model, summit_measurement):
        largest = summit_measurement.sizes[-1]
        assert summit_model.transfer_time("cpu_cpu", largest * 4) > summit_model.transfer_time(
            "cpu_cpu", largest
        )

    def test_unknown_kind_rejected(self, summit_model):
        with pytest.raises(KeyError):
            summit_model.transfer_time("nvme", 100)

    def test_invalid_size_rejected(self, summit_model):
        with pytest.raises(ValueError):
            summit_model.transfer_time("cpu_cpu", 0)

    def test_gpu_floor_above_cpu_floor(self, summit_model):
        assert summit_model.transfer_time("gpu_gpu", 8) > summit_model.transfer_time("cpu_cpu", 8)


class TestPackInterpolation:
    def test_exact_grid_point(self, summit_model, summit_measurement):
        block = summit_measurement.block_lengths[2]
        size = summit_measurement.sizes[10]
        expected = summit_measurement.t_pack_device[2][10]
        assert summit_model.pack_time("device", "pack", size, block) == pytest.approx(expected)

    def test_block_length_clamped_to_sweep(self, summit_model, summit_measurement):
        biggest = summit_measurement.block_lengths[-1]
        inside = summit_model.pack_time("device", "pack", MIB, biggest)
        beyond = summit_model.pack_time("device", "pack", MIB, biggest * 8)
        assert beyond == pytest.approx(inside)

    def test_unknown_table_rejected(self, summit_model):
        with pytest.raises(KeyError):
            summit_model.pack_time("magic", "pack", 1024, 8)

    def test_invalid_arguments_rejected(self, summit_model):
        with pytest.raises(ValueError):
            summit_model.pack_time("device", "pack", 0, 8)
        with pytest.raises(ValueError):
            summit_model.pack_time("device", "pack", 1024, 0)

    def test_never_negative(self, summit_model):
        assert summit_model.pack_time("oneshot", "unpack", 3, 1) >= 0.0

    def test_bit_identical_to_scipy_reference(self, summit_measurement):
        """The in-module bilinear lookup is scipy's, to the last bit.

        scipy is only the reference here; nothing under ``src/`` imports it.
        """
        interpolate = pytest.importorskip("scipy.interpolate")
        arrays = summit_measurement.as_arrays()
        log_blocks, log_sizes = np.log2(arrays["block_lengths"]), np.log2(arrays["sizes"])
        tables = {
            ("device", "pack"): "t_pack_device",
            ("device", "unpack"): "t_unpack_device",
            ("oneshot", "pack"): "t_pack_oneshot",
            ("oneshot", "unpack"): "t_unpack_oneshot",
        }
        references = {
            key: interpolate.RegularGridInterpolator(
                (log_blocks, log_sizes), arrays[name], bounds_error=False, fill_value=None
            )
            for key, name in tables.items()
        }
        # Every grid point, then random points reaching outside the sweep on
        # all four sides (sizes extrapolate, block lengths clamp).
        rng = np.random.default_rng(14)
        queries = [(int(b), int(n)) for b in arrays["block_lengths"] for n in arrays["sizes"]]
        queries += [
            (max(1, int(2.0**b)), max(1, int(2.0**n)))
            for b, n in zip(rng.uniform(-1, 24, 4000), rng.uniform(-1, 36, 4000))
        ]
        model = PerformanceModel(summit_measurement)
        for index, (block, nbytes) in enumerate(queries):
            key = list(tables)[index % 4]
            point = np.array([np.clip(np.log2(block), log_blocks[0], log_blocks[-1]), np.log2(nbytes)])
            expected = float(max(0.0, references[key](point)[0]))
            assert model.pack_time(*key, nbytes, block).hex() == expected.hex(), (key, block, nbytes)


class TestMethodSelection:
    def test_small_objects_prefer_oneshot(self, summit_model):
        """Sec. 6.3: launch overhead and the lower CPU floor favour one-shot."""
        assert summit_model.choose_method(KIB, 8) is PackMethod.ONESHOT

    def test_large_objects_with_small_blocks_prefer_device(self, summit_model):
        assert summit_model.choose_method(4 * MIB, 8) is PackMethod.DEVICE

    def test_staged_never_best(self, summit_model):
        """Fig. 9b: there is no regime where the staged method wins."""
        for size in (KIB, 64 * KIB, MIB, 4 * MIB):
            for block in (1, 8, 64, 256):
                estimate = summit_model.estimate(size, block)
                assert estimate.staged >= min(estimate.oneshot, estimate.device) - 1e-12

    def test_estimate_consistent_with_choice(self, summit_model):
        estimate = summit_model.estimate(MIB, 16)
        expected = PackMethod.ONESHOT if estimate.oneshot <= estimate.device else PackMethod.DEVICE
        assert estimate.best() is expected

    def test_choose_method_is_the_estimates_best_on_the_sweep_grid(
        self, summit_model, summit_measurement, monkeypatch
    ):
        """``choose_method`` sums only the one-shot and device terms, in
        ``estimate``'s term order: its choice is ``estimate(...).best()`` at
        every measured (size, block length) point, without calling it."""
        grid = [(n, b) for n in summit_measurement.sizes for b in summit_measurement.block_lengths]
        expected = [summit_model.estimate(n, b).best() for n, b in grid]
        monkeypatch.setattr(PerformanceModel, "estimate", None)
        assert [summit_model.choose_method(n, b) for n, b in grid] == expected
        assert len(set(expected)) == 2  # the grid spans the crossover

    @settings(max_examples=200, deadline=None)
    @given(nbytes=st.integers(1, 1 << 26), block_length=st.integers(1, 1 << 14))
    def test_choose_method_is_the_estimates_best_anywhere(self, summit_model, nbytes, block_length):
        assert summit_model.choose_method(nbytes, block_length) is summit_model.estimate(
            nbytes, block_length
        ).best()

    def test_estimates_are_positive(self, summit_model):
        estimate = summit_model.estimate(KIB, 1)
        assert estimate.oneshot > 0 and estimate.device > 0 and estimate.staged > 0


class TestMemoisation:
    def test_repeated_queries_hit_cache(self, summit_measurement):
        model = PerformanceModel(summit_measurement)
        model.estimate(MIB, 8)
        queries_after_first = model.queries
        model.estimate(MIB, 8)
        assert model.cache_hits >= queries_after_first
        assert model.hit_rate > 0.4

    def test_hit_rate_zero_before_queries(self, summit_measurement):
        assert PerformanceModel(summit_measurement).hit_rate == 0.0


class TestDecisionMemo:
    """``choose_method`` remembers each ``(nbytes, block_length)`` decision."""

    def test_first_and_repeated_choices_are_the_estimates_best(self, summit_measurement):
        """Every measured grid point, and sizes past the sweep (extrapolated)."""
        model = PerformanceModel(summit_measurement)
        largest = summit_measurement.sizes[-1]
        sizes = list(summit_measurement.sizes) + [2 * largest, 16 * largest, 5 * largest + 3]
        grid = [(n, b) for n in sizes for b in summit_measurement.block_lengths]
        expected = [model.estimate(n, b).best() for n, b in grid]
        assert [model.decide(n, b) for n, b in grid] == expected
        assert [model.choose_method(n, b) for n, b in grid] == expected
        queries, hits = model.queries, model.cache_hits
        assert [model.choose_method(n, b) for n, b in grid] == expected
        # A repeat is one query answered from the memo, and prices nothing.
        assert (model.queries - queries, model.cache_hits - hits) == (len(grid), len(grid))
        assert len(set(expected)) == 2

    @pytest.mark.parametrize("nbytes, block_length", [(0, 8), (-4, 8), (KIB, 0), (KIB, -1)])
    def test_a_bad_query_raises_and_is_never_remembered(self, summit_measurement, nbytes, block_length):
        model = PerformanceModel(summit_measurement)
        for _ in range(2):
            with pytest.raises(ValueError):
                model.choose_method(nbytes, block_length)
        assert model._decisions == {} and model.cache_hits == 0

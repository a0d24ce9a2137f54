"""Tests for the system-measurement sweep."""

import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.spec import SUMMIT
from repro.tempi.measurement import (
    DEFAULT_BLOCKS,
    DEFAULT_SIZES,
    MeasurementError,
    SystemMeasurement,
    measure_system,
)


@pytest.fixture(scope="module")
def small_measurement():
    return measure_system(
        SUMMIT, sizes=[64, 1024, 65536, 1 << 20], block_lengths=[1, 8, 64, 512]
    )


class TestSweepShape:
    def test_curve_lengths_match_sizes(self, small_measurement):
        m = small_measurement
        assert len(m.t_cpu_cpu) == len(m.sizes)
        assert len(m.t_gpu_gpu) == len(m.sizes)
        assert len(m.t_d2h) == len(m.sizes)
        assert len(m.t_h2d) == len(m.sizes)

    def test_tables_are_block_by_size(self, small_measurement):
        m = small_measurement
        assert len(m.t_pack_device) == len(m.block_lengths)
        assert all(len(row) == len(m.sizes) for row in m.t_pack_device)

    def test_machine_name_recorded(self, small_measurement):
        assert small_measurement.machine_name == SUMMIT.name

    def test_default_sweep_dimensions(self):
        assert DEFAULT_SIZES[0] == 1
        assert DEFAULT_SIZES[-1] == 4 * 1024 * 1024
        assert 512 in DEFAULT_BLOCKS

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            measure_system(SUMMIT, sizes=[], block_lengths=[1])
        with pytest.raises(ValueError):
            measure_system(SUMMIT, sizes=[0], block_lengths=[1])
        with pytest.raises(ValueError):
            measure_system(SUMMIT, sizes=[8], block_lengths=[-1])


class TestMeasuredShapes:
    """The qualitative features of Fig. 9a / Fig. 10 must hold."""

    def test_cpu_floor_below_gpu_floor(self, small_measurement):
        assert small_measurement.t_cpu_cpu[0] < small_measurement.t_gpu_gpu[0]

    def test_transfer_times_monotonic_in_size(self, small_measurement):
        for curve in (
            small_measurement.t_cpu_cpu,
            small_measurement.t_gpu_gpu,
            small_measurement.t_d2h,
            small_measurement.t_h2d,
        ):
            assert list(curve) == sorted(curve)

    def test_pack_latency_decreases_with_block_length(self, small_measurement):
        m = small_measurement
        size_index = list(m.sizes).index(1 << 20)
        per_block = [row[size_index] for row in m.t_pack_device]
        assert per_block[0] > per_block[-1]

    def test_unpack_slower_than_pack(self, small_measurement):
        m = small_measurement
        pack = np.asarray(m.t_pack_device)
        unpack = np.asarray(m.t_unpack_device)
        assert (unpack >= pack).all()

    def test_oneshot_pack_slower_per_byte_than_device_for_large_blocks(
        self, small_measurement
    ):
        m = small_measurement
        block_index = list(m.block_lengths).index(512)
        size_index = list(m.sizes).index(1 << 20)
        assert m.t_pack_oneshot[block_index][size_index] > m.t_pack_device[block_index][size_index]


class TestSerialisation:
    def test_roundtrip_dict(self, small_measurement):
        clone = SystemMeasurement.from_dict(small_measurement.to_dict())
        assert clone.sizes == small_measurement.sizes
        assert clone.t_pack_device == small_measurement.t_pack_device

    def test_save_and_load(self, small_measurement, tmp_path):
        path = small_measurement.save(tmp_path / "measurement.json")
        loaded = SystemMeasurement.load(path)
        assert loaded.machine_name == small_measurement.machine_name
        assert loaded.t_cpu_cpu == small_measurement.t_cpu_cpu

    def test_measure_system_writes_file(self, tmp_path):
        path = tmp_path / "out.json"
        measure_system(SUMMIT, sizes=[64, 1024], block_lengths=[8], path=path)
        assert path.exists()

    def test_as_arrays(self, small_measurement):
        arrays = small_measurement.as_arrays()
        assert arrays["t_pack_device"].shape == (4, 4)
        assert arrays["sizes"].dtype == np.float64


# --------------------------------------------------------------------------- #
# Malformed measurement files fail at load, naming the field
# --------------------------------------------------------------------------- #

CURVES = ("t_cpu_cpu", "t_gpu_gpu", "t_d2h", "t_h2d")
TABLES = ("t_pack_device", "t_unpack_device", "t_pack_oneshot", "t_unpack_oneshot")
AXES = ("sizes", "block_lengths")

#: A small well-formed file: 3 sizes x 2 block lengths.
VALID = measure_system(SUMMIT, sizes=[64, 1024, 65536], block_lengths=[1, 8]).to_dict()

BAD_AXES = [
    lambda axis: axis[::-1],                # decreasing
    lambda axis: axis[:1] + axis[:1],       # repeated
    lambda axis: [0] + axis[1:],            # zero
    lambda axis: [-axis[0]] + axis[1:],     # negative
    lambda axis: [float(axis[0])] + axis[1:],
    lambda axis: [True] + axis[1:],
    lambda axis: [],
    lambda axis: "64,1024",
]
BAD_LATENCIES = [-1e-9, math.nan, math.inf, -math.inf, "fast", None]


@st.composite
def malformed(draw):
    """``(payload, field)``: a copy of :data:`VALID` with one field broken."""
    payload = copy.deepcopy(VALID)
    kind = draw(st.sampled_from(["missing", "axis", "curve_length", "table_shape", "latency"]))
    if kind == "missing":
        name = draw(st.sampled_from(AXES + CURVES + TABLES))
        del payload[name]
    elif kind == "axis":
        name = draw(st.sampled_from(AXES))
        payload[name] = draw(st.sampled_from(BAD_AXES))(payload[name])
    elif kind == "curve_length":
        name = draw(st.sampled_from(CURVES))
        length = draw(st.integers(min_value=0, max_value=6).filter(lambda n: n != 3))
        payload[name] = (payload[name] * 3)[:length]
    elif kind == "table_shape":
        name = draw(st.sampled_from(TABLES))
        table = payload[name]
        row = draw(st.integers(min_value=0, max_value=len(table) - 1))
        if draw(st.booleans()):
            table[row] = table[row][:-1]    # one short row
        else:
            payload[name] = table + [table[row]] if draw(st.booleans()) else table[:-1]
    else:
        name = draw(st.sampled_from(CURVES + TABLES))
        value = draw(st.sampled_from(BAD_LATENCIES))
        values = payload[name]
        row = draw(st.integers(min_value=0, max_value=len(values) - 1))
        if name in TABLES:
            values = values[row]
        values[draw(st.integers(min_value=0, max_value=len(values) - 1))] = value
    return payload, name


class TestMalformedFiles:
    @settings(max_examples=150, deadline=None)
    @given(case=malformed())
    def test_a_broken_field_is_named_at_load(self, case):
        payload, name = case
        with pytest.raises(MeasurementError, match=rf"\b{re.escape(name)}\b"):
            SystemMeasurement.from_dict(payload)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=1 << 24), min_size=1, max_size=5, unique=True),
        blocks=st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=4, unique=True),
        latency=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_any_well_formed_file_loads(self, sizes, blocks, latency):
        sizes, blocks = sorted(sizes), sorted(blocks)
        payload = {"sizes": sizes, "block_lengths": blocks}
        payload.update({name: [latency] * len(sizes) for name in CURVES})
        payload.update({name: [[latency] * len(sizes)] * len(blocks) for name in TABLES})
        loaded = SystemMeasurement.from_dict(payload)
        assert loaded.sizes == tuple(sizes) and loaded.t_pack_device[-1][-1] == latency

    def test_the_failures_seen_at_query_time_now_fail_at_load(self, tmp_path):
        """A short curve (numpy's "fp and xp" at the first query), a short
        table (``IndexError``), a missing key (``KeyError``), unsorted sizes
        and a negative copy time (both accepted silently) — each from a file."""
        for name, broken in (
            ("t_gpu_gpu", lambda p: p["t_gpu_gpu"].pop()),
            ("t_pack_oneshot", lambda p: p["t_pack_oneshot"].pop()),
            ("t_h2d", lambda p: p.pop("t_h2d")),
            ("sizes", lambda p: p["sizes"].reverse()),
            ("t_d2h", lambda p: p["t_d2h"].__setitem__(0, -1e-6)),
        ):
            payload = copy.deepcopy(VALID)
            broken(payload)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            with pytest.raises(MeasurementError, match=name):
                SystemMeasurement.load(path)

    def test_a_file_that_is_not_an_object_is_refused(self):
        with pytest.raises(MeasurementError, match="JSON object"):
            SystemMeasurement.from_dict([VALID])

"""Tests for the system-measurement sweep."""

import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gpu.memory import MemoryKind
from repro.gpu.runtime import CudaRuntime
from repro.machine.spec import SUMMIT
from repro.tempi.measurement import (
    DEFAULT_BLOCKS,
    DEFAULT_SIZES,
    MeasurementError,
    SystemMeasurement,
    _measurement_block,
    measure_system,
)
from repro.tempi.packer import Packer


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


# --------------------------------------------------------------------------- #
# The sweep takes exactly the axes a measurement file may hold
# --------------------------------------------------------------------------- #

#: Axis entries: mostly small integers, sometimes what no axis may hold.
AXIS_ITEMS = st.one_of(
    st.integers(min_value=-2, max_value=1 << 12),
    st.sampled_from([True, False, 64.5, 64.0, "64", None]),
)
#: Candidate axes: lists and tuples of those, and values that are no list.
AXIS_VALUES = st.one_of(
    st.lists(AXIS_ITEMS, max_size=4),
    st.lists(AXIS_ITEMS, max_size=4).map(tuple),
    st.sampled_from(["64,1024", 64, None, range(1, 3)]),
)
#: As :data:`AXIS_VALUES`, half of the draws a well-formed axis.
SWEEP_AXES = st.one_of(
    st.lists(st.integers(min_value=1, max_value=1 << 12), min_size=1, max_size=4, unique=True).map(sorted),
    AXIS_VALUES,
)
#: The axis measure_system is not given in the refusal wall: small and valid.
OTHER_AXIS = {"sizes": [64, 1024], "block_lengths": [1, 8]}


def _file_refuses(name, axis) -> bool:
    """Whether ``from_dict`` refuses a file whose ``name`` axis is ``axis``."""
    payload = copy.deepcopy(VALID)
    payload[name] = axis
    try:
        SystemMeasurement.from_dict(payload)
    except MeasurementError as error:
        return str(error).startswith(f"{name} ")
    return False


class TestSweepAxes:
    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(AXES), axis=AXIS_VALUES)
    @example(name="sizes", axis=(1024, 64))
    @example(name="sizes", axis=(64, 64))
    @example(name="sizes", axis=(64.5,))
    @example(name="block_lengths", axis=(8, 1))
    @example(name="block_lengths", axis=(True,))
    def test_the_sweep_refuses_exactly_the_axes_a_file_may_not_hold(self, name, axis):
        arguments = {**OTHER_AXIS, name: axis}
        if _file_refuses(name, axis):
            with pytest.raises(MeasurementError, match=rf"^{name} "):
                measure_system(SUMMIT, **arguments)
        else:
            measure_system(SUMMIT, **arguments)

    @settings(max_examples=60, deadline=None)
    @given(sizes=SWEEP_AXES, blocks=SWEEP_AXES)
    def test_every_measurement_the_sweep_returns_loads_back_equal(self, sizes, blocks):
        try:
            measurement = measure_system(SUMMIT, sizes=sizes, block_lengths=blocks)
        except MeasurementError as error:
            assert str(error).split()[0] in AXES
            return
        saved = json.dumps(measurement.to_dict())
        assert SystemMeasurement.from_dict(json.loads(saved)) == measurement


# --------------------------------------------------------------------------- #
# One allocation set, and each point's clock origin
# --------------------------------------------------------------------------- #

def _allocations(monkeypatch) -> dict[str, list[int]]:
    """Record the size of every ``malloc`` and ``host_alloc`` from now on."""
    calls: dict[str, list[int]] = {"malloc": [], "host_alloc": []}
    for name, sizes in calls.items():
        real = getattr(CudaRuntime, name)

        def counted(runtime, nbytes, *args, _real=real, _sizes=sizes, **kwargs):
            _sizes.append(nbytes)
            return _real(runtime, nbytes, *args, **kwargs)

        monkeypatch.setattr(CudaRuntime, name, counted)
    return calls


class TestOneAllocationSet:
    """Call budget: the sweep allocates one set, however large its grid."""

    def test_the_default_sweep_makes_two_mallocs_and_one_host_alloc(self, monkeypatch):
        calls = _allocations(monkeypatch)
        measure_system(SUMMIT)
        # Three allocations per grid point would be 461 mallocs and 231 host
        # allocations (344 MB).  The source spans the widest object (4 MiB of
        # 1 B runs at a 2 B pitch); the two staging buffers hold the largest
        # size.
        assert calls == {"malloc": [(8 << 20) - 1, 4 << 20], "host_alloc": [4 << 20]}

    def test_the_count_does_not_grow_with_the_grid(self, monkeypatch):
        calls = _allocations(monkeypatch)
        measure_system(SUMMIT, sizes=[64], block_lengths=[1])
        assert calls == {"malloc": [127, 64], "host_alloc": [64]}


class TestClockOrigin:
    """Every latency equals, bit for bit, the one measured on a runtime that
    allocates the point's own buffers before timing it."""

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(min_value=1, max_value=1 << 16), block=st.integers(min_value=1, max_value=1024))
    def test_a_point_prices_as_after_its_own_allocations(self, size, block):
        measured = measure_system(SUMMIT, sizes=[size], block_lengths=[block])
        gpu = SUMMIT.node.gpu

        runtime = CudaRuntime(cost_model=gpu)
        shape = _measurement_block(size, block)
        packer = Packer(shape, object_extent=shape.extent)
        source = runtime.malloc(packer.required_input(1))
        device = runtime.malloc(size)
        host = runtime.host_alloc(size, MemoryKind.HOST_MAPPED)
        expected = []
        for move, src, dst in (
            (packer.pack, source, device), (packer.unpack, device, source),
            (packer.pack, source, host), (packer.unpack, host, source),
        ):
            start = runtime.clock.now
            move(runtime, src, dst)
            expected.append(runtime.clock.now - start)

        runtime = CudaRuntime(cost_model=gpu)
        device = runtime.malloc(size)
        host = runtime.host_alloc(size, MemoryKind.HOST_PINNED)
        for dst, src in ((host, device), (device, host)):
            start = runtime.clock.now
            runtime.memcpy_async(dst, src, size)
            runtime.stream_synchronize()
            expected.append(runtime.clock.now - start)

        tables = (measured.t_pack_device, measured.t_unpack_device,
                  measured.t_pack_oneshot, measured.t_unpack_oneshot)
        got = [table[0][0] for table in tables] + [measured.t_d2h[0], measured.t_h2d[0]]
        assert [value.hex() for value in got] == [value.hex() for value in expected]

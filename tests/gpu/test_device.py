"""Tests for the simulated device."""

import pytest

from repro.gpu.device import Device, DeviceProperties
from repro.gpu.errors import CudaInvalidValue, CudaOutOfMemory


class TestDeviceProperties:
    def test_defaults_look_like_a_v100(self):
        props = DeviceProperties()
        assert props.total_memory == 16 * 1024**3
        assert props.warp_size == 32

    def test_invalid_memory_rejected(self):
        with pytest.raises(CudaInvalidValue):
            DeviceProperties(total_memory=0)


class TestDeviceAccounting:
    def test_allocation_tracks_usage(self):
        device = Device(0)
        device.allocate(1024)
        assert device.memory_in_use == 1024
        assert device.memory_free == device.properties.total_memory - 1024

    def test_release_reduces_usage(self):
        device = Device(0)
        device.allocate(2048)
        device.release(1024)
        assert device.memory_in_use == 1024

    def test_release_never_goes_negative(self):
        device = Device(0)
        device.release(4096)
        assert device.memory_in_use == 0

    def test_peak_memory_tracks_high_water_mark(self):
        device = Device(0)
        device.allocate(1000)
        device.allocate(500)
        device.release(1200)
        device.allocate(100)
        assert device.peak_memory == 1500

    def test_out_of_memory(self):
        device = Device(0, DeviceProperties(total_memory=1024))
        device.allocate(1000)
        with pytest.raises(CudaOutOfMemory):
            device.allocate(100)

    def test_negative_allocation_rejected(self):
        with pytest.raises(CudaInvalidValue):
            Device(0).allocate(-1)

    def test_negative_release_rejected(self):
        with pytest.raises(CudaInvalidValue):
            Device(0).release(-1)

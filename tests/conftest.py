"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import pytest

from repro.gpu.clock import VirtualClock
from repro.gpu.cost_model import FREE_GPU, SUMMIT_GPU, GpuCostModel
from repro.gpu.runtime import CudaRuntime
from repro.machine.spec import SUMMIT
from repro.tempi.measurement import measure_system
from repro.tempi.perf_model import PerformanceModel


@pytest.fixture
def clock() -> VirtualClock:
    """A fresh virtual clock."""
    return VirtualClock()


@pytest.fixture
def free_runtime() -> CudaRuntime:
    """A runtime whose operations cost (almost) no virtual time.

    Use this for purely functional tests so assertions about byte movement
    are not entangled with timing behaviour.
    """
    return CudaRuntime(cost_model=FREE_GPU)


@pytest.fixture
def summit_runtime() -> CudaRuntime:
    """A runtime with the Summit-like cost model."""
    return CudaRuntime(cost_model=SUMMIT_GPU)


@pytest.fixture(scope="session")
def summit_measurement():
    """One measurement sweep shared by the whole session (it is not free)."""
    return measure_system(SUMMIT)


@pytest.fixture(scope="session")
def summit_model(summit_measurement) -> PerformanceModel:
    """A performance model over the shared measurement."""
    return PerformanceModel(summit_measurement)


@pytest.fixture
def moe_seed() -> int:
    """The multinomial routing seed the MoE workload tests draw under.

    One fixed seed keeps the skewed token-routing matrices — and therefore
    the incast stall counts the tests pin — identical across runs and
    machines.  Matches ``benchmarks/bench_moe.py``'s ``SEED``.
    """
    return 3


@pytest.fixture
def host_cores(monkeypatch):
    """Kernel helpers started afresh, for a host of a chosen core count.

    ``host_cores(n)`` makes the next split launch (``repro.gpu.kernels``)
    start ``n - 1`` helper threads, as on a host with ``n`` usable cores,
    and returns the kernels module.  The helpers this test started are
    stopped and waited for afterwards, and the process's own are put back.
    """
    from repro.gpu import kernels

    monkeypatch.setattr(kernels, "_helpers", None)
    before = set(threading.enumerate())

    def pretend(cores: int):
        monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        return kernels

    yield pretend
    for jobs in kernels._helpers or ():
        jobs.put(None)
    # Wait until they have exited, so the next test counts only its own threads.
    for thread in threading.enumerate():
        if thread not in before and thread.name.startswith("kernel-helper-"):
            thread.join(timeout=10)


@pytest.fixture
def small_gpu_cost() -> GpuCostModel:
    """A cost model with round numbers, convenient for arithmetic assertions."""
    return GpuCostModel(
        kernel_launch_s=1e-6,
        kernel_sync_s=1e-6,
        memcpy_call_s=2e-6,
        alloc_s=10e-6,
        free_s=5e-6,
        host_alloc_pinned_s=20e-6,
        d2d_bandwidth=1e9,
        d2h_bandwidth=1e9,
        h2d_bandwidth=1e9,
        zero_copy_bandwidth=1e9,
        device_saturation_block=128,
        zero_copy_saturation_block=32,
        min_efficiency=1.0 / 128.0,
        unpack_penalty=2.0,
    )

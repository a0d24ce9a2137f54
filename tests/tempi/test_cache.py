"""Tests for the resource cache (Sec. 5)."""

import pytest

from repro.gpu.cost_model import SUMMIT_GPU
from repro.gpu.device import Device
from repro.gpu.errors import CudaBufferError
from repro.gpu.memory import DeviceBuffer, HostBuffer, MemoryKind
from repro.tempi.cache import ResourceCache, _StagingTracker, pool_bucket
from repro.tempi.packer import Packer
from repro.tempi.selection import ModelSelector
from repro.tempi.strided_block import StridedBlock


class TestBufferCache:
    def test_miss_allocates_and_charges_time(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        before = summit_runtime.clock.now
        buf = cache.get_buffer(4096, MemoryKind.DEVICE)
        assert buf.is_device
        assert summit_runtime.clock.now - before == pytest.approx(SUMMIT_GPU.alloc_s)
        assert cache.stats.buffer_misses == 1

    def test_hit_is_free(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        buf = cache.get_buffer(4096, MemoryKind.DEVICE)
        cache.put_buffer(buf)
        before = summit_runtime.clock.now
        again = cache.get_buffer(4096, MemoryKind.DEVICE)
        assert again is buf
        assert summit_runtime.clock.now == before
        assert cache.stats.buffer_hits == 1

    def test_disabled_cache_always_misses(self, summit_runtime):
        cache = ResourceCache(summit_runtime, enabled=False)
        buf = cache.get_buffer(1024, MemoryKind.DEVICE)
        cache.put_buffer(buf)
        again = cache.get_buffer(1024, MemoryKind.DEVICE)
        assert again is not buf
        assert cache.stats.buffer_hits == 0

    def test_disabled_cache_frees_device_buffers(self, summit_runtime):
        cache = ResourceCache(summit_runtime, enabled=False)
        buf = cache.get_buffer(1024, MemoryKind.DEVICE)
        cache.put_buffer(buf)
        assert buf.freed

    def test_pinned_host_buffers_cached_separately(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        pinned = cache.get_buffer(256, MemoryKind.HOST_PINNED)
        cache.put_buffer(pinned)
        mapped = cache.get_buffer(256, MemoryKind.HOST_MAPPED)
        assert mapped is not pinned


class TestStagingPool:
    """The size-bucketed free lists the cache keeps its intermediate buffers in."""

    PINNED = MemoryKind.HOST_PINNED

    def test_miss_then_hit(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        assert cache.get_buffer(100, MemoryKind.DEVICE).nbytes == 100  # a miss allocates
        buf = HostBuffer(128, self.PINNED)
        cache.put_buffer(buf)
        again = cache.get_buffer(100, self.PINNED)
        assert again is buf
        assert (cache.stats.buffer_hits, cache.stats.buffer_misses) == (1, 1)

    def test_bucketing_rounds_up(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        for nbytes in (1, 3, 1024, 1025):
            cache.put_buffer(HostBuffer(nbytes, self.PINNED))
        assert sorted(bucket for _, bucket in cache._free) == [1, 4, 1024, 2048]
        for nbytes, bucket in ((1, 1), (3, 4), (1024, 1024), (1025, 2048)):
            assert pool_bucket(nbytes) == bucket
            assert cache._free[self.PINNED, bucket][0].nbytes == nbytes

    def test_smaller_buffer_of_the_same_bucket_is_not_handed_out(self, summit_runtime):
        """43 008 and 45 056 bytes share the 65 536 bucket; only one fits both."""
        cache = ResourceCache(summit_runtime)
        small = HostBuffer(43008, self.PINNED)
        cache.put_buffer(small)
        large = cache.get_buffer(45056, self.PINNED)
        assert large is not small and large.nbytes == 45056
        assert len(cache) == 1  # the small buffer stays pooled ...
        cache.put_buffer(large)
        assert cache.get_buffer(45056, self.PINNED) is large
        assert cache.get_buffer(43008, self.PINNED) is small  # ... for a fit
        assert (cache.stats.buffer_hits, cache.stats.buffer_misses) == (2, 1)

    def test_zero_byte_request_uses_the_smallest_bucket(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        empty = HostBuffer(0, self.PINNED)
        cache.put_buffer(empty)
        assert list(cache._free) == [(self.PINNED, 1)]
        assert cache.get_buffer(1, self.PINNED) is not empty
        assert cache.get_buffer(0, self.PINNED) is empty

    def test_newest_fitting_buffer_is_reused_first(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        older, newer = HostBuffer(64, self.PINNED), HostBuffer(64, self.PINNED)
        cache.put_buffer(older)
        cache.put_buffer(newer)
        assert cache.get_buffer(64, self.PINNED) is newer
        assert cache.get_buffer(64, self.PINNED) is older

    def test_len_counts_pooled_buffers_across_buckets(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        device = Device(0)
        for buf in (DeviceBuffer(8, device), HostBuffer(8, self.PINNED), DeviceBuffer(300, device)):
            cache.put_buffer(buf)
        assert len(cache) == 3
        assert cache.get_buffer(257, MemoryKind.DEVICE).nbytes == 300
        assert len(cache) == 2

    def test_kind_is_part_of_key(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        pinned = HostBuffer(64, self.PINNED)
        cache.put_buffer(pinned)
        assert cache.get_buffer(64, MemoryKind.HOST_MAPPED) is not pinned

    def test_cannot_pool_freed_buffer(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        buf = HostBuffer(16)
        buf._freed = True
        with pytest.raises(CudaBufferError):
            cache.put_buffer(buf)

    def test_cannot_pool_view_of_freed_parent(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        buf = HostBuffer(16)
        view = buf.view(4)
        buf._freed = True
        with pytest.raises(CudaBufferError):
            cache.put_buffer(view)
        assert len(cache) == 0

    def test_a_carried_bucket_is_the_one_the_size_gives(self, summit_runtime):
        """A tracker checks out and returns with its stage's bucket: the same
        free list the pool would compute, and the buffer comes back to it."""
        cache = ResourceCache(summit_runtime)
        staging = _StagingTracker(cache)
        first = staging.get(None, 3000, self.PINNED, pool_bucket(3000))
        staging.release()
        assert list(cache._free) == [(self.PINNED, 4096)]
        assert cache.get_buffer(2100, self.PINNED) is first


class TestStreamCache:
    def test_stream_reuse(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        stream = cache.get_stream()
        cache.put_stream(stream)
        assert cache.get_stream() is stream
        assert cache.stats.stream_hits == 1

    def test_disabled_cache_destroys_streams(self, summit_runtime):
        cache = ResourceCache(summit_runtime, enabled=False)
        stream = cache.get_stream()
        cache.put_stream(stream)
        assert cache.get_stream() is not stream


class TestStatsAndClear:
    def test_hit_rate(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        assert cache.stats.hit_rate() == 0.0
        buf = cache.get_buffer(64, MemoryKind.DEVICE)
        cache.put_buffer(buf)
        cache.get_buffer(64, MemoryKind.DEVICE)
        assert cache.stats.hit_rate() == pytest.approx(0.5)

    def test_clear_and_len(self, summit_runtime, summit_model):
        cache = ResourceCache(summit_runtime)
        cache.put_buffer(cache.get_buffer(64, MemoryKind.DEVICE))
        cache.put_stream(cache.get_stream())
        packer = Packer(StridedBlock(start=0, counts=(8, 4), strides=(1, 16)), object_extent=64)
        ModelSelector(summit_model, cache=cache)(packer, packer.packed_size(1))  # one memo entry
        assert len(cache) == 3
        cache.clear()
        assert len(cache) == 0


class TestPersistentBuffers:
    """Keyed per-peer staging buffers for the interposed collectives."""

    def test_first_acquisition_misses(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        buf = cache.get_buffer(0, MemoryKind.DEVICE)  # warm nothing
        cache.put_buffer(buf)
        first = cache.get_persistent(("send", 3), 1024, MemoryKind.DEVICE)
        assert first.is_device
        assert cache.stats.persistent_misses == 1

    def test_same_key_reuses_same_buffer(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        first = cache.get_persistent(("send", 3), 1024, MemoryKind.DEVICE)
        before = summit_runtime.clock.now
        again = cache.get_persistent(("send", 3), 1024, MemoryKind.DEVICE)
        assert again is first
        assert summit_runtime.clock.now == before  # hits are free
        assert cache.stats.persistent_hits == 1

    def test_smaller_request_still_hits(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        first = cache.get_persistent("k", 1024, MemoryKind.DEVICE)
        assert cache.get_persistent("k", 512, MemoryKind.DEVICE) is first

    def test_growth_replaces_buffer(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        first = cache.get_persistent("k", 256, MemoryKind.DEVICE)
        bigger = cache.get_persistent("k", 4096, MemoryKind.DEVICE)
        assert bigger is not first
        assert bigger.nbytes >= 4096
        assert cache.stats.persistent_misses == 2

    def test_kind_change_replaces_buffer(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        device = cache.get_persistent("k", 256, MemoryKind.DEVICE)
        mapped = cache.get_persistent("k", 256, MemoryKind.HOST_MAPPED)
        assert mapped is not device
        assert mapped.kind is MemoryKind.HOST_MAPPED

    def test_distinct_keys_distinct_buffers(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        a = cache.get_persistent(("send", 0), 64, MemoryKind.DEVICE)
        b = cache.get_persistent(("send", 1), 64, MemoryKind.DEVICE)
        assert a is not b

    def test_disabled_cache_never_retains(self, summit_runtime):
        cache = ResourceCache(summit_runtime, enabled=False)
        first = cache.get_persistent("k", 64, MemoryKind.DEVICE)
        again = cache.get_persistent("k", 64, MemoryKind.DEVICE)
        assert again is not first
        assert cache.stats.persistent_hits == 0

    def test_clear_drops_persistent_buffers(self, summit_runtime):
        cache = ResourceCache(summit_runtime)
        cache.get_persistent("k", 64, MemoryKind.DEVICE)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

"""The resource cache (Sec. 5).

CUDA resources (streams, pinned and device intermediate buffers) and
performance-model queries are far too slow to acquire on every send —
microseconds to milliseconds versus the tens-of-nanoseconds budget of an
interposed call.  TEMPI therefore caches them, keyed by what iterative
applications repeat: the same datatypes, the same buffer sizes, the same
model queries.  This module provides that cache for the reproduction; the
ablation benchmark ``bench_ablation_cache.py`` measures what it buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional

from repro.gpu.memory import Buffer, MemoryKind, MemoryPool
from repro.gpu.runtime import CudaRuntime
from repro.gpu.stream import Stream


@dataclass
class CacheStats:
    """Hit/miss counters, split by resource class."""

    buffer_hits: int = 0
    buffer_misses: int = 0
    stream_hits: int = 0
    stream_misses: int = 0
    query_hits: int = 0
    query_misses: int = 0
    #: Keyed (per-peer collective staging) buffers, reused across iterations.
    persistent_hits: int = 0
    persistent_misses: int = 0

    def hit_rate(self) -> float:
        hits = self.buffer_hits + self.stream_hits + self.query_hits + self.persistent_hits
        total = (
            hits
            + self.buffer_misses
            + self.stream_misses
            + self.query_misses
            + self.persistent_misses
        )
        return hits / total if total else 0.0


class ResourceCache:
    """Caches intermediate buffers, streams and pure model queries."""

    def __init__(self, runtime: CudaRuntime, *, enabled: bool = True) -> None:
        self.runtime = runtime
        self.enabled = enabled
        self.stats = CacheStats()
        self._pool = MemoryPool()
        self._streams: list[Stream] = []
        self._queries: dict[Hashable, object] = {}
        self._query_keys: set[Hashable] = set()
        self._persistent: dict[Hashable, Buffer] = {}

    # ---------------------------------------------------------------- buffers
    def get_buffer(self, nbytes: int, kind: MemoryKind) -> Buffer:
        """An intermediate buffer of at least ``nbytes`` of ``kind``.

        Cache hits cost nothing on the virtual clock; misses pay the full
        ``cudaMalloc`` / ``cudaHostAlloc`` latency.
        """
        if self.enabled:
            cached = self._pool.acquire(nbytes, kind)
            if cached is not None:
                self.stats.buffer_hits += 1
                return cached
        self.stats.buffer_misses += 1
        if kind is MemoryKind.DEVICE:
            return self.runtime.malloc(max(1, nbytes))
        return self.runtime.host_alloc(max(1, nbytes), kind)

    def put_buffer(self, buffer: Buffer) -> None:
        """Return an intermediate buffer for reuse (freed when caching is off)."""
        if self.enabled:
            self._pool.release(buffer)
        elif buffer.is_device:
            self.runtime.free(buffer)

    def get_persistent(self, key: Hashable, nbytes: int, kind: MemoryKind) -> Buffer:
        """A keyed staging buffer held by the cache itself (not checked out).

        Collectives stage one segment per peer, every iteration, with stable
        sizes — exactly the reuse pattern that makes per-peer keys win over
        the size-bucketed pool: the buffer stays bound to its key, so an
        iterative application's second exchange performs zero acquisitions.
        A buffer too small (or of the wrong kind) for its key is replaced
        through the pool, which charges the allocation latency.
        """
        cached = self._persistent.get(key) if self.enabled else None
        if cached is not None and cached.nbytes >= nbytes and cached.kind is kind:
            self.stats.persistent_hits += 1
            return cached
        self.stats.persistent_misses += 1
        if cached is not None:
            self._pool.release(cached)
        fresh = self.get_buffer(nbytes, kind)
        if self.enabled:
            self._persistent[key] = fresh
        return fresh

    # ---------------------------------------------------------------- streams
    def get_stream(self) -> Stream:
        """A stream for pack/unpack work."""
        if self.enabled and self._streams:
            self.stats.stream_hits += 1
            return self._streams.pop()
        self.stats.stream_misses += 1
        return self.runtime.stream_create()

    def put_stream(self, stream: Stream) -> None:
        """Return a stream for reuse."""
        if self.enabled:
            self._streams.append(stream)
        else:
            self.runtime.stream_destroy(stream)

    # ---------------------------------------------------------------- queries
    def memoize(self, key: Hashable, compute: Callable[[], object]) -> object:
        """Cache a pure computation (performance-model interpolation)."""
        if self.enabled and key in self._queries:
            self.stats.query_hits += 1
            return self._queries[key]
        self.stats.query_misses += 1
        value = compute()
        if self.enabled:
            self._queries[key] = value
        return value

    def note_query(self, key: Hashable) -> bool:
        """Record that ``key`` was queried; True if it was seen before.

        The selection-memo-off path uses this to keep the *charge schedule*
        of :meth:`memoize` (first query cold, repeats at the cached-query
        cost) while discarding the memoised value itself, so ablations price
        identically to the memoised path.
        """
        if self.enabled and key in self._query_keys:
            self.stats.query_hits += 1
            return True
        self.stats.query_misses += 1
        if self.enabled:
            self._query_keys.add(key)
        return False

    def clear(self) -> None:
        """Drop everything (between benchmark configurations)."""
        self._pool = MemoryPool()
        self._streams.clear()
        self._queries.clear()
        self._query_keys.clear()
        self._persistent.clear()

    def __len__(self) -> int:
        return len(self._pool) + len(self._streams) + len(self._queries) + len(self._persistent)


class _StagingTracker:
    """Per-execution view of the cache's keyed staging buffers.

    Keyed stages bind to persistent per-peer buffers (the reuse of Sec. 5);
    keyless stages check transient buffers out of the size-bucketed pool.
    With caching off there is nothing to hold persistent buffers either, so
    the tracker releases every acquisition when the execution ends instead of
    leaking one allocation per peer per call.
    """

    def __init__(self, cache: ResourceCache) -> None:
        self.cache = cache
        self._transient: list = []

    def get(self, key, nbytes: int, kind: MemoryKind):
        if key is None:
            buffer = self.cache.get_buffer(nbytes, kind)
            self._transient.append(buffer)
            return buffer
        buffer = self.cache.get_persistent(key, nbytes, kind)
        if not self.cache.enabled:
            self._transient.append(buffer)
        return buffer

    def release(self) -> None:
        for buffer in self._transient:
            self.cache.put_buffer(buffer)
        self._transient.clear()

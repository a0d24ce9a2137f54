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
from typing import Hashable, Optional

from repro.gpu.errors import CudaBufferError
from repro.gpu.memory import Buffer, MemoryKind
from repro.gpu.runtime import CudaRuntime
from repro.gpu.stream import Stream


def pool_bucket(nbytes: int) -> int:
    """The staging pool's size class of an ``nbytes`` request: the next power
    of two, 1 for 0 and 1 bytes.  A keyless plan stage takes its own at
    compile, so a warm checkout computes none."""
    return 1 << (nbytes - 1).bit_length() if nbytes > 1 else 1


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
    """Caches intermediate buffers (pooled by kind and :func:`pool_bucket`),
    streams and pure model queries."""

    def __init__(self, runtime: CudaRuntime, *, enabled: bool = True) -> None:
        self.runtime = runtime
        self.enabled = enabled
        self.stats = CacheStats()
        #: The staging pool: free buffers by ``(kind, bucket)``, newest last.
        self._free: dict[tuple[MemoryKind, int], list[Buffer]] = {}
        self._streams: list[Stream] = []
        #: The model-query memo, key -> decision: probed and filled by
        #: :class:`~repro.tempi.selection.ModelSelector`, which books its
        #: ``query_hits``/``query_misses`` (and a steady persistent restart
        #: probes it, :func:`~repro.tempi.interposer.charge_batch`).
        self._queries: dict[Hashable, object] = {}
        self._query_keys: set[Hashable] = set()
        self._persistent: dict[Hashable, Buffer] = {}

    # ---------------------------------------------------------------- buffers
    def get_buffer(self, nbytes: int, kind: MemoryKind, bucket: Optional[int] = None) -> Buffer:
        """An intermediate buffer of at least ``nbytes`` of ``kind``.

        ``bucket`` is ``pool_bucket(nbytes)`` when the caller carries it.
        Cache hits cost nothing on the virtual clock; misses pay the full
        ``cudaMalloc`` / ``cudaHostAlloc`` latency.
        """
        if self.enabled:
            free, key = self._free, (kind, pool_bucket(nbytes) if bucket is None else bucket)
            stack = free[key] if key in free else None
            if stack:
                # Newest first.  A miss allocates exactly what it asked for, so
                # a bucket also holds buffers smaller than this request: those
                # are skipped and stay pooled (negative indices: no call).
                index = -1
                try:
                    while stack[index].nbytes < nbytes:
                        index -= 1
                except IndexError:
                    pass
                else:
                    self.stats.buffer_hits += 1
                    return stack.pop(index)
        self.stats.buffer_misses += 1
        if nbytes < 1:
            nbytes = 1
        if kind is MemoryKind.DEVICE:
            return self.runtime.malloc(nbytes)
        return self.runtime.host_alloc(nbytes, kind)

    def put_buffer(self, buffer: Buffer, bucket: Optional[int] = None) -> None:
        """Return an intermediate buffer for reuse (freed when caching is off),
        to ``bucket``, its :meth:`get_buffer` request's, when the caller kept it."""
        if not self.enabled:
            if buffer.is_device:
                self.runtime.free(buffer)
            return
        if buffer._freed or buffer._parent is not None and buffer._parent._freed:
            raise CudaBufferError("cannot pool a freed buffer")
        free = self._free
        key = (buffer.kind, pool_bucket(buffer.nbytes) if bucket is None else bucket)
        if key in free:
            free[key].append(buffer)
        else:
            free[key] = [buffer]

    def get_persistent(self, key: Hashable, nbytes: int, kind: MemoryKind) -> Buffer:
        """A keyed staging buffer held by the cache itself (not checked out).

        Collectives stage one segment per peer, every iteration, with stable
        sizes — exactly the reuse pattern that makes per-peer keys win over
        the size-bucketed pool: the buffer stays bound to its key, so an
        iterative application's second exchange performs zero acquisitions.
        A buffer too small (or of the wrong kind) for its key is replaced
        through the pool, which charges the allocation latency.
        """
        persistent = self._persistent
        cached = persistent[key] if self.enabled and key in persistent else None
        if cached is not None and cached.nbytes >= nbytes and cached.kind is kind:
            self.stats.persistent_hits += 1
            return cached
        self.stats.persistent_misses += 1
        if cached is not None:
            self.put_buffer(cached)
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
    def note_query(self, key: Hashable) -> bool:
        """Record that ``key`` was queried; True if it was seen before.

        The selection-memo-off path uses this to keep the memo's *charge
        schedule* (first query cold, repeats at the cached-query cost) while
        discarding the memoised value itself, so ablations price identically
        to the memoised path.
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
        self._free.clear()
        self._streams.clear()
        self._queries.clear()
        self._query_keys.clear()
        self._persistent.clear()

    def __len__(self) -> int:
        pooled = sum(map(len, self._free.values()))
        return pooled + len(self._streams) + len(self._queries) + len(self._persistent)


class _StagingTracker:
    """Per-execution view of the cache's keyed staging buffers.

    Keyed stages bind to persistent per-peer buffers (the reuse of Sec. 5);
    keyless stages check transient buffers out of the pool with the bucket
    their stage carries, kept beside the buffer for the return.  With caching
    off there is nothing to hold persistent buffers either, so the tracker
    releases every acquisition when the execution ends instead of leaking one
    allocation per peer per call.
    """

    def __init__(self, cache: ResourceCache) -> None:
        self.cache = cache
        self._transient: list = []

    def get(self, key, nbytes: int, kind: MemoryKind, bucket: Optional[int] = None):
        if key is None:
            buffer = self.cache.get_buffer(nbytes, kind, bucket)
            self._transient.append((buffer, bucket))
            return buffer
        buffer = self.cache.get_persistent(key, nbytes, kind)
        if not self.cache.enabled:
            self._transient.append((buffer, None))
        return buffer

    def release(self) -> None:
        put = self.cache.put_buffer
        for buffer, bucket in self._transient:
            put(buffer, bucket)
        self._transient = []  # not ``clear()``, a call per execution

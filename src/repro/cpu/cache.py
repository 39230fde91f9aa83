"""Set-associative caches, TLBs and the main-memory latency model.

Caches are write-back/write-allocate with true LRU replacement.
``access`` returns the full latency of the access including lower
levels of the hierarchy; ``warm`` updates state without computing
latency (used by fast functional warming).

Every backend uses these classes.  Their state lives in one
preallocated flat list per table, which the vectorized passes of
:mod:`repro.cpu.kernels.numpy_impl` and the generated loops of
:mod:`repro.cpu.kernels.codegen` index directly, while the reference
interpreter loops call the per-access methods below.  Layout:

* a set occupies ``assoc`` consecutive slots starting at
  ``set_index * assoc``, most-recently-used first;
* ``-1`` marks an invalid way (addresses and page ids are always
  non-negative, so ``-1`` never aliases a real tag);
* counters live in small integer lists (``stats``) so the kernels can
  update them in place.

Each class names its warm-state lists once, in ``STATE_ARRAYS``;
checkpoints (:mod:`repro.cpu.checkpoint`) store exactly those lists.
"""

from __future__ import annotations

from typing import Optional

# Indices into cache ``stats`` vectors.
STAT_HITS = 0
STAT_MISSES = 1
STAT_PREFETCHES = 2


class MainMemory:
    """Burst-transfer main-memory latency model.

    A block fill costs ``latency_first`` for the first ``bus_width``
    bytes plus ``latency_next`` per additional bus beat, SimpleScalar
    style.  ``stats`` holds ``[accesses]``.
    """

    STATE_ARRAYS = ("stats",)

    def __init__(
        self, latency_first: int, latency_next: int, bus_width: int
    ) -> None:
        if latency_first <= 0 or latency_next <= 0 or bus_width <= 0:
            raise ValueError("memory latencies and bus width must be positive")
        self.latency_first = latency_first
        self.latency_next = latency_next
        self.bus_width = bus_width
        self.stats = [0]

    @property
    def accesses(self) -> int:
        return int(self.stats[0])

    def fill_latency(self, block_bytes: int) -> int:
        """Latency to transfer one block of ``block_bytes``."""
        beats = max(1, block_bytes // self.bus_width)
        return self.latency_first + (beats - 1) * self.latency_next

    def access(self, block_bytes: int) -> int:
        self.stats[0] += 1
        return self.fill_latency(block_bytes)



class Cache:
    """One level of a set-associative cache hierarchy.

    Parameters
    ----------
    name:
        Label used in statistics reporting.
    size_bytes, assoc, block_bytes:
        Geometry.  ``size_bytes`` must be divisible by
        ``assoc * block_bytes``; the set count must be a power of two.
    hit_latency:
        Cycles for a hit at this level.
    parent:
        Next level (another :class:`Cache`) or ``None``.
    memory:
        The :class:`MainMemory` filling this level when ``parent`` is
        ``None``.
    next_line_prefetch:
        Jouppi-style next-line prefetching: a miss also fills the next
        sequential block (speculatively, off the critical path).
    """

    STATE_ARRAYS = ("tags", "stats")

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        block_bytes: int,
        hit_latency: int,
        parent: Optional["Cache"] = None,
        memory: Optional[MainMemory] = None,
        next_line_prefetch: bool = False,
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or block_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if block_bytes & (block_bytes - 1):
            raise ValueError("block size must be a power of two")
        num_sets = size_bytes // (assoc * block_bytes)
        if num_sets == 0:
            raise ValueError("cache smaller than one set")
        if num_sets & (num_sets - 1):
            raise ValueError(
                f"{name}: set count {num_sets} must be a power of two "
                f"(size={size_bytes}, assoc={assoc}, block={block_bytes})"
            )
        if parent is None and memory is None:
            raise ValueError("cache needs a parent or a memory model")
        self.name = name
        self.assoc = assoc
        self.block_bytes = block_bytes
        self.block_shift = block_bytes.bit_length() - 1
        self.set_mask = num_sets - 1
        self.num_sets = num_sets
        self.hit_latency = hit_latency
        self.parent = parent
        self.memory = memory
        self.next_line_prefetch = next_line_prefetch
        self.tags = [-1] * (num_sets * assoc)
        self.stats = [0] * 3

    # -- counters ------------------------------------------------------------

    @property
    def hits(self) -> int:
        return int(self.stats[STAT_HITS])

    @property
    def misses(self) -> int:
        return int(self.stats[STAT_MISSES])

    @property
    def prefetches(self) -> int:
        return int(self.stats[STAT_PREFETCHES])

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.stats[STAT_HITS] = 0
        self.stats[STAT_MISSES] = 0
        self.stats[STAT_PREFETCHES] = 0

    # -- queries -------------------------------------------------------------

    def contains(self, addr: int) -> bool:
        """Whether the block holding ``addr`` is resident (no update)."""
        block = addr >> self.block_shift
        base = (block & self.set_mask) * self.assoc
        for way in range(self.assoc):
            if self.tags[base + way] == block:
                return True
        return False

    # -- per-access paths (the interpreter loops) -----------------------------

    def access(self, addr: int) -> int:
        """Access ``addr``; returns total latency including fills."""
        block = addr >> self.block_shift
        assoc = self.assoc
        base = (block & self.set_mask) * assoc
        tags = self.tags
        if tags[base] == block:
            self.stats[STAT_HITS] += 1
            return self.hit_latency
        for way in range(1, assoc):
            if tags[base + way] == block:
                for shift in range(way, 0, -1):
                    tags[base + shift] = tags[base + shift - 1]
                tags[base] = block
                self.stats[STAT_HITS] += 1
                return self.hit_latency
        self.stats[STAT_MISSES] += 1
        if self.parent is not None:
            latency = self.hit_latency + self.parent.access(addr)
        else:
            latency = self.hit_latency + self.memory.access(self.block_bytes)
        for shift in range(assoc - 1, 0, -1):
            tags[base + shift] = tags[base + shift - 1]
        tags[base] = block
        if self.next_line_prefetch:
            self._prefetch(block + 1)
        return latency

    def warm(self, addr: int) -> None:
        """State-only access (functional warming): no latency computed."""
        block = addr >> self.block_shift
        assoc = self.assoc
        base = (block & self.set_mask) * assoc
        tags = self.tags
        if tags[base] == block:
            return
        for way in range(1, assoc):
            if tags[base + way] == block:
                for shift in range(way, 0, -1):
                    tags[base + shift] = tags[base + shift - 1]
                tags[base] = block
                return
        if self.parent is not None:
            self.parent.warm(addr)
        for shift in range(assoc - 1, 0, -1):
            tags[base + shift] = tags[base + shift - 1]
        tags[base] = block
        if self.next_line_prefetch:
            self._warm_insert(block + 1)

    def _prefetch(self, block: int) -> None:
        """Insert the given block (and propagate to the parent) without
        charging latency -- the prefetch overlaps execution."""
        self.stats[STAT_PREFETCHES] += 1
        addr = block << self.block_shift
        if self.parent is not None:
            self.parent.warm(addr)
        self._warm_insert(block)

    def _warm_insert(self, block: int) -> None:
        assoc = self.assoc
        base = (block & self.set_mask) * assoc
        tags = self.tags
        found = assoc - 1
        for way in range(assoc):
            if tags[base + way] == block:
                found = way
                break
        for shift in range(found, 0, -1):
            tags[base + shift] = tags[base + shift - 1]
        tags[base] = block


class TLB:
    """A translation lookaside buffer: configured like a tiny cache of
    page-granular entries with a fixed miss (walk) latency."""

    PAGE_BYTES = 4096
    STATE_ARRAYS = ("tags", "stats")

    def __init__(
        self, name: str, entries: int, miss_latency: int, assoc: int = 4
    ) -> None:
        if entries <= 0 or miss_latency <= 0:
            raise ValueError("TLB entries and miss latency must be positive")
        assoc = min(assoc, entries)
        num_sets = max(1, entries // assoc)
        num_sets = 1 << (num_sets.bit_length() - 1)
        self.name = name
        self.assoc = max(1, entries // num_sets)
        self.set_mask = num_sets - 1
        self.num_sets = num_sets
        self.page_shift = self.PAGE_BYTES.bit_length() - 1
        self.miss_latency = miss_latency
        self.tags = [-1] * (num_sets * self.assoc)
        self.stats = [0] * 2

    @property
    def hits(self) -> int:
        return int(self.stats[STAT_HITS])

    @property
    def misses(self) -> int:
        return int(self.stats[STAT_MISSES])

    def reset_stats(self) -> None:
        self.stats[STAT_HITS] = 0
        self.stats[STAT_MISSES] = 0

    def access(self, addr: int) -> int:
        """Translate ``addr``; returns 0 on a hit, the walk latency on a miss."""
        page = addr >> self.page_shift
        assoc = self.assoc
        base = (page & self.set_mask) * assoc
        tags = self.tags
        if tags[base] == page:
            self.stats[STAT_HITS] += 1
            return 0
        for way in range(1, assoc):
            if tags[base + way] == page:
                for shift in range(way, 0, -1):
                    tags[base + shift] = tags[base + shift - 1]
                tags[base] = page
                self.stats[STAT_HITS] += 1
                return 0
        self.stats[STAT_MISSES] += 1
        for shift in range(assoc - 1, 0, -1):
            tags[base + shift] = tags[base + shift - 1]
        tags[base] = page
        return self.miss_latency

    def warm(self, addr: int) -> None:
        """State-only translation (functional warming).

        Unlike :meth:`access`, this counts no hits or misses -- mirroring
        :meth:`Cache.warm`, warming trains the structure without
        polluting its statistics.
        """
        page = addr >> self.page_shift
        assoc = self.assoc
        base = (page & self.set_mask) * assoc
        tags = self.tags
        if tags[base] == page:
            return
        for way in range(1, assoc):
            if tags[base + way] == page:
                for shift in range(way, 0, -1):
                    tags[base + shift] = tags[base + shift - 1]
                tags[base] = page
                return
        for shift in range(assoc - 1, 0, -1):
            tags[base + shift] = tags[base + shift - 1]
        tags[base] = page

"""Column-oriented dynamic instruction traces.

A :class:`Trace` holds one dynamic instruction stream as parallel NumPy
arrays (one per field).  This layout lets workload generation and BBV
profiling run vectorized, while the timing model converts the columns
it iterates into plain Python lists once (list indexing is much faster
than NumPy scalar access inside an interpreter loop).
"""

from __future__ import annotations

import mmap
import sys
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

# Flag bits for the ``flags`` column.
FLAG_COND_BRANCH = 1  #: conditional branch
FLAG_TAKEN = 2  #: branch/jump outcome was taken
FLAG_CALL = 4  #: call instruction (pushes return address)
FLAG_RETURN = 8  #: return instruction (pops return address)
FLAG_UNCOND = 16  #: unconditional jump
FLAG_TRIVIAL = 32  #: dynamically trivial computation (TC candidate)

FLAG_ANY_BRANCH = (
    FLAG_COND_BRANCH | FLAG_CALL | FLAG_RETURN | FLAG_UNCOND
)

# Branch-kind codes for the precomputed ``branch_kinds`` column: one
# small integer per instruction instead of repeated flag tests in the
# per-instruction loops.
BK_NONE = 0
BK_COND = 1
BK_CALL = 2
BK_RETURN = 3
BK_UNCOND = 4

#: Page size used for TLB indexing (4 KB pages, fixed ISA-wide).
PAGE_SHIFT = 12

_COLUMN_NAMES = (
    "op", "dst", "src1", "src2", "pc", "block", "addr", "flags", "target",
)


#: Bytes of region artifacts one trace keeps (:meth:`Trace.region_memo`).
REGION_MEMO_BYTES = 64 * 1024 * 1024


def _footprint(value) -> int:
    """Approximate bytes held by one memoized region artifact: arrays,
    lists (of numbers or row tuples) and small tuples of those."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(map(_footprint, value))
    if isinstance(value, list) and value:
        return len(value) * (8 + sys.getsizeof(value[0]))
    return sys.getsizeof(value)


@dataclass
class Trace:
    """A dynamic instruction stream.

    All arrays share the same length.  ``pc`` and ``addr`` are byte
    addresses; ``addr`` is zero for non-memory instructions.  ``block``
    is the static basic-block id of each instruction, used for
    execution-profile characterization and SimPoint BBVs.
    """

    op: np.ndarray  # uint8 OpClass
    dst: np.ndarray  # int16 register (-1 none)
    src1: np.ndarray  # int16
    src2: np.ndarray  # int16
    pc: np.ndarray  # int64
    block: np.ndarray  # int32
    addr: np.ndarray  # int64
    flags: np.ndarray  # uint8
    target: np.ndarray  # int64 branch target pc (0 if not a branch)
    num_blocks: int = 0
    _list_cache: dict = field(default_factory=dict, repr=False)
    _region_cache: dict = field(default_factory=dict, repr=False)
    _region_bytes: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        length = len(self.op)
        for name in ("dst", "src1", "src2", "pc", "block", "addr", "flags", "target"):
            if len(getattr(self, name)) != length:
                raise ValueError(f"column {name!r} length mismatch")
        if self.num_blocks == 0 and length:
            self.num_blocks = int(self.block.max()) + 1

    def __len__(self) -> int:
        return len(self.op)

    def column_lists(self, start: int = 0, end: int | None = None) -> Tuple[List, ...]:
        """Columns converted to Python lists for the timing loop.

        Returns ``(op, dst, src1, src2, pc, block, addr, flags, target)``
        over ``[start, end)``.  Full-trace conversions are cached.
        """
        if end is None:
            end = len(self)
        full = self._list_cache.get("full")
        if start == 0 and end == len(self):
            if full is None:
                full = tuple(
                    getattr(self, name).tolist() for name in _COLUMN_NAMES
                )
                self._list_cache["full"] = full
            return full
        if full is not None:
            # Slicing the cached Python lists (a pointer copy) is much
            # cheaper than re-running ``ndarray.tolist`` per chunk.
            return tuple(column[start:end] for column in full)
        return tuple(
            getattr(self, name)[start:end].tolist() for name in _COLUMN_NAMES
        )

    def region_memo(self, key: Tuple, build):
        """Memoized backend artifact for one trace region.

        Simulation kernels derive many pure functions of a region --
        event index sets, deduplicated access streams, predictor
        feeds.  Techniques and benchmarks revisit the same regions
        (across configurations, warm-up/measure splits and repeated
        runs), so these are cached here rather than recomputed.
        ``key`` must fully determine the artifact: region bounds plus
        any structure geometry it depends on.  The cache is bounded by
        bytes (:data:`REGION_MEMO_BYTES`): the oldest entries are
        evicted first, and the newest is always kept.  A worker process
        runs a whole session's tasks, so the bound is also what it
        carries from one task to the next.
        """
        cache = self._region_cache
        entry = cache.get(key)
        if entry is None:
            value = build()
            entry = cache[key] = (value, _footprint(value))
            self._region_bytes += entry[1]
            while self._region_bytes > REGION_MEMO_BYTES and len(cache) > 1:
                oldest = next(iter(cache))
                self._region_bytes -= cache.pop(oldest)[1]
        return entry[0]

    def drop_pages(self) -> None:
        """Let the OS drop the column pages this process has read.

        A stored trace's columns are read-only file maps, so dropped
        pages come back from the page cache when next read; columns
        built in memory are left alone.
        """
        for name in _COLUMN_NAMES:
            mapped = getattr(self, name).base
            if isinstance(mapped, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED"):
                mapped.madvise(mmap.MADV_DONTNEED)

    # -- derived columns for the kernel backends -------------------------------

    def pages(self) -> np.ndarray:
        """Cached 4 KB page id of each instruction's PC."""
        cached = self._list_cache.get("pages")
        if cached is None:
            cached = self.pc >> PAGE_SHIFT
            self._list_cache["pages"] = cached
        return cached

    def data_pages(self) -> np.ndarray:
        """Cached 4 KB page id of each instruction's data address."""
        cached = self._list_cache.get("data_pages")
        if cached is None:
            cached = self.addr >> PAGE_SHIFT
            self._list_cache["data_pages"] = cached
        return cached

    def fetch_blocks(self, block_shift: int) -> np.ndarray:
        """Cached fetch-block id (``pc >> block_shift``) per instruction.

        The shift depends on the configured I-cache block size, so the
        cache is keyed by shift; sweeps share entries per distinct
        geometry instead of re-doing the bit-twiddling per run.
        """
        key = ("fetch_blocks", block_shift)
        cached = self._list_cache.get(key)
        if cached is None:
            cached = self.pc >> block_shift
            self._list_cache[key] = cached
        return cached

    def data_blocks(self, block_shift: int) -> np.ndarray:
        """Cached data-block id (``addr >> block_shift``) per instruction."""
        key = ("data_blocks", block_shift)
        cached = self._list_cache.get(key)
        if cached is None:
            cached = self.addr >> block_shift
            self._list_cache[key] = cached
        return cached

    def branch_kinds(self) -> np.ndarray:
        """Cached branch-kind code (``BK_*``) per instruction.

        Assignments run in *reverse* precedence order so that an
        instruction carrying several branch flags ends up with the same
        kind the simulation loops' if/elif chains would pick
        (cond > call > return > uncond).
        """
        cached = self._list_cache.get("branch_kinds")
        if cached is None:
            flags = self.flags
            cached = np.zeros(len(flags), dtype=np.int64)
            cached[(flags & FLAG_UNCOND) != 0] = BK_UNCOND
            cached[(flags & FLAG_RETURN) != 0] = BK_RETURN
            cached[(flags & FLAG_CALL) != 0] = BK_CALL
            cached[(flags & FLAG_COND_BRANCH) != 0] = BK_COND
            self._list_cache["branch_kinds"] = cached
        return cached

    def taken_bits(self) -> np.ndarray:
        """Cached taken flag (0/1 int64) per instruction."""
        cached = self._list_cache.get("taken_bits")
        if cached is None:
            cached = ((self.flags & FLAG_TAKEN) != 0).astype(np.int64)
            self._list_cache["taken_bits"] = cached
        return cached

    def trivial_bits(self) -> np.ndarray:
        """Cached trivial-computation flag (0/1 int64) per instruction."""
        cached = self._list_cache.get("trivial_bits")
        if cached is None:
            cached = ((self.flags & FLAG_TRIVIAL) != 0).astype(np.int64)
            self._list_cache["trivial_bits"] = cached
        return cached

    def timing_lists(
        self,
        trivial_enabled: bool,
        start: int = 0,
        end: int | None = None,
        merge_ctrl: bool = False,
    ) -> List[Tuple[int, int, int, int]]:
        """Cached ``(code, dst, src1, src2)`` tuples for the
        split-phase timing loop over ``[start, end)``.

        ``code`` is the op class with every control op (>= BRANCH)
        folded to 8 (pool 0, unit latency) and -- when the trivial
        computation enhancement is on -- trivially simplifiable non-
        memory ops folded to 15.  With ``merge_ctrl`` control ops fold
        to 0 instead: when the integer-ALU latency is one cycle the
        two dispatch arms are indistinguishable, so the loop can drop
        one branch of its dispatch chain.  Register ids use the
        sentinel mapping: a missing destination (-1) becomes
        ``NUM_REGS`` (a write-only scratch slot) and a missing source
        becomes ``NUM_REGS + 1`` (a slot that is always ready at cycle
        0), so the hot loop needs no validity branches.  The rows are
        prezipped into one tuple list (cheaper to iterate than a zip
        of four columns).  A short region of a long trace converts (and
        memoizes) just its slice -- the full conversion costs an order
        of magnitude more than such a region needs; the full-trace
        conversion is built and cached the first time a caller asks for
        a large region, after which slices are pointer copies.
        """
        if end is None:
            end = len(self)
        key = ("timing", bool(trivial_enabled), bool(merge_ctrl))
        full = self._list_cache.get(key)
        if full is None:
            if (end - start) * 8 < len(self):
                return self.region_memo(
                    key + (start, end),
                    lambda: self._timing_rows(
                        trivial_enabled, merge_ctrl, start, end
                    ),
                )
            full = self._timing_rows(trivial_enabled, merge_ctrl, 0, len(self))
            self._list_cache[key] = full
        if start == 0 and end == len(self):
            return full
        return self.region_memo(key + (start, end), lambda: full[start:end])

    def _timing_rows(
        self, trivial_enabled: bool, merge_ctrl: bool, start: int, end: int
    ) -> List[Tuple[int, int, int, int]]:
        from repro.isa.instructions import NUM_REGS

        op = self.op[start:end].astype(np.int64)
        codes = np.where(op >= 8, 0 if merge_ctrl else 8, op)
        if trivial_enabled:
            trivial = (
                (self.trivial_bits()[start:end] != 0) & (op != 6) & (op != 7)
            )
            codes = np.where(trivial, 15, codes)
        dst = self.dst[start:end].astype(np.int64)
        src1 = self.src1[start:end].astype(np.int64)
        src2 = self.src2[start:end].astype(np.int64)
        return list(
            zip(
                codes.tolist(),
                np.where(dst < 0, NUM_REGS, dst).tolist(),
                np.where(src1 < 0, NUM_REGS + 1, src1).tolist(),
                np.where(src2 < 0, NUM_REGS + 1, src2).tolist(),
            )
        )

    def block_execution_counts(self, start: int = 0, end: int | None = None) -> np.ndarray:
        """Per-block *instruction* counts over ``[start, end)`` (BBV).

        Each element ``i`` is the number of dynamic instructions executed
        from basic block ``i``.
        """
        if end is None:
            end = len(self)
        return np.bincount(self.block[start:end], minlength=self.num_blocks)

    def block_entry_counts(self, start: int = 0, end: int | None = None) -> np.ndarray:
        """Per-block *entry* counts over ``[start, end)`` (BBEF).

        A block entry is counted each time control flow enters the
        block, i.e. at each position where the block id differs from
        the previous instruction's block id.
        """
        if end is None:
            end = len(self)
        blocks = self.block[start:end]
        if len(blocks) == 0:
            return np.zeros(self.num_blocks, dtype=np.int64)
        entries = np.empty(len(blocks), dtype=bool)
        entries[0] = True
        np.not_equal(blocks[1:], blocks[:-1], out=entries[1:])
        return np.bincount(blocks[entries], minlength=self.num_blocks)

    def interval_bbvs(self, interval: int) -> np.ndarray:
        """BBV matrix: one row per fixed-size interval (SimPoint input).

        The final partial interval, if any, is included as its own row.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        n = len(self)
        num_intervals = (n + interval - 1) // interval
        bbvs = np.zeros((num_intervals, self.num_blocks), dtype=np.int64)
        for i in range(num_intervals):
            start = i * interval
            bbvs[i] = self.block_execution_counts(start, min(start + interval, n))
        return bbvs


class TraceBuilder:
    """Accumulates trace segments and finalizes them into a :class:`Trace`."""

    def __init__(self) -> None:
        self._segments: List[Tuple[np.ndarray, ...]] = []

    def append(
        self,
        op: np.ndarray,
        dst: np.ndarray,
        src1: np.ndarray,
        src2: np.ndarray,
        pc: np.ndarray,
        block: np.ndarray,
        addr: np.ndarray,
        flags: np.ndarray,
        target: np.ndarray,
    ) -> None:
        self._segments.append((op, dst, src1, src2, pc, block, addr, flags, target))

    def __len__(self) -> int:
        return sum(len(segment[0]) for segment in self._segments)

    def build(self, num_blocks: int = 0) -> Trace:
        if not self._segments:
            empty = np.zeros(0)
            return Trace(
                op=empty.astype(np.uint8),
                dst=empty.astype(np.int16),
                src1=empty.astype(np.int16),
                src2=empty.astype(np.int16),
                pc=empty.astype(np.int64),
                block=empty.astype(np.int32),
                addr=empty.astype(np.int64),
                flags=empty.astype(np.uint8),
                target=empty.astype(np.int64),
                num_blocks=num_blocks,
            )
        columns = [np.concatenate(parts) for parts in zip(*self._segments)]
        return Trace(*columns, num_blocks=num_blocks)


def iterate_flags(flags: int) -> Iterator[str]:
    """Names of the flag bits set in ``flags`` (debugging helper)."""
    names = {
        FLAG_COND_BRANCH: "cond_branch",
        FLAG_TAKEN: "taken",
        FLAG_CALL: "call",
        FLAG_RETURN: "return",
        FLAG_UNCOND: "uncond",
        FLAG_TRIVIAL: "trivial",
    }
    for bit, name in names.items():
        if flags & bit:
            yield name

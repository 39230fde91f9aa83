"""Flat-array microarchitectural state for the kernel backends.

These classes mirror the reference structures in :mod:`repro.cpu.cache`
and :mod:`repro.cpu.branch` exactly -- same geometry rules, same LRU
semantics, same counters -- but hold their state in one preallocated
flat list per table instead of a list per set.  The flat layout is what
the vectorized passes and the generated timing loops index directly;
the ordinary ``access``/``warm``/``predict_update`` methods are kept as
faithful (slower) reference paths so the structures remain drop-in
compatible with the existing ``Machine`` API.

Layout conventions:

* a cache/TLB/BTB set occupies ``assoc`` consecutive slots starting at
  ``set_index * assoc``, most-recently-used first;
* ``-1`` marks an invalid way (addresses and page ids are always
  non-negative, so ``-1`` never aliases a real tag);
* counters live in small integer vectors (``stats``) so the kernels
  can update them in place.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

# Branch-predictor kind codes shared with the kernels.
PRED_BIMODAL = 0
PRED_GSHARE = 1
PRED_COMBINED = 2
PRED_TAKEN = 3
PRED_PERFECT = 4

PREDICTOR_KINDS = {
    "bimodal": PRED_BIMODAL,
    "gshare": PRED_GSHARE,
    "combined": PRED_COMBINED,
    "taken": PRED_TAKEN,
    "perfect": PRED_PERFECT,
}

# Indices into cache ``stats`` vectors.
STAT_HITS = 0
STAT_MISSES = 1
STAT_PREFETCHES = 2


class KernelMemory:
    """Flat-state equivalent of :class:`repro.cpu.cache.MainMemory`."""

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

    @accesses.setter
    def accesses(self, value: int) -> None:
        self.stats[0] = value

    def fill_latency(self, block_bytes: int) -> int:
        beats = max(1, block_bytes // self.bus_width)
        return self.latency_first + (beats - 1) * self.latency_next

    def access(self, block_bytes: int) -> int:
        self.stats[0] += 1
        return self.fill_latency(block_bytes)

    def warm_state(self) -> dict:
        """Canonical snapshot (same shape as the reference class)."""
        return {"accesses": int(self.stats[0])}

    def restore_warm_state(self, state: dict) -> None:
        self.stats[0] = int(state["accesses"])


def _sets_from_flat(tags, num_sets: int, assoc: int):
    """Per-set valid-prefix tag lists from a flat MRU-first tag array.

    Insertion always shifts within the set, so invalid (``-1``) slots
    stay at the tail of each set: the valid prefix *is* the reference
    class's MRU list.
    """
    sets = []
    for index in range(num_sets):
        base = index * assoc
        ways = []
        for way in range(assoc):
            tag = int(tags[base + way])
            if tag == -1:
                break
            ways.append(tag)
        sets.append(ways)
    return sets


def _sets_to_flat(tags, sets, assoc: int) -> None:
    """Write per-set MRU lists back into a flat tag array in place."""
    for index, ways in enumerate(sets):
        base = index * assoc
        for way in range(assoc):
            tags[base + way] = int(ways[way]) if way < len(ways) else -1


class KernelCache:
    """Flat-state equivalent of :class:`repro.cpu.cache.Cache`."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        block_bytes: int,
        hit_latency: int,
        parent: Optional["KernelCache"] = None,
        memory: Optional[KernelMemory] = None,
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
        block = addr >> self.block_shift
        base = (block & self.set_mask) * self.assoc
        for way in range(self.assoc):
            if self.tags[base + way] == block:
                return True
        return False

    # -- reference access paths (used by the small-region fallback) ----------

    def access(self, addr: int) -> int:
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

    def warm_state(self) -> dict:
        """Canonical snapshot (same shape as :class:`repro.cpu.cache.Cache`)."""
        return {
            "sets": _sets_from_flat(self.tags, self.num_sets, self.assoc),
            "hits": self.hits,
            "misses": self.misses,
            "prefetches": self.prefetches,
        }

    def restore_warm_state(self, state: dict) -> None:
        sets = state["sets"]
        if len(sets) != self.num_sets:
            raise ValueError(
                f"{self.name}: snapshot has {len(sets)} sets, "
                f"cache has {self.num_sets}"
            )
        _sets_to_flat(self.tags, sets, self.assoc)
        self.stats[STAT_HITS] = int(state["hits"])
        self.stats[STAT_MISSES] = int(state["misses"])
        self.stats[STAT_PREFETCHES] = int(state["prefetches"])


class KernelTLB:
    """Flat-state equivalent of :class:`repro.cpu.cache.TLB`."""

    PAGE_BYTES = 4096

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
        """State-only translation: no hit/miss statistics recorded."""
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

    def warm_state(self) -> dict:
        """Canonical snapshot (same shape as :class:`repro.cpu.cache.TLB`)."""
        return {
            "sets": _sets_from_flat(self.tags, self.num_sets, self.assoc),
            "hits": self.hits,
            "misses": self.misses,
        }

    def restore_warm_state(self, state: dict) -> None:
        sets = state["sets"]
        if len(sets) != self.num_sets:
            raise ValueError(
                f"{self.name}: snapshot has {len(sets)} sets, "
                f"TLB has {self.num_sets}"
            )
        _sets_to_flat(self.tags, sets, self.assoc)
        self.stats[STAT_HITS] = int(state["hits"])
        self.stats[STAT_MISSES] = int(state["misses"])


class KernelPredictor:
    """Flat-table branch direction predictor covering all five kinds.

    ``state[0]`` holds the global history register so kernels can read
    and write it in place; unused component tables are single-slot
    dummies so one uniform signature covers every predictor kind.
    """

    def __init__(self, kind: str, entries: int) -> None:
        try:
            self.kind = PREDICTOR_KINDS[kind]
        except KeyError:
            raise ValueError(f"unknown predictor kind {kind!r}") from None
        self.kind_name = kind
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self.mask = entries - 1
        if self.kind in (PRED_BIMODAL, PRED_GSHARE, PRED_COMBINED):
            if entries & self.mask:
                raise ValueError("entries must be a power of two")
        table = entries if self.kind in (PRED_BIMODAL, PRED_COMBINED) else 1
        gtable = entries if self.kind in (PRED_GSHARE, PRED_COMBINED) else 1
        ctable = entries if self.kind == PRED_COMBINED else 1
        self.bimodal = [1] * table
        self.gshare = [1] * gtable
        self.chooser = [2] * ctable
        self.state = [0]

    @property
    def history(self) -> int:
        return int(self.state[0])

    def predict_update(self, pc: int, taken: bool) -> bool:
        kind = self.kind
        if kind == PRED_TAKEN:
            return taken
        if kind == PRED_PERFECT:
            return True
        mask = self.mask
        base_index = (pc >> 2) & mask
        if kind == PRED_BIMODAL:
            counter = self.bimodal[base_index]
            prediction = counter >= 2
            if taken:
                if counter < 3:
                    self.bimodal[base_index] = counter + 1
            elif counter > 0:
                self.bimodal[base_index] = counter - 1
            return prediction == taken
        if kind == PRED_GSHARE:
            index = (base_index ^ self.state[0]) & mask
            counter = self.gshare[index]
            prediction = counter >= 2
            if taken:
                if counter < 3:
                    self.gshare[index] = counter + 1
            elif counter > 0:
                self.gshare[index] = counter - 1
            self.state[0] = ((self.state[0] << 1) | (1 if taken else 0)) & mask
            return prediction == taken
        # combined
        gs_index = (base_index ^ self.state[0]) & mask
        b_counter = self.bimodal[base_index]
        g_counter = self.gshare[gs_index]
        b_pred = b_counter >= 2
        g_pred = g_counter >= 2
        choose_gshare = self.chooser[base_index] >= 2
        prediction = g_pred if choose_gshare else b_pred
        if taken:
            if b_counter < 3:
                self.bimodal[base_index] = b_counter + 1
            if g_counter < 3:
                self.gshare[gs_index] = g_counter + 1
        else:
            if b_counter > 0:
                self.bimodal[base_index] = b_counter - 1
            if g_counter > 0:
                self.gshare[gs_index] = g_counter - 1
        if b_pred != g_pred:
            chooser = self.chooser[base_index]
            if g_pred == taken:
                if chooser < 3:
                    self.chooser[base_index] = chooser + 1
            elif chooser > 0:
                self.chooser[base_index] = chooser - 1
        self.state[0] = ((self.state[0] << 1) | (1 if taken else 0)) & mask
        return prediction == taken

    def warm_state(self) -> dict:
        """Canonical snapshot mirroring the matching reference class
        for this predictor kind (so snapshots restore across backends)."""
        kind = self.kind
        if kind == PRED_BIMODAL:
            return {"bimodal": [int(v) for v in self.bimodal]}
        if kind == PRED_GSHARE:
            return {
                "gshare": [int(v) for v in self.gshare],
                "history": int(self.state[0]),
            }
        if kind == PRED_COMBINED:
            return {
                "bimodal": [int(v) for v in self.bimodal],
                "gshare": [int(v) for v in self.gshare],
                "chooser": [int(v) for v in self.chooser],
                "history": int(self.state[0]),
            }
        return {}  # taken / perfect hold no state

    def restore_warm_state(self, state: dict) -> None:
        kind = self.kind
        if kind in (PRED_BIMODAL, PRED_COMBINED):
            for i, value in enumerate(state["bimodal"]):
                self.bimodal[i] = int(value)
        if kind in (PRED_GSHARE, PRED_COMBINED):
            for i, value in enumerate(state["gshare"]):
                self.gshare[i] = int(value)
            self.state[0] = int(state["history"])
        if kind == PRED_COMBINED:
            for i, value in enumerate(state["chooser"]):
                self.chooser[i] = int(value)


class KernelBTB:
    """Flat-state equivalent of :class:`repro.cpu.branch.BranchTargetBuffer`."""

    def __init__(self, entries: int, assoc: int) -> None:
        if entries <= 0 or assoc <= 0:
            raise ValueError("BTB geometry must be positive")
        assoc = min(assoc, entries)
        num_sets = max(1, entries // assoc)
        num_sets = 1 << (num_sets.bit_length() - 1)
        self.assoc = max(1, entries // num_sets)
        self.set_mask = num_sets - 1
        self.num_sets = num_sets
        self.keys = [-1] * (num_sets * self.assoc)
        self.targets = [0] * (num_sets * self.assoc)
        self.stats = [0] * 2

    @property
    def hits(self) -> int:
        return int(self.stats[STAT_HITS])

    @property
    def misses(self) -> int:
        return int(self.stats[STAT_MISSES])

    def lookup_update(self, pc: int, target: int) -> bool:
        key = pc >> 2
        assoc = self.assoc
        base = (key & self.set_mask) * assoc
        keys = self.keys
        targets = self.targets
        for way in range(assoc):
            if keys[base + way] == key:
                correct = targets[base + way] == target
                for shift in range(way, 0, -1):
                    keys[base + shift] = keys[base + shift - 1]
                    targets[base + shift] = targets[base + shift - 1]
                keys[base] = key
                targets[base] = target
                if correct:
                    self.stats[STAT_HITS] += 1
                else:
                    self.stats[STAT_MISSES] += 1
                return bool(correct)
        self.stats[STAT_MISSES] += 1
        for shift in range(assoc - 1, 0, -1):
            keys[base + shift] = keys[base + shift - 1]
            targets[base + shift] = targets[base + shift - 1]
        keys[base] = key
        targets[base] = target
        return False

    def warm_state(self) -> dict:
        """Canonical snapshot: per-set ``[key, target]`` pairs (MRU
        first) plus counters, matching the reference BTB."""
        sets = []
        for index in range(self.num_sets):
            base = index * self.assoc
            ways = []
            for way in range(self.assoc):
                key = int(self.keys[base + way])
                if key == -1:
                    break
                ways.append([key, int(self.targets[base + way])])
            sets.append(ways)
        return {"sets": sets, "hits": self.hits, "misses": self.misses}

    def restore_warm_state(self, state: dict) -> None:
        sets = state["sets"]
        if len(sets) != self.num_sets:
            raise ValueError(
                f"BTB snapshot has {len(sets)} sets, structure has "
                f"{self.num_sets}"
            )
        for index, ways in enumerate(sets):
            base = index * self.assoc
            for way in range(self.assoc):
                if way < len(ways):
                    self.keys[base + way] = int(ways[way][0])
                    self.targets[base + way] = int(ways[way][1])
                else:
                    self.keys[base + way] = -1
                    self.targets[base + way] = 0
        self.stats[STAT_HITS] = int(state["hits"])
        self.stats[STAT_MISSES] = int(state["misses"])


class KernelRAS:
    """Counter-based return-address stack.

    The reference RAS (:class:`repro.cpu.branch.ReturnAddressStack`)
    only ever holds valid entries -- a crushed entry is removed, not
    kept -- so its observable behaviour reduces to a depth counter:
    pops mispredict exactly when the stack is empty.  ``state`` holds
    ``[depth, overflows]``.
    """

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("RAS entries must be positive")
        self.entries = entries
        self.state = [0, 0]

    @property
    def depth(self) -> int:
        return int(self.state[0])

    @property
    def overflows(self) -> int:
        return int(self.state[1])

    def push(self) -> None:
        if self.state[0] >= self.entries:
            self.state[1] += 1
        else:
            self.state[0] += 1

    def pop(self) -> bool:
        if self.state[0] <= 0:
            return False
        self.state[0] -= 1
        return True

    def warm_state(self) -> dict:
        return {"depth": self.depth, "overflows": self.overflows}

    def restore_warm_state(self, state: dict) -> None:
        self.state[0] = int(state["depth"])
        self.state[1] = int(state["overflows"])


class LatencyTable:
    """Per-config latency parameters along a leading ``n_configs`` axis.

    A config batch shares one structure set: tags, tables, statistics
    and every other flat array above are *latency-independent*, so one
    resolve pass advances them for the whole batch.  What remains per
    config are latencies, and this table broadcasts them as
    ``(n_configs,)`` int64 columns so the batched assembly phase can
    turn one resolved region into N timing feeds with 2-D NumPy ops
    instead of a per-config Python loop.

    Columns mirror the latency maths of :class:`KernelCache`,
    :class:`KernelTLB` and :class:`KernelMemory` exactly:
    ``l2_fill[i]`` is ``fill_latency(l2_block)`` of config ``i``'s
    memory, etc., so a batched feed is bit-identical to the feed a
    single-config structure set would have produced.
    """

    __slots__ = ("n_configs", "l2_hit", "l2_fill", "dl1_hit", "itlb_miss",
                 "dtlb_miss")

    def __init__(self, configs: Sequence) -> None:
        def column(values):
            return np.asarray(list(values), dtype=np.int64)

        self.n_configs = len(configs)
        self.l2_hit = column(c.l2_latency for c in configs)
        self.dl1_hit = column(c.dl1_latency for c in configs)
        self.itlb_miss = column(c.tlb_miss_latency for c in configs)
        self.dtlb_miss = column(c.tlb_miss_latency for c in configs)
        fills = []
        for c in configs:
            beats = max(1, c.l2_block // c.mem_bus_width)
            fills.append(c.mem_latency_first + (beats - 1) * c.mem_latency_next)
        self.l2_fill = column(fills)

    def strictly_positive(self) -> bool:
        """Whether every latency column is >= 1.

        The batched path shares one sparse fetch-event union across all
        configs, which is only valid when a miss always stalls (every
        stall contribution positive).  ``ProcessorConfig`` validates
        this too; the check here keeps the kernel safe on its own.
        """
        return bool(
            (self.l2_hit >= 1).all()
            and (self.l2_fill >= 1).all()
            and (self.dl1_hit >= 1).all()
            and (self.itlb_miss >= 1).all()
            and (self.dtlb_miss >= 1).all()
        )


#: Structure-geometry fields of a processor config: two configs that
#: agree on all of these build bit-identical *structures* (they may
#: still differ in any latency or pipeline-width field) and can
#: therefore share one resolve pass per region.
GEOMETRY_FIELDS = (
    "il1_size_kb", "il1_assoc", "il1_block",
    "dl1_size_kb", "dl1_assoc", "dl1_block",
    "l2_size_kb", "l2_assoc", "l2_block",
    "itlb_entries", "dtlb_entries",
    "branch_predictor", "bht_entries",
    "btb_entries", "btb_assoc", "ras_entries",
)


def same_geometry(configs: Sequence) -> bool:
    """Whether every config builds the same structure set."""
    head = configs[0]
    return all(
        all(getattr(c, f) == getattr(head, f) for f in GEOMETRY_FIELDS)
        for c in configs[1:]
    )


def build_structures(config, enhancements):
    """The full structure set for one config in flat storage.

    Returns a dict with the same keys :class:`repro.cpu.machine.Machine`
    exposes as attributes.
    """
    memory = KernelMemory(
        config.mem_latency_first,
        config.mem_latency_next,
        config.mem_bus_width,
    )
    l2 = KernelCache(
        "l2",
        config.l2_size_kb * 1024,
        config.l2_assoc,
        config.l2_block,
        config.l2_latency,
        memory=memory,
    )
    il1 = KernelCache(
        "il1",
        config.il1_size_kb * 1024,
        config.il1_assoc,
        config.il1_block,
        config.il1_latency,
        parent=l2,
    )
    dl1 = KernelCache(
        "dl1",
        config.dl1_size_kb * 1024,
        config.dl1_assoc,
        config.dl1_block,
        config.dl1_latency,
        parent=l2,
        next_line_prefetch=enhancements.next_line_prefetch,
    )
    return {
        "memory": memory,
        "l2": l2,
        "il1": il1,
        "dl1": dl1,
        "itlb": KernelTLB(
            "itlb", config.itlb_entries, config.tlb_miss_latency
        ),
        "dtlb": KernelTLB(
            "dtlb", config.dtlb_entries, config.tlb_miss_latency
        ),
        "predictor": KernelPredictor(
            config.branch_predictor, config.bht_entries
        ),
        "btb": KernelBTB(config.btb_entries, config.btb_assoc),
        "ras": KernelRAS(config.ras_entries),
    }

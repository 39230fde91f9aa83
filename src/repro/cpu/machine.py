"""Machine state: the stateful structures built from a ProcessorConfig.

A :class:`Machine` bundles the cache hierarchy, TLBs, branch predictor,
BTB and return-address stack.  It persists *across* simulation calls so
warm-up, functional warming and measurement regions observe continuous
microarchitectural state, exactly as in the paper's techniques.
"""

from __future__ import annotations

from repro.cpu.branch import BranchTargetBuffer, Predictor, ReturnAddressStack
from repro.cpu.cache import Cache, MainMemory, TLB
from repro.cpu.config import Enhancements, ProcessorConfig
from repro.cpu.kernels.registry import Backend, get_backend


class Machine:
    """All stateful microarchitectural structures for one config.

    ``backend`` selects the simulation kernels that advance the
    structures: the default follows the registry's flag > activated >
    ``$REPRO_BACKEND`` > ``numpy`` rule.  Every backend drives the same
    structure classes, so state and statistics are bit-identical.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        enhancements: Enhancements | None = None,
        backend: str | Backend | None = None,
    ) -> None:
        self.config = config
        self.enhancements = enhancements or Enhancements()
        self.backend = get_backend(backend)

        self.memory = MainMemory(
            config.mem_latency_first, config.mem_latency_next, config.mem_bus_width
        )
        self.l2 = Cache(
            "l2",
            config.l2_size_kb * 1024,
            config.l2_assoc,
            config.l2_block,
            config.l2_latency,
            memory=self.memory,
        )
        self.il1 = Cache(
            "il1",
            config.il1_size_kb * 1024,
            config.il1_assoc,
            config.il1_block,
            config.il1_latency,
            parent=self.l2,
        )
        self.dl1 = Cache(
            "dl1",
            config.dl1_size_kb * 1024,
            config.dl1_assoc,
            config.dl1_block,
            config.dl1_latency,
            parent=self.l2,
            next_line_prefetch=self.enhancements.next_line_prefetch,
        )
        self.itlb = TLB("itlb", config.itlb_entries, config.tlb_miss_latency)
        self.dtlb = TLB("dtlb", config.dtlb_entries, config.tlb_miss_latency)
        self.predictor = Predictor(config.branch_predictor, config.bht_entries)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_assoc)
        self.ras = ReturnAddressStack(config.ras_entries)

    def cache_snapshot(self) -> dict:
        """Current hit/miss counters for every cache-like structure."""
        return {
            "il1_hits": self.il1.hits,
            "il1_misses": self.il1.misses,
            "dl1_hits": self.dl1.hits,
            "dl1_misses": self.dl1.misses,
            "l2_hits": self.l2.hits,
            "l2_misses": self.l2.misses,
            "itlb_misses": self.itlb.misses,
            "dtlb_misses": self.dtlb.misses,
            "prefetches": self.dl1.prefetches,
        }

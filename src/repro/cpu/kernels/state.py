"""Kernel-side batching helpers over the one structure set.

The structures themselves (:mod:`repro.cpu.cache`,
:mod:`repro.cpu.branch`) hold latency-independent state, so configs
that agree on :data:`GEOMETRY_FIELDS` can share one resolve pass;
:class:`LatencyTable` carries what remains per config.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class LatencyTable:
    """Per-config latency parameters along a leading ``n_configs`` axis.

    A config batch shares one structure set: tags, tables, statistics
    and every other flat list in it are *latency-independent*, so one
    resolve pass advances them for the whole batch.  What remains per
    config are latencies, and this table broadcasts them as
    ``(n_configs,)`` int64 columns so the batched assembly phase can
    turn one resolved region into N timing feeds with 2-D NumPy ops
    instead of a per-config Python loop.

    Columns mirror the latency maths of :class:`repro.cpu.cache.Cache`,
    :class:`~repro.cpu.cache.TLB` and :class:`~repro.cpu.cache.MainMemory`
    exactly:
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

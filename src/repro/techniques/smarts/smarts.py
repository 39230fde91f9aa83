"""The SMARTS technique: systematic sampling with functional warming.

One SMARTS *run* walks the whole trace once: between sampling units the
machine is functionally warmed (caches, TLBs, branch predictor keep
their history); each sampling unit is W instructions of detailed
warm-up followed by U instructions of detailed, measured simulation.

After the run, a confidence interval on CPI is computed from the
per-sample CPIs.  If it is wider than the target (+/-3% at 99.7%
confidence by default), SMARTS recommends the sample size that would
have sufficed and the run is repeated at that rate -- the paper counts
those extra runs in the technique's cost, and so do we.

Scale adaptation: the paper's sampling units are U in {100, 1000,
10000} *instructions* out of multi-billion-instruction programs.  Our
traces are scaled down, so U and W are multiplied by
``scale.instructions_per_m / FULL_SCALE_PER_M`` (i.e. kept literal at
the ``full`` profile and shrunk proportionally below it), and the
initial sample count targets the paper's ~1% detailed fraction rather
than a literal n = 10,000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cpu.config import Enhancements, ProcessorConfig
from repro.cpu.simulator import Simulator
from repro.cpu.stats import SimulationStats, combine_weighted
from repro.scale import PROFILES, Scale
from repro.techniques.base import SimulationTechnique, TechniqueResult
from repro.techniques.smarts.statistics import estimate_cpi, required_samples
from repro.workloads.inputs import Workload

#: U/W are kept literal at this profile and scaled down below it.
_FULL_SCALE_PER_M = PROFILES["full"]

#: Initial detailed-sample fraction of the trace.  The paper's absolute
#: fraction was ~0.1%; scaled-down traces need a denser rate to keep
#: enough sampling units for the confidence-interval machinery.
_INITIAL_DETAIL_FRACTION = 0.02

#: Safety cap on re-runs (the paper observed at most 6).
_MAX_RUNS = 6


@dataclass
class _RunOutcome:
    parts: List[SimulationStats]
    regions: List[Tuple[int, int]]
    detailed: int
    warm_detailed: int
    functional: int
    # Whole-pass event totals (functional warming + detailed regions):
    # SMARTS reports rate statistics from functional warming, which
    # observes every access, rather than from the tiny samples.
    branches: int = 0
    mispredictions: int = 0
    loads: int = 0
    stores: int = 0
    cache_delta: dict = None


class SmartsTechnique(SimulationTechnique):
    """SMARTS with sampling-unit size U and detailed warm-up W."""

    family = "SMARTS"

    def __init__(
        self,
        unit_instructions: int,
        warmup_instructions: int,
        confidence: float = 0.997,
        target_relative: float = 0.03,
        initial_samples: Optional[int] = None,
    ) -> None:
        if unit_instructions <= 0 or warmup_instructions < 0:
            raise ValueError("U must be positive and W non-negative")
        if not 0 < confidence < 1:
            raise ValueError("confidence must be within (0, 1)")
        self.unit_instructions = unit_instructions
        self.warmup_instructions = warmup_instructions
        self.confidence = confidence
        self.target_relative = target_relative
        self.initial_samples = initial_samples

    @property
    def permutation(self) -> str:
        return f"U={self.unit_instructions}, W={self.warmup_instructions}"

    # -- scale adaptation -------------------------------------------------------

    def effective_unit(self, scale: Scale, rob_entries: int = 0) -> Tuple[int, int]:
        """(U, W) in simulated instructions at this scale.

        The detailed warm-up is floored at twice the ROB size: SMARTS'
        detailed warming exists to fill pipeline/window state before
        measurement, and a warm-up shorter than the instruction window
        would leave the sampling unit free of ROB/LSQ pressure,
        biasing CPI low.
        """
        factor = scale.instructions_per_m / _FULL_SCALE_PER_M
        u = max(10, int(round(self.unit_instructions * factor)))
        w = int(round(self.warmup_instructions * factor))
        w = max(w, 2 * rob_entries)
        return u, w

    def plan_samples(self, trace_length: int, scale: Scale) -> int:
        """Initial sample count n for a trace of the given length."""
        u, w = self.effective_unit(scale)
        if self.initial_samples is not None:
            n = self.initial_samples
        else:
            n = max(50, int(trace_length * _INITIAL_DETAIL_FRACTION / u))
        return self._cap_samples(n, trace_length, u, w)

    @staticmethod
    def _cap_samples(n: int, trace_length: int, u: int, w: int) -> int:
        """Bound the sample count.

        Samples cannot overlap (spacing must be at least U + W), and
        the detailed-sampled fraction is capped at 8% of the trace --
        beyond that SMARTS has degenerated into near-full detailed
        simulation, which scaled-down traces would otherwise demand to
        hit an absolute confidence target.
        """
        hard_cap = max(1, trace_length // (u + w + 1))
        budget_cap = max(1, int(trace_length * 0.08 / u))
        return max(1, min(n, hard_cap, budget_cap))

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        config: ProcessorConfig,
        scale: Scale,
        enhancements: Optional[Enhancements] = None,
    ) -> TechniqueResult:
        trace = workload.trace(scale)
        u, w = self.effective_unit(scale, rob_entries=config.rob_entries)
        n = self._cap_samples(
            self.plan_samples(len(trace), scale), len(trace), u, w
        )

        simulator = Simulator(config, enhancements)
        # The opening warming segment starts from a cold machine at
        # trace position 0, which is exactly what warm-state
        # checkpoints snapshot.  Later segments continue mid-run state:
        # a checkpoint could restore their structures, but their event
        # counts (the stats arrays and warming counts) must replay.
        checkpoint_key = simulator.checkpoint_key(workload, scale)
        total_detailed = 0
        total_warm_detailed = 0
        total_functional = 0
        runs = 0
        outcome: Optional[_RunOutcome] = None

        while True:
            runs += 1
            outcome = self._one_run(
                simulator, trace, n, u, w, checkpoint_key=checkpoint_key
            )
            total_detailed += outcome.detailed
            total_warm_detailed += outcome.warm_detailed
            total_functional += outcome.functional

            estimate = estimate_cpi(
                [part.cpi for part in outcome.parts], confidence=self.confidence
            )
            if estimate.satisfies(self.target_relative) or runs >= _MAX_RUNS:
                break
            needed = required_samples(estimate, self.target_relative)
            capped = self._cap_samples(needed, len(trace), u, w)
            if capped <= n:
                break  # cannot sample any denser
            n = capped

        stats = combine_weighted(outcome.parts, [1.0] * len(outcome.parts))
        self._apply_whole_pass_rates(stats, outcome)
        return TechniqueResult(
            family=self.family,
            permutation=self.permutation,
            workload=workload,
            config_name=config.name,
            stats=stats,
            regions=outcome.regions,
            weights=[1.0] * len(outcome.regions),
            detailed_instructions=total_detailed,
            warm_detailed_instructions=total_warm_detailed,
            functional_warm_instructions=total_functional,
            runs=runs,
        )

    @staticmethod
    def _apply_whole_pass_rates(stats: SimulationStats, outcome: _RunOutcome) -> None:
        """Replace sampled rate counters with whole-pass observations.

        CPI (instructions/cycles) stays the sampled estimate; branch
        and cache statistics come from the full warmed pass, exactly as
        SMARTS' functional warming reports them.
        """
        stats.branches = outcome.branches
        stats.mispredictions = outcome.mispredictions
        stats.loads = outcome.loads
        stats.stores = outcome.stores
        delta = outcome.cache_delta or {}
        stats.il1_accesses = delta.get("il1_hits", 0) + delta.get("il1_misses", 0)
        stats.il1_misses = delta.get("il1_misses", 0)
        stats.dl1_accesses = delta.get("dl1_hits", 0) + delta.get("dl1_misses", 0)
        stats.dl1_misses = delta.get("dl1_misses", 0)
        stats.l2_accesses = delta.get("l2_hits", 0) + delta.get("l2_misses", 0)
        stats.l2_misses = delta.get("l2_misses", 0)
        stats.itlb_misses = delta.get("itlb_misses", 0)
        stats.dtlb_misses = delta.get("dtlb_misses", 0)
        stats.prefetches = delta.get("prefetches", 0)

    def _one_run(
        self,
        simulator: Simulator,
        trace,
        n: int,
        u: int,
        w: int,
        checkpoint_key: Optional[str] = None,
    ) -> _RunOutcome:
        """One full pass: functional warming with n embedded samples.

        The cold prefix is warmed checkpoint-assisted; the rest of the
        pass -- warming gaps and W+U units -- is one
        :meth:`Simulator.detail_regions` plan.
        """
        trace_length = len(trace)
        spacing = trace_length / n
        machine = simulator.new_machine()
        snapshot_before = machine.cache_snapshot()
        parts: List[SimulationStats] = []
        regions: List[Tuple[int, int]] = []
        detailed = 0
        warm_detailed = 0
        functional = 0
        branches = 0
        mispredictions = 0
        loads = 0
        stores = 0
        position = 0
        plan: List[tuple] = []
        outcomes: list = []
        for i in range(n):
            # The sampling unit ends at the anchor point; detailed
            # warm-up precedes it.
            anchor = int(round((i + 1) * spacing))
            anchor = min(anchor, trace_length)
            sample_start = max(position, anchor - u)
            warm_start = max(position, sample_start - w)
            if sample_start <= position and position >= trace_length:
                break
            if warm_start > position:
                if position == 0:
                    # Cold prefix: checkpoint-assisted (bit-identical).
                    outcomes.append(((0, warm_start), simulator.warm_prefix(
                        machine, trace, warm_start, checkpoint_key=checkpoint_key
                    )))
                else:
                    plan.append((position, warm_start))
            if sample_start >= anchor:
                position = max(position, anchor)
                continue
            plan.append((warm_start, sample_start, anchor))
            position = anchor
        if position < trace_length:
            plan.append((position, trace_length))

        outcomes += zip(plan, simulator.detail_regions(machine, trace, plan))
        for item, outcome in outcomes:
            if len(item) == 2:
                functional += outcome.instructions
            else:
                warm_start, sample_start, anchor = item
                parts.append(outcome)
                regions.append((sample_start, anchor))
                detailed += anchor - sample_start
                warm_detailed += sample_start - warm_start
            branches += outcome.branches
            mispredictions += outcome.mispredictions
            loads += outcome.loads
            stores += outcome.stores
        snapshot_after = machine.cache_snapshot()
        cache_delta = {
            key: snapshot_after[key] - snapshot_before[key]
            for key in snapshot_after
        }
        return _RunOutcome(
            parts=parts,
            regions=regions,
            detailed=detailed,
            warm_detailed=warm_detailed,
            functional=functional,
            branches=branches,
            mispredictions=mispredictions,
            loads=loads,
            stores=stores,
            cache_delta=cache_delta,
        )

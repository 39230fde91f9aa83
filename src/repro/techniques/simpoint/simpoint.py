"""The SimPoint technique: select and simulate representative intervals.

Pipeline (SimPoint 1.0 [Sherwood02]):

1. profile the program into per-interval basic block vectors;
2. normalize, randomly project to 15 dimensions;
3. k-means for k = 1..max_k, pick k by the BIC criterion
   (``single`` variants force k = 1);
4. the representative of each cluster is the interval closest to the
   centroid; its weight is the cluster's share of intervals;
5. detailed-simulate each representative (optionally preceded by a
   short detailed warm-up) and combine statistics by weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cpu.config import Enhancements, ProcessorConfig
from repro.cpu.simulator import Simulator
from repro.cpu.stats import combine_weighted
from repro.obs import phases as obs_phases
from repro.scale import Scale
from repro.techniques.base import SimulationTechnique, TechniqueResult
from repro.techniques.simpoint.bbv import normalize_bbvs, project_bbvs
from repro.techniques.simpoint.kmeans import kmeans, pick_k
from repro.workloads.inputs import Workload


@dataclass
class SimPointSelection:
    """The chosen simulation points for one workload."""

    interval_instructions: int
    intervals: List[int]  # interval indices
    weights: List[float]
    k: int

    def regions(self, trace_length: int) -> List[Tuple[int, int]]:
        size = self.interval_instructions
        out = []
        for index in self.intervals:
            start = index * size
            out.append((start, min(start + size, trace_length)))
        return out


class SimPointTechnique(SimulationTechnique):
    """SimPoint with a fixed interval size and cluster budget.

    ``interval_m`` is the simulation-point length in paper-M
    instructions (the paper uses 10M and 100M); ``max_k`` bounds the
    number of clusters (1 for the "single" permutations).  Warm-up
    follows Table 1: 1M of detailed warm-up before each 10M point, none
    before 100M points.
    """

    family = "SimPoint"

    def __init__(
        self,
        interval_m: float,
        max_k: int,
        warmup_m: float = 0.0,
        seeds: int = 7,
        max_iterations: int = 100,
        seed: int = 1,
        early_points: bool = False,
    ) -> None:
        if interval_m <= 0:
            raise ValueError("interval_m must be positive")
        if max_k < 1:
            raise ValueError("max_k must be >= 1")
        self.interval_m = interval_m
        self.max_k = max_k
        self.warmup_m = warmup_m
        self.seeds = seeds
        self.max_iterations = max_iterations
        self.seed = seed
        #: Perelman et al. [Perelman03]: pick the *earliest* interval in
        #: each cluster (within a distance tolerance of the centroid)
        #: instead of the medoid, cutting fast-forward/checkpoint cost.
        self.early_points = early_points

    @property
    def permutation(self) -> str:
        kind = "single" if self.max_k == 1 else f"multiple (max_k {self.max_k})"
        early = ", early" if self.early_points else ""
        return f"{kind} {self.interval_m:g}M{early}"

    # -- selection -------------------------------------------------------------

    def select(self, workload: Workload, scale: Scale) -> SimPointSelection:
        """Choose simulation points for ``workload`` (config-independent)."""
        trace = workload.trace(scale)
        with obs_phases.measured(
            "analysis", technique="simpoint", workload=workload.name
        ):
            interval = max(1, scale.instructions(self.interval_m))
            bbvs = trace.interval_bbvs(interval)
            # Drop a tiny tail interval: it would get full weight per-interval
            # anyway and SimPoint profiles whole intervals.
            if len(bbvs) > 1 and trace.block_execution_counts(
                (len(bbvs) - 1) * interval
            ).sum() < interval // 2:
                bbvs = bbvs[:-1]
            points = project_bbvs(normalize_bbvs(bbvs), seed=self.seed)
            if self.max_k == 1:
                clustering = kmeans(
                    points, 1, seeds=self.seeds,
                    max_iterations=self.max_iterations, seed=self.seed,
                )
            else:
                clustering = pick_k(
                    points,
                    self.max_k,
                    seeds=self.seeds,
                    max_iterations=self.max_iterations,
                    seed=self.seed,
                )
            intervals: List[int] = []
            weights: List[float] = []
            total = len(points)
            for cluster in range(clustering.k):
                members = np.nonzero(clustering.assignments == cluster)[0]
                if len(members) == 0:
                    continue
                centroid = clustering.centroids[cluster]
                distances = np.sum((points[members] - centroid) ** 2, axis=1)
                if self.early_points:
                    # Earliest member within 30% of the medoid's distance.
                    tolerance = float(distances.min()) * 1.3 + 1e-12
                    eligible = members[distances <= tolerance]
                    representative = int(eligible.min())
                else:
                    representative = int(members[int(np.argmin(distances))])
                intervals.append(representative)
                weights.append(len(members) / total)
            return SimPointSelection(
                interval_instructions=interval,
                intervals=intervals,
                weights=weights,
                k=clustering.k,
            )

    # -- simulation -------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        config: ProcessorConfig,
        scale: Scale,
        enhancements: Optional[Enhancements] = None,
        selection: Optional[SimPointSelection] = None,
    ) -> TechniqueResult:
        trace = workload.trace(scale)
        if selection is None:
            selection = self.select(workload, scale)
        warmup = scale.instructions(self.warmup_m)
        simulator = Simulator(config, enhancements)

        # Simulation points are visited in trace order on one machine,
        # functionally warming the gaps between them -- the semantics
        # of SimPoint checkpoints carrying warm architectural state
        # (whose generation cost the paper found dominant for gcc and
        # mcf).  Table 1's detailed warm-up (1M for 10M points) runs
        # just before each point.  The whole walk is one plan.
        ordered = sorted(
            zip(selection.regions(len(trace)), selection.weights),
            key=lambda pair: pair[0][0],
        )
        plan = []
        position = 0
        for (start, end), _ in ordered:
            warm_start = max(position, start - warmup)
            if warm_start > position:
                plan.append((position, warm_start))
            plan.append((warm_start, start, end))
            position = end
        outcomes = simulator.detail_regions(
            simulator.new_machine(), trace, plan
        )
        calls = [item for item in plan if len(item) == 3]
        gaps = [item for item in plan if len(item) == 2]
        parts = [out for item, out in zip(plan, outcomes) if len(item) == 3]
        regions = [region for region, _ in ordered]
        weights = [weight for _, weight in ordered]
        detailed = sum(end - start for _, start, end in calls)
        warm_detailed = sum(start - warm for warm, start, _ in calls)
        functional = sum(end - start for start, end in gaps)
        stats = combine_weighted(parts, weights)
        return TechniqueResult(
            family=self.family,
            permutation=self.permutation,
            workload=workload,
            config_name=config.name,
            stats=stats,
            regions=regions,
            weights=weights,
            detailed_instructions=detailed,
            warm_detailed_instructions=warm_detailed,
            functional_warm_instructions=functional,
            profiled_instructions=len(trace),
        )

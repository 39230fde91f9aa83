"""Figure 1: performance-bottleneck characterization.

For each benchmark and each technique family, the normalized Euclidean
distance between the technique's Plackett-Burman rank vector and the
reference input set's (mean over the family's permutations, with min
and max).  Distances are normalized to the maximum possible rank
distance and scaled to 100, exactly as in the paper's figure.
"""

from __future__ import annotations

from typing import List, Optional

from repro.characterization.bottleneck import (
    BottleneckResult,
    bottleneck_ranks,
    normalized_rank_distance,
)
from repro.characterization.plackett_burman import PlackettBurmanDesign
from repro.engine import RunRequest
from repro.experiments.common import ExperimentContext, ExperimentReport
from repro.techniques.base import SimulationTechnique
from repro.techniques.reference import ReferenceTechnique
from repro.workloads.inputs import Workload

_DESIGN = PlackettBurmanDesign()


def prefetch_pb(
    context: ExperimentContext,
    workload: Workload,
    techniques: List[SimulationTechnique],
) -> None:
    """Batch-execute every (technique, PB row) run through the engine.

    The PB characterization pulls runs one config at a time through a
    callback; planning the full cross product up front lets the engine
    deduplicate and parallelize it, after which the callbacks are pure
    cache hits.
    """
    context.run_many(
        [
            RunRequest(technique, workload, config)
            for technique in techniques
            for config in _DESIGN.configs()
        ]
    )


def pb_result(
    context: ExperimentContext,
    workload: Workload,
    technique: SimulationTechnique,
) -> BottleneckResult:
    """PB characterization of one technique, through the context cache."""
    def run_config(config):
        return context.run(technique, workload, config).cpi

    return bottleneck_ranks(
        technique, workload, context.scale, design=_DESIGN, run_callback=run_config
    )


def reference_pb_result(
    context: ExperimentContext, workload: Workload
) -> BottleneckResult:
    return pb_result(context, workload, ReferenceTechnique())


def run(context: Optional[ExperimentContext] = None) -> ExperimentReport:
    context = context or ExperimentContext()
    rows = []
    for benchmark in context.benchmarks:
        workload = context.workload(benchmark)
        families = context.family_permutations(benchmark)
        prefetch_pb(
            context,
            workload,
            [ReferenceTechnique()]
            + [t for techniques in families.values() for t in techniques],
        )
        reference = reference_pb_result(context, workload)
        for family, techniques in families.items():
            distances = []
            for technique in techniques:
                result = pb_result(context, workload, technique)
                distances.append(
                    normalized_rank_distance(result.ranks, reference.ranks)
                )
            if not distances:
                continue
            rows.append(
                (
                    benchmark,
                    family,
                    sum(distances) / len(distances),
                    min(distances),
                    max(distances),
                )
            )
    return ExperimentReport(
        experiment_id="Figure 1",
        title=(
            "Normalized Euclidean distance from the reference input set "
            "(performance-bottleneck characterization)"
        ),
        headers=("benchmark", "technique", "mean", "min", "max"),
        rows=rows,
        notes=[
            "distance normalized to the maximum rank distance, scaled to 100",
            f"PB design: {_DESIGN.num_runs} runs x {_DESIGN.num_parameters} parameters",
        ],
    )


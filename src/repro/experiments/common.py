"""Shared experiment infrastructure: context, engine binding, report format.

The :class:`ExperimentContext` no longer simulates anything itself: it
plans :class:`~repro.engine.RunRequest` batches and hands them to a
:class:`~repro.engine.Engine`, which deduplicates, answers from its
in-memory/persistent caches, and executes the remainder -- across a
worker processes when ``jobs > 1``.  ``run_many`` is the canonical batch
entry point; ``run`` is a thin single-request wrapper kept for
convenience and backwards compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.config import BASELINE, Enhancements, ProcessorConfig
from repro.engine import Engine, RunRequest
from repro.scale import Scale
from repro.settings import value
from repro.techniques.base import SimulationTechnique, TechniqueResult
from repro.techniques.reference import ReferenceTechnique
from repro.techniques.registry import FAMILIES, permutations
from repro.workloads.inputs import Workload
from repro.workloads.spec import BENCHMARK_NAMES, get_workload

#: Benchmarks used by default (the paper's most-discussed cases).
DEFAULT_BENCHMARKS = ("gzip", "gcc", "art", "mcf")


def default_benchmarks(full: Optional[bool] = None) -> Tuple[str, ...]:
    """The benchmark tuple: all ten when ``full`` (``--full``)."""
    return BENCHMARK_NAMES if value("full", full) else DEFAULT_BENCHMARKS


@dataclass
class ExperimentContext:
    """Execution context shared by experiment drivers.

    ``depth`` selects how many permutations per technique family are
    simulated: ``quick`` uses one representative permutation per
    family, ``standard`` a small spread, ``full`` all of Table 1.
    ``jobs`` sets the engine's worker-process count and ``cache_dir``
    its persistent result store (None = in-memory caching only).  Each
    setting left at None resolves through :func:`repro.settings.value`
    (its environment variable, else the ``SETTINGS`` default).
    """

    scale: Optional[Scale] = None
    benchmarks: Optional[Tuple[str, ...]] = None
    depth: Optional[str] = None
    seed: int = 1234
    jobs: Optional[int] = None
    #: None means no persistent cache; left out, ``$REPRO_CACHE_DIR``.
    cache_dir: Optional[Path] = field(
        default_factory=lambda: value("cache_dir")
    )
    progress: bool = False
    #: These go to the engine, which resolves each one left at None.
    run_timeout: Optional[float] = None
    max_retries: Optional[int] = None
    resume: Optional[bool] = None
    checkpoint_interval: Optional[float] = None
    trace_cache: Optional[bool] = None
    trace: Optional[bool] = None
    metrics_file: Optional[Path] = None
    batch_configs: Optional[int] = None
    remote_batch_configs: Optional[int] = None
    listen: Optional[str] = None
    lease_ttl: Optional[float] = None
    min_agents: Optional[int] = None
    history: Optional[bool] = None

    #: The engine executing this context's runs; built from the fields
    #: above unless injected.
    engine: Optional[Engine] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.scale = value("scale", self.scale)
        self.benchmarks = self.benchmarks or default_benchmarks()
        self.depth = value("depth", self.depth)
        self.jobs = value("jobs", self.jobs)
        if self.engine is None:
            self.engine = Engine(
                scale=self.scale,
                jobs=self.jobs,
                cache_dir=self.cache_dir,
                progress=self.progress,
                retries=self.max_retries,
                run_timeout=self.run_timeout,
                resume=self.resume,
                checkpoint_interval=self.checkpoint_interval,
                trace_cache=self.trace_cache,
                trace=self.trace,
                metrics_file=self.metrics_file,
                batch_configs=self.batch_configs,
                remote_batch_configs=self.remote_batch_configs,
                listen=self.listen,
                lease_ttl=self.lease_ttl,
                min_agents=self.min_agents,
                history=self.history,
            )

    # -- workloads ---------------------------------------------------------------

    def workload(self, benchmark: str, input_set: str = "reference") -> Workload:
        return get_workload(benchmark, input_set, seed=self.seed)

    # -- engine-backed technique execution -----------------------------------------

    def run_many(
        self,
        requests: Sequence[RunRequest],
        allow_errors: bool = False,
    ) -> List[TechniqueResult]:
        """Execute a batch of runs through the engine.

        This is the canonical entry point: the engine deduplicates the
        batch, serves cached runs, executes the rest (in parallel when
        the context has ``jobs > 1``) and returns results in submission
        order.  See :meth:`repro.engine.Engine.run_many`.
        """
        return self.engine.run_many(requests, allow_errors=allow_errors)

    def run(
        self,
        technique: SimulationTechnique,
        workload: Workload,
        config: ProcessorConfig,
        enhancements: Enhancements = BASELINE,
    ) -> TechniqueResult:
        """Run (or fetch from cache) one technique at one configuration."""
        return self.run_many(
            [RunRequest(technique, workload, config, enhancements)]
        )[0]

    def reference(
        self,
        workload: Workload,
        config: ProcessorConfig,
        enhancements: Enhancements = BASELINE,
    ) -> TechniqueResult:
        return self.run(ReferenceTechnique(), workload, config, enhancements)

    # -- permutation subsets --------------------------------------------------------

    def family_permutations(self, benchmark: str) -> Dict[str, List[SimulationTechnique]]:
        """Technique permutations per family at the context's depth."""
        full = {family: permutations(family, benchmark) for family in FAMILIES}
        if self.depth == "full":
            return full
        if self.depth == "standard":
            return {
                "SimPoint": full["SimPoint"],
                "SMARTS": [full["SMARTS"][i] for i in (1, 4, 8)],
                "Reduced": full["Reduced"][:3],
                "Run Z": [full["Run Z"][i] for i in (0, 3)],
                "FF+Run Z": [full["FF+Run Z"][i] for i in (1, 7)],
                "FF+WU+Run Z": [full["FF+WU+Run Z"][i] for i in (6, 30)],
            }
        # quick
        return {
            "SimPoint": [full["SimPoint"][1]],
            "SMARTS": [full["SMARTS"][4]],
            "Reduced": full["Reduced"][-1:],
            "Run Z": [full["Run Z"][1]],
            "FF+Run Z": [full["FF+Run Z"][5]],
            "FF+WU+Run Z": [full["FF+WU+Run Z"][18]],
        }


@dataclass
class ExperimentReport:
    """A rendered experiment: an id, headline, table rows and notes."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(format_table(self.headers, self.rows))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table with aligned columns.

    Columns whose every value is numeric are right-aligned, so digit
    columns (CPI, errors, distances) line up on the decimal side.
    """
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    def is_number(value: object) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    table = [[fmt(v) for v in row] for row in rows]
    numeric = [
        bool(rows) and all(is_number(row[i]) for row in rows)
        for i in range(len(headers))
    ]
    widths = [len(h) for h in headers]
    for row in table:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def align(cell: str, i: int) -> str:
        if numeric[i]:
            return cell.rjust(widths[i])
        return cell.ljust(widths[i])

    lines = [
        "  ".join(align(h, i) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in table:
        lines.append("  ".join(align(cell, i) for i, cell in enumerate(row)))
    return "\n".join(lines)

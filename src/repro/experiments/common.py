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

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.config import BASELINE, Enhancements, ProcessorConfig
from repro.engine import Engine, RunRequest
from repro.scale import Scale, default_scale
from repro.settings import resolve as resolve_setting
from repro.techniques.base import SimulationTechnique, TechniqueResult
from repro.techniques.reference import ReferenceTechnique
from repro.techniques.registry import FAMILIES, permutations
from repro.workloads.inputs import Workload
from repro.workloads.spec import BENCHMARK_NAMES, get_workload

#: Environment variable requesting the full 10-benchmark sweep
#: (fallback for the ``--full`` CLI flag; the flag wins).
FULL_ENV_VAR = "REPRO_FULL"

#: Environment fallbacks for the engine CLI flags (flag > env > default).
JOBS_ENV_VAR = "REPRO_JOBS"
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
DEPTH_ENV_VAR = "REPRO_DEPTH"

#: Benchmarks used by default (the paper's most-discussed cases).
DEFAULT_BENCHMARKS = ("gzip", "gcc", "art", "mcf")


def default_benchmarks(full: Optional[bool] = None) -> Tuple[str, ...]:
    """The benchmark tuple: all ten when ``full`` (or $REPRO_FULL)."""
    if full is None:
        full = bool(os.environ.get(FULL_ENV_VAR))
    return BENCHMARK_NAMES if full else DEFAULT_BENCHMARKS


def default_depth() -> str:
    """Permutation depth from ``$REPRO_DEPTH`` (default ``standard``)."""
    return os.environ.get(DEPTH_ENV_VAR, "standard")


def default_cache_dir() -> Optional[Path]:
    """Persistent cache directory from ``$REPRO_CACHE_DIR``, if set."""
    value = os.environ.get(CACHE_DIR_ENV_VAR)
    return Path(value) if value else None


def default_context_jobs() -> int:
    """Worker processes from ``$REPRO_JOBS`` (default 1 = serial).

    Library contexts stay serial unless asked; the CLI defaults to all
    cores instead (see :mod:`repro.experiments.__main__`).
    """
    return resolve_setting(None, JOBS_ENV_VAR, 1, int, "an integer")


@dataclass
class ExperimentContext:
    """Execution context shared by experiment drivers.

    ``depth`` selects how many permutations per technique family are
    simulated: ``quick`` uses one representative permutation per
    family, ``standard`` a small spread, ``full`` all of Table 1.
    ``jobs`` sets the engine's worker-process count and ``cache_dir``
    its persistent result store (None = in-memory caching only).
    """

    scale: Scale = field(default_factory=default_scale)
    benchmarks: Tuple[str, ...] = field(default_factory=default_benchmarks)
    depth: str = field(default_factory=default_depth)
    seed: int = 1234
    jobs: int = field(default_factory=default_context_jobs)
    cache_dir: Optional[Path] = field(default_factory=default_cache_dir)
    progress: bool = False
    #: Per-run wall-clock timeout in seconds (None: $REPRO_RUN_TIMEOUT
    #: or unbounded) and retry budget (None: $REPRO_MAX_RETRIES or 1).
    run_timeout: Optional[float] = None
    max_retries: Optional[int] = None
    #: Resume an interrupted sweep from <cache_dir>/journal.jsonl.
    resume: bool = False
    #: Warm-state checkpoint spacing in paper-M instructions (None:
    #: $REPRO_CHECKPOINT_INTERVAL or 500; 0 disables) and whether
    #: traces are shared through <cache_dir>/traces.
    checkpoint_interval: Optional[float] = None
    trace_cache: bool = True
    #: Structured run tracing (None: $REPRO_TRACE; needs a cache_dir)
    #: and an optional Prometheus textfile to export live counters to.
    trace: Optional[bool] = None
    metrics_file: Optional[Path] = None
    #: Config-batching width (None: $REPRO_BATCH_CONFIGS or 1 = off):
    #: how many same-geometry runs one batched pass may serve.
    batch_configs: Optional[int] = None
    #: Per-lease batching width for remote agents (None:
    #: $REPRO_REMOTE_BATCH_CONFIGS or the batch_configs cap).
    remote_batch_configs: Optional[int] = None
    #: Distributed sweeps: HOST:PORT to accept remote worker agents on
    #: (None = single host), lease heartbeat budget in seconds (None:
    #: $REPRO_LEASE_TTL or 10) and how many agents to wait for before
    #: launching runs (with jobs=0 the sweep is remote-only).
    listen: Optional[str] = None
    lease_ttl: Optional[float] = None
    min_agents: int = 0
    #: Sweep-history recording (None: $REPRO_HISTORY or on): append one
    #: record per sweep to <cache_dir>/v1/history/ at engine close.
    history: Optional[bool] = None

    #: The engine executing this context's runs; built from the fields
    #: above unless injected.
    engine: Optional[Engine] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.depth not in ("quick", "standard", "full"):
            raise ValueError("depth must be quick, standard or full")
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

"""Engine observability: the metric registry, run counters, progress.

:data:`METRICS` declares every measured scalar in ``engine-stats.json``
once -- name, unit, help text and how ``report compare`` treats it -- and
:data:`SERIES` declares the labelled and live Prometheus series.
``engine-stats.json``, ``live.json``, the Prometheus textfile, sweep
history, ``report compare`` and the dashboard all iterate these tuples
instead of naming counters, so a new metric is one registry entry.

:class:`EngineMetrics` accumulates over an engine's lifetime and
serializes to the machine-readable ``engine-stats.json``;
:class:`ProgressReporter` streams human-readable progress lines to
stderr while a sweep runs.

Accounting invariant (checked by the tests): every unique run handed to
the executor ends in exactly one terminal state, so

    ``runs_launched == runs_succeeded + failures + quarantined``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, TextIO

from repro.files import atomic_write

#: ``Metric.compare`` for counters that must match between two sweeps
#: of the same grid (a mismatch is drift, not a regression).
EXACT = "exact"


@dataclass(frozen=True)
class Metric:
    """One declared metric, exported as ``repro_sweep_<name>``.

    ``compare`` is :data:`EXACT`, a ``(relative, floor)`` noise band (a
    rise beyond ``max(relative * base, floor)`` is a regression), or
    None (not compared).  ``path`` is the dotted engine-stats location
    (default ``name``); for a labelled series it is ``table[.field]``,
    one sample per ``table`` entry.  ``derive`` computes the value from
    the other values instead of accumulating it.  ``column`` names the
    metric's sweep-history column, showing the value times ``scale``.
    """

    name: str
    unit: str
    help: str
    compare: object = None
    path: str = ""
    derive: Optional[Callable[[dict], object]] = None
    column: str = ""
    scale: float = 1.0
    label: str = ""

    @property
    def key(self) -> str:
        return self.path or self.name

    def value(self, stats: dict, default=None):
        """The value at :attr:`key` in ``stats`` (``default`` if absent)."""
        node = stats
        for part in self.key.split("."):
            if not isinstance(node, dict):
                return default
            node = node.get(part)
        return default if node is None else node


def _ratio(numerator: str, denominator: str) -> Callable[[dict], float]:
    def derive(values: dict) -> float:
        base = values.get(denominator, 0)
        return values.get(numerator, 0) / base if base > 0 else 0.0

    return derive


def _hit_rate(values: dict) -> float:
    hits = values.get("memory_hits", 0) + values.get("cache_hits", 0)
    served = hits + values.get("runs_launched", 0)
    return hits / served if served else 0.0


def _agents_connected(source: dict) -> Optional[int]:
    agents = source.get("agents")
    if agents is None:
        return None
    return sum(1 for entry in agents if entry.get("state") != "lost")


#: Sweep-level timing band: the relative part absorbs proportional
#: jitter; the floor keeps tiny sweeps, where scheduler noise dwarfs
#: the signal, from flagging spurious regressions.
_SWEEP_BAND = (0.75, 2.0)

#: Every measured ``engine-stats.json`` scalar (engine settings such as
#: ``jobs`` are added beside them).  ``report compare`` lists them in
#: this order, banded timings before banded sizes.
METRICS = (
    Metric("runs_requested", "count",
           "Run requests submitted, before deduplication.", EXACT),
    Metric("runs_deduplicated", "count",
           "Requests collapsed onto an identical run."),
    Metric("memory_hits", "count",
           "Unique runs answered by the in-process cache."),
    Metric("resumed", "count", "Journal-completed runs skipped on --resume."),
    Metric("runs_launched", "count", "Unique runs handed to the executor.",
           EXACT, column="runs"),
    Metric("runs_succeeded", "count", "Launched runs that produced a result.",
           EXACT),
    Metric("cache_hits", "count",
           "Unique runs answered by the persistent result store.", EXACT),
    Metric("hit_rate", "ratio",
           "Share of unique runs served from any cache layer.",
           derive=_hit_rate),
    Metric("failures", "count", "Runs that exhausted their retry budget.",
           EXACT),
    Metric("quarantined", "count",
           "Poison runs quarantined after failing identically twice.", EXACT),
    Metric("retries", "count", "Re-executions after a failed attempt.", EXACT),
    Metric("timeouts", "count", "Attempts that outlived the run timeout."),
    Metric("crashes", "count", "Attempts lost to a dead worker process."),
    Metric("degradations", "count",
           "Runs retried on a lower kernel-backend tier."),
    Metric("store_corrupt_entries", "count",
           "Result-store reads rejected by the payload checksum "
           "(each reads as a miss and is regenerated)."),
    Metric("batches", "count", "Config-batched simulation passes completed.",
           EXACT),
    Metric("batched_runs", "count", "Runs served by a config-batched pass.",
           EXACT),
    Metric("configs_per_batch", "runs", "Mean runs per config-batched pass.",
           derive=_ratio("batched_runs", "batches")),
    Metric("remote_runs", "count", "Runs completed by remote worker agents.",
           EXACT),
    Metric("agents_joined", "count",
           "Worker agents that completed a handshake."),
    Metric("agents_lost", "count", "Worker agents whose heartbeats stopped."),
    Metric("leases_granted", "count", "Leases granted to remote agents."),
    Metric("lease_expiries", "count",
           "Leases reclaimed from dead or partitioned agents."),
    Metric("lease_requeues", "count", "Expired leases requeued uncharged."),
    Metric("duplicate_completions", "count",
           "At-least-once redeliveries deduplicated."),
    Metric("stale_completions", "count",
           "Completions for leases already requeued."),
    Metric("remote_batch_explodes", "count",
           "Batch leases exploded into singletons by a member fault."),
    Metric("artifact_fetches", "count",
           "Trace/checkpoint artifacts agents fetched over the wire."),
    Metric("artifact_refetches", "count",
           "Artifact re-fetches after a failed verification."),
    Metric("artifact_corrupt_chunks", "count",
           "Artifact transfers rejected by their sha256."),
    Metric("trace_cache_hits", "count",
           "Traces served memory-mapped from the trace store."),
    Metric("trace_cache_misses", "count",
           "Traces generated (and stored) fresh."),
    Metric("checkpoint_hits", "count",
           "Prefix warmings resumed from a checkpoint."),
    Metric("checkpoint_misses", "count",
           "Prefix warmings replayed from instruction zero."),
    Metric("instructions_skipped", "instructions",
           "Warming instructions checkpoints saved."),
    Metric("instructions", "instructions",
           "Instructions simulated (detailed and warming).", EXACT),
    Metric("instructions_per_second", "instructions/s",
           "Simulated instructions per second of run wall time.",
           derive=_ratio("instructions", "wall_time_s")),
    Metric("wall_time_s", "s", "Sum of per-run execution wall time.",
           _SWEEP_BAND),
    Metric("batch_time_s", "s", "End-to-end run_many() wall time.",
           _SWEEP_BAND, column="batch_s"),
    Metric("run_rss_bytes", "bytes",
           "Peak resident-set size observed by any run this sweep.",
           (0.50, 64e6), path="resources.max_rss_bytes",
           column="max_rss_mb", scale=1e-6),
    Metric("run_cpu_seconds", "s",
           "Total CPU time (user+system) burned by this sweep's runs.",
           _SWEEP_BAND, path="resources.cpu_time_s", column="cpu_s"),
)

#: Labelled and live Prometheus series, in textfile order.  The
#: ``live`` table is the in-flight tracker's counts; ``per_agent``
#: fields are the lease ledger's per-agent row keys.
SERIES = (
    Metric("failures_by_kind", "count", "Terminal run failures by error kind.",
           path="failures_by_kind", label="kind"),
    Metric("family_runs", "count", "Executed runs per technique family.",
           path="per_family.runs", label="family"),
    Metric("family_wall_time_seconds", "s",
           "Run wall time per technique family.",
           path="per_family.wall_time_s", label="family"),
    Metric("in_flight", "count",
           "Runs executing right now (batch members counted individually).",
           path="live.in_flight"),
    Metric("queued", "count",
           "Runs waiting to execute (batch members counted individually).",
           path="live.queued"),
    Metric("agents_connected", "count",
           "Remote worker agents currently connected.",
           derive=_agents_connected),
    Metric("agent_runs", "count", "Runs completed per remote worker agent.",
           path="per_agent.runs", label="agent"),
    Metric("agent_wall_time_seconds", "s",
           "Run wall time per remote worker agent.",
           path="per_agent.wall_time_s", label="agent"),
    Metric("agent_artifact_hits", "count",
           "Artifact-store probe hits per remote worker agent.",
           path="per_agent.artifact_hits", label="agent"),
    Metric("agent_artifact_misses", "count",
           "Artifact-store probe misses per remote worker agent.",
           path="per_agent.artifact_misses", label="agent"),
)

#: Per-agent row fields kept in ``engine-stats.json``'s ``per_agent``.
AGENT_FIELDS = tuple(
    m.key.split(".", 1)[1] for m in SERIES if m.key.startswith("per_agent.")
)


def artifact_hit_rate(agent: dict) -> str:
    """An agent row's artifact-store probe hit rate ("-" before any)."""
    hits = int(agent.get("artifact_hits", 0) or 0)
    probes = hits + int(agent.get("artifact_misses", 0) or 0)
    return f"{100.0 * hits / probes:.1f}%" if probes else "-"


#: Registered metrics accumulated by :class:`EngineMetrics` (the rest
#: are derived or live in a nested section).
_COUNTERS = tuple(m for m in METRICS if m.derive is None and m.path == "")
_DERIVED = {m.name: m.derive for m in METRICS if m.derive is not None}


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty sample set)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered))) - 1))
    if fraction <= 0:
        rank = 0
    return ordered[rank]


def _histogram(samples: List[float], suffix: str = "_s") -> Dict[str, float]:
    return {
        f"p50{suffix}": _percentile(samples, 0.50),
        f"p90{suffix}": _percentile(samples, 0.90),
        f"max{suffix}": max(samples) if samples else 0.0,
    }


@dataclass
class PhaseBucket:
    """Totals and per-run samples for one simulation phase."""

    seconds: float = 0.0
    instructions: int = 0
    samples: List[float] = field(default_factory=list)

    def add(self, seconds: float, instructions: int) -> None:
        self.seconds += seconds
        self.instructions += instructions
        self.samples.append(seconds)

    def summary(self) -> Dict[str, object]:
        return {
            "seconds": self.seconds,
            "instructions": self.instructions,
            "samples": len(self.samples),
            **_histogram(self.samples),
        }


@dataclass
class BackendMetrics:
    """Per-kernel-backend execution totals."""

    runs: int = 0
    wall_time_s: float = 0.0
    wall_samples: List[float] = field(default_factory=list)

    def add(self, wall: float) -> None:
        self.runs += 1
        self.wall_time_s += wall
        self.wall_samples.append(wall)

    def summary(self) -> Dict[str, object]:
        return {
            "runs": self.runs,
            "wall_time_s": self.wall_time_s,
            "wall": _histogram(self.wall_samples),
        }


@dataclass
class FamilyMetrics(BackendMetrics):
    """Per-technique-family execution totals."""

    instructions: int = 0
    phases: Dict[str, PhaseBucket] = field(default_factory=dict)

    def add_phases(self, phase_times: Dict[str, Dict[str, float]]) -> None:
        for phase, entry in phase_times.items():
            self.phases.setdefault(phase, PhaseBucket()).add(
                float(entry.get("seconds", 0.0)),
                int(entry.get("instructions", 0)),
            )

    def summary(self) -> Dict[str, object]:
        return {
            **super().summary(),
            "instructions": self.instructions,
            "phases": {
                phase: bucket.summary()
                for phase, bucket in sorted(self.phases.items())
            },
        }


class EngineMetrics:
    """Counters for one engine's lifetime (possibly many batches).

    Every :data:`METRICS` entry reads as an attribute of the same name;
    accumulated ones are also assignable (``metrics.retries += 1``).
    ``agents_source`` (the lease ledger's ``agents_snapshot``, for a
    distributed sweep) is the one source of the ``per_agent`` table.
    """

    def __init__(
        self, agents_source: Optional[Callable[[], List[dict]]] = None
    ) -> None:
        self.__dict__["_values"] = {
            m.name: 0.0 if m.unit == "s" else 0 for m in _COUNTERS
        }
        self.agents_source = agents_source
        self.per_family: Dict[str, FamilyMetrics] = {}
        self.per_backend: Dict[str, BackendMetrics] = {}
        #: Every terminal failure kind, counted (timeout/crash also keep
        #: their dedicated counters for backwards compatibility).
        self.failures_by_kind: Dict[str, int] = {}
        #: Terminal failures: {"run", "kind", "error", "attempts", "quarantined"}.
        self.failed_runs: List[Dict[str, object]] = []
        #: Backend degradations: {"run", "from", "to"}.
        self.degraded_runs: List[Dict[str, object]] = []
        # Per-run resource telemetry (see repro.obs.resources).
        self.max_rss_bytes = 0
        self.cpu_time_s = 0.0
        self.cpu_user_s = 0.0
        self.cpu_system_s = 0.0
        self.run_rss_samples: List[float] = []
        self.run_cpu_samples: List[float] = []

    def __getattr__(self, name: str):
        values = self.__dict__.get("_values", {})
        if name in values:
            return values[name]
        if name in _DERIVED:
            return _DERIVED[name](values)
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        if name in self._values:
            self._values[name] = value
        else:
            object.__setattr__(self, name, value)

    def fold(self, deltas: Dict[str, int]) -> None:
        """Add one counter delta (trace store, checkpoints, lease
        ledger, a run's reuse counts) into the totals.

        Raises ValueError on a name :data:`METRICS` does not accumulate,
        so a new producer counter cannot be silently dropped.
        """
        for name, amount in deltas.items():
            if name not in self._values:
                raise ValueError(f"unregistered metric delta {name!r}")
            self._values[name] += amount

    def record_execution(
        self,
        family: str,
        wall: float,
        instructions: int,
        phase_times: Optional[Dict[str, Dict[str, float]]] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.runs_succeeded += 1
        self.wall_time_s += wall
        self.instructions += instructions
        bucket = self.per_family.setdefault(family, FamilyMetrics())
        bucket.add(wall)
        bucket.instructions += instructions
        if phase_times:
            bucket.add_phases(phase_times)
        if backend:
            self.per_backend.setdefault(backend, BackendMetrics()).add(wall)

    def record_phases(
        self, family: str, phase_times: Dict[str, Dict[str, float]]
    ) -> None:
        """Attribute phases that ran outside a run's wall time (e.g.
        supervisor-side SimPoint selection) to ``family``."""
        if phase_times:
            self.per_family.setdefault(family, FamilyMetrics()).add_phases(
                phase_times
            )

    def record_failure(
        self,
        description: str,
        kind: str,
        error: str,
        attempts: int,
        quarantined: bool,
    ) -> None:
        if quarantined:
            self.quarantined += 1
        else:
            self.failures += 1
        if kind == "timeout":
            self.timeouts += 1
        elif kind == "crash":
            self.crashes += 1
        self.failures_by_kind[kind] = self.failures_by_kind.get(kind, 0) + 1
        self.failed_runs.append(
            {
                "run": description,
                "kind": kind,
                "error": error,
                "attempts": attempts,
                "quarantined": quarantined,
            }
        )

    def record_resources(self, resources: Optional[Dict[str, float]]) -> None:
        """Fold one run's resource sample (RSS high-water, CPU time)
        into the totals; None (unmeasured platform) is a no-op."""
        if not resources:
            return
        rss = int(resources.get("max_rss_bytes", 0) or 0)
        cpu = float(resources.get("cpu_s", 0.0) or 0.0)
        self.max_rss_bytes = max(self.max_rss_bytes, rss)
        self.cpu_time_s += cpu
        self.cpu_user_s += float(resources.get("cpu_user_s", 0.0) or 0.0)
        self.cpu_system_s += float(resources.get("cpu_system_s", 0.0) or 0.0)
        self.run_rss_samples.append(float(rss))
        self.run_cpu_samples.append(cpu)

    def record_degradation(self, description: str, from_backend: str, to_backend: str) -> None:
        self.degradations += 1
        self.degraded_runs.append(
            {"run": description, "from": from_backend, "to": to_backend}
        )

    def _resources(self) -> Dict[str, object]:
        return {
            "max_rss_bytes": self.max_rss_bytes,
            "cpu_time_s": self.cpu_time_s,
            "cpu_user_s": self.cpu_user_s,
            "cpu_system_s": self.cpu_system_s,
            "samples": len(self.run_cpu_samples),
            "run_rss_bytes": _histogram(self.run_rss_samples, ""),
            "run_cpu_s": _histogram(self.run_cpu_samples, ""),
        }

    def _per_agent(self) -> Dict[str, Dict[str, object]]:
        rows = self.agents_source() if self.agents_source is not None else []
        return {
            row["agent"]: {name: row.get(name, 0) for name in AGENT_FIELDS}
            for row in rows
        }

    def snapshot(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            m.name: getattr(self, m.name) for m in METRICS if not m.path
        }
        document.update(
            resources=self._resources(),
            failures_by_kind=dict(sorted(self.failures_by_kind.items())),
            per_family={
                family: bucket.summary()
                for family, bucket in sorted(self.per_family.items())
            },
            per_backend={
                backend: bucket.summary()
                for backend, bucket in sorted(self.per_backend.items())
            },
            per_agent=self._per_agent(),
            failed_runs=list(self.failed_runs),
            degraded_runs=list(self.degraded_runs),
        )
        return document

    def write_json(self, path: Path, extra: Optional[Dict[str, object]] = None) -> None:
        """Write ``engine-stats.json`` (snapshot plus engine context).

        The write is atomic (:func:`repro.files.atomic_write`): a kill
        mid-write can never leave a truncated JSON document for the
        next resume to trip over.
        """
        document = self.snapshot()
        if extra:
            document.update(extra)
        atomic_write(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


class ProgressReporter:
    """Throttled progress lines on stderr.

    Silent when disabled; otherwise prints at most one line per
    ``min_interval`` seconds plus a final per-batch summary, so a
    thousand-run sweep does not flood the terminal.  The final line of
    a batch (``done == total``) always prints, even when it lands
    inside the throttle window.

    When the executor reports in-flight/queued counts and per-run wall
    times, the line carries them plus an ETA extrapolated from the
    rolling mean of recent run wall times and the worker count.
    """

    #: Rolling window of recent per-run wall times feeding the ETA.
    ETA_WINDOW = 32

    def __init__(
        self,
        enabled: bool = False,
        stream: Optional[TextIO] = None,
        min_interval: float = 0.5,
        jobs: int = 1,
    ) -> None:
        self.enabled = enabled
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.jobs = max(1, jobs)
        self._last_emit: Optional[float] = None
        self._recent_walls: "deque[float]" = deque(maxlen=self.ETA_WINDOW)

    def _emit(self, text: str) -> None:
        print(f"[engine] {text}", file=self.stream, flush=True)

    @staticmethod
    def _format_eta(seconds: float) -> str:
        if seconds >= 3600:
            return f"{seconds / 3600:.1f}h"
        if seconds >= 60:
            return f"{seconds / 60:.1f}m"
        return f"{seconds:.0f}s"

    def eta_seconds(self, remaining: int) -> Optional[float]:
        """Remaining wall time from the rolling per-run mean, or None
        before any run has finished."""
        if not self._recent_walls or remaining <= 0:
            return None
        mean = sum(self._recent_walls) / len(self._recent_walls)
        return mean * remaining / self.jobs

    def update(
        self,
        done: int,
        total: int,
        metrics: EngineMetrics,
        in_flight: Optional[int] = None,
        queued: Optional[int] = None,
        wall: Optional[float] = None,
    ) -> None:
        if wall is not None:
            self._recent_walls.append(wall)
        if not self.enabled:
            return
        final = done >= total
        now = time.monotonic()
        # The first line always emits: monotonic time starts near zero
        # on a freshly booted host, so no fixed "long ago" value works.
        if (
            not final
            and self._last_emit is not None
            and now - self._last_emit < self.min_interval
        ):
            return
        self._last_emit = now
        parts = [
            f"{done}/{total} runs "
            f"(cache {metrics.cache_hits + metrics.memory_hits}, "
            f"executed {metrics.runs_succeeded}, failures "
            f"{metrics.failures + metrics.quarantined})"
        ]
        if in_flight is not None:
            parts.append(f"in-flight {in_flight}")
        if queued is not None:
            parts.append(f"queued {queued}")
        if not final:
            eta = self.eta_seconds(total - done)
            if eta is not None:
                parts.append(f"eta {self._format_eta(eta)}")
        self._emit(", ".join(parts))

    def batch_summary(self, metrics: EngineMetrics) -> None:
        if not self.enabled:
            return
        self._emit(
            f"batch done: {metrics.runs_requested} requested, "
            f"{metrics.runs_deduplicated} deduplicated, "
            f"{metrics.memory_hits} memory hits, "
            f"{metrics.cache_hits} cache hits, "
            f"{metrics.resumed} resumed, "
            f"{metrics.runs_launched} executed "
            f"({metrics.retries} retries, {metrics.failures} failures, "
            f"{metrics.quarantined} quarantined, "
            f"{metrics.degradations} degradations), "
            f"{metrics.instructions} instructions at "
            f"{metrics.instructions_per_second:,.0f} instr/s"
        )

"""Engine observability: run counters, throughput, progress streaming.

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
import os
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, TextIO


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty sample set)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered))) - 1))
    if fraction <= 0:
        rank = 0
    return ordered[rank]


def _histogram(samples: List[float]) -> Dict[str, float]:
    return {
        "p50_s": _percentile(samples, 0.50),
        "p90_s": _percentile(samples, 0.90),
        "max_s": max(samples) if samples else 0.0,
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


@dataclass
class FamilyMetrics:
    """Per-technique-family execution totals."""

    runs: int = 0
    wall_time_s: float = 0.0
    instructions: int = 0
    wall_samples: List[float] = field(default_factory=list)
    phases: Dict[str, PhaseBucket] = field(default_factory=dict)


@dataclass
class BackendMetrics:
    """Per-kernel-backend execution totals."""

    runs: int = 0
    wall_time_s: float = 0.0
    wall_samples: List[float] = field(default_factory=list)


@dataclass
class AgentMetrics:
    """Per-remote-agent execution totals (distributed sweeps)."""

    runs: int = 0
    wall_time_s: float = 0.0
    artifact_hits: int = 0    # local artifact-store probe hits
    artifact_misses: int = 0  # probe misses (fetched or regenerated)


@dataclass
class EngineMetrics:
    """Counters for one engine's lifetime (possibly many batches)."""

    runs_requested: int = 0     # requests submitted, before dedup
    runs_deduplicated: int = 0  # requests collapsed onto an identical run
    memory_hits: int = 0        # unique runs answered by the in-process cache
    cache_hits: int = 0         # unique runs answered by the persistent store
    resumed: int = 0            # journal-completed runs skipped on --resume
    runs_launched: int = 0      # unique runs handed to the executor
    runs_succeeded: int = 0     # launched runs that produced a result
    retries: int = 0            # re-executions after a failed attempt
    failures: int = 0           # runs that exhausted their retry budget
    quarantined: int = 0        # poison runs (identical failure twice)
    timeouts: int = 0           # attempts reaped by the watchdog
    crashes: int = 0            # attempts lost to a dead worker process
    degradations: int = 0       # runs retried on a lower backend tier
    batches: int = 0            # config-batched passes completed
    batched_runs: int = 0       # runs served by a config-batched pass
    # Distributed scheduling (lease server + remote worker agents):
    agents_joined: int = 0      # worker agents that completed a handshake
    agents_lost: int = 0        # agents whose heartbeats stopped
    leases_granted: int = 0     # runs leased to remote agents
    lease_expiries: int = 0     # leases reclaimed (dead/partitioned agent)
    lease_requeues: int = 0     # expired leases requeued uncharged
    remote_runs: int = 0        # runs completed by remote agents
    duplicate_completions: int = 0  # at-least-once redeliveries deduped
    stale_completions: int = 0  # completions for leases already requeued
    remote_batch_explodes: int = 0  # batch leases exploded by a member fault
    artifact_fetches: int = 0   # artifacts agents fetched over the wire
    artifact_refetches: int = 0  # re-fetches after a failed verification
    artifact_corrupt_chunks: int = 0  # transfers rejected by the sha256
    store_corrupt_entries: int = 0  # store reads rejected by the checksum
    # Shared-state reuse (trace store + warm-state checkpoints):
    trace_cache_hits: int = 0   # traces served memory-mapped from the store
    trace_cache_misses: int = 0  # traces generated (and stored) fresh
    checkpoint_hits: int = 0    # prefix warmings resumed from a checkpoint
    checkpoint_misses: int = 0  # prefix warmings that replayed from zero
    instructions_skipped: int = 0  # warming instructions checkpoints saved
    wall_time_s: float = 0.0    # sum of per-run execution wall time
    batch_time_s: float = 0.0   # end-to-end run_many() wall time
    instructions: int = 0       # instructions simulated (detailed + warm)
    # Per-run resource telemetry (see repro.obs.resources):
    max_rss_bytes: int = 0      # peak resident set observed by any run
    cpu_time_s: float = 0.0     # CPU seconds runs burned (user + system)
    cpu_user_s: float = 0.0
    cpu_system_s: float = 0.0
    run_rss_samples: List[float] = field(default_factory=list)
    run_cpu_samples: List[float] = field(default_factory=list)
    per_family: Dict[str, FamilyMetrics] = field(default_factory=dict)
    per_backend: Dict[str, BackendMetrics] = field(default_factory=dict)
    per_agent: Dict[str, AgentMetrics] = field(default_factory=dict)
    #: Every terminal failure kind, counted (timeout/crash also keep
    #: their dedicated counters for backwards compatibility).
    failures_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Terminal failures: {"run", "kind", "error", "attempts", "quarantined"}.
    failed_runs: List[Dict[str, object]] = field(default_factory=list)
    #: Backend degradations: {"run", "from", "to"}.
    degraded_runs: List[Dict[str, object]] = field(default_factory=list)

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
        bucket.runs += 1
        bucket.wall_time_s += wall
        bucket.instructions += instructions
        bucket.wall_samples.append(wall)
        if phase_times:
            self._add_phases(bucket, phase_times)
        if backend:
            backend_bucket = self.per_backend.setdefault(backend, BackendMetrics())
            backend_bucket.runs += 1
            backend_bucket.wall_time_s += wall
            backend_bucket.wall_samples.append(wall)

    @staticmethod
    def _add_phases(
        bucket: FamilyMetrics, phase_times: Dict[str, Dict[str, float]]
    ) -> None:
        for phase, entry in phase_times.items():
            bucket.phases.setdefault(phase, PhaseBucket()).add(
                float(entry.get("seconds", 0.0)),
                int(entry.get("instructions", 0)),
            )

    def record_phases(
        self, family: str, phase_times: Dict[str, Dict[str, float]]
    ) -> None:
        """Attribute phases that ran outside a run's wall time (e.g.
        supervisor-side SimPoint selection) to ``family``."""
        if phase_times:
            self._add_phases(
                self.per_family.setdefault(family, FamilyMetrics()), phase_times
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

    def record_reuse(self, counters: Dict[str, int]) -> None:
        """Fold one trace-store/checkpoint counter delta into the totals."""
        self.trace_cache_hits += counters.get("trace_cache_hits", 0)
        self.trace_cache_misses += counters.get("trace_cache_misses", 0)
        self.checkpoint_hits += counters.get("checkpoint_hits", 0)
        self.checkpoint_misses += counters.get("checkpoint_misses", 0)
        self.instructions_skipped += counters.get("instructions_skipped", 0)

    def record_remote(self, counters: Dict[str, int]) -> None:
        """Fold one lease-server counter delta into the totals."""
        self.agents_joined += counters.get("agents_joined", 0)
        self.agents_lost += counters.get("agents_lost", 0)
        self.leases_granted += counters.get("leases_granted", 0)
        self.lease_expiries += counters.get("lease_expiries", 0)
        self.lease_requeues += counters.get("lease_requeues", 0)
        self.duplicate_completions += counters.get("duplicate_completions", 0)
        self.stale_completions += counters.get("stale_completions", 0)
        self.remote_batch_explodes += counters.get("remote_batch_explodes", 0)
        self.artifact_fetches += counters.get("artifact_fetches", 0)
        self.artifact_refetches += counters.get("artifact_refetches", 0)
        self.artifact_corrupt_chunks += counters.get(
            "artifact_corrupt_chunks", 0
        )

    def record_agent_run(self, agent: str, wall: float) -> None:
        """Attribute one remotely-executed run to its worker agent."""
        self.remote_runs += 1
        bucket = self.per_agent.setdefault(agent, AgentMetrics())
        bucket.runs += 1
        bucket.wall_time_s += wall

    def record_agent_artifacts(self, agent: str, hits: int, misses: int) -> None:
        """Set one agent's cumulative artifact-cache probe counters
        (the lease ledger's registry entry is authoritative)."""
        bucket = self.per_agent.setdefault(agent, AgentMetrics())
        bucket.artifact_hits = hits
        bucket.artifact_misses = misses

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

    @property
    def instructions_per_second(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.instructions / self.wall_time_s

    @property
    def hit_rate(self) -> float:
        """Share of unique runs served from any cache layer."""
        served = self.memory_hits + self.cache_hits + self.runs_launched
        if not served:
            return 0.0
        return (self.memory_hits + self.cache_hits) / served

    def snapshot(self) -> Dict[str, object]:
        return {
            "runs_requested": self.runs_requested,
            "runs_deduplicated": self.runs_deduplicated,
            "memory_hits": self.memory_hits,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "runs_launched": self.runs_launched,
            "runs_succeeded": self.runs_succeeded,
            "retries": self.retries,
            "failures": self.failures,
            "quarantined": self.quarantined,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "degradations": self.degradations,
            "batches": self.batches,
            "batched_runs": self.batched_runs,
            "agents_joined": self.agents_joined,
            "agents_lost": self.agents_lost,
            "leases_granted": self.leases_granted,
            "lease_expiries": self.lease_expiries,
            "lease_requeues": self.lease_requeues,
            "remote_runs": self.remote_runs,
            "duplicate_completions": self.duplicate_completions,
            "stale_completions": self.stale_completions,
            "remote_batch_explodes": self.remote_batch_explodes,
            "artifact_fetches": self.artifact_fetches,
            "artifact_refetches": self.artifact_refetches,
            "artifact_corrupt_chunks": self.artifact_corrupt_chunks,
            "store_corrupt_entries": self.store_corrupt_entries,
            "configs_per_batch": (
                self.batched_runs / self.batches if self.batches else 0.0
            ),
            "trace_cache_hits": self.trace_cache_hits,
            "trace_cache_misses": self.trace_cache_misses,
            "checkpoint_hits": self.checkpoint_hits,
            "checkpoint_misses": self.checkpoint_misses,
            "instructions_skipped": self.instructions_skipped,
            "hit_rate": self.hit_rate,
            "wall_time_s": self.wall_time_s,
            "batch_time_s": self.batch_time_s,
            "instructions": self.instructions,
            "instructions_per_second": self.instructions_per_second,
            "resources": {
                "max_rss_bytes": self.max_rss_bytes,
                "cpu_time_s": self.cpu_time_s,
                "cpu_user_s": self.cpu_user_s,
                "cpu_system_s": self.cpu_system_s,
                "samples": len(self.run_cpu_samples),
                "run_rss_bytes": {
                    "p50": _percentile(self.run_rss_samples, 0.50),
                    "p90": _percentile(self.run_rss_samples, 0.90),
                    "max": (
                        max(self.run_rss_samples)
                        if self.run_rss_samples else 0.0
                    ),
                },
                "run_cpu_s": {
                    "p50": _percentile(self.run_cpu_samples, 0.50),
                    "p90": _percentile(self.run_cpu_samples, 0.90),
                    "max": (
                        max(self.run_cpu_samples)
                        if self.run_cpu_samples else 0.0
                    ),
                },
            },
            "failures_by_kind": dict(sorted(self.failures_by_kind.items())),
            "per_family": {
                family: {
                    "runs": bucket.runs,
                    "wall_time_s": bucket.wall_time_s,
                    "instructions": bucket.instructions,
                    "wall": _histogram(bucket.wall_samples),
                    "phases": {
                        phase: {
                            "seconds": phase_bucket.seconds,
                            "instructions": phase_bucket.instructions,
                            "samples": len(phase_bucket.samples),
                            **_histogram(phase_bucket.samples),
                        }
                        for phase, phase_bucket in sorted(bucket.phases.items())
                    },
                }
                for family, bucket in sorted(self.per_family.items())
            },
            "per_backend": {
                backend: {
                    "runs": bucket.runs,
                    "wall_time_s": bucket.wall_time_s,
                    "wall": _histogram(bucket.wall_samples),
                }
                for backend, bucket in sorted(self.per_backend.items())
            },
            "per_agent": {
                agent: {
                    "runs": bucket.runs,
                    "wall_time_s": bucket.wall_time_s,
                    "artifact_hits": bucket.artifact_hits,
                    "artifact_misses": bucket.artifact_misses,
                }
                for agent, bucket in sorted(self.per_agent.items())
            },
            "failed_runs": list(self.failed_runs),
            "degraded_runs": list(self.degraded_runs),
        }

    def write_json(self, path: Path, extra: Optional[Dict[str, object]] = None) -> None:
        """Write ``engine-stats.json`` (snapshot plus engine context).

        The write is atomic (temp file + ``os.replace``): a kill
        mid-write can never leave a truncated JSON document for the
        next resume to trip over.
        """
        document = self.snapshot()
        if extra:
            document.update(extra)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(document, indent=2, sort_keys=True) + "\n"
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


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

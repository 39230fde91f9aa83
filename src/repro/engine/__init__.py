"""Parallel execution engine with a persistent result cache.

The engine is the single entry point for running simulation
techniques.  Experiments enumerate :class:`RunRequest` batches; the
engine deduplicates them (:mod:`repro.engine.planner`), answers what it
can from its in-process memo and the content-addressed on-disk store
(:mod:`repro.engine.store`), executes the rest across supervised
worker processes (:mod:`repro.engine.executor`: per-run timeouts,
backoff retries, poison-run quarantine, backend degradation), records every
run's fate in a crash-safe journal (:mod:`repro.engine.journal`) and
accounts for everything in :mod:`repro.engine.metrics` /
``engine-stats.json``.  Failure paths are testable deterministically
through the fault-injection harness (:mod:`repro.engine.faults`).

Typical use::

    engine = Engine(scale=Scale(25), jobs=8, cache_dir="~/.cache/repro")
    results = engine.run_many([RunRequest(technique, workload, config)])
    engine.write_stats()          # <cache_dir>/engine-stats.json

A sweep killed part-way through is restarted with ``resume=True`` (CLI:
``--resume``): journal-completed runs are served from the store instead
of re-executing and the final output is bit-identical.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.cpu import checkpoint
from repro.cpu.config import BASELINE, Enhancements, ProcessorConfig
from repro.cpu.kernels.registry import default_backend_name, resolve_backend_name
from repro.obs import history as obs_history
from repro.obs import phases as obs_phases
from repro.obs import trace as obs_trace
from repro.obs.live import LIVE_FILENAME, InflightTracker, LiveMonitor
from repro.scale import Scale
from repro.settings import value
from repro.techniques.base import SimulationTechnique, TechniqueResult
from repro.techniques.simpoint import SimPointTechnique
from repro.workloads import trace_store
from repro.workloads.inputs import Workload

from repro.engine.executor import (
    BatchTask,
    Executor,
    RunError,
    RunInfo,
    RunTask,
    classify_failure,
    execute_request,
)
from repro.engine.faults import FAULT_PLAN_ENV_VAR, FaultSpec, InjectedFault
from repro.engine.journal import (
    JOURNAL_FILENAME,
    JOURNAL_VERSION,
    JournalState,
    SweepJournal,
)
from repro.engine.metrics import EngineMetrics, ProgressReporter
from repro.engine.planner import RESULTS_EPOCH, Plan, RunRequest
from repro.engine.protocol import LeaseServer, parse_address
from repro.engine.store import SCHEMA_VERSION, ResultStore

__all__ = [
    "BatchTask",
    "Engine",
    "EngineMetrics",
    "EngineRunError",
    "Executor",
    "FAULT_PLAN_ENV_VAR",
    "FaultSpec",
    "InjectedFault",
    "JOURNAL_FILENAME",
    "JournalState",
    "LeaseServer",
    "Plan",
    "ProgressReporter",
    "RESULTS_EPOCH",
    "ResultStore",
    "RunError",
    "RunInfo",
    "RunRequest",
    "SCHEMA_VERSION",
    "SweepJournal",
    "execute_request",
    "parse_address",
]

#: Name of the machine-readable stats file written next to the cache.
STATS_FILENAME = "engine-stats.json"

#: Cache-dir subdirectories for the shared stores.
TRACES_SUBDIR = "traces"
CHECKPOINTS_SUBDIR = "checkpoints"


class EngineRunError(RuntimeError):
    """One or more runs of a sweep failed (after retry/quarantine).

    The sweep itself completed: every other run's result was computed
    and cached.  ``errors`` maps each failed run's description to the
    :class:`RunError` (or exception) that killed it.
    """

    def __init__(self, errors: Dict[str, BaseException]) -> None:
        self.errors = errors
        lines = [f"{len(errors)} run(s) failed:"]
        lines.extend(f"  {name}: {exc!r}" for name, exc in errors.items())
        super().__init__("\n".join(lines))


class Engine:
    """Job planner + supervised parallel executor + persistent store.

    Each ``repro.settings.SETTINGS`` keyword left at None resolves
    through :func:`repro.settings.value` (its environment variable,
    else the table default) -- except ``cache_dir``: an engine without
    one keeps results in memory.

    ``run_timeout`` bounds each run's wall clock (enforced when
    ``jobs > 1``); ``retries`` bounds re-executions per run.  With a
    ``cache_dir``, every run's fate is journaled to
    ``<cache_dir>/journal.jsonl``; ``resume=True`` replays that journal
    so a killed sweep skips its completed runs (and its quarantined
    poison runs) instead of starting over.

    ``batch_configs`` (default 1 = off) caps how many same-geometry
    planned runs one config-batched simulation pass may serve: runs
    grouped by ``technique.batch_key`` decode the trace and advance the
    structures once and repeat only the per-config timing, with
    results bit-identical to unbatched runs.
    Batches journal, retry, degrade and quarantine per member run --
    any batched failure re-executes the members as singletons without
    charging their retry budgets.

    With ``listen=`` the same batches are leased whole to remote worker
    agents, capped at ``remote_batch_configs`` members per lease
    (default: the local ``batch_configs`` cap) -- agents prefetch
    missing traces and checkpoints through the wire-level artifact
    cache and run one batched pass instead of N cold singleton
    simulations.
    """

    def __init__(
        self,
        scale: Optional[Scale] = None,
        jobs: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        progress: bool = False,
        retries: Optional[int] = None,
        run_timeout: Optional[float] = None,
        resume: Optional[bool] = None,
        backoff_base: float = 0.1,
        checkpoint_interval: Optional[float] = None,
        trace_cache: Optional[bool] = None,
        trace: Optional[bool] = None,
        metrics_file: Optional[os.PathLike] = None,
        live_interval: float = 1.0,
        batch_configs: Optional[int] = None,
        remote_batch_configs: Optional[int] = None,
        listen: Optional[str] = None,
        lease_ttl: Optional[float] = None,
        min_agents: Optional[int] = None,
        history: Optional[bool] = None,
    ) -> None:
        # Every setting resolves (repro.settings) and is checked before
        # anything touches the disk or the process-wide stores.
        self.scale = value("scale", scale)
        self.executor = Executor(
            jobs=jobs,
            retries=retries,
            timeout=run_timeout,
            backoff_base=backoff_base,
            lease_ttl=lease_ttl,
        )
        resume = value("resume", resume)
        self.checkpoint_interval_m = value(
            "checkpoint_interval", checkpoint_interval
        )
        self.trace_cache = value("trace_cache", trace_cache)
        self.trace = value("trace", trace)
        history = value("history", history)
        metrics_file = value("metrics_file", metrics_file)
        self.metrics_file = Path(metrics_file) if metrics_file else None
        self.batch_configs = value("batch_configs", batch_configs)
        # A remote lease carries at most this many batch members; the
        # default mirrors the local grouping cap so a lease ships the
        # same work a local worker would receive.
        self.remote_batch_configs = value(
            "remote_batch_configs", remote_batch_configs,
            default=self.batch_configs,
        )
        self.min_agents = value("min_agents", min_agents)
        address = parse_address(listen) if listen is not None else None
        if self.executor.jobs == 0 and listen is None:
            raise ValueError(
                "--jobs 0 (no local clients) requires --listen so remote "
                "worker agents can execute the sweep"
            )
        if self.min_agents > 0 and listen is None:
            raise ValueError("--workers-remote requires --listen")
        for flag, wanted in (("--resume", resume), ("--trace", self.trace)):
            if wanted and cache_dir is None:
                raise ValueError(
                    f"{flag} requires a cache directory (--cache-dir)"
                )

        self.store = ResultStore(cache_dir) if cache_dir is not None else None
        # Sweep-history recording: append-only metadata beside the
        # store, so it only exists where there is a store to sit beside.
        self.history = history and self.store is not None
        #: The id of the history record close() appended (None until
        #: then, or when recording is off / nothing ran).
        self.last_history_id: Optional[str] = None
        self._planned_keys: set = set()
        # The shared stores are process-wide: forked workers inherit
        # them, and close() reinstates whatever was active before.
        checkpoint_instructions = 0
        if self.checkpoint_interval_m > 0:
            checkpoint_instructions = max(
                1, self.scale.instructions(self.checkpoint_interval_m)
            )
        traces = checkpoints = None
        if self.store is not None:
            if self.trace_cache:
                traces = trace_store.TraceStore(
                    self.store.root / TRACES_SUBDIR
                )
            if checkpoint_instructions:
                checkpoints = checkpoint.CheckpointStore(
                    self.store.root / CHECKPOINTS_SUBDIR,
                    checkpoint_instructions,
                )
        self._previous_stores: Optional[tuple] = (
            trace_store.activate(traces),
            checkpoint.activate(checkpoints),
        )
        self._events_dir: Optional[Path] = None
        self._previous_tracer = None
        if self.trace:
            self._events_dir = self.store.directory / obs_trace.EVENTS_SUBDIR
            if not resume:
                self._clear_stale_trace()
            self._previous_tracer = obs_trace.activate(
                self._events_dir, worker="supervisor"
            )
        self.metrics = EngineMetrics()
        self.reporter = ProgressReporter(enabled=progress, jobs=self.jobs)
        self.tracker = InflightTracker()
        self.monitor: Optional[LiveMonitor] = None
        live_path = (
            self.store.directory / LIVE_FILENAME
            if (self.store is not None and self.trace)
            else None
        )
        if live_path is not None or self.metrics_file is not None:
            self.monitor = LiveMonitor(
                self.tracker,
                live_path=live_path,
                metrics_path=self.metrics_file,
                metrics_source=lambda: self.metrics.snapshot(),
                interval=live_interval,
            )
            self.monitor.start()
        # Per-backend metrics attribute non-degraded runs to the
        # session default backend (the env may name an unavailable one).
        try:
            self._default_backend = resolve_backend_name(None)
        except ValueError:
            self._default_backend = default_backend_name()
        self._memory: Dict[str, TechniqueResult] = {}
        self._selections: Dict[tuple, object] = {}

        self.journal: Optional[SweepJournal] = None
        self._journal_state = JournalState()
        if self.store is not None:
            journal_path = self.store.root / JOURNAL_FILENAME
            if resume:
                state = SweepJournal.load(journal_path)
                state.check_compatible(
                    self.scale.instructions_per_m, RESULTS_EPOCH
                )
                self._journal_state = state
            elif journal_path.exists():
                # A fresh (non-resumed) sweep must not inherit stale
                # completion or quarantine records -- but the prior
                # journal is a post-mortem artifact, so rotate it aside
                # instead of destroying it.
                os.replace(journal_path, journal_path.with_suffix(".jsonl.1"))
            self.journal = SweepJournal(journal_path)
            self.journal.record(
                "start", version=JOURNAL_VERSION,
                scale=self.scale.instructions_per_m, epoch=RESULTS_EPOCH,
                schema=SCHEMA_VERSION,
            )

        self.lease_server: Optional[LeaseServer] = None
        if address is not None:
            artifact_roots = {
                kind: store.root
                for kind, store in (
                    ("trace", traces), ("checkpoint", checkpoints)
                )
                if store is not None
            }
            self.lease_server = LeaseServer(
                *address,
                scale_instructions_per_m=self.scale.instructions_per_m,
                results_epoch=RESULTS_EPOCH,
                run_timeout=self.executor.timeout,
                lease_ttl=self.executor.lease_ttl,
                backend=self._default_backend,
                checkpoint_interval=checkpoint_instructions,
                journal=self.journal,
                remote_batch_configs=self.remote_batch_configs,
                artifact_roots=artifact_roots or None,
            )
            self.executor.server = self.lease_server
            self.metrics.agents_source = self.lease_server.agents_snapshot
            if self.monitor is not None:
                self.monitor.agents_source = self.lease_server.agents_snapshot

    def _clear_stale_trace(self) -> None:
        """Drop a previous sweep's event files before a fresh traced
        sweep (a resumed sweep appends instead, keeping its history)."""
        if self._events_dir is not None and self._events_dir.is_dir():
            for stale in self._events_dir.glob("*.jsonl"):
                try:
                    stale.unlink()
                except OSError:
                    pass
        for name in (obs_trace.MERGED_FILENAME, LIVE_FILENAME):
            try:
                (self.store.directory / name).unlink()
            except OSError:
                pass

    def _run_fact(self, event: str, key: str, **fields: object) -> None:
        """Record one run-lifecycle fact: the journal record and, when
        tracing, the trace point of the same name."""
        if self.journal is not None:
            self.journal.record(event, key=key, **fields)
        obs_trace.event(event, run=key, **fields)

    @property
    def jobs(self) -> int:
        return self.executor.jobs

    @property
    def run_timeout(self) -> Optional[float]:
        return self.executor.timeout

    # -- public API --------------------------------------------------------------

    def run(
        self,
        technique: SimulationTechnique,
        workload: Workload,
        config: ProcessorConfig,
        enhancements: Enhancements = BASELINE,
    ) -> TechniqueResult:
        """Execute (or fetch) a single run."""
        return self.run_many(
            [RunRequest(technique, workload, config, enhancements)]
        )[0]

    def run_many(
        self,
        requests: Sequence[RunRequest],
        allow_errors: bool = False,
    ) -> List[TechniqueResult]:
        """Execute a batch, deduplicated, cached and parallelized.

        Results come back in submission order (duplicates share one
        object).  If any run fails terminally the whole sweep still
        completes; the failures are then raised together as
        :class:`EngineRunError` -- or, with ``allow_errors=True``,
        returned as None in the failed slots.
        """
        batch_started = time.perf_counter()
        batch_mono = time.monotonic()
        with obs_trace.span("plan", requests=len(requests)):
            plan = Plan.build(requests, self.scale)
        self.metrics.runs_requested += plan.num_requested
        self.metrics.runs_deduplicated += plan.num_requested - plan.num_unique
        # The union of planned content keys fingerprints the config
        # grid for the sweep-history record (order-independent).
        self._planned_keys.update(plan.keys)

        results: List[Optional[TechniqueResult]] = [None] * plan.num_unique
        errors: Dict[int, BaseException] = {}
        tasks: List[RunTask] = []
        dedup_span = obs_trace.span("dedup", unique=plan.num_unique)
        dedup_span.__enter__()
        for slot, request, key in plan.items():
            cached = self._memory.get(key)
            if cached is not None:
                self.metrics.memory_hits += 1
                results[slot] = cached
                continue
            if self.store is not None:
                stored = self.store.get(key)
                if stored is not None:
                    if key in self._journal_state.completed:
                        self.metrics.resumed += 1
                    else:
                        self.metrics.cache_hits += 1
                    self._memory[key] = stored
                    results[slot] = stored
                    continue
            quarantine = self._journal_state.quarantined.get(key)
            if quarantine is not None:
                # A resumed poison run: skip it instead of re-poisoning
                # the fleet; it stays visible in errors and metrics.
                error = RunError(
                    quarantine.get("kind", "deterministic"),
                    quarantine.get("error", "quarantined in a previous sweep"),
                    quarantined=True,
                )
                errors[slot] = error
                # Listed for visibility, but not counted against this
                # sweep's launch/failure counters: the run was never
                # launched here (the quarantine is replayed history).
                self.metrics.failed_runs.append(
                    {
                        "run": request.describe(),
                        "kind": error.kind,
                        "error": str(error),
                        "attempts": 0,
                        "quarantined": True,
                    }
                )
                continue
            tasks.append(
                RunTask(
                    slot=slot,
                    request=request,
                    selection=self._selection_for(request),
                    key=key,
                    description=request.describe(),
                )
            )
        dedup_span.__exit__(None, None, None)
        # Trace-affinity scheduling: adjacent tasks share a workload, so
        # a worker's in-process trace LRU (and the OS page cache under
        # the trace store) is hit by the next task instead of thrashing
        # between benchmarks.  Results are keyed by slot, so execution
        # order never affects the output.
        tasks.sort(
            key=lambda t: (
                t.request.workload.benchmark,
                t.request.workload.input_set.name,
                t.request.workload.seed,
                t.slot,
            )
        )
        if self.journal is not None:
            for task in tasks:
                self.journal.record(
                    "planned", key=task.key, run=task.request.describe()
                )

        self.metrics.runs_launched += len(tasks)
        completed = plan.num_unique - len(tasks)
        self.tracker.set_progress(completed, plan.num_unique)

        def progress_update(wall: Optional[float] = None) -> None:
            self.tracker.set_progress(completed, plan.num_unique)
            counts = self.tracker.counts()
            self.reporter.update(
                completed,
                plan.num_unique,
                self.metrics,
                in_flight=counts["in_flight"],
                queued=counts["queued"],
                wall=wall,
            )

        def on_success(
            slot: int, result: TechniqueResult, wall: float, info: RunInfo
        ) -> None:
            nonlocal completed
            completed += 1
            key = plan.keys[slot]
            results[slot] = result
            self._memory[key] = result
            if self.store is not None:
                with obs_trace.span("store_write", run=key):
                    if info.payload is not None:
                        # A remote completion: persist the agent's wire
                        # payload verbatim so the distributed store is
                        # byte-identical to a single-host sweep's.
                        self.store.put_payload(key, info.payload)
                    else:
                        self.store.put(key, result)
            if self.journal is not None:
                # Journaled strictly after the store write: a crash
                # between the two re-runs the run, never loses it.
                self.journal.record(
                    "completed", key=key, wall_s=wall,
                    backend=info.backend, agent=info.agent,
                )
            self.metrics.record_execution(
                result.family,
                wall,
                _instructions_simulated(result),
                phase_times=result.phase_times,
                backend=info.backend or self._default_backend,
            )
            self.metrics.fold(info.reuse)
            self.metrics.record_resources(info.resources)
            if info.agent is not None:
                self.metrics.remote_runs += 1
                obs_trace.emit_span(
                    "remote_run",
                    time.monotonic() - wall,
                    wall,
                    run=key,
                    agent=info.agent,
                )
            progress_update(wall)

        def on_failure(slot: int, request: RunRequest, error: RunError) -> None:
            nonlocal completed
            completed += 1
            errors[slot] = error
            self._run_fact(
                "quarantined" if error.quarantined else "failed",
                plan.keys[slot],
                kind=error.kind, error=str(error), attempts=error.attempts,
            )
            self.metrics.record_failure(
                request.describe(),
                error.kind,
                str(error),
                attempts=error.attempts,
                quarantined=error.quarantined,
            )
            progress_update()

        def on_retry(slot: int, exc: BaseException) -> None:
            self.metrics.retries += 1
            # Reaped and crashed *attempts* are visible even when the
            # retry goes on to succeed.
            kind = classify_failure(exc)
            if kind == "timeout":
                self.metrics.timeouts += 1
            elif kind == "crash":
                self.metrics.crashes += 1
            self._run_fact("retry", plan.keys[slot], kind=kind)

        def on_degrade(slot: int, from_backend: str, to_backend: str) -> None:
            self.metrics.record_degradation(
                plan.unique[slot].describe(), from_backend, to_backend
            )
            self._run_fact(
                "degraded", plan.keys[slot],
                **{"from": from_backend, "to": to_backend},
            )

        def on_batch(members: int) -> None:
            self.metrics.batches += 1
            self.metrics.batched_runs += members

        if tasks:
            if self.lease_server is not None and self.min_agents > 0:
                self.lease_server.wait_for_agents(self.min_agents)
            self.executor.run(
                self._group_batches(tasks), self.scale,
                on_success, on_failure, on_retry, on_degrade,
                telemetry=self.tracker, on_batch=on_batch,
                remote=self.lease_server and self.lease_server.ledger,
            )
        # Fold in parent-side store traffic (SimPoint selections, in-process
        # trace loads); worker-side traffic arrived via RunInfo.reuse.
        self.metrics.fold(trace_store.consume_counters())
        self.metrics.fold(checkpoint.consume_counters())
        if self.lease_server is not None:
            self.metrics.fold(self.lease_server.ledger.consume_counters())
        if self.store is not None:
            self.metrics.store_corrupt_entries += (
                self.store.consume_corrupt_entries()
            )
        # Parent-side phases not attributed to a run (in-process runs
        # drain into their results; this catches supervisor leftovers).
        self.metrics.record_phases("(engine)", obs_phases.drain())
        self.metrics.batch_time_s += time.perf_counter() - batch_started
        obs_trace.emit_span(
            "batch",
            batch_mono,
            time.monotonic() - batch_mono,
            launched=len(tasks),
            unique=plan.num_unique,
        )
        if self.monitor is not None:
            self.monitor.write_once()
        self.reporter.batch_summary(self.metrics)

        if errors and not allow_errors:
            raise EngineRunError(
                {plan.unique[slot].describe(): exc for slot, exc in errors.items()}
            )
        return plan.gather(results)

    def write_stats(self, path: Optional[os.PathLike] = None) -> Optional[Path]:
        """Write ``engine-stats.json`` (atomic); defaults into the cache dir."""
        if path is None:
            if self.store is None:
                return None
            path = self.store.root / STATS_FILENAME
        path = Path(path)
        self.metrics.write_json(path, extra=self._stats_extra())
        return path

    def _stats_extra(self) -> Dict[str, object]:
        """Engine-context fields appended to every stats snapshot (both
        ``engine-stats.json`` and the sweep-history record)."""
        return {
            "scale": self.scale.instructions_per_m,
            "jobs": self.jobs,
            "run_timeout_s": self.run_timeout,
            "max_retries": self.executor.retries,
            "cache_dir": str(self.store.root) if self.store else None,
            "batch_configs": self.batch_configs,
            "remote_batch_configs": self.remote_batch_configs,
            "results_epoch": RESULTS_EPOCH,
            "schema_version": SCHEMA_VERSION,
            "checkpoint_interval_m": self.checkpoint_interval_m,
            "trace_cache": self.trace_cache,
            "trace": self.trace,
            "listen": (
                f"{self.lease_server.host}:{self.lease_server.port}"
                if self.lease_server is not None
                else None
            ),
            "lease_ttl_s": (
                self.lease_server.lease_ttl
                if self.lease_server is not None
                else None
            ),
            "metrics_file": str(self.metrics_file)
            if self.metrics_file
            else None,
        }

    def _append_history(self) -> Optional[str]:
        """Record this sweep into ``<cache-dir>/v1/history/``.

        Runs once, at close; a sweep that planned nothing (a pure
        library construction, or report tooling) records nothing.
        History is metadata beside the store -- failure to append never
        fails shutdown, and the result/trace/checkpoint stores are
        byte-identical with recording on or off.
        """
        if not self.history or self.store is None:
            return None
        if self.metrics.runs_requested <= 0:
            return None
        stats = self.metrics.snapshot()
        stats.update(self._stats_extra())
        identity = {
            "backend": self._default_backend,
            "jobs": self.jobs,
            "batch_configs": self.batch_configs,
            "remote_batch_configs": self.remote_batch_configs,
            "scale": self.scale.instructions_per_m,
            "listen": stats.get("listen"),
            "lease_ttl_s": stats.get("lease_ttl_s"),
        }
        record = obs_history.sweep_record(
            stats,
            fingerprint=obs_history.grid_fingerprint(self._planned_keys),
            identity=identity,
        )
        try:
            self.last_history_id = obs_history.append(self.store.root, record)
        except OSError:
            self.last_history_id = None
        return self.last_history_id

    def merged_trace_path(self) -> Optional[Path]:
        """Where the merged ``trace.jsonl`` lands (None when untraced)."""
        if not self.trace or self.store is None:
            return None
        return self.store.directory / obs_trace.MERGED_FILENAME

    def close(self) -> None:
        """Stop telemetry, merge the trace, release the journal handle
        and reinstate the stores and tracer that were active before
        this engine (safe to call repeatedly)."""
        if self.history:
            # Before the lease server closes: the record captures the
            # listen address and lease TTL as part of sweep identity.
            self._append_history()
            self.history = False
        if self.lease_server is not None:
            self.lease_server.close()
            self.lease_server = self.executor.server = None
        if self.monitor is not None:
            self.monitor.stop()
            self.monitor = None
        events_dir, self._events_dir = self._events_dir, None
        if events_dir is not None:
            obs_trace.deactivate(self._previous_tracer)
            try:
                obs_trace.merge(events_dir, self.merged_trace_path())
            except OSError:
                pass  # a read-only cache dir never fails shutdown
        if self.journal is not None:
            self.journal.close()
        if self._previous_stores is not None:
            traces, checkpoints = self._previous_stores
            trace_store.activate(traces)
            checkpoint.activate(checkpoints)
            self._previous_stores = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------

    def _group_batches(self, tasks: List[RunTask]) -> List[object]:
        """Fold batchable singleton tasks into :class:`BatchTask` groups.

        Tasks whose technique reports the same ``batch_key`` measure
        the same trace regions on one shared structure geometry, so one
        config-batched simulation pass serves them all.  Groups are
        chunked to at most ``batch_configs`` members; each batch takes
        the position of its first member, preserving the trace-affinity
        order of the input.  With ``batch_configs == 1`` (the default)
        the task list passes through untouched.
        """
        if self.batch_configs <= 1 or len(tasks) <= 1:
            return list(tasks)
        groups: Dict[tuple, List[RunTask]] = {}
        keys: List[Optional[tuple]] = []
        for task in tasks:
            request = task.request
            key = request.technique.batch_key(
                request.workload, request.config, request.enhancements,
                self.scale,
            )
            keys.append(key)
            if key is not None:
                groups.setdefault(key, []).append(task)
        emitted: set = set()
        work: List[object] = []
        for task, key in zip(tasks, keys):
            if key is None:
                work.append(task)
                continue
            if key in emitted:
                continue
            emitted.add(key)
            members = groups[key]
            for index in range(0, len(members), self.batch_configs):
                chunk = members[index : index + self.batch_configs]
                work.append(chunk[0] if len(chunk) == 1 else BatchTask(chunk))
        return work

    def _selection_for(self, request: RunRequest) -> Optional[object]:
        """SimPoint's config-independent selection, computed once per
        (workload, permutation) in the parent so the PB design's 44+
        configurations -- and every worker process -- share it."""
        technique = request.technique
        if not isinstance(technique, SimPointTechnique):
            return None
        key = (
            request.workload.benchmark,
            request.workload.input_set.name,
            request.workload.seed,
            self.scale.instructions_per_m,
            technique.permutation,
        )
        selection = self._selections.get(key)
        if selection is None:
            selection = technique.select(request.workload, self.scale)
            self._selections[key] = selection
            # Selection runs in the parent, outside any run's wall
            # time; attribute its phases (analysis, trace load) to the
            # family directly so they are not lost to the next run's
            # ledger reset.
            self.metrics.record_phases(technique.family, obs_phases.drain())
        return selection


def _instructions_simulated(result: TechniqueResult) -> int:
    """Work actually performed by the machine model for one run."""
    return (
        result.detailed_instructions
        + result.warm_detailed_instructions
        + result.functional_warm_instructions
    )

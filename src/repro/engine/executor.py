"""Run execution: one supervision loop over three kinds of runner.

:meth:`Executor.run` drives every task through one loop; only the
runner behind it differs: a supervised ``ProcessPoolExecutor``, an
in-process runner that hands back already-resolved futures (``jobs ==
1``, or a lone task with no timeout to enforce), or none at all
(``jobs == 0``: remote agents lease every task, see
:mod:`repro.engine.protocol`).  Every task runs in one worker envelope
(:func:`_worker`), and every completion, local or leased, is credited
through one fan-out.

Workers receive pickled ``(technique, workload, config, enhancements,
scale)`` tuples and return the finished :class:`TechniqueResult`, so a
run's outcome cannot depend on which process executed it -- parallel
sweeps are bit-for-bit identical to serial ones.  Canonical registry
workloads are shipped as a compact ``(benchmark, input set, seed)``
key instead of by value: the worker rebinds the key through the
(deterministic, memoized) benchmark registry, which shrinks every
submission pickle and lets workers share one trace per benchmark via
the trace store instead of regenerating per request.

Failures are handled by a per-run supervisor rather than a single bare
retry:

* every failure is classified into a :class:`RunError` kind --
  ``transient`` (a worker exception), ``deterministic`` (the same
  exception twice), ``timeout`` (reaped by the watchdog) or ``crash``
  (the worker process died and broke the pool);
* retries use bounded exponential backoff with deterministic jitter
  seeded from the run's content key, so two sweeps over the same plan
  retry on the same schedule;
* a run that fails with an *identical* signature twice is a poison run:
  it is quarantined (no further retries, regardless of remaining
  budget) and reported instead of burning the fleet's time.  Crash
  signatures are exempt: a pool breakage cannot be attributed to one
  run with certainty, so identical crashes never quarantine -- the
  retry budget is the backstop for a run that keeps killing workers;
* a per-run wall-clock timeout (pool and leases only: a hang
  in-process cannot be interrupted) is enforced by a watchdog that
  kills the worker processes and rebuilds the pool.  The clock starts when the
  run *begins executing* in a worker (workers report start/end events
  to the parent), so time spent queued behind siblings never counts
  against a run's budget; sibling in-flight runs are requeued without
  being charged an attempt;
* a failure raised from inside a simulation kernel
  (:class:`~repro.cpu.kernels.registry.KernelError`) degrades the run
  to the reference backend (numpy -> python) instead of consuming
  retry budget -- the backends' bit-identical-statistics contract
  makes the degraded result indistinguishable.

When a pool breaks, only the in-flight runs that had actually started
executing are charged a ``crash`` attempt; runs still queued inside
the pool (or never submitted at all) are requeued as "never ran" --
they are not charged a retry attempt and do not inflate the retry
metric.

Config batching (:class:`BatchTask`) composes with all of the above by
keeping supervision strictly per-run: a batch wraps N single-run tasks
whose technique serves them in one shared simulation pass, and *any*
failure of the batched pass -- an exception, a kernel error, a watchdog
timeout (a batch's deadline is ``timeout * N``) or a pool breakage --
explodes the batch back into its member singleton tasks, requeued
without being charged an attempt.  The members then retry, degrade or
quarantine individually through the normal machinery, so a poisoned
config can never take its batch siblings down with it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.cpu import checkpoint
from repro.cpu.kernels.registry import BACKEND_ENV_VAR, KernelError
from repro.obs import phases as obs_phases
from repro.obs import resources as obs_resources
from repro.obs import trace as obs_trace
from repro.obs.live import InflightTracker
from repro.workloads import trace_store
from repro.scale import Scale
from repro.techniques.base import TechniqueResult
from repro.techniques.simpoint import SimPointTechnique

from repro.engine import faults
from repro.engine.planner import RunRequest

#: Upper bound on queued-but-unsubmitted work per worker; keeps the
#: submission loop from pickling thousands of workloads up front.
_BACKLOG_PER_WORKER = 4

#: Grace period for draining futures off a broken pool.
_BROKEN_DRAIN_S = 5.0

#: How often the parent wakes to drain worker lifecycle events while a
#: run timeout is armed (a run's deadline only becomes known once its
#: start event arrives, so the parent cannot sleep indefinitely).
_EVENT_POLL_S = 0.25

#: Cap on the parent's wait when live telemetry is attached, so phase
#: updates reach ``live.json`` promptly even while no future completes.
_TELEMETRY_POLL_S = 0.5

#: Minimum spacing of a worker's phase-transition events to the parent
#: (a warming loop alternates phases far faster than a live view needs).
_PHASE_EVENT_MIN_S = 0.25

#: RunError kinds (the engine's error taxonomy).
ERROR_KINDS = ("transient", "deterministic", "timeout", "crash")


class RunError(RuntimeError):
    """One run's terminal failure, classified.

    ``kind`` is one of :data:`ERROR_KINDS`; ``quarantined`` marks a
    poison run (identical failure twice -- retrying was abandoned even
    though budget may have remained); ``cause`` is the underlying
    exception when one exists (``None`` for watchdog timeouts).
    """

    def __init__(
        self,
        kind: str,
        message: str,
        attempts: int = 1,
        quarantined: bool = False,
        cause: Optional[BaseException] = None,
    ) -> None:
        note = " [quarantined]" if quarantined else ""
        super().__init__(
            f"{kind} failure after {attempts} attempt(s){note}: {message}"
        )
        self.kind = kind
        self.attempts = attempts
        self.quarantined = quarantined
        self.cause = cause


@dataclass
class RunInfo:
    """Supervision context delivered alongside a successful result."""

    attempts: int = 1
    backend: Optional[str] = None  # degraded backend used, None = default
    #: Trace-store / checkpoint counter deltas observed by this run's
    #: worker (empty when the stores are inactive).
    reuse: Dict[str, int] = field(default_factory=dict)
    #: How many runs shared this run's simulation pass (1 = unbatched).
    batch_size: int = 1
    #: The exact wire payload for a remotely-executed run (None for
    #: local runs).  The engine stores it verbatim so a distributed
    #: sweep's store bytes are identical to a single-host sweep's.
    payload: Optional[dict] = None
    #: Name of the worker agent that executed the run (None = local).
    agent: Optional[str] = None
    #: Resource sample for the run (max-RSS bytes, CPU seconds; see
    #: :mod:`repro.obs.resources`).  None when unmeasured.  A batched
    #: run carries its even CPU share of the pass, like wall time.
    resources: Optional[Dict[str, float]] = None


@dataclass
class RunTask:
    """One unique run, tagged with its slot in the plan."""

    slot: int
    request: RunRequest
    selection: Optional[object] = None  # precomputed SimPoint selection
    key: str = ""                       # content key (journal + backoff seed)
    attempt: int = 1                    # 1-based attempt about to execute
    backend: Optional[str] = None       # degradation override
    #: ``(benchmark, input set, seed)`` when ``request.workload`` was
    #: stripped for submission; the worker rebinds it via the registry.
    workload_key: Optional[Tuple[str, str, int]] = None
    #: Human-readable run description for the live telemetry view.
    description: str = ""
    #: ``time.monotonic()`` at pool submission (stamped by the parent;
    #: comparable across processes), feeding the queue-wait span.
    submitted: Optional[float] = None


@dataclass
class BatchTask:
    """One config-batched execution of several same-group run tasks.

    The members share a technique permutation, workload, measured
    regions and structure geometry (the engine groups them by
    ``technique.batch_key``), so one shared simulation pass serves them
    all via ``technique.run_batch``.  A batch is all-or-nothing in
    flight: any failure explodes it back into its member singleton
    tasks, requeued *uncharged*, and retry/quarantine/degradation then
    happen at single-config granularity.  Consequently a batch never
    carries an attempt count above 1 and never degrades as a unit.
    """

    members: List[RunTask]
    attempt: int = 1
    backend: Optional[str] = None  # batches never degrade; kept for telemetry
    submitted: Optional[float] = None

    @property
    def slot(self) -> int:
        """Representative plan slot (lifecycle events and telemetry)."""
        return self.members[0].slot

    @property
    def key(self) -> str:
        return self.members[0].key

    @property
    def description(self) -> str:
        return (
            f"{self.members[0].description} "
            f"[batched x{len(self.members)} configs]"
        )


def _members(task) -> List[RunTask]:
    """The runs one task executes: a batch's members, or the run itself
    (a batch also earns its members' summed wall-clock budget)."""
    return task.members if isinstance(task, BatchTask) else [task]


@lru_cache(maxsize=64)
def _resolve_workload(benchmark: str, input_set: str, seed: int):
    """Worker-side workload rebinding (memoized per process)."""
    from repro.workloads.spec import get_workload

    return get_workload(benchmark, input_set, seed=seed)


def _strip_workload(task: RunTask) -> RunTask:
    """A submission copy of ``task`` that ships its workload by key.

    Only *canonical* registry workloads are stripped, detected by
    identity of their program and input-set spec against what the
    (memoized) registry returns for the same key.  A custom workload --
    e.g. a reduced-input variant carrying its own
    :class:`InputSetSpec` -- is pickled by value as before, because a
    key lookup would rebind the wrong one.
    """
    workload = task.request.workload
    if workload is None:
        return task
    try:
        canonical = _resolve_workload(
            workload.benchmark, workload.input_set.name, workload.seed
        )
    except Exception:
        return task
    if (
        canonical.program is not workload.program
        or canonical.input_set is not workload.input_set
    ):
        return task
    return dataclasses.replace(
        task,
        request=dataclasses.replace(task.request, workload=None),
        workload_key=(workload.benchmark, workload.input_set.name, workload.seed),
    )


def _strip_task(task):
    """Submission copy of any task kind with workloads shipped by key."""
    if isinstance(task, BatchTask):
        return dataclasses.replace(
            task, members=[_strip_workload(member) for member in task.members]
        )
    return _strip_workload(task)


def _rebind_workload(task: RunTask) -> RunTask:
    """Worker-side inverse of :func:`_strip_workload` (no-op when the
    workload travelled by value)."""
    if task.request.workload is None and task.workload_key is not None:
        return dataclasses.replace(
            task,
            request=dataclasses.replace(
                task.request, workload=_resolve_workload(*task.workload_key)
            ),
        )
    return task


def execute_request(
    request: RunRequest, scale: Scale, selection: Optional[object] = None
) -> TechniqueResult:
    """Execute one run (the single code path shared by every mode)."""
    technique = request.technique
    if isinstance(technique, SimPointTechnique):
        if selection is None:
            selection = technique.select(request.workload, scale)
        return technique.run(
            request.workload,
            request.config,
            scale,
            enhancements=request.enhancements,
            selection=selection,
        )
    return technique.run(
        request.workload, request.config, scale, enhancements=request.enhancements
    )


# Worker-side handle on the parent's lifecycle event queue, installed
# by the pool initializer (None in the in-process runner and in an
# agent's lease child).
# Every event carries the pool generation so the parent can discard
# stragglers written by workers of an already-killed pool.
_worker_events = None
_worker_generation = 0


def _pool_init(event_queue, generation: int) -> None:
    """Pool initializer: report this worker's PID to the parent (the
    watchdog kills by these PIDs rather than executor internals) and
    stash the event queue for :func:`_worker`."""
    global _worker_events, _worker_generation
    _worker_events = event_queue
    _worker_generation = generation
    # A forked worker inherits the parent's in-flight counter state;
    # drain it so the deltas this worker reports are its own.  The
    # phase ledger and notifier are likewise parent leftovers.
    trace_store.consume_counters()
    checkpoint.consume_counters()
    obs_phases.drain()
    obs_phases.set_notifier(None)
    event_queue.put(("spawn", generation, os.getpid()))


class PhaseNotifier:
    """Forwards a run's phase transitions to ``sink(phase, attrs)``,
    rate-limited: a repeat of the last forwarded phase is dropped, and
    so is any change within :data:`_PHASE_EVENT_MIN_S` of the last
    forwarded event.  The pool worker's sink is the parent's event
    queue; an agent's lease child's is its pipe to the agent."""

    __slots__ = ("sink", "last", "sent_at")

    def __init__(self, sink: Callable[[str, dict], None]) -> None:
        self.sink = sink
        self.last: Optional[str] = None
        self.sent_at = 0.0

    def __call__(self, phase: str, attrs: Optional[dict] = None) -> None:
        now = time.monotonic()
        if phase == self.last or now - self.sent_at < _PHASE_EVENT_MIN_S:
            return
        self.last = phase
        self.sent_at = now
        try:
            self.sink(phase, dict(attrs) if attrs else {})
        except Exception:
            pass  # telemetry must never fail the run


def _run_attrs(task) -> Dict[str, object]:
    """Trace attributes identifying a task (no simulation state)."""
    attrs: Dict[str, object] = {"run": task.key, "attempt": task.attempt}
    first = _members(task)[0]
    workload = first.request.workload
    if workload is not None:
        attrs["benchmark"] = workload.benchmark
    elif first.workload_key is not None:
        attrs["benchmark"] = first.workload_key[0]
    try:
        attrs["family"] = first.request.technique.family
    except Exception:
        pass
    if task.backend is not None:
        attrs["backend"] = task.backend
    return attrs


def _phase_share(phases: Dict[str, dict], runs: int) -> Dict[str, dict]:
    """One run's even share of a pass's phase ledger (a batched pass
    warms once, not N times, so per-family totals stay true)."""
    if runs == 1:
        return phases
    return {
        phase: {
            "seconds": entry.get("seconds", 0.0) / runs,
            "instructions": int(round(entry.get("instructions", 0) / runs)),
        }
        for phase, entry in phases.items()
    }


def _worker(task, scale: Scale):
    """The one worker envelope, for every task kind and every runner.

    Returns ``(slots, results, wall, reuse, resources)`` with one slot
    and one result per run (a singleton is a one-run batch); each
    result carries its own ``phase_times``.  Any exception --
    including injected faults armed for *any* member slot -- propagates
    whole, and the parent explodes a failed batch back into singletons.
    """
    events, generation = _worker_events, _worker_generation
    begun = time.monotonic()
    if events is not None:
        # Start event first: the run-timeout clock starts here, and a
        # worker that dies mid-run (SIGKILL) must already have told the
        # parent this run was executing so the crash is attributed.
        events.put(
            ("start", generation, task.slot, task.attempt, begun, os.getpid())
        )
        obs_phases.set_notifier(
            PhaseNotifier(
                lambda phase, attrs: events.put(
                    ("phase", generation, task.slot, task.attempt, phase, attrs)
                )
            )
        )
    attrs = _run_attrs(task)
    if isinstance(task, BatchTask):
        attrs["configs"] = len(task.members)
    if task.submitted is not None:
        # Stamped by the parent at submission; CLOCK_MONOTONIC is
        # machine-wide, so the difference is the true queue wait.
        obs_trace.emit_span(
            "queue_wait", task.submitted, begun - task.submitted, **attrs
        )
    obs_trace.set_context(
        **{k: v for k, v in attrs.items() if k in ("run", "family", "benchmark")}
    )
    obs_phases.drain()  # stray ledger state must not leak into this task
    usage_baseline = obs_resources.snapshot()
    try:
        members = [_rebind_workload(member) for member in _members(task)]
        faults.activate_many([(m.slot, m.attempt) for m in members])
        previous = os.environ.get(BACKEND_ENV_VAR)
        if task.backend is not None:
            os.environ[BACKEND_ENV_VAR] = task.backend
        started = time.perf_counter()
        try:
            with obs_trace.span("run", **attrs):
                if isinstance(task, BatchTask):
                    first = members[0].request
                    results = first.technique.run_batch(
                        first.workload,
                        [m.request.config for m in members],
                        [m.request.enhancements for m in members],
                        scale,
                    )
                else:
                    results = [
                        execute_request(members[0].request, scale, task.selection)
                    ]
        finally:
            faults.deactivate()
            if task.backend is not None:
                if previous is None:
                    os.environ.pop(BACKEND_ENV_VAR, None)
                else:
                    os.environ[BACKEND_ENV_VAR] = previous
        wall = time.perf_counter() - started
        phases = obs_phases.drain()
        for result in results:
            result.phase_times = _phase_share(phases, len(results))
        reuse = trace_store.consume_counters()  # this task's store traffic
        reuse.update(checkpoint.consume_counters())
        return (
            [m.slot for m in members],
            results,
            wall,
            reuse,
            obs_resources.sample_since(usage_baseline),
        )
    finally:
        obs_trace.clear_context()
        if events is not None:
            obs_phases.set_notifier(None)
            events.put(("end", generation, task.slot, task.attempt))


def _live_entry(task) -> Dict[str, object]:
    """A task's identity in the live in-flight view (member-weighted)."""
    return {
        "slot": task.slot,
        "key": task.key,
        "description": task.description,
        "attempt": task.attempt,
        "backend": task.backend,
        "runs": len(_members(task)),
    }


class _InProcessRunner:
    """Runs each submitted task to completion inside :meth:`submit`, in
    this process, and hands back an already-resolved future.

    Used where a pool would only add overhead.  Unlike a pool worker it
    never reports a spawn (so the watchdog's kill path can never
    SIGKILL the supervisor) and never drains the parent's store
    counters at start-up.  The loop cannot poll while a run executes
    here, so the runner keeps that run's live view itself: its slot,
    this process's PID and its current phase.
    """

    def __init__(self, telemetry: Optional[InflightTracker]) -> None:
        self.telemetry = telemetry

    def submit(self, fn, task, scale: Scale) -> Future:
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.start(**_live_entry(task), pid=os.getpid())
            obs_phases.set_notifier(
                lambda phase, attrs=None: telemetry.set_phase(
                    task.slot, phase, attrs
                )
            )
        future: Future = Future()
        try:
            future.set_result(fn(task, scale))
        except Exception as exc:
            future.set_exception(exc)
        finally:
            if telemetry is not None:
                obs_phases.set_notifier(None)
                telemetry.finish(task.slot)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


class _WorkerEvents:
    """Parent-side view of the worker lifecycle event stream.

    Tracks which PIDs belong to the current pool generation and which
    ``(slot, attempt)`` runs are executing right now (with their start
    times).  Killing a pool bumps the generation, which both resets the
    state and makes the parent ignore straggler events still in the
    pipe from the old pool's workers.
    """

    def __init__(self) -> None:
        self.queue = multiprocessing.SimpleQueue()
        self.generation = 0
        self.pids: set = set()
        #: (slot, attempt) -> the executing run's ``started``, ``pid``,
        #: ``phase`` and ``phase_attrs``.
        self.running: Dict[Tuple[int, int], dict] = {}

    def drain(self) -> None:
        # Single consumer: if empty() is False a get() cannot block.
        while not self.queue.empty():
            kind, generation, *event = self.queue.get()
            if generation != self.generation:
                continue
            if kind == "spawn":
                self.pids.add(event[0])
            elif kind == "start":
                slot, attempt, started, pid = event
                self.running[(slot, attempt)] = {
                    "started": started, "pid": pid,
                    "phase": None, "phase_attrs": {},
                }
            elif kind == "phase":
                slot, attempt, phase, attrs = event
                run = self.running.get((slot, attempt))
                if run is not None:
                    run.update(phase=phase, phase_attrs=attrs)
            elif kind == "end":
                self.running.pop((event[0], event[1]), None)

    def run(self, task: "RunTask") -> Optional[dict]:
        """The executing run's record, or None if it has not started."""
        return self.running.get((task.slot, task.attempt))

    def start_time(self, task: "RunTask") -> Optional[float]:
        run = self.run(task)
        return run["started"] if run is not None else None

    def new_generation(self) -> None:
        self.generation += 1
        self.pids.clear()
        self.running.clear()

    def close(self) -> None:
        self.queue.close()


class _WatchdogTimeout(Exception):
    """Internal marker for a run reaped by the wall-clock watchdog."""


#: Callback signatures: success(slot, result, wall_seconds, info),
#: failure(slot, request, run_error), retry(slot, causing_exception),
#: degrade(slot, from_backend, to_backend) and batch(member_count) --
#: fired once per *successfully completed* batched pass.
SuccessCallback = Callable[[int, TechniqueResult, float, RunInfo], None]
FailureCallback = Callable[[int, RunRequest, RunError], None]
RetryCallback = Callable[[int, BaseException], None]
DegradeCallback = Callable[[int, str, str], None]
BatchCallback = Callable[[int], None]


#: Normalized signature for any pool breakage (messages vary by phase).
_CRASH_SIGNATURE = ("WorkerCrash", "worker process died")


def _signature(exc: BaseException) -> Tuple[str, str]:
    """Stable identity of a failure, for poison-run detection."""
    signature = getattr(exc, "signature", None)
    if signature is not None:
        # Remote failures (repro.engine.protocol.RemoteFailure) carry a
        # precomputed signature: a remote worker crash must match the
        # local crash signature so it stays quarantine-exempt.
        return tuple(signature)
    if isinstance(exc, BrokenExecutor):
        return _CRASH_SIGNATURE
    return (type(exc).__name__, str(exc))


def classify_failure(exc: BaseException) -> str:
    """Base taxonomy kind of one failed attempt (repetition may later
    upgrade ``transient`` to ``deterministic``)."""
    remote_kind = getattr(exc, "remote_kind", None)
    if remote_kind is not None:
        return remote_kind
    if isinstance(exc, _WatchdogTimeout):
        return "timeout"
    if isinstance(exc, BrokenExecutor):
        return "crash"
    return "transient"


@dataclass
class _Supervision:
    """Per-slot retry accounting."""

    failures: int = 0                   # attempts that ended in failure
    signatures: List[Tuple[str, str]] = field(default_factory=list)


#: Actions returned by the supervisor's failure handler.
_DONE = "done"      # terminal: on_failure already dispatched
_REQUEUE = "requeue"  # (action, task, delay_seconds)


class Executor:
    """Executes tasks with ``jobs`` worker processes (1 = in-process).

    ``retries`` bounds re-executions per run (on top of the first
    attempt); ``timeout`` is the per-run wall-clock budget in seconds
    (None = unbounded; not enforced on the in-process runner).  ``jobs=0``
    runs no local workers at all -- every run is executed by remote
    worker agents through the ``remote`` lease scheduler, so :meth:`run`
    requires one.
    """

    def __init__(
        self,
        jobs: int = 1,
        retries: int = 1,
        timeout: Optional[float] = None,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
    ) -> None:
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = remote agents only)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        self.jobs = jobs
        self.retries = retries
        self.timeout = timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap

    # -- supervision --------------------------------------------------------------

    def _backoff_delay(self, key: str, attempt: int) -> float:
        """Bounded exponential backoff with deterministic jitter.

        The jitter is seeded from ``(key, attempt)`` so a given run
        retries on the same schedule in every sweep, keeping resumed
        and repeated sweeps reproducible end to end.
        """
        if self.backoff_base <= 0:
            return 0.0
        raw = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2**64
        return raw * (0.5 + 0.5 * jitter)

    def _after_failure(
        self,
        task: RunTask,
        exc: BaseException,
        supervision: Dict[int, _Supervision],
        on_failure: FailureCallback,
        on_retry: RetryCallback,
        on_degrade: Optional[DegradeCallback],
    ):
        """Decide a failed attempt's fate.

        Returns ``(_DONE,)`` when the failure was terminal (the failure
        callback has fired) or ``(_REQUEUE, task, delay)`` when the run
        should be re-executed after ``delay`` seconds.
        """
        sup = supervision.setdefault(task.slot, _Supervision())

        # Kernel failures degrade one backend tier instead of consuming
        # retry budget: the backends' bit-identical contract makes the
        # lower tier a perfect substitute, just slower.
        if isinstance(exc, KernelError) and exc.fallback is not None:
            if on_degrade is not None:
                on_degrade(task.slot, exc.backend, exc.fallback)
            task.backend = exc.fallback
            return (_REQUEUE, task, 0.0)

        kind = classify_failure(exc)
        sig = _signature(exc)
        # A pool breakage is charged to every run that was executing
        # when the worker died, so two identical crash signatures do
        # not prove *this* run is the poison one -- crashes never
        # quarantine; the retry budget backstops a genuine worker
        # killer.
        identical = (
            bool(sup.signatures)
            and sup.signatures[-1] == sig
            and sig != _CRASH_SIGNATURE
        )
        sup.signatures.append(sig)
        sup.failures += 1

        # A poison run (identical failure twice) is quarantined: more
        # retries would only reproduce the failure.
        if identical or sup.failures > self.retries:
            error = RunError(
                "deterministic" if identical and kind == "transient" else kind,
                f"{sig[0]}: {sig[1]}",
                attempts=sup.failures,
                quarantined=identical,
                cause=None if isinstance(exc, _WatchdogTimeout) else exc,
            )
            on_failure(task.slot, task.request, error)
            return (_DONE,)
        on_retry(task.slot, exc)
        task.attempt = sup.failures + 1
        return (_REQUEUE, task, self._backoff_delay(task.key, sup.failures))

    # -- the run loop -------------------------------------------------------------

    def run(
        self,
        tasks: Sequence[object],
        scale: Scale,
        on_success: SuccessCallback,
        on_failure: FailureCallback,
        on_retry: RetryCallback,
        on_degrade: Optional[DegradeCallback] = None,
        telemetry: Optional[InflightTracker] = None,
        on_batch: Optional[BatchCallback] = None,
        remote: Optional[object] = None,
    ) -> None:
        """Execute every task, dispatching exactly one terminal callback
        (success or failure) per *run* -- a :class:`BatchTask` dispatches
        one per member.

        ``telemetry``, when given, is kept in sync with the runs that
        are executing right now (slot, phase, attempt, worker PID) for
        the live view and the progress reporter.

        ``remote``, when given, is a lease scheduler (a
        :class:`~repro.engine.protocol.LeaseLedger`): connected worker
        agents lease tasks straight out of the pending queue and their
        completions/failures/expiries are folded back through the same
        supervision machinery as local runs.
        """
        if self.jobs == 0 and remote is None:
            raise ValueError("jobs=0 requires a remote lease scheduler")
        in_process = remote is None and (
            self.jobs == 1 or (len(tasks) <= 1 and self.timeout is None)
        )
        workers = min(self.jobs, max(1, len(tasks)))
        # The in-process runner finishes a task inside submit(), so it
        # takes one at a time and each completes before the next runs.
        backlog = 1 if in_process else workers * _BACKLOG_PER_WORKER
        pending: Deque = deque(tasks)
        waiting: List[Tuple[float, RunTask]] = []  # backoff: (ready_at, task)
        supervision: Dict[int, _Supervision] = {}
        futures: Dict[object, object] = {}
        events = _WorkerEvents()
        if in_process:
            new_runner = lambda: _InProcessRunner(telemetry)  # noqa: E731
        else:
            new_runner = lambda: self._new_pool(workers, events)  # noqa: E731
        pool = new_runner() if workers else None  # jobs=0: leases only
        if remote is not None:
            # Connected agents lease tasks straight out of `pending`
            # (deque pops are atomic, so local submission and remote
            # grants never double-own a task).
            remote.begin_batch(pending)

        def sync_telemetry() -> None:
            """Rebuild the live in-flight view from worker events."""
            if telemetry is None:
                return
            running = []
            submitted_unstarted = 0
            for future, task in futures.items():
                if future.done():
                    continue  # finished: neither running nor queued
                run = events.run(task)
                if run is None:
                    # Submitted but not yet executing: still queued work
                    # (a batch still counts as its member runs).
                    submitted_unstarted += len(_members(task))
                    continue
                running.append({**_live_entry(task), **run})
            # Weight every pending unit by its member count: a BatchTask
            # is one future but ``configs_per_batch`` pending runs, and
            # an ETA that counted it as one run would be optimistic by
            # roughly that factor.
            queued = (
                sum(len(_members(t)) for t in pending)
                + sum(len(_members(t)) for _, t in waiting)
                + submitted_unstarted
            )
            telemetry.sync(running, queued)

        def handle_failure(task, exc: BaseException) -> None:
            if isinstance(task, BatchTask):
                # Any batched failure explodes back to singletons,
                # uncharged: retry/quarantine/degradation always happen
                # at single-run granularity.
                obs_trace.event(
                    "batch_explode",
                    run=task.key,
                    configs=len(task.members),
                    kind=classify_failure(exc),
                )
                pending.extend(task.members)
                return
            action = self._after_failure(
                task, exc, supervision, on_failure, on_retry, on_degrade
            )
            if action[0] == _REQUEUE:
                _, retask, delay = action
                if delay > 0:
                    waiting.append((time.monotonic() + delay, retask))
                else:
                    pending.append(retask)

        def complete(task, outcome, payloads=None, agent=None) -> None:
            """The one success fan-out: credit every run of a finished
            task, wherever it executed.

            ``outcome`` is the worker envelope's ``(slots, results,
            wall, reuse, resources)``.  Each run is credited an even
            share of the wall time and CPU (the shares sum back to the
            true cost); the first carries the task's store-reuse
            counters so they are folded exactly once.  ``payloads`` are
            a remote agent's wire payloads: the engine persists them
            verbatim, so a distributed store is byte-identical to a
            local one.
            """
            slots, results, wall, reuse, resources = outcome
            runs = len(slots)
            run_resources = obs_resources.share(resources, runs)
            for index, (slot, result) in enumerate(zip(slots, results)):
                sup = supervision.get(slot)
                on_success(
                    slot,
                    result,
                    wall / runs,
                    RunInfo(
                        attempts=(sup.failures if sup else 0) + 1,
                        backend=task.backend,
                        reuse=reuse if index == 0 else {},
                        batch_size=runs,
                        payload=payloads[index] if payloads else None,
                        agent=agent,
                        resources=run_resources,
                    ),
                )
            if isinstance(task, BatchTask) and on_batch is not None:
                on_batch(runs)

        def handle_done_future(future, task) -> bool:
            """Dispatch one completed future; True if the pool broke."""
            try:
                outcome = future.result()
            except BrokenExecutor as exc:
                # The breakage exception lands on *every* in-flight
                # future, but only runs that had started executing can
                # have killed (or been killed with) the worker; runs
                # still queued inside the pool never ran and are
                # requeued uncharged.
                if events.start_time(task) is not None:
                    handle_failure(task, exc)
                else:
                    pending.append(task)
                return True
            except Exception as exc:
                handle_failure(task, exc)
            else:
                complete(task, outcome)
            return False

        def drain_remote() -> None:
            """Fold the lease scheduler's events into the run loop."""
            for event in remote.collect():
                kind = event[0]
                if kind == "complete":
                    _, task, payloads, wall, reuse, agent, resources, phases = (
                        event
                    )
                    results = [TechniqueResult.from_payload(p) for p in payloads]
                    for result, phase_times in zip(results, phases):
                        result.phase_times = phase_times
                    slots = [member.slot for member in _members(task)]
                    complete(
                        task, (slots, results, wall, reuse, resources),
                        payloads, agent,
                    )
                elif kind == "fail":
                    _, task, exc, _agent = event
                    handle_failure(task, exc)
                elif kind == "timeout":
                    # Deadline blown while the agent kept heartbeating:
                    # a genuinely slow run, charged exactly like a local
                    # watchdog reap (a BatchTask explodes uncharged).
                    _, task, _agent, reason = event
                    handle_failure(task, _WatchdogTimeout(reason))
                elif kind == "requeue":
                    # Dead/partitioned agent: the run never (provably)
                    # executed, so it is requeued without being charged
                    # an attempt.
                    _, task, _agent, _reason = event
                    pending.append(task)
                elif kind == "parity":
                    _, key, agent, detail = event
                    raise RuntimeError(
                        f"distributed result parity violation for run "
                        f"{key} from agent {agent}: {detail}"
                    )

        try:
            while (
                pending or waiting or futures
                or (remote is not None and remote.outstanding())
            ):
                now = time.monotonic()
                if waiting:  # promote retries whose backoff has elapsed
                    pending.extend(t for ready, t in waiting if ready <= now)
                    waiting = [(ready, t) for ready, t in waiting if ready > now]

                if remote is not None:
                    drain_remote()

                pool_dead = False
                while pool is not None and pending and len(futures) < backlog:
                    try:
                        task = pending.popleft()
                    except IndexError:
                        break  # a remote agent leased the last task
                    task.submitted = time.monotonic()
                    try:
                        future = pool.submit(_worker, _strip_task(task), scale)
                    except RuntimeError:
                        # Pool broken or shut down mid-submission: this
                        # task never ran, so it is requeued without
                        # being charged an attempt.
                        pending.appendleft(task)
                        if futures:
                            break  # drain in-flight first; rebuild below
                        pool = self._replace_pool(pool, new_runner)
                        pool_dead = True
                        break
                    futures[future] = task
                if pool_dead:
                    continue

                if not futures:
                    sleeps = []
                    if waiting:
                        next_ready = min(ready for ready, _ in waiting)
                        sleeps.append(next_ready - time.monotonic())
                    if remote is not None and (
                        remote.outstanding() or pending
                    ):
                        # Remote-only progress: wake to drain lease
                        # events (and to re-check the heartbeat scan).
                        sleeps.append(_EVENT_POLL_S)
                    if sleeps:
                        time.sleep(max(0.0, min(sleeps)))
                    continue

                # A run's deadline is measured from the start event its
                # worker reported, never from submission: a run queued
                # behind more than `timeout` of sibling work must not
                # be reaped before it even begins.
                events.drain()
                sync_telemetry()
                now = time.monotonic()
                timeouts = []
                if self.timeout is not None:
                    # Wake periodically to pick up start events; a
                    # not-yet-started run has no deadline to sleep on.
                    timeouts.append(_EVENT_POLL_S)
                    for task in futures.values():
                        begun = events.start_time(task)
                        if begun is not None:
                            timeouts.append(
                                begun
                                + self.timeout * len(_members(task))
                                - now
                            )
                if telemetry is not None:
                    # Keep phase/queue updates flowing to the live view
                    # even while no future completes.
                    timeouts.append(_TELEMETRY_POLL_S)
                if remote is not None:
                    # Lease events (and heartbeat expiry) must be
                    # drained even while no local future completes.
                    timeouts.append(_EVENT_POLL_S)
                if waiting:
                    timeouts.append(min(ready for ready, _ in waiting) - now)
                wait_for = max(0.0, min(timeouts)) if timeouts else None
                done, _ = wait(
                    futures, timeout=wait_for, return_when=FIRST_COMPLETED
                )

                events.drain()
                broken = False
                for future in done:
                    task = futures.pop(future)
                    broken |= handle_done_future(future, task)
                if broken:
                    self._drain_broken(futures, pending, handle_done_future)
                    pool = self._replace_pool(pool, new_runner)
                    continue

                if self.timeout is not None:
                    pool = self._reap_expired(
                        pool, new_runner, futures, pending, events,
                        handle_failure, handle_done_future,
                    )
        finally:
            try:
                if remote is not None:
                    remote.end_batch()
                if pool is None:
                    pass
                elif futures:
                    # Bailing out with work in flight (error/interrupt):
                    # a hung worker would block a graceful shutdown
                    # forever.
                    self._kill_pool(pool, events)
                else:
                    # Normal completion: wait for the pool's management
                    # thread to wind down, or its atexit hook can race
                    # the close of the wakeup pipe and spew EBADF on
                    # exit.
                    pool.shutdown(wait=True, cancel_futures=True)
            finally:
                events.close()
                if telemetry is not None:
                    telemetry.clear()

    # -- pool internals -----------------------------------------------------------

    @staticmethod
    def _new_pool(workers: int, events: _WorkerEvents):
        """Build a pool whose workers report lifecycle events.

        Bumps the event generation first, so state from any previous
        pool (worker PIDs, started runs, straggler events still in the
        pipe) cannot leak into this one.
        """
        # Event files are line-buffered, but flush anyway so a forked
        # worker can never inherit half-written parent trace bytes.
        obs_trace.flush()
        events.new_generation()
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_init,
            initargs=(events.queue, events.generation),
        )

    @staticmethod
    def _replace_pool(pool, new_runner: Callable[[], object]):
        """Tear down a (possibly broken) pool and build a fresh one."""
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        return new_runner()

    @staticmethod
    def _drain_broken(futures, pending, handle_done_future) -> None:
        """Resolve every future stranded on a broken pool.

        Futures that resolve (normally ~immediately, with the pool's
        breakage exception) are dispatched; any that do not are
        abandoned and their tasks requeued uncharged.
        """
        remaining = list(futures.items())
        futures.clear()
        done, _ = wait([f for f, _ in remaining], timeout=_BROKEN_DRAIN_S)
        for future, task in remaining:
            if future in done:
                handle_done_future(future, task)
            else:
                future.cancel()
                pending.append(task)

    def _reap_expired(
        self, pool, new_runner, futures, pending, events,
        handle_failure, handle_done_future,
    ):
        """Kill the pool if any in-flight run blew its deadline.

        A run's deadline is its worker-reported start time plus the
        timeout; runs that have not started yet have no deadline.  The
        hung run is charged a ``timeout`` failure; sibling in-flight
        runs are interrupted through no fault of their own, so they are
        requeued without being charged an attempt.
        """
        events.drain()
        now = time.monotonic()
        raced: List[Tuple[object, RunTask]] = []
        expired: List[RunTask] = []
        interrupted: List[RunTask] = []
        for future, task in futures.items():
            begun = events.start_time(task)
            if future.done():  # completed while we were deciding
                raced.append((future, task))
            elif begun is not None and now >= (
                begun + self.timeout * len(_members(task))
            ):
                expired.append(task)
            else:
                interrupted.append(task)
        if not expired:
            return pool  # raced futures are picked up by the next wait()
        futures.clear()
        self._kill_pool(pool, events)
        for future, task in raced:
            handle_done_future(future, task)
        for task in expired:
            handle_failure(
                task,
                _WatchdogTimeout(
                    f"run exceeded {self.timeout:g}s wall-clock timeout"
                ),
            )
        pending.extend(interrupted)
        return new_runner()

    @staticmethod
    def _kill_pool(pool, events: _WorkerEvents) -> None:
        """Forcibly terminate a pool's worker processes (watchdog and
        bail-out paths: a hung worker never returns, so a graceful
        shutdown would wait forever).

        Workers are killed by the PIDs they reported at spawn; the
        executor's private ``_processes`` map is swept too, as a
        belt-and-braces fallback on interpreters where it still exists.
        """
        events.drain()
        for pid in list(events.pids):
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass  # already dead (or PID recycled to another user)
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.kill()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

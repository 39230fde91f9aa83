"""Run execution: one supervision loop over three kinds of runner.

:meth:`Executor.run` drives every task through one loop; only the
runner behind it differs: ``min(jobs, tasks)`` supervised
:class:`WorkerProcess` children, an in-process runner (``jobs == 1``,
or a lone task with no timeout to enforce), or none at all (``jobs ==
0``: remote agents lease every task, see :mod:`repro.engine.protocol`).
Every task runs in one worker envelope (:func:`_worker`), and every
completion, local or leased, is credited through one fan-out.  An
agent runs each lease in a :class:`WorkerProcess` too.

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
  (the worker process died mid-run);
* retries use bounded exponential backoff with deterministic jitter
  seeded from the run's content key, so two sweeps over the same plan
  retry on the same schedule;
* a run that fails with an *identical* signature twice is a poison run:
  it is quarantined (no further retries, regardless of remaining
  budget) and reported instead of burning the fleet's time.  Crash
  signatures are exempt: a worker can die for reasons outside its run,
  so identical crashes never quarantine -- the retry budget is the
  backstop for a run that keeps killing workers;
* a per-run wall-clock timeout (worker processes and leases only: a
  hang in-process cannot be interrupted) is enforced by a watchdog
  that kills the hung run's worker and no other.  The clock starts
  when the run *begins executing* (each worker reports a start message
  on its pipe), so time spent queued behind siblings never counts
  against a run's budget;
* a failure raised from inside a simulation kernel
  (:class:`~repro.cpu.kernels.registry.KernelError`) degrades the run
  to the reference backend (numpy -> python) instead of consuming
  retry budget -- the backends' bit-identical-statistics contract
  makes the degraded result indistinguishable.

A crash or a timeout touches one worker: only the run that worker had
started is charged; the run waiting in its pipe never ran and is
requeued uncharged, and every other worker keeps running undisturbed.

Config batching (:class:`BatchTask`) composes with all of the above by
keeping supervision strictly per-run: a batch wraps N single-run tasks
whose technique serves them in one shared simulation pass, and *any*
failure of the batched pass -- an exception, a kernel error, a watchdog
timeout (a batch's deadline is ``timeout * N``) or a worker crash --
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
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from multiprocessing import connection
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.cpu import checkpoint
from repro.cpu.kernels.registry import KernelError, activate as activate_backend
from repro.obs import phases as obs_phases
from repro.obs import resources as obs_resources
from repro.obs import trace as obs_trace
from repro.obs.live import InflightTracker
from repro.workloads import trace_store
from repro.scale import Scale
from repro.settings import value
from repro.techniques.base import TechniqueResult
from repro.techniques.simpoint import SimPointTechnique

from repro.engine import faults
from repro.engine.planner import RunRequest
from repro.engine.protocol import RemoteFailure

#: Tasks sent to one worker process at a time: the running one plus
#: one waiting in its pipe.
_TASKS_PER_WORKER = 2

#: How often the parent wakes to drain lease events while remote
#: agents hold work.
_EVENT_POLL_S = 0.25

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
    #: ``time.monotonic()`` at submission (stamped by the parent;
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


class PhaseNotifier:
    """Forwards a run's phase transitions to ``sink(phase, attrs)``,
    rate-limited: a repeat of the last forwarded phase is dropped, and
    so is any change within :data:`_PHASE_EVENT_MIN_S` of the last
    forwarded event.  A :class:`WorkerProcess` child's sink is its pipe
    to the supervisor, be that the executor or an agent."""

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
    begun = time.monotonic()
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
        if task.backend is not None:
            previous_backend = activate_backend(task.backend)
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
                activate_backend(previous_backend)
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


def _child_loop(conn, parent_end) -> None:
    """A :class:`WorkerProcess` child: run each ``(task, scale)`` that
    arrives on ``conn`` through :func:`_worker` until ``None`` (or EOF).

    Per task it sends ``("start", monotonic)`` first -- the run-timeout
    clock starts there, and a child SIGKILLed mid-run has thereby told
    the supervisor which run it died in -- then throttled ``("phase",
    (phase, attrs))`` messages, then ``("done", envelope)`` or
    ``("error", exception)``.
    """
    # The inherited copy of the supervisor's end would hide its death:
    # with it closed, a SIGKILLed supervisor means EOF and an exit.
    parent_end.close()
    # A forked child inherits the parent's in-flight counter state;
    # drain it so the deltas this child reports are its own.  The
    # phase ledger is likewise a parent leftover.
    trace_store.consume_counters()
    checkpoint.consume_counters()
    obs_phases.drain()
    try:
        for task, scale in iter(conn.recv, None):
            conn.send(("start", time.monotonic()))
            conn.send(_child_run(conn, task, scale))
    except (EOFError, OSError):
        pass  # the supervisor is gone: exit quietly


def _child_run(conn, task, scale: Scale) -> tuple:
    """One task in a :func:`_child_loop`: its final message."""
    obs_phases.set_notifier(PhaseNotifier(
        lambda phase, attrs: conn.send(("phase", (phase, attrs)))
    ))
    try:
        return ("done", _worker(task, scale))
    except BaseException as exc:  # report, never die silently
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            # An exception that cannot cross the pipe travels as its
            # signature, which is all the supervisor keys on.
            exc = RemoteFailure("transient", *_signature(exc))
        return ("error", exc)
    finally:
        obs_phases.set_notifier(None)


class WorkerProcess:
    """One supervised child process that executes tasks sent down its
    pipe, for the executor's local workers and an agent's leases alike.

    :meth:`submit` ships a task; :meth:`recv` reads the child's next
    message as ``(kind, task, value)``: ``start`` (value: the start
    time), ``phase`` (``(phase, attrs)``), ``done`` (the :func:`_worker`
    envelope), ``error`` (the exception) or ``crash`` -- the pipe hit
    EOF before a final message, so the child died; ``value`` is then
    the crash failure and ``task`` the run it had started, or None.
    The child is forked, so it inherits the parent's imports and
    memoized state.
    """

    def __init__(self) -> None:
        context = multiprocessing.get_context("fork")
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_child_loop, args=(child, self.conn), daemon=True
        )
        self.process.start()
        child.close()
        self.pid = self.process.pid
        #: Sent but unfinished tasks, the executing (or next) one first.
        self.tasks: Deque = deque()
        #: ``tasks[0]``'s reported start time; None until it starts.
        self.started: Optional[float] = None
        self.phase: Optional[str] = None
        self.phase_attrs: dict = {}

    def submit(self, task, scale: Scale) -> None:
        self.tasks.append(task)
        try:
            # Tasks ship workloads by key, so they are small: a running
            # task plus one waiting fit in the pipe without blocking.
            self.conn.send((_strip_task(task), scale))
        except OSError:
            pass  # the child is dead: recv() reports it, nothing started

    def recv(self) -> Tuple[str, object, object]:
        try:
            kind, value = self.conn.recv()
        except (EOFError, OSError):
            running = self.tasks[0] if self.started is not None else None
            return "crash", running, _crash_failure()
        task = self.tasks[0]
        if kind == "start":
            self.started, self.phase, self.phase_attrs = value, None, {}
        elif kind == "phase":
            self.phase, self.phase_attrs = value
        else:
            self.tasks.popleft()
            self.started = None
        return kind, task, value

    def stop(self) -> List[object]:
        """End the child and reap it; returns the tasks it still held.

        An idle child exits on a sentinel; one holding tasks is
        SIGKILLed, since a hung run never returns.
        """
        if self.tasks:
            self.process.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass  # already gone
        self.process.join()
        self.conn.close()
        tasks = list(self.tasks)
        self.tasks.clear()
        self.started = None
        return tasks


class _InProcessRunner:
    """Runs one task to completion inside :meth:`run`, in this process.

    Used where a worker process would only add overhead.  The loop
    cannot poll while a run executes here, so the runner keeps that
    run's live view itself: its slot, this process's PID and its
    current phase.
    """

    def __init__(self, telemetry: Optional[InflightTracker]) -> None:
        self.telemetry = telemetry

    def run(self, task, scale: Scale):
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.start(**_live_entry(task), pid=os.getpid())
            obs_phases.set_notifier(
                lambda phase, attrs=None: telemetry.set_phase(
                    task.slot, phase, attrs
                )
            )
        try:
            return _worker(_strip_task(task), scale)
        finally:
            if telemetry is not None:
                obs_phases.set_notifier(None)
                telemetry.finish(task.slot)


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


#: Signature of a worker process that died mid-run, local or remote.
_CRASH_SIGNATURE = ("WorkerCrash", "worker process died")


def _crash_failure() -> RemoteFailure:
    """The failure charged to a run whose worker process died."""
    return RemoteFailure("crash", *_CRASH_SIGNATURE)


def _signature(exc: BaseException) -> Tuple[str, str]:
    """Stable identity of a failure, for poison-run detection."""
    signature = getattr(exc, "signature", None)
    if signature is not None:
        # Crashes and remote failures (RemoteFailure) carry a
        # precomputed signature, so a crash reads the same wherever
        # its worker ran and stays quarantine-exempt.
        return tuple(signature)
    return (type(exc).__name__, str(exc))


def classify_failure(exc: BaseException) -> str:
    """Base taxonomy kind of one failed attempt (repetition may later
    upgrade ``transient`` to ``deterministic``)."""
    remote_kind = getattr(exc, "remote_kind", None)
    if remote_kind is not None:
        return remote_kind
    if isinstance(exc, _WatchdogTimeout):
        return "timeout"
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
        jobs: Optional[int] = None,
        retries: Optional[int] = None,
        timeout: Optional[float] = None,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
    ) -> None:
        self.jobs = value("jobs", jobs)
        self.retries = value("max_retries", retries)
        self.timeout = value("run_timeout", timeout)
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
        # A worker can die for reasons outside its run (the OOM
        # killer, an operator's signal), so two identical crash
        # signatures do not prove *this* run is the poison one --
        # crashes never quarantine; the retry budget backstops a
        # genuine worker killer.
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
        slots = min(self.jobs, max(1, len(tasks)))  # jobs=0: leases only
        inline = _InProcessRunner(telemetry) if in_process else None
        workers: List[WorkerProcess] = []
        pending: Deque = deque(tasks)
        waiting: List[Tuple[float, RunTask]] = []  # backoff: (ready_at, task)
        supervision: Dict[int, _Supervision] = {}
        if remote is not None:
            # Connected agents lease tasks straight out of `pending`
            # (deque pops are atomic, so local submission and remote
            # grants never double-own a task).
            remote.begin_batch(pending)

        def sync_telemetry() -> None:
            """Rebuild the live in-flight view from the workers' state."""
            if telemetry is None:
                return
            running = []
            # Weight every queued unit by its member count: a BatchTask
            # is one task but ``configs_per_batch`` pending runs, and an
            # ETA that counted it as one run would be optimistic by
            # roughly that factor.
            queued = sum(len(_members(t)) for t in pending) + sum(
                len(_members(t)) for _, t in waiting
            )
            for worker in workers:
                held = list(worker.tasks)
                if held and worker.started is not None:
                    running.append({
                        **_live_entry(held.pop(0)),
                        "started": worker.started, "pid": worker.pid,
                        "phase": worker.phase,
                        "phase_attrs": worker.phase_attrs,
                    })
                queued += sum(len(_members(t)) for t in held)
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

        def retire(worker: WorkerProcess, exc: BaseException) -> None:
            """Stop a dead or hung worker: its started run is charged
            ``exc``; every other task it held never ran, so it is
            requeued uncharged.  Only this worker is touched."""
            started = worker.started is not None
            held = worker.stop()
            workers.remove(worker)
            if started:
                handle_failure(held.pop(0), exc)
            pending.extend(held)

        def drain_worker(worker: WorkerProcess) -> None:
            """Dispatch every message the worker has ready."""
            while worker.tasks and worker.conn.poll():
                kind, task, value = worker.recv()
                if kind == "done":
                    complete(task, value)
                elif kind == "error":
                    handle_failure(task, value)
                elif kind == "crash":
                    retire(worker, value)

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

        def deadline(worker: WorkerProcess) -> Optional[float]:
            """When the worker's run expires; None before it starts
            (time queued behind siblings never counts against a run)."""
            if self.timeout is None or worker.started is None:
                return None
            runs = len(_members(worker.tasks[0]))
            return worker.started + self.timeout * runs

        try:
            while (
                pending or waiting or any(w.tasks for w in workers)
                or (remote is not None and remote.outstanding())
            ):
                now = time.monotonic()
                if waiting:  # promote retries whose backoff has elapsed
                    pending.extend(t for ready, t in waiting if ready <= now)
                    waiting = [(ready, t) for ready, t in waiting if ready > now]

                if remote is not None:
                    drain_remote()

                if inline is not None and pending:
                    task = pending.popleft()
                    task.submitted = time.monotonic()
                    try:
                        outcome = inline.run(task, scale)
                    except Exception as exc:
                        handle_failure(task, exc)
                    else:
                        complete(task, outcome)
                    sync_telemetry()
                    continue

                # Keep every worker fed: the first pass gives each
                # worker a run, the second one more waiting in its pipe,
                # so a worker never idles while the supervisor writes a
                # finished run to the store.
                while inline is None and len(workers) < slots and pending:
                    workers.append(WorkerProcess())
                for depth in range(1, _TASKS_PER_WORKER + 1):
                    for worker in workers:
                        if len(worker.tasks) < depth and pending:
                            try:
                                task = pending.popleft()
                            except IndexError:
                                break  # a remote agent leased the last task
                            task.submitted = time.monotonic()
                            worker.submit(task, scale)

                busy = [w for w in workers if w.tasks]
                if not busy:
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

                sync_telemetry()
                now = time.monotonic()
                timeouts = [
                    expiry - now for expiry in map(deadline, busy)
                    if expiry is not None
                ]
                if remote is not None:
                    # Lease events (and heartbeat expiry) must be
                    # drained even while no local run finishes.
                    timeouts.append(_EVENT_POLL_S)
                if waiting:
                    timeouts.append(min(ready for ready, _ in waiting) - now)
                wait_for = max(0.0, min(timeouts)) if timeouts else None
                ready = connection.wait([w.conn for w in busy], wait_for)
                for worker in busy:
                    if worker.conn in ready:
                        drain_worker(worker)

                # The watchdog: a run past its deadline is charged a
                # timeout, and only its own worker is killed.
                now = time.monotonic()
                for worker in list(workers):
                    expiry = deadline(worker)
                    if (
                        expiry is not None and now >= expiry
                        and not worker.conn.poll()  # else it just finished
                    ):
                        retire(worker, _WatchdogTimeout(
                            f"run exceeded {self.timeout:g}s wall-clock "
                            "timeout"
                        ))
        finally:
            try:
                if remote is not None:
                    remote.end_batch()
            finally:
                for worker in workers:
                    worker.stop()
                if telemetry is not None:
                    telemetry.clear()

"""Run execution: one supervision loop over one scheduler.

:meth:`Executor.run` has two parts.  The in-process runner executes
one task at a time in this process (``jobs == 1``, or a lone task with
no timeout to enforce).  Everything else goes through the lease ledger
(:class:`~repro.engine.protocol.LeaseLedger`): ``jobs`` local lease
clients -- supervisor threads running the agent's own session loop
(:class:`~repro.engine.worker.WorkerAgent`) over socketpairs -- and,
with ``--listen``, remote agents over TCP.  Every client keeps one
:class:`WorkerProcess` per session and replaces it only after a crash,
a cancel or a kill.  Every attempt's outcome reaches the loop as a
ledger event, and every completion, wherever it ran, is credited
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
  exception twice), ``timeout`` (the run outlived its lease's budget)
  or ``crash`` (the worker process died mid-run);
* retries use bounded exponential backoff with deterministic jitter
  seeded from the run's content key, so two sweeps over the same plan
  retry on the same schedule;
* a run that fails with an *identical* signature twice is a poison run:
  it is quarantined (no further retries, regardless of remaining
  budget) and reported instead of burning the fleet's time.  Crash
  signatures are exempt: a worker can die for reasons outside its run,
  so identical crashes never quarantine -- the retry budget is the
  backstop for a run that keeps killing workers;
* a per-run wall-clock timeout (leased runs only: a hang in-process
  cannot be interrupted) is the lease's budget: from the grant, the
  timeout times the lease's member runs, plus one heartbeat period of
  grace.  A run past it is charged a ``timeout``, and its client kills
  the child when its next heartbeat is answered ``cancel``.  A lease
  is granted only when a client is free to start it, so time queued
  behind siblings never counts;
* a failure raised from inside a simulation kernel
  (:class:`~repro.cpu.kernels.registry.KernelError`) degrades the run
  to the reference backend (numpy -> python) instead of consuming
  retry budget -- the backends' bit-identical-statistics contract
  makes the degraded result indistinguishable.

A crash or a timeout touches one client's child: only its run is
charged, and every other client keeps running undisturbed.

Config batching (:class:`BatchTask`) composes with all of the above by
keeping supervision strictly per-run: a batch wraps N single-run tasks
whose technique serves them in one shared simulation pass, and *any*
failure of the batched pass -- an exception, a kernel error, a timeout
or a worker crash -- explodes the batch back into its member singleton
tasks, requeued without being charged an attempt.  The members then
retry, degrade or quarantine individually through the normal
machinery, so a poisoned config can never take its batch siblings down
with it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.cpu import checkpoint
from repro.cpu.kernels.registry import KernelError, activate as activate_backend
from repro.obs import phases as obs_phases
from repro.obs import resources as obs_resources
from repro.obs import trace as obs_trace
from repro.obs.live import InflightTracker
from repro.workloads import trace_store
from repro.workloads.inputs import drop_trace_pages
from repro.scale import Scale
from repro.settings import value
from repro.techniques.base import TechniqueResult
from repro.techniques.simpoint import SimPointTechnique

from repro.engine import faults
from repro.engine.planner import RESULTS_EPOCH, RunRequest
from repro.engine.protocol import (
    Connection, LeaseServer, RemoteFailure,
)

#: Minimum spacing of a worker's phase-transition events to the parent
#: (a warming loop alternates phases far faster than a live view needs).
_PHASE_EVENT_MIN_S = 0.25

#: RunError kinds (the engine's error taxonomy).
ERROR_KINDS = ("transient", "deterministic", "timeout", "crash")


class RunError(RuntimeError):
    """One run's terminal failure, classified.

    ``kind`` is one of :data:`ERROR_KINDS`; ``quarantined`` marks a
    poison run (identical failure twice -- retrying was abandoned even
    though budget may have remained); ``cause`` is the last attempt's
    exception.
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
    #: The exact wire payload of a leased run (None for a run executed
    #: in this process).  The engine stores it verbatim, so every
    #: sweep's store bytes are the same wherever its runs executed.
    payload: Optional[dict] = None
    #: Name of the remote agent that executed the run (None = local).
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

    Per task it sends throttled ``("phase", (phase, attrs))`` messages,
    then ``("done", envelope)`` or ``("error", exception)``.
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
            conn.send(_child_run(conn, task, scale))
            # A child serves a whole session: without this, the trace
            # pages each task read would stay resident for the rest of
            # it (the region memo is bounded on its own).
            drop_trace_pages()
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
    """One supervised child process that executes the tasks sent down
    its pipe, one at a time, for every lease client, local or remote.

    :meth:`submit` ships a task; :meth:`recv` reads the child's next
    message as ``(kind, task, value)``: ``phase`` (``(phase, attrs)``),
    ``done`` (the :func:`_worker` envelope), ``error`` (the exception)
    or ``crash`` -- the pipe hit
    EOF before a final message, so the child died; ``value`` is then
    the crash failure.  The child is forked, so it inherits the
    parent's imports and memoized state.
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
        #: The task sent and not yet finished (None when idle).
        self.task = None

    def submit(self, task, scale: Scale) -> None:
        self.task = task
        try:
            self.conn.send((_strip_task(task), scale))
        except OSError:
            pass  # the child is dead: recv() reports it

    def recv(self) -> Tuple[str, object, object]:
        task = self.task
        try:
            kind, value = self.conn.recv()
        except (EOFError, OSError):
            return "crash", task, _crash_failure()
        if kind in ("done", "error"):
            self.task = None
        return kind, task, value

    def stop(self) -> None:
        """End the child and reap it: an idle child exits on a
        sentinel; a busy one is SIGKILLed, since a hung run never
        returns."""
        if self.task is not None:
            self.process.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass  # already gone
        self.process.join()
        self.conn.close()
        self.task = None


def _run_here(task, scale: Scale, telemetry: Optional[InflightTracker]):
    """Run one task to completion in this process.  Nothing can poll it
    while it executes, so it keeps its own live entry: its slot, this
    process's PID and its current phase."""
    if telemetry is not None:
        telemetry.start(**_live_entry(task), pid=os.getpid())
        obs_phases.set_notifier(partial(telemetry.set_phase, task.slot))
    try:
        return _worker(_strip_task(task), scale)
    finally:
        if telemetry is not None:
            obs_phases.set_notifier(None)
            telemetry.finish(task.slot)


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
    return getattr(exc, "remote_kind", "transient")


@dataclass
class _Supervision:
    """Per-slot retry accounting."""

    failures: int = 0                   # attempts that ended in failure
    signatures: List[Tuple[str, str]] = field(default_factory=list)


#: Actions returned by the supervisor's failure handler.
_DONE = "done"      # terminal: on_failure already dispatched
_REQUEUE = "requeue"  # (action, task, delay_seconds)


class Executor:
    """Executes tasks with ``jobs`` local lease clients (1 = in-process).

    ``retries`` bounds re-executions per run (on top of the first
    attempt); ``timeout`` is the per-run wall-clock budget in seconds
    (None = unbounded; not enforced on the in-process runner), to which
    a lease adds one heartbeat (``lease_ttl / 3``) of grace.  ``jobs=0``
    runs no local clients: remote agents execute every run through the
    ``remote`` ledger.  ``server`` is the engine's ``--listen`` server
    fronting that ledger, which local clients then connect to; without
    a ``remote`` ledger, :meth:`run` builds a listener-less one.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        retries: Optional[int] = None,
        timeout: Optional[float] = None,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        lease_ttl: Optional[float] = None,
    ) -> None:
        self.jobs = value("jobs", jobs)
        self.retries = value("max_retries", retries)
        self.timeout = value("run_timeout", timeout)
        self.lease_ttl = value("lease_ttl", lease_ttl)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.server: Optional[LeaseServer] = None

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
                cause=exc,
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

        ``remote``, when given, is the engine's
        :class:`~repro.engine.protocol.LeaseLedger`: connected worker
        agents lease tasks out of the same pending queue as the local
        clients, and every outcome comes back as the same events.
        """
        if self.jobs == 0 and remote is None:
            raise ValueError("jobs=0 requires a remote lease scheduler")
        pending: Deque = deque(tasks)
        waiting: List[Tuple[float, object]] = []  # backoff: (ready_at, task)
        supervision: Dict[int, _Supervision] = {}
        ledger = remote
        owned: Optional[LeaseServer] = None
        clients: List[tuple] = []

        def requeue(tasks: list) -> None:
            """Put tasks back on `pending` and wake waiting grants."""
            if tasks:
                pending.extend(tasks)
                if ledger is not None:
                    ledger.wake()

        def promote() -> Optional[float]:
            """Requeue retries whose backoff has elapsed; returns the
            seconds until the next one is due (None: none waits)."""
            nonlocal waiting
            now = time.monotonic()
            requeue([t for ready, t in waiting if ready <= now])
            waiting = [(ready, t) for ready, t in waiting if ready > now]
            if telemetry is not None:
                # Weight every queued unit by its member count: a
                # BatchTask is one task but ``configs_per_batch`` runs,
                # and an ETA counting it as one run would be optimistic
                # by roughly that factor.
                telemetry.set_queue(sum(
                    len(_members(t))
                    for t in [*pending, *(t for _, t in waiting)]
                ))
            return min(ready for ready, _ in waiting) - now if waiting else None

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
                requeue(task.members)
                return
            action = self._after_failure(
                task, exc, supervision, on_failure, on_retry, on_degrade
            )
            if action[0] == _REQUEUE:
                _, retask, delay = action
                if delay > 0:
                    waiting.append((time.monotonic() + delay, retask))
                else:
                    requeue([retask])

        def complete(task, outcome, payloads=None, agent=None) -> None:
            """The one success fan-out: credit every run of a finished
            task, wherever it executed.

            ``outcome`` is the worker envelope's ``(slots, results,
            wall, reuse, resources)``.  Each run is credited an even
            share of the wall time and CPU (the shares sum back to the
            true cost); the first carries the task's store-reuse
            counters so they are folded exactly once.  ``payloads`` are
            a leased run's wire payloads: the engine persists them
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

        def dispatch(event: tuple) -> None:
            """Fold one ledger event into the run loop."""
            kind = event[0]
            if kind == "complete":
                _, task, payloads, wall, reuse, agent, resources, phases = event
                results = [TechniqueResult.from_payload(p) for p in payloads]
                for result, phase_times in zip(results, phases):
                    result.phase_times = phase_times
                slots = [member.slot for member in _members(task)]
                complete(
                    task, (slots, results, wall, reuse, resources),
                    payloads, agent,
                )
            elif kind == "fail":
                handle_failure(event[1], event[2])
            elif kind == "timeout":
                # The run outlived its lease's budget while its client
                # kept heartbeating: a genuinely slow run, charged (a
                # BatchTask explodes uncharged).
                handle_failure(
                    event[1], RemoteFailure("timeout", "RunTimeout", event[3])
                )
            elif kind == "requeue":
                # Dead/partitioned agent: the run never (provably)
                # executed, so it is requeued without being charged an
                # attempt.
                requeue([event[1]])
            elif kind == "parity":
                _, key, agent, detail = event
                raise RuntimeError(
                    f"distributed result parity violation for run "
                    f"{key} from agent {agent}: {detail}"
                )

        try:
            if remote is None and (
                self.jobs == 1 or (len(tasks) <= 1 and self.timeout is None)
            ):
                while pending or waiting:
                    due = promote()
                    if not pending:
                        time.sleep(due)
                        continue
                    task = pending.popleft()
                    task.submitted = time.monotonic()
                    try:
                        outcome = _run_here(task, scale, telemetry)
                    except Exception as exc:
                        handle_failure(task, exc)
                    else:
                        complete(task, outcome)
                return
            server = self.server
            if remote is None:
                server = owned = LeaseServer(
                    run_timeout=self.timeout, lease_ttl=self.lease_ttl,
                    scale_instructions_per_m=scale.instructions_per_m,
                    results_epoch=RESULTS_EPOCH,
                )
                ledger = server.ledger
            ledger.begin_batch(pending)
            if self.jobs:
                clients = _start_clients(
                    server, min(self.jobs, max(1, len(tasks))), telemetry
                )
            while pending or waiting or ledger.outstanding():
                if remote is None and not any(t.is_alive() for _, t in clients):
                    raise RuntimeError("every local lease client stopped")
                ledger.wait(promote())
                for event in ledger.collect():
                    dispatch(event)
        finally:
            try:
                if ledger is not None:
                    ledger.end_batch()
            finally:
                if clients:
                    _stop_clients(ledger, clients)
                if owned is not None:
                    owned.close()
                if telemetry is not None:
                    telemetry.clear()


def _start_clients(
    server: LeaseServer, count: int, telemetry: Optional[InflightTracker]
) -> List[tuple]:
    """Start ``count`` local lease clients of ``server``; returns their
    ``(agent, thread)`` pairs.

    Each client's first :class:`WorkerProcess` is forked here, on the
    caller's thread, before any client thread starts: a fork copies
    only the forking thread, and none of these holds a lock yet.
    """
    from repro.engine.worker import WorkerAgent  # it imports this module

    agents = [
        WorkerAgent(quiet=True, local=True, telemetry=telemetry)
        for _ in range(count)
    ]
    for agent in agents:
        agent.worker = WorkerProcess()
    clients = []
    for agent in agents:
        thread = threading.Thread(
            target=agent.serve,
            args=(Connection(server.connect_local()),),
            name="repro-local-client",
            daemon=True,
        )
        thread.start()
        clients.append((agent, thread))
    return clients


def _stop_clients(ledger, clients: List[tuple]) -> None:
    """End the local clients: they leave the ledger, so each one's next
    lease request is answered ``shutdown``; a child still running a
    canceled (or, on an error, live) lease is killed now rather than at
    its next heartbeat."""
    ledger.leave_local()
    for agent, _ in clients:
        agent.abandon()
    for _, thread in clients:
        thread.join()

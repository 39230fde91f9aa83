"""Deterministic fault injection for the engine's failure paths.

Every fault-tolerance mechanism in the engine -- retries, timeouts,
crash recovery, quarantine, backend degradation -- is exercised in
tests through this harness rather than trusted on faith.  A *fault
plan* names which runs misbehave and how; the executor activates the
plan inside each worker, keyed by the task's plan slot and attempt
number, so the same plan always injects the same faults regardless of
worker scheduling.

Plans come from the ``REPRO_FAULT_PLAN`` environment variable (so they
reach worker processes by inheritance) in either of two forms:

* compact  -- ``"exc@2,hang@5:30,kill@7,kernel@3:numpy,exc@4x9"``
  (``kind@slot[:arg][xN]``; ``xN`` fires on attempts 1..N, ``x*``
  on every attempt; the default is the first attempt only, so an
  injected fault models a *transient* error unless repeated);
* JSON     -- ``'[{"fault": "exc", "slot": 2, "max_attempt": 1}]'``.

Fault kinds:

``exc``
    the worker raises :class:`InjectedFault`;
``hang``
    the worker sleeps ``arg`` seconds (default 3600) -- charged a
    timeout once it outlives its lease's budget, and killed;
``kill``
    the worker process SIGKILLs itself: a ``crash`` charged to that
    run alone, while every other worker keeps running;
``kernel``
    the simulation kernel of backend ``arg`` (default: any guarded
    backend) raises, triggering backend degradation.

Network fault kinds (honored by TCP worker agents,
:mod:`repro.engine.worker`; ignored by the executor's local ``--jobs``
clients, which share the supervisor's process: a ``dead`` there would
kill the supervisor).  For these
the ``@N`` operand is the *agent's Nth granted lease* (1-based), not a
plan slot -- plans are per-process environment, so ``@N`` selects when
the agent carrying the plan misbehaves, deterministically:

``dead``
    the agent SIGKILLs itself on lease N (a dead host: heartbeats
    stop, the lease expires, the run requeues uncharged);
``drop``
    the agent executes lease N but severs the connection instead of
    reporting the completion (a network partition: the work is lost,
    the supervisor requeues the run uncharged); ``drop@N:fetch``
    severs mid-``artifact_fetch`` instead, before the lease executes
    (a partition during artifact transfer -- the lease requeues
    uncharged and the half-written artifact is discarded);
``delay``
    the agent holds lease N's completion back ``arg`` milliseconds
    (default 1000), heartbeating throughout (a slow link, not a dead
    one -- the lease must *not* expire);
``corrupt``
    one artifact chunk received during lease N arrives with a byte
    flipped (a bad NIC or middlebox: the agent must catch it via the
    whole-file sha256, discard the write, count
    ``artifact_corrupt_chunks`` and re-fetch).
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Environment variable holding the active fault plan (empty = none).
FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: Network fault kinds, honored by TCP worker agents only; their
#: ``slot`` operand is the agent's Nth granted lease (1-based).
NETWORK_FAULT_KINDS = ("drop", "delay", "dead", "corrupt")

#: Recognized fault kinds.
FAULT_KINDS = ("exc", "hang", "kill", "kernel") + NETWORK_FAULT_KINDS

#: ``max_attempt`` value meaning "fire on every attempt".
EVERY_ATTEMPT = -1


class InjectedFault(RuntimeError):
    """A deliberately injected worker failure (stable repr for
    failure-signature matching: injecting the same fault twice must
    look like a deterministic error to the quarantine logic)."""


class FaultPlanError(ValueError):
    """The fault plan string could not be parsed."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: ``kind`` at plan ``slot``.

    ``arg`` is the hang duration (seconds) for ``hang`` and the backend
    name for ``kernel``.  The fault fires on attempts ``1..max_attempt``
    (:data:`EVERY_ATTEMPT` = all attempts).
    """

    kind: str
    slot: int
    arg: Optional[str] = None
    max_attempt: int = 1

    def matches(self, slot: int, attempt: int) -> bool:
        if slot != self.slot:
            return False
        return self.max_attempt == EVERY_ATTEMPT or attempt <= self.max_attempt


def parse_plan(text: str) -> List[FaultSpec]:
    """Parse a fault plan (compact or JSON form); '' means no faults."""
    text = text.strip()
    if not text:
        return []
    if text.startswith("["):
        return _parse_json(text)
    return [_parse_compact_entry(entry) for entry in text.split(",") if entry.strip()]


def _parse_json(text: str) -> List[FaultSpec]:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from None
    specs = []
    for entry in document:
        kind = entry.get("fault")
        if kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        specs.append(
            FaultSpec(
                kind=kind,
                slot=int(entry["slot"]),
                arg=entry.get("arg"),
                max_attempt=int(entry.get("max_attempt", 1)),
            )
        )
    return specs


def _parse_compact_entry(entry: str) -> FaultSpec:
    """``kind@slot[:arg][xN|x*]`` -> FaultSpec."""
    entry = entry.strip()
    try:
        kind, rest = entry.split("@", 1)
    except ValueError:
        raise FaultPlanError(
            f"bad fault entry {entry!r}; expected kind@slot[:arg][xN]"
        ) from None
    kind = kind.strip()
    if kind not in FAULT_KINDS:
        raise FaultPlanError(
            f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
        )
    max_attempt = 1
    if "x" in rest:
        rest, repeat = rest.rsplit("x", 1)
        max_attempt = EVERY_ATTEMPT if repeat == "*" else int(repeat)
    arg: Optional[str] = None
    if ":" in rest:
        rest, arg = rest.split(":", 1)
    try:
        slot = int(rest)
    except ValueError:
        raise FaultPlanError(f"bad fault slot in {entry!r}") from None
    return FaultSpec(kind=kind, slot=slot, arg=arg, max_attempt=max_attempt)


# -- per-process activation --------------------------------------------------------
#
# The executor activates the plan around each run; the plan text is
# parsed once per distinct environment value per process.

_parsed: Tuple[Optional[str], List[FaultSpec]] = (None, [])
#: ``(slot, attempt)`` pairs of the run(s) executing right now -- one
#: pair for a singleton run, one per member for a config-batched run.
_active: Optional[List[Tuple[int, int]]] = None


def _current_plan() -> List[FaultSpec]:
    global _parsed
    text = os.environ.get(FAULT_PLAN_ENV_VAR, "")
    if _parsed[0] != text:
        _parsed = (text, parse_plan(text))
    return _parsed[1]


def activate(slot: int, attempt: int) -> None:
    """Arm the plan for one run and fire its pre-run faults.

    Called by the executor's worker immediately before the run starts.
    ``exc``/``hang``/``kill`` faults fire here; ``kernel`` faults are
    checked later, from inside the backend dispatch
    (:func:`kernel_check`).

    The plan is armed only *after* the pre-run faults have fired: an
    ``exc`` fault propagates out of this function before the worker's
    try/finally (and so :func:`deactivate`) is ever entered, and must
    not leave the plan armed for whatever runs next in this process.
    """
    activate_many([(slot, attempt)])


def activate_many(pairs: List[Tuple[int, int]]) -> None:
    """Arm the plan for several runs executing as one batched pass.

    A fault planned for *any* member ``(slot, attempt)`` fires during
    the batch, so a batch containing a poisoned run fails exactly as a
    sweep containing that run would -- the executor then explodes the
    batch back into singletons and the per-run supervision takes over.
    """
    global _active
    _active = None
    plan = _current_plan()
    if not plan:
        return
    for slot, attempt in pairs:
        for spec in plan:
            if not spec.matches(slot, attempt):
                continue
            if spec.kind == "exc":
                raise InjectedFault(f"injected exception at slot {slot}")
            if spec.kind == "hang":
                time.sleep(float(spec.arg) if spec.arg else 3600.0)
            elif spec.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
    _active = list(pairs)


def deactivate() -> None:
    """Disarm the plan after a run (pairs with :func:`activate`)."""
    global _active
    _active = None


def network_fault(lease_ordinal: int) -> Optional[FaultSpec]:
    """The planned network fault for an agent's Nth lease (1-based).

    Called by a TCP agent (:mod:`repro.engine.worker`) after each
    grant; local clients never consult this, and :func:`activate`
    ignores network kinds, so one plan string can mix worker-side and
    network faults.
    """
    for spec in _current_plan():
        if spec.kind in NETWORK_FAULT_KINDS and spec.matches(lease_ordinal, 1):
            return spec
    return None


def kernel_check(backend_name: str) -> None:
    """Raise :class:`InjectedFault` if a kernel fault is planned for any
    active run on ``backend_name`` (no-op outside an activated run)."""
    if _active is None:
        return
    for slot, attempt in _active:
        for spec in _current_plan():
            if spec.kind != "kernel" or not spec.matches(slot, attempt):
                continue
            if spec.arg is None or spec.arg == backend_name:
                raise InjectedFault(
                    f"injected kernel fault at slot {slot} "
                    f"on backend {backend_name}"
                )

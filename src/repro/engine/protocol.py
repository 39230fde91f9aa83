"""Lease-based distributed scheduling: wire protocol, ledger, server.

The supervisor side of multi-host sweeps.  Remote worker agents
(:mod:`repro.engine.worker`) connect over TCP and *lease* runs from the
engine's pending queue; the :class:`LeaseLedger` tracks every
outstanding lease and the :class:`LeaseServer` speaks the wire protocol
on its behalf.  The executor treats the server as one more source of
completed work next to its local worker processes.

Wire format: newline-delimited JSON messages, one request/one reply,
over a plain TCP socket.  Tasks travel as pickled submission copies
(workloads already stripped to compact registry keys by
:func:`~repro.engine.executor._strip_task`), base64-wrapped so they fit
in a JSON field; results travel as the JSON payload dicts the store
would persist, so the supervisor can write the agent's bytes verbatim
and a distributed sweep's store is byte-identical to a local one.

Robustness model (the PR 3 taxonomy, extended across hosts):

* every lease carries a *heartbeat* liveness budget (``lease_ttl``
  seconds; agents beat at ``ttl / 3``) and, when the engine has a
  ``--run-timeout``, a wall-clock *deadline* derived from it;
* a lease whose heartbeats stop is a dead or partitioned agent: the
  run never provably executed to completion, so it is requeued
  **uncharged** -- exactly like a local run waiting in the pipe of a
  worker that died (only actually-executing runs get charged);
* a lease whose deadline passes while heartbeats continue is a *slow
  run*, not a dead agent: it is charged a ``timeout`` failure, exactly
  like a local run reaped by the watchdog.  This is the
  heartbeat-loss-vs-slow-run disambiguation;
* an agent can requeue the same run at most :data:`MAX_LEASE_REQUEUES`
  times; past that the run is charged a ``timeout`` so a poisonous run
  cannot ping-pong across dying agents forever;
* delivery is at-least-once: a completion for an expired or canceled
  lease whose key already completed is *deduplicated* (first writer
  wins) with byte-parity asserted between the two payloads; one whose
  key is still pending is discarded as stale (the requeued task is the
  authoritative execution).

Batch leases (PR 9): a lease may carry a whole
:class:`~repro.engine.executor.BatchTask` -- N same-geometry configs
served by one batched detailed pass on the agent.  The ledger tracks
the batch as *one* lease with member run keys: heartbeat loss requeues
the whole batch uncharged; an agent-reported member fault surfaces as
one ``fail`` event on the batch task, which the executor explodes into
uncharged singletons exactly like a local batch fault; duplicate batch
completions dedup per member key with byte-parity asserted.
``remote_batch_configs`` caps how many members one lease may carry --
oversized batches are split at grant time (the remainder goes back to
the front of the supply), so 1 reproduces PR 8 singleton leases.

Artifact ops (PR 9): agents probe/fetch content-addressed artifacts --
trace-store ``.npt`` columns and checkpoint-store entries -- from the
supervisor's stores over the same connection, keyed by the stores'
existing content hashes.  ``artifact_probe`` returns size + sha256
(positions too, for checkpoints); ``artifact_fetch`` returns one
chunk per request (base64, bounded).  The agent verifies the whole
file's sha256 before an atomic rename into its local store, so a
corrupt transfer is detected and re-fetched, never trusted.

Obs ops (PR 9): agents stream throttled per-phase progress events and
artifact cache counter deltas back over the lease connection.  The
server re-emits the events on the supervisor's tracer (they merge into
``trace.jsonl``) and folds the counters into the agent registry
(surfaced in ``live.json`` and the Prometheus textfile).  A run's
phase-timing ledger is not an obs report: it rides on the ``complete``
message, one ``phases`` dict per payload, and is recorded per run
exactly like a local run's.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.cpu.checkpoint import CheckpointStore
from repro.obs import resources as obs_resources
from repro.settings import value

#: Version of the wire message format.
PROTOCOL_VERSION = 1

#: Uncharged requeues per run before the run is charged a timeout.
MAX_LEASE_REQUEUES = 5

#: Hard cap on one wire message (a batch of result payloads is large,
#: but bounded; anything bigger is a protocol violation, not data).
MAX_MESSAGE_BYTES = 256 * 1024 * 1024

#: How long a canceled lease is remembered so the agent's straggler
#: heartbeats/completions resolve instead of reading "unknown lease".
_CANCEL_RETENTION_S = 600.0

#: One ``artifact_fetch`` chunk (base64 inflates this ~4/3 on the wire).
ARTIFACT_CHUNK_BYTES = 1024 * 1024


def parse_address(text: str) -> Tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``) -> ``(host, port)``."""
    text = text.strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
    else:
        host, port_text = "", text
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad listen/connect address {text!r}; expected HOST:PORT"
        ) from None
    return host or "127.0.0.1", port


class ProtocolError(RuntimeError):
    """A malformed or oversized wire message."""


class RemoteFailure(RuntimeError):
    """A run failure reported from outside the supervisor's process,
    reconstructed for its failure taxonomy: an agent's report, or a
    worker process that died (local or remote).

    ``remote_kind`` feeds :func:`~repro.engine.executor.classify_failure`
    (``transient`` or ``crash``); ``signature`` feeds the quarantine
    logic with the *remote* exception's identity so a run that fails
    identically on two different agents is still detected as poison.
    """

    def __init__(self, kind: str, type_name: str, message: str) -> None:
        super().__init__(f"{type_name}: {message}")
        self.remote_kind = kind
        self.signature = (type_name, message)

    def __reduce__(self):  # crosses a worker process's pipe
        return (RemoteFailure, (self.remote_kind, *self.signature))


def encode_task(task) -> str:
    """A task as a JSON-safe string (pickle + base64).

    The cluster is trusted (agents already execute arbitrary leased
    work), so pickle's reach is not an added exposure here.
    """
    return base64.b64encode(
        pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_task(text: str):
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def payload_digest(payloads: List[dict]) -> str:
    """Canonical content hash of a completion's result payloads."""
    canonical = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _phase_ledgers(raw) -> List[dict]:
    """Validate a ``complete`` message's per-payload phase ledgers
    (untrusted wire input: a malformed ledger becomes an empty one)."""
    ledgers = []
    for ledger in raw if isinstance(raw, list) else []:
        try:
            ledgers.append(
                {
                    str(phase): {
                        "seconds": float(entry.get("seconds", 0.0)),
                        "instructions": int(entry.get("instructions", 0)),
                    }
                    for phase, entry in ledger.items()
                }
            )
        except (AttributeError, TypeError, ValueError):
            ledgers.append({})
    return ledgers


#: Characters allowed in a wire artifact key (stores key by sha256 hex).
_HEX_DIGITS = frozenset("0123456789abcdef")


def _safe_key(key: str) -> bool:
    """Whether a wire key is a store content hash, so it can never
    escape the store root."""
    return len(key) >= 2 and set(key) <= _HEX_DIGITS


def file_sha256(path: Path) -> str:
    """Streaming sha256 of one file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1024 * 1024), b""):
            digest.update(block)
    return digest.hexdigest()


class Connection:
    """One newline-delimited-JSON message channel over a socket."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._reader = sock.makefile("rb")
        self._write_lock = threading.Lock()

    def send(self, message: dict) -> None:
        data = json.dumps(
            message, sort_keys=True, separators=(",", ":")
        ).encode("utf-8") + b"\n"
        with self._write_lock:
            self.sock.sendall(data)

    def recv(self) -> Optional[dict]:
        """The next message, or None on a clean EOF."""
        line = self._reader.readline(MAX_MESSAGE_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_MESSAGE_BYTES:
            raise ProtocolError("wire message exceeds size cap")
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"bad wire message: {exc}") from None
        if not isinstance(message, dict):
            raise ProtocolError("wire message is not an object")
        return message

    def request(self, message: dict) -> dict:
        """Send one message and block for its reply (client side)."""
        self.send(message)
        reply = self.recv()
        if reply is None:
            raise ConnectionError("connection closed awaiting reply")
        return reply

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class _Lease:
    """One outstanding grant of a task to an agent."""

    lease_id: str
    task: object
    key: str
    agent: str
    granted: float                   # ledger clock at grant
    last_beat: float                 # ledger clock at the last heartbeat
    deadline: Optional[float] = None  # ledger clock; None = no run timeout
    canceled_at: Optional[float] = None
    cancel_reason: str = ""
    member_keys: Optional[List[str]] = None  # batch lease: per-member run keys


@dataclass
class _AgentEntry:
    """Registry entry for one connected (or lost) agent."""

    name: str
    host: str = ""
    pid: int = 0
    joined_unix: float = field(default_factory=time.time)
    last_seen: float = 0.0           # ledger clock
    runs: int = 0
    wall_time_s: float = 0.0
    state: str = "idle"              # idle | running | lost
    phase: str = ""                  # last obs-reported simulation phase
    artifact_hits: int = 0           # local-store probe hits
    artifact_misses: int = 0         # local-store probe misses


class LeaseLedger:
    """Thread-safe lease accounting shared by the server's connection
    threads and the executor's scheduling loop.

    The executor owns the *supply* (its pending deque) and consumes
    *events*; connection threads grant leases from the supply and push
    completions/failures as events.  ``clock`` is injectable so the
    expiry logic is testable without sleeping.
    """

    def __init__(
        self,
        lease_ttl: Optional[float] = None,
        run_timeout: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        max_requeues: int = MAX_LEASE_REQUEUES,
        recorder: Optional[Callable[[str, dict], None]] = None,
        remote_batch_configs: Optional[int] = None,
    ) -> None:
        self.lease_ttl = value("lease_ttl", lease_ttl)
        self.run_timeout = run_timeout
        self.clock = clock
        self.max_requeues = max_requeues
        self.remote_batch_configs = remote_batch_configs
        self._record = recorder or (lambda kind, fields: None)
        self._lock = threading.Lock()
        self._supply: Optional[Deque] = None
        self._leases: Dict[str, _Lease] = {}
        self._agents: Dict[str, _AgentEntry] = {}
        self._completed: Dict[str, str] = {}    # key -> payload digest
        self._requeues: Dict[str, int] = {}     # key -> uncharged requeues
        self._deliveries: Dict[str, int] = {}   # key -> grant count
        self._events: Deque[tuple] = deque()
        self._counters: Dict[str, int] = {}
        self._next_lease = 0
        self._next_agent = 0
        self.closing = False

    # -- executor side -----------------------------------------------------------

    def begin_batch(self, supply: Deque) -> None:
        """Expose the executor's pending deque to lease grants."""
        with self._lock:
            self._supply = supply

    def end_batch(self) -> None:
        with self._lock:
            self._supply = None

    def collect(self) -> List[tuple]:
        """Expire overdue leases and drain the event queue.

        Event tuples (consumed by the executor's scheduling loop):

        * ``("complete", task, payloads, wall_s, reuse, agent,
          resources, phases)`` -- ``phases`` holds one phase-timing
          ledger per payload
        * ``("fail", task, exception, agent)`` -- charged normally
        * ``("timeout", task, agent, reason)`` -- charged as a timeout
        * ``("requeue", task, agent, reason)`` -- **uncharged**
        * ``("parity", key, agent, detail)`` -- duplicate payload bytes
          differ; the sweep must stop rather than trust either copy
        """
        self.scan()
        drained: List[tuple] = []
        with self._lock:
            while self._events:
                drained.append(self._events.popleft())
        return drained

    def outstanding(self) -> int:
        """Work the executor must still wait for (or drain).

        Undrained event-queue entries count too: ``complete`` pops the
        lease and queues its event under one lock hold, so without them
        the executor's scheduling loop could observe zero outstanding
        leases between a completion's arrival and its drain -- and exit
        with results undelivered.
        """
        with self._lock:
            live = sum(
                1 for lease in self._leases.values()
                if lease.canceled_at is None
            )
            return live + len(self._events)

    def consume_counters(self) -> Dict[str, int]:
        """Drain the ledger's counter deltas (for EngineMetrics)."""
        with self._lock:
            counters, self._counters = self._counters, {}
        return counters

    def agents_snapshot(self) -> List[dict]:
        """Per-agent rows: live telemetry and ``engine-stats.json``'s
        ``per_agent`` table both read this one view."""
        now = self.clock()
        with self._lock:
            return [
                {
                    "agent": agent_id,
                    "host": entry.host,
                    "pid": entry.pid,
                    "state": entry.state,
                    "runs": entry.runs,
                    "wall_time_s": entry.wall_time_s,
                    "idle_s": round(max(0.0, now - entry.last_seen), 3),
                    "phase": entry.phase,
                    "artifact_hits": entry.artifact_hits,
                    "artifact_misses": entry.artifact_misses,
                }
                for agent_id, entry in sorted(self._agents.items())
            ]

    def live_agents(self) -> int:
        with self._lock:
            return sum(
                1 for entry in self._agents.values() if entry.state != "lost"
            )

    def total_agents(self) -> int:
        """Distinct agents that ever joined (lost ones included)."""
        with self._lock:
            return len(self._agents)

    # -- agent side (called from connection threads) -------------------------------

    def _bump(self, counter: str, amount: int = 1) -> None:
        self._counters[counter] = self._counters.get(counter, 0) + amount

    def join(self, name: str = "", host: str = "", pid: int = 0) -> str:
        with self._lock:
            self._next_agent += 1
            agent_id = name or f"agent-{self._next_agent}"
            if agent_id in self._agents and (
                self._agents[agent_id].state != "lost"
            ):
                agent_id = f"{agent_id}#{self._next_agent}"
            self._agents[agent_id] = _AgentEntry(
                name=agent_id, host=host, pid=pid, last_seen=self.clock()
            )
            self._bump("agents_joined")
        self._record("agent_joined", {"agent": agent_id, "host": host})
        return agent_id

    def leave(self, agent_id: str, reason: str = "disconnected") -> None:
        """Requeue an agent's outstanding leases, uncharged."""
        dropped: List[_Lease] = []
        with self._lock:
            entry = self._agents.get(agent_id)
            if entry is None or entry.state == "lost":
                return
            entry.state = "lost"
            self._bump("agents_lost")
            for lease in list(self._leases.values()):
                if lease.agent == agent_id and lease.canceled_at is None:
                    dropped.append(self._leases.pop(lease.lease_id))
        self._record("agent_lost", {"agent": agent_id, "reason": reason})
        for lease in dropped:
            self._requeue_locked_out(lease, reason)

    def _requeue_locked_out(self, lease: _Lease, reason: str) -> None:
        """Route one revoked lease: requeue uncharged, or charge a
        timeout once the run has burned its requeue budget."""
        with self._lock:
            count = self._requeues.get(lease.key, 0) + 1
            self._requeues[lease.key] = count
            self._bump("lease_expiries")
            if count > self.max_requeues:
                self._events.append(
                    ("timeout", lease.task, lease.agent,
                     f"requeue budget exhausted after {reason}")
                )
            else:
                self._bump("lease_requeues")
                self._events.append(
                    ("requeue", lease.task, lease.agent, reason)
                )
        self._record(
            "lease_expired",
            {"key": lease.key, "agent": lease.agent, "reason": reason},
        )

    def grant(self, agent_id: str) -> Optional[Tuple[_Lease, int]]:
        """Lease the next pending task to ``agent_id`` (None = idle)."""
        with self._lock:
            if self.closing or self._supply is None:
                return None
            try:
                # deque.popleft is atomic; the executor pops the same
                # deque for its local workers, so contention resolves to
                # exactly one owner per task.
                task = self._supply.popleft()
            except IndexError:
                return None
            members = getattr(task, "members", None)
            cap = self.remote_batch_configs
            if members is not None and cap is not None and len(members) > cap:
                # The batch is wider than one lease may carry: grant
                # the head slice, push the remainder back to the front
                # of the supply (it splits again on the next grant).
                # A one-member slice travels as the member run itself.
                head, rest = list(members[:cap]), list(members[cap:])
                self._supply.appendleft(
                    rest[0] if len(rest) == 1 else replace(task, members=rest)
                )
                task = head[0] if len(head) == 1 else replace(
                    task, members=head
                )
                members = getattr(task, "members", None)
            now = self.clock()
            self._next_lease += 1
            lease_id = f"L{self._next_lease}"
            key = task.key
            delivery = self._deliveries.get(key, 0) + 1
            self._deliveries[key] = delivery
            deadline = None
            if self.run_timeout is not None:
                budget = getattr(task, "members", None)
                multiplier = len(budget) if budget is not None else 1
                # One heartbeat period of grace absorbs wire latency,
                # keeping remote deadline semantics aligned with the
                # local watchdog's execution-time clock.
                deadline = now + self.run_timeout * multiplier + (
                    self.lease_ttl / 3.0
                )
            lease = _Lease(
                lease_id=lease_id, task=task, key=key, agent=agent_id,
                granted=now, last_beat=now, deadline=deadline,
                member_keys=(
                    [getattr(member, "key", None) for member in members]
                    if members is not None else None
                ),
            )
            self._leases[lease_id] = lease
            self._bump("leases_granted")
            entry = self._agents.get(agent_id)
            if entry is not None:
                entry.state = "running"
                entry.last_seen = now
        self._record(
            "leased",
            {"key": key, "agent": agent_id, "delivery": delivery},
        )
        return lease, delivery

    def heartbeat(self, agent_id: str, lease_id: str) -> str:
        """``ok`` to keep going, ``cancel`` to abandon the run."""
        with self._lock:
            entry = self._agents.get(agent_id)
            if entry is not None:
                entry.last_seen = self.clock()
            lease = self._leases.get(lease_id)
            if lease is None or lease.canceled_at is not None:
                return "cancel"
            lease.last_beat = self.clock()
            return "ok"

    def complete(
        self,
        agent_id: str,
        lease_id: str,
        key: str,
        payloads: List[dict],
        wall_s: float,
        reuse: Dict[str, int],
        keys: Optional[List[str]] = None,
        resources: Optional[Dict[str, float]] = None,
        phases: Optional[List[dict]] = None,
    ) -> str:
        """Record one completion; returns ``ok``/``duplicate``/``stale``.

        ``keys`` carries the member run keys of a batch lease (one per
        payload); the ledger then dedups stragglers *per member*, so a
        duplicate batch completion resolves even after the original
        batch was split or exploded into singletons.  ``phases`` holds
        each payload's phase-timing ledger.
        """
        digest = payload_digest(payloads)
        with self._lock:
            entry = self._agents.get(agent_id)
            if entry is not None:
                entry.last_seen = self.clock()
                entry.state = "idle"
            lease = self._leases.get(lease_id)
            if lease is not None and lease.canceled_at is None:
                del self._leases[lease_id]
                member_keys = keys or lease.member_keys
                if member_keys and len(member_keys) == len(payloads):
                    # payload_digest of a 1-list matches the singleton
                    # formula, so per-member digests dedup uniformly
                    # against singleton completions of the same runs.
                    for member_key, payload in zip(member_keys, payloads):
                        if member_key:
                            self._completed[member_key] = payload_digest(
                                [payload]
                            )
                else:
                    self._completed[key] = digest
                if entry is not None:
                    entry.runs += len(payloads) if member_keys else 1
                    entry.wall_time_s += wall_s
                self._events.append(
                    ("complete", lease.task, payloads, wall_s, reuse,
                     agent_id, resources, phases or [])
                )
                return "ok"
            # Lease expired/canceled/unknown: at-least-once straggler.
            if keys and len(keys) == len(payloads):
                return self._resolve_stale_batch(agent_id, keys, payloads)
            known = self._completed.get(key)
            if known is not None:
                if known != digest:
                    self._events.append(
                        ("parity", key, agent_id,
                         f"duplicate payload digest {digest[:12]} != "
                         f"first-writer {known[:12]}")
                    )
                else:
                    self._bump("duplicate_completions")
                return "duplicate"
            self._bump("stale_completions")
            return "stale"

    def _resolve_stale_batch(
        self, agent_id: str, keys: List[str], payloads: List[dict]
    ) -> str:
        """Per-member straggler resolution for a dead batch lease.

        Members whose keys already completed are deduplicated with
        byte-parity asserted; any member still unknown makes the whole
        straggler stale (the requeued execution is authoritative).
        Called with the ledger lock held.
        """
        stale = False
        for member_key, payload in zip(keys, payloads):
            known = self._completed.get(member_key)
            if known is None:
                stale = True
            elif known != payload_digest([payload]):
                self._events.append(
                    ("parity", member_key, agent_id,
                     f"duplicate batch-member payload digest != "
                     f"first-writer {known[:12]}")
                )
        if stale:
            self._bump("stale_completions")
            return "stale"
        self._bump("duplicate_completions")
        return "duplicate"

    def fail(
        self,
        agent_id: str,
        lease_id: str,
        key: str,
        exc: BaseException,
    ) -> str:
        exploded: Optional[dict] = None
        with self._lock:
            entry = self._agents.get(agent_id)
            if entry is not None:
                entry.last_seen = self.clock()
                entry.state = "idle"
            lease = self._leases.get(lease_id)
            if lease is None or lease.canceled_at is not None:
                self._bump("stale_completions")
                return "stale"
            del self._leases[lease_id]
            if getattr(lease.task, "members", None) is not None:
                # A member fault on a batch lease: the single fail
                # event reaches the executor, which explodes the batch
                # into uncharged singletons exactly like a local batch
                # fault (the poisoned member is then found alone).
                self._bump("remote_batch_explodes")
                exploded = {
                    "key": lease.key,
                    "agent": agent_id,
                    "members": len(lease.task.members),
                    "error": str(exc),
                }
            self._events.append(("fail", lease.task, exc, agent_id))
        if exploded is not None:
            self._record("batch_exploded", exploded)
        return "ok"

    def observe(
        self,
        agent_id: str,
        phase: str = "",
        artifacts: Optional[Dict[str, int]] = None,
    ) -> None:
        """Fold one obs report from an agent into the ledger.

        ``phase`` is the agent's latest simulation phase (live
        telemetry); ``artifacts`` carries cache counter deltas
        (``hits``/``misses``/``fetches``/``refetches``/
        ``corrupt_chunks``).
        """
        with self._lock:
            entry = self._agents.get(agent_id)
            if entry is not None:
                entry.last_seen = self.clock()
                if phase:
                    entry.phase = phase
            if artifacts:
                if entry is not None:
                    entry.artifact_hits += int(artifacts.get("hits", 0))
                    entry.artifact_misses += int(artifacts.get("misses", 0))
                for counter, wire in (
                    ("artifact_fetches", "fetches"),
                    ("artifact_refetches", "refetches"),
                    ("artifact_corrupt_chunks", "corrupt_chunks"),
                ):
                    amount = int(artifacts.get(wire, 0))
                    if amount:
                        self._bump(counter, amount)

    # -- expiry --------------------------------------------------------------------

    def scan(self) -> None:
        """Expire heartbeat-dead leases, cancel deadline-blown ones."""
        now = self.clock()
        expired: List[_Lease] = []
        lost_agents: List[str] = []
        with self._lock:
            for lease in list(self._leases.values()):
                if lease.canceled_at is not None:
                    if now - lease.canceled_at > _CANCEL_RETENTION_S:
                        del self._leases[lease.lease_id]
                    continue
                if now - lease.last_beat > self.lease_ttl:
                    # Heartbeats stopped: dead or partitioned agent.
                    # The run never provably executed to completion,
                    # so it is requeued uncharged.
                    del self._leases[lease.lease_id]
                    expired.append(lease)
                    lost_agents.append(lease.agent)
                elif lease.deadline is not None and now >= lease.deadline:
                    # Still heartbeating but past the run's wall-clock
                    # budget: a slow run, charged like a local watchdog
                    # reap.  The lease is kept (canceled) so the
                    # agent's next heartbeat tells it to abandon ship.
                    lease.canceled_at = now
                    lease.cancel_reason = "deadline"
                    self._events.append(
                        ("timeout", lease.task, lease.agent,
                         f"exceeded {self.run_timeout:g}s run timeout")
                    )
        for lease in expired:
            self._requeue_locked_out(lease, "heartbeat lost")
        for agent_id in lost_agents:
            self.leave(agent_id, reason="heartbeat lost")


class LeaseServer:
    """TCP front end for a :class:`LeaseLedger`.

    One accept thread plus one thread per agent connection; every
    ledger mutation happens under the ledger's lock, so the executor's
    scheduling loop can poll :meth:`collect` without further
    coordination.  The server is also the journal's scribe for
    distributed lifecycle events (agent joins/losses, grants, expiries).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        scale_instructions_per_m: int,
        results_epoch: int,
        run_timeout: Optional[float] = None,
        lease_ttl: Optional[float] = None,
        backend: Optional[str] = None,
        checkpoint_interval: int = 0,
        journal=None,
        clock: Callable[[], float] = time.monotonic,
        remote_batch_configs: Optional[int] = None,
        artifact_roots: Optional[Dict[str, Path]] = None,
    ) -> None:
        self.scale_instructions_per_m = scale_instructions_per_m
        self.results_epoch = results_epoch
        self.backend = backend
        self.checkpoint_interval = checkpoint_interval
        self.journal = journal
        #: ``{"trace": dir, "checkpoint": dir}`` roots agents may fetch
        #: content-addressed artifacts from (absent kind = no serving).
        self.artifact_roots = {
            kind: Path(root)
            for kind, root in (artifact_roots or {}).items()
            if root is not None
        }
        #: The checkpoint root read through its store's file layout.
        self.checkpoints: Optional[CheckpointStore] = None
        if "checkpoint" in self.artifact_roots and checkpoint_interval > 0:
            self.checkpoints = CheckpointStore(
                self.artifact_roots["checkpoint"], checkpoint_interval
            )
        self.ledger = LeaseLedger(
            lease_ttl=lease_ttl,
            run_timeout=run_timeout,
            clock=clock,
            recorder=self._record,
            remote_batch_configs=remote_batch_configs,
        )
        self.lease_ttl = self.ledger.lease_ttl
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]
        self._connections: List[Connection] = []
        self._conn_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-lease-accept", daemon=True
        )
        self._accept_thread.start()

    # -- ledger passthrough --------------------------------------------------------

    def begin_batch(self, supply: Deque) -> None:
        self.ledger.begin_batch(supply)

    def end_batch(self) -> None:
        self.ledger.end_batch()

    def collect(self) -> List[tuple]:
        return self.ledger.collect()

    def outstanding(self) -> int:
        return self.ledger.outstanding()

    def consume_counters(self) -> Dict[str, int]:
        return self.ledger.consume_counters()

    def agents_snapshot(self) -> List[dict]:
        return self.ledger.agents_snapshot()

    def _record(self, kind: str, fields: dict) -> None:
        journal = self.journal
        if journal is None:
            return
        try:
            journal.record(kind, **fields)
        except Exception:
            pass  # lifecycle records must never take the sweep down

    # -- agent lifecycle -----------------------------------------------------------

    def wait_for_agents(self, count: int, timeout: float = 600.0) -> None:
        """Block until ``count`` agents have *ever* joined.

        A start-of-sweep convenience gate, nothing more: it counts
        cumulative joins, not currently-live agents, so a sweep whose
        Nth batch starts after an agent died does not re-block (the
        lease machinery already handles agents coming and going).
        """
        deadline = time.monotonic() + timeout
        while self.ledger.total_agents() < count:
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"waited {timeout:g}s for {count} worker agent(s); "
                    f"only {self.ledger.total_agents()} joined"
                )
            time.sleep(0.05)

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve,
                args=(sock, addr),
                name=f"repro-lease-{addr[0]}:{addr[1]}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _serve(self, sock: socket.socket, addr) -> None:
        connection = Connection(sock)
        with self._conn_lock:
            self._connections.append(connection)
        agent_id: Optional[str] = None
        try:
            while True:
                try:
                    message = connection.recv()
                except (ProtocolError, OSError):
                    break
                if message is None:
                    break
                reply, agent_id, done = self._handle(
                    message, agent_id, addr
                )
                try:
                    connection.send(reply)
                except OSError:
                    break
                if done:
                    break
        finally:
            if agent_id is not None:
                self.ledger.leave(agent_id)
            connection.close()
            with self._conn_lock:
                try:
                    self._connections.remove(connection)
                except ValueError:
                    pass

    def _handle(
        self, message: dict, agent_id: Optional[str], addr
    ) -> Tuple[dict, Optional[str], bool]:
        op = message.get("op")
        if op == "hello":
            agent_id = self.ledger.join(
                name=str(message.get("name", "") or ""),
                host=str(message.get("host", "") or addr[0]),
                pid=int(message.get("pid", 0) or 0),
            )
            return (
                {
                    "op": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "agent": agent_id,
                    "scale": self.scale_instructions_per_m,
                    "epoch": self.results_epoch,
                    "backend": self.backend,
                    "checkpoint_interval": self.checkpoint_interval,
                    "lease_ttl_s": self.lease_ttl,
                    "heartbeat_s": self.lease_ttl / 3.0,
                },
                agent_id,
                False,
            )
        if agent_id is None:
            return {"op": "error", "error": "hello first"}, None, True
        if op == "lease":
            if self.ledger.closing:
                return {"op": "shutdown"}, agent_id, False
            granted = self.ledger.grant(agent_id)
            if granted is None:
                return (
                    {"op": "idle", "backoff_s": 0.2}, agent_id, False
                )
            lease, delivery = granted
            from repro.engine.executor import _strip_task

            return (
                {
                    "op": "task",
                    "lease": lease.lease_id,
                    "key": lease.key,
                    "delivery": delivery,
                    "task": encode_task(_strip_task(lease.task)),
                },
                agent_id,
                False,
            )
        if op == "heartbeat":
            status = self.ledger.heartbeat(
                agent_id, str(message.get("lease", ""))
            )
            return {"op": "ok", "status": status}, agent_id, False
        if op == "complete":
            payloads = message.get("payloads") or []
            member_keys = message.get("keys")
            status = self.ledger.complete(
                agent_id,
                str(message.get("lease", "")),
                str(message.get("key", "")),
                payloads,
                float(message.get("wall_s", 0.0)),
                {
                    str(k): int(v)
                    for k, v in (message.get("reuse") or {}).items()
                },
                keys=(
                    [str(k) for k in member_keys]
                    if isinstance(member_keys, list) else None
                ),
                resources=obs_resources.normalize(
                    message.get("resources")
                ),
                phases=_phase_ledgers(message.get("phases")),
            )
            return {"op": "ok", "status": status}, agent_id, False
        if op == "artifact_probe":
            return self._artifact_probe(message), agent_id, False
        if op == "artifact_fetch":
            return self._artifact_fetch(message), agent_id, False
        if op == "obs":
            self.ledger.observe(
                agent_id,
                phase=str(message.get("phase", "") or ""),
                artifacts=message.get("artifacts") or None,
            )
            self._emit_remote_events(
                agent_id, message.get("events") or []
            )
            return {"op": "ok", "status": "ok"}, agent_id, False
        if op == "fail":
            exc = self._remote_exception(message)
            status = self.ledger.fail(
                agent_id,
                str(message.get("lease", "")),
                str(message.get("key", "")),
                exc,
            )
            return {"op": "ok", "status": status}, agent_id, False
        if op == "bye":
            return {"op": "ok", "status": "ok"}, agent_id, True
        return (
            {"op": "error", "error": f"unknown op {op!r}"}, agent_id, False,
        )

    # -- artifact serving ----------------------------------------------------------

    def _artifact_path(
        self, kind: str, key: str, position=None
    ) -> Optional[Path]:
        """Resolve one artifact file, or None if unknown/unsafe."""
        if not _safe_key(key):
            return None
        if kind == "trace" and "trace" in self.artifact_roots:
            return self.artifact_roots["trace"] / key[:2] / f"{key}.npt"
        if kind == "checkpoint" and self.checkpoints is not None:
            try:
                return self.checkpoints.path_for(key, int(position))
            except (TypeError, ValueError):
                return None
        return None

    def _artifact_probe(self, message: dict) -> dict:
        kind = str(message.get("kind", ""))
        key = str(message.get("key", ""))
        if kind == "checkpoint":
            files = []
            if self.checkpoints is not None and _safe_key(key):
                for position in self.checkpoints.positions(key):
                    path = self.checkpoints.path_for(key, position)
                    try:
                        files.append({
                            "position": position,
                            "size": path.stat().st_size,
                            "sha256": file_sha256(path),
                        })
                    except OSError:
                        continue  # unreadable entry: just not offered
            return {"op": "artifact", "found": bool(files), "files": files}
        path = self._artifact_path(kind, key)
        try:
            if path is None or not path.is_file():
                return {"op": "artifact", "found": False}
            return {
                "op": "artifact",
                "found": True,
                "size": path.stat().st_size,
                "sha256": file_sha256(path),
            }
        except OSError:
            return {"op": "artifact", "found": False}

    def _artifact_fetch(self, message: dict) -> dict:
        path = self._artifact_path(
            str(message.get("kind", "")),
            str(message.get("key", "")),
            message.get("position"),
        )
        try:
            offset = max(0, int(message.get("offset", 0)))
            length = int(message.get("length", ARTIFACT_CHUNK_BYTES))
        except (TypeError, ValueError):
            return {"op": "error", "error": "bad artifact_fetch range"}
        length = max(1, min(length, ARTIFACT_CHUNK_BYTES))
        try:
            if path is None or not path.is_file():
                return {"op": "artifact", "found": False}
            with open(path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                handle.seek(offset)
                data = handle.read(length)
        except OSError:
            return {"op": "artifact", "found": False}
        return {
            "op": "chunk",
            "data": base64.b64encode(data).decode("ascii"),
            "size": size,
            "eof": offset + len(data) >= size,
        }

    def _emit_remote_events(self, agent_id: str, events) -> None:
        """Re-emit agent-streamed phase events on the supervisor's
        tracer so they merge into the sweep's ``trace.jsonl``."""
        try:
            from repro.obs import trace as obs_trace
        except Exception:
            return
        for entry in events:
            if not isinstance(entry, dict):
                continue
            attrs = entry.get("attrs")
            attrs = dict(attrs) if isinstance(attrs, dict) else {}
            attrs.pop("agent", None)
            attrs.pop("phase", None)
            try:
                obs_trace.event(
                    "remote_phase",
                    agent=agent_id,
                    phase=str(entry.get("phase", "")),
                    **{str(k): v for k, v in attrs.items()},
                )
            except Exception:
                pass  # telemetry must never take the connection down

    @staticmethod
    def _remote_exception(message: dict) -> BaseException:
        """Reconstruct an agent-reported failure for the supervisor.

        ``kernel`` failures come back as a real :class:`KernelError`
        so the normal backend-degradation path (uncharged, one tier
        down) serves remote runs too; everything else becomes a
        :class:`RemoteFailure` carrying the remote taxonomy kind and
        the remote exception's signature.
        """
        kind = str(message.get("kind", "transient"))
        error = str(message.get("error", ""))
        if kind == "kernel":
            from repro.cpu.kernels.registry import KernelError

            return KernelError(str(message.get("backend", "")), error)
        if kind == "crash":
            from repro.engine.executor import _crash_failure

            return _crash_failure()
        return RemoteFailure(
            "transient", str(message.get("type", "RemoteError")), error
        )

    def close(self, drain_s: float = 3.0) -> None:
        """Stop granting, give agents a moment to hear ``shutdown``,
        then tear the sockets down."""
        self.ledger.closing = True
        deadline = time.monotonic() + drain_s
        while time.monotonic() < deadline:
            with self._conn_lock:
                if not self._connections:
                    break
            time.sleep(0.05)
        # Closing a listening socket from another thread does not wake a
        # blocked accept() on Linux; shutting it down first does.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        self._accept_thread.join(timeout=2.0)
        for thread in self._threads:
            thread.join(timeout=0.5)

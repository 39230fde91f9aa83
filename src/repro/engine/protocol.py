"""Lease-based distributed scheduling: wire protocol, ledger, server.

The supervisor side of every sweep that runs outside the supervisor's
own thread.  Worker agents (:mod:`repro.engine.worker`) *lease* runs
from the engine's pending queue: remote agents over TCP, and the
executor's ``--jobs`` clients over socketpairs, with the same session
code.  The :class:`LeaseLedger` tracks every outstanding lease and is
the one place that turns an attempt's outcome into an event for the
executor; the :class:`LeaseServer` speaks the wire protocol on its
behalf.

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
  ``--run-timeout``, a wall-clock *deadline*: from the grant, the
  timeout times the lease's member runs plus one heartbeat period;
* a lease whose heartbeats stop is a dead or partitioned agent: the
  run never provably executed to completion, so it is requeued
  **uncharged**;
* a lease whose deadline passes while heartbeats continue is a *slow
  run*, not a dead agent: it is charged a ``timeout`` failure, and the
  client kills the run when its next heartbeat is answered ``cancel``.
  This is the heartbeat-loss-vs-slow-run disambiguation;
* an agent can requeue the same run at most :data:`MAX_LEASE_REQUEUES`
  times; past that the run is charged a ``timeout`` so a poisonous run
  cannot ping-pong across dying agents forever;
* delivery is at-least-once: a completion for an expired or canceled
  lease whose key already completed is *deduplicated* (first writer
  wins) with byte-parity asserted between the two payloads; one whose
  key is still pending is discarded as stale (the requeued task is the
  authoritative execution).

A lease may carry a whole :class:`~repro.engine.executor.BatchTask`,
tracked as *one* lease with member run keys (heartbeat loss requeues
it whole, a member fault is one ``fail`` event the executor explodes
into uncharged singletons, straggler completions dedup per member);
``remote_batch_configs`` caps its members, splitting wider batches at
grant time.  Agents also probe and fetch content-addressed trace and
checkpoint artifacts over the same connection (``artifact_fetch``
replies are :class:`Frame` chunks, sha256-verified by the agent before
install) and stream throttled phase events and artifact counters as
``obs`` messages, which the server re-emits on the supervisor's tracer
and folds into the agent registry.  DESIGN.md section 7 has the
details.

Local clients are not agents: they join the ledger as ``local``, so
they count toward no agent or lease counter, have no ``per_agent`` row,
are not journaled, and their completions carry no agent (they are not
remote runs).
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
from typing import (
    Callable, Deque, Dict, List, NamedTuple, Optional, Tuple, Union,
)

from repro.cpu.checkpoint import CheckpointStore
from repro.obs import resources as obs_resources
from repro.settings import value

#: Version of the wire message format; both ends check it at ``hello``.
#: 2: artifact chunks travel as raw :class:`Frame` bodies.
#: 3: a ``lease`` waits for work, so ``idle`` carries no backoff.
PROTOCOL_VERSION = 3

#: Uncharged requeues per run before the run is charged a timeout.
MAX_LEASE_REQUEUES = 5

#: Hard cap on one wire message (a batch of result payloads is large,
#: but bounded; anything bigger is a protocol violation, not data).
MAX_MESSAGE_BYTES = 256 * 1024 * 1024

#: How long a canceled lease is remembered so the agent's straggler
#: heartbeats/completions resolve instead of reading "unknown lease".
_CANCEL_RETENTION_S = 600.0

#: Largest ``artifact_fetch`` chunk, sent as a raw frame body.
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


class Frame(NamedTuple):
    """A wire message followed by raw bytes: the header line announces
    ``length``, then exactly that many body bytes follow it."""

    header: dict
    body: bytes


class Connection:
    """One newline-delimited-JSON message channel over a socket."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._reader = sock.makefile("rb")
        self._write_lock = threading.Lock()

    def send(self, message: Union[dict, Frame]) -> None:
        body = b""
        if isinstance(message, Frame):
            body = message.body
            message = dict(message.header, length=len(body))
        data = json.dumps(
            message, sort_keys=True, separators=(",", ":")
        ).encode("utf-8") + b"\n"
        with self._write_lock:
            self.sock.sendall(data)
            if body:
                self.sock.sendall(body)

    def recv(
        self, body_limit: Optional[int] = None
    ) -> Union[dict, Frame, None]:
        """The next message, or None on a clean EOF.

        With ``body_limit``, a message that announces a ``length`` is a
        :class:`Frame`: its body is read from the same buffered reader,
        so the next message starts right after it.  A length above
        ``body_limit`` is refused before any body byte is read; a body
        cut short by EOF is refused too.
        """
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
        if body_limit is None or "length" not in message:
            return message
        length = message["length"]
        if type(length) is not int or not 0 <= length <= body_limit:
            raise ProtocolError(
                f"frame length {length!r} outside 0..{body_limit}"
            )
        body = self._reader.read(length)
        if len(body) != length:
            raise ProtocolError(
                f"frame body cut short: {len(body)} of {length} bytes"
            )
        return Frame(message, body)

    def request(
        self, message: dict, body_limit: Optional[int] = None
    ) -> Union[dict, Frame]:
        """Send one message and block for its reply (client side);
        ``body_limit`` as for :meth:`recv`."""
        self.send(message)
        reply = self.recv(body_limit)
        if reply is None:
            raise ConnectionError("connection closed awaiting reply")
        return reply

    def close(self) -> None:
        # Shut down first: a thread blocked reading then sees EOF (and
        # releases the reader, which close would otherwise wait for).
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._reader.close()
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
        # Idle grants wait on this for work (or for closing).
        self._work = threading.Condition(self._lock)
        # The executor waits on this for events (and new leases).
        self._news = threading.Condition(self._lock)
        self._supply: Optional[Deque] = None
        self._leases: Dict[str, _Lease] = {}
        self._agents: Dict[str, _AgentEntry] = {}
        self._completed: Dict[str, str] = {}    # key -> payload digest
        self._requeues: Dict[str, int] = {}     # key -> uncharged requeues
        self._deliveries: Dict[str, int] = {}   # key -> grant count
        self._events: Deque[tuple] = deque()
        self._counters: Dict[str, int] = {}
        # The executor's ``--jobs`` clients (not agents): id -> whether
        # it is still present (False once it left).
        self._local: Dict[str, bool] = {}
        self._next_lease = 0
        self._next_agent = 0
        self._closing = False

    @property
    def closing(self) -> bool:
        return self._closing

    @closing.setter
    def closing(self, closing: bool) -> None:
        with self._lock:
            self._closing = closing
            self._work.notify_all()

    # -- executor side -----------------------------------------------------------

    def begin_batch(self, supply: Deque) -> None:
        """Expose the executor's pending deque to lease grants."""
        with self._lock:
            self._supply = supply
            self._work.notify_all()

    def end_batch(self) -> None:
        with self._lock:
            self._supply = None
            self._work.notify_all()

    def wake(self) -> None:
        """Tell waiting grants that the supply has grown."""
        with self._lock:
            self._work.notify_all()

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

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until an event is queued or a lease granted, the next
        live lease can expire, or ``timeout`` seconds pass: the
        executor's only wait, so it wakes for news, never to poll."""
        with self._lock:
            if self._events:
                return
            now = self.clock()
            for lease in self._leases.values():
                if lease.canceled_at is None:
                    expiry = lease.last_beat + self.lease_ttl
                    if lease.deadline is not None:
                        expiry = min(expiry, lease.deadline)
                    if timeout is None or expiry - now < timeout:
                        timeout = expiry - now
            self._news.wait(None if timeout is None else max(0.0, timeout))

    def _push(self, event: tuple) -> None:
        """Queue one event for the executor (lock held)."""
        self._events.append(event)
        self._news.notify_all()

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
        ``per_agent`` table both read this one view (local clients are
        not agents and have no row)."""
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
                if agent_id not in self._local
            ]

    def total_agents(self) -> int:
        """Distinct agents that ever joined (lost ones included)."""
        with self._lock:
            return len(self._agents) - len(self._local)

    # -- agent side (called from connection threads) -------------------------------

    def _bump(self, counter: str, agent: str, amount: int = 1) -> None:
        """Count ``agent``'s traffic; a local client's counts nowhere."""
        if agent not in self._local:
            self._counters[counter] = self._counters.get(counter, 0) + amount

    def _note(self, kind: str, fields: dict) -> None:
        """Journal one distributed lifecycle record (not a local
        client's: the journal syncs every record to disk)."""
        if fields["agent"] not in self._local:
            self._record(kind, fields)

    def join(
        self, name: str = "", host: str = "", pid: int = 0,
        local: bool = False,
    ) -> str:
        with self._lock:
            self._next_agent += 1
            kind = "local" if local else "agent"
            agent_id = name or f"{kind}-{self._next_agent}"
            if agent_id in self._agents and (
                self._agents[agent_id].state != "lost"
            ):
                agent_id = f"{agent_id}#{self._next_agent}"
            self._agents[agent_id] = _AgentEntry(
                name=agent_id, host=host, pid=pid, last_seen=self.clock()
            )
            if local:
                self._local[agent_id] = True
            self._bump("agents_joined", agent_id)
        self._note("agent_joined", {"agent": agent_id, "host": host})
        return agent_id

    def leave(self, agent_id: str, reason: str = "disconnected") -> None:
        """Requeue an agent's outstanding leases, uncharged.  A local
        client that left is never granted again."""
        dropped: List[_Lease] = []
        with self._lock:
            entry = self._agents.get(agent_id)
            if entry is None or entry.state == "lost":
                return
            entry.state = "lost"
            if agent_id in self._local:
                self._local[agent_id] = False
            self._bump("agents_lost", agent_id)
            for lease in list(self._leases.values()):
                if lease.agent == agent_id and lease.canceled_at is None:
                    dropped.append(self._leases.pop(lease.lease_id))
            self._work.notify_all()
            self._news.notify_all()
        self._note("agent_lost", {"agent": agent_id, "reason": reason})
        for lease in dropped:
            self._requeue_locked_out(lease, reason)

    def leave_local(self) -> None:
        """End every local client's session: its leases are requeued,
        uncharged, and its next lease request is answered
        ``shutdown``."""
        with self._lock:
            present = [a for a, here in self._local.items() if here]
        for agent_id in present:
            self.leave(agent_id)

    def left(self, agent_id: str) -> bool:
        """Whether ``agent_id`` is a local client that has left."""
        return self._local.get(agent_id) is False

    def _requeue_locked_out(self, lease: _Lease, reason: str) -> None:
        """Route one revoked lease: requeue uncharged, or charge a
        timeout once the run has burned its requeue budget."""
        with self._lock:
            count = self._requeues.get(lease.key, 0) + 1
            self._requeues[lease.key] = count
            self._bump("lease_expiries", lease.agent)
            if count > self.max_requeues:
                self._push(
                    ("timeout", lease.task, lease.agent,
                     f"requeue budget exhausted after {reason}")
                )
            else:
                self._bump("lease_requeues", lease.agent)
                self._push(("requeue", lease.task, lease.agent, reason))
        self._note(
            "lease_expired",
            {"key": lease.key, "agent": lease.agent, "reason": reason},
        )

    def grant(self, agent_id: str) -> Optional[Tuple[_Lease, int]]:
        """Lease the next pending task to ``agent_id``.

        With no task pending, wait up to one heartbeat period for one
        (the executor calls :meth:`wake` when it adds work), so a run
        queued just after an idle agent asked starts at once.  None
        means idle, closing, or a local client that has left.
        """
        with self._lock:
            self._work.wait_for(
                lambda: self._closing or bool(self._supply)
                or self.left(agent_id),
                self.lease_ttl / 3.0,
            )
            if self._closing or not self._supply or self.left(agent_id):
                return None
            task = self._supply.popleft()
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
                # The run's budget: its timeout per member, from the
                # grant, plus one heartbeat period of grace for the
                # wire and the child's start.
                multiplier = len(members) if members is not None else 1
                deadline = now + self.run_timeout * multiplier + (
                    self.lease_ttl / 3.0
                )
            # The queue-wait span runs from here to the run's start, on
            # the machine-wide monotonic clock (not the ledger's).
            task.submitted = time.monotonic()
            lease = _Lease(
                lease_id=lease_id, task=task, key=key, agent=agent_id,
                granted=now, last_beat=now, deadline=deadline,
                member_keys=(
                    [getattr(member, "key", None) for member in members]
                    if members is not None else None
                ),
            )
            self._leases[lease_id] = lease
            self._bump("leases_granted", agent_id)
            # The executor's wait now has one more lease to time out.
            self._news.notify_all()
            entry = self._agents.get(agent_id)
            if entry is not None:
                entry.state = "running"
                entry.last_seen = now
        self._note(
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
                # A local client's run is not a remote run: no agent.
                self._push(
                    ("complete", lease.task, payloads, wall_s, reuse,
                     None if agent_id in self._local else agent_id,
                     resources, phases or [])
                )
                return "ok"
            # Lease expired/canceled/unknown: at-least-once straggler.
            if keys and len(keys) == len(payloads):
                return self._resolve_stale_batch(agent_id, keys, payloads)
            known = self._completed.get(key)
            if known is not None:
                if known != digest:
                    self._push(
                        ("parity", key, agent_id,
                         f"duplicate payload digest {digest[:12]} != "
                         f"first-writer {known[:12]}")
                    )
                else:
                    self._bump("duplicate_completions", agent_id)
                return "duplicate"
            self._bump("stale_completions", agent_id)
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
                self._push(
                    ("parity", member_key, agent_id,
                     f"duplicate batch-member payload digest != "
                     f"first-writer {known[:12]}")
                )
        if stale:
            self._bump("stale_completions", agent_id)
            return "stale"
        self._bump("duplicate_completions", agent_id)
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
                self._bump("stale_completions", agent_id)
                return "stale"
            del self._leases[lease_id]
            if getattr(lease.task, "members", None) is not None:
                # A member fault on a batch lease: the single fail
                # event reaches the executor, which explodes the batch
                # into uncharged singletons exactly like a local batch
                # fault (the poisoned member is then found alone).
                self._bump("remote_batch_explodes", agent_id)
                exploded = {
                    "key": lease.key,
                    "agent": agent_id,
                    "members": len(lease.task.members),
                    "error": str(exc),
                }
            self._push(("fail", lease.task, exc, agent_id))
        if exploded is not None:
            self._note("batch_exploded", exploded)
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
                        self._bump(counter, agent_id, amount)

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
                    # A late local client is not lost: it shares this
                    # process, and a left one is never granted again.
                    if lease.agent not in self._local:
                        lost_agents.append(lease.agent)
                elif lease.deadline is not None and now >= lease.deadline:
                    # Still heartbeating but past the run's wall-clock
                    # budget: a slow run, charged a timeout.  The lease
                    # is kept (canceled) so the client's next heartbeat
                    # tells it to kill the run.
                    lease.canceled_at = now
                    lease.cancel_reason = "deadline"
                    self._push(
                        ("timeout", lease.task, lease.agent,
                         f"exceeded {self.run_timeout:g}s run timeout")
                    )
        for lease in expired:
            self._requeue_locked_out(lease, "heartbeat lost")
        for agent_id in lost_agents:
            self.leave(agent_id, reason="heartbeat lost")


class LeaseServer:
    """Wire front end for a :class:`LeaseLedger`.

    One thread per connection; every ledger mutation happens under the
    ledger's lock.  With a ``host``, an accept thread serves TCP agents
    (``--listen``); :meth:`connect_local` serves one end of a socketpair
    the same way, for a ``--jobs`` client in this process.  The
    server is also the journal's scribe for distributed lifecycle
    events (agent joins/losses, grants, expiries).
    """

    def __init__(
        self,
        host: Optional[str] = None,
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
        self._connections: List[Connection] = []
        self._conn_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self.host, self.port = host, None
        if host is None:
            return
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-lease-accept", daemon=True
        )
        self._accept_thread.start()

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

    def connect_local(self) -> socket.socket:
        """A local client's end of a new socketpair, whose other end is
        served like an accepted agent's, as a local client."""
        ours, theirs = socket.socketpair()
        self._start(ours, ("local", 0), True)
        return theirs

    def _start(self, sock: socket.socket, addr, local: bool = False) -> None:
        thread = threading.Thread(
            target=self._serve,
            args=(sock, addr, local),
            name=f"repro-lease-{addr[0]}:{addr[1]}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._start(sock, addr)

    def _serve(self, sock: socket.socket, addr, local: bool = False) -> None:
        connection = Connection(sock)
        with self._conn_lock:
            self._connections.append(connection)
        agent_id: Optional[str] = None
        try:
            while True:
                try:
                    message = connection.recv()
                except (ProtocolError, OSError, ValueError):
                    break  # ValueError: close() closed the reader first
                if message is None:
                    break
                reply, joined, done = self._handle(
                    message, agent_id, addr, local
                )
                agent_id = joined
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
        self, message: dict, agent_id: Optional[str], addr,
        local: bool = False,
    ) -> Tuple[Union[dict, Frame], Optional[str], bool]:
        op = message.get("op")
        if op == "hello":
            if message.get("protocol") != PROTOCOL_VERSION:
                # An agent speaking another wire format would misread
                # the first artifact frame; refuse it at the door.
                return (
                    {
                        "op": "error",
                        "error": (
                            f"protocol {message.get('protocol')!r} != "
                            f"supervisor's {PROTOCOL_VERSION}"
                        ),
                    },
                    agent_id,
                    True,
                )
            agent_id = self.ledger.join(
                name=str(message.get("name", "") or ""),
                host=str(message.get("host", "") or addr[0]),
                pid=int(message.get("pid", 0) or 0),
                local=local,
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
            granted = self.ledger.grant(agent_id)
            if granted is None:
                op = "shutdown" if (
                    self.ledger.closing or self.ledger.left(agent_id)
                ) else "idle"
                return {"op": op}, agent_id, False
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

    def _artifact_fetch(self, message: dict) -> Union[dict, Frame]:
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
        return Frame(
            {"op": "chunk", "size": size, "eof": offset + len(data) >= size},
            data,
        )

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
        """Stop serving.  A listener stops granting and gives agents a
        moment to hear ``shutdown``; local clients leave the ledger (a
        grant waiting for one returns at once).  Then every socket is
        torn down."""
        if self._listener is not None:
            self.ledger.closing = True
            deadline = time.monotonic() + drain_s
            while time.monotonic() < deadline:
                with self._conn_lock:
                    if not self._connections:
                        break
                time.sleep(0.05)
            # Closing a listening socket from another thread does not
            # wake a blocked accept() on Linux; shutting it down does.
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
        self.ledger.leave_local()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for thread in self._threads:
            thread.join(timeout=0.5)

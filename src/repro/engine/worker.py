"""Remote worker agent for distributed sweeps.

Usage::

    python -m repro.engine.worker --connect HOST:PORT [--name gpu-box-1]
        [--cache-dir DIR] [--backend numpy]

An agent connects to a supervisor started with ``--listen``, leases
runs one at a time and executes them with the *same* worker function
local worker processes use (:func:`repro.engine.executor._worker`), so
a run's result cannot depend on where it executed.  Workloads arrive as
compact registry keys; the agent materializes traces and warm-state
checkpoints into its **own** local store (under ``--cache-dir``), so
joining a host costs nothing but CPU.

Each leased run executes in a fresh
:class:`~repro.engine.executor.WorkerProcess`, the same supervised
child class the executor's local workers are.  While the child runs,
the agent heartbeats at the cadence the supervisor announced (a third
of the lease TTL); a ``cancel`` reply kills the child and abandons the
run (the supervisor has already expired or reaped the lease).  The
child's outcome maps to the wire ``kind``: a child that dies before
reporting is a ``crash``, with the local crash signature; a
:class:`~repro.cpu.kernels.registry.KernelError` is a ``kernel``
failure, so the supervisor's backend-degradation path serves remote
runs too; any other exception is ``transient``.  Completed results
travel back as the exact JSON payload dicts the store persists, which
is what makes distributed stores byte-identical to local ones.

A lease may carry a whole batch task (N same-geometry configs served
by one batched pass); the completion then reports one payload and one
member run key per config, so the supervisor dedups stragglers per
member.  Before executing, the agent *prefetches artifacts*: it probes
its local trace/checkpoint stores for the lease's content-addressed
artifacts and fetches misses from the supervisor over the same
connection (chunked base64, whole-file sha256-verified, written via
the stores' atomic-rename discipline) -- so a fresh host costs one
trace fetch + one checkpoint fetch instead of regenerating everything
from zero.  While a run executes, the child's phase transitions stream
back as ``obs`` messages, throttled by the same
:class:`~repro.engine.executor.PhaseNotifier` rule as local workers';
after each run the agent reports its artifact cache counters the same
way.  Each run's phase-timing ledger rides on the ``complete`` message,
one ``phases`` dict per payload, so the supervisor records remote runs
exactly like local ones.

Network fault injection (``$REPRO_FAULT_PLAN``, per-agent): the verbs
``dead``/``drop``/``delay``/``corrupt`` match the agent's Nth granted
lease (1-based) rather than a plan slot -- plans are per-process, so
``@N`` selects *when this agent* misbehaves deterministically
regardless of which runs it happens to lease.  ``dead@1`` SIGKILLs the
whole agent on its first lease; ``drop@1`` executes the run but severs
the connection instead of reporting it (a partition -- the work is
lost and the supervisor requeues); ``drop@1:fetch`` severs mid
``artifact_fetch`` instead, before the run executes; ``delay@1:300``
holds the completion back 300 ms (heartbeating throughout);
``corrupt@1`` flips one byte in a received artifact chunk -- the agent
must detect the bad sha256, discard the bytes, count the corruption
and re-fetch.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import os
import signal
import socket
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

from repro.cpu import checkpoint
from repro.cpu.kernels.registry import KernelError, activate as activate_backend
from repro.files import atomic_write
from repro.scale import Scale
from repro.workloads import trace_store

from repro.engine import faults
from repro.engine.executor import (
    WorkerProcess,
    _resolve_workload,
    _signature,
    classify_failure,
)
from repro.engine.planner import RESULTS_EPOCH
from repro.engine.protocol import (
    ARTIFACT_CHUNK_BYTES,
    Connection,
    ProtocolError,
    decode_task,
    parse_address,
)

#: Verification-failure re-fetch budget per artifact.
_FETCH_ATTEMPTS = 3


class _InjectedSever(RuntimeError):
    """An injected mid-fetch connection drop (``drop@N:fetch``)."""


class WorkerAgent:
    """One remote agent: connect, lease, execute, report, repeat."""

    def __init__(
        self,
        address: str,
        name: str = "",
        cache_dir: Optional[os.PathLike] = None,
        backend: Optional[str] = None,
        reconnect_attempts: int = 20,
        reconnect_delay: float = 0.5,
        quiet: bool = False,
    ) -> None:
        self.host, self.port = parse_address(address)
        self.name = name
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.backend = backend
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_delay = reconnect_delay
        self.quiet = quiet
        self.agent_id = ""
        self._lease_ordinal = 0   # network faults key on this, 1-based
        self._sessions = 0
        self._env_applied = False
        #: Artifact-cache counter deltas pending the next obs report.
        self._artifact = {
            "hits": 0, "misses": 0, "fetches": 0,
            "refetches": 0, "corrupt_chunks": 0,
        }
        self._corrupt_fired = False  # one injected corruption per lease

    def _log(self, text: str) -> None:
        if not self.quiet:
            print(f"[worker {self.agent_id or self.name or '?'}] {text}",
                  file=sys.stderr, flush=True)

    # -- connection lifecycle ------------------------------------------------------

    def run(self) -> int:
        """Serve until the supervisor says shutdown.  Returns an exit
        code: 0 on orderly shutdown (or a vanished supervisor after at
        least one session), nonzero on handshake failure."""
        misses = 0
        while True:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=10.0
                )
            except OSError:
                misses += 1
                if misses > self.reconnect_attempts:
                    # A supervisor that went away after serving us is an
                    # orderly end of sweep, not an agent failure.
                    return 0 if self._sessions else 1
                time.sleep(self.reconnect_delay)
                continue
            misses = 0
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = Connection(sock)
            try:
                outcome = self._session(connection)
            except (ConnectionError, ProtocolError, OSError):
                outcome = None  # connection lost mid-session: reconnect
            finally:
                connection.close()
            self._sessions += 1
            if outcome is not None:
                return outcome

    def _session(self, connection: Connection) -> Optional[int]:
        """One connected session; None means reconnect and continue."""
        welcome = connection.request(
            {
                "op": "hello",
                "name": self.name,
                "host": socket.gethostname(),
                "pid": os.getpid(),
            }
        )
        if welcome.get("op") != "welcome":
            self._log(f"handshake rejected: {welcome}")
            return 1
        if int(welcome.get("epoch", -1)) != RESULTS_EPOCH:
            self._log(
                f"results epoch mismatch: supervisor at "
                f"{welcome.get('epoch')}, this code at {RESULTS_EPOCH}; "
                "refusing to compute incompatible results"
            )
            return 2
        self.agent_id = str(welcome.get("agent", ""))
        scale = Scale(int(welcome["scale"]))
        heartbeat_s = float(welcome.get("heartbeat_s", 1.0))
        self._apply_environment(welcome)
        self._log(f"joined {self.host}:{self.port} (scale {scale.instructions_per_m})")

        while True:
            reply = connection.request({"op": "lease"})
            op = reply.get("op")
            if op == "shutdown":
                self._log("supervisor shutting down")
                return 0
            if op == "idle":
                time.sleep(float(reply.get("backoff_s", 0.2)))
                continue
            if op != "task":
                self._log(f"unexpected lease reply: {reply}")
                return 1
            self._lease_ordinal += 1
            lease_id = str(reply["lease"])
            key = str(reply.get("key", ""))
            task = decode_task(reply["task"])
            spec = faults.network_fault(self._lease_ordinal)
            self._corrupt_fired = False
            if spec is not None and spec.kind == "dead":
                # A dead host does not say goodbye.
                os.kill(os.getpid(), signal.SIGKILL)
            try:
                self._prefetch_artifacts(
                    connection, lease_id, task, scale, heartbeat_s, spec
                )
            except _InjectedSever as sever:
                self._log(f"injected {sever}: severing connection")
                return None
            doc = self._execute(connection, lease_id, task, scale, heartbeat_s)
            if doc is None:
                continue  # canceled by the supervisor mid-run
            if spec is not None and spec.kind == "delay":
                self._delay(connection, lease_id, spec, heartbeat_s)
            if spec is not None and spec.kind == "drop" and spec.arg != "fetch":
                # Partition: the finished work is lost with the link.
                self._log(f"injected drop: discarding completion of {key[:12]}")
                return None
            if doc.get("ok"):
                message = {
                    "op": "complete",
                    "lease": lease_id,
                    "key": key,
                    "payloads": doc["payloads"],
                    "phases": doc["phases"],
                    "wall_s": doc["wall_s"],
                    "reuse": doc["reuse"],
                    "resources": doc.get("resources"),
                }
                members = getattr(task, "members", None)
                if members is not None:
                    message["keys"] = [member.key for member in members]
                reply = connection.request(message)
                self._log(
                    f"completed {key[:12]} in {doc['wall_s']:.3f}s "
                    f"({reply.get('status', '?')})"
                )
            else:
                connection.request(
                    {
                        "op": "fail",
                        "lease": lease_id,
                        "key": key,
                        "kind": doc.get("kind", "transient"),
                        "type": doc.get("type", ""),
                        "backend": doc.get("backend", ""),
                        "error": doc.get("error", ""),
                    }
                )
                self._log(f"failed {key[:12]}: {doc.get('error', '')!r}")
            # Artifact cache counters accumulated since the last report.
            self._send_obs(connection)

    # -- execution -----------------------------------------------------------------

    def _execute(
        self,
        connection: Connection,
        lease_id: str,
        task,
        scale: Scale,
        heartbeat_s: float,
    ) -> Optional[dict]:
        """Run one task in a fresh worker process, heartbeating; None
        when canceled.

        The child's phase messages are forwarded to the supervisor as
        ``obs`` events; its outcome becomes the ``{"ok": ...}`` document.
        """
        worker = WorkerProcess()
        try:
            worker.submit(task, scale)
            next_beat = time.monotonic() + heartbeat_s
            while True:
                if worker.conn.poll(max(0.0, next_beat - time.monotonic())):
                    kind, _, value = worker.recv()
                    if kind == "phase":
                        phase, attrs = value
                        self._send_obs(
                            connection,
                            phase=phase,
                            events=[{"phase": phase, "attrs": attrs}],
                        )
                    elif kind != "start":
                        break
                if time.monotonic() >= next_beat:
                    reply = connection.request(
                        {"op": "heartbeat", "lease": lease_id}
                    )
                    if reply.get("status") != "ok":
                        self._log("lease canceled; abandoning run")
                        return None
                    next_beat = time.monotonic() + heartbeat_s
        finally:
            # Never leave a child simulating a run nobody is waiting
            # for (a cancel, or a lost connection).
            worker.stop()
        if kind == "done":
            _, results, wall, reuse, resources = value
            return {
                "ok": True,
                "payloads": [r.to_payload() for r in results],
                "phases": [r.phase_times for r in results],
                "wall_s": wall,
                "reuse": {str(k): int(v) for k, v in dict(reuse).items()},
                "resources": resources,
            }
        if isinstance(value, KernelError):
            return {
                "ok": False,
                "kind": "kernel",
                "backend": value.backend,
                "error": str(value),
            }
        type_name, error = _signature(value)
        return {
            "ok": False,
            "kind": classify_failure(value),  # transient or crash
            "type": type_name,
            "error": error,
        }

    def _delay(
        self,
        connection: Connection,
        lease_id: str,
        spec,
        heartbeat_s: float,
    ) -> None:
        """Injected completion delay, heartbeating so the lease stays
        live (models slow links, not dead ones)."""
        remaining = (float(spec.arg) if spec.arg else 1000.0) / 1000.0
        while remaining > 0:
            chunk = min(remaining, heartbeat_s)
            time.sleep(chunk)
            remaining -= chunk
            if remaining > 0:
                connection.request({"op": "heartbeat", "lease": lease_id})

    # -- observability -------------------------------------------------------------

    @staticmethod
    def _json_safe(attrs: dict) -> dict:
        return {
            str(k): (
                v if isinstance(v, (str, int, float, bool, type(None)))
                else str(v)
            )
            for k, v in attrs.items()
        }

    def _send_obs(
        self,
        connection: Connection,
        phase: str = "",
        events: Optional[list] = None,
    ) -> None:
        """One ``obs`` report: current phase, streamed events and any
        pending artifact counter deltas."""
        message: dict = {"op": "obs"}
        if phase:
            message["phase"] = phase
        if events:
            message["events"] = [
                {
                    "phase": str(entry.get("phase", "")),
                    "attrs": self._json_safe(dict(entry.get("attrs") or {})),
                }
                for entry in events
            ]
        artifacts = {k: v for k, v in self._artifact.items() if v}
        if artifacts:
            message["artifacts"] = artifacts
        if len(message) == 1:
            return  # nothing to report
        for counter in self._artifact:
            self._artifact[counter] = 0
        connection.request(message)

    # -- artifact cache ------------------------------------------------------------

    def _prefetch_artifacts(
        self,
        connection: Connection,
        lease_id: str,
        task,
        scale: Scale,
        heartbeat_s: float,
        spec,
    ) -> None:
        """Probe the local stores for the lease's content-addressed
        artifacts; fetch misses from the supervisor.

        A miss the supervisor cannot serve either is not an error --
        the run then generates the artifact locally exactly as before.
        """
        store = trace_store.active_store()
        if store is None:
            return
        checkpoints = checkpoint.active_store()
        members = getattr(task, "members", None)
        seen_traces, seen_states = set(), set()
        for member in (members if members is not None else [task]):
            request = member.request
            workload = request.workload
            if workload is None and member.workload_key is not None:
                workload = _resolve_workload(*member.workload_key)
            if workload is None:
                continue
            trace_key = store.key_for(workload, scale)
            if trace_key not in seen_traces:
                seen_traces.add(trace_key)
                self._ensure_trace(
                    connection, lease_id, store, trace_key, heartbeat_s, spec
                )
            if checkpoints is not None:
                state = checkpoint.state_key(
                    workload, scale, request.config, request.enhancements
                )
                if state not in seen_states:
                    seen_states.add(state)
                    self._ensure_checkpoints(
                        connection, lease_id, checkpoints, state,
                        heartbeat_s, spec,
                    )

    def _ensure_trace(
        self, connection, lease_id, store, key, heartbeat_s, spec
    ) -> None:
        if key in store:
            self._artifact["hits"] += 1
            return
        self._artifact["misses"] += 1
        probe = connection.request(
            {"op": "artifact_probe", "kind": "trace", "key": key}
        )
        if probe.get("op") != "artifact" or not probe.get("found"):
            return
        self._fetch_file(
            connection, lease_id, "trace", key, None, store.path_for(key),
            str(probe.get("sha256", "")), heartbeat_s, spec,
        )

    def _ensure_checkpoints(
        self, connection, lease_id, store, key, heartbeat_s, spec
    ) -> None:
        """One warm-state chain is one artifact: local presence of any
        position is a hit; otherwise every offered position is fetched."""
        if store.positions(key):
            self._artifact["hits"] += 1
            return
        self._artifact["misses"] += 1
        probe = connection.request(
            {"op": "artifact_probe", "kind": "checkpoint", "key": key}
        )
        if probe.get("op") != "artifact" or not probe.get("found"):
            return
        for entry in probe.get("files") or []:
            position = entry.get("position")
            if position is None:
                continue
            self._fetch_file(
                connection, lease_id, "checkpoint", key, int(position),
                store.path_for(key, position),
                str(entry.get("sha256", "")), heartbeat_s, spec,
            )

    def _fetch_file(
        self, connection, lease_id, kind, key, position, dest,
        sha256_expected, heartbeat_s, spec,
    ) -> bool:
        """Chunked fetch, whole-file sha256 verify, atomic rename."""
        for attempt in range(_FETCH_ATTEMPTS):
            data = self._fetch_bytes(
                connection, lease_id, kind, key, position, heartbeat_s, spec
            )
            if data is None:
                return False  # vanished server-side: generate locally
            if hashlib.sha256(data).hexdigest() == sha256_expected:
                try:
                    atomic_write(dest, data)
                except OSError:
                    return False
                self._artifact["fetches"] += 1
                if attempt:
                    self._artifact["refetches"] += attempt
                self._log(f"fetched {kind} {key[:12]} ({len(data)} bytes)")
                return True
            self._artifact["corrupt_chunks"] += 1
            self._log(
                f"{kind} {key[:12]} failed sha256 verification; re-fetching"
            )
        return False

    def _fetch_bytes(
        self, connection, lease_id, kind, key, position, heartbeat_s, spec
    ) -> Optional[bytes]:
        chunks = []
        offset = 0
        next_beat = time.monotonic() + heartbeat_s
        while True:
            reply = connection.request(
                {
                    "op": "artifact_fetch",
                    "kind": kind,
                    "key": key,
                    "position": position,
                    "offset": offset,
                    "length": ARTIFACT_CHUNK_BYTES,
                }
            )
            if reply.get("op") != "chunk":
                return None
            chunk = base64.b64decode(str(reply.get("data", "")))
            if (
                spec is not None and spec.kind == "corrupt"
                and not self._corrupt_fired and chunk
            ):
                # Injected wire corruption: flip one byte, once -- the
                # verify must fail and the re-fetch come back clean.
                self._corrupt_fired = True
                flipped = bytearray(chunk)
                flipped[0] ^= 0xFF
                chunk = bytes(flipped)
            chunks.append(chunk)
            offset += len(chunk)
            if spec is not None and spec.kind == "drop" and spec.arg == "fetch":
                raise _InjectedSever(f"drop mid-{kind} artifact_fetch")
            if reply.get("eof") or not chunk:
                break
            if time.monotonic() >= next_beat:
                connection.request({"op": "heartbeat", "lease": lease_id})
                next_beat = time.monotonic() + heartbeat_s
        return b"".join(chunks)

    # -- environment ---------------------------------------------------------------

    def _apply_environment(self, welcome: dict) -> None:
        """Activate this agent's local stores and adopt the supervisor's
        backend/checkpoint settings (flags win); the per-lease workers
        it forks inherit all of it."""
        if self._env_applied:
            return
        self._env_applied = True
        if self.cache_dir is None:
            self.cache_dir = Path(
                tempfile.mkdtemp(prefix="repro-worker-")
            )
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        backend = self.backend or welcome.get("backend")
        if backend:
            activate_backend(str(backend))
        trace_store.activate(trace_store.TraceStore(self.cache_dir / "traces"))
        interval = int(welcome.get("checkpoint_interval", 0) or 0)
        if interval > 0:
            checkpoint.activate(checkpoint.CheckpointStore(
                self.cache_dir / "checkpoints", interval
            ))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.worker",
        description="Join a distributed sweep as a remote worker agent.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="supervisor address (the engine's --listen endpoint)",
    )
    parser.add_argument(
        "--name",
        default="",
        help="agent name for attribution (default: assigned by the server)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="local trace/checkpoint store for this agent "
        "(default: a fresh temporary directory)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="kernel backend override (default: the supervisor's choice)",
    )
    parser.add_argument(
        "--reconnect",
        type=int,
        default=20,
        metavar="N",
        help="connection attempts before giving up (default: 20)",
    )
    parser.add_argument(
        "--reconnect-delay",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="pause between connection attempts (default: 0.5)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    args = parser.parse_args(argv)
    agent = WorkerAgent(
        args.connect,
        name=args.name,
        cache_dir=args.cache_dir,
        backend=args.backend,
        reconnect_attempts=args.reconnect,
        reconnect_delay=args.reconnect_delay,
        quiet=args.quiet,
    )
    return agent.run()


if __name__ == "__main__":
    sys.exit(main())

"""Worker agents: the one lease client, remote or local.

Usage::

    python -m repro.engine.worker --connect HOST:PORT [--name gpu-box-1]
        [--cache-dir DIR] [--backend numpy]

An agent connects to a supervisor started with ``--listen``, leases
runs one at a time and executes them with the *same* worker function
as every other runner (:func:`repro.engine.executor._worker`), so a
run's result cannot depend on where it executed.  Workloads arrive as
compact registry keys; the agent materializes traces and warm-state
checkpoints into its **own** local store (under ``--cache-dir``),
fetching the supervisor's copies of missing ones over the same
connection first, so joining a host costs little but CPU.

Leased runs execute in the session's one
:class:`~repro.engine.executor.WorkerProcess`, a supervised child kept
from lease to lease and replaced only after a crash, a cancel or a
kill.  While the child runs, the agent heartbeats at the cadence the
supervisor announced (a third of the lease TTL); a ``cancel`` reply
kills the child and abandons the run (the supervisor has already
expired the lease or charged its timeout).  The child's outcome maps
to the wire ``kind``: a child that dies before reporting is a
``crash``, with the one crash signature; a
:class:`~repro.cpu.kernels.registry.KernelError` is a ``kernel``
failure, so the supervisor's backend-degradation path serves remote
runs too; any other exception is ``transient``.  Completed results
travel back as the exact JSON payload dicts the store persists, each
with its phase-timing ledger (a batch lease reports one payload and
one member run key per config), which is what makes distributed
stores byte-identical to local ones.  Phase transitions stream back
as throttled ``obs`` messages, with the artifact cache counters.

The executor's ``--jobs`` clients run this same session loop over a
socketpair, as *local* clients (``local=True``): they share the
supervisor's process and stores, so they apply no environment, fetch
no artifacts, ignore network faults, and report phases to the live
view instead of the wire (their children write their own trace files).

Network fault verbs (``dead``/``drop``/``delay``/``corrupt`` in
``$REPRO_FAULT_PLAN``, see :mod:`repro.engine.faults`) match a TCP
agent's Nth granted lease, so ``@N`` selects *when this agent*
misbehaves, whichever runs it happens to lease.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import signal
import socket
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator, Optional

from repro.cpu import checkpoint
from repro.cpu.kernels.registry import KernelError, activate as activate_backend
from repro.files import atomic_write
from repro.obs.live import InflightTracker
from repro.scale import Scale
from repro.workloads import trace_store

from repro.engine import faults
from repro.engine.executor import (
    WorkerProcess,
    _live_entry,
    _resolve_workload,
    _signature,
    classify_failure,
)
from repro.engine.planner import RESULTS_EPOCH
from repro.engine.protocol import (
    ARTIFACT_CHUNK_BYTES,
    PROTOCOL_VERSION,
    Connection,
    Frame,
    ProtocolError,
    decode_task,
    parse_address,
)

#: Verification-failure re-fetch budget per artifact.
_FETCH_ATTEMPTS = 3

#: Socket timeout for connecting and for replies; a lease reply may
#: take one heartbeat period longer.
_CONNECT_TIMEOUT_S = 10.0


class _InjectedSever(RuntimeError):
    """An injected mid-fetch connection drop (``drop@N:fetch``)."""


class _ArtifactGone(Exception):
    """The supervisor no longer serves an artifact it offered."""


class _DigestMismatch(Exception):
    """A fetched file's bytes do not hash to the offered sha256."""


class WorkerAgent:
    """One agent: connect, lease, execute, report, repeat.

    ``local`` marks one of the executor's ``--jobs`` clients (served
    over a socketpair, no ``address``); ``telemetry`` is the live view
    such a client keeps its run in.
    """

    def __init__(
        self,
        address: Optional[str] = None,
        name: str = "",
        cache_dir: Optional[os.PathLike] = None,
        backend: Optional[str] = None,
        reconnect_attempts: int = 20,
        reconnect_delay: float = 0.5,
        quiet: bool = False,
        local: bool = False,
        telemetry: Optional[InflightTracker] = None,
    ) -> None:
        self.host, self.port = parse_address(address) if address else ("", 0)
        self.local = local
        self.telemetry = telemetry
        #: The session's child process (None until the first lease, and
        #: after a crash, a cancel or a kill).
        self.worker: Optional[WorkerProcess] = None
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
                    (self.host, self.port), timeout=_CONNECT_TIMEOUT_S
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
            outcome = self.serve(Connection(sock))
            self._sessions += 1
            if outcome is not None:
                return outcome

    def serve(self, connection: Connection) -> Optional[int]:
        """One session over ``connection``, then close it and stop the
        session's child; None means the connection was lost."""
        try:
            return self._session(connection)
        except (ConnectionError, ProtocolError, OSError):
            return None
        finally:
            connection.close()
            worker, self.worker = self.worker, None
            if worker is not None:
                worker.stop()

    def abandon(self) -> None:
        """Kill the child's run from another thread (the executor ends
        its local clients this way); the session then reads a crash."""
        worker = self.worker
        if worker is not None and worker.task is not None:
            worker.process.kill()

    def _session(self, connection: Connection) -> Optional[int]:
        """One connected session; None means reconnect and continue."""
        welcome = connection.request(
            {
                "op": "hello",
                "protocol": PROTOCOL_VERSION,
                "name": self.name,
                "host": socket.gethostname(),
                "pid": os.getpid(),
            }
        )
        if welcome.get("op") != "welcome":
            self._log(f"handshake rejected: {welcome}")
            return 1
        if welcome.get("protocol") != PROTOCOL_VERSION:
            self._log(
                f"wire protocol mismatch: supervisor speaks "
                f"{welcome.get('protocol')}, this code {PROTOCOL_VERSION}; "
                "refusing to misread its messages"
            )
            return 2
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
        # A lease request may wait one heartbeat period for work.
        connection.sock.settimeout(_CONNECT_TIMEOUT_S + heartbeat_s)
        if not self.local:
            self._apply_environment(welcome)
        self._log(f"joined {self.host}:{self.port} (scale {scale.instructions_per_m})")

        while True:
            reply = connection.request({"op": "lease"})
            op = reply.get("op")
            if op == "shutdown":
                self._log("supervisor shutting down")
                return 0
            if op == "idle":
                continue  # the supervisor already waited for work
            if op != "task":
                self._log(f"unexpected lease reply: {reply}")
                return 1
            self._lease_ordinal += 1
            lease_id = str(reply["lease"])
            key = str(reply.get("key", ""))
            task = decode_task(reply["task"])
            # A local client shares the supervisor's process (a dead@N
            # would kill it) and its stores: no network faults, nothing
            # to fetch.
            spec = None
            if not self.local:
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
        """Run one task in the session's worker process, heartbeating;
        None when canceled.

        The child's phase messages are forwarded to the supervisor as
        ``obs`` events (a local client puts them in its live view); its
        outcome becomes the ``{"ok": ...}`` document.
        """
        worker = self.worker = self.worker or WorkerProcess()
        worker.submit(task, scale)
        live = self.telemetry
        if live is not None:
            live.start(**_live_entry(task), pid=worker.pid)
        kind = None
        try:
            next_beat = time.monotonic() + heartbeat_s
            while True:
                if worker.conn.poll(max(0.0, next_beat - time.monotonic())):
                    kind, _, value = worker.recv()
                    if kind != "phase":
                        break
                    if live is not None:
                        live.set_phase(task.slot, *value)
                    elif not self.local:
                        phase, attrs = value
                        self._send_obs(
                            connection,
                            phase=phase,
                            events=[{"phase": phase, "attrs": attrs}],
                        )
                if time.monotonic() >= next_beat:
                    reply = connection.request(
                        {"op": "heartbeat", "lease": lease_id}
                    )
                    if reply.get("status") != "ok":
                        self._log("lease canceled; abandoning run")
                        return None
                    next_beat = time.monotonic() + heartbeat_s
        finally:
            if kind not in ("done", "error"):
                # A crash, a cancel or a lost connection: the child is
                # dead, or simulating a run nobody is waiting for.
                self.worker = None
                worker.stop()
            if live is not None:
                live.finish(task.slot)
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
        """Chunked fetch streamed into the store's temp file, whole-file
        sha256 verify, atomic rename."""
        for attempt in range(_FETCH_ATTEMPTS):
            try:
                atomic_write(dest, self._fetch_bytes(
                    connection, lease_id, kind, key, position,
                    sha256_expected, heartbeat_s, spec,
                ))
            except _DigestMismatch:
                self._artifact["corrupt_chunks"] += 1
                self._log(
                    f"{kind} {key[:12]} failed sha256 verification; "
                    "re-fetching"
                )
                continue
            except (ConnectionError, socket.timeout):
                raise  # the link failed, not the disk: reconnect
            except (_ArtifactGone, OSError):
                return False  # generate it locally instead
            self._artifact["fetches"] += 1
            if attempt:
                self._artifact["refetches"] += attempt
            self._log(f"fetched {kind} {key[:12]}")
            return True
        return False

    def _fetch_bytes(
        self, connection, lease_id, kind, key, position, sha256_expected,
        heartbeat_s, spec,
    ) -> Iterator[bytes]:
        """The artifact's chunks as they arrive; raises
        :class:`_DigestMismatch` after the last one if the bytes do not
        hash to ``sha256_expected``."""
        digest = hashlib.sha256()
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
                },
                body_limit=ARTIFACT_CHUNK_BYTES,
            )
            if not (
                isinstance(reply, Frame) and reply.header.get("op") == "chunk"
            ):
                raise _ArtifactGone(f"{kind} {key[:12]}")
            chunk = reply.body
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
            digest.update(chunk)
            yield chunk
            offset += len(chunk)
            if spec is not None and spec.kind == "drop" and spec.arg == "fetch":
                raise _InjectedSever(f"drop mid-{kind} artifact_fetch")
            if reply.header.get("eof") or not chunk:
                break
            if time.monotonic() >= next_beat:
                connection.request({"op": "heartbeat", "lease": lease_id})
                next_beat = time.monotonic() + heartbeat_s
        if digest.hexdigest() != sha256_expected:
            raise _DigestMismatch(f"{kind} {key[:12]}")

    # -- environment ---------------------------------------------------------------

    def _apply_environment(self, welcome: dict) -> None:
        """Activate this agent's local stores and adopt the supervisor's
        backend/checkpoint settings (flags win); the worker process it
        forks inherits all of it."""
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

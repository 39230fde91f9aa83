"""Tests for lease-based distributed scheduling (ledger + end to end).

The :class:`LeaseLedger` unit tests drive expiry with an injected fake
clock, so no test here sleeps through a TTL.  The end-to-end tests
launch real ``python -m repro.engine.worker`` agent subprocesses
against an in-process engine listening on an ephemeral localhost port.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.cpu.checkpoint import CheckpointStore, snapshot_machine
from repro.cpu.config import ARCH_CONFIGS
from repro.cpu.machine import Machine
from repro.engine import Engine, RunRequest
from repro.engine.planner import RESULTS_EPOCH
from repro.engine.protocol import (
    MAX_LEASE_REQUEUES,
    LeaseLedger,
    LeaseServer,
    RemoteFailure,
    _phase_ledgers,
    parse_address,
    payload_digest,
)
from repro.engine.worker import WorkerAgent
from repro.scale import Scale
from repro.techniques.reference import ReferenceTechnique
from repro.techniques.truncated import RunZ
from repro.workloads.inputs import clear_trace_cache
from repro.workloads.spec import get_workload

from tests.test_checkpoint import warmed_grid
from tests.test_engine import SCALE


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("10.0.0.5:4242") == ("10.0.0.5", 4242)

    def test_bare_port_defaults_to_loopback(self):
        assert parse_address("4242") == ("127.0.0.1", 4242)

    def test_whitespace_tolerated(self):
        assert parse_address(" 127.0.0.1:80 ") == ("127.0.0.1", 80)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_address("localhost:http")


class TestPayloadDigest:
    def test_insensitive_to_key_order(self):
        a = payload_digest([{"x": 1, "y": 2}])
        b = payload_digest([{"y": 2, "x": 1}])
        assert a == b

    def test_sensitive_to_values(self):
        assert payload_digest([{"x": 1}]) != payload_digest([{"x": 2}])


# -- ledger unit tests (fake clock, no sockets) ------------------------------------


@dataclass
class FakeTask:
    """The minimal task shape the ledger needs (key + no batch)."""

    key: str
    members: object = None


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, delta: float) -> None:
        self.now += delta


def make_ledger(**kwargs) -> tuple:
    clock = FakeClock()
    kwargs.setdefault("lease_ttl", 9.0)
    ledger = LeaseLedger(clock=clock, **kwargs)
    supply = deque()
    ledger.begin_batch(supply)
    return ledger, clock, supply


class TestLeaseGrant:
    def test_grant_pops_supply(self):
        ledger, clock, supply = make_ledger()
        agent = ledger.join("a1")
        supply.append(FakeTask("k1"))
        lease, delivery = ledger.grant(agent)
        assert lease.key == "k1"
        assert delivery == 1
        assert not supply
        assert ledger.outstanding() == 1

    def test_empty_supply_is_idle(self):
        ledger, clock, supply = make_ledger()
        agent = ledger.join("a1")
        assert ledger.grant(agent) is None

    def test_redelivery_counts_up(self):
        ledger, clock, supply = make_ledger()
        agent = ledger.join("a1")
        supply.append(FakeTask("k1"))
        ledger.grant(agent)
        ledger.leave(agent)
        events = ledger.collect()
        task = [e for e in events if e[0] == "requeue"][0][1]
        supply.append(task)
        agent2 = ledger.join("a2")
        _, delivery = ledger.grant(agent2)
        assert delivery == 2

    def test_join_name_collision_gets_suffix(self):
        ledger, clock, supply = make_ledger()
        first = ledger.join("twin")
        second = ledger.join("twin")
        assert first == "twin"
        assert second != "twin" and second.startswith("twin#")


class TestLeaseExpiry:
    def test_heartbeat_loss_requeues_uncharged(self):
        """Dead agent: the run is requeued without being charged."""
        ledger, clock, supply = make_ledger(lease_ttl=9.0)
        agent = ledger.join("a1")
        supply.append(FakeTask("k1"))
        ledger.grant(agent)
        clock.advance(9.5)  # past the TTL with no heartbeat
        events = ledger.collect()
        kinds = [e[0] for e in events]
        assert kinds == ["requeue"]
        assert events[0][3] == "heartbeat lost"
        counters = ledger.consume_counters()
        assert counters["lease_expiries"] == 1
        assert counters["lease_requeues"] == 1
        assert counters["agents_lost"] == 1
        assert ledger.outstanding() == 0

    def test_heartbeats_keep_lease_alive(self):
        ledger, clock, supply = make_ledger(lease_ttl=9.0)
        agent = ledger.join("a1")
        supply.append(FakeTask("k1"))
        lease, _ = ledger.grant(agent)
        for _ in range(10):
            clock.advance(3.0)  # the agent's ttl/3 cadence
            assert ledger.heartbeat(agent, lease.lease_id) == "ok"
        assert ledger.collect() == []
        assert ledger.outstanding() == 1

    def test_slow_run_with_heartbeats_is_charged_timeout(self):
        """Deadline blown while heartbeating: slow run, not dead agent."""
        ledger, clock, supply = make_ledger(lease_ttl=9.0, run_timeout=30.0)
        agent = ledger.join("a1")
        supply.append(FakeTask("k1"))
        lease, _ = ledger.grant(agent)
        elapsed = 0.0
        while elapsed < 34.0:  # budget 30s + ttl/3 grace
            clock.advance(3.0)
            elapsed += 3.0
            ledger.heartbeat(agent, lease.lease_id)
        events = ledger.collect()
        assert [e[0] for e in events] == ["timeout"]
        counters = ledger.consume_counters()
        assert "lease_requeues" not in counters
        # The canceled lease survives so the agent's next heartbeat is
        # told to abandon the run instead of reading "unknown lease".
        assert ledger.heartbeat(agent, lease.lease_id) == "cancel"

    def test_batch_deadline_scales_with_members(self):
        ledger, clock, supply = make_ledger(lease_ttl=9.0, run_timeout=10.0)
        agent = ledger.join("a1")
        supply.append(FakeTask("batch", members=[object(), object()]))
        lease, _ = ledger.grant(agent)
        clock.advance(14.0)  # past a 1-member budget (10 + 3 grace)
        ledger.heartbeat(agent, lease.lease_id)
        assert ledger.collect() == []  # 2 members: budget is 23s
        clock.advance(10.0)
        ledger.heartbeat(agent, lease.lease_id)
        assert [e[0] for e in ledger.collect()] == ["timeout"]

    def test_requeue_budget_exhaustion_charges_timeout(self):
        """A run cannot ping-pong across dying agents forever."""
        ledger, clock, supply = make_ledger(lease_ttl=9.0, max_requeues=2)
        task = FakeTask("poison")
        for round_no in range(3):
            supply.append(task)
            agent = ledger.join(f"a{round_no}")
            ledger.grant(agent)
            clock.advance(9.5)
            events = ledger.collect()
            if round_no < 2:
                assert [e[0] for e in events] == ["requeue"]
            else:
                assert [e[0] for e in events] == ["timeout"]
                assert "requeue budget" in events[0][3]

    def test_default_requeue_cap_matches_constant(self):
        ledger, clock, supply = make_ledger()
        assert ledger.max_requeues == MAX_LEASE_REQUEUES


class TestCompletionDedup:
    PAYLOADS = [{"family": "Stub", "cpi": 1.5}]

    def grant_one(self, ledger, supply, agent, key="k1"):
        supply.append(FakeTask(key))
        lease, _ = ledger.grant(agent)
        return lease

    def test_live_completion_is_ok(self):
        ledger, clock, supply = make_ledger()
        agent = ledger.join("a1")
        lease = self.grant_one(ledger, supply, agent)
        status = ledger.complete(
            agent, lease.lease_id, "k1", self.PAYLOADS, 0.5, {}
        )
        assert status == "ok"
        events = ledger.collect()
        assert [e[0] for e in events] == ["complete"]
        _, task, payloads, wall, reuse, from_agent, resources, phases = (
            events[0]
        )
        assert task.key == "k1" and payloads == self.PAYLOADS
        assert from_agent == agent
        assert resources is None
        assert phases == []

    def test_duplicate_completion_dedups_on_byte_parity(self):
        """At-least-once: the straggler's identical bytes are dropped."""
        ledger, clock, supply = make_ledger(lease_ttl=9.0)
        slow = ledger.join("slow")
        lease = self.grant_one(ledger, supply, slow)
        clock.advance(9.5)  # slow agent presumed dead; lease requeued
        requeue = [e for e in ledger.collect() if e[0] == "requeue"]
        supply.append(requeue[0][1])
        fast = ledger.join("fast")
        lease2, _ = ledger.grant(fast)
        assert ledger.complete(
            fast, lease2.lease_id, "k1", self.PAYLOADS, 0.4, {}
        ) == "ok"
        # The presumed-dead agent's completion arrives after all.
        assert ledger.complete(
            slow, lease.lease_id, "k1", self.PAYLOADS, 9.9, {}
        ) == "duplicate"
        events = ledger.collect()
        assert [e[0] for e in events] == ["complete"]  # exactly one
        assert ledger.consume_counters()["duplicate_completions"] == 1

    def test_duplicate_with_different_bytes_is_parity_violation(self):
        ledger, clock, supply = make_ledger(lease_ttl=9.0)
        slow = ledger.join("slow")
        lease = self.grant_one(ledger, supply, slow)
        clock.advance(9.5)
        requeue = [e for e in ledger.collect() if e[0] == "requeue"]
        supply.append(requeue[0][1])
        fast = ledger.join("fast")
        lease2, _ = ledger.grant(fast)
        ledger.complete(fast, lease2.lease_id, "k1", self.PAYLOADS, 0.4, {})
        ledger.collect()
        assert ledger.complete(
            slow, lease.lease_id, "k1", [{"family": "Stub", "cpi": 9.9}],
            9.9, {},
        ) == "duplicate"
        events = ledger.collect()
        assert [e[0] for e in events] == ["parity"]

    def test_stale_completion_for_pending_key_is_discarded(self):
        """The requeued task is authoritative until someone completes
        it; an expired lease's completion must not race it in."""
        ledger, clock, supply = make_ledger(lease_ttl=9.0)
        slow = ledger.join("slow")
        lease = self.grant_one(ledger, supply, slow)
        clock.advance(9.5)
        ledger.collect()  # requeued; key not completed by anyone yet
        assert ledger.complete(
            slow, lease.lease_id, "k1", self.PAYLOADS, 9.9, {}
        ) == "stale"
        assert ledger.collect() == []
        assert ledger.consume_counters()["stale_completions"] == 1

    def test_remote_failure_event(self):
        ledger, clock, supply = make_ledger()
        agent = ledger.join("a1")
        lease = self.grant_one(ledger, supply, agent)
        exc = RemoteFailure("transient", "RuntimeError", "boom")
        assert ledger.fail(agent, lease.lease_id, "k1", exc) == "ok"
        events = ledger.collect()
        assert [e[0] for e in events] == ["fail"]
        assert events[0][2] is exc


# -- batch leases (fake clock) ------------------------------------------------------


@dataclass
class FakeBatch:
    """The minimal batch-task shape the ledger needs (members + key)."""

    members: list = field(default_factory=list)

    @property
    def key(self):
        return self.members[0].key


def _batch(keys):
    return FakeBatch([FakeTask(k) for k in keys])


class TestBatchLeases:
    def test_grant_caps_and_splits_batches(self):
        """A batch wider than the remote cap grants its head slice and
        pushes the remainder back to the front of the supply; a
        one-member tail travels as the member run itself."""
        ledger, clock, supply = make_ledger(remote_batch_configs=2)
        agent = ledger.join("a1")
        supply.append(_batch(["k1", "k2", "k3", "k4", "k5"]))
        lease, _ = ledger.grant(agent)
        assert lease.member_keys == ["k1", "k2"]
        assert [m.key for m in lease.task.members] == ["k1", "k2"]
        lease2, _ = ledger.grant(agent)
        assert lease2.member_keys == ["k3", "k4"]
        lease3, _ = ledger.grant(agent)
        assert lease3.member_keys is None
        assert lease3.key == "k5"
        assert ledger.grant(agent) is None and not supply

    def test_uncapped_batch_travels_whole(self):
        ledger, clock, supply = make_ledger()
        agent = ledger.join("a1")
        supply.append(_batch(["k1", "k2", "k3"]))
        lease, _ = ledger.grant(agent)
        assert lease.member_keys == ["k1", "k2", "k3"]

    def test_batch_expiry_requeues_whole_batch_uncharged(self):
        """Heartbeat loss on a batch lease is one uncharged requeue
        event carrying the whole batch task."""
        ledger, clock, supply = make_ledger(lease_ttl=9.0)
        agent = ledger.join("a1")
        supply.append(_batch(["k1", "k2", "k3"]))
        ledger.grant(agent)
        clock.advance(9.5)
        events = ledger.collect()
        assert [e[0] for e in events] == ["requeue"]
        assert [m.key for m in events[0][1].members] == ["k1", "k2", "k3"]
        counters = ledger.consume_counters()
        assert counters["lease_requeues"] == 1
        assert "remote_batch_explodes" not in counters

    def test_batch_member_fault_reports_explode(self):
        """A member fault on a batch lease surfaces as one fail event
        (the executor explodes it) and counts a remote explode."""
        ledger, clock, supply = make_ledger()
        agent = ledger.join("a1")
        supply.append(_batch(["k1", "k2"]))
        lease, _ = ledger.grant(agent)
        exc = RemoteFailure("transient", "InjectedFault", "member poison")
        assert ledger.fail(agent, lease.lease_id, lease.key, exc) == "ok"
        events = ledger.collect()
        assert [e[0] for e in events] == ["fail"]
        assert [m.key for m in events[0][1].members] == ["k1", "k2"]
        assert ledger.consume_counters()["remote_batch_explodes"] == 1

    def test_live_batch_completion_counts_members(self):
        ledger, clock, supply = make_ledger()
        agent = ledger.join("a1")
        supply.append(_batch(["k1", "k2"]))
        lease, _ = ledger.grant(agent)
        payloads = [{"cpi": 1.0}, {"cpi": 2.0}]
        status = ledger.complete(
            agent, lease.lease_id, lease.key, payloads, 0.8, {},
            keys=["k1", "k2"],
        )
        assert status == "ok"
        row = [r for r in ledger.agents_snapshot() if r["agent"] == agent][0]
        assert row["runs"] == 2

    def test_duplicate_batch_completion_dedups_per_member(self):
        """A dead batch lease's straggler resolves against per-member
        digests -- even when the rerun completed the members as
        singletons after an explode."""
        ledger, clock, supply = make_ledger(lease_ttl=9.0)
        slow = ledger.join("slow")
        supply.append(_batch(["k1", "k2"]))
        lease, _ = ledger.grant(slow)
        clock.advance(9.5)
        ledger.collect()  # batch requeued, slow presumed dead
        payloads = [{"cpi": 1.0}, {"cpi": 2.0}]
        # The requeued members complete as singletons via a live agent.
        fast = ledger.join("fast")
        for key, payload in zip(["k1", "k2"], payloads):
            supply.append(FakeTask(key))
            release, _ = ledger.grant(fast)
            ledger.complete(fast, release.lease_id, key, [payload], 0.1, {})
        ledger.collect()
        # The dead agent's whole-batch completion arrives after all.
        assert ledger.complete(
            slow, lease.lease_id, "k1", payloads, 9.9, {}, keys=["k1", "k2"]
        ) == "duplicate"
        assert ledger.collect() == []
        assert ledger.consume_counters()["duplicate_completions"] == 1

    def test_stale_batch_completion_with_unknown_member_discarded(self):
        ledger, clock, supply = make_ledger(lease_ttl=9.0)
        slow = ledger.join("slow")
        supply.append(_batch(["k1", "k2"]))
        lease, _ = ledger.grant(slow)
        clock.advance(9.5)
        ledger.collect()  # requeued; nobody completed the members yet
        assert ledger.complete(
            slow, lease.lease_id, "k1", [{"cpi": 1.0}, {"cpi": 2.0}],
            9.9, {}, keys=["k1", "k2"],
        ) == "stale"
        assert ledger.collect() == []
        assert ledger.consume_counters()["stale_completions"] == 1

    def test_batch_straggler_member_parity_violation(self):
        ledger, clock, supply = make_ledger(lease_ttl=9.0)
        slow = ledger.join("slow")
        supply.append(_batch(["k1", "k2"]))
        lease, _ = ledger.grant(slow)
        clock.advance(9.5)
        ledger.collect()
        fast = ledger.join("fast")
        supply.append(_batch(["k1", "k2"]))
        release, _ = ledger.grant(fast)
        ledger.complete(
            fast, release.lease_id, release.key,
            [{"cpi": 1.0}, {"cpi": 2.0}], 0.2, {}, keys=["k1", "k2"],
        )
        ledger.collect()
        # Same members, different bytes for k2: a parity violation.
        ledger.complete(
            slow, lease.lease_id, "k1",
            [{"cpi": 1.0}, {"cpi": 9.9}], 9.9, {}, keys=["k1", "k2"],
        )
        events = ledger.collect()
        assert [e[0] for e in events] == ["parity"]
        assert events[0][1] == "k2"

    def test_singleton_straggler_dedups_against_batch_member(self):
        """Member digests use the singleton digest formula, so a
        singleton straggler of a batch-completed run deduplicates."""
        ledger, clock, supply = make_ledger(lease_ttl=9.0)
        slow = ledger.join("slow")
        supply.append(FakeTask("k1"))
        lease, _ = ledger.grant(slow)
        clock.advance(9.5)
        ledger.collect()  # singleton requeued
        fast = ledger.join("fast")
        supply.append(_batch(["k1", "k2"]))
        release, _ = ledger.grant(fast)
        payloads = [{"cpi": 1.0}, {"cpi": 2.0}]
        ledger.complete(
            fast, release.lease_id, release.key, payloads, 0.2, {},
            keys=["k1", "k2"],
        )
        ledger.collect()
        assert ledger.complete(
            slow, lease.lease_id, "k1", [payloads[0]], 9.9, {}
        ) == "duplicate"


class TestLedgerObserve:
    """``observe`` folds an agent's live phase and artifact counters;
    run phase ledgers ride on ``complete`` (see TestRemotePhaseSamples)."""

    def test_observe_folds_phase_artifacts_and_ledgers(self):
        ledger, clock, supply = make_ledger()
        agent = ledger.join("a1")
        ledger.observe(
            agent,
            phase="timing_batch",
            artifacts={"hits": 2, "misses": 1, "fetches": 1,
                       "refetches": 0, "corrupt_chunks": 0},
        )
        row = [r for r in ledger.agents_snapshot() if r["agent"] == agent][0]
        assert row["phase"] == "timing_batch"
        assert row["artifact_hits"] == 2
        assert row["artifact_misses"] == 1
        counters = ledger.consume_counters()
        assert counters["artifact_fetches"] == 1
        assert "artifact_refetches" not in counters

    def test_observe_accumulates_across_reports(self):
        ledger, clock, supply = make_ledger()
        agent = ledger.join("a1")
        for _ in range(2):
            ledger.observe(
                agent,
                artifacts={"hits": 1, "fetches": 2, "corrupt_chunks": 1},
            )
        row = [r for r in ledger.agents_snapshot() if r["agent"] == agent][0]
        assert row["artifact_hits"] == 2
        counters = ledger.consume_counters()
        assert counters["artifact_fetches"] == 4
        assert counters["artifact_corrupt_chunks"] == 2

    def test_complete_carries_one_phase_ledger_per_payload(self):
        ledger, clock, supply = make_ledger()
        agent = ledger.join("a1")
        supply.append(_batch(["k1", "k2"]))
        lease, _ = ledger.grant(agent)
        phases = [{"detailed": {"seconds": 0.5, "instructions": 7}}, {}]
        ledger.complete(
            agent, lease.lease_id, lease.key, [{"cpi": 1.0}, {"cpi": 2.0}],
            0.2, {}, keys=["k1", "k2"], phases=phases,
        )
        (event,) = ledger.collect()
        assert event[0] == "complete"
        assert event[-1] == phases

    def test_wire_phase_ledgers_are_validated(self):
        good = {"detailed": {"seconds": 1, "instructions": "7"}}
        assert _phase_ledgers(
            [good, "junk", {"x": {"seconds": "nan?"}}, {"y": None}]
        ) == [
            {"detailed": {"seconds": 1.0, "instructions": 7}}, {}, {}, {},
        ]
        assert _phase_ledgers({"not": "a list"}) == []


class TestLeaseServerClose:
    def test_close_without_agents_is_prompt(self):
        # Closing the listener alone does not wake a blocked accept();
        # close() must still return fast and leave no accept thread.
        server = LeaseServer(
            "127.0.0.1", 0,
            scale_instructions_per_m=1000, results_epoch=RESULTS_EPOCH,
        )
        time.sleep(0.2)  # let the accept thread block in accept()
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 1.0
        assert not server._accept_thread.is_alive()


# -- artifact wire ops (server-side, no sockets) -----------------------------------


TRACE_KEY = hashlib.sha256(b"trace").hexdigest()
STATE_KEY = hashlib.sha256(b"state").hexdigest()


@pytest.fixture()
def artifact_server(tmp_path):
    trace_root = tmp_path / "traces"
    checkpoint_root = tmp_path / "checkpoints"
    server = LeaseServer(
        "127.0.0.1", 0,
        scale_instructions_per_m=1000, results_epoch=RESULTS_EPOCH,
        checkpoint_interval=500,
        artifact_roots={"trace": trace_root, "checkpoint": checkpoint_root},
    )
    try:
        yield server, trace_root, checkpoint_root
    finally:
        server.close(drain_s=0.0)


class TestArtifactWire:
    def _write_trace(self, root, key, data):
        path = root / key[:2] / f"{key}.npt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        return path

    def test_probe_missing_artifact(self, artifact_server):
        server, _, _ = artifact_server
        reply = server._artifact_probe(
            {"kind": "trace", "key": TRACE_KEY}
        )
        assert reply == {"op": "artifact", "found": False}

    def test_probe_and_fetch_trace_roundtrip(self, artifact_server):
        server, trace_root, _ = artifact_server
        data = bytes(range(256)) * 64
        self._write_trace(trace_root, TRACE_KEY, data)
        probe = server._artifact_probe({"kind": "trace", "key": TRACE_KEY})
        assert probe["found"] and probe["size"] == len(data)
        assert probe["sha256"] == hashlib.sha256(data).hexdigest()
        # Chunked fetch with a small window reassembles the exact bytes.
        import base64 as b64

        got, offset = b"", 0
        while True:
            reply = server._artifact_fetch(
                {"kind": "trace", "key": TRACE_KEY,
                 "offset": offset, "length": 1000}
            )
            assert reply["op"] == "chunk"
            chunk = b64.b64decode(reply["data"])
            got += chunk
            offset += len(chunk)
            if reply["eof"]:
                break
        assert got == data

    def test_unsafe_keys_rejected(self, artifact_server):
        server, trace_root, _ = artifact_server
        for key in ("../../etc/passwd", "ABCDEF", "k", ""):
            assert server._artifact_probe(
                {"kind": "trace", "key": key}
            ) == {"op": "artifact", "found": False}
            assert server._artifact_fetch(
                {"kind": "trace", "key": key, "offset": 0}
            ) == {"op": "artifact", "found": False}

    def test_unknown_kind_not_served(self, artifact_server):
        server, _, _ = artifact_server
        reply = server._artifact_probe({"kind": "journal", "key": TRACE_KEY})
        assert reply == {"op": "artifact", "found": False}

    def test_checkpoint_probe_lists_positions(self, artifact_server):
        server, _, checkpoint_root = artifact_server
        store = CheckpointStore(checkpoint_root, 500)
        machine = Machine(ARCH_CONFIGS[0], backend="python")
        for position in (500, 1000):
            store.save(STATE_KEY, position, snapshot_machine(machine), {})
        # Neither a v1 file nor a stray name is offered.
        for name in (f"{STATE_KEY}-1500.json", f"{STATE_KEY}-x.ckpt"):
            (checkpoint_root / STATE_KEY[:2] / name).write_text("{}")
        probe = server._artifact_probe(
            {"kind": "checkpoint", "key": STATE_KEY}
        )
        assert probe["found"]
        assert [entry["position"] for entry in probe["files"]] == [500, 1000]
        for entry in probe["files"]:
            assert entry["size"] > 0 and len(entry["sha256"]) == 64

    def test_fetch_clamps_length(self, artifact_server):
        server, trace_root, _ = artifact_server
        self._write_trace(trace_root, TRACE_KEY, b"abcdef")
        import base64 as b64

        reply = server._artifact_fetch(
            {"kind": "trace", "key": TRACE_KEY, "offset": 2, "length": 0}
        )
        assert b64.b64decode(reply["data"]) == b"c"  # length clamped to 1
        assert not reply["eof"]


class TestAgentFetchInstall:
    def test_failed_install_leaves_no_temp_file(self, tmp_path):
        data = b"verified artifact bytes"
        agent = WorkerAgent("127.0.0.1:1", quiet=True)
        agent._fetch_bytes = lambda *args: data
        dest = tmp_path / "art"
        dest.mkdir()  # the rename onto a directory must fail
        assert not agent._fetch_file(
            None, "lease-1", "trace", TRACE_KEY, None, dest,
            hashlib.sha256(data).hexdigest(), 5.0, None,
        )
        assert list(dest.parent.iterdir()) == [dest]


# -- end to end: real agents over localhost ----------------------------------------


def _requests(count=3):
    workload = get_workload("gzip", "reference", seed=7)
    techniques = [ReferenceTechnique()] + [
        RunZ(100 * (i + 1)) for i in range(count - 1)
    ]
    return [
        RunRequest(technique, workload, ARCH_CONFIGS[0])
        for technique in techniques
    ]


def _config_sweep(count=6):
    """Same-geometry latency variants: one batchable group of runs."""
    workload = get_workload("gzip", "reference", seed=7)
    base = ARCH_CONFIGS[0]
    configs = [base] + [
        base.replace(
            name=f"lat{i}",
            l2_latency=base.l2_latency + 1 + i,
            mem_latency_first=base.mem_latency_first + 10 * i,
        )
        for i in range(1, count)
    ]
    return [
        RunRequest(ReferenceTechnique(), workload, config)
        for config in configs
    ]


def _prime_artifacts(cache_root: Path, requests) -> None:
    """Populate a supervisor cache's trace/checkpoint stores, then wipe
    the results so a fresh sweep re-executes everything remotely --
    the artifact cache then has something to serve to cold agents.

    The in-process trace LRU is dropped first: a prior engine run in
    this process would otherwise serve the trace from memory and the
    priming run would never write it into ``cache_root/traces``."""
    clear_trace_cache()
    prime = Engine(scale=SCALE, jobs=1, cache_dir=cache_root, batch_configs=4)
    try:
        prime.run_many(requests)
    finally:
        prime.close()
    shutil.rmtree(cache_root / "v1", ignore_errors=True)
    for name in ("journal.jsonl", "journal.jsonl.1", "engine-stats.json"):
        try:
            (cache_root / name).unlink()
        except OSError:
            pass


def _store_bytes(root: Path) -> dict:
    """Map of result-store entries to their exact bytes."""
    out = {}
    for path in sorted((root / "v1").rglob("*.json")):
        if path.name == "engine-stats.json":
            continue
        out[str(path.relative_to(root / "v1"))] = path.read_bytes()
    return out


def _spawn_agent(
    port, name, log_dir, fault_plan=None, backend="python", cache_dir=None
):
    """Start a worker agent whose output goes to ``log_dir/<name>.log``.

    A file, not a pipe nobody reads: an agent whose progress lines
    filled a pipe buffer would block mid-sweep."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p
    )
    env["REPRO_BACKEND"] = backend
    env.pop("REPRO_FAULT_PLAN", None)
    if fault_plan:
        env["REPRO_FAULT_PLAN"] = fault_plan
    command = [sys.executable, "-m", "repro.engine.worker",
               "--connect", f"127.0.0.1:{port}", "--name", name]
    if cache_dir is not None:
        command += ["--cache-dir", str(cache_dir)]
    with open(Path(log_dir) / f"{name}.log", "ab") as log:
        return subprocess.Popen(
            command, env=env, stdout=log, stderr=subprocess.STDOUT,
        )


@pytest.fixture()
def distributed_engine(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "python")

    def build(cache_name="dist", **kwargs):
        kwargs.setdefault("jobs", 0)
        kwargs.setdefault("listen", "127.0.0.1:0")
        kwargs.setdefault("lease_ttl", 3.0)
        return Engine(
            scale=SCALE, cache_dir=tmp_path / cache_name, **kwargs
        )

    return build


class TestDistributedSweep:
    def test_two_agents_one_killed_matches_single_host(
        self, tmp_path, distributed_engine
    ):
        """The acceptance anchor: a two-agent sweep with one agent
        SIGKILLed mid-run completes byte-identical to a single-host
        sweep, with nothing charged to the requeued runs."""
        reference = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path / "ref")
        try:
            reference.run_many(_requests())
        finally:
            reference.close()

        engine = distributed_engine(min_agents=2)
        agents = []
        try:
            port = engine.lease_server.port
            # dead@1: the victim SIGKILLs itself on its first lease.
            agents.append(
                _spawn_agent(port, "victim", tmp_path, fault_plan="dead@1")
            )
            agents.append(_spawn_agent(port, "steady", tmp_path))
            results = engine.run_many(_requests())
            snapshot = engine.metrics.snapshot()
        finally:
            engine.close()
            for proc in agents:
                try:
                    proc.wait(timeout=15)
                finally:
                    proc.kill()

        assert all(result is not None for result in results)
        assert _store_bytes(tmp_path / "dist") == _store_bytes(
            tmp_path / "ref"
        )
        assert snapshot["failed_runs"] == []
        assert snapshot["agents_joined"] == 2
        assert snapshot["agents_lost"] >= 1
        assert snapshot["remote_runs"] == len(results)
        assert snapshot["lease_requeues"] >= 1
        # Uncharged requeue: every completion was a first attempt.
        assert snapshot["runs_launched"] == snapshot["runs_succeeded"]
        assert snapshot["per_agent"]["steady"]["runs"] == len(results)

    def test_dropped_completion_requeues_and_dedups(
        self, tmp_path, distributed_engine
    ):
        """drop@N: the agent executes, discards the completion and
        reconnects; the rerun wins and nothing is double-counted."""
        engine = distributed_engine(min_agents=1)
        agent = None
        try:
            port = engine.lease_server.port
            agent = _spawn_agent(port, "flaky", tmp_path, fault_plan="drop@1")
            results = engine.run_many(_requests())
            snapshot = engine.metrics.snapshot()
        finally:
            engine.close()
            if agent is not None:
                try:
                    agent.wait(timeout=15)
                finally:
                    agent.kill()

        assert all(result is not None for result in results)
        assert snapshot["failed_runs"] == []
        assert snapshot["remote_runs"] == len(results)
        assert snapshot["lease_requeues"] >= 1
        assert snapshot["agents_joined"] == 2  # the reconnect rejoined

    def test_resume_of_partially_distributed_sweep(
        self, tmp_path, distributed_engine
    ):
        """A distributed sweep's journal resumes like a local one: the
        remotely-completed runs are trusted, only the rest execute."""
        engine = distributed_engine(min_agents=1)
        agent = None
        try:
            port = engine.lease_server.port
            agent = _spawn_agent(port, "only", tmp_path)
            engine.run_many(_requests(2))
        finally:
            engine.close()
            if agent is not None:
                try:
                    agent.wait(timeout=15)
                finally:
                    agent.kill()

        resumed = Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path / "dist", resume=True
        )
        try:
            results = resumed.run_many(_requests(4))
            snapshot = resumed.metrics.snapshot()
        finally:
            resumed.close()
        assert all(result is not None for result in results)
        assert snapshot["resumed"] == 2
        assert snapshot["runs_launched"] == 2  # only the new work ran

    def test_batched_sweep_fetches_artifacts_and_matches_single_host(
        self, tmp_path, distributed_engine
    ):
        """The tentpole anchor: a remote agent leases whole batches,
        fetches the missing trace through the wire-level artifact cache
        and produces a store byte-identical to single-host batching."""
        requests = _config_sweep()
        reference = Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path / "ref", batch_configs=4
        )
        try:
            reference.run_many(requests)
        finally:
            reference.close()
        _prime_artifacts(tmp_path / "dist", requests)

        engine = distributed_engine(batch_configs=4, min_agents=1)
        agent = None
        try:
            port = engine.lease_server.port
            agent = _spawn_agent(port, "fetcher", tmp_path)
            results = engine.run_many(requests)
            snapshot = engine.metrics.snapshot()
        finally:
            engine.close()
            if agent is not None:
                try:
                    agent.wait(timeout=15)
                finally:
                    agent.kill()

        assert all(result is not None for result in results)
        assert _store_bytes(tmp_path / "dist") == _store_bytes(
            tmp_path / "ref"
        )
        assert snapshot["failed_runs"] == []
        assert snapshot["remote_runs"] == len(requests)
        # The fresh agent missed locally and fetched the shared trace
        # from the supervisor's store -- exactly once, verified clean.
        assert snapshot["artifact_fetches"] >= 1
        assert snapshot.get("artifact_refetches", 0) == 0
        assert snapshot.get("artifact_corrupt_chunks", 0) == 0
        agent_row = snapshot["per_agent"]["fetcher"]
        assert agent_row["artifact_misses"] >= 1
        assert agent_row["runs"] == len(requests)
        # Remote per-phase observations reached the attribution table.
        family = results[0].family
        assert snapshot["per_family"][family]["phases"]

    def test_agent_resumes_every_run_from_fetched_checkpoints(
        self, tmp_path, distributed_engine
    ):
        """Hit guard over the wire: a cold agent fetches the primed
        supervisor's checkpoint chain, and every leased warmed run
        resumes from it instead of replaying its prefix."""
        requests = warmed_grid()
        _prime_artifacts(tmp_path / "dist", requests)

        engine = distributed_engine(min_agents=1)
        agent = None
        try:
            port = engine.lease_server.port
            agent = _spawn_agent(
                port, "resumer", tmp_path, cache_dir=tmp_path / "agent"
            )
            results = engine.run_many(requests)
            snapshot = engine.metrics.snapshot()
        finally:
            engine.close()
            if agent is not None:
                try:
                    agent.wait(timeout=15)
                finally:
                    agent.kill()

        assert all(result is not None for result in results)
        assert snapshot["remote_runs"] == len(requests)
        assert snapshot["per_agent"]["resumer"]["artifact_misses"] >= 1
        assert snapshot["artifact_fetches"] >= 1
        assert snapshot["checkpoint_misses"] == 0
        assert snapshot["checkpoint_hits"] == len(requests)

    def test_remote_batch_cap_splits_leases(
        self, tmp_path, distributed_engine
    ):
        """--remote-batch-configs below --batch-configs splits one wide
        batch across several leases without changing the results."""
        requests = _config_sweep()
        reference = Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path / "ref", batch_configs=1
        )
        try:
            reference.run_many(requests)
        finally:
            reference.close()

        engine = distributed_engine(
            batch_configs=6, remote_batch_configs=2, min_agents=1
        )
        agent = None
        try:
            port = engine.lease_server.port
            agent = _spawn_agent(port, "splitter", tmp_path)
            results = engine.run_many(requests)
            snapshot = engine.metrics.snapshot()
        finally:
            engine.close()
            if agent is not None:
                try:
                    agent.wait(timeout=15)
                finally:
                    agent.kill()

        assert all(result is not None for result in results)
        assert _store_bytes(tmp_path / "dist") == _store_bytes(
            tmp_path / "ref"
        )
        # 6 batchable configs at <=2 members per lease: >= 3 grants.
        assert snapshot["leases_granted"] >= 3
        assert snapshot["remote_runs"] == len(requests)

    def test_corrupt_artifact_chunk_detected_and_refetched(
        self, tmp_path, distributed_engine
    ):
        """corrupt@1: a flipped chunk byte fails the whole-file sha256,
        is counted, and the re-fetch comes back clean -- results and
        store bytes are unaffected."""
        requests = _config_sweep()
        _prime_artifacts(tmp_path / "dist", requests)

        engine = distributed_engine(batch_configs=4, min_agents=1)
        agent = None
        try:
            port = engine.lease_server.port
            agent = _spawn_agent(
                port, "noisy", tmp_path, fault_plan="corrupt@1"
            )
            results = engine.run_many(requests)
            snapshot = engine.metrics.snapshot()
        finally:
            engine.close()
            if agent is not None:
                try:
                    agent.wait(timeout=15)
                finally:
                    agent.kill()

        assert all(result is not None for result in results)
        assert snapshot["failed_runs"] == []
        assert snapshot["artifact_corrupt_chunks"] >= 1
        assert snapshot["artifact_refetches"] >= 1
        assert snapshot["artifact_fetches"] >= 1

    def test_drop_mid_fetch_requeues_lease(
        self, tmp_path, distributed_engine
    ):
        """drop@1:fetch severs the connection during artifact transfer;
        the lease requeues uncharged and the reconnected agent fetches
        clean."""
        requests = _config_sweep()
        _prime_artifacts(tmp_path / "dist", requests)

        engine = distributed_engine(batch_configs=4, min_agents=1)
        agent = None
        try:
            port = engine.lease_server.port
            agent = _spawn_agent(
                port, "flaky", tmp_path, fault_plan="drop@1:fetch"
            )
            results = engine.run_many(requests)
            snapshot = engine.metrics.snapshot()
        finally:
            engine.close()
            if agent is not None:
                try:
                    agent.wait(timeout=15)
                finally:
                    agent.kill()

        assert all(result is not None for result in results)
        assert snapshot["failed_runs"] == []
        assert snapshot["lease_requeues"] >= 1
        assert snapshot["artifact_fetches"] >= 1
        # Uncharged: every completion was a first attempt.
        assert snapshot["runs_launched"] == snapshot["runs_succeeded"]

    def test_remote_member_fault_explodes_batch(
        self, tmp_path, distributed_engine
    ):
        """A poisoned member fails its whole remote batch; the executor
        explodes it into uncharged singletons and only the poisoned run
        is charged a retry -- full PR 3 fault parity."""
        requests = _config_sweep()
        reference = Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path / "ref", batch_configs=4
        )
        try:
            reference.run_many(requests)
        finally:
            reference.close()

        engine = distributed_engine(batch_configs=4, min_agents=1)
        agent = None
        try:
            port = engine.lease_server.port
            # exc@2 arms inside the agent's child for plan slot 2: the
            # batched pass raises, then the singleton rerun of slot 2
            # fails once more (charged) and succeeds on its retry.
            agent = _spawn_agent(
                port, "poisoned", tmp_path, fault_plan="exc@2"
            )
            results = engine.run_many(requests)
            snapshot = engine.metrics.snapshot()
        finally:
            engine.close()
            if agent is not None:
                try:
                    agent.wait(timeout=15)
                finally:
                    agent.kill()

        assert all(result is not None for result in results)
        assert _store_bytes(tmp_path / "dist") == _store_bytes(
            tmp_path / "ref"
        )
        assert snapshot["failed_runs"] == []
        assert snapshot["remote_batch_explodes"] >= 1

    def test_worker_rejects_epoch_mismatch(self, tmp_path, monkeypatch):
        """An agent from a different results epoch must refuse to mix
        its results into the sweep (exit code 2)."""
        monkeypatch.setenv("REPRO_BACKEND", "python")
        engine = Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path / "dist",
            listen="127.0.0.1:0",
        )
        agent = None
        try:
            port = engine.lease_server.port
            env = dict(os.environ)
            env["PYTHONPATH"] = str(
                Path(__file__).resolve().parents[1] / "src"
            )
            with open(tmp_path / "agent.log", "wb") as log:
                agent = subprocess.Popen(
                    [sys.executable, "-c",
                     "import sys\n"
                     "from repro.engine import worker\n"
                     "worker.RESULTS_EPOCH = worker.RESULTS_EPOCH + 999\n"
                     "sys.exit(worker.main(['--connect', '127.0.0.1:%d']))"
                     % port],
                    env=env, stdout=log, stderr=subprocess.STDOUT,
                )
            assert agent.wait(timeout=30) == 2
        finally:
            if agent is not None and agent.poll() is None:
                agent.kill()
                agent.wait()
            engine.close()


def _family_phase_samples(engine) -> dict:
    """``{family: (runs, {phase: samples})}`` from engine-stats.json."""
    stats = json.loads(engine.write_stats().read_text())
    return {
        family: (
            row["runs"],
            {phase: entry["samples"] for phase, entry in row["phases"].items()},
        )
        for family, row in stats["per_family"].items()
        if row["runs"]
    }


class TestRemotePhaseSamples:
    def test_leased_runs_record_one_phase_sample_each(
        self, tmp_path, distributed_engine
    ):
        """A leased run's phase ledger rides on its completion and is
        recorded per run, exactly like a local run's."""
        local = Engine(scale=SCALE, jobs=2, cache_dir=tmp_path / "local")
        try:
            local.run_many(_requests())
            local_samples = _family_phase_samples(local)
        finally:
            local.close()

        engine = distributed_engine(min_agents=1)
        agent = None
        try:
            agent = _spawn_agent(engine.lease_server.port, "solo", tmp_path)
            engine.run_many(_requests())
            remote_samples = _family_phase_samples(engine)
        finally:
            engine.close()
            if agent is not None:
                try:
                    agent.wait(timeout=15)
                finally:
                    agent.kill()

        assert remote_samples.keys() == local_samples.keys()
        for family, (runs, samples) in remote_samples.items():
            assert max(samples.values()) == runs, (family, samples)
            assert samples["detailed"] == local_samples[family][1]["detailed"]


"""The one run loop: its phase-event throttle (shared by local worker
processes and agent lease children), the in-process runner's live
telemetry, and a failure touching only the worker it happened on."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cpu.config import ARCH_CONFIGS
from repro.engine import Engine, RunRequest
from repro.engine import executor
from repro.engine.executor import Executor, RunTask, WorkerProcess
from repro.engine.faults import FAULT_PLAN_ENV_VAR
from repro.engine.worker import WorkerAgent
from repro.cpu import checkpoint
from repro.obs import phases as obs_phases
from repro.obs import trace as obs_trace
from repro.obs.live import InflightTracker
from repro.techniques.base import SimulationTechnique
from repro.workloads import trace_store
from repro.workloads.spec import get_workload

from tests.test_engine import SCALE, StubTechnique, _stub_result


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV_VAR, raising=False)
    yield
    obs_phases.set_notifier(None)
    obs_phases.drain()


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class AnnouncingTechnique(SimulationTechnique):
    """Announces each scheduled phase at its time on the fake clock
    installed as ``time.monotonic`` (in whichever process runs it)."""

    family = "Stub"

    def __init__(self, schedule):
        self.schedule = schedule

    @property
    def permutation(self):
        return "announcing"

    def run(self, workload, config, scale, enhancements=None):
        for at, phase in self.schedule:
            time.monotonic.now = at
            with obs_phases.measured(phase):
                pass
        return _stub_result(workload, config, "announcing")


class CountingTechnique(SimulationTechnique):
    """Appends one byte to a file per execution (worker processes share
    it), then sleeps; healthy otherwise."""

    family = "Stub"

    def __init__(self, tag, counter_path, seconds):
        self.tag = tag
        self.counter_path = str(counter_path)
        self.seconds = seconds

    @property
    def permutation(self):
        return self.tag

    def run(self, workload, config, scale, enhancements=None):
        with open(self.counter_path, "a") as handle:
            handle.write("x")
        time.sleep(self.seconds)
        return _stub_result(workload, config, self.tag)


def _executions(path):
    return len(path.read_text()) if path.exists() else 0


class SnapshotTechnique(SimulationTechnique):
    """Reads the live view from inside its own run."""

    family = "Stub"

    def __init__(self, tracker):
        self.tracker = tracker
        self.seen = None

    @property
    def permutation(self):
        return "snapshot"

    def run(self, workload, config, scale, enhancements=None):
        with obs_phases.measured("warming"):
            self.seen = self.tracker.snapshot()
        return _stub_result(workload, config, "snapshot")


class ActivationTechnique(SimulationTechnique):
    """Reports, as its result's permutation, the stores and tracer
    active in whichever process runs it."""

    family = "Stub"
    permutation = "activation"

    def run(self, workload, config, scale, enhancements=None):
        traces = trace_store.active_store()
        checkpoints = checkpoint.active_store()
        seen = (
            f"{traces.root}|{checkpoints.root}|{checkpoints.interval}|"
            f"{obs_trace.active()}|{os.getpid()}"
        )
        return _stub_result(workload, config, seen)


def _task(technique, slot=0):
    request = RunRequest(technique, get_workload("gzip"), ARCH_CONFIGS[0])
    return RunTask(slot=slot, request=request, key=f"k{slot}",
                   description="stub run")


class _Pipe(list):
    """Stands in for a worker process's pipe: records what the child
    sends and hands it ``incoming`` one message at a time."""

    def __init__(self, *incoming):
        super().__init__()
        self.incoming = list(incoming)

    def recv(self):
        return self.incoming.pop(0)

    send = list.append

    def close(self):
        pass


class _AgentConnection(list):
    """Stands in for an agent's supervisor connection."""

    def request(self, message):
        self.append(message)
        return {"status": "ok"}


#: (fake time, announced phase).  The rule forwards a phase only if it
#: differs from the last forwarded one *and* 0.25 s have passed since.
SCHEDULE = [
    (100.0, "a"),   # forwarded
    (100.1, "b"),   # a change, but too soon
    (100.2, "a"),   # a repeat
    (100.4, "b"),   # forwarded
    (100.5, "b"),   # a repeat
    (101.0, "b"),   # still a repeat, however late
    (101.1, "c"),   # forwarded
]


class TestPhaseNotifier:
    @pytest.mark.parametrize("runner", ["pool", "agent"])
    def test_one_throttle_rule(self, monkeypatch, runner):
        monkeypatch.setattr(time, "monotonic", FakeClock(99.0))
        task = _task(AnnouncingTechnique(SCHEDULE))
        if runner == "pool":
            # The worker process's child loop, run here on a fake pipe.
            pipe = _Pipe((task, SCALE), None)
            executor._child_loop(pipe, _Pipe())
            assert pipe[-1][0] == "done", pipe[-1]
            forwarded = [value[0] for kind, value in pipe if kind == "phase"]
        else:
            # A real lease child, forked with the fake clock installed;
            # the agent forwards each phase it hears as an obs event.
            agent = WorkerAgent("127.0.0.1:1", quiet=True)
            connection = _AgentConnection()
            doc = agent._execute(connection, "lease-1", task, SCALE, 60.0)
            assert doc["ok"], doc
            forwarded = [m["phase"] for m in connection if "phase" in m]
        assert forwarded == ["a", "b", "c"]


class TestInProcessTelemetry:
    def test_jobs1_live_view_tracks_the_executing_run(self):
        tracker = InflightTracker()
        technique = SnapshotTechnique(tracker)
        after = []
        Executor(jobs=1).run(
            [_task(technique, slot=5)], SCALE,
            on_success=lambda *args: after.append(tracker.snapshot()),
            on_failure=lambda slot, request, error: pytest.fail(str(error)),
            on_retry=lambda slot, exc: pytest.fail(str(exc)),
            telemetry=tracker,
        )
        (run,) = technique.seen["in_flight"]
        assert run["slot"] == 5
        assert run["pid"] == os.getpid()
        assert run["phase"] == "warming"
        (finished,) = after
        assert finished["in_flight"] == []
        assert tracker.snapshot()["in_flight"] == []


class TestOneWorkerPerFailure:
    """A crash or a watchdog reap stops only the worker it happened on."""

    def test_crash_is_charged_only_to_the_run_that_died(
        self, monkeypatch, tmp_path
    ):
        # Slot 0 hangs 2 s on one worker while slot 1 SIGKILLs the
        # other: the hanging run must finish on its first execution.
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "hang@0:2,kill@1")
        counter = tmp_path / "hung"
        workload = get_workload("gzip")
        requests = [
            RunRequest(CountingTechnique("hung", counter, 0.0), workload,
                       ARCH_CONFIGS[0]),
            RunRequest(StubTechnique("killed"), workload, ARCH_CONFIGS[0]),
        ]
        with Engine(scale=SCALE, jobs=2, backoff_base=0.01) as engine:
            results = engine.run_many(requests)
        assert [r.permutation for r in results] == ["hung", "killed"]
        assert engine.metrics.crashes == 1
        assert engine.metrics.retries == 1
        assert engine.metrics.failures == 0
        assert _executions(counter) == 1

    def test_watchdog_reaps_only_the_hung_worker(self, monkeypatch, tmp_path):
        # Two workers, a 1.5 s budget.  Worker A: slot 0 hangs, slot 2
        # waits in its pipe.  Worker B: slot 1 (1 s), then slot 3 (1 s),
        # which starts before slot 0 is reaped, ends after it and stays
        # inside its own budget: it must run exactly once.
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "hang@0:60")
        workload = get_workload("gzip")
        first, sibling = tmp_path / "first", tmp_path / "sibling"
        requests = [
            RunRequest(technique, workload, ARCH_CONFIGS[0])
            for technique in (
                StubTechnique("hung"),
                CountingTechnique("first", first, 1.0),
                StubTechnique("queued"),
                CountingTechnique("sibling", sibling, 1.0),
            )
        ]
        with Engine(scale=SCALE, jobs=2, run_timeout=1.5,
                    backoff_base=0.01) as engine:
            results = engine.run_many(requests)
        assert [r.permutation for r in results] == [
            "hung", "first", "queued", "sibling"
        ]
        assert _executions(first) == 1
        assert _executions(sibling) == 1
        assert engine.metrics.timeouts == 1
        assert engine.metrics.retries == 1
        assert engine.metrics.failures == 0


class TestForkedActivation:
    def test_worker_process_sees_the_parent_activation(self, tmp_path):
        trace_store.activate(trace_store.TraceStore(tmp_path / "traces"))
        checkpoint.activate(checkpoint.CheckpointStore(tmp_path / "cp", 700))
        obs_trace.activate(tmp_path / "events", worker="parent")
        worker = WorkerProcess()
        try:
            worker.submit(_task(ActivationTechnique()), SCALE)
            kind = "start"
            while kind in ("start", "phase"):
                kind, _, value = worker.recv()
        finally:
            worker.stop()
        assert kind == "done"
        seen = value[1][0].permutation
        assert seen == (
            f"{tmp_path / 'traces'}|{tmp_path / 'cp'}|700|True|{worker.pid}"
        )


class TestWorkerLifetime:
    def test_workers_exit_with_their_supervisor(self):
        # A SIGKILLed supervisor must not leave its idle workers behind.
        script = (
            "import os, signal\n"
            "from repro.engine.executor import WorkerProcess\n"
            "workers = [WorkerProcess(), WorkerProcess()]\n"
            "print(*[w.pid for w in workers], flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        with subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, text=True,
        ) as supervisor:
            pids = [int(pid) for pid in supervisor.stdout.readline().split()]
            supervisor.wait(timeout=60)
        assert len(pids) == 2

        def alive(pid):  # a zombie awaiting its reaper counts as gone
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False
            except OSError:  # no procfs
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    return False
                return True

        deadline = time.monotonic() + 10.0
        while any(map(alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if alive(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors

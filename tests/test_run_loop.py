"""The one run loop: its phase-event throttle (shared by pool workers
and agent lease children) and the in-process runner's live telemetry."""

import os
import time

import pytest

from repro.cpu.config import ARCH_CONFIGS
from repro.engine import RunRequest
from repro.engine import executor
from repro.engine.executor import Executor, RunTask
from repro.engine.faults import FAULT_PLAN_ENV_VAR
from repro.engine.worker import _child_main
from repro.obs import phases as obs_phases
from repro.obs.live import InflightTracker
from repro.techniques.base import SimulationTechnique
from repro.workloads.spec import get_workload

from tests.test_engine import SCALE, _stub_result


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
    """Announces each scheduled phase at its fake-clock time."""

    family = "Stub"

    def __init__(self, clock, schedule):
        self.clock = clock
        self.schedule = schedule

    @property
    def permutation(self):
        return "announcing"

    def run(self, workload, config, scale, enhancements=None):
        for at, phase in self.schedule:
            self.clock.now = at
            with obs_phases.measured(phase):
                pass
        return _stub_result(workload, config, "announcing")


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


def _task(technique, slot=0):
    request = RunRequest(technique, get_workload("gzip"), ARCH_CONFIGS[0])
    return RunTask(slot=slot, request=request, key=f"k{slot}",
                   description="stub run")


class _Sink(list):
    """Stands in for the pool's event queue and the child's pipe."""

    def put(self, item):
        self.append(item)

    send = put


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
        clock = FakeClock(99.0)
        monkeypatch.setattr(time, "monotonic", clock)
        task = _task(AnnouncingTechnique(clock, SCHEDULE))
        sink = _Sink()
        if runner == "pool":
            monkeypatch.setattr(executor, "_worker_events", sink)
            executor._worker(task, SCALE)
            forwarded = [event[4] for event in sink if event[0] == "phase"]
        else:
            _child_main(sink, task, SCALE)
            assert sink[-1]["ok"], sink[-1]
            forwarded = [m["phase"] for m in sink if "phase" in m]
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

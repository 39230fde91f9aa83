"""Executor failure matrix: every supervised failure path, injected
deterministically via the fault harness and asserted on callbacks and
metrics.

Covers: worker exception, worker SIGKILL (broken pool), hang until the
watchdog reaps it, pool broken mid-submission (never-submitted tasks
are not charged retries), retry exhaustion, poison-run quarantine,
backend degradation, and deterministic backoff jitter.  Each scenario
checks that terminal callbacks fire exactly once per slot and that the
accounting identity ``runs_launched == runs_succeeded + failures +
quarantined`` holds.
"""

import os
import time
from collections import Counter

import pytest

from repro.cpu.config import ARCH_CONFIGS
from repro.engine import Engine, EngineRunError, RunRequest
from repro.engine.executor import Executor, RunError, RunTask
from repro.engine.faults import FAULT_PLAN_ENV_VAR
from repro.techniques.base import SimulationTechnique
from repro.workloads.spec import get_workload

from tests.test_engine import SCALE, StubTechnique

pytestmark = pytest.mark.usefixtures("clean_fault_plan")


@pytest.fixture()
def clean_fault_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV_VAR, raising=False)


@pytest.fixture()
def workload():
    return get_workload("gzip")


def _requests(workload, n=4):
    return [
        RunRequest(StubTechnique(f"t{i}"), workload, ARCH_CONFIGS[0])
        for i in range(n)
    ]


def _engine(jobs=2, **kwargs):
    kwargs.setdefault("backoff_base", 0.01)
    return Engine(scale=SCALE, jobs=jobs, **kwargs)


def _check_accounting(metrics):
    assert metrics.runs_launched == (
        metrics.runs_succeeded + metrics.failures + metrics.quarantined
    )


class VaryingFailureTechnique(SimulationTechnique):
    """Fails every attempt with a *different* message (so the poison
    detector never quarantines it and the retry budget is what ends
    it).  Attempts are counted in a file so pool workers share it."""

    family = "Stub"

    def __init__(self, counter_path):
        self.counter_path = str(counter_path)

    @property
    def permutation(self):
        return "varying"

    def run(self, workload, config, scale, enhancements=None):
        count = 0
        if os.path.exists(self.counter_path):
            with open(self.counter_path) as handle:
                count = int(handle.read() or 0)
        count += 1
        with open(self.counter_path, "w") as handle:
            handle.write(str(count))
        raise RuntimeError(f"failure number {count}")


class SleepingTechnique(SimulationTechnique):
    """Healthy but slow: succeeds after sleeping a fixed time."""

    family = "Stub"

    def __init__(self, tag, seconds):
        self.tag = tag
        self.seconds = seconds

    @property
    def permutation(self):
        return self.tag

    def run(self, workload, config, scale, enhancements=None):
        time.sleep(self.seconds)
        from tests.test_engine import _stub_result

        return _stub_result(workload, config, self.tag)


class CallbackRecorder:
    """Counts terminal callbacks per slot for exactly-once assertions."""

    def __init__(self):
        self.successes = Counter()
        self.failures = Counter()
        self.retries = []
        self.degrades = []
        self.errors = {}

    def on_success(self, slot, result, wall, info):
        self.successes[slot] += 1

    def on_failure(self, slot, request, error):
        self.failures[slot] += 1
        self.errors[slot] = error

    def on_retry(self, slot, exc):
        self.retries.append(slot)

    def on_degrade(self, slot, frm, to):
        self.degrades.append((slot, frm, to))

    def assert_exactly_once(self, slots):
        terminal = self.successes + self.failures
        assert set(terminal) == set(slots)
        assert all(count == 1 for count in terminal.values()), terminal


class TestFailureMatrix:
    """One scenario per row of the executor failure matrix."""

    def test_worker_exception_retried_then_recovers(self, monkeypatch, workload):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "exc@1")
        engine = _engine(jobs=2)
        results = engine.run_many(_requests(workload))
        assert [r.permutation for r in results] == ["t0", "t1", "t2", "t3"]
        assert engine.metrics.retries == 1
        assert engine.metrics.failures == 0
        _check_accounting(engine.metrics)

    def test_worker_sigkill_breaks_pool_and_recovers(self, monkeypatch, workload):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "kill@0")
        engine = _engine(jobs=2)
        results = engine.run_many(_requests(workload))
        assert [r.permutation for r in results] == ["t0", "t1", "t2", "t3"]
        assert engine.metrics.crashes >= 1  # at least the killed worker
        assert engine.metrics.failures == 0
        assert engine.metrics.runs_succeeded == 4
        _check_accounting(engine.metrics)

    def test_hang_is_reaped_within_timeout(self, monkeypatch, workload):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "hang@2:60")
        started = time.monotonic()
        engine = _engine(jobs=2, run_timeout=1.5)
        results = engine.run_many(_requests(workload))
        elapsed = time.monotonic() - started
        assert [r.permutation for r in results] == ["t0", "t1", "t2", "t3"]
        assert elapsed < 30  # nowhere near the 60s hang
        assert engine.metrics.timeouts == 1
        assert engine.metrics.runs_succeeded == 4
        _check_accounting(engine.metrics)

    def test_queue_wait_does_not_count_against_timeout(self, workload):
        # Six healthy 0.5s runs on 2 workers with a 1s timeout: each
        # run individually finishes well inside its budget, but the
        # last runs spend ~1s queued behind siblings.  The watchdog
        # must measure from each run's actual start, not submission,
        # so nothing may be reaped.
        requests = [
            RunRequest(SleepingTechnique(f"s{i}", 0.5), workload, ARCH_CONFIGS[0])
            for i in range(6)
        ]
        engine = _engine(jobs=2, run_timeout=1.0)
        results = engine.run_many(requests)
        assert [r.permutation for r in results] == [f"s{i}" for i in range(6)]
        assert engine.metrics.timeouts == 0
        assert engine.metrics.retries == 0
        assert engine.metrics.failures == 0
        assert engine.metrics.runs_succeeded == 6
        _check_accounting(engine.metrics)

    def test_persistent_hang_is_quarantined(self, monkeypatch, workload):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "hang@1:60x*")
        engine = _engine(jobs=2, run_timeout=1.0, retries=5)
        with pytest.raises(EngineRunError):
            engine.run_many(_requests(workload))
        error = engine.metrics.failed_runs[0]
        assert error["kind"] == "timeout"
        assert error["quarantined"] is True
        assert error["attempts"] == 2  # identical timeout twice, then stop
        assert engine.metrics.timeouts == 2
        assert engine.metrics.quarantined == 1
        assert engine.metrics.runs_succeeded == 3
        _check_accounting(engine.metrics)

    def test_pool_broken_mid_submission_never_ran_not_charged(
        self, monkeypatch, workload
    ):
        # Many more tasks than the submission backlog (workers * 4), so
        # a broken pool strands most of the queue unsubmitted.  Those
        # never-ran tasks must be requeued without a retry charge.
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "kill@0")
        engine = _engine(jobs=2)
        count = 40
        results = engine.run_many(_requests(workload, n=count))
        assert len(results) == count
        assert engine.metrics.runs_succeeded == count
        assert engine.metrics.failures == 0
        # Only tasks actually in flight when the pool broke may be
        # charged (the backlog bound is workers * 4 = 8), never the
        # whole queue.
        assert 1 <= engine.metrics.retries <= 8
        _check_accounting(engine.metrics)

    def test_pool_breakage_charges_only_started_runs(self, monkeypatch, workload):
        # 12 tasks on 2 workers: at most 2 runs can have started when
        # the pool breaks, so at most 2 crash charges -- every other
        # in-flight future was still queued inside the pool and must be
        # requeued without a crash charge (and certainly never
        # quarantined).
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "kill@0")
        engine = _engine(jobs=2)
        results = engine.run_many(_requests(workload, n=12))
        assert len(results) == 12
        assert engine.metrics.runs_succeeded == 12
        assert engine.metrics.failures == 0
        assert engine.metrics.quarantined == 0
        assert 1 <= engine.metrics.crashes <= 2
        assert engine.metrics.retries == engine.metrics.crashes
        _check_accounting(engine.metrics)

    def test_retry_exhaustion_reports_transient(self, tmp_path, workload):
        engine = _engine(jobs=1, retries=2)
        broken = VaryingFailureTechnique(tmp_path / "count")
        requests = [RunRequest(broken, workload, ARCH_CONFIGS[0])]
        with pytest.raises(EngineRunError):
            engine.run_many(requests)
        error = engine.metrics.failed_runs[0]
        assert error["kind"] == "transient"  # every failure looked different
        assert error["quarantined"] is False
        assert error["attempts"] == 3  # first attempt + 2 retries
        assert engine.metrics.retries == 2
        assert engine.metrics.failures == 1
        _check_accounting(engine.metrics)

    def test_identical_failure_twice_quarantines_early(
        self, monkeypatch, workload
    ):
        # Budget would allow 5 retries, but the identical signature
        # stops the bleeding after two attempts.
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "exc@0x*")
        engine = _engine(jobs=1, retries=5)
        with pytest.raises(EngineRunError) as excinfo:
            engine.run_many(_requests(workload, n=1))
        (error,) = excinfo.value.errors.values()
        assert isinstance(error, RunError)
        assert error.kind == "deterministic"
        assert error.quarantined
        assert error.attempts == 2
        assert engine.metrics.retries == 1
        assert engine.metrics.quarantined == 1
        assert engine.metrics.failures == 0
        _check_accounting(engine.metrics)


class TestExecutorCallbacks:
    """Exactly-once terminal callback dispatch, straight at the executor."""

    def _tasks(self, workload, n):
        return [
            RunTask(
                slot=i,
                request=RunRequest(StubTechnique(f"t{i}"), workload, ARCH_CONFIGS[0]),
                key=f"key{i}",
            )
            for i in range(n)
        ]

    def _run(self, executor, tasks):
        recorder = CallbackRecorder()
        executor.run(
            tasks, SCALE,
            recorder.on_success, recorder.on_failure,
            recorder.on_retry, recorder.on_degrade,
        )
        return recorder

    def test_all_success_parallel(self, workload):
        tasks = self._tasks(workload, 6)
        recorder = self._run(Executor(jobs=2, backoff_base=0.0), tasks)
        recorder.assert_exactly_once(range(6))
        assert not recorder.failures

    def test_exception_and_kill_mix(self, monkeypatch, workload):
        # Slot 1 fails on every attempt while slot 3 SIGKILLs its
        # worker once: the pool crash may interleave with slot 1's
        # retries, but terminal callbacks still fire exactly once and
        # only slot 1 ends in failure.
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "exc@1x*,kill@3")
        tasks = self._tasks(workload, 6)
        recorder = self._run(
            Executor(jobs=2, retries=1, backoff_base=0.0), tasks
        )
        recorder.assert_exactly_once(range(6))
        assert set(recorder.failures) == {1}
        assert recorder.successes[3] == 1  # recovered after the crash

    def test_hang_timeout_callbacks(self, monkeypatch, workload):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "hang@0:60x*")
        tasks = self._tasks(workload, 3)
        recorder = self._run(
            Executor(jobs=2, retries=3, timeout=1.0, backoff_base=0.0), tasks
        )
        recorder.assert_exactly_once(range(3))
        assert set(recorder.failures) == {0}
        assert recorder.errors[0].kind == "timeout"
        assert recorder.errors[0].quarantined

    def test_zero_retries_fail_fast(self, monkeypatch, workload):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "exc@0")
        tasks = self._tasks(workload, 2)
        recorder = self._run(Executor(jobs=1, retries=0), tasks)
        recorder.assert_exactly_once(range(2))
        assert set(recorder.failures) == {0}
        assert not recorder.retries
        assert recorder.errors[0].kind == "transient"
        assert recorder.errors[0].attempts == 1


class TestCrashQuarantineExemption:
    """A worker can die for reasons outside its run, so identical crash
    signatures must never trigger the poison-run quarantine -- only the
    retry budget ends a repeat worker-killer."""

    def test_identical_crash_signatures_do_not_quarantine(self, workload):
        from repro.engine.executor import _crash_failure

        executor = Executor(jobs=2, retries=3, backoff_base=0.0)
        recorder = CallbackRecorder()
        task = RunTask(
            slot=0,
            request=RunRequest(StubTechnique("t0"), workload, ARCH_CONFIGS[0]),
            key="k0",
        )
        supervision = {}
        for _ in range(3):  # three identical crashes: all within budget
            action = executor._after_failure(
                task, _crash_failure(), supervision,
                recorder.on_failure, recorder.on_retry, recorder.on_degrade,
            )
            assert action[0] == "requeue"
        action = executor._after_failure(  # fourth exceeds retries=3
            task, _crash_failure(), supervision,
            recorder.on_failure, recorder.on_retry, recorder.on_degrade,
        )
        assert action[0] == "done"
        assert recorder.failures[0] == 1
        error = recorder.errors[0]
        assert error.kind == "crash"
        assert error.quarantined is False
        assert error.attempts == 4


class TestBackoff:
    def test_backoff_deterministic_per_key(self):
        executor = Executor(jobs=1, backoff_base=0.1, backoff_cap=5.0)
        assert executor._backoff_delay("k1", 1) == executor._backoff_delay("k1", 1)
        assert executor._backoff_delay("k1", 1) != executor._backoff_delay("k2", 1)

    def test_backoff_grows_and_caps(self):
        executor = Executor(jobs=1, backoff_base=0.1, backoff_cap=0.4)
        delays = [executor._backoff_delay("key", a) for a in range(1, 8)]
        # Exponential envelope: raw doubles until the cap.
        assert all(0 < d <= 0.4 for d in delays)
        assert max(delays) <= 0.4
        assert delays[0] <= 0.1  # first retry within base

    def test_backoff_disabled(self):
        executor = Executor(jobs=1, backoff_base=0.0)
        assert executor._backoff_delay("key", 3) == 0.0


class TestDegradation:
    def test_kernel_fault_degrades_and_matches_reference(
        self, monkeypatch, workload
    ):
        from repro.techniques.truncated import RunZ

        requests = [
            RunRequest(RunZ(200 + 100 * i), workload, ARCH_CONFIGS[0])
            for i in range(3)
        ]
        reference = _engine(jobs=1).run_many(requests)

        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "kernel@1:numpy")
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        engine = _engine(jobs=2)
        degraded = engine.run_many(requests)
        assert engine.metrics.degradations == 1
        assert engine.metrics.degraded_runs[0]["from"] == "numpy"
        assert engine.metrics.degraded_runs[0]["to"] == "python"
        # Degradation consumed no retry budget and failed nothing.
        assert engine.metrics.retries == 0
        assert engine.metrics.failures == 0
        for a, b in zip(reference, degraded):
            assert a.stats.counters() == b.stats.counters()
        _check_accounting(engine.metrics)

    def test_kernel_fault_on_every_tier_exhausts_to_failure(
        self, monkeypatch, workload
    ):
        from repro.techniques.truncated import RunZ

        # Kernel faults planned for both the numpy and python tiers:
        # numpy degrades to python, and because the python reference
        # has no kernel guard (nothing below it to degrade to), the
        # python-tier fault never fires and the run completes there.
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "kernel@0:numpy,kernel@0:python")
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        engine = _engine(jobs=1)
        results = engine.run_many(
            [RunRequest(RunZ(300), workload, ARCH_CONFIGS[0])]
        )
        # python tier has no kernel guard, so the run completes there.
        assert results[0] is not None
        assert engine.metrics.degradations == 1
        _check_accounting(engine.metrics)

    def test_inline_degradation_restores_activated_backend(
        self, monkeypatch, workload
    ):
        from repro.cpu.kernels import registry
        from repro.techniques.truncated import RunZ

        # An in-process degraded run activates the fallback backend for
        # that run only and reinstates the session's choice afterwards.
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "kernel@0:numpy")
        registry.activate("numpy")
        engine = _engine(jobs=1)
        engine.run_many([RunRequest(RunZ(300), workload, ARCH_CONFIGS[0])])
        assert engine.metrics.degradations == 1
        assert registry.activate(None) == "numpy"

    def test_degradation_in_stats_json(self, monkeypatch, tmp_path, workload):
        import json

        from repro.techniques.truncated import RunZ

        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "kernel@0:numpy")
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        with _engine(jobs=1, cache_dir=tmp_path) as engine:
            engine.run_many(
                [RunRequest(RunZ(300), workload, ARCH_CONFIGS[0])]
            )
            path = engine.write_stats()
        document = json.loads(path.read_text())
        assert document["degradations"] == 1
        assert document["degraded_runs"][0]["from"] == "numpy"
        assert document["degraded_runs"][0]["to"] == "python"


class TestRunTimeoutSerialCaveat:
    def test_timeout_requires_positive(self):
        with pytest.raises(ValueError):
            Executor(jobs=2, timeout=0)

    def test_serial_single_task_skips_pool_without_timeout(self, workload):
        # jobs > 1 with one task and no timeout stays in-process (no
        # pool spin-up); with a timeout, the pool path must be used so
        # the watchdog can actually kill a hang.
        executor = Executor(jobs=2, timeout=None)
        recorder = CallbackRecorder()
        task = RunTask(
            slot=0,
            request=RunRequest(StubTechnique(), workload, ARCH_CONFIGS[0]),
            key="k",
        )
        executor.run(
            [task], SCALE,
            recorder.on_success, recorder.on_failure,
            recorder.on_retry, recorder.on_degrade,
        )
        recorder.assert_exactly_once([0])

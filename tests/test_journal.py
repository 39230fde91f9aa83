"""Tests for the crash-safe sweep journal and resume semantics."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cpu.config import ARCH_CONFIGS
from repro.engine import (
    JOURNAL_FILENAME,
    Engine,
    EngineRunError,
    RunRequest,
)
from repro.engine.journal import JournalMismatch, SweepJournal
from repro.engine.planner import RESULTS_EPOCH
from repro.scale import Scale
from repro.techniques.truncated import RunZ
from repro.workloads.spec import get_workload

from tests.test_engine import SCALE, _result_fingerprint


@pytest.fixture()
def workload():
    return get_workload("gzip")


class TestJournalFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            journal.record("start", scale=2.0, epoch=RESULTS_EPOCH, schema=1)
            journal.record("planned", key="aaa", run="run a")
            journal.record("planned", key="bbb", run="run b")
            journal.record("completed", key="aaa", wall_s=0.5, backend=None)
            journal.record(
                "degraded", key="bbb", **{"from": "numpy", "to": "python"}
            )
            journal.record(
                "completed", key="bbb", wall_s=1.5, backend="python"
            )
            journal.record(
                "failed", key="ccc", kind="timeout", error="run exceeded 5s"
            )
            journal.record(
                "quarantined", key="ddd", kind="deterministic", error="boom"
            )
        state = SweepJournal.load(path)
        assert state.completed == {"aaa", "bbb"}
        assert state.planned == {"aaa", "bbb"}
        assert "ccc" in state.failed
        assert state.failed["ccc"]["kind"] == "timeout"
        assert "ddd" in state.quarantined
        assert state.scale == 2.0
        assert state.epoch == RESULTS_EPOCH

    def test_completed_after_failure_wins(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            journal.record("failed", key="abc", kind="transient", error="flake")
            journal.record("completed", key="abc", wall_s=0.1)
        state = SweepJournal.load(path)
        assert "abc" in state.completed
        assert "abc" not in state.failed

    def test_truncated_tail_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            journal.record("start", scale=2.0, epoch=RESULTS_EPOCH, schema=1)
            journal.record("completed", key="aaa", wall_s=0.5)
        # Simulate a crash mid-append: a partial, non-JSON final line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "completed", "key": "bb')
        state = SweepJournal.load(path)
        assert state.completed == {"aaa"}

    def test_missing_file_is_empty_state(self, tmp_path):
        state = SweepJournal.load(tmp_path / "nope.jsonl")
        assert not state.completed
        assert not state.quarantined

    def test_scale_mismatch_refuses_resume(self, tmp_path):
        state = SweepJournal.load(tmp_path / "nope.jsonl")
        state.scale = 7.0
        with pytest.raises(JournalMismatch):
            state.check_compatible(2.0, RESULTS_EPOCH)

    def test_epoch_mismatch_refuses_resume(self, tmp_path):
        state = SweepJournal.load(tmp_path / "nope.jsonl")
        state.epoch = RESULTS_EPOCH + 1
        with pytest.raises(JournalMismatch):
            state.check_compatible(2.0, RESULTS_EPOCH)


class TestEngineJournalling:
    def _requests(self, workload, n=6):
        return [
            RunRequest(RunZ(100 + 50 * i), workload, ARCH_CONFIGS[0])
            for i in range(n)
        ]

    def test_journal_written_alongside_cache(self, tmp_path, workload):
        engine = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path)
        engine.run_many(self._requests(workload, 2))
        engine.close()
        path = tmp_path / JOURNAL_FILENAME
        assert path.exists()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "start"
        assert kinds.count("planned") == 2
        assert kinds.count("completed") == 2

    def test_resume_skips_completed_runs(self, tmp_path, workload):
        requests = self._requests(workload)
        # Uninterrupted reference sweep (separate cache).
        with Engine(scale=SCALE, jobs=1) as engine:
            reference = engine.run_many(requests)

        # "Interrupted" sweep: only the first half ran before the kill.
        first = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path)
        first.run_many(requests[:3])
        first.close()

        with Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path, resume=True
        ) as resumed:
            results = resumed.run_many(requests)
        assert resumed.metrics.resumed == 3
        assert resumed.metrics.runs_launched == 3  # only the second half
        for a, b in zip(reference, results):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_fresh_sweep_rotates_stale_journal(self, tmp_path, workload):
        requests = self._requests(workload, 2)
        first = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path)
        first.run_many(requests)
        first.close()
        previous = (tmp_path / JOURNAL_FILENAME).read_text()
        # A non-resume engine starts a new journal; the store still
        # serves the results (as cache hits, not resumed runs).
        second = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path)
        second.run_many(requests)
        second.close()
        assert second.metrics.resumed == 0
        assert second.metrics.cache_hits == 2
        events = [
            json.loads(line)
            for line in (tmp_path / JOURNAL_FILENAME).read_text().splitlines()
        ]
        assert sum(1 for e in events if e["event"] == "start") == 1
        # The superseded journal is a post-mortem artifact: rotated
        # aside, never destroyed.
        rotated = tmp_path / (JOURNAL_FILENAME + ".1")
        assert rotated.read_text() == previous

    def test_rotation_keeps_only_one_generation(self, tmp_path, workload):
        requests = self._requests(workload, 2)
        for _ in range(3):
            engine = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path)
            engine.run_many(requests)
            engine.close()
        assert (tmp_path / JOURNAL_FILENAME).exists()
        assert (tmp_path / (JOURNAL_FILENAME + ".1")).exists()
        assert not (tmp_path / (JOURNAL_FILENAME + ".2")).exists()

    def test_resume_skips_quarantined_runs(self, tmp_path, workload, monkeypatch):
        from repro.engine.faults import FAULT_PLAN_ENV_VAR

        requests = self._requests(workload, 3)
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "exc@0x*")
        first = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path, backoff_base=0.0)
        with pytest.raises(EngineRunError):
            first.run_many(requests)
        first.close()
        assert first.metrics.quarantined == 1

        monkeypatch.delenv(FAULT_PLAN_ENV_VAR)
        with Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path, resume=True,
            backoff_base=0.0,
        ) as resumed:
            with pytest.raises(EngineRunError) as excinfo:
                resumed.run_many(requests)
            # The poison run was skipped, not re-executed: nothing
            # launched beyond the two runs the first sweep completed.
            assert resumed.metrics.runs_launched == 0
            assert resumed.metrics.resumed == 2
            assert len(excinfo.value.errors) == 1
            results = resumed.run_many(requests, allow_errors=True)
        assert results[0] is None
        assert results[1] is not None and results[2] is not None

    def test_resume_requires_cache_dir(self):
        with pytest.raises(ValueError):
            Engine(scale=SCALE, jobs=1, resume=True)

    def test_resume_refuses_other_scale(self, tmp_path, workload):
        first = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path)
        first.run_many(self._requests(workload, 1))
        first.close()
        with pytest.raises(JournalMismatch):
            Engine(scale=Scale(3), jobs=1, cache_dir=tmp_path, resume=True)

    def test_journal_completed_but_store_missing_reexecutes(
        self, tmp_path, workload
    ):
        requests = self._requests(workload, 2)
        first = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path)
        first.run_many(requests)
        first.close()
        # Wipe one store entry: the journal says completed, but the
        # store is the source of truth, so the run must re-execute.
        victim = next(iter((tmp_path / "v1").glob("*/*.json")))
        victim.unlink()
        with Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path, resume=True
        ) as resumed:
            resumed.run_many(requests)
        assert resumed.metrics.runs_launched == 1
        assert resumed.metrics.resumed == 1


_SIGKILL_SWEEP = '''
import json, sys
from repro.engine import Engine, RunRequest
from repro.scale import Scale
from repro.workloads.spec import get_workload
from repro.cpu.config import ARCH_CONFIGS
from repro.techniques.truncated import RunZ

workload = get_workload("gzip")
requests = [
    RunRequest(RunZ(100 + 25 * i), workload, config)
    for i in range(12)
    for config in ARCH_CONFIGS[:2]
]
engine = Engine(
    scale=Scale(2), jobs=2, cache_dir=sys.argv[1], resume=(sys.argv[2] == "resume")
)
results = engine.run_many(requests)
print("RESUMED", engine.metrics.resumed, "LAUNCHED", engine.metrics.runs_launched,
      file=sys.stderr)
print(json.dumps([sorted(r.stats.counters().items()) for r in results]))
'''


@pytest.mark.slow
class TestSigkillResume:
    """The acceptance scenario: a sweep SIGKILLed mid-run resumes
    without re-executing journaled runs, bit-identical output."""

    def _run(self, cache_dir, mode):
        return subprocess.run(
            [sys.executable, "-c", _SIGKILL_SWEEP, str(cache_dir), mode],
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_sigkill_then_resume_bit_identical(self, tmp_path):
        reference_dir = tmp_path / "ref"
        killed_dir = tmp_path / "killed"
        reference = self._run(reference_dir, "fresh")
        assert reference.returncode == 0, reference.stderr

        victim = subprocess.Popen(
            [sys.executable, "-c", _SIGKILL_SWEEP, str(killed_dir), "fresh"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        # Let it journal some completions, then kill it mid-sweep.
        deadline = time.monotonic() + 60
        journal = killed_dir / JOURNAL_FILENAME
        while time.monotonic() < deadline:
            if journal.exists() and '"completed"' in journal.read_text():
                break
            time.sleep(0.05)
        # Kill the whole process group: pool workers orphaned by a
        # SIGKILLed supervisor never exit on their own.
        os.killpg(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)

        completed = sum(
            1 for line in journal.read_text().splitlines() if '"completed"' in line
        )
        assert completed >= 1  # it really was mid-sweep when killed

        resumed = self._run(killed_dir, "resume")
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout.splitlines()[-1] == reference.stdout.splitlines()[-1]

"""Sweep-history store, resource telemetry, compare, dashboard, lint.

Covers the observability surfaces added with the sweep-history
observatory: the append-only content-addressed history store (crash
safety, concurrency, digest rejection), per-run resource sampling on
the local / batched / remote execution paths, the ``report compare``
noise-band regression detector and its ``--check`` exit codes, the
member-weighted live-telemetry accounting, the strict Prometheus
exposition lint, and the self-contained HTML dashboard.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cpu.config import ARCH_CONFIGS
from repro.engine import Engine, RunRequest
from repro.engine.metrics import EngineMetrics
from repro.obs import history as obs_history
from repro.obs import resources as obs_resources
from repro.obs.live import InflightTracker, lint_prometheus, render_prometheus
from repro.obs.report import _chrome_track, compare_records
from repro.techniques.truncated import RunZ

from tests.test_distributed import FakeTask, make_ledger
from tests.test_engine import SCALE


def _record(
    batch_s=10.0, p50=0.01, p90=0.012, fingerprint="f",
    recorded_unix=1000.0, **stats
):
    """A minimal synthetic sweep record (not store-appended)."""
    doc = {
        "runs_requested": 4,
        "runs_launched": 4,
        "runs_succeeded": 4,
        "cache_hits": 0,
        "failures": 0,
        "batch_time_s": batch_s,
        "wall_time_s": batch_s,
        "resources": {"cpu_time_s": batch_s / 2, "max_rss_bytes": 10 << 20},
        "per_family": {
            "Run Z": {
                "phases": {
                    "detailed": {"p50_s": p50, "p90_s": p90, "max_s": p90},
                }
            }
        },
    }
    doc.update(stats)
    return obs_history.sweep_record(
        doc, fingerprint=fingerprint, identity={"backend": "numpy"},
        recorded_unix=recorded_unix,
    )


# -- store ---------------------------------------------------------------------


class TestHistoryStore:
    def test_append_read_roundtrip(self, tmp_path):
        record = _record()
        record_id = obs_history.append(tmp_path, record)
        loaded = obs_history.read_records(tmp_path)
        assert len(loaded) == 1
        assert loaded[0]["id"] == record_id
        assert loaded[0]["stats"]["batch_time_s"] == 10.0

    def test_id_is_content_addressed(self, tmp_path):
        a = _record(recorded_unix=111.0)
        b = _record(recorded_unix=111.0)
        assert obs_history.record_id(a) == obs_history.record_id(b)
        assert obs_history.record_id(_record(batch_s=11.0)) != (
            obs_history.record_id(a)
        )

    def test_duplicate_ids_deduplicate_on_read(self, tmp_path):
        record = _record(recorded_unix=5.0)
        obs_history.append(tmp_path, dict(record))
        obs_history.append(tmp_path, dict(record))
        assert len(obs_history.read_records(tmp_path)) == 1

    def test_truncated_tail_is_dropped(self, tmp_path):
        """A kill mid-append leaves a partial final line: the reader
        drops that record and keeps every earlier one."""
        first = obs_history.append(tmp_path, _record(recorded_unix=1.0))
        second = _record(recorded_unix=2.0)
        obs_history.append(tmp_path, second)
        shard = obs_history.history_dir(tmp_path) / (
            obs_history.record_id(second)[:2] + ".jsonl"
        )
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) - 30])  # torn final write
        survivors = {r["id"] for r in obs_history.read_records(tmp_path)}
        assert first in survivors or survivors == set()
        assert obs_history.record_id(second) not in survivors

    def test_tampered_record_is_rejected(self, tmp_path):
        record_id = obs_history.append(tmp_path, _record())
        shard = obs_history.history_dir(tmp_path) / (record_id[:2] + ".jsonl")
        doc = json.loads(shard.read_text().splitlines()[-1])
        doc["stats"]["batch_time_s"] = 999.0  # edited without re-hashing
        shard.write_text(json.dumps(doc) + "\n")
        assert obs_history.read_records(tmp_path) == []

    def test_concurrent_appends_all_land(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_append_worker, args=(str(tmp_path), i))
            for i in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        records = obs_history.read_records(tmp_path)
        assert len(records) == 4 * 8

    def test_resolve_by_negative_index_and_prefix(self, tmp_path):
        ids = [
            obs_history.append(tmp_path, _record(recorded_unix=float(i)))
            for i in range(3)
        ]
        records = obs_history.read_records(tmp_path)
        assert obs_history.resolve(records, "-1")["id"] == ids[-1]
        assert obs_history.resolve(records, "-3")["id"] == ids[0]
        assert obs_history.resolve(records, ids[1][:10])["id"] == ids[1]
        with pytest.raises(ValueError):
            obs_history.resolve(records, "-9")
        with pytest.raises(ValueError):
            obs_history.resolve(records, "zz-no-such")

    def test_grid_fingerprint_order_independent(self):
        assert obs_history.grid_fingerprint(["b", "a"]) == (
            obs_history.grid_fingerprint(("a", "b", "a"))
        )
        assert obs_history.grid_fingerprint(["a"]) != (
            obs_history.grid_fingerprint(["b"])
        )


def _append_worker(root: str, index: int) -> None:
    from repro.obs import history

    for j in range(8):
        history.append(
            Path(root), _record(recorded_unix=float(index * 100 + j))
        )


# -- resources -----------------------------------------------------------------


class TestResources:
    def test_sample_since_shape(self):
        baseline = obs_resources.snapshot()
        _ = sum(i * i for i in range(50_000))  # burn a little CPU
        sample = obs_resources.sample_since(baseline)
        assert sample is None or (
            sample["max_rss_bytes"] > 0
            and sample["cpu_s"] >= 0.0
            and sample["cpu_s"] == pytest.approx(
                sample["cpu_user_s"] + sample["cpu_system_s"], abs=1e-6
            )
        )

    def test_share_divides_cpu_keeps_rss(self):
        sample = {
            "max_rss_bytes": 100,
            "cpu_s": 8.0,
            "cpu_user_s": 6.0,
            "cpu_system_s": 2.0,
        }
        shared = obs_resources.share(sample, 4)
        assert shared["cpu_s"] == 2.0
        assert shared["max_rss_bytes"] == 100
        assert obs_resources.share(None, 4) is None

    def test_normalize_rejects_garbage(self):
        assert obs_resources.normalize(None) is None
        assert obs_resources.normalize("nope") is None
        assert obs_resources.normalize({"cpu_s": "NaN-ish"}) is None
        ok = obs_resources.normalize(
            {"max_rss_bytes": 7.0, "cpu_s": 1, "cpu_user_s": 1,
             "cpu_system_s": 0}
        )
        assert ok == {
            "max_rss_bytes": 7, "cpu_s": 1.0, "cpu_user_s": 1.0,
            "cpu_system_s": 0.0,
        }

    def test_metrics_fold(self):
        metrics = EngineMetrics()
        metrics.record_resources(
            {"max_rss_bytes": 10, "cpu_s": 1.0, "cpu_user_s": 0.75,
             "cpu_system_s": 0.25}
        )
        metrics.record_resources(
            {"max_rss_bytes": 30, "cpu_s": 0.5, "cpu_user_s": 0.5,
             "cpu_system_s": 0.0}
        )
        metrics.record_resources(None)  # ignored
        doc = metrics.snapshot()["resources"]
        assert doc["max_rss_bytes"] == 30
        assert doc["cpu_time_s"] == pytest.approx(1.5)
        assert doc["samples"] == 2
        assert doc["run_cpu_s"]["max"] == pytest.approx(1.0)


class TestResourceTelemetryEndToEnd:
    def _sweep(self, tmp_path, micro_workload, **engine_kwargs):
        engine = Engine(
            scale=SCALE, cache_dir=tmp_path / "cache", history=True,
            **engine_kwargs,
        )
        requests = [
            RunRequest(RunZ(500), micro_workload, config)
            for config in ARCH_CONFIGS[:3]
        ]
        engine.run_many(requests)
        engine.close()
        return engine

    def test_local_runs_sample_resources(self, tmp_path, micro_workload):
        engine = self._sweep(tmp_path, micro_workload, jobs=1)
        doc = engine.metrics.snapshot()["resources"]
        assert doc["samples"] == 3
        assert doc["max_rss_bytes"] > 0

    def test_batched_runs_share_resources(self, tmp_path, micro_workload):
        engine = self._sweep(
            tmp_path, micro_workload, jobs=1, batch_configs=3
        )
        doc = engine.metrics.snapshot()["resources"]
        assert doc["samples"] == 3  # every member attributed
        assert doc["max_rss_bytes"] > 0

    def test_remote_completion_carries_resources(self):
        ledger, clock, supply = make_ledger()
        agent = ledger.join("a1")
        supply.append(FakeTask("k1"))
        lease, _ = ledger.grant(agent)
        sample = {"max_rss_bytes": 5 << 20, "cpu_s": 0.25,
                  "cpu_user_s": 0.2, "cpu_system_s": 0.05}
        status = ledger.complete(
            agent, lease.lease_id, "k1",
            [{"family": "Stub", "cpi": 1.0}], 0.5, {},
            resources=sample,
        )
        assert status == "ok"
        events = ledger.collect()
        assert events[0][0] == "complete"
        assert events[0][6] == sample


# -- compare -------------------------------------------------------------------


class TestCompare:
    def test_identical_sweeps_have_no_regressions(self):
        result = compare_records(_record(), _record())
        assert result["regressions"] == []
        assert result["aligned"]

    def test_phase_slowdown_flagged(self):
        base = _record(p50=0.010, p90=0.011)
        cand = _record(p50=0.020, p90=0.022)
        result = compare_records(base, cand)
        assert any("detailed" in line for line in result["regressions"])

    def test_phase_jitter_within_band_passes(self):
        base = _record(p50=0.010, p90=0.014)  # wide within-sweep spread
        cand = _record(p50=0.013, p90=0.015)
        assert compare_records(base, cand)["regressions"] == []

    def test_batch_time_regression_flagged(self):
        result = compare_records(_record(batch_s=4.0), _record(batch_s=20.0))
        assert any("batch_time_s" in line for line in result["regressions"])

    def test_improvement_not_flagged(self):
        result = compare_records(_record(batch_s=20.0), _record(batch_s=4.0))
        assert result["regressions"] == []

    def test_fingerprint_mismatch_is_drift(self):
        result = compare_records(
            _record(fingerprint="aaa"), _record(fingerprint="bbb")
        )
        assert not result["aligned"]
        assert result["regressions"] == []

    def test_check_exit_codes(self, tmp_path):
        from repro.obs.report import main as report_main

        obs_history.append(tmp_path, _record(recorded_unix=1.0))
        obs_history.append(
            tmp_path, _record(recorded_unix=2.0, runs_requested=5)
        )
        obs_history.append(
            tmp_path, _record(recorded_unix=3.0, p50=0.5, p90=0.55,
                              batch_s=100.0)
        )
        common = ["--cache-dir", str(tmp_path), "--check"]
        assert report_main(["compare", "-3", "-2"] + common) == 0
        assert report_main(["compare", "-3", "-1"] + common) == 1
        assert report_main(["compare", "-3", "nonexistent"] + common) == 2


# -- engine integration --------------------------------------------------------


class TestEngineHistory:
    def _run(self, cache_dir, micro_workload, history):
        engine = Engine(
            scale=SCALE, jobs=1, cache_dir=cache_dir, history=history
        )
        engine.run_many(
            [RunRequest(RunZ(500), micro_workload, ARCH_CONFIGS[0])]
        )
        engine.close()
        return engine

    @staticmethod
    def _store_snapshot(cache_dir):
        return {
            str(p.relative_to(cache_dir)): p.read_bytes()
            for p in sorted(Path(cache_dir).glob("v*/??/*.json"))
        }

    def test_sweep_appends_one_record(self, tmp_path, micro_workload):
        engine = self._run(tmp_path / "c", micro_workload, history=True)
        assert engine.last_history_id is not None
        records = obs_history.read_records(tmp_path / "c")
        assert len(records) == 1
        assert records[0]["sweep"]["backend"] == engine._default_backend
        assert records[0]["stats"]["runs_succeeded"] == 1

    def test_same_grid_same_fingerprint(self, tmp_path, micro_workload):
        self._run(tmp_path / "c", micro_workload, history=True)
        self._run(tmp_path / "c", micro_workload, history=True)
        records = obs_history.read_records(tmp_path / "c")
        assert len(records) == 2
        prints = {r["sweep"]["fingerprint"] for r in records}
        assert len(prints) == 1

    def test_disabled_records_nothing(self, tmp_path, micro_workload):
        engine = self._run(tmp_path / "c", micro_workload, history=False)
        assert engine.last_history_id is None
        assert not obs_history.history_dir(tmp_path / "c").exists()

    def test_store_bytes_identical_with_and_without(
        self, tmp_path, micro_workload
    ):
        self._run(tmp_path / "on", micro_workload, history=True)
        self._run(tmp_path / "off", micro_workload, history=False)
        on = self._store_snapshot(tmp_path / "on")
        off = self._store_snapshot(tmp_path / "off")
        assert on and on == off

    def test_env_var_disables(self, tmp_path, micro_workload, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY", "0")
        engine = self._run(tmp_path / "c", micro_workload, history=None)
        assert engine.last_history_id is None


# -- live telemetry: member weighting + prometheus lint ------------------------


class TestMemberWeighting:
    def test_tracker_counts_weight_batches(self):
        tracker = InflightTracker()
        tracker.set_queue(7)
        tracker.start(1, key="run-a", runs=4)
        tracker.start(2, key="run-b")
        counts = tracker.counts()
        assert counts["in_flight"] == 5
        assert counts["queued"] == 7
        doc = tracker.snapshot()
        assert doc["in_flight_runs"] == 5


class TestPrometheus:
    def _metrics(self):
        metrics = EngineMetrics()
        metrics.runs_requested = 3
        metrics.record_resources(
            {"max_rss_bytes": 1 << 20, "cpu_s": 0.5, "cpu_user_s": 0.5,
             "cpu_system_s": 0.0}
        )
        return metrics.snapshot()

    def test_every_series_has_preamble(self):
        text = render_prometheus(self._metrics(), {"in_flight": 1, "queued": 2})
        names = set()
        for line in text.splitlines():
            if line and not line.startswith("#"):
                names.add(line.split("{")[0].split(" ")[0])
        for name in names:
            assert f"# HELP {name} " in text, name
            assert f"# TYPE {name} gauge" in text, name
        assert "repro_sweep_run_rss_bytes" in names
        assert "repro_sweep_run_cpu_seconds" in names

    def test_render_passes_lint(self):
        text = render_prometheus(
            self._metrics(), {"in_flight": 0, "queued": 0},
            [{"agent": "a1", "runs": 2, "wall_time_s": 1.0,
              "artifact_hits": 3, "artifact_misses": 1}],
        )
        assert lint_prometheus(text) == []

    def test_lint_catches_problems(self):
        assert lint_prometheus("repro_x 1\n")  # no preamble
        assert lint_prometheus(
            "# HELP repro_x h\n# TYPE repro_x gauge\nrepro_x notanumber\n"
        )
        assert lint_prometheus(  # not an exposition-format type kind
            "# HELP repro_x h\n# TYPE repro_x gauges\nrepro_x 1\n"
        )
        assert lint_prometheus(  # interleaved groups
            "# HELP a h\n# TYPE a gauge\na 1\n"
            "# HELP b h\n# TYPE b gauge\nb 1\na 2\n"
        )
        assert lint_prometheus(  # preamble without samples
            "# HELP a h\n# TYPE a gauge\n"
        )


# -- chrome export routing -----------------------------------------------------


class TestChromeTracks:
    def test_remote_events_route_to_agent_tracks(self):
        remote_phase = {
            "name": "remote_phase", "worker": "supervisor",
            "attrs": {"agent": "a1", "phase": "detailed"},
        }
        remote_run = {
            "name": "remote_run", "worker": "supervisor",
            "attrs": {"agent": "a2"},
        }
        local = {"name": "run", "worker": "w3", "attrs": {}}
        assert _chrome_track(remote_phase) == "agent:a1"
        assert _chrome_track(remote_run) == "agent:a2"
        assert _chrome_track(local) == "w3"


# -- dashboard -----------------------------------------------------------------


class TestDashboard:
    def test_self_contained_html(self, tmp_path):
        obs_history.append(tmp_path, _record(recorded_unix=1.0))
        from repro.obs.dashboard import render_html

        text = render_html(tmp_path)
        assert "<svg" in text and "</html>" in text
        for banned in ("http://", "https://", "src=", "href=", "@import"):
            assert banned not in text, banned

    def test_cli_writes_file(self, tmp_path):
        from repro.obs.report import main as report_main

        obs_history.append(tmp_path, _record())
        out = tmp_path / "dash.html"
        code = report_main(
            ["dashboard", "--cache-dir", str(tmp_path), "--html", str(out)]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")


class TestHistoryCLI:
    def test_history_listing(self, tmp_path, capsys):
        from repro.obs.report import main as report_main

        obs_history.append(tmp_path, _record())
        assert report_main(["history", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "batch_s" in out

    def test_legacy_bench_records_still_list(self, tmp_path, capsys):
        """Stores written before the ``bench`` kind was retired keep
        listing: the reader and table are kind-agnostic."""
        from repro.obs.report import main as report_main

        obs_history.append(tmp_path, {
            "kind": "bench", "recorded_unix": 1.0, "label": None,
            "sweep": {"host": "h", "suite": "batch"},
            "bench": {"suite": "batch", "report": {"speedup_cold": 3.0}},
        })
        assert report_main(["history", "--cache-dir", str(tmp_path)]) == 0
        assert "bench" in capsys.readouterr().out

    def test_empty_store_exits_nonzero(self, tmp_path):
        from repro.obs.report import main as report_main

        assert report_main(["history", "--cache-dir", str(tmp_path)]) == 1

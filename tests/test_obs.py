"""Tests for the observability layer: tracer, phase ledger, live
telemetry, metrics histograms and the trace report tooling."""

import json
import threading

import pytest

from repro.cpu.config import ARCH_CONFIGS
from repro.engine import Engine, RunRequest
from repro.engine.metrics import EngineMetrics, ProgressReporter, _percentile
from repro.files import read_jsonl
from repro.obs import live, phases, trace
from repro.obs import report as obs_report
from repro.scale import Scale
from repro.techniques.truncated import RunZ
from repro.workloads.spec import get_workload

SCALE = Scale(2)


@pytest.fixture()
def workload():
    return get_workload("gzip")


@pytest.fixture()
def tracer_dir(tmp_path):
    events = tmp_path / "events"
    trace.activate(events, worker="test")
    yield events
    trace.deactivate()


def _events_for(events_dir, worker="test"):
    return trace.read_events(events_dir / f"{worker}.jsonl")


class TestTracer:
    def test_disabled_by_default(self):
        assert not trace.active()
        # All entry points must be safe no-ops when inactive.
        with trace.span("anything", run="x"):
            pass
        trace.event("anything")
        trace.emit_span("anything", 0.0, 1.0)

    def test_meta_line_first(self, tracer_dir):
        events = _events_for(tracer_dir)
        assert events[0]["event"] == "meta"
        assert events[0]["version"] == trace.TRACE_SCHEMA_VERSION
        assert events[0]["worker"] == "test"

    def test_span_nesting_records_parent(self, tracer_dir):
        with trace.span("outer") as outer:
            with trace.span("inner"):
                pass
        spans = {
            e["name"]: e
            for e in _events_for(tracer_dir)
            if e["event"] == "span"
        }
        assert spans["inner"]["parent"] == outer.span_id
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["ts"] >= spans["outer"]["ts"]
        assert spans["inner"]["dur"] <= spans["outer"]["dur"]

    def test_point_event_nests_under_open_span(self, tracer_dir):
        with trace.span("outer") as outer:
            trace.event("retry", kind="timeout")
        points = [
            e for e in _events_for(tracer_dir) if e["event"] == "point"
        ]
        assert points[0]["parent"] == outer.span_id
        assert points[0]["attrs"]["kind"] == "timeout"

    def test_context_stamped_on_events(self, tracer_dir):
        trace.set_context(run="abc123", family="Stub")
        with trace.span("phase", extra=1):
            pass
        trace.clear_context()
        with trace.span("later"):
            pass
        spans = {
            e["name"]: e
            for e in _events_for(tracer_dir)
            if e["event"] == "span"
        }
        assert spans["phase"]["attrs"] == {
            "run": "abc123", "family": "Stub", "extra": 1,
        }
        assert "attrs" not in spans["later"]

    def test_explicit_activation_and_restore(self, tmp_path):
        outer = trace.activate(tmp_path / "outer", worker="outer")
        assert outer is None
        outer_tracer = trace._current()
        previous = trace.activate(tmp_path / "inner", worker="inner")
        assert previous is outer_tracer
        with trace.span("inner-span"):
            pass
        trace.deactivate(previous)
        assert trace._current() is outer_tracer
        with trace.span("outer-span"):
            pass
        trace.deactivate()
        assert not trace.active()

        def spans(worker):
            path = tmp_path / worker / f"{worker}.jsonl"
            return [
                e["name"] for e in trace.read_events(path)
                if e["event"] == "span"
            ]

        assert spans("outer") == ["outer-span"]
        assert spans("inner") == ["inner-span"]

    def test_sequence_numbers_monotonic(self, tracer_dir):
        for index in range(5):
            trace.event("tick", index=index)
        seqs = [e["seq"] for e in _events_for(tracer_dir)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestReadAndMerge:
    def test_read_tolerates_truncated_and_garbage_lines(self, tmp_path):
        path = tmp_path / "w1.jsonl"
        good = json.dumps({"event": "point", "name": "ok", "ts": 1.0})
        path.write_text(
            good + "\nnot json at all\n" + good[: len(good) // 2],
            encoding="utf-8",
        )
        events = trace.read_events(path)
        assert len(events) == 1
        assert events[0]["name"] == "ok"

    def test_read_missing_file(self, tmp_path):
        assert trace.read_events(tmp_path / "absent.jsonl") == []

    def test_merge_orders_across_workers_by_span_start(self, tmp_path):
        # Worker clocks interleave: a's spans start at t=1 and t=5,
        # b's at t=3.  The merge must sort by monotonic timestamp
        # across workers and by sequence within one worker.
        def write(worker, records):
            lines = [json.dumps(r) for r in records]
            (tmp_path / f"{worker}.jsonl").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )

        write("a", [
            {"event": "meta", "worker": "a", "seq": 0},
            {"event": "span", "name": "a1", "ts": 1.0, "worker": "a", "seq": 1},
            {"event": "span", "name": "a2", "ts": 5.0, "worker": "a", "seq": 2},
        ])
        write("b", [
            {"event": "meta", "worker": "b", "seq": 0},
            {"event": "span", "name": "b1", "ts": 3.0, "worker": "b", "seq": 1},
        ])
        merged = trace.merge_events(tmp_path)
        names = [e.get("name") for e in merged if e["event"] == "span"]
        assert names == ["a1", "b1", "a2"]
        # Meta lines (no ts) sort ahead of all spans.
        assert [e["event"] for e in merged[:2]] == ["meta", "meta"]

    def test_merge_within_worker_keeps_emit_order(self, tmp_path):
        # Equal timestamps: the per-worker sequence number breaks the
        # tie, so a worker's own events never reorder.
        records = [
            {"event": "span", "name": f"s{i}", "ts": 2.0, "worker": "w", "seq": i}
            for i in range(10)
        ]
        (tmp_path / "w.jsonl").write_text(
            "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
        )
        merged = trace.merge_events(tmp_path)
        assert [e["name"] for e in merged] == [f"s{i}" for i in range(10)]

    def test_merge_writes_atomic_output(self, tmp_path):
        events_dir = tmp_path / "events"
        events_dir.mkdir()
        (events_dir / "w.jsonl").write_text(
            json.dumps({"event": "span", "name": "x", "ts": 1.0, "seq": 0})
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "trace.jsonl"
        assert trace.merge(events_dir, out) == 1
        assert len(trace.read_events(out)) == 1
        assert not list(tmp_path.glob(".trace.jsonl-*"))  # no temp litter

    def test_merge_empty_directory_still_writes_file(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert trace.merge(tmp_path / "missing", out) == 0
        assert out.exists()
        assert out.read_text() == ""

    def test_validate_events(self):
        good = [
            {"event": "meta", "worker": "w", "pid": 1, "mono": 0.0, "wall": 0.0},
            {"event": "span", "name": "x", "ts": 1.0, "dur": 0.5,
             "worker": "w", "pid": 1, "seq": 1},
        ]
        assert trace.validate_events(good) == []
        problems = trace.validate_events([
            {"event": "span", "name": "x"},            # missing keys
            {"event": "mystery"},                      # unknown kind
            {"event": "span", "name": "x", "ts": 1.0, "dur": -2.0,
             "worker": "w", "pid": 1, "seq": 1},       # negative duration
        ])
        assert len(problems) == 3


class TestPhases:
    def test_record_accumulates_and_drain_clears(self):
        phases.record("warming", 1.5, 100)
        phases.record("warming", 0.5, 50)
        phases.record("detailed", 2.0, 10)
        drained = phases.drain()
        assert drained["warming"] == {"seconds": 2.0, "instructions": 150}
        assert drained["detailed"]["instructions"] == 10
        assert phases.drain() == {}

    def test_measured_times_block(self):
        with phases.measured("detailed", instructions=42):
            pass
        drained = phases.drain()
        assert drained["detailed"]["instructions"] == 42
        assert drained["detailed"]["seconds"] >= 0.0

    def test_measured_notifies_phase_start(self):
        seen = []
        phases.set_notifier(seen.append)
        try:
            with phases.measured("warming"):
                pass
            with phases.measured("detailed"):
                pass
        finally:
            phases.set_notifier(None)
        phases.drain()
        assert seen == ["warming", "detailed"]

    def test_notifier_exceptions_swallowed(self):
        def broken(phase):
            raise RuntimeError("observer bug")

        phases.set_notifier(broken)
        try:
            with phases.measured("warming"):
                pass
        finally:
            phases.set_notifier(None)
        assert "warming" in phases.drain()

    def test_measured_emits_trace_span(self, tmp_path):
        trace.activate(tmp_path, worker="test")
        try:
            with phases.measured("warming", instructions=7, backend="python"):
                pass
        finally:
            trace.deactivate()
        phases.drain()
        spans = [
            e
            for e in trace.read_events(tmp_path / "test.jsonl")
            if e["event"] == "span"
        ]
        assert spans[0]["name"] == "warming"
        assert spans[0]["attrs"]["instructions"] == 7
        assert spans[0]["attrs"]["backend"] == "python"


class TestMetricsAggregation:
    def test_percentile_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert _percentile(samples, 0.5) == 5.0
        assert _percentile(samples, 0.9) == 9.0
        assert _percentile([], 0.5) == 0.0

    def test_phase_histograms_in_snapshot(self):
        metrics = EngineMetrics()
        for wall in (1.0, 2.0, 3.0):
            metrics.record_execution(
                "Stub", wall, 100,
                phase_times={"warming": {"seconds": wall / 2, "instructions": 50}},
                backend="numpy",
            )
        snap = metrics.snapshot()
        family = snap["per_family"]["Stub"]
        assert family["wall"]["max_s"] == 3.0
        assert family["phases"]["warming"]["samples"] == 3
        assert family["phases"]["warming"]["seconds"] == 3.0
        assert family["phases"]["warming"]["p50_s"] == 1.0
        backend = snap["per_backend"]["numpy"]
        assert backend["runs"] == 3
        assert backend["wall"]["p90_s"] == 3.0

    def test_record_phases_without_run(self):
        metrics = EngineMetrics()
        metrics.record_phases(
            "SimPoint", {"analysis": {"seconds": 4.0, "instructions": 0}}
        )
        snap = metrics.snapshot()
        assert snap["per_family"]["SimPoint"]["phases"]["analysis"]["seconds"] == 4.0
        assert snap["per_family"]["SimPoint"]["runs"] == 0

    def test_failures_by_kind(self):
        metrics = EngineMetrics()
        metrics.record_failure("run-a", "timeout", "t", 2, False)
        metrics.record_failure("run-b", "timeout", "t", 2, True)
        metrics.record_failure("run-c", "crash", "c", 1, False)
        snap = metrics.snapshot()
        assert snap["failures_by_kind"] == {"crash": 1, "timeout": 2}
        assert metrics.timeouts == 2
        assert metrics.quarantined == 1

    def test_concurrent_write_json_never_tears(self, tmp_path):
        """Concurrent writers racing on one stats path must always
        leave a complete, parseable document (atomic replace)."""
        path = tmp_path / "engine-stats.json"
        errors = []
        stop = threading.Event()

        def writer(tag):
            metrics = EngineMetrics()
            metrics.record_execution(f"F{tag}", 1.0, 100)
            for _ in range(30):
                try:
                    metrics.write_json(path, extra={"writer": tag})
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        def reader():
            while not stop.is_set():
                if path.exists():
                    try:
                        json.loads(path.read_text(encoding="utf-8"))
                    except json.JSONDecodeError as exc:  # pragma: no cover
                        errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(tag,)) for tag in range(4)
        ]
        observer = threading.Thread(target=reader)
        observer.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        observer.join()
        assert not errors
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["writer"] in range(4)
        assert not list(tmp_path.glob(".engine-stats.json-*"))


class TestProgressReporter:
    def _reporter(self, stream, **kwargs):
        kwargs.setdefault("enabled", True)
        kwargs.setdefault("min_interval", 3600.0)
        return ProgressReporter(stream=stream, **kwargs)

    def test_final_line_bypasses_throttle(self, capsys):
        import io

        stream = io.StringIO()
        reporter = self._reporter(stream)
        metrics = EngineMetrics()
        reporter.update(1, 3, metrics)            # first line emits
        reporter.update(2, 3, metrics)            # throttled
        reporter.update(3, 3, metrics)            # final: must emit
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert "3/3 runs" in lines[-1]

    def test_in_flight_and_queued_rendered(self):
        import io

        stream = io.StringIO()
        reporter = self._reporter(stream)
        reporter.update(0, 4, EngineMetrics(), in_flight=2, queued=1)
        line = stream.getvalue()
        assert "in-flight 2" in line
        assert "queued 1" in line

    def test_eta_from_rolling_wall_times(self):
        import io

        stream = io.StringIO()
        reporter = self._reporter(stream, jobs=2)
        for _ in range(4):
            reporter.update(0, 10, EngineMetrics(), wall=2.0)
        # mean 2s x 8 remaining / 2 jobs = 8s
        assert reporter.eta_seconds(8) == pytest.approx(8.0)
        reporter.update(1, 10, EngineMetrics())
        assert "eta" in stream.getvalue()

    def test_disabled_reporter_still_collects_walls(self):
        reporter = ProgressReporter(enabled=False)
        reporter.update(0, 5, EngineMetrics(), wall=1.0)
        assert reporter.eta_seconds(5) is not None

    def test_eta_none_before_any_wall(self):
        reporter = ProgressReporter(enabled=False)
        assert reporter.eta_seconds(5) is None


class TestInflightTracker:
    def test_lifecycle(self):
        tracker = live.InflightTracker()
        tracker.start(0, key="abc", description="run a", attempt=1, pid=42)
        tracker.set_phase(0, "warming")
        tracker.set_queue(3)
        tracker.set_progress(1, 5)
        snap = tracker.snapshot()
        assert snap["queued"] == 3
        assert snap["done"] == 1 and snap["total"] == 5
        (entry,) = snap["in_flight"]
        assert entry["key"] == "abc"
        assert entry["phase"] == "warming"
        assert entry["pid"] == 42
        assert entry["elapsed_s"] >= 0
        tracker.finish(0)
        assert tracker.counts() == {"in_flight": 0, "queued": 3}

    def test_sync_replaces_view(self):
        tracker = live.InflightTracker()
        tracker.start(0, key="stale")
        tracker.sync(
            [{"slot": 1, "key": "fresh", "started": 0.0}], queued=7
        )
        snap = tracker.snapshot()
        assert [run["key"] for run in snap["in_flight"]] == ["fresh"]
        assert snap["queued"] == 7

    def test_phase_on_unknown_slot_ignored(self):
        tracker = live.InflightTracker()
        tracker.set_phase(99, "warming")  # must not raise
        tracker.set_pid(99, 1)
        tracker.finish(99)


class TestPrometheus:
    def test_render_counters_and_labels(self):
        metrics = EngineMetrics()
        metrics.record_execution("Stub", 1.5, 100)
        metrics.record_failure("run-a", "timeout", "t", 2, False)
        text = live.render_prometheus(
            metrics.snapshot(), {"in_flight": 2, "queued": 4}
        )
        assert "repro_sweep_runs_succeeded 1" in text
        assert 'repro_sweep_failures_by_kind{kind="timeout"} 1' in text
        assert 'repro_sweep_family_runs{family="Stub"} 1' in text
        assert "repro_sweep_in_flight 2" in text
        assert "repro_sweep_queued 4" in text
        assert text.endswith("\n")

    def test_label_escaping(self):
        text = live.render_prometheus(
            {"failures_by_kind": {'we"ird\\kind': 1}}, {}
        )
        assert '{kind="we\\"ird\\\\kind"}' in text


class TestLiveMonitor:
    def test_write_once_produces_both_files(self, tmp_path):
        tracker = live.InflightTracker()
        tracker.start(0, key="abc", description="run a")
        tracker.set_progress(2, 9)
        monitor = live.LiveMonitor(
            tracker,
            live_path=tmp_path / "live.json",
            metrics_path=tmp_path / "metrics.prom",
            metrics_source=lambda: EngineMetrics().snapshot(),
        )
        monitor.write_once()
        document = json.loads((tmp_path / "live.json").read_text())
        assert document["version"] == live.LIVE_SCHEMA_VERSION
        assert document["done"] == 2 and document["total"] == 9
        assert document["in_flight"][0]["key"] == "abc"
        assert "runs_succeeded" in document["metrics"]
        assert "repro_sweep_in_flight 1" in (
            tmp_path / "metrics.prom"
        ).read_text()

    def test_metrics_source_failure_tolerated(self, tmp_path):
        def broken():
            raise RuntimeError("source bug")

        monitor = live.LiveMonitor(
            live.InflightTracker(),
            live_path=tmp_path / "live.json",
            metrics_source=broken,
        )
        monitor.write_once()
        assert json.loads((tmp_path / "live.json").read_text())["metrics"] == {}

    def test_start_stop(self, tmp_path):
        monitor = live.LiveMonitor(
            live.InflightTracker(),
            live_path=tmp_path / "live.json",
            interval=0.05,
        )
        monitor.start()
        monitor.stop()
        assert (tmp_path / "live.json").exists()


def _run_sweep(cache_dir, workload, trace_enabled, jobs=1):
    engine = Engine(
        scale=SCALE, jobs=jobs, cache_dir=cache_dir, trace=trace_enabled
    )
    try:
        return engine.run_many(
            [
                RunRequest(RunZ(300), workload, ARCH_CONFIGS[0]),
                RunRequest(RunZ(500), workload, ARCH_CONFIGS[0]),
            ]
        )
    finally:
        engine.close()


class TestEngineTracing:
    def test_trace_requires_cache_dir(self):
        with pytest.raises(ValueError):
            Engine(scale=SCALE, trace=True)

    def test_traced_sweep_writes_merged_trace(self, tmp_path, workload):
        engine = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path, trace=True)
        results = engine.run_many(
            [RunRequest(RunZ(300), workload, ARCH_CONFIGS[0])]
        )
        engine.write_stats()
        merged = engine.merged_trace_path()
        engine.close()
        assert merged.exists()
        events = trace.read_events(merged)
        assert trace.validate_events(events) == []
        names = {e.get("name") for e in events if e["event"] == "span"}
        assert {"batch", "plan", "dedup", "run", "detailed"} <= names
        # The executed result carries its phase breakdown...
        assert "detailed" in results[0].phase_times
        # ...and the stats file aggregates it into histograms.
        document = json.loads((tmp_path / "engine-stats.json").read_text())
        family = document["per_family"]["Run Z"]
        assert family["phases"]["detailed"]["samples"] == 1
        assert document["trace"] is True

    def test_run_spans_tagged_with_key(self, tmp_path, workload):
        engine = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path, trace=True)
        engine.run_many([RunRequest(RunZ(300), workload, ARCH_CONFIGS[0])])
        merged = engine.merged_trace_path()
        engine.close()
        run_spans = [
            e
            for e in trace.read_events(merged)
            if e["event"] == "span" and e["name"] == "run"
        ]
        assert run_spans
        attrs = run_spans[0]["attrs"]
        assert attrs["family"] == "Run Z"
        assert len(attrs["run"]) == 64  # the content key

    def test_live_json_written(self, tmp_path, workload):
        engine = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path, trace=True)
        engine.run_many([RunRequest(RunZ(300), workload, ARCH_CONFIGS[0])])
        live_path = engine.store.directory / live.LIVE_FILENAME
        engine.close()
        document = json.loads(live_path.read_text())
        assert document["total"] == 1 and document["done"] == 1
        assert document["in_flight"] == []

    def test_metrics_file_written_without_trace(self, tmp_path, workload):
        metrics_file = tmp_path / "out" / "metrics.prom"
        engine = Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path / "cache",
            metrics_file=metrics_file,
        )
        engine.run_many([RunRequest(RunZ(300), workload, ARCH_CONFIGS[0])])
        engine.close()
        assert "repro_sweep_runs_succeeded 1" in metrics_file.read_text()

    def test_tracing_preserves_results_and_store_bytes(
        self, tmp_path, workload
    ):
        """Instrumentation must be parity-safe: identical statistics and
        byte-identical persisted stores with tracing on and off."""
        traced = _run_sweep(tmp_path / "traced", workload, True)
        plain = _run_sweep(tmp_path / "plain", workload, False)
        for a, b in zip(traced, plain):
            assert a.stats.counters() == b.stats.counters()
            assert a.regions == b.regions

        def shards(root):
            return sorted(
                p.relative_to(root) for p in root.glob("v*/??/*.json")
            )
        traced_files = shards(tmp_path / "traced")
        assert traced_files == shards(tmp_path / "plain")
        assert traced_files  # the sweep persisted something
        for rel in traced_files:
            assert (tmp_path / "traced" / rel).read_bytes() == (
                tmp_path / "plain" / rel
            ).read_bytes()

    def test_phase_times_not_persisted(self, tmp_path, workload):
        results = _run_sweep(tmp_path, workload, True)
        assert results[0].phase_times
        payload = results[0].to_payload()
        assert "phase_times" not in json.dumps(payload)
        # A cache hit therefore comes back without phase_times, but
        # still equal to the executed result.
        engine = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path, trace=False)
        cached = engine.run_many(
            [RunRequest(RunZ(300), workload, ARCH_CONFIGS[0])]
        )
        engine.close()
        assert cached[0].phase_times == {}
        assert cached[0].stats.counters() == results[0].stats.counters()

    def test_parallel_traced_sweep(self, tmp_path, workload):
        engine = Engine(scale=SCALE, jobs=2, cache_dir=tmp_path, trace=True)
        results = engine.run_many(
            [
                RunRequest(RunZ(200 + 100 * i), workload, ARCH_CONFIGS[0])
                for i in range(3)
            ]
        )
        merged = engine.merged_trace_path()
        engine.close()
        assert len(results) == 3
        events = trace.read_events(merged)
        assert trace.validate_events(events) == []
        run_spans = [
            e for e in events if e["event"] == "span" and e["name"] == "run"
        ]
        assert len(run_spans) == 3
        # Pool workers wrote their own files; queue waits were stamped
        # in the supervisor and measured in the worker.
        workers = {e["worker"] for e in run_spans}
        assert "supervisor" not in workers
        assert any(
            e["event"] == "span" and e["name"] == "queue_wait" for e in events
        )

    def test_stale_trace_cleared_on_fresh_sweep(self, tmp_path, workload):
        _run_sweep(tmp_path, workload, True)
        first = trace.read_events(tmp_path / "v1" / trace.MERGED_FILENAME)
        # A second traced sweep over a warm store executes nothing; its
        # trace must describe this sweep, not accumulate the last one.
        engine = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path, trace=True)
        engine.run_many([RunRequest(RunZ(300), workload, ARCH_CONFIGS[0])])
        merged = engine.merged_trace_path()
        engine.close()
        second = trace.read_events(merged)
        assert sum(1 for e in second if e.get("name") == "run") == 0
        assert sum(1 for e in first if e.get("name") == "run") == 2


def _synthetic_events():
    return [
        {"event": "meta", "worker": "supervisor", "pid": 1, "mono": 0.0,
         "wall": 0.0, "seq": 0},
        {"event": "span", "name": "batch", "ts": 0.0, "dur": 10.0,
         "worker": "supervisor", "pid": 1, "seq": 3, "id": 3, "parent": None,
         "attrs": {"launched": 2}},
        {"event": "span", "name": "analysis", "ts": 0.1, "dur": 2.0,
         "worker": "supervisor", "pid": 1, "seq": 1, "id": 1, "parent": None,
         "attrs": {"family": "SimPoint", "workload": "gzip.reference"}},
        {"event": "span", "name": "run", "ts": 2.5, "dur": 7.0, "worker": "w2",
         "pid": 2, "seq": 1, "id": 1, "parent": None,
         "attrs": {"run": "aaaa1111", "family": "Run Z", "benchmark": "gzip"}},
        {"event": "span", "name": "detailed", "ts": 2.6, "dur": 6.0,
         "worker": "w2", "pid": 2, "seq": 2, "id": 2, "parent": 1,
         "attrs": {"run": "aaaa1111", "family": "Run Z", "benchmark": "gzip",
                   "backend": "numpy", "instructions": 1000}},
        {"event": "point", "name": "retry", "ts": 3.0, "worker": "supervisor",
         "pid": 1, "seq": 2, "parent": None,
         "attrs": {"run": "aaaa1111", "kind": "timeout"}},
    ]


class TestReport:
    def test_attribution_rows_group_and_sort(self):
        rows = obs_report.attribution_rows(_synthetic_events())
        assert rows[0][:4] == ["Run Z", "gzip", "detailed", "numpy"]
        assert rows[0][4] == pytest.approx(6.0)
        assert rows[0][5] == 1000
        # The supervisor-side analysis groups under its workload.
        assert any(row[2] == "analysis" for row in rows)
        # Engine lifecycle spans stay out of the table.
        assert not any(row[2] in ("batch", "run") for row in rows)

    def test_agent_rows_fold_phases_and_artifact_counters(self):
        events = _synthetic_events() + [
            {"event": "span", "name": "remote_run", "ts": 4.0, "dur": 1.5,
             "worker": "supervisor", "pid": 1, "seq": 4, "id": 4,
             "parent": None, "attrs": {"agent": "a1", "run": "bbbb2222"}},
            {"event": "point", "name": "remote_phase", "ts": 4.2,
             "worker": "supervisor", "pid": 1, "seq": 5, "parent": None,
             "attrs": {"agent": "a1", "phase": "timing_batch"}},
            {"event": "point", "name": "remote_phase", "ts": 4.3,
             "worker": "supervisor", "pid": 1, "seq": 6, "parent": None,
             "attrs": {"agent": "a1", "phase": "trace_load"}},
        ]
        per_agent = {"a1": {"runs": 1, "wall_time_s": 1.5,
                            "artifact_hits": 2, "artifact_misses": 3}}
        rows = obs_report.agent_rows(events, per_agent)
        assert rows == [["a1", 1, 1.5, 2, 2, 3]]
        # Without the stats table the counters default to zero.
        assert obs_report.agent_rows(events) == [["a1", 1, 1.5, 2, 0, 0]]

    def test_coverage_counts_runs_and_supervisor_work(self):
        stats = obs_report.coverage(_synthetic_events())
        assert stats["batch_s"] == pytest.approx(10.0)
        assert stats["run_s"] == pytest.approx(7.0)
        assert stats["supervisor_s"] == pytest.approx(2.0)
        assert stats["accounted"] == pytest.approx(0.9)

    def test_coverage_caps_at_one(self):
        events = _synthetic_events()
        for event in events:
            if event.get("name") == "run":
                event["dur"] = 50.0
        assert obs_report.coverage(events)["accounted"] == 1.0

    def test_replay_filters_by_run_prefix(self):
        lines = obs_report.replay_lines(_synthetic_events(), "aaaa")
        assert len(lines) == 3  # run + detailed spans, retry point
        assert any("retry" in line and "(event)" in line for line in lines)
        assert obs_report.replay_lines(_synthetic_events(), "zzzz") == []

    def test_chrome_trace_structure(self):
        document = obs_report.chrome_trace(_synthetic_events())
        events = document["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {"supervisor", "w2"}
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["ts"] >= 0 for e in spans)
        run = next(e for e in spans if e["name"] == "run")
        assert run["dur"] == pytest.approx(7.0 * 1e6)
        assert any(e["ph"] == "i" for e in events)

    def test_load_trace_falls_back_to_events_dir(self, tmp_path):
        events_dir = tmp_path / "v1" / trace.EVENTS_SUBDIR
        events_dir.mkdir(parents=True)
        (events_dir / "w.jsonl").write_text(
            json.dumps({"event": "span", "name": "x", "ts": 1.0, "seq": 0})
            + "\n",
            encoding="utf-8",
        )
        events = obs_report.load_trace(tmp_path)
        assert [e["name"] for e in events] == ["x"]


class TestReportCli:
    @pytest.fixture()
    def traced_cache(self, tmp_path, workload):
        _run_sweep(tmp_path, workload, True)
        return tmp_path

    def test_report_renders_attribution(self, traced_cache, capsys):
        from repro.experiments.__main__ import main

        assert main(["report", "--cache-dir", str(traced_cache)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "detailed" in out
        assert "accounted" in out

    def test_report_check_passes(self, traced_cache, capsys):
        from repro.experiments.__main__ import main

        assert main(
            ["report", "--cache-dir", str(traced_cache), "--check",
             "--min-coverage", "0.9"]
        ) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_report_replays_run(self, traced_cache, capsys):
        from repro.experiments.__main__ import main

        merged = traced_cache / "v1" / trace.MERGED_FILENAME
        run_key = next(
            e["attrs"]["run"]
            for e in trace.read_events(merged)
            if e.get("name") == "run"
        )
        assert main(
            ["report", "--cache-dir", str(traced_cache), "--run", run_key[:8]]
        ) == 0
        assert "event history" in capsys.readouterr().out

    def test_report_chrome_export(self, traced_cache, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out_file = tmp_path / "viewer" / "trace-viewer.json"
        assert main(
            ["report", "--cache-dir", str(traced_cache),
             "--chrome", str(out_file)]
        ) == 0
        document = json.loads(out_file.read_text())
        assert document["traceEvents"]

    def test_report_run_without_trace_reads_journal(
        self, tmp_path, workload, monkeypatch, capsys
    ):
        from repro.engine.faults import FAULT_PLAN_ENV_VAR
        from repro.experiments.__main__ import main

        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "exc@0")
        _run_sweep(tmp_path, workload, False)
        assert not obs_report.load_trace(tmp_path)
        key = next(
            record["key"]
            for record in read_jsonl(tmp_path / "journal.jsonl")
            if record["event"] == "retry"
        )
        assert main(
            ["report", "--cache-dir", str(tmp_path), "--run", key[:8]]
        ) == 0
        out = capsys.readouterr().out
        events = [line.split()[0] for line in out.splitlines()[1:]]
        assert events == ["planned", "retry", "completed"], out
        assert "wall_s=" in out

    def test_report_without_trace_fails(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["report", "--cache-dir", str(tmp_path)]) == 1
        assert "no trace events" in capsys.readouterr().err

    def test_report_unknown_run_fails(self, traced_cache, capsys):
        from repro.experiments.__main__ import main

        assert main(
            ["report", "--cache-dir", str(traced_cache), "--run", "zzzz"]
        ) == 1

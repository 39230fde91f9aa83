"""Correctness gates, the result-line contract, compare, and a smoke run."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from benchmarks.perf import harness
from benchmarks.perf.__main__ import main
from benchmarks.perf.workloads import (
    DISTRIBUTED,
    FF_SWEEP,
    FULL,
    GRID,
    PB44,
    SMOKE,
    WORKLOADS,
)


def _write_store(root, entries):
    for key, text in entries.items():
        path = root / "v1" / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _rep(digest, entries, **stats):
    counters = {"runs_launched": entries, "failures": 0, "quarantined": 0,
                "remote_runs": entries, "artifact_fetches": 1}
    counters.update(stats)
    return harness.Rep(
        sweep_s=1.0, setup_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, stats=counters,
        digest=digest, entries=entries, window=(0.0, 1.0), supervisor_pid=1,
    )


def test_tampered_store_fails_the_digest_checks(tmp_path):
    runs = SMOKE.runs(FF_SWEEP)
    _write_store(tmp_path, {f"{i:02x}{'0' * 62}": f'{{"cpi": {i}}}'
                            for i in range(runs)})
    reference, entries = harness.store_digest(tmp_path)
    assert entries == runs
    assert harness.store_digest(tmp_path) == (reference, entries)
    assert harness.check_rep(FF_SWEEP, _rep(reference, entries), SMOKE, 5,
                             reference, None) == []

    victim = next((tmp_path / "v1").glob("??/*.json"))
    victim.write_text(victim.read_text().replace("}", " }"))
    tampered, _ = harness.store_digest(tmp_path)
    assert tampered != reference
    errors = harness.check_rep(FF_SWEEP, _rep(tampered, entries), SMOKE, 5,
                               reference, None)
    assert len(errors) == 1 and errors[0].startswith(f"{FF_SWEEP}:")
    pinned_seed = harness.load_pins()["seed"]
    errors = harness.check_rep(FF_SWEEP, _rep(tampered, entries), SMOKE,
                               pinned_seed, None, None)
    assert any("pinned digest" in e for e in errors)


def test_failed_and_missing_runs_are_incorrect():
    runs = SMOKE.runs(DISTRIBUTED)
    errors = harness.check_rep(
        DISTRIBUTED, _rep("x", runs - 1, failures=1, artifact_fetches=0),
        SMOKE, 5, None, None)
    assert len(errors) == 3


def test_unattributed_time_is_gated_on_the_single_process_workloads():
    spec = harness.load_benchmark()

    def result(workload, sizes):
        traced = _rep("d", sizes.runs(workload))
        # One supervisor span covers 90 % of the timed window.
        traced.spans = [{"name": "engine.executor.run", "start": 0.0,
                         "end": 0.9, "id": 1, "parent": None, "pid": 1,
                         "role": "supervisor"}]
        m = harness.Measurement(workload, 5, untraced=[
            _rep("d", sizes.runs(workload), instructions=1)],
            traced=[traced])
        return harness.workload_result(m, spec, sizes)

    gated = result(FF_SWEEP, FULL)
    assert gated["per_layer"]["unattributed_frac"]["value"] == pytest.approx(0.1)
    assert not gated["correct"] and "unattributed_frac" in gated["errors"][0]
    assert result(PB44, FULL)["correct"]
    assert result(FF_SWEEP, SMOKE)["correct"]


def _result_file(path, scale):
    samples = [scale * x for x in (10.0, 10.1, 9.9, 10.05, 9.95)]
    summary = {"median": scale * 10.0, "samples": samples}
    path.write_text(json.dumps({"workloads": {FF_SWEEP: {"end_to_end": {
        "sweep_s": summary}}}}))


def test_compare_flags_a_regression(tmp_path, capsys):
    base, same, slow = (tmp_path / n for n in ("base", "same", "slow"))
    _result_file(base, 1.0)
    _result_file(same, 1.0)
    _result_file(slow, 1.5)
    assert main(["compare", str(base), str(same)]) == 0
    assert main(["compare", str(base), str(slow)]) == 1
    assert "worse" in capsys.readouterr().out


def test_single_workload_prints_the_metric_line():
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--smoke",
         "--workload", FF_SWEEP, "--trace", "0", "--seed", "7"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == SMOKE.runs(FF_SWEEP)
    names = [m["name"] for m in harness.load_benchmark()["end_to_end"]]
    assert sorted(line["metrics"]) == sorted(names)
    for value in line["metrics"].values():
        assert sorted(value) == ["unit", "value"] and value["value"] > 0


def test_smoke_run_covers_every_workload_and_layer(tmp_path):
    out = tmp_path / "result.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--smoke",
         "--out", str(out)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=180,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60
    document = json.loads(out.read_text())
    assert {"nproc", "python", "git_describe"} <= set(document["host"])
    spec = harness.load_benchmark()
    results = document["workloads"]
    assert list(results) == list(WORKLOADS)
    for name, result in results.items():
        assert result["correct"], (name, result["errors"])
        assert set(result["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(result["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    assert len({results[w]["store_digest"] for w in GRID}) == 1
    layer = {w: {k: v["value"] for k, v in r["per_layer"].items()}
             for w, r in results.items()}
    assert layer["pb44_cold"]["techniques.simpoint.select_s"] > 0
    assert layer["pb44_cold"]["engine.planner.dedup_ratio"] == 2.0
    assert layer["latency_batch_warm"]["cpu.pipeline.batch_configs"] == SMOKE.batch
    assert layer["ff_sweep_warm"]["cpu.pipeline.batch_s"] == 0
    assert layer[DISTRIBUTED]["engine.protocol.artifact_fetches"] > 0
    assert layer[DISTRIBUTED]["engine.worker.exec_s"] > 0

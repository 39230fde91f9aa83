"""Tests for the parallel execution engine and its persistent store."""

import json
import os

import pytest

from repro.cpu.config import ARCH_CONFIGS, NLP, ProcessorConfig
from repro.cpu.stats import SimulationStats
from repro.engine import Engine, EngineRunError, RunRequest
from repro.engine.planner import Plan
from repro.engine.store import ResultStore
from repro.scale import Scale
from repro.techniques.base import SimulationTechnique, TechniqueResult
from repro.techniques.reference import ReferenceTechnique
from repro.techniques.registry import permutations
from repro.techniques.truncated import RunZ
from repro.workloads.spec import get_workload

SCALE = Scale(2)


def _stub_result(workload, config, tag="stub"):
    return TechniqueResult(
        family="Stub",
        permutation=tag,
        workload=workload,
        config_name=config.name,
        stats=SimulationStats(instructions=100, cycles=150, branches=10),
        regions=[(0, 100)],
        weights=[1.0],
        detailed_instructions=100,
    )


class StubTechnique(SimulationTechnique):
    """Cheap deterministic technique for engine plumbing tests."""

    family = "Stub"

    def __init__(self, tag="stub"):
        self.tag = tag

    @property
    def permutation(self):
        return self.tag

    def run(self, workload, config, scale, enhancements=None):
        return _stub_result(workload, config, self.tag)


class FlakyTechnique(SimulationTechnique):
    """Raises on the first attempt, succeeds on the retry.

    The first-attempt marker is a file, so the failure is observed even
    when the first attempt happens in a pool worker process.
    """

    family = "Stub"

    def __init__(self, marker_path):
        self.marker_path = str(marker_path)

    @property
    def permutation(self):
        return "flaky"

    def run(self, workload, config, scale, enhancements=None):
        if not os.path.exists(self.marker_path):
            with open(self.marker_path, "w") as handle:
                handle.write("attempted")
            raise RuntimeError("simulated worker failure")
        return _stub_result(workload, config, "flaky")


class BrokenTechnique(SimulationTechnique):
    """Fails every attempt."""

    family = "Stub"

    def __init__(self):
        pass

    @property
    def permutation(self):
        return "broken"

    def run(self, workload, config, scale, enhancements=None):
        raise RuntimeError("always broken")


@pytest.fixture()
def workload():
    return get_workload("gzip")


def _result_fingerprint(result):
    return (
        result.family,
        result.permutation,
        result.workload.name,
        result.config_name,
        tuple(sorted(result.stats.counters().items())),
        tuple(result.regions),
        tuple(result.weights),
        result.detailed_instructions,
        result.warm_detailed_instructions,
        result.functional_warm_instructions,
        result.fastforward_instructions,
        result.profiled_instructions,
        result.runs,
    )


class TestSerialization:
    def test_stats_round_trip(self):
        stats = SimulationStats(
            instructions=123, cycles=456, branches=7, mispredictions=2,
            dl1_accesses=50, dl1_misses=5, l2_accesses=5, l2_misses=1,
        )
        rebuilt = SimulationStats.from_dict(stats.counters())
        assert rebuilt == stats

    def test_stats_from_as_dict_ignores_derived(self):
        stats = SimulationStats(instructions=10, cycles=20)
        rebuilt = SimulationStats.from_dict(stats.as_dict())
        assert rebuilt.cpi == stats.cpi

    def test_stats_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SimulationStats.from_dict({"warp_drives": 1})

    def test_result_round_trip_through_payload(self, workload):
        result = RunZ(500).run(workload, ARCH_CONFIGS[0], SCALE)
        rebuilt = TechniqueResult.from_payload(
            json.loads(json.dumps(result.to_payload()))
        )
        assert _result_fingerprint(rebuilt) == _result_fingerprint(result)

    def test_reduced_result_keeps_reduced_workload(self):
        # The reduced technique's result points at the *reduced*
        # workload; the payload must preserve that binding.
        from repro.techniques.reduced import ReducedInputTechnique

        workload = get_workload("gzip")
        result = ReducedInputTechnique("test").run(workload, ARCH_CONFIGS[0], SCALE)
        rebuilt = TechniqueResult.from_payload(result.to_payload())
        assert rebuilt.workload.input_set.name == "test"

    def test_store_round_trip(self, tmp_path, workload):
        result = RunZ(500).run(workload, ARCH_CONFIGS[0], SCALE)
        store = ResultStore(tmp_path)
        store.put("ab" * 32, result)
        loaded = store.get("ab" * 32)
        assert _result_fingerprint(loaded) == _result_fingerprint(result)
        assert "ab" * 32 in store
        assert len(store) == 1

    def test_store_corrupt_entry_is_miss(self, tmp_path, workload):
        store = ResultStore(tmp_path)
        key = "cd" * 32
        store.put(key, RunZ(500).run(workload, ARCH_CONFIGS[0], SCALE))
        store.path_for(key).write_text("{not json")
        assert store.get(key) is None

    def test_store_embeds_payload_checksum(self, tmp_path, workload):
        from repro.engine.store import CHECKSUM_FIELD

        store = ResultStore(tmp_path)
        key = "ef" * 32
        store.put(key, RunZ(500).run(workload, ARCH_CONFIGS[0], SCALE))
        document = json.loads(store.path_for(key).read_text())
        assert CHECKSUM_FIELD in document

    def test_store_detects_silent_bit_rot(self, tmp_path, workload):
        """Valid JSON whose bytes drifted after the write must read as
        a miss (and be counted), not as a subtly-wrong result."""
        store = ResultStore(tmp_path)
        key = "ef" * 32
        store.put(key, RunZ(500).run(workload, ARCH_CONFIGS[0], SCALE))
        path = store.path_for(key)
        document = json.loads(path.read_text())
        document["stats"]["cycles"] += 1  # the silent flip
        path.write_text(json.dumps(document))
        assert store.get(key) is None
        assert store.consume_corrupt_entries() == 1
        assert store.consume_corrupt_entries() == 0  # drained

    def test_store_accepts_legacy_unchecksummed_entry(
        self, tmp_path, workload
    ):
        from repro.engine.store import CHECKSUM_FIELD

        store = ResultStore(tmp_path)
        key = "ef" * 32
        store.put(key, RunZ(500).run(workload, ARCH_CONFIGS[0], SCALE))
        path = store.path_for(key)
        document = json.loads(path.read_text())
        del document[CHECKSUM_FIELD]
        path.write_text(json.dumps(document))
        assert store.get(key) is not None
        assert store.consume_corrupt_entries() == 0

    def test_engine_regenerates_corrupt_entry(self, tmp_path, workload):
        request = RunRequest(RunZ(500), workload, ARCH_CONFIGS[0])
        engine = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path)
        try:
            engine.run_many([request])
            key = request.content_key(SCALE)
            engine.store.path_for(key).write_text("garbage")
        finally:
            engine.close()

        engine = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path)
        try:
            results = engine.run_many([request])
            snapshot = engine.metrics.snapshot()
            regenerated = engine.store.get(key)
        finally:
            engine.close()
        assert results[0] is not None
        assert regenerated is not None  # rewritten, not left rotten
        assert snapshot["store_corrupt_entries"] == 1
        assert snapshot["runs_launched"] == 1  # re-executed, no hit


class TestPlanner:
    def test_deduplicates_preserving_order(self, workload):
        a = RunRequest(StubTechnique("a"), workload, ARCH_CONFIGS[0])
        b = RunRequest(StubTechnique("b"), workload, ARCH_CONFIGS[0])
        plan = Plan.build([a, b, a, b, a], SCALE)
        assert plan.num_unique == 2
        assert plan.num_requested == 5
        assert plan.slots == [0, 1, 0, 1, 0]
        assert plan.gather(["ra", "rb"]) == ["ra", "rb", "ra", "rb", "ra"]

    def test_content_key_sensitivity(self, workload):
        base = RunRequest(RunZ(500), workload, ARCH_CONFIGS[0])
        assert base.content_key(SCALE) == RunRequest(
            RunZ(500), workload, ARCH_CONFIGS[0]
        ).content_key(SCALE)
        # Every input dimension must move the key.
        assert base.content_key(SCALE) != base.content_key(Scale(3))
        assert base.content_key(SCALE) != RunRequest(
            RunZ(1000), workload, ARCH_CONFIGS[0]
        ).content_key(SCALE)
        assert base.content_key(SCALE) != RunRequest(
            RunZ(500), workload, ARCH_CONFIGS[1]
        ).content_key(SCALE)
        assert base.content_key(SCALE) != RunRequest(
            RunZ(500), workload, ARCH_CONFIGS[0], NLP
        ).content_key(SCALE)
        assert base.content_key(SCALE) != RunRequest(
            RunZ(500), get_workload("gzip", seed=7), ARCH_CONFIGS[0]
        ).content_key(SCALE)

    def test_config_value_change_invalidates_despite_same_name(self, workload):
        # A renamed-in-place config (same .name, different field) must
        # not alias the old cache entry.
        tweaked = ARCH_CONFIGS[0].replace(rob_entries=48)
        assert tweaked.name == ARCH_CONFIGS[0].name
        assert (
            RunRequest(RunZ(500), workload, tweaked).content_key(SCALE)
            != RunRequest(RunZ(500), workload, ARCH_CONFIGS[0]).content_key(SCALE)
        )


def _real_requests(workload):
    techniques = [
        ReferenceTechnique(),
        permutations("SimPoint")[1],
        permutations("SMARTS")[4],
        RunZ(500),
    ]
    return [
        RunRequest(technique, workload, config)
        for technique in techniques
        for config in ARCH_CONFIGS[:2]
    ]


def _run_many(requests, **kwargs):
    """Run ``requests`` on a fresh engine at ``SCALE``, then close it."""
    with Engine(scale=SCALE, **kwargs) as engine:
        return engine.run_many(requests)


class TestEngine:
    def test_duplicate_requests_run_once(self, workload):
        request = RunRequest(StubTechnique(), workload, ARCH_CONFIGS[0])
        with Engine(scale=SCALE, jobs=1) as engine:
            results = engine.run_many([request, request, request])
        assert engine.metrics.runs_launched == 1
        assert engine.metrics.runs_deduplicated == 2
        assert results[0] is results[1] is results[2]

    def test_repeat_call_hits_memory(self, workload):
        request = RunRequest(StubTechnique(), workload, ARCH_CONFIGS[0])
        with Engine(scale=SCALE, jobs=1) as engine:
            first = engine.run_many([request])[0]
            second = engine.run_many([request])[0]
        assert first is second
        assert engine.metrics.memory_hits == 1
        assert engine.metrics.runs_launched == 1

    def test_parallel_equals_serial(self, workload):
        serial = _run_many(_real_requests(workload), jobs=1)
        parallel = _run_many(_real_requests(workload), jobs=2)
        for a, b in zip(serial, parallel):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_persistent_cache_hits_across_engines(self, tmp_path, workload):
        requests = _real_requests(workload)
        with Engine(scale=SCALE, jobs=1, cache_dir=tmp_path) as first:
            results = first.run_many(requests)
        assert first.metrics.runs_launched == len(requests)

        with Engine(scale=SCALE, jobs=1, cache_dir=tmp_path) as second:
            cached = second.run_many(requests)
        assert second.metrics.runs_launched == 0
        assert second.metrics.cache_hits == len(requests)
        assert second.metrics.hit_rate == 1.0
        for a, b in zip(results, cached):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_cache_invalidated_by_config_change(self, tmp_path, workload):
        request = RunRequest(RunZ(500), workload, ARCH_CONFIGS[0])
        _run_many([request], jobs=1, cache_dir=tmp_path)

        tweaked = RunRequest(
            RunZ(500), workload, ARCH_CONFIGS[0].replace(l2_size_kb=1024)
        )
        with Engine(scale=SCALE, jobs=1, cache_dir=tmp_path) as engine:
            engine.run_many([tweaked])
        assert engine.metrics.cache_hits == 0
        assert engine.metrics.runs_launched == 1

    def test_retry_recovers_serial(self, tmp_path, workload):
        flaky = FlakyTechnique(tmp_path / "attempted.flag")
        with Engine(scale=SCALE, jobs=1) as engine:
            result = engine.run_many(
                [RunRequest(flaky, workload, ARCH_CONFIGS[0])]
            )[0]
        assert result.permutation == "flaky"
        assert engine.metrics.retries == 1
        assert engine.metrics.failures == 0

    def test_retry_recovers_parallel(self, tmp_path, workload):
        flaky = FlakyTechnique(tmp_path / "attempted-parallel.flag")
        requests = [
            RunRequest(flaky, workload, ARCH_CONFIGS[0]),
            RunRequest(StubTechnique("ok1"), workload, ARCH_CONFIGS[0]),
            RunRequest(StubTechnique("ok2"), workload, ARCH_CONFIGS[0]),
        ]
        with Engine(scale=SCALE, jobs=2) as engine:
            results = engine.run_many(requests)
        assert [r.permutation for r in results] == ["flaky", "ok1", "ok2"]
        assert engine.metrics.retries == 1
        assert engine.metrics.failures == 0

    def test_failures_surface_without_killing_sweep(self, workload):
        requests = [
            RunRequest(StubTechnique("good"), workload, ARCH_CONFIGS[0]),
            RunRequest(BrokenTechnique(), workload, ARCH_CONFIGS[0]),
            RunRequest(StubTechnique("also good"), workload, ARCH_CONFIGS[0]),
        ]
        with Engine(scale=SCALE, jobs=1) as engine:
            with pytest.raises(EngineRunError) as excinfo:
                engine.run_many(requests)
            assert "broken" in str(excinfo.value)
            # The sweep completed: both healthy runs were executed and
            # cached; the broken run failed identically twice, so it was
            # quarantined rather than retried to budget exhaustion.
            metrics = engine.metrics
            assert metrics.runs_launched == 3
            assert metrics.runs_succeeded == 2
            assert metrics.failures + metrics.quarantined == 1
            assert metrics.quarantined == 1
            assert metrics.retries == 1  # the one retry was spent
            assert metrics.runs_launched == (
                metrics.runs_succeeded + metrics.failures + metrics.quarantined
            )

            results = engine.run_many(requests, allow_errors=True)
        assert results[0] is not None and results[2] is not None
        assert results[1] is None

    def test_write_stats(self, tmp_path, workload):
        request = RunRequest(StubTechnique(), workload, ARCH_CONFIGS[0])
        with Engine(scale=SCALE, jobs=1, cache_dir=tmp_path) as engine:
            engine.run_many([request])
            path = engine.write_stats()
        assert path == tmp_path / "engine-stats.json"
        document = json.loads(path.read_text())
        assert document["runs_launched"] == 1
        assert document["jobs"] == 1
        assert document["scale"] == SCALE.instructions_per_m
        assert "Stub" in document["per_family"]

    def test_write_stats_without_store_needs_path(self, tmp_path, workload):
        request = RunRequest(StubTechnique(), workload, ARCH_CONFIGS[0])
        with Engine(scale=SCALE, jobs=1) as engine:
            engine.run_many([request])
            assert engine.write_stats() is None
            explicit = engine.write_stats(tmp_path / "stats.json")
        assert explicit is not None and explicit.exists()


class TestSharedStores:
    """The engine's trace store + warm-state checkpoints: compact
    submission, counter plumbing, and bit-identical acceleration."""

    def _warmed_requests(self, workload):
        from repro.techniques.truncated import FFRunZ, FFWURunZ

        lat_variant = ARCH_CONFIGS[0].replace(
            l2_latency=ARCH_CONFIGS[0].l2_latency + 5
        )
        return [
            RunRequest(FFRunZ(400, 200, warmed=True), workload, ARCH_CONFIGS[0]),
            RunRequest(FFRunZ(400, 200, warmed=True), workload, lat_variant),
            RunRequest(FFWURunZ(300, 100, 200, warmed=True), workload, ARCH_CONFIGS[0]),
        ]

    def test_stats_expose_reuse_counters(self, tmp_path, workload):
        from repro.workloads.inputs import clear_trace_cache

        clear_trace_cache()
        engine = Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path, checkpoint_interval=100.0
        )
        try:
            engine.run_many(self._warmed_requests(workload))
            document = json.loads(engine.write_stats().read_text())
        finally:
            engine.close()
        # The warmed runs share one trace (generated once, stored) and
        # one checkpoint chain: the latency variant and the FF+WU run
        # resume from checkpoints the first run wrote.
        assert document["trace_cache_misses"] >= 1
        assert document["checkpoint_misses"] >= 1
        assert document["checkpoint_hits"] >= 1
        assert document["instructions_skipped"] > 0
        assert document["checkpoint_interval_m"] == 100.0
        assert document["trace_cache"] is True
        assert (tmp_path / "traces").is_dir()
        assert (tmp_path / "checkpoints").is_dir()

    def test_acceleration_is_bit_identical(self, tmp_path, workload):
        requests = self._warmed_requests(workload)
        baseline = _run_many(
            requests, jobs=1, checkpoint_interval=0.0, trace_cache=False
        )
        results = _run_many(
            requests, jobs=2, cache_dir=tmp_path, checkpoint_interval=100.0
        )
        for a, b in zip(baseline, results):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_resume_with_stores_is_bit_identical(self, tmp_path, workload):
        requests = self._warmed_requests(workload) + _real_requests(workload)
        results = _run_many(
            requests, jobs=1, cache_dir=tmp_path, checkpoint_interval=100.0
        )

        resumed_engine = Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path,
            checkpoint_interval=100.0, resume=True,
        )
        try:
            resumed = resumed_engine.run_many(requests)
            assert resumed_engine.metrics.runs_launched == 0
            assert resumed_engine.metrics.resumed == len(
                {r.content_key(SCALE) for r in requests}
            )
        finally:
            resumed_engine.close()
        for a, b in zip(results, resumed):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_close_restores_activation(self, tmp_path, workload):
        from repro.cpu import checkpoint
        from repro.obs import trace as obs_trace
        from repro.workloads import trace_store

        engine = Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path, checkpoint_interval=100.0
        )
        assert trace_store.active_store().root == tmp_path / "traces"
        assert checkpoint.active_store().root == tmp_path / "checkpoints"
        assert checkpoint.active_store().interval == SCALE.instructions(100.0)
        engine.close()
        assert trace_store.active_store() is None
        assert checkpoint.active_store() is None
        assert not obs_trace.active()

    def test_nested_engines_restore_the_outer_activation(self, tmp_path):
        from repro.cpu import checkpoint
        from repro.obs import trace as obs_trace
        from repro.workloads import trace_store

        outer = Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path / "a", trace=True
        )
        try:
            outer_tracer = obs_trace._current()
            inner = Engine(
                scale=SCALE, jobs=1, cache_dir=tmp_path / "b", trace=True
            )
            assert trace_store.active_store().root == tmp_path / "b" / "traces"
            assert checkpoint.active_store().root == (
                tmp_path / "b" / "checkpoints"
            )
            assert obs_trace._current() is not outer_tracer
            inner.close()
            inner.close()  # idempotent: the outer activation survives
            assert trace_store.active_store().root == tmp_path / "a" / "traces"
            assert checkpoint.active_store().root == (
                tmp_path / "a" / "checkpoints"
            )
            assert obs_trace._current() is outer_tracer
        finally:
            outer.close()
        assert trace_store.active_store() is None
        assert checkpoint.active_store() is None
        assert not obs_trace.active()

    def test_knob_gating(self, tmp_path):
        from repro.cpu import checkpoint
        from repro.workloads import trace_store

        engine = Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path,
            checkpoint_interval=0.0, trace_cache=False,
        )
        try:
            assert trace_store.active_store() is None
            assert checkpoint.active_store() is None
        finally:
            engine.close()
        with pytest.raises(ValueError):
            Engine(scale=SCALE, jobs=1, checkpoint_interval=-1.0)


def _latency_sweep(workload, count=4):
    """Same-geometry latency variants under one batchable technique."""
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


class TestConfigBatching:
    """Engine-level config batching: grouping by batch key, parity with
    unbatched execution, fault isolation, and counter plumbing."""

    def test_batched_matches_unbatched(self, workload):
        requests = _latency_sweep(workload)
        baseline = _run_many(requests, jobs=1)
        with Engine(scale=SCALE, jobs=1, batch_configs=4) as engine:
            results = engine.run_many(requests)
        assert engine.metrics.batches == 1
        assert engine.metrics.batched_runs == len(requests)
        for a, b in zip(baseline, results):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_batched_matches_unbatched_parallel(self, workload):
        requests = _latency_sweep(workload, count=6)
        baseline = _run_many(requests, jobs=1)
        with Engine(scale=SCALE, jobs=2, batch_configs=3) as engine:
            results = engine.run_many(requests)
        assert engine.metrics.batches == 2
        assert engine.metrics.batched_runs == len(requests)
        for a, b in zip(baseline, results):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_batch_keys_group_trace_level(self, workload):
        # Batch keys are trace-level: the same technique permutation
        # groups even across geometries (the batched path re-groups by
        # geometry internally).  Different permutations yield different
        # keys; NLP enhancements never batch.
        requests = [
            RunRequest(ReferenceTechnique(), workload, ARCH_CONFIGS[0]),
            RunRequest(ReferenceTechnique(), workload, ARCH_CONFIGS[1]),
            RunRequest(RunZ(500), workload, ARCH_CONFIGS[0]),
            RunRequest(
                ReferenceTechnique(), workload, ARCH_CONFIGS[0],
                enhancements=NLP,
            ),
        ]
        baseline = _run_many(requests, jobs=1)
        with Engine(scale=SCALE, jobs=1, batch_configs=8) as engine:
            results = engine.run_many(requests)
        assert engine.metrics.batches == 1  # the two reference runs
        assert engine.metrics.batched_runs == 2
        assert engine.metrics.runs_succeeded == len(requests)
        for a, b in zip(baseline, results):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_unbatchable_technique_not_grouped(self, workload):
        requests = [
            RunRequest(StubTechnique(f"s{i}"), workload, ARCH_CONFIGS[0])
            for i in range(3)
        ]
        with Engine(scale=SCALE, jobs=1, batch_configs=8) as engine:
            engine.run_many(requests)
        assert engine.metrics.batches == 0

    def test_batch_member_fault_degrades_alone(self, workload, monkeypatch):
        # A fault inside one member of a batch explodes the batch back
        # into singletons; only the faulted member takes the retry /
        # degradation path and every run still succeeds.
        monkeypatch.setenv("REPRO_FAULT_PLAN", "exc@2x*")
        requests = _latency_sweep(workload)
        with Engine(
            scale=SCALE, jobs=1, batch_configs=4, retries=0
        ) as engine:
            results = engine.run_many(requests, allow_errors=True)
        assert [r is None for r in results] == [False, False, True, False]
        assert engine.metrics.runs_succeeded == len(requests) - 1
        assert engine.metrics.failures == 1
        assert engine.metrics.batches == 0  # exploded batches don't count

    def test_batched_store_resume_is_bit_identical(self, tmp_path, workload):
        requests = _latency_sweep(workload)
        results = _run_many(
            requests, jobs=1, cache_dir=tmp_path, batch_configs=4
        )

        resumed_engine = Engine(
            scale=SCALE, jobs=1, cache_dir=tmp_path,
            batch_configs=4, resume=True,
        )
        try:
            resumed = resumed_engine.run_many(requests)
            assert resumed_engine.metrics.runs_launched == 0
            assert resumed_engine.metrics.resumed == len(requests)
        finally:
            resumed_engine.close()
        for a, b in zip(results, resumed):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_partial_store_regroups_remainder(self, tmp_path, workload):
        # Two runs already persisted: a later batched sweep serves them
        # from cache and batches only the remaining members.
        requests = _latency_sweep(workload)
        _run_many(requests[:2], jobs=1, cache_dir=tmp_path)

        baseline = _run_many(requests, jobs=1)
        engine = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path, batch_configs=4)
        try:
            results = engine.run_many(requests)
            assert engine.metrics.cache_hits == 2
            assert engine.metrics.batches == 1
            assert engine.metrics.batched_runs == 2
        finally:
            engine.close()
        for a, b in zip(baseline, results):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_stats_expose_batch_counters(self, tmp_path, workload):
        engine = Engine(scale=SCALE, jobs=1, cache_dir=tmp_path, batch_configs=4)
        try:
            engine.run_many(_latency_sweep(workload))
            document = json.loads(engine.write_stats().read_text())
        finally:
            engine.close()
        assert document["batch_configs"] == 4
        assert document["batches"] == 1
        assert document["batched_runs"] == 4
        assert document["configs_per_batch"] == 4.0

    def test_batch_configs_validation(self):
        with pytest.raises(ValueError):
            Engine(scale=SCALE, jobs=1, batch_configs=0)


class TestWorkloadStripping:
    """Registry workloads ship to workers as compact keys, not pickles."""

    def test_registry_workload_is_stripped(self, workload):
        from repro.engine.executor import RunTask, _strip_workload

        task = RunTask(
            slot=0,
            request=RunRequest(RunZ(500), workload, ARCH_CONFIGS[0]),
            key="k",
        )
        stripped = _strip_workload(task)
        assert stripped.request.workload is None
        assert stripped.workload_key == ("gzip", "reference", workload.seed)
        # The original task is untouched (the parent keeps using it).
        assert task.request.workload is workload

    def test_custom_workload_is_not_stripped(self):
        from repro.engine.executor import RunTask, _strip_workload
        from tests.conftest import make_micro_workload

        custom = make_micro_workload()
        task = RunTask(
            slot=0,
            request=RunRequest(RunZ(500), custom, ARCH_CONFIGS[0]),
            key="k",
        )
        stripped = _strip_workload(task)
        assert stripped.request.workload is custom
        assert stripped.workload_key is None

    def test_worker_rebinds_stripped_workload(self, workload):
        from repro.engine.executor import RunTask, _strip_workload, _worker

        request = RunRequest(RunZ(500), workload, ARCH_CONFIGS[0])
        task = RunTask(slot=3, request=request, key="k")
        slots, results, wall, reuse, resources = _worker(
            _strip_workload(task), SCALE
        )
        assert slots == [3]  # a singleton is a one-run batch
        (result,) = results
        direct = RunZ(500).run(workload, ARCH_CONFIGS[0], SCALE)
        assert _result_fingerprint(result) == _result_fingerprint(direct)
        assert isinstance(reuse, dict)
        assert resources is None or "cpu_s" in resources


class TestContextIntegration:
    def test_context_run_many_matches_run(self, workload):
        from repro.experiments.common import ExperimentContext

        context = ExperimentContext(
            scale=SCALE, benchmarks=("gzip",), depth="quick"
        )
        request = RunRequest(RunZ(500), workload, ARCH_CONFIGS[0])
        batch = context.run_many([request])[0]
        single = context.run(RunZ(500), workload, ARCH_CONFIGS[0])
        assert batch is single  # one execution, shared through the engine

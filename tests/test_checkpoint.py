"""Tests for functional warm-state checkpoints.

The contract: resuming prefix warming from a stored checkpoint is
*bit-identical* to replaying the whole prefix -- same machine state,
same cumulative warming statistics -- for every backend, and a
checkpoint written under one backend restores under any other.
Geometry keys share checkpoint chains across latency-only config
changes and separate them on any state-shaping change.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu import checkpoint
from repro.cpu.checkpoint import (
    CheckpointStore,
    geometry_fingerprint,
    restore_machine,
    snapshot_machine,
    state_key,
)
from repro.cpu.config import (
    ARCH_CONFIGS,
    BASELINE,
    NLP,
    Enhancements,
    ProcessorConfig,
)
from repro.cpu.functional import run_functional_warming, warm_prefix
from repro.cpu.kernels.registry import BACKEND_NAMES
from repro.cpu.machine import Machine
from repro.cpu.simulator import Simulator
from repro.engine.planner import RunRequest
from repro.scale import scale_from_profile
from repro.techniques.reference import ReferenceTechnique
from repro.workloads.spec import get_workload

from tests.conftest import TEST_SCALE, make_micro_workload

CONFIG = ARCH_CONFIGS[0]
BACKENDS = BACKEND_NAMES


@pytest.fixture(scope="module")
def workload():
    return make_micro_workload(length_m=1200)


@pytest.fixture(scope="module")
def trace(workload):
    return workload.trace(TEST_SCALE)


@pytest.fixture(autouse=True)
def _deactivate():
    """No test leaks an active store (or counters) into the next."""
    checkpoint.activate(None)
    checkpoint.consume_counters()
    yield
    checkpoint.activate(None)
    checkpoint.consume_counters()


def _stats_tuple(stats):
    return (
        stats.instructions,
        stats.branches,
        stats.mispredictions,
        stats.loads,
        stats.stores,
    )


def _canonical(snapshot):
    return json.dumps(snapshot, sort_keys=True)


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_restore_reproduces_snapshot(self, trace, backend):
        machine = Machine(CONFIG, BASELINE, backend=backend)
        run_functional_warming(machine, trace, 0, 3000)
        snapshot = snapshot_machine(machine)

        fresh = Machine(CONFIG, BASELINE, backend=backend)
        restore_machine(fresh, snapshot)
        assert _canonical(snapshot_machine(fresh)) == _canonical(snapshot)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_snapshot_is_canonical_across_backends(self, trace, backend):
        """Every backend's warm state serializes to the same document."""
        reference = Machine(CONFIG, BASELINE, backend="python")
        other = Machine(CONFIG, BASELINE, backend=backend)
        run_functional_warming(reference, trace, 0, 3000)
        run_functional_warming(other, trace, 0, 3000)
        assert _canonical(snapshot_machine(other)) == _canonical(
            snapshot_machine(reference)
        )

    def test_snapshot_is_json_serializable(self, trace):
        machine = Machine(CONFIG, BASELINE, backend="python")
        run_functional_warming(machine, trace, 0, 1000)
        document = json.loads(json.dumps(snapshot_machine(machine)))
        fresh = Machine(CONFIG, BASELINE, backend="python")
        restore_machine(fresh, document)
        assert _canonical(snapshot_machine(fresh)) == _canonical(
            snapshot_machine(machine)
        )

    def test_warming_continues_identically_after_restore(self, trace):
        full = Machine(CONFIG, BASELINE, backend="python")
        stats_a = run_functional_warming(full, trace, 0, 2000)
        stats_a.merge(run_functional_warming(full, trace, 2000, 4000))

        resumed = Machine(CONFIG, BASELINE, backend="python")
        partial = Machine(CONFIG, BASELINE, backend="python")
        stats_b = run_functional_warming(partial, trace, 0, 2000)
        restore_machine(resumed, snapshot_machine(partial))
        stats_b.merge(run_functional_warming(resumed, trace, 2000, 4000))

        assert _stats_tuple(stats_b) == _stats_tuple(stats_a)
        assert _canonical(snapshot_machine(resumed)) == _canonical(
            snapshot_machine(full)
        )


class TestWarmPrefixParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("interval", [700, 1000, 4096])
    @pytest.mark.parametrize("end", [1, 699, 700, 2100, 3001])
    def test_bit_identical_to_full_replay(
        self, tmp_path, trace, backend, interval, end
    ):
        reference = Machine(CONFIG, BASELINE, backend=backend)
        expected = run_functional_warming(reference, trace, 0, end)

        checkpoint.activate(CheckpointStore(tmp_path, interval))
        for _ in range(2):  # cold pass writes, second pass resumes
            machine = Machine(CONFIG, BASELINE, backend=backend)
            stats = warm_prefix(machine, trace, end, checkpoint_key="k")
            assert _stats_tuple(stats) == _stats_tuple(expected)
            assert _canonical(snapshot_machine(machine)) == _canonical(
                snapshot_machine(reference)
            )

    def test_cross_backend_resume(self, tmp_path, trace):
        """A checkpoint written under one backend resumes under another."""
        writer, reader = BACKENDS
        end = 3000
        checkpoint.activate(CheckpointStore(tmp_path, 1000))

        machine = Machine(CONFIG, BASELINE, backend=writer)
        expected = warm_prefix(machine, trace, end, checkpoint_key="k")
        checkpoint.consume_counters()

        resumed = Machine(CONFIG, BASELINE, backend=reader)
        stats = warm_prefix(resumed, trace, end, checkpoint_key="k")
        counters = checkpoint.consume_counters()
        assert counters["checkpoint_hits"] == 1
        assert counters["instructions_skipped"] == 3000
        assert _stats_tuple(stats) == _stats_tuple(expected)
        assert _canonical(snapshot_machine(resumed)) == _canonical(
            snapshot_machine(machine)
        )

    def test_counters(self, tmp_path, trace):
        checkpoint.activate(CheckpointStore(tmp_path, 1000))
        machine = Machine(CONFIG, BASELINE, backend="python")
        warm_prefix(machine, trace, 2500, checkpoint_key="k")
        counters = checkpoint.consume_counters()
        assert counters["checkpoint_misses"] == 1
        assert counters["checkpoint_hits"] == 0

        machine = Machine(CONFIG, BASELINE, backend="python")
        warm_prefix(machine, trace, 2500, checkpoint_key="k")
        counters = checkpoint.consume_counters()
        assert counters["checkpoint_hits"] == 1
        assert counters["instructions_skipped"] == 2000  # nearest: 2000

    def test_inactive_store_replays_in_full(self, trace):
        machine = Machine(CONFIG, BASELINE, backend="python")
        stats = warm_prefix(machine, trace, 1500, checkpoint_key="k")
        reference = Machine(CONFIG, BASELINE, backend="python")
        expected = run_functional_warming(reference, trace, 0, 1500)
        assert _stats_tuple(stats) == _stats_tuple(expected)
        assert checkpoint.consume_counters()["checkpoint_misses"] == 0

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        end=st.integers(min_value=0, max_value=5000),
        interval=st.integers(min_value=50, max_value=3000),
    )
    def test_parity_sweep(self, tmp_path, trace, end, interval):
        """Any (warm-end, interval) pair -- on or off checkpoint
        boundaries -- resumes bit-identically."""
        reference = Machine(CONFIG, BASELINE, backend="python")
        expected = run_functional_warming(reference, trace, 0, end)

        root = tmp_path / f"cp-{end}-{interval}"
        checkpoint.activate(CheckpointStore(root, interval))
        for _ in range(2):
            machine = Machine(CONFIG, BASELINE, backend="python")
            stats = warm_prefix(machine, trace, end, checkpoint_key="k")
            assert _stats_tuple(stats) == _stats_tuple(expected)
            assert _canonical(snapshot_machine(machine)) == _canonical(
                snapshot_machine(reference)
            )
        checkpoint.activate(None)


class TestKeys:
    def test_latency_only_changes_share_chains(self, workload):
        lat_variant = dataclasses.replace(
            CONFIG,
            name="latvar",
            l2_latency=CONFIG.l2_latency + 7,
            mem_latency_first=CONFIG.mem_latency_first + 50,
        )
        assert geometry_fingerprint(lat_variant, BASELINE) == (
            geometry_fingerprint(CONFIG, BASELINE)
        )
        assert state_key(workload, TEST_SCALE, lat_variant, BASELINE) == (
            state_key(workload, TEST_SCALE, CONFIG, BASELINE)
        )

    def test_geometry_changes_separate_chains(self, workload):
        bigger = dataclasses.replace(
            CONFIG, name="big", dl1_size_kb=CONFIG.dl1_size_kb * 2
        )
        assert state_key(workload, TEST_SCALE, bigger, BASELINE) != (
            state_key(workload, TEST_SCALE, CONFIG, BASELINE)
        )

    def test_prefetch_enhancement_separates_chains(self, workload):
        assert state_key(workload, TEST_SCALE, CONFIG, NLP) != (
            state_key(workload, TEST_SCALE, CONFIG, BASELINE)
        )

    def test_scale_and_workload_separate_chains(self, workload):
        other = make_micro_workload(seed=7)
        assert state_key(other, TEST_SCALE, CONFIG, BASELINE) != (
            state_key(workload, TEST_SCALE, CONFIG, BASELINE)
        )

    def test_simulator_key_requires_active_store(self, tmp_path, workload):
        simulator = Simulator(CONFIG)
        assert simulator.checkpoint_key(workload, TEST_SCALE) is None
        checkpoint.activate(CheckpointStore(tmp_path, 1000))
        assert simulator.checkpoint_key(workload, TEST_SCALE) is not None


class TestStore:
    def test_nearest_picks_highest_at_or_below(self, tmp_path):
        store = CheckpointStore(tmp_path, 100)
        for at in (100, 200, 300):
            store.save("k", at, {"s": at}, {"instructions": at})
        assert store.nearest("k", 250)[0] == 200
        assert store.nearest("k", 300)[0] == 300
        assert store.nearest("k", 99) is None
        assert store.nearest("missing", 300) is None

    def test_corrupt_checkpoint_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path, 100)
        store.save("k", 100, {"s": 100}, {})
        store.save("k", 200, {"s": 200}, {})
        store.path_for("k", 200).write_text("{not json")
        at, state, _ = store.nearest("k", 250)
        assert at == 100
        assert state == {"s": 100}

    def test_save_never_rewrites(self, tmp_path):
        store = CheckpointStore(tmp_path, 100)
        store.save("k", 100, {"s": "first"}, {})
        store.save("k", 100, {"s": "second"}, {})
        assert store.nearest("k", 100)[1] == {"s": "first"}


class TestTechniqueParity:
    """Warmed techniques give identical results with and without a
    checkpoint store -- the store is purely an accelerator."""

    def _run_with_and_without(self, technique, workload, tmp_path):
        baseline = technique.run(workload, CONFIG, TEST_SCALE)
        checkpoint.activate(
            CheckpointStore(tmp_path, max(1, TEST_SCALE.instructions(200)))
        )
        cold = technique.run(workload, CONFIG, TEST_SCALE)
        warm = technique.run(workload, CONFIG, TEST_SCALE)
        checkpoint.activate(None)
        assert cold.stats == baseline.stats
        assert warm.stats == baseline.stats

    def test_warmed_ff(self, tmp_path, workload):
        from repro.techniques.truncated import FFRunZ

        self._run_with_and_without(
            FFRunZ(400, 200, warmed=True), workload, tmp_path
        )

    def test_warmed_ff_wu(self, tmp_path, workload):
        from repro.techniques.truncated import FFWURunZ

        self._run_with_and_without(
            FFWURunZ(400, 100, 200, warmed=True), workload, tmp_path
        )

    def test_smarts(self, tmp_path, workload):
        from repro.techniques.smarts.smarts import SmartsTechnique

        self._run_with_and_without(
            SmartsTechnique(1000, 2000, initial_samples=8), workload, tmp_path
        )


# -- key coverage: the checkpoint key spans exactly the warm-state geometry ----

_BASE = ProcessorConfig()
_FIELDS = [f.name for f in dataclasses.fields(ProcessorConfig)]
#: Every perturbable input: each ProcessorConfig field, then each
#: Enhancements field (flipped from the baseline).
_INPUTS = [pytest.param("config", name, id=name) for name in _FIELDS] + [
    pytest.param("enhancements", f.name, id=f"enhancements.{f.name}")
    for f in dataclasses.fields(Enhancements)
]
_GZIP = get_workload("gzip")
_TINY = scale_from_profile("tiny")
#: Prefix warmed to compare warm state across a perturbation.
_WARM_PREFIX = 20_000


def _perturb(config, name):
    """``config`` with field ``name`` moved to another valid value.

    Integers go to 1 (2 if already 1): valid for every field, and so
    far from the defaults that any structure they size visibly changes
    state on a short prefix -- a one-entry RAS overflows, a one-byte
    block gives every address its own line."""
    value = getattr(config, name)
    if name == "name":
        new = value + "-perturbed"
    elif name == "branch_predictor":
        new = "bimodal" if value != "bimodal" else "gshare"
    else:
        new = 1 if value != 1 else 2
    return dataclasses.replace(config, **{name: new})


@pytest.fixture(scope="module")
def gzip_trace():
    return _GZIP.trace(_TINY)


def _warm_state(config, trace, enhancements=BASELINE):
    machine = Machine(config, enhancements, backend="python")
    stats = run_functional_warming(machine, trace, 0, _WARM_PREFIX)
    return _stats_tuple(stats), _canonical(snapshot_machine(machine))


@pytest.fixture(scope="module")
def base_warm_state(gzip_trace):
    return _warm_state(_BASE, gzip_trace)


class TestKeyCoverage:
    @pytest.mark.parametrize("kind,name", _INPUTS)
    def test_perturbation_moves_exactly_the_right_keys(
        self, kind, name, gzip_trace, base_warm_state
    ):
        """Every config and enhancement field reaches the result key;
        the checkpoint key moves iff the field is geometry; and warming
        a gzip prefix changes state iff the field is geometry -- so a
        structural field missing from the fingerprint fails here rather
        than serving stale warm state, and a fingerprint field that
        shapes nothing is flagged."""
        config, enhancements = _BASE, BASELINE
        if kind == "config":
            config = _perturb(_BASE, name)
        else:
            enhancements = dataclasses.replace(
                BASELINE, **{name: not getattr(BASELINE, name)}
            )

        def content_key(config, enhancements):
            request = RunRequest(
                ReferenceTechnique(), _GZIP, config, enhancements
            )
            return request.content_key(_TINY)

        assert content_key(config, enhancements) != (
            content_key(_BASE, BASELINE)
        )

        in_geometry = geometry_fingerprint(config, enhancements) != (
            geometry_fingerprint(_BASE, BASELINE)
        )
        key_moved = state_key(_GZIP, _TINY, config, enhancements) != (
            state_key(_GZIP, _TINY, _BASE, BASELINE)
        )
        assert key_moved == in_geometry
        state_moved = (
            _warm_state(config, gzip_trace, enhancements) != base_warm_state
        )
        assert state_moved == in_geometry

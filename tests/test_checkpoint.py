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
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu import checkpoint
from repro.cpu.branch import PREDICTOR_KINDS
from repro.cpu.checkpoint import (
    CheckpointStore,
    decode,
    encode,
    geometry_fingerprint,
    layout,
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
from repro.engine import Engine
from repro.engine.planner import RunRequest
from repro.scale import Scale, scale_from_profile
from repro.techniques.reference import ReferenceTechnique
from repro.techniques.truncated import FFRunZ
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

    def test_snapshot_survives_on_disk_encoding(self, trace):
        machine = Machine(CONFIG, BASELINE, backend="python")
        run_functional_warming(machine, trace, 0, 1000)
        data = b"".join(encode(1000, snapshot_machine(machine), {}))
        _, document = decode(data, 1000, layout(machine), [])
        fresh = Machine(CONFIG, BASELINE, backend="python")
        restore_machine(fresh, document)
        assert _canonical(snapshot_machine(fresh)) == _canonical(
            snapshot_machine(machine)
        )

    @pytest.mark.parametrize("prefetch", [False, True], ids=["nonlp", "nlp"])
    @pytest.mark.parametrize("kind", sorted(PREDICTOR_KINDS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_store_round_trip(self, tmp_path, trace, backend, kind, prefetch):
        """Save -> nearest -> restore reproduces the snapshot, and the
        warming that follows, for every predictor kind."""
        config = dataclasses.replace(CONFIG, branch_predictor=kind)
        enhancements = Enhancements(next_line_prefetch=prefetch)
        store = CheckpointStore(tmp_path, 2000)
        machine = Machine(config, enhancements, backend=backend)
        saved = run_functional_warming(machine, trace, 0, 2000)
        store.save("k", 2000, snapshot_machine(machine),
                   dataclasses.asdict(saved))

        resumed = Machine(config, enhancements, backend=backend)
        at, state, stats = store.nearest(
            "k", 3000, layout(resumed), list(dataclasses.asdict(saved))
        )
        assert (at, stats) == (2000, dataclasses.asdict(saved))
        restore_machine(resumed, state)
        assert _canonical(snapshot_machine(resumed)) == _canonical(
            snapshot_machine(machine)
        )
        after = run_functional_warming(resumed, trace, 2000, 4000)
        expected = run_functional_warming(machine, trace, 2000, 4000)
        assert _stats_tuple(after) == _stats_tuple(expected)
        assert _canonical(snapshot_machine(resumed)) == _canonical(
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
            store.save("k", at, {"s": [at]}, {"instructions": at})
        expect = [["s", 1]], ["instructions"]
        assert store.nearest("k", 250, *expect) == (
            200, {"s": [200]}, {"instructions": 200}
        )
        assert store.nearest("k", 300, *expect)[0] == 300
        assert store.nearest("k", 99, *expect) is None
        assert store.nearest("missing", 300, *expect) is None
        assert store.positions("k") == [100, 200, 300]

    def test_corrupt_checkpoint_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path, 100)
        store.save("k", 100, {"s": [100]}, {})
        store.save("k", 200, {"s": [200]}, {})
        store.path_for("k", 200).write_text("{not json")
        at, state, _ = store.nearest("k", 250, [["s", 1]], [])
        assert at == 100
        assert state == {"s": [100]}

    def test_save_never_rewrites(self, tmp_path):
        store = CheckpointStore(tmp_path, 100)
        store.save("k", 100, {"s": [1]}, {})
        store.save("k", 100, {"s": [2]}, {})
        assert store.nearest("k", 100, [["s", 1]], [])[1] == {"s": [1]}


class TestValidation:
    """A checkpoint that does not match the machine is skipped before
    anything is written: the next-lower one is tried, and a run with
    none left counts a miss and replays in full."""

    KEY = "k"

    @pytest.fixture()
    def store(self, tmp_path, trace):
        """A store with valid checkpoints at 100 and 200."""
        store = CheckpointStore(tmp_path, 100)
        machine = Machine(CONFIG, BASELINE, backend="python")
        stats = run_functional_warming(machine, trace, 0, 100)
        store.save(self.KEY, 100, snapshot_machine(machine),
                   dataclasses.asdict(stats))
        stats.merge(run_functional_warming(machine, trace, 100, 200))
        store.save(self.KEY, 200, snapshot_machine(machine),
                   dataclasses.asdict(stats))
        return store

    def _rewrite(self, store, position, edit):
        path = store.path_for(self.KEY, position)
        data = path.read_bytes()
        end = data.index(b"\n")
        header, body = json.loads(data[:end]), data[end + 1 :]
        header, body = edit(header, body)
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)

    def _assert_skipped(self, store, trace, positions):
        """With the checkpoints at ``positions`` damaged, warming to 250
        resumes from the highest intact one (or replays from zero) and
        matches the full replay."""
        intact = [at for at in (100, 200) if at not in positions]
        checkpoint.activate(store)
        reference = Machine(CONFIG, BASELINE, backend="python")
        expected = run_functional_warming(reference, trace, 0, 250)
        machine = Machine(CONFIG, BASELINE, backend="python")
        stats = warm_prefix(machine, trace, 250, checkpoint_key=self.KEY)
        counters = checkpoint.consume_counters()
        assert counters["instructions_skipped"] == (
            intact[-1] if intact else 0
        )
        assert counters["checkpoint_misses"] == (0 if intact else 1)
        assert _stats_tuple(stats) == _stats_tuple(expected)
        assert _canonical(snapshot_machine(machine)) == _canonical(
            snapshot_machine(reference)
        )

    EDITS = {
        "truncated_body": lambda h, b: (h, b[:-8]),
        "trailing_bytes": lambda h, b: (h, b + b"\0" * 8),
        "wrong_array_length": lambda h, b: (
            {**h, "arrays": [[n, k + 1 if n == "predictor.gshare" else k]
                             for n, k in h["arrays"]]},
            b + b"\0" * 8,
        ),
        "unknown_array_name": lambda h, b: (
            {**h, "arrays": [["predictor.tage" if n == "predictor.gshare"
                              else n, k] for n, k in h["arrays"]]},
            b,
        ),
        "old_version": lambda h, b: ({**h, "version": 1}, b),
        "wrong_position": lambda h, b: ({**h, "position": 300}, b),
        "bad_stats": lambda h, b: (
            {**h, "stats": {**h["stats"], "instructions": "x"}}, b
        ),
        "unknown_stats": lambda h, b: (
            {**h, "stats": {**h["stats"], "cycles": 0}}, b
        ),
    }

    @pytest.mark.parametrize("damage", sorted(EDITS))
    def test_damaged_checkpoint_falls_back(self, store, trace, damage):
        self._rewrite(store, 200, self.EDITS[damage])
        self._assert_skipped(store, trace, {200})

    @pytest.mark.parametrize("damage", sorted(EDITS))
    def test_no_valid_checkpoint_counts_a_miss(self, store, trace, damage):
        for position in (100, 200):
            self._rewrite(store, position, self.EDITS[damage])
        self._assert_skipped(store, trace, {100, 200})

    def test_v1_json_beside_v2_files_is_ignored(self, store, trace):
        for position in (150, 220):
            path = store.root / self.KEY[:2] / f"{self.KEY}-{position}.json"
            path.write_text(json.dumps({"version": 1, "position": position}))
        assert store.positions(self.KEY) == [100, 200]
        self._assert_skipped(store, trace, set())

    def test_other_geometry_is_skipped(self, tmp_path, trace):
        """A too-long or too-short predictor table never reaches a
        machine: both directions are rejected before any write."""
        store = CheckpointStore(tmp_path, 100)
        machine = Machine(CONFIG, BASELINE, backend="python")
        cold = _canonical(snapshot_machine(machine))
        for factor in (0.5, 2):
            config = dataclasses.replace(
                CONFIG, bht_entries=int(CONFIG.bht_entries * factor)
            )
            writer = Machine(config, BASELINE, backend="python")
            run_functional_warming(writer, trace, 0, 100)
            store.save(config.name + str(factor), 100,
                       snapshot_machine(writer), {})
            assert store.nearest(
                config.name + str(factor), 100, layout(machine), []
            ) is None
            with pytest.raises(ValueError):
                restore_machine(machine, snapshot_machine(writer))
            assert _canonical(snapshot_machine(machine)) == cold


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


def warmed_grid():
    """Warmed FF runs of two latency variants sharing one checkpoint
    chain; every warm end lies at or past the first checkpoint."""
    workload = get_workload("gzip", "reference", seed=7)
    variant = dataclasses.replace(
        CONFIG, name="latvar", l2_latency=CONFIG.l2_latency + 3
    )
    return [
        RunRequest(FFRunZ(x_m, 100, warmed=True), workload, config)
        for x_m in (1000, 2000)
        for config in (CONFIG, variant)
    ]


class TestHitGuard:
    """A format bug that skips every checkpoint leaves results
    bit-identical and silently gives up the speedup; this catches it."""

    def test_second_sweep_resumes_every_run(self, tmp_path):
        requests = warmed_grid()
        for _ in range(2):
            engine = Engine(
                scale=Scale(2), jobs=1, cache_dir=tmp_path, history=False
            )
            try:
                engine.run_many(requests)
                snapshot = engine.metrics.snapshot()
            finally:
                engine.close()
            shutil.rmtree(engine.store.directory)  # rerun every request
        assert snapshot["checkpoint_misses"] == 0
        assert snapshot["checkpoint_hits"] == len(requests)


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

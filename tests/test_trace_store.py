"""Tests for the zero-copy shared trace store.

The contract under test: a stored trace loads back column-for-column
identical (served memory-mapped), any identity mismatch -- stale
generator epoch, different scale, different input-set content, corrupt
bytes -- is a miss that the caller regenerates through, and concurrent
savers racing on one file converge on a single intact copy.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.isa.trace import _COLUMN_NAMES
from repro.scale import Scale
from repro.workloads import trace_store
from repro.workloads.trace_store import TraceStore

from tests.conftest import TEST_SCALE, make_micro_workload


@pytest.fixture()
def store(tmp_path):
    return TraceStore(tmp_path / "traces")


@pytest.fixture(autouse=True)
def _drain_counters():
    """Each test observes only its own hit/miss traffic."""
    trace_store.consume_counters()
    yield
    trace_store.consume_counters()


def _columns_equal(a, b) -> bool:
    return all(
        np.array_equal(
            np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        )
        for name in _COLUMN_NAMES
    )


class TestRoundTrip:
    def test_columns_identical_after_reload(self, store):
        workload = make_micro_workload()
        trace = workload.trace(TEST_SCALE)
        store.save(workload, TEST_SCALE, trace)

        loaded = store.load(workload, TEST_SCALE)
        assert loaded is not None
        assert len(loaded) == len(trace)
        assert loaded.num_blocks == trace.num_blocks
        assert _columns_equal(loaded, trace)
        counters = trace_store.consume_counters()
        assert counters["trace_cache_hits"] == 1
        assert counters["trace_cache_misses"] == 0

    def test_loaded_columns_are_memory_mapped(self, store):
        workload = make_micro_workload()
        store.save(workload, TEST_SCALE, workload.trace(TEST_SCALE))
        loaded = store.load(workload, TEST_SCALE)
        assert isinstance(loaded.op, np.memmap)
        assert not loaded.op.flags.writeable

    def test_save_is_idempotent(self, store):
        workload = make_micro_workload()
        trace = workload.trace(TEST_SCALE)
        path1 = store.save(workload, TEST_SCALE, trace)
        path2 = store.save(workload, TEST_SCALE, trace)
        assert path1 == path2
        assert _columns_equal(store.load(workload, TEST_SCALE), trace)


class TestMissesNeverTrusted:
    def test_absent_file_is_miss(self, store):
        workload = make_micro_workload()
        assert store.load(workload, TEST_SCALE) is None
        assert trace_store.consume_counters()["trace_cache_misses"] == 1

    def test_scale_mismatch_is_miss(self, store):
        workload = make_micro_workload()
        store.save(workload, TEST_SCALE, workload.trace(TEST_SCALE))
        assert store.load(workload, Scale(7)) is None

    def test_input_content_mismatch_is_miss(self, store):
        workload = make_micro_workload()
        store.save(workload, TEST_SCALE, workload.trace(TEST_SCALE))
        # Same input-set *name*, different content: must not alias.
        longer = make_micro_workload(length_m=800.0)
        assert longer.input_set.name == workload.input_set.name
        assert store.load(longer, TEST_SCALE) is None

    def test_stale_epoch_rejected_and_regenerated(self, store, monkeypatch):
        import repro.workloads.generator as generator

        workload = make_micro_workload()
        trace = workload.trace(TEST_SCALE)
        store.save(workload, TEST_SCALE, trace)

        # A generator fix bumps the epoch: the stored file is now a
        # miss, and saving through the same store replaces it.
        monkeypatch.setattr(generator, "TRACE_EPOCH", generator.TRACE_EPOCH + 1)
        assert store.load(workload, TEST_SCALE) is None
        assert trace_store.consume_counters()["trace_cache_misses"] == 1
        store.save(workload, TEST_SCALE, trace)
        assert store.load(workload, TEST_SCALE) is not None

    def test_corrupt_file_is_miss(self, store):
        workload = make_micro_workload()
        store.save(workload, TEST_SCALE, workload.trace(TEST_SCALE))
        path = store.path_for(store.key_for(workload, TEST_SCALE))
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert store.load(workload, TEST_SCALE) is None

    def test_bad_magic_is_miss(self, store):
        workload = make_micro_workload()
        store.save(workload, TEST_SCALE, workload.trace(TEST_SCALE))
        path = store.path_for(store.key_for(workload, TEST_SCALE))
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTATRAC"
        path.write_bytes(bytes(blob))
        assert store.load(workload, TEST_SCALE) is None


class TestConcurrency:
    def test_racing_savers_converge_on_one_intact_file(self, store):
        workload = make_micro_workload()
        trace = workload.trace(TEST_SCALE)
        errors = []

        def save():
            try:
                store.save(workload, TEST_SCALE, trace)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=save) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        loaded = store.load(workload, TEST_SCALE)
        assert loaded is not None
        assert _columns_equal(loaded, trace)
        # The atomic renames leave no temp-file debris behind.
        directory = store.path_for(store.key_for(workload, TEST_SCALE)).parent
        assert [p for p in directory.iterdir() if p.suffix == ".tmp"] == []


class TestActivation:
    def test_workload_trace_uses_active_store(self, store):
        from repro.workloads.inputs import clear_trace_cache

        trace_store.activate(store)
        try:
            clear_trace_cache()
            first = make_micro_workload()
            reference = first.trace(TEST_SCALE)  # miss: generated + saved
            counters = trace_store.consume_counters()
            assert counters["trace_cache_misses"] == 1

            # The in-process LRU answers first; once cleared (as in a
            # fresh worker process), the stored file is loaded instead
            # of regenerating.
            clear_trace_cache()
            again = make_micro_workload()
            loaded = again.trace(TEST_SCALE)
            counters = trace_store.consume_counters()
            assert counters["trace_cache_hits"] == 1
            assert _columns_equal(loaded, reference)
        finally:
            trace_store.activate(None)

    def test_activation_returns_the_store_it_replaces(self, tmp_path):
        first = TraceStore(tmp_path / "t")
        assert trace_store.activate(first) is None
        active = trace_store.active_store()
        assert active is not None
        assert active.root == tmp_path / "t"
        assert trace_store.activate(TraceStore(tmp_path / "u")) is first
        assert trace_store.activate(first).root == tmp_path / "u"
        assert trace_store.activate(None) is first
        assert trace_store.active_store() is None

    def test_mmap_loaded_trace_simulates_identically(self, store):
        from repro.cpu.config import ARCH_CONFIGS
        from repro.cpu.simulator import Simulator

        workload = make_micro_workload()
        trace = workload.trace(TEST_SCALE)
        store.save(workload, TEST_SCALE, trace)
        loaded = store.load(workload, TEST_SCALE)

        simulator = Simulator(ARCH_CONFIGS[0])
        native = simulator.run_region(trace, 0, len(trace) // 2)
        mapped = simulator.run_region(loaded, 0, len(loaded) // 2)
        assert mapped.stats == native.stats

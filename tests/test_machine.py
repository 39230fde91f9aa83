"""Tests for Machine construction from configurations."""

import pytest

from repro.cpu.config import NLP, ProcessorConfig
from repro.cpu.machine import Machine


class TestMachine:
    def test_geometry_from_config(self):
        config = ProcessorConfig(
            dl1_size_kb=32, dl1_assoc=2, dl1_block=32,
            l2_size_kb=256, l2_assoc=4, l2_block=64,
        )
        machine = Machine(config)
        assert machine.dl1.num_sets == 32 * 1024 // (2 * 32)
        assert machine.l2.num_sets == 256 * 1024 // (4 * 64)
        assert machine.dl1.parent is machine.l2
        assert machine.il1.parent is machine.l2
        assert machine.l2.memory is machine.memory

    def test_predictor_kind(self):
        config = ProcessorConfig(branch_predictor="bimodal")
        machine = Machine(config, backend="python")
        assert machine.predictor.kind_name == "bimodal"
        machine = Machine(config, backend="numpy")
        assert machine.predictor.kind_name == "bimodal"

    def test_one_structure_set_for_every_backend(self):
        # Both backends drive the same structure classes; only the
        # kernels that advance them differ.
        config = ProcessorConfig()
        python, numpy = (
            Machine(config, backend=name) for name in ("python", "numpy")
        )
        for name in ("memory", "l2", "il1", "dl1", "itlb", "dtlb",
                     "predictor", "btb", "ras"):
            assert type(getattr(python, name)) is type(getattr(numpy, name))

    def test_nlp_enables_dl1_prefetch_only(self):
        machine = Machine(ProcessorConfig(), NLP)
        assert machine.dl1.next_line_prefetch
        assert not machine.il1.next_line_prefetch
        assert not machine.l2.next_line_prefetch

    def test_default_no_prefetch(self):
        machine = Machine(ProcessorConfig())
        assert not machine.dl1.next_line_prefetch

    def test_cache_snapshot_keys(self):
        snapshot = Machine(ProcessorConfig()).cache_snapshot()
        for key in (
            "il1_hits", "il1_misses", "dl1_hits", "dl1_misses",
            "l2_hits", "l2_misses", "itlb_misses", "dtlb_misses",
            "prefetches",
        ):
            assert key in snapshot
            assert snapshot[key] == 0

    def test_pb_extremes_constructible(self):
        from repro.cpu.config import pb_config
        Machine(pb_config([1] * 43))
        Machine(pb_config([-1] * 43))

    def test_tlb_sizes(self):
        machine = Machine(ProcessorConfig(itlb_entries=16, dtlb_entries=128))
        assert machine.itlb.assoc * (machine.itlb.set_mask + 1) == 16
        assert machine.dtlb.assoc * (machine.dtlb.set_mask + 1) == 128

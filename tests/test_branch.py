"""Tests for branch predictors, BTB and the return-address stack."""

import pytest

from repro.cpu.branch import BranchTargetBuffer, Predictor, ReturnAddressStack


class TestBimodal:
    def test_learns_biased_branch(self):
        predictor = Predictor("bimodal", 256)
        pc = 0x400100
        for _ in range(4):
            predictor.predict_update(pc, True)
        assert predictor.predict_update(pc, True)

    def test_initial_weakly_not_taken(self):
        predictor = Predictor("bimodal", 256)
        # Counter starts at 1 (weakly not-taken): first taken branch
        # mispredicts.
        assert not predictor.predict_update(0x400100, True)

    def test_entries_power_of_two(self):
        with pytest.raises(ValueError):
            Predictor("bimodal", 100)

    def test_accuracy_on_biased_stream(self):
        predictor = Predictor("bimodal", 1024)
        import random
        rng = random.Random(42)
        correct = 0
        trials = 2000
        for _ in range(trials):
            taken = rng.random() < 0.9
            correct += predictor.predict_update(0x400200, taken)
        assert correct / trials > 0.8


class TestGshare:
    def test_learns_alternating_pattern(self):
        predictor = Predictor("gshare", 1024)
        outcomes = [True, False] * 200
        correct = 0
        for taken in outcomes:
            correct += predictor.predict_update(0x400300, taken)
        # The pattern is perfectly predictable with global history.
        assert correct / len(outcomes) > 0.8

    def test_history_updates(self):
        predictor = Predictor("gshare", 256)
        predictor.predict_update(0, True)
        assert predictor.history & 1 == 1
        predictor.predict_update(0, False)
        assert predictor.history & 1 == 0


class TestCombined:
    def test_beats_components_on_mixed_stream(self):
        import random
        rng = random.Random(7)
        streams = [(0x100, 0.95), (0x200, 0.05)]
        combined = Predictor("combined", 1024)
        correct = 0
        trials = 3000
        for _ in range(trials):
            pc, bias = streams[rng.randrange(2)]
            taken = rng.random() < bias
            correct += combined.predict_update(pc, taken)
        assert correct / trials > 0.85

    def test_alternating_learned(self):
        combined = Predictor("combined", 1024)
        correct = sum(
            combined.predict_update(0x400, taken)
            for taken in [True, False] * 300
        )
        assert correct / 600 > 0.8


class TestDegeneratePredictors:
    def test_static_taken(self):
        predictor = Predictor("taken", 1)
        assert predictor.predict_update(0, True)
        assert not predictor.predict_update(0, False)

    def test_perfect(self):
        predictor = Predictor("perfect", 1)
        assert predictor.predict_update(0, True)
        assert predictor.predict_update(0, False)

    def test_factory(self):
        assert Predictor("combined", 64).kind_name == "combined"
        assert Predictor("bimodal", 64).kind_name == "bimodal"
        assert Predictor("gshare", 64).kind_name == "gshare"
        with pytest.raises(ValueError):
            Predictor("neural", 64)


class TestBTB:
    def test_first_lookup_misses(self):
        btb = BranchTargetBuffer(64, 4)
        assert not btb.lookup_update(0x400, 0x500)

    def test_repeat_lookup_hits(self):
        btb = BranchTargetBuffer(64, 4)
        btb.lookup_update(0x400, 0x500)
        assert btb.lookup_update(0x400, 0x500)

    def test_target_change_detected(self):
        btb = BranchTargetBuffer(64, 4)
        btb.lookup_update(0x400, 0x500)
        assert not btb.lookup_update(0x400, 0x600)
        assert btb.lookup_update(0x400, 0x600)  # retrained

    def test_capacity_eviction(self):
        btb = BranchTargetBuffer(4, 1)  # 4 sets, direct-mapped
        # Two pcs aliasing to the same set: 4-entry direct mapped,
        # set = (pc >> 2) & 3.
        btb.lookup_update(0x0, 0x100)
        btb.lookup_update(0x10, 0x200)  # same set 0
        assert not btb.lookup_update(0x0, 0x100)  # evicted


class TestRAS:
    def test_balanced_calls_predict_correctly(self):
        ras = ReturnAddressStack(8)
        for _ in range(4):
            ras.push()
        results = [ras.pop() for _ in range(4)]
        assert all(results)

    def test_overflow_causes_mispredict(self):
        ras = ReturnAddressStack(2)
        for _ in range(3):
            ras.push()
        assert ras.pop()  # newest two are fine
        assert ras.pop()
        assert not ras.pop()  # crushed entry

    def test_underflow_mispredicts(self):
        ras = ReturnAddressStack(4)
        assert not ras.pop()

    def test_depth_tracking(self):
        ras = ReturnAddressStack(4)
        ras.push()
        ras.push()
        assert ras.depth == 2
        ras.pop()
        assert ras.depth == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(0)

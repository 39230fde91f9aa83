"""Tests for the Table 1 permutation registry."""

import pytest

from repro.techniques.reference import ReferenceTechnique
from repro.techniques.registry import (
    FAMILIES,
    all_permutations,
    count_permutations,
    permutations,
    permutations_for_family,
)


class TestCounts:
    def test_table1_counts(self):
        assert len(permutations("SimPoint")) == 3
        assert len(permutations("SMARTS")) == 9
        assert len(permutations("Run Z")) == 4
        assert len(permutations("FF+Run Z")) == 12
        assert len(permutations("FF+WU+Run Z")) == 36

    def test_total_with_all_inputs(self):
        # gzip and vortex ship all five reduced inputs: 69 permutations.
        assert count_permutations("gzip") == 69
        assert count_permutations("vortex") == 69

    def test_total_shrinks_with_availability(self):
        assert count_permutations("art") == 66  # only test/train
        assert count_permutations("mcf") == 68

    def test_figure6_simpoint_variant(self):
        assert len(permutations("SimPoint", extras=True)) == 4


class TestPermutationStructure:
    def test_ff_wu_sums_to_grid(self):
        for technique in permutations("FF+WU+Run Z"):
            assert technique.x_m + technique.y_m in (1000, 2000, 4000)

    def test_unique_labels_per_family(self):
        for family in FAMILIES:
            techniques = permutations(family, "gzip")
            labels = [p.permutation for p in techniques]
            assert len(set(labels)) == len(labels)

    def test_family_attribute_consistent(self):
        for family in FAMILIES:
            for technique in permutations(family, "gzip"):
                assert technique.family == family

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            permutations("montecarlo")

    def test_reference_family(self):
        techniques = permutations("Reference")
        assert len(techniques) == 1
        assert isinstance(techniques[0], ReferenceTechnique)

    def test_reduced_filtering(self):
        names = {t.input_set for t in permutations("Reduced", "art")}
        assert names == {"test", "train"}

    def test_all_permutations_structure(self):
        grouped = all_permutations("gzip")
        assert set(grouped) == set(FAMILIES)

    def test_smarts_grid(self):
        pairs = {
            (t.unit_instructions, t.warmup_instructions)
            for t in permutations("SMARTS")
        }
        assert len(pairs) == 9
        assert (1000, 2000) in pairs


class TestPermutationsForFamily:
    def test_permutations_for_family_is_quiet(self):
        assert len(permutations_for_family("SMARTS")) == 9

"""Property-based tests (hypothesis) on core data structures and math."""

import math

import numpy as np
import pytest
# compare_profiles imports scipy.stats lazily on first use (about 1 s);
# importing it here keeps that cost out of the first timed example of
# the deadline-bound profile properties below.
import scipy.stats  # noqa: F401
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.config_dependence import ConfigDependenceResult, error_trends
from repro.analysis.decision import recommend
from repro.characterization.plackett_burman import PlackettBurmanDesign
from repro.characterization.profile import compare_profiles
from repro.cpu.branch import ReturnAddressStack
from repro.cpu.cache import Cache, MainMemory
from repro.techniques.simpoint.kmeans import kmeans
from repro.util.rng import stream_seed
from repro.util.vectors import (
    euclidean_distance,
    manhattan_distance,
    rank_vector,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestVectorProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=32))
    def test_rank_vector_is_permutation(self, values):
        ranks = rank_vector(values)
        assert sorted(ranks) == list(range(1, len(values) + 1))

    @given(st.lists(finite_floats, min_size=1, max_size=32))
    def test_rank_one_is_max_magnitude(self, values):
        ranks = rank_vector(values)
        top = ranks.index(1)
        assert abs(values[top]) == max(abs(v) for v in values)

    @given(
        st.lists(finite_floats, min_size=1, max_size=16),
        st.lists(finite_floats, min_size=1, max_size=16),
        st.lists(finite_floats, min_size=1, max_size=16),
    )
    def test_triangle_inequality(self, a, b, c):
        n = min(len(a), len(b), len(c))
        a, b, c = a[:n], b[:n], c[:n]
        assert euclidean_distance(a, c) <= (
            euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-6
        )

    @given(st.lists(finite_floats, min_size=1, max_size=16))
    def test_distance_to_self_zero(self, a):
        assert euclidean_distance(a, a) == 0.0
        assert manhattan_distance(a, a) == 0.0

    @given(
        st.lists(finite_floats, min_size=2, max_size=16),
        st.lists(finite_floats, min_size=2, max_size=16),
    )
    def test_l1_dominates_l2(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert manhattan_distance(a, b) >= euclidean_distance(a, b) - 1e-9


class TestRngProperties:
    @given(st.integers(0, 2**31), st.text(max_size=20), st.text(max_size=20))
    def test_seed_in_range(self, root, a, b):
        seed = stream_seed(root, a, b)
        assert 0 <= seed < 2**63

    @given(st.integers(0, 2**31), st.text(max_size=10))
    def test_seed_deterministic(self, root, name):
        assert stream_seed(root, name) == stream_seed(root, name)


class TestCacheProperties:
    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = Cache("c", 512, 2, 32, 1, memory=MainMemory(100, 5, 8))
        for addr in addresses:
            cache.access(addr)
        assert len(cache.tags) == cache.num_sets * cache.assoc
        for base in range(0, len(cache.tags), cache.assoc):
            ways = [tag for tag in cache.tags[base : base + cache.assoc]
                    if tag != -1]
            assert len(ways) <= cache.assoc
            assert len(set(ways)) == len(ways)

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = Cache("c", 1024, 4, 32, 1, memory=MainMemory(100, 5, 8))
        for addr in addresses:
            cache.access(addr)
        assert cache.hits + cache.misses == len(addresses)

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_repeat_access_always_hits(self, addresses):
        cache = Cache("c", 1024, 4, 32, 1, memory=MainMemory(100, 5, 8))
        for addr in addresses:
            cache.access(addr)
            assert cache.access(addr) == cache.hit_latency

    @given(st.lists(st.integers(0, 1 << 18), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_warm_and_access_reach_same_residency(self, addresses):
        memory = MainMemory(100, 5, 8)
        a = Cache("a", 512, 2, 32, 1, memory=memory)
        b = Cache("b", 512, 2, 32, 1, memory=memory)
        for addr in addresses:
            a.access(addr)
            b.warm(addr)
        for addr in addresses[-20:]:
            assert a.contains(addr) == b.contains(addr)


class TestRasProperties:
    @given(st.lists(st.booleans(), max_size=200), st.integers(1, 32))
    def test_depth_bounded(self, operations, entries):
        ras = ReturnAddressStack(entries)
        for is_push in operations:
            if is_push:
                ras.push()
            else:
                ras.pop()
            assert 0 <= ras.depth <= entries

    @given(st.integers(1, 32), st.integers(1, 64))
    def test_balanced_within_capacity_never_mispredicts(self, entries, depth):
        ras = ReturnAddressStack(entries)
        effective = min(depth, entries)
        for _ in range(effective):
            ras.push()
        assert all(ras.pop() for _ in range(effective))


class TestPBProperties:
    @given(st.lists(finite_floats, min_size=44, max_size=44))
    @settings(max_examples=30, deadline=None)
    def test_constant_shift_does_not_change_effects(self, responses):
        design = PlackettBurmanDesign()
        base = design.effects(responses)
        shifted = design.effects([r + 100.0 for r in responses])
        assert np.allclose(base, shifted, atol=1e-6)

    @given(st.floats(min_value=0.1, max_value=10, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_scaling_scales_effects(self, factor):
        design = PlackettBurmanDesign()
        rng = np.random.default_rng(0)
        responses = rng.random(44)
        base = design.effects(responses)
        scaled = design.effects(responses * factor)
        assert np.allclose(scaled, base * factor, atol=1e-9)


class TestProfileProperties:
    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=30)
    )
    @settings(max_examples=50)
    def test_self_comparison_always_similar(self, profile):
        comparison = compare_profiles(profile, profile)
        assert comparison.statistic == pytest.approx(0.0, abs=1e-6)
        assert comparison.similar

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=30),
        st.floats(min_value=0.01, max_value=100),
    )
    @settings(max_examples=50)
    def test_scale_invariance(self, profile, factor):
        scaled = [p * factor for p in profile]
        comparison = compare_profiles(scaled, profile)
        assert comparison.statistic == pytest.approx(0.0, abs=1e-6)


class TestKMeansProperties:
    @given(st.integers(1, 5), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_inertia_nonincreasing_in_k(self, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.random((30, 3))
        small = kmeans(points, 1, seeds=2, max_iterations=20, seed=seed)
        bigger = kmeans(points, k, seeds=2, max_iterations=20, seed=seed)
        assert bigger.inertia <= small.inertia + 1e-9


class TestAnalysisProperties:
    @given(st.lists(st.floats(min_value=-0.99, max_value=5.0), min_size=1, max_size=60))
    def test_histogram_is_distribution(self, errors):
        record = ConfigDependenceResult("f", "p", errors)
        histogram = record.histogram
        assert sum(histogram) == pytest.approx(1.0)
        assert all(0 <= share <= 1 for share in histogram)

    @given(st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=40))
    def test_all_positive_errors_trend(self, errors):
        assert error_trends(errors)

    @given(
        st.lists(
            st.sampled_from(
                ["accuracy", "speed_vs_accuracy", "configuration_independence",
                 "complexity_to_use", "cost_to_generate"]
            ),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    def test_recommend_returns_all_six(self, priorities):
        ranking = recommend(priorities)
        assert len(ranking) == 6
        scores = [score for _, score in ranking]
        assert scores == sorted(scores, reverse=True)

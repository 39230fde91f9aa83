"""Tests for SMARTS sampling and its statistics."""

import math

import numpy as np
import pytest
from scipy import special, stats

from repro.cpu.config import ARCH_CONFIGS
from repro.scale import PROFILES, Scale
from repro.techniques.reference import ReferenceTechnique
from repro.techniques.smarts import (
    SmartsTechnique,
    estimate_cpi,
    required_samples,
)
from repro.techniques.smarts.statistics import _ndtri

from tests.conftest import TEST_SCALE, make_micro_workload

CONFIG = ARCH_CONFIGS[0]


@pytest.fixture(scope="module")
def workload():
    return make_micro_workload(length_m=800, seed=33)


class TestStatistics:
    def test_estimate_mean(self):
        estimate = estimate_cpi([1.0, 2.0, 3.0])
        assert estimate.mean == pytest.approx(2.0)
        assert estimate.n == 3

    def test_zero_variance(self):
        estimate = estimate_cpi([2.0] * 10)
        assert estimate.std == 0.0
        assert estimate.relative_halfwidth == 0.0
        assert estimate.satisfies(0.03)

    def test_single_sample_unbounded(self):
        estimate = estimate_cpi([2.0])
        assert estimate.halfwidth == float("inf")
        assert not estimate.satisfies(0.03)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_cpi([])

    def test_halfwidth_shrinks_with_n(self):
        samples_small = [1.0, 3.0] * 5
        samples_large = [1.0, 3.0] * 50
        small = estimate_cpi(samples_small)
        large = estimate_cpi(samples_large)
        assert large.halfwidth < small.halfwidth

    def test_required_samples_grows_with_cv(self):
        low_var = estimate_cpi([1.0, 1.1] * 10)
        high_var = estimate_cpi([0.5, 2.5] * 10)
        assert required_samples(high_var) > required_samples(low_var)

    def test_required_samples_zero_variance(self):
        estimate = estimate_cpi([2.0] * 5)
        assert required_samples(estimate) == 5

    def test_confidence_increases_requirement(self):
        samples = [1.0, 2.0] * 20
        loose = required_samples(estimate_cpi(samples, confidence=0.9))
        tight = required_samples(estimate_cpi(samples, confidence=0.997))
        assert tight > loose


def _probes():
    """Dense probes over (0, 1): uniform draws, both tails down to
    1e-300, every branch boundary, and SMARTS' confidence levels."""
    rng = np.random.default_rng(2005)
    tail = np.logspace(-300, -1, 20_000)
    boundaries = [
        math.exp(-2), 1.0 - math.exp(-2), math.exp(-32), 1.0 - math.exp(-32),
        0.5, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0), 5e-324,
        2.2250738585072014e-308,
    ]
    levels = [0.5 + c / 2.0 for c in (0.68, 0.9, 0.95, 0.99, 0.997, 0.999)]
    return np.concatenate([
        rng.uniform(0.0, 1.0, 40_000), tail, 1.0 - tail,
        np.linspace(0.0, 1.0, 10_001), boundaries, levels,
    ])


class TestNormalQuantile:
    """The in-tree Cephes port must equal scipy bit for bit: a last-ulp
    difference could flip ``satisfies()`` or ``required_samples()`` at
    a boundary, and with it which samples SMARTS simulates."""

    def test_bit_identical_to_scipy_ndtri(self):
        probes = _probes()
        got = [_ndtri(float(p)) for p in probes]
        mismatches = [
            (float(p), ours, float(theirs))
            for p, ours, theirs in zip(probes, got, special.ndtri(probes))
            if ours != theirs
        ]
        assert mismatches == []

    @pytest.mark.parametrize(
        "confidence", [0.68, 0.9, 0.95, 0.99, 0.997, 0.999]
    )
    def test_matches_norm_ppf_at_smarts_levels(self, confidence):
        p = 0.5 + confidence / 2.0
        assert _ndtri(p) == float(stats.norm.ppf(p))

    def test_endpoints_and_domain(self):
        assert _ndtri(0.0) == -math.inf == special.ndtri(0.0)
        assert _ndtri(1.0) == math.inf == special.ndtri(1.0)
        for bad in (-1e-300, -0.5, 1.0 + 1e-15, 2.0, math.inf, -math.inf,
                    math.nan):
            assert math.isnan(_ndtri(bad))
            assert math.isnan(special.ndtri(bad))


class TestScaleAdaptation:
    def test_full_scale_literal(self):
        technique = SmartsTechnique(1000, 2000)
        u, w = technique.effective_unit(Scale(PROFILES["full"]))
        assert (u, w) == (1000, 2000)

    def test_tiny_scale_shrinks(self):
        technique = SmartsTechnique(1000, 2000)
        u, w = technique.effective_unit(Scale(25))
        assert u == 50 and w == 100

    def test_minimum_unit(self):
        technique = SmartsTechnique(100, 200)
        u, _ = technique.effective_unit(Scale(25))
        assert u >= 10

    def test_sample_plan_capped_by_trace(self):
        technique = SmartsTechnique(10000, 20000)
        n = technique.plan_samples(trace_length=10_000, scale=Scale(500))
        assert n * (30000) >= 10_000 or n >= 1
        assert n <= 10_000 // (30000 + 1) or n == 1

    def test_explicit_initial_samples(self):
        technique = SmartsTechnique(100, 200, initial_samples=7)
        n = technique.plan_samples(trace_length=100_000, scale=Scale(500))
        assert n == 7


class TestSmartsRun:
    def test_close_to_reference(self, workload):
        reference = ReferenceTechnique().run(workload, CONFIG, TEST_SCALE)
        result = SmartsTechnique(10000, 20000).run(workload, CONFIG, TEST_SCALE)
        assert result.cpi == pytest.approx(reference.cpi, rel=0.15)

    def test_work_profile(self, workload):
        result = SmartsTechnique(1000, 2000).run(workload, CONFIG, TEST_SCALE)
        trace_length = len(workload.trace(TEST_SCALE))
        assert 0 < result.detailed_instructions < trace_length
        assert result.functional_warm_instructions > 0
        assert result.runs >= 1

    def test_regions_disjoint_and_ordered(self, workload):
        result = SmartsTechnique(1000, 2000).run(workload, CONFIG, TEST_SCALE)
        previous_end = 0
        for start, end in result.regions:
            assert start >= previous_end
            assert end > start
            previous_end = end

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SmartsTechnique(0, 100)
        with pytest.raises(ValueError):
            SmartsTechnique(100, -1)
        with pytest.raises(ValueError):
            SmartsTechnique(100, 200, confidence=1.5)

    def test_permutation_label(self):
        assert SmartsTechnique(1000, 2000).permutation == "U=1000, W=2000"

"""Order statistics and the base-vs-head verdict."""

from __future__ import annotations

import statistics

import pytest

from benchmarks.perf import stats


class TestSummaries:
    def test_quartiles_match_the_standard_library(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        assert stats.quartiles(values) == tuple(
            statistics.quantiles(values, n=4))
        assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
        with pytest.raises(ValueError):
            stats.quartiles([])

    def test_median_ci_uses_the_narrowest_95_percent_order_statistics(self):
        values = list(range(1, 11))
        low, high, coverage = stats.median_ci(values)
        # Ranks 2 and 9 of 10 cover the median with 97.9 %; 3 and 8
        # would give only 89.1 %.
        assert (low, high) == (2, 9)
        assert coverage == pytest.approx(1 - 2 * 11 / 1024)

    def test_small_samples_report_the_coverage_they_reach(self):
        low, high, coverage = stats.median_ci([3.0, 1.0, 2.0])
        assert (low, high) == (1.0, 3.0)
        assert coverage == pytest.approx(0.75)

    def test_summarize(self):
        summary = stats.summarize([1.0, 2.0, 3.0, 4.0, 100.0])
        assert summary["n"] == 5
        assert summary["median"] == 3.0
        assert summary["ci95_half"] == pytest.approx((100.0 - 1.0) / 2)
        assert summary["samples"] == [1.0, 2.0, 3.0, 4.0, 100.0]


class TestVerdict:
    base = [10.0, 10.1, 10.2, 9.9, 10.0, 10.1, 9.8, 10.0, 10.05, 9.95]

    def test_worse_beyond_the_bound(self):
        head = [x * 1.3 for x in self.base]
        assert stats.verdict(self.base, head, 0.1, "lower") == "worse"
        assert stats.verdict(head, self.base, 0.1, "higher") == "worse"

    def test_better_needs_nine_tenths_of_pairs_and_the_spread(self):
        head = [x * 0.8 for x in self.base]
        assert stats.verdict(self.base, head, 0.1, "lower") == "better"
        assert stats.verdict(self.base, self.base, 0.1, "lower") == "unchanged"

    def test_unresolved_when_the_base_spread_exceeds_the_bound(self):
        noisy = [5.0, 10.0, 15.0, 8.0, 12.0, 20.0, 6.0]
        head = [x * 1.05 for x in noisy]
        assert stats.verdict(noisy, head, 0.1, "lower") == "unresolved"
        assert stats.verdict(noisy, [x * 1.5 for x in noisy], 0.1,
                             "lower") == "unresolved"
        # Every head sample worse than every base sample is still worse.
        assert stats.verdict(noisy, [x + 100 for x in noisy], 0.1,
                             "lower") == "worse"

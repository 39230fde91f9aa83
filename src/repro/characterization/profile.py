"""Execution-profile characterization (Section 4.2).

Techniques are compared at the software level through their basic-block
profiles: execution frequencies (BBEF) or instruction-weighted vectors
(BBV).  A chi-squared test decides statistical similarity to the
reference profile, and the chi-squared statistic doubles as a distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Blocks whose expected count falls below this are pooled together,
#: the standard validity guard for chi-squared tests.
MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class ChiSquaredComparison:
    """Outcome of a chi-squared comparison of two block profiles."""

    statistic: float
    degrees_of_freedom: int
    critical_value: float
    similar: bool

    @property
    def normalized(self) -> float:
        """Statistic per degree of freedom (a size-robust distance)."""
        if self.degrees_of_freedom <= 0:
            return 0.0
        return self.statistic / self.degrees_of_freedom


def compare_profiles(
    observed: Sequence[float],
    reference: Sequence[float],
    significance: float = 0.05,
) -> ChiSquaredComparison:
    """Chi-squared comparison of a technique's profile to the reference.

    The reference profile is rescaled to the observed profile's total
    (the technique executed fewer instructions); blocks with tiny
    expected counts are pooled into one cell.
    """
    obs = np.asarray(observed, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if obs.shape != ref.shape:
        raise ValueError(f"profile shapes differ: {obs.shape} vs {ref.shape}")
    obs_total = obs.sum()
    ref_total = ref.sum()
    if obs_total <= 0 or ref_total <= 0:
        raise ValueError("profiles must have positive totals")

    expected = ref * (obs_total / ref_total)

    big = expected >= MIN_EXPECTED
    pooled_expected = expected[big].tolist()
    pooled_observed = obs[big].tolist()
    small_expected = float(expected[~big].sum())
    small_observed = float(obs[~big].sum())
    if small_expected > 0:
        pooled_expected.append(small_expected)
        pooled_observed.append(small_observed)

    expected_arr = np.asarray(pooled_expected)
    observed_arr = np.asarray(pooled_observed)
    # Guard cells the reference never executed but the technique did:
    # they contribute maximally (the technique ran different code).
    zero = expected_arr <= 0
    statistic = float(
        np.sum(
            (observed_arr[~zero] - expected_arr[~zero]) ** 2 / expected_arr[~zero]
        )
    )
    statistic += float(observed_arr[zero].sum())

    # Deferred: scipy costs ~0.7 s to import and only section 5.2 gets here.
    from scipy import stats as scipy_stats

    dof = max(1, len(expected_arr) - 1)
    critical = float(scipy_stats.chi2.ppf(1.0 - significance, dof))
    return ChiSquaredComparison(
        statistic=statistic,
        degrees_of_freedom=dof,
        critical_value=critical,
        similar=statistic <= critical,
    )

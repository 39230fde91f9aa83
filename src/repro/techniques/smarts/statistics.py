"""Statistical machinery behind SMARTS.

SMARTS treats the per-sample CPIs of a systematic sample as
approximately independent draws and computes a confidence interval on
the mean CPI.  If the interval is wider than the user's target, it
computes the sample size that *would* have sufficed and recommends
re-running at that rate.

The normal quantile comes from :func:`_ndtri`, a pure-Python port of
the Cephes ``ndtri`` that ``scipy.special`` ships, so SMARTS agrees with
``scipy.stats.norm.ppf`` to the last bit without importing scipy (whose
import dominates every process's start-up cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Cephes ndtri coefficients (Moshier).  Central region |p - 0.5| <= 3/8:
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# Tails with z = sqrt(-2 log p) in [2, 8), i.e. p down to exp(-32):
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# Far tails, z in [8, 64):
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)
_SQRT_2PI = 2.50662827463100050242e0
_EXP_MINUS_2 = 0.13533528323661269189


def _polevl(x: float, coef: Sequence[float]) -> float:
    """Horner evaluation of ``coef`` (highest degree first)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: Sequence[float]) -> float:
    """Like :func:`_polevl` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(p: float) -> float:
    """Inverse of the standard normal CDF, bit-identical to Cephes."""
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    negate = True
    y = p
    if y > 1.0 - _EXP_MINUS_2:
        y = 1.0 - y
        negate = False
    if y > _EXP_MINUS_2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


@dataclass(frozen=True)
class SampleEstimate:
    """Point estimate and confidence interval for the mean CPI."""

    mean: float
    std: float
    n: int
    confidence: float

    @property
    def standard_error(self) -> float:
        return self.std / math.sqrt(self.n) if self.n else float("inf")

    @property
    def halfwidth(self) -> float:
        """Absolute confidence-interval halfwidth."""
        if self.n < 2:
            return float("inf")
        z = _ndtri(0.5 + self.confidence / 2.0)
        return z * self.standard_error

    @property
    def relative_halfwidth(self) -> float:
        """CI halfwidth relative to the mean (SMARTS' +/-3% target)."""
        if self.mean == 0:
            return float("inf")
        return self.halfwidth / abs(self.mean)

    def satisfies(self, target_relative: float) -> bool:
        return self.relative_halfwidth <= target_relative


def estimate_cpi(sample_cpis: Sequence[float], confidence: float = 0.997) -> SampleEstimate:
    """Estimate mean CPI and CI from per-sample CPIs."""
    n = len(sample_cpis)
    if n == 0:
        raise ValueError("need at least one sample")
    mean = sum(sample_cpis) / n
    if n > 1:
        variance = sum((x - mean) ** 2 for x in sample_cpis) / (n - 1)
        std = math.sqrt(variance)
    else:
        std = 0.0
    return SampleEstimate(mean=mean, std=std, n=n, confidence=confidence)


def required_samples(
    estimate: SampleEstimate, target_relative: float = 0.03
) -> int:
    """Sample size needed to shrink the CI to ``target_relative``.

    Uses the coefficient of variation observed so far:
    ``n* = (z * cv / epsilon)**2`` (rounded up).
    """
    if target_relative <= 0:
        raise ValueError("target_relative must be positive")
    if estimate.mean == 0 or estimate.std == 0:
        return max(estimate.n, 1)
    z = _ndtri(0.5 + estimate.confidence / 2.0)
    cv = estimate.std / abs(estimate.mean)
    return max(1, math.ceil((z * cv / target_relative) ** 2))

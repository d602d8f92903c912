"""Distribution functions for the model-order tests, built on ``math`` alone.

The standard normal CDF and quantile, and the F distribution with d1 = 2,
the law of the prune statistic (a complex amplitude carries two real degrees
of freedom). Its central CDF and quantile are closed forms; its noncentral
tail is a sum of positive terms. No statistics package is used, so
thresholds are bit-stable across environments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

_NC_TAIL = 1e-12


@dataclass(frozen=True)
class FParams:
    """Degrees of freedom and noncentrality of an F distribution; d1 must be 2."""

    d1: float
    d2: float
    noncentrality: float = 0.0

    def __post_init__(self):
        if self.d1 != 2:
            raise DomainError("only d1 = 2 numerator degrees of freedom are supported")
        if not 0 < self.d2 < math.inf:
            raise DomainError("d2 must be positive and finite")
        if not 0 <= self.noncentrality < math.inf:
            raise DomainError("noncentrality must be nonnegative and finite")


# Rational approximation coefficients for the normal quantile (relative error
# below 1.15e-9 everywhere), refined to near machine precision with one
# Halley step against the erfc-based CDF.
_NQ_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_NQ_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_NQ_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_NQ_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def std_normal_inv_cdf(p: float) -> float:
    """Quantile of the standard normal distribution, |error| < 1e-10."""
    if not (0.0 < p < 1.0):
        raise DomainError("normal quantile requires p in (0, 1)")
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (
            ((((_NQ_C[0] * q + _NQ_C[1]) * q + _NQ_C[2]) * q + _NQ_C[3]) * q + _NQ_C[4]) * q
            + _NQ_C[5]
        ) / ((((_NQ_D[0] * q + _NQ_D[1]) * q + _NQ_D[2]) * q + _NQ_D[3]) * q + 1.0)
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (
            (((((_NQ_A[0] * r + _NQ_A[1]) * r + _NQ_A[2]) * r + _NQ_A[3]) * r + _NQ_A[4]) * r + _NQ_A[5])
            * q
            / (((((_NQ_B[0] * r + _NQ_B[1]) * r + _NQ_B[2]) * r + _NQ_B[3]) * r + _NQ_B[4]) * r + 1.0)
        )
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -(
            ((((_NQ_C[0] * q + _NQ_C[1]) * q + _NQ_C[2]) * q + _NQ_C[3]) * q + _NQ_C[4]) * q
            + _NQ_C[5]
        ) / ((((_NQ_D[0] * q + _NQ_D[1]) * q + _NQ_D[2]) * q + _NQ_D[3]) * q + 1.0)
    # One Halley refinement against the exact CDF.
    err = std_normal_cdf(x) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def f2_upper_quantile(log_tail: float, d2: float) -> float:
    """The x with ln P(F > x) = log_tail under F(2, d2): (d2/2) * expm1(-2 log_tail / d2).

    Taking the log of the tail, not a CDF next to 1, and expm1 keep it
    accurate in both tails and for large d2.
    """
    return d2 / 2.0 * math.expm1(-2.0 / d2 * log_tail)


def f_cdf(x: float, params: FParams) -> float:
    """CDF of the central F(2, d2) distribution, 1 - (1 + 2x/d2)^(-d2/2)."""
    if params.noncentrality != 0.0:
        raise DomainError("f_cdf is defined for the central distribution only")
    if not x >= 0:
        raise DomainError("F variate must be nonnegative")
    return -math.expm1(-params.d2 / 2.0 * math.log1p(2.0 * x / params.d2))


def f_inv_cdf(p: float, params: FParams) -> float:
    """Quantile of the central F(2, d2) distribution."""
    if params.noncentrality != 0.0:
        raise DomainError("f_inv_cdf is defined for the central distribution only")
    if not 0.0 <= p < 1.0:
        raise DomainError("F quantile requires p in [0, 1)")
    return f2_upper_quantile(math.log1p(-p), params.d2)


def noncentral_f_sf(x: float, params: FParams) -> float:
    """Upper tail P(F > x) of the noncentral F(2, d2) distribution.

    With b = d2/2 and u = 2x / (2x + d2), P(F > x) = sum_k Pois(k; lambda/2)
    * P(J <= k), J negative binomial with P(J = j) = C(b+j-1, j) u^j (1-u)^b.
    The Poisson weights come from log-gamma term by term: a running log sum
    drifts by 1e-12 over thousands of terms. The J terms follow by the ratio
    (b+j-1) u / j, from log-gamma while below 1e-280 so that an underflowing
    first term does not zero the series. The series stops once the remaining
    Poisson mass is below 1e-12, or 60 standard deviations past its mean, and
    is divided by the mass taken, which cancels most of the truncation error.
    """
    if not x >= 0:
        raise DomainError("F variate must be nonnegative")
    if x == 0.0:
        return 1.0
    b = params.d2 / 2.0
    log_1mu = -math.log1p(2.0 * x / params.d2)
    half = params.noncentrality / 2.0
    if half == 0.0:
        return math.exp(b * log_1mu)
    log_u = -math.log1p(params.d2 / (2.0 * x))
    u = math.exp(log_u)
    log_half = math.log(half)
    nb = 0.0
    cdf_j = 0.0
    total = 0.0
    sf = 0.0
    k_cap = int(half + 60.0 * math.sqrt(half + 1.0) + 200.0)
    for k in range(k_cap + 1):
        log_k_fact = math.lgamma(k + 1.0)
        if nb < 1e-280:
            log_nb = math.lgamma(b + k) - math.lgamma(b) - log_k_fact + k * log_u
            nb = math.exp(b * log_1mu + log_nb)
        else:
            nb *= (b + k - 1.0) * u / k
        cdf_j += nb
        w = math.exp(k * log_half - half - log_k_fact)
        sf += w * cdf_j
        total += w
        if 1.0 - total < _NC_TAIL:
            break
    return min(1.0, sf / total)


def noncentral_f_cdf(x: float, params: FParams) -> float:
    """CDF of the noncentral F(2, d2) distribution, 1 - noncentral_f_sf."""
    return 1.0 - noncentral_f_sf(x, params)

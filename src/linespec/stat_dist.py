"""Distribution functions for the model-order tests, on the standard library.

The standard normal CDF and quantile, and the F distribution with d1 = 2,
the law of the prune statistic (a complex amplitude carries two real degrees
of freedom). The normal quantile is ``statistics.NormalDist``'s. The F
distribution's central CDF and quantile are closed forms; its noncentral
tail is a Poisson mixture summed outward from the Poisson mode. No
third-party statistics package is used, so thresholds are bit-stable across
environments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import DomainError

_NC_TAIL = 1e-16
_NB_FLOOR = 1e-280
_STD_NORMAL = NormalDist()


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


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def std_normal_inv_cdf(p: float) -> float:
    """Quantile of the standard normal distribution (Wichura's AS241, via statistics)."""
    if not (0.0 < p < 1.0):
        raise DomainError("normal quantile requires p in (0, 1)")
    return _STD_NORMAL.inv_cdf(p)


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
    """Upper tail P(F > x) of the noncentral F(2, d2) distribution; d2 must be even.

    With b = d2/2 and u = 2x / (2x + d2), P(F > x) = sum_k Pois(k; lambda/2)
    * P(J <= k), J negative binomial with P(J = j) = C(b+j-1, j) u^j (1-u)^b.
    The sum starts at the Poisson mode k0 and runs outward both ways, each
    weight from the last by the ratio lambda/2 / k or k / (lambda/2), so it
    takes O(sqrt(lambda)) terms where a sum from k = 0 takes O(lambda). The
    weights are relative to the mode's, and the result is divided by the
    weight taken. Each side stops once a geometric bound on what is left
    (the ratios shrink away from the mode) is below 1e-16 of the sum and of
    the weight taken, or 1e-280 absolute.

    For integer b, P(J <= k0) = P(Binomial(b + k0, 1 - u) >= b). It is
    summed over the binomial's smaller side, from the boundary term
    outward, so its error stays relative to that side. From there P(J <= k)
    moves one term at a time, P(J = k) by the ratio (b+k-1) u / k, and from
    log-gamma while below 1e-280 so that an underflowing term does not zero
    the rest. Log-gamma of large arguments bounds the accuracy: against
    sums in 30 to 50 digits, relative errors reach 4e-10 at lambda = 1e6
    and 5e-12 at lambda = 5000, down to tails near 1e-120.
    """
    if not x >= 0:
        raise DomainError("F variate must be nonnegative")
    if x == 0.0:
        return 1.0
    d2 = params.d2
    log_q = -math.log1p(2.0 * x / d2)
    half = params.noncentrality / 2.0
    if half == 0.0:
        return math.exp(d2 / 2.0 * log_q)
    if d2 % 2:
        raise DomainError("the noncentral tail needs an even d2")
    b = int(d2) // 2
    log_u = -math.log1p(d2 / (2.0 * x))
    u, q = math.exp(log_u), math.exp(log_q)

    def binom_pmf(i, n):
        """P(Binomial(n, 1 - u) = i)."""
        log_c = math.lgamma(n + 1.0) - math.lgamma(i + 1.0) - math.lgamma(n - i + 1.0)
        return math.exp(log_c + i * log_q + (n - i) * log_u)

    def nb_pmf(k):
        return b / (b + k) * binom_pmf(b, b + k)

    k0 = int(half)
    n0 = b + k0
    if b > n0 * q:
        # upper side: terms fall from i = b upward
        i = b
        term = side = binom_pmf(b, n0)
        while i < n0:
            rho = (n0 - i) * q / ((i + 1.0) * u)
            term *= rho
            i += 1
            side += term
            if term * rho <= _NC_TAIL * side * (1.0 - rho):
                break
        cdf = side
    else:
        # lower side: terms fall from i = b - 1 downward
        i = b - 1
        term = side = binom_pmf(i, n0)
        while i > 0:
            rho = i * u / ((n0 - i + 1.0) * q)
            term *= rho
            i -= 1
            side += term
            if term * rho <= _NC_TAIL * side * (1.0 - rho):
                break
        cdf = 1.0 - side

    nb0 = nb_pmf(k0)
    sf, total = cdf, 1.0
    w, c, nb, k = 1.0, cdf, nb0, k0
    while True:
        k += 1
        w *= half / k
        nb = nb * (b + k - 1.0) * u / k if nb >= _NB_FLOOR else nb_pmf(k)
        c += nb
        sf += w * c
        total += w
        rho = half / (k + 1.0)
        rest = w * rho / (1.0 - rho)
        # every later term is at most its weight, as P(J <= k) <= 1
        if rest <= _NC_TAIL * sf + _NB_FLOOR * total:
            break
    w, c, nb, k = 1.0, cdf, nb0, k0
    while k > 0:
        c = max(c - nb, 0.0)
        w *= k / half
        nb = nb * k / ((b + k - 1.0) * u) if nb >= _NB_FLOOR else nb_pmf(k - 1)
        k -= 1
        sf += w * c
        total += w
        rho = k / half
        rest = w * rho / (1.0 - rho)
        # every earlier term is at most its weight times c
        if rest <= _NC_TAIL * total and rest * c <= _NC_TAIL * sf + _NB_FLOOR * total:
            break
    return min(1.0, sf / total)


def noncentral_f_cdf(x: float, params: FParams) -> float:
    """CDF of the noncentral F(2, d2) distribution, 1 - noncentral_f_sf."""
    return 1.0 - noncentral_f_sf(x, params)

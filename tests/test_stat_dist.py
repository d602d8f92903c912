"""Distribution functions against independent references.

scipy serves as the oracle here; the library itself builds everything from
math-module primitives. The F functions cover d1 = 2 only, the law of the
prune statistic. Closed forms used below:

  - F(2, d2) quantile: p = 1 - (1 + 2 x / d2)^(-d2/2), inverted as
    x = (d2 / 2) * ((1 - p)^(-2/d2) - 1).
  - Standard normal quantile at 1 - 1e-6 equals 4.753424 (printed reference).
"""

import math
import time

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from linespec.errors import DomainError
from linespec.stat_dist import (
    FParams,
    f_cdf,
    f_inv_cdf,
    noncentral_f_cdf,
    noncentral_f_sf,
    std_normal_cdf,
    std_normal_inv_cdf,
)


def closed_form_f2_quantile(p: float, d2: float) -> float:
    return (d2 / 2.0) * ((1.0 - p) ** (-2.0 / d2) - 1.0)


def test_fparams_validation():
    with pytest.raises(DomainError):
        FParams(0, 2)
    with pytest.raises(DomainError):
        FParams(2, -1)
    with pytest.raises(DomainError):
        FParams(2, 2, noncentrality=-0.5)


@pytest.mark.parametrize("d1", [1, 3, 2.5, 10])
def test_fparams_rejects_d1_other_than_two(d1):
    with pytest.raises(DomainError):
        FParams(d1, 30)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"d2": math.inf},
        {"d2": math.nan},
        {"d2": 30, "noncentrality": math.inf},
        {"d2": 30, "noncentrality": math.nan},
    ],
)
def test_fparams_rejects_non_finite(kwargs):
    with pytest.raises(DomainError):
        FParams(2, **kwargs)


def test_std_normal_cdf_against_scipy():
    for x in (-8.0, -3.0, -1.0, 0.0, 0.5, 2.0, 6.0):
        assert std_normal_cdf(x) == pytest.approx(
            scipy.stats.norm.cdf(x), rel=1e-13, abs=1e-300
        )


def test_std_normal_inv_cdf_against_scipy():
    for p in (1e-9, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.999999, 1 - 1e-9):
        assert std_normal_inv_cdf(p) == pytest.approx(
            scipy.stats.norm.ppf(p), rel=1e-10, abs=1e-12
        )


def test_std_normal_inv_cdf_printed_reference():
    assert std_normal_inv_cdf(1 - 1e-6) == pytest.approx(4.753424, abs=1e-5)


def test_std_normal_inv_cdf_domain():
    for p in (-0.1, 0.0, 1.0, 1.1):
        with pytest.raises(DomainError):
            std_normal_inv_cdf(p)


@settings(max_examples=50)
@given(st.floats(min_value=1e-8, max_value=1 - 1e-8))
def test_std_normal_round_trip(p):
    assert std_normal_cdf(std_normal_inv_cdf(p)) == pytest.approx(p, rel=1e-9, abs=1e-12)


def test_f_cdf_against_scipy():
    for d2 in (1, 2, 30, 200):
        for x in (0.0, 0.05, 0.5, 1.0, 4.0, 50.0):
            mine = f_cdf(x, FParams(2, d2))
            ref = scipy.stats.f.cdf(x, 2, d2)
            assert mine == pytest.approx(ref, rel=1e-11, abs=1e-14)


def test_f_cdf_rejects_noncentral_params():
    with pytest.raises(DomainError):
        f_cdf(1.0, FParams(2, 2, noncentrality=1.0))


def test_f_inv_cdf_against_scipy():
    for d2 in (2, 30, 120):
        for p in (0.01, 0.5, 0.95, 0.999999):
            mine = f_inv_cdf(p, FParams(2, d2))
            ref = scipy.stats.f.ppf(p, 2, d2)
            assert mine == pytest.approx(ref, rel=1e-8)


def test_f_inv_cdf_deep_tail():
    # d2 = 60 at p = 1 - 2^-30: (60/2) * ((2^-30)^(-1/30) - 1) = 30 exactly.
    assert f_inv_cdf(1.0 - 2.0**-30, FParams(2, 60)) == pytest.approx(30.0, rel=1e-14)
    for d2 in (1, 2, 30, 200, 1e4):
        for p in (1e-12, 1e-6, 0.5, 0.99, 1 - 1e-6, 1 - 1e-9, 1 - 2.0**-30):
            ref = scipy.stats.f.ppf(p, 2, d2)
            assert f_inv_cdf(p, FParams(2, d2)) == pytest.approx(ref, rel=1e-13), (d2, p)


def test_f_inv_cdf_closed_form_two_numerator_dof():
    for d2 in (2, 10, 60, 200):
        for p in (0.5, 0.99, 1 - 1e-6):
            mine = f_inv_cdf(p, FParams(2, d2))
            assert mine == pytest.approx(closed_form_f2_quantile(p, d2), rel=1e-9)


def test_f_inv_cdf_printed_reference():
    # quantile feeding the prune threshold at N=32, M=2, level 1e-6;
    # closed form 30 * ((1e-6)^(-1/30) - 1) = 17.5467957738...
    assert f_inv_cdf(1 - 1e-6, FParams(2, 60)) == pytest.approx(17.5467957738, rel=1e-9)


def test_f_inv_cdf_edges():
    assert f_inv_cdf(0.0, FParams(2, 7)) == 0.0
    for p in (-0.01, 1.0, 1.5):
        with pytest.raises(DomainError):
            f_inv_cdf(p, FParams(2, 7))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_f_quantile_round_trip(d2, p):
    params = FParams(2, d2)
    assert f_cdf(f_inv_cdf(p, params), params) == pytest.approx(p, rel=1e-8, abs=1e-10)


def test_noncentral_f_cdf_against_scipy():
    for d2 in (2, 30, 62, 1022, 8190):
        for nc in (0.1, 1.0, 64.0, 640.0, 5000.0):
            for x in (0.05, 0.5, 2.0, 10.0, 40.0, 300.0, 2500.0):
                params = FParams(2, d2, noncentrality=nc)
                cdf = scipy.stats.ncf.cdf(x, 2, d2, nc)
                sf = scipy.stats.ncf.sf(x, 2, d2, nc)
                assert noncentral_f_cdf(x, params) == pytest.approx(cdf, rel=1e-8, abs=1e-12)
                assert noncentral_f_sf(x, params) == pytest.approx(sf, rel=1e-8, abs=1e-12)


def _series_from_zero_sf(x, d2, nc):
    """The noncentral tail summed from k = 0, as the library once did: the
    reference the mode-outward sum must stay within 1e-8 of on the grid."""
    b = d2 / 2.0
    log_1mu = -math.log1p(2.0 * x / d2)
    half = nc / 2.0
    log_u = -math.log1p(d2 / (2.0 * x))
    u = math.exp(log_u)
    log_half = math.log(half)
    nb = cdf_j = total = sf = 0.0
    for k in range(int(half + 60.0 * math.sqrt(half + 1.0) + 200.0) + 1):
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
        if 1.0 - total < 1e-12:
            break
    return min(1.0, sf / total)


def test_noncentral_f_sf_matches_the_series_from_zero():
    for d2 in (2, 30, 62, 1022, 8190):
        for nc in (0.1, 1.0, 64.0, 640.0, 5000.0):
            for x in (0.05, 0.5, 2.0, 10.0, 40.0, 300.0, 2500.0):
                ref = _series_from_zero_sf(x, d2, nc)
                got = noncentral_f_sf(x, FParams(2, d2, noncentrality=nc))
                assert got == pytest.approx(ref, rel=1e-8, abs=1e-12), (d2, nc, x)


def test_noncentral_f_sf_at_large_noncentrality_is_fast_and_accurate():
    # lambda = 1e6: the sum from k = 0 takes about 5e5 terms (0.3-0.6 s);
    # from the mode it takes about 2e4, 10-20 ms on a 2-CPU host.
    budget = 0.15
    for d2, x in ((8176, 13.84), (8190, 4.9e5), (8190, 5.0e5), (62, 5.0e5), (2, 1.0)):
        params = FParams(2, d2, noncentrality=1e6)
        t0 = time.perf_counter()
        got = noncentral_f_sf(x, params)
        elapsed = time.perf_counter() - t0
        assert elapsed < budget, (d2, x, elapsed)
        ref = scipy.stats.ncf.sf(x, 2, d2, 1e6)
        assert got == pytest.approx(ref, rel=1e-8, abs=1e-12), (d2, x)


def test_noncentral_f_sf_needs_even_d2():
    with pytest.raises(DomainError):
        noncentral_f_sf(1.0, FParams(2, 31, noncentrality=4.0))
    # the central tail is a closed form for any d2
    assert noncentral_f_sf(1.0, FParams(2, 31)) == pytest.approx(1 - f_cdf(1.0, FParams(2, 31)))


def test_noncentral_f_cdf_zero_noncentrality_reduces_to_central():
    for x in (0.1, 1.0, 5.0):
        a = noncentral_f_cdf(x, FParams(2, 30, noncentrality=0.0))
        b = f_cdf(x, FParams(2, 30))
        assert a == pytest.approx(b, rel=1e-12)


def test_noncentral_f_cdf_at_origin():
    assert noncentral_f_cdf(0.0, FParams(2, 30, noncentrality=5.0)) == 0.0


def test_noncentral_f_cdf_monotone_in_noncentrality():
    x = 2.0
    values = [
        noncentral_f_cdf(x, FParams(2, 40, noncentrality=nc)) for nc in (0.0, 1.0, 10.0, 100.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_cdf_values_are_probabilities():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = float(rng.uniform(0, 100))
        nc = float(rng.uniform(0, 300))
        v = noncentral_f_cdf(x, FParams(2, 62, noncentrality=nc))
        assert 0.0 <= v <= 1.0


def test_f_cdf_rejects_negative_argument():
    with pytest.raises(DomainError):
        f_cdf(-1.0, FParams(2, 10))


def test_extreme_tail_quantile_is_finite_and_monotone():
    qs = [f_inv_cdf(p, FParams(2, 60)) for p in (0.9, 0.99, 0.9999, 1 - 1e-9)]
    assert all(math.isfinite(q) for q in qs)
    assert all(a < b for a, b in zip(qs, qs[1:]))

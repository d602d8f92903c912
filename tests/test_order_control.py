"""Tests for CRB-based merging and CFAR pruning.

The pair CRB is checked against an independently constructed Fisher
information matrix (derivative columns assembled from scratch and inverted
numerically). Thresholds and detection probabilities are checked against
scipy.stats, which is used only as an oracle here.
"""

import math
from dataclasses import astuple, replace
from functools import partial

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, example, given, settings, strategies as st

from linespec import order_control
from linespec.errors import (
    DegenerateInput,
    DegenerateResidual,
    InvalidDimension,
    SingularInformation,
)
from linespec.experiments import _draw_signal, sample_well_separated
from linespec.fft_init import initialize
from linespec.optimizer import NetworkState, forward, train_inner
from linespec.pipeline import EstimatorConfig
from linespec.order_control import (
    CrbPair,
    MergeEvent,
    OrderConfig,
    PruneReport,
    apply_merges,
    apply_prunes,
    crb_pair,
    decision_margins,
    detection_prob,
    estimate_noise_var,
    merge_radius,
    merge_test,
    _pair_bound,
    prune_statistic,
    prune_statistics,
    prune_threshold,
    refit_amplitudes,
    rho,
)
from linespec.signal_model import TWO_PI, Signal, atom, design_matrix, wrap_angle


def _unit_noise(n, seed):
    """Deterministic complex vector with squared norm exactly n."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return u * math.sqrt(n) / np.linalg.norm(u)


def _crb_oracle(alpha_i, alpha_j, omega_i, omega_j, sigma2, n):
    """Pair frequency CRB built from first principles.

    The derivative of alpha * exp(j * omega * n) with respect to omega is
    j * alpha * n * exp(j * omega * n); the Fisher information of the two
    frequencies with known amplitudes is (2 / sigma2) Re(D^H D), and the
    CRB is its inverse.
    """
    idx = np.arange(n)
    d_i = 1j * alpha_i * idx * np.exp(1j * omega_i * idx)
    d_j = 1j * alpha_j * idx * np.exp(1j * omega_j * idx)
    D = np.stack([d_i, d_j], axis=1)
    fim = (2.0 / sigma2) * (D.conj().T @ D).real
    return np.linalg.inv(fim)


# ---------------------------------------------------------------------------
# rho and crb_pair


def test_rho_matches_direct_sums():
    n = 24
    wi, wj = 1.1, 1.7
    rho1, rho2 = rho(wi, wj, n)
    expect1 = sum(k**2 for k in range(n))
    expect2 = sum(k**2 * np.exp(1j * (wj - wi) * k) for k in range(n))
    assert rho1 == pytest.approx(expect1, rel=1e-14)
    assert rho2 == pytest.approx(expect2, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 32, 33, 512, 4096])
def test_rho_stays_within_1e11_of_the_direct_sum(n):
    # rho sums the atom table's exponentials; the direct sum takes one exp
    # per sample. Both carry the rounding of the phases, so they differ by
    # about 1e-14 of rho1 = sum n^2, the largest |rho2| can be and the scale
    # the pair information is read at. At gaps within 8 bins, where merge
    # decisions are taken, |rho2| is near rho1 and the bound is relative to
    # the direct sum itself; at wide gaps rho2 cancels to a small part of
    # rho1 in both sums.
    rng = np.random.default_rng(n)
    idx = np.arange(n, dtype=float)

    def errors(gaps):
        rho1, rho2 = rho(np.zeros_like(gaps), gaps, n)
        direct = np.array([(idx**2 * np.exp(1j * g * idx)).sum() for g in gaps])
        return np.abs(rho2 - direct), np.abs(direct), rho1

    err, size, _ = errors(rng.uniform(-8.0, 8.0, 50) * TWO_PI / n)
    assert np.all(err <= 1e-11 * size)
    err, _, rho1 = errors(rng.uniform(-TWO_PI, TWO_PI, 50))
    assert np.all(err <= 1e-11 * rho1)


def test_rho_requires_two_samples():
    with pytest.raises(InvalidDimension):
        rho(0.1, 0.2, 1)


@pytest.mark.parametrize(
    "alpha_i, alpha_j, omega_i, omega_j, sigma2, n",
    [
        (1.0 + 0.0j, 1.0 + 0.0j, 1.0, 1.3, 0.5, 32),
        (2.0 - 1.0j, 0.3 + 0.7j, 0.4, 0.45, 0.01, 64),
        (0.5j, 1.5, 2.0, 2.02, 2.0, 16),
    ],
)
def test_crb_pair_matches_numeric_fim_inverse(alpha_i, alpha_j, omega_i, omega_j, sigma2, n):
    got = crb_pair(alpha_i, alpha_j, omega_i, omega_j, sigma2, n)
    want = _crb_oracle(alpha_i, alpha_j, omega_i, omega_j, sigma2, n)
    np.testing.assert_allclose(got.matrix, want, rtol=1e-9)
    delta_var = want[0, 0] + want[1, 1] - 2.0 * want[0, 1]
    assert got.crb_delta == pytest.approx(delta_var, rel=1e-9)


def test_crb_pair_singular_cases():
    with pytest.raises(SingularInformation):
        crb_pair(1.0, 1.0, 0.5, 0.6, 0.0, 32)  # no noise
    with pytest.raises(SingularInformation):
        crb_pair(0.0, 1.0, 0.5, 0.6, 1.0, 32)  # zero amplitude
    with pytest.raises(SingularInformation):
        crb_pair(1.0, 1.0, 0.5, 0.5, 1.0, 32)  # coincident, phase aligned


@given(
    sep=st.floats(0.01, 3.0),
    mag_j=st.floats(0.1, 10.0),
    phase_j=st.floats(0.0, 6.28),
    n=st.integers(4, 64),
)
def test_crb_pair_positive_and_symmetric(sep, mag_j, phase_j, n):
    alpha_j = mag_j * np.exp(1j * phase_j)
    got = crb_pair(1.0, alpha_j, 1.0, 1.0 + sep, 0.5, n)
    assert got.crb_delta > 0
    assert got.matrix[0, 1] == pytest.approx(got.matrix[1, 0], rel=1e-12, abs=1e-300)
    eigs = np.linalg.eigvalsh(got.matrix)
    assert np.all(eigs > 0)


# ---------------------------------------------------------------------------
# merge_test and estimate_noise_var


def test_merge_test_against_normal_quantile_oracle():
    cfg = OrderConfig(epsilon_f=1e-6)
    crb_delta = 4.0e-6
    bound = -math.sqrt(crb_delta) * scipy.stats.norm.ppf(1e-6)
    assert merge_test(1.0, 1.0 + 0.999 * bound, crb_delta, cfg)
    assert not merge_test(1.0, 1.0 + 1.001 * bound, crb_delta, cfg)


def test_estimate_noise_var_hand_value():
    y = np.array([1.0 + 0j, 2.0j])
    model = np.zeros(2, dtype=complex)
    assert estimate_noise_var(y, model) == pytest.approx(2.5, rel=1e-15)
    with pytest.raises(InvalidDimension):
        estimate_noise_var(y, np.zeros(3, dtype=complex))


def test_order_config_validation():
    with pytest.raises(InvalidDimension):
        OrderConfig(epsilon_f=0.0)
    with pytest.raises(InvalidDimension):
        OrderConfig(epsilon_a=1.0)
    # From 0.5 on, Phi^{-1}(epsilon_f) >= 0 and the merge bound is not
    # positive: not even a zero gap would fuse.
    for eps_f in (0.5, 0.7):
        with pytest.raises(InvalidDimension):
            OrderConfig(epsilon_f=eps_f)


def test_merge_test_fuses_a_zero_gap_at_every_valid_level():
    for eps_f in (1e-12, 1e-6, 0.1, 0.499):
        assert merge_test(1.0, 1.0, 1e-4, OrderConfig(epsilon_f=eps_f))


# ---------------------------------------------------------------------------
# apply_merges


def _assert_refit_on_fused(merged, y, fused):
    """The fused nodes carry refit_amplitudes of the midpoint state; the rest are kept.

    Zeroing the fused amplitudes first keeps the expectation independent
    of what the stage returned for them.
    """
    midpoint = NetworkState(merged.omegas, np.where(fused, 0.0, merged.alphas))
    want = refit_amplitudes(midpoint, y, np.array(fused))
    np.testing.assert_array_equal(merged.omegas, want.omegas)
    np.testing.assert_allclose(merged.alphas, want.alphas, rtol=1e-12)


def test_apply_merges_close_pair_merges_far_node_survives():
    n = 32
    w0 = TWO_PI * 0.25
    omegas = [w0, w0 + 1e-4, TWO_PI * 0.6]
    alphas = [1.0 + 0j, 1.0 + 0j, 2.0j]
    st0 = NetworkState(omegas, alphas)
    model = design_matrix(st0.omegas, n) @ st0.alphas
    y = model + 0.01 * _unit_noise(n, 5)  # residual power 1e-4 per sample

    merged, events = apply_merges(st0, y, OrderConfig())
    assert merged.m_nodes == 2
    assert len(events) == 1
    ev = events[0]
    assert ev.omega_low == pytest.approx(w0, rel=1e-15)
    assert ev.omega_high == pytest.approx(w0 + 1e-4, rel=1e-15)
    assert ev.omega_merged == pytest.approx(w0 + 5e-5, rel=1e-12)
    assert merged.omegas[0] == pytest.approx(ev.omega_merged)
    _assert_refit_on_fused(merged, y, [True, False])


def test_apply_merges_wraparound_pair():
    n = 32
    omegas = [0.03, TWO_PI - 0.01]
    st0 = NetworkState(omegas, [1.0, 1.0])
    model = design_matrix(st0.omegas, n) @ st0.alphas
    y = model + _unit_noise(n, 6)  # residual power 1 per sample

    merged, events = apply_merges(st0, y, OrderConfig())
    assert merged.m_nodes == 1
    assert len(events) == 1
    ev = events[0]
    assert ev.omega_low == pytest.approx(TWO_PI - 0.01)  # listed as stored
    assert ev.omega_high == pytest.approx(0.03)
    assert ev.omega_merged == pytest.approx(0.01, abs=1e-12)
    assert merged.omegas[0] == pytest.approx(0.01, abs=1e-12)
    _assert_refit_on_fused(merged, y, [True])


def test_apply_merges_chain_collapses_cluster():
    n = 32
    w0 = TWO_PI * 0.3
    omegas = [w0, w0 + 5e-5, w0 + 1e-4]
    st0 = NetworkState(omegas, [1.0, 1.0, 1.0])
    model = design_matrix(st0.omegas, n) @ st0.alphas
    y = model + 0.1 * _unit_noise(n, 7)

    merged, events = apply_merges(st0, y, OrderConfig())
    assert merged.m_nodes == 1
    assert len(events) == 2
    _assert_refit_on_fused(merged, y, [True])


def test_apply_merges_coincident_pair_is_forced():
    # A zero-separation, phase-aligned pair has a singular information
    # matrix; the nodes are indistinguishable by construction and merge.
    n = 32
    w0 = TWO_PI * 0.2
    st0 = NetworkState([w0, w0], [1.0, 1.0])
    model = design_matrix(st0.omegas, n) @ st0.alphas
    y = model + 1e-6 * _unit_noise(n, 8)
    merged, events = apply_merges(st0, y, OrderConfig())
    assert merged.m_nodes == 1
    assert len(events) == 1


def test_apply_merges_keeps_separated_nodes_of_an_exact_fit():
    # A zero noise estimate is unbounded information, not singular
    # information: no gap fuses, and only a singular pair (coincident,
    # phase-aligned nodes) still does.
    st0 = NetworkState([0.5, 2.0, 4.0], [1, 1j, -1])
    y = forward(st0, 32)
    assert estimate_noise_var(y, forward(st0, 32)) == 0.0
    out, events = apply_merges(st0, y, OrderConfig())
    assert events == []
    np.testing.assert_array_equal(out.omegas, st0.omegas)
    np.testing.assert_array_equal(out.alphas, st0.alphas)
    pair = NetworkState([1.0, 1.0, 3.0], [0.5, 0.5, 1.0])
    y = forward(pair, 32)
    assert estimate_noise_var(y, forward(pair, 32)) == 0.0
    out, events = apply_merges(pair, y, OrderConfig())
    assert events == [MergeEvent(1.0, 1.0, 1.0)]
    np.testing.assert_array_equal(out.omegas, [1.0, 3.0])


def test_apply_merges_separated_nodes_untouched_but_sorted():
    n = 32
    omegas = [TWO_PI * 0.7, TWO_PI * 0.2]  # deliberately unsorted
    st0 = NetworkState(omegas, [1.0, 2.0])
    model = design_matrix(st0.omegas, n) @ st0.alphas
    y = model + 1e-3 * _unit_noise(n, 9)
    out, events = apply_merges(st0, y, OrderConfig())
    assert events == []
    np.testing.assert_allclose(out.omegas, [TWO_PI * 0.2, TWO_PI * 0.7])
    np.testing.assert_allclose(out.alphas, [2.0, 1.0])


def test_apply_merges_returns_frequencies_inside_the_interval():
    # np.mod(-1e-300, 2*pi) is exactly 2*pi; the stage must fold it to 0.
    n = 32
    st0 = NetworkState([-1e-300, 3.0], [1.0, 1.0])
    y = design_matrix(st0.omegas, n) @ st0.alphas + 0.01 * _unit_noise(n, 11)
    out, events = apply_merges(st0, y, OrderConfig())
    assert events == []
    assert np.all((out.omegas >= 0.0) & (out.omegas < TWO_PI))
    np.testing.assert_array_equal(out.omegas, [0.0, 3.0])


def test_apply_merges_single_node_noop():
    st0 = NetworkState([1.0], [1.0])
    y = np.ones(8, dtype=complex)
    out, events = apply_merges(st0, y, OrderConfig())
    assert out is st0
    assert events == []


# ---------------------------------------------------------------------------
# the array merge test against the scalar path: crb_pair + merge_test


def _scalar_fuses(alpha_i, alpha_j, omega_i, omega_j, sigma2, n, cfg):
    try:
        crb_delta = crb_pair(alpha_i, alpha_j, omega_i, omega_j, sigma2, n).crb_delta
    except SingularInformation:
        return True
    return merge_test(omega_i, omega_j, crb_delta, cfg)


def _scalar_radius(alpha, sigma2, n, cfg, limit):
    """A 40-step bisection of the merge test for one amplitude split in two, one crb_pair per step.

    merge_radius's reference: it must agree within the bisection's
    resolution, limit * 2^-40, plus the rounding band.
    """
    if _scalar_fuses(alpha / 2, alpha / 2, 0.0, limit, sigma2, n, cfg):
        return limit
    lo, hi = 0.0, limit
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _scalar_fuses(alpha / 2, alpha / 2, 0.0, mid, sigma2, n, cfg):
            lo = mid
        else:
            hi = mid
    return lo


def _scalar_walk(state, y, cfg):
    """apply_merges with one crb_pair per tested pair, in walk order."""
    if state.m_nodes <= 1:
        return state, []
    n = y.size
    w = wrap_angle(state.omegas)
    order = np.argsort(w, kind="stable")
    w, a = w[order], state.alphas[order]
    sigma2 = estimate_noise_var(y, design_matrix(w, n) @ a)
    ws, am, fused, events = list(w), list(a), [False] * w.size, []
    i = 0
    while len(ws) > 1 and i < len(ws):
        j = (i + 1) % len(ws)
        shift = TWO_PI if j == 0 else 0.0
        if not _scalar_fuses(am[i], am[j], ws[i], ws[j] + shift, sigma2, n, cfg):
            i += 1
            continue
        merged = wrap_angle(0.5 * (ws[i] + ws[j] + shift))
        events.append(MergeEvent(ws[i], ws[j], merged))
        ws[i], am[i], fused[i] = merged, am[i] + am[j], True
        del ws[j], am[j], fused[j]
        if j == 0:
            break
    w = np.array(ws)
    order = np.argsort(w, kind="stable")
    st0 = NetworkState(w[order], np.array(am, dtype=np.complex128)[order])
    return refit_amplitudes(st0, y, np.array(fused)[order]), events


def test_rho_over_arrays_equals_each_scalar_pair():
    rng = np.random.default_rng(21)
    for n in (2, 33, 512):
        wi, wj = rng.uniform(0, TWO_PI, 7), rng.uniform(0, TWO_PI, 7)
        rho1, rho2 = rho(wi, wj, n)
        assert rho2.shape == (7,)
        for k in range(7):
            one = rho(wi[k], wj[k], n)
            assert one == (rho1, complex(rho2[k]))
            assert type(one[1]) is complex


def _long_double_bound(ai, aj, wi, wj, sigma2, n):
    """(merge bound, kappa) of one pair in long double, rho2 summed from long-double cos and sin.

    The bound is sqrt(crb_delta) |Phi^{-1}(epsilon_f)| of the default
    OrderConfig; kappa = pi2 pj2 rho1^2 / den says how far den cancels.
    """
    ld = np.longdouble
    idx = np.arange(n, dtype=ld)
    phase = (ld(wj) - ld(wi)) * idx
    re2, im2 = np.sum(idx * idx * np.cos(phase)), np.sum(idx * idx * np.sin(phase))
    rho1 = np.sum(idx * idx)
    ai_re, ai_im, aj_re, aj_im = (ld(x) for x in (ai.real, ai.imag, aj.real, aj.imag))
    pi2, pj2 = ai_re**2 + ai_im**2, aj_re**2 + aj_im**2
    cross = (ai_re * aj_re + ai_im * aj_im) * re2 - (ai_re * aj_im - ai_im * aj_re) * im2
    den = pi2 * pj2 * rho1**2 - cross**2
    delta = ld(sigma2) / 2 * ((pi2 + pj2) * rho1 + 2 * cross) / den
    return float(np.sqrt(delta)) * -scipy.stats.norm.ppf(1e-6), float(pi2 * pj2 * rho1**2 / den)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 2.0**-52, reason="needs an extended long double")
def test_merge_test_decides_as_the_long_double_bound_outside_its_band():
    # The merge bound is good to 2^-46 (1 + kappa) relative: den cancels by
    # kappa, and rho2 from the atom table is good to about 30 ulp of rho1.
    # Outside that band every decision, the closest ones included, is the
    # long-double one, at any scale: amplitudes of size 1e-150, 1 and
    # 1e150, with sigma2 scaled along.
    rng = np.random.default_rng(22)
    cfg = OrderConfig()
    for n in (2, 3, 8, 17, 64, 512):
        for size in (1e-150, 1.0, 1e150):
            sigma2 = 10.0 ** rng.uniform(-3, -1) * size**2
            rows, want = [], []
            for _ in range(20):
                ai, aj = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * size
                wi = rng.uniform(0, TWO_PI)

                def gap_minus_bound(g):
                    # the gap as the test sees it: wi + g rounds, the difference does not
                    bound, kappa = _long_double_bound(ai, aj, wi, wi + g, sigma2, n)
                    return (wi + g) - wi - bound, 2.0**-46 * (1.0 + kappa) * bound

                # The flip: the gap where it meets the bound, by bisection.
                lo, hi = 0.0, 4.0 / n
                if gap_minus_bound(lo)[0] >= 0.0 or gap_minus_bound(hi)[0] <= 0.0:
                    continue
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if gap_minus_bound(mid)[0] < 0.0 else (lo, mid)
                _, band = gap_minus_bound(lo)
                for g in (lo - 2.0 * band, hi + 2.0 * band, rng.uniform(0.0, 4.0 / n)):
                    dist, band = gap_minus_bound(g)
                    if abs(dist) > band:
                        rows.append((ai, aj, wi, wi + g))
                        want.append(dist < 0.0)
            assert len(rows) >= 40, (n, size)
            ai, aj, wi, wj = (np.array(c) for c in zip(*rows))
            delta, _, _ = _pair_bound(ai, aj, wi, wj, sigma2, n)
            np.testing.assert_array_equal(merge_test(wi, wj, delta, cfg), want)
            got = [merge_test(r[2], r[3], crb_pair(*r, sigma2, n).crb_delta, cfg) for r in rows]
            assert got == want


def _radius_band(d, n):
    """merge_radius's pull below the root at gap d, relative: 2^-46 (1 + R) / (d ln F / d ln d)."""
    idx = np.arange(n, dtype=float)
    s = 2.0 * np.sum(idx**2 * np.sin(idx * d / 2) ** 2)
    rho1 = np.sum(idx**2)
    return 2.0**-46 * (1.0 + rho1**2 / (s * (2.0 * rho1 - s))) / (2.0 + d * np.sum(idx**3 * np.sin(idx * d)) / s)


def _assert_radius_is_the_scalar_bisection(got, alphas, sigma2, n, cfg, limit):
    """Within the bisection's resolution plus twice the band, and a spacing the merge test fuses.

    The exact test's flip lies within one band of the root, and
    merge_radius pulls the root in by one more.
    """
    for alpha, radius in zip(alphas, got):
        want = _scalar_radius(alpha, sigma2, n, cfg, limit)
        assert abs(radius - want) <= limit * 2.0**-40 + 2.0 * _radius_band(want, n) * want
        assert _scalar_fuses(alpha / 2, alpha / 2, 0.0, radius, sigma2, n, cfg)


_AMPS = st.lists(
    st.tuples(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 30.0]), st.floats(0.0, 6.28)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    amps=_AMPS,
    log_sigma2=st.floats(-9.0, 9.0),
    n=st.integers(2, 4096),
    bins=st.sampled_from([0.25, 1.0, 4.0]),
)
@example(amps=[(1.0, 0.3), (0.0, 0.0), (30.0, 2.0)], log_sigma2=-2.0, n=2, bins=1.0)
@example(amps=[(1.0, 0.3), (0.0, 0.0), (0.1, 4.0)], log_sigma2=-1.0, n=1024, bins=0.25)
@example(amps=[(1.0, 0.3), (30.0, 1.0), (1e-3, 2.0)], log_sigma2=9.0, n=1024, bins=0.25)
# Strong tones in low noise, where the exact test's flip point is least
# certain.
@example(amps=[(30.0, 3.21)], log_sigma2=-8.95, n=339, bins=4.0)
@example(amps=[(30.0, 3.53), (1.0, 0.3)], log_sigma2=-7.0, n=3252, bins=0.25)
@example(amps=[(30.0, 4.34)], log_sigma2=-4.6, n=12, bins=1.0)
def test_merge_radius_over_an_array_is_the_scalar_bisection_within_its_band(amps, log_sigma2, n, bins):
    # bins = 4 is the limit of an unpadded start, 2*pi/N, which lies past
    # pi/(N - 1). At N = 2 that limit is pi, where the pair's information is
    # singular: the exact test fuses at that one gap, and the bisection
    # returns it, while F is continuous there.
    assume(not (n == 2 and bins == 4.0))
    alphas = np.array([m * np.exp(1j * p) for m, p in amps], dtype=np.complex128)
    sigma2, cfg, limit = 10.0**log_sigma2, OrderConfig(), bins * TWO_PI / (4 * n)
    got = merge_radius(alphas, sigma2, n, cfg, limit)
    assert got.shape == alphas.shape
    _assert_radius_is_the_scalar_bisection(got, alphas, sigma2, n, cfg, limit)
    assert np.all(got[alphas == 0] == limit)  # a zero amplitude is singular and fuses
    if log_sigma2 == 9.0:
        assert np.all(got == limit)
    one = merge_radius(alphas[0], sigma2, n, cfg, limit)
    assert type(one) is float and one == got[0]


def test_merge_radius_at_an_l_factor_1_limit_runs_no_exact_test(monkeypatch):
    # limit = 2*pi/N reaches past pi/(N - 1), up to F's one maximum (0.85
    # to 1 bin); the closed form holds there too, without a merge test.
    rng = np.random.default_rng(41)
    cfg = OrderConfig()
    q2 = scipy.stats.norm.ppf(cfg.epsilon_f) ** 2
    calls = [0]
    real_rho = order_control.rho

    def counted_rho(*args):
        calls[0] += 1
        return real_rho(*args)

    sizes = {3, 4, 5, 7, 16, 33, 100, 257, 512, 1000, 2048, 4096} | set(rng.integers(3, 4097, 8).tolist())
    for n in sorted(sizes):
        limit = TWO_PI / n
        # t = sigma2 q^2 / |h|^2 from 0.03 to 3 times limit^2 rho1, with
        # F(limit) <= 2 limit^2 rho1: roots before pi / (N - 1), past it up
        # to the maximum, and none.
        t = 10.0 ** rng.uniform(-1.5, 0.5, 6) * limit**2 * np.sum(np.arange(n, dtype=float) ** 2)
        alphas = 2.0 * np.exp(1j * rng.uniform(0, TWO_PI, 6)) / np.sqrt(t)
        monkeypatch.setattr(order_control, "rho", counted_rho)
        got = merge_radius(alphas, 1.0 / q2, n, cfg, limit)
        monkeypatch.setattr(order_control, "rho", real_rho)
        assert calls[0] == 0
        _assert_radius_is_the_scalar_bisection(got, alphas, 1.0 / q2, n, cfg, limit)
        with pytest.raises(InvalidDimension):
            merge_radius(alphas, 1.0 / q2, n, cfg, np.nextafter(limit, 4.0))
    with pytest.raises(InvalidDimension):
        merge_radius(1.0, 0.1, 8, cfg, 0.0)


def test_merge_radius_does_not_depend_on_the_signal_scale():
    # Scaling the amplitudes by 2^500 and the noise variance by 2^1000 is
    # exact and leaves every merge decision as it was; the exact test's
    # |h|^4 rho1^2 would overflow on the scaled amplitudes.
    rng = np.random.default_rng(31)
    cfg = OrderConfig()
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for n in (8, 32, 512, 4096):
            alphas = 10.0 ** rng.uniform(-3, 1.5, 6) * np.exp(1j * rng.uniform(0, TWO_PI, 6))
            alphas[0] = 0.0
            for log_sigma2 in (-9.0, -2.0, 0.5):
                for limit in (TWO_PI / (4 * n), TWO_PI / n):
                    want = merge_radius(alphas, 10.0**log_sigma2, n, cfg, limit)
                    got = merge_radius(2.0**500 * alphas, 2.0**1000 * 10.0**log_sigma2, n, cfg, limit)
                    np.testing.assert_array_equal(got, want)
                    assert 0.0 < got.min() and got[0] == limit
        # A one-tone N = 8 signal of amplitude 1e153 once got radius 0, with
        # the companion node on its own peak.
        big = merge_radius(1e153 + 0j, 1e300, 8, cfg, 0.1)
        assert big == merge_radius(1e153 * 2.0**-508 + 0j, 1e300 * 2.0**-1016, 8, cfg, 0.1)
        assert 0.0 < big < 0.1


def test_apply_merges_at_1e153_decides_as_its_scaled_twin():
    # A one-tone N = 8 signal of amplitude 1e153 starts as two nodes on the
    # padded bins around the tone; |h|^4 rho1^2 of that pair overflows
    # unless the pair bound scales it. A close pair at the same scale fuses.
    y = 1e153 * np.exp(0.3j * np.arange(8))
    start = initialize(y)
    close = NetworkState([0.3, 0.3 + 1e-4], start.alphas)
    for state in (start, close):
        with np.errstate(all="raise"):
            got, got_events = apply_merges(state, y, OrderConfig())
        twin = NetworkState(state.omegas, state.alphas * 2.0**-508)
        want, want_events = apply_merges(twin, y * 2.0**-508, OrderConfig())
        assert got_events == want_events
        np.testing.assert_array_equal(got.omegas, want.omegas)
    assert got.m_nodes == 1 and start.m_nodes == 2


def _merge_scene(rng):
    """A random state of clusters, some across 0 = 2*pi, with data near it."""
    n = int(rng.choice([8, 32, 128, 512]))
    centers = rng.uniform(0, TWO_PI, int(rng.integers(1, 4)))
    if rng.uniform() < 0.5:
        centers[0] = rng.choice([0.0, TWO_PI]) + rng.uniform(-1, 1) * 1e-3 / n
    omegas = np.concatenate(
        [c + np.sort(rng.uniform(0, 10.0 ** rng.uniform(-6, -1), int(rng.integers(1, 5)))) / n for c in centers]
    )
    alphas = rng.standard_normal(omegas.size) + 1j * rng.standard_normal(omegas.size)
    truth = NetworkState(centers, np.ones(centers.size, dtype=complex))
    noise = 10.0 ** rng.uniform(-3, 0) * _unit_noise(n, int(rng.integers(1 << 30)))
    y = design_matrix(truth.omegas, n) @ truth.alphas + noise
    return NetworkState(omegas, alphas), y


def test_apply_merges_is_the_scalar_walk_bit_for_bit():
    cfg = OrderConfig()
    chains = wraps = 0
    for seed in range(60):
        state, y = _merge_scene(np.random.default_rng(seed))
        got, got_events = apply_merges(state, y, cfg)
        want, want_events = _scalar_walk(state, y, cfg)
        assert got_events == want_events
        np.testing.assert_array_equal(got.omegas, want.omegas)
        np.testing.assert_array_equal(got.alphas, want.alphas)
        # a chain fuses a merged node again; a wrap-around fusion lists its
        # lower node above its upper one
        chains += any(a.omega_merged == b.omega_low for a, b in zip(want_events, want_events[1:]))
        wraps += any(e.omega_low > e.omega_high for e in want_events)
    assert chains >= 5 and wraps >= 3


def _per_pair_walk(state, y, cfg):
    """Reference: apply_merges with one _pair_bound call per retest, without the table hand-off."""
    n_samples = y.size
    if state.m_nodes <= 1:
        return state, []
    w, a, A, residual, sigma2, w_next, delta = order_control._adjacent_pairs(y, state.omegas, state.alphas)
    adjacent = merge_test(w, w_next, delta, cfg)
    if not adjacent.any():
        return NetworkState(w, a), []
    ws, am, fused, origin = list(w), list(a), [False] * w.size, list(range(w.size))
    events = []
    i = 0
    while len(ws) > 1 and i < len(ws):
        j = (i + 1) % len(ws)
        shift = TWO_PI if j == 0 else 0.0
        if fused[i] or fused[j]:
            delta, _, _ = _pair_bound(am[i], am[j], ws[i], ws[j] + shift, sigma2, n_samples)
            fuses = merge_test(ws[i], ws[j] + shift, delta[0], cfg)
        else:
            fuses = adjacent[origin[i]]
        if not fuses:
            i += 1
            continue
        merged = wrap_angle(0.5 * (ws[i] + ws[j] + shift))
        events.append(MergeEvent(ws[i], ws[j], merged))
        ws[i], am[i], fused[i] = merged, am[i] + am[j], True
        del ws[j], am[j], fused[j], origin[j]
        if j == 0:
            break
    w = np.array(ws)
    order = np.argsort(w, kind="stable")
    merged_state = NetworkState(w[order], np.array(am, dtype=np.complex128)[order])
    return refit_amplitudes(merged_state, y, np.array(fused)[order]), events


def _tones8_first_merge():
    """The state tones8_n512 seed 8000 brings to its first merge stage, and its samples."""
    rng = np.random.default_rng(8000)
    freqs = np.sort(sample_well_separated(rng, 8, 8 * TWO_PI / 512))
    y, _, _ = _draw_signal(freqs, np.ones(8), 512, 20.0, rng)
    signal = Signal(y)
    cfg = EstimatorConfig()
    margins = partial(decision_margins, signal, cfg.order)
    state, _ = train_inner(signal, initialize(signal, cfg.order), replace(cfg.train, eps_tol=1e-2), margins)
    return state, y


def _merge_case(case):
    """(state, samples) of one walk shape; the noise sets sigma2 and so the fuse distance."""
    n = 32
    w0 = TWO_PI * 0.3
    shapes = {
        "no_fuse": ([0.5, 2.0, 4.0], [1.0, 1.0j, -1.0], 0.1),
        # three nodes inside the fuse distance: the retest of the first
        # fuse fuses again
        "chain": ([w0, w0 + 5e-5, w0 + 1e-4, 4.0], [1.0, 1.0, 1.0, 1.0j], 0.1),
        # the last node fuses with the first across 2*pi, after the first
        # fused with its neighbor: the wrap pair holds two fused nodes
        "wrap": ([1e-4, 2e-4, 3.0, TWO_PI - 1e-4, TWO_PI - 5e-5], [1.0, 1.0, 1.0j, 1.0, 1.0], 1.0),
        "m2": ([w0, w0 + 1e-4], [1.0, 1.0], 0.1),
    }
    if case == "tones8_8000":
        return _tones8_first_merge()
    omegas, alphas, noise = shapes[case]
    st0 = NetworkState(omegas, alphas)
    return st0, design_matrix(st0.omegas, n) @ st0.alphas + noise * _unit_noise(n, 31)


@pytest.mark.parametrize("case", ["no_fuse", "tones8_8000", "chain", "wrap", "m2"])
def test_apply_merges_batches_the_predicted_retests_with_the_per_pair_bits(case, monkeypatch):
    # Before the walk one _pair_bound call makes every retest the adjacent
    # decisions predict (each first fuse against the node after it); rho
    # sums each pair on its own, so the states and events are the per-pair
    # walk's bit for bit. Only a chain's retest is still made alone.
    state, y = _merge_case(case)
    cfg = OrderConfig()
    want, want_events = _per_pair_walk(state, y, cfg)
    calls = []

    def counting(*args):
        calls.append(np.size(args[0]))
        return _pair_bound(*args)

    monkeypatch.setattr(order_control, "_pair_bound", counting)
    got, events = apply_merges(state, y, cfg)
    assert got.omegas.tobytes() == want.omegas.tobytes()
    assert got.alphas.tobytes() == want.alphas.tobytes()
    assert np.array([astuple(e) for e in events]).tobytes() == np.array([astuple(e) for e in want_events]).tobytes()
    # The state carries the table and residual apply_prunes would build.
    _, table, residual = got._fit
    assert table.tobytes() == order_control.atom_table(got.omegas, y.size).tobytes()
    assert residual.tobytes() == (y - order_control.atom_table(got.omegas, y.size) @ got.alphas).tobytes()
    chained = [e for e, f in zip(events, events[1:]) if e.omega_merged in (f.omega_low, f.omega_high)]
    expected = {
        # the adjacent pairs only
        "no_fuse": ([3], 0, 0),
        # seven first fuses, seven retests in one call
        "tones8_8000": ([16, 7], 7, 0),
        # predicted: the first fuse's retest and the wrap pair against the
        # fused first node. The first fuses, and the chain's two retests
        # (against the fourth node, then the wrap pair) are made alone.
        "chain": ([4, 2, 1, 1], 2, 1),
        # two first fuses; the second's retest is the wrap pair
        "wrap": ([5, 2], 3, 1),
        # one fuse leaves one node: nothing to retest
        "m2": ([2], 1, 0),
    }[case]
    assert (calls, len(events), len(chained)) == expected


# ---------------------------------------------------------------------------
# pruning


def test_prune_statistic_hand_formula():
    n = 32
    st0 = NetworkState([TWO_PI * 8 / n, TWO_PI * 20 / n], [2.0, 0.5j])
    rng = np.random.default_rng(10)
    y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.5
    residual = y - design_matrix(st0.omegas, n) @ st0.alphas
    for k in range(2):
        expect = abs(np.vdot(atom(st0.omegas[k], n), y)) ** 2 / np.vdot(
            residual, residual
        ).real
        assert prune_statistic(k, st0, y) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(InvalidDimension):
        prune_statistic(2, st0, y)
    with pytest.raises(InvalidDimension):
        prune_statistic(-1, st0, y)


def test_prune_statistics_measure_power_beyond_the_other_nodes():
    # A weak node a third of a bin from a strong tone: projecting the whole
    # data would credit it with most of the tone's power; the statistic
    # projects only what the other node leaves unexplained.
    n = 32
    strong, weak = TWO_PI * 8 / n, TWO_PI * (8 + 1 / 3) / n
    st0 = NetworkState([strong, weak], [2.0, 0.05])
    y = 2.0 * atom(strong, n) + 0.1 * _unit_noise(n, 14)
    A = design_matrix(st0.omegas, n)
    r = y - A @ st0.alphas
    partial = r + A[:, 1] * st0.alphas[1]
    expect = abs(np.vdot(A[:, 1], partial)) ** 2 / np.vdot(r, r).real
    xi = prune_statistics(st0, y)
    assert xi[1] == pytest.approx(expect, rel=1e-12)
    assert xi[1] < 0.01 * abs(np.vdot(A[:, 1], y)) ** 2 / np.vdot(r, r).real
    assert prune_statistic(1, st0, y) == xi[1]


def test_prune_statistics_never_read_a_stale_fit():
    # A merge that fuses nothing hands the atom table and residual it built
    # for its noise estimate to the state it returns, and apply_prunes reads
    # the statistics off them. A state derived from that one, or the same
    # state on other samples, gets the statistics of a freshly built state,
    # bit for bit.
    n, cfg = 32, OrderConfig()
    w = TWO_PI * np.array([0.37, 0.1, 0.22])
    y = design_matrix(w, n) @ np.array([1.0, 0.6j, -0.8]) + 0.1 * _unit_noise(n, 16)
    carrying, events = apply_merges(NetworkState(w, [0.9, 0.5j, -0.7]), y, cfg)
    assert events == []
    with pytest.raises(ValueError, match="read-only"):
        carrying.alphas[0] = 0.0
    perm = np.array([2, 0, 1])
    cases = [
        (carrying, y),
        (replace(carrying, alphas=2 * carrying.alphas), y),
        (NetworkState(carrying.omegas[perm], carrying.alphas[perm]), y),
        (carrying, 2 * y),
        (carrying, y.copy()),
    ]
    for state, samples in cases:
        fresh = NetworkState(state.omegas.copy(), state.alphas.copy())
        xi = apply_prunes(state, samples, cfg)[1].xi
        assert xi.tobytes() == prune_statistics(fresh, samples).tobytes()
        assert prune_statistics(state, samples).tobytes() == xi.tobytes()
    # The very samples array the table was built on, edited in place.
    y[3] += 0.5
    fresh = NetworkState(carrying.omegas.copy(), carrying.alphas.copy())
    assert apply_prunes(carrying, y, cfg)[1].xi.tobytes() == prune_statistics(fresh, y).tobytes()


def test_refit_amplitudes_fits_selected_nodes_only():
    n = 32
    w = [TWO_PI * 5 / n, TWO_PI * 13 / n, TWO_PI * 13.5 / n]
    y = design_matrix(w, n) @ np.array([1.0, 0.5j, -0.7]) + 0.05 * _unit_noise(n, 15)
    st0 = NetworkState(w, [0.9, 3.0, 3.0])
    out = refit_amplitudes(st0, y, [False, True, True])
    assert out.alphas[0] == st0.alphas[0]
    A = design_matrix(w, n)
    expect = np.linalg.lstsq(A[:, 1:], y - A[:, 0] * st0.alphas[0], rcond=None)[0]
    np.testing.assert_allclose(out.alphas[1:], expect, rtol=1e-10)
    np.testing.assert_array_equal(out.omegas, st0.omegas)
    assert refit_amplitudes(st0, y, [False] * 3) is st0
    with pytest.raises(InvalidDimension):
        refit_amplitudes(st0, y, [True])


def test_merge_radius_is_the_merge_test_boundary():
    n, sigma2, alpha, cfg = 512, 0.08, 1.0 + 0.0j, OrderConfig()
    limit = TWO_PI / (4 * n)
    gap = merge_radius(alpha, sigma2, n, cfg, limit)
    assert 0.0 < gap < limit

    def fuses(d):
        cd = crb_pair(alpha / 2, alpha / 2, 0.0, d, sigma2, n).crb_delta
        return merge_test(0.0, d, cd, cfg)

    assert fuses(gap) and not fuses(gap * (1 + 1e-9))
    # noisier data fuse wider pairs; a singular bound fuses anything
    assert merge_radius(alpha, 100 * sigma2, n, cfg, limit) == limit
    assert merge_radius(0j, sigma2, n, cfg, limit) == limit
    # an exact fit fuses no gap, and the radius is the limit
    assert not merge_test(0.0, limit, _pair_bound(alpha / 2, alpha / 2, 0.0, limit, 0.0, n)[0], cfg)
    assert merge_radius(alpha, 0.0, n, cfg, limit) == limit


def test_prune_statistic_perfect_fit_raises():
    # forward() is the model the statistic evaluates (the same atom table),
    # so the residual is exactly zero.
    n = 16
    st0 = NetworkState([1.0], [1.0])
    y = forward(st0, n)
    with pytest.raises(DegenerateResidual):
        prune_statistic(0, st0, y)


def test_prune_statistics_of_an_exact_fit_drop_only_nodes_that_add_no_power():
    # y is the state's own model, so the residual is exactly zero. The node
    # with amplitude 1 adds power: xi is inf and prune_statistic raises. The
    # zero-amplitude node adds none: xi is 0, and apply_prunes drops it.
    n = 16
    state = NetworkState([1.0, 2.5], [1.0 + 0.5j, 0j])
    y = forward(state, n)
    xi = prune_statistics(state, y)
    assert xi[0] == math.inf and xi[1] == 0.0
    with pytest.raises(DegenerateResidual):
        prune_statistic(0, state, y)
    assert prune_statistic(1, state, y) == 0.0
    kept, report = apply_prunes(state, y, OrderConfig())
    assert report.keep_mask.tolist() == [True, False]
    assert kept.omegas.tolist() == [1.0]


def test_prune_threshold_equals_the_scipy_quantile():
    # For F ~ F(2, d2), v = d2 / (2F + d2) ~ Beta(d2/2, 1), so the upper
    # quantile is (d2/2)(1 - v)/v with v = betaincinv(d2/2, 1, epsilon_a), and
    # with d2 = 2(N - M) the threshold is N (1 - v)/v. scipy.stats.f.isf reads
    # the tail less exactly: 2e-5 relative off at d2 = 2, epsilon_a = 1e-12.
    for n in (4, 17, 32, 128, 512, 4096):
        for m in sorted({1, 2, n // 3, n - 1}):
            for eps_a in (1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 0.05, 0.5):
                v = scipy.special.betaincinv(n - m, 1.0, eps_a)
                want = n * (1.0 - v) / v
                got = prune_threshold(n, m, OrderConfig(epsilon_a=eps_a))
                assert got == pytest.approx(want, rel=1e-12), (n, m, eps_a)
    # d2 = 60 and epsilon_a = 2**-30 give (32/30) * 30 * (2 - 1) exactly.
    assert prune_threshold(32, 2, OrderConfig(epsilon_a=2.0**-30)) == pytest.approx(32.0, rel=1e-14)


def test_prune_threshold_frozen_and_oracle():
    cfg = OrderConfig(epsilon_a=1e-6)
    got = prune_threshold(32, 2, cfg)
    assert got == pytest.approx(18.7166, abs=1e-4)  # frozen reference
    oracle = 32.0 / 30.0 * scipy.stats.f.ppf(1.0 - 1e-6, 2, 60)
    assert got == pytest.approx(oracle, rel=1e-7)
    # closed form for numerator dof 2
    d2 = 60.0
    closed = 32.0 / 30.0 * (d2 / 2.0) * ((1e-6) ** (-2.0 / d2) - 1.0)
    assert got == pytest.approx(closed, rel=1e-10)
    with pytest.raises(InvalidDimension):
        prune_threshold(32, 0, cfg)
    with pytest.raises(InvalidDimension):
        prune_threshold(8, 8, cfg)


def test_apply_prunes_drops_empty_node():
    n = 32
    strong, weak = TWO_PI * 8 / n, TWO_PI * 20 / n
    st0 = NetworkState([strong, weak], [2.0, 1e-6])
    y = 2.0 * atom(strong, n) + 0.1 * _unit_noise(n, 11)
    out, report = apply_prunes(st0, y, OrderConfig(epsilon_a=1e-6))
    assert out.m_nodes == 1
    assert out.omegas[0] == pytest.approx(strong)
    assert list(report.keep_mask) == [True, False]
    assert report.threshold == pytest.approx(prune_threshold(n, 2, OrderConfig()))
    # xi agrees with the direct formula
    A = design_matrix(st0.omegas, n)
    resid = y - A @ st0.alphas
    expect = np.abs(A.conj().T @ y) ** 2 / np.vdot(resid, resid).real
    np.testing.assert_allclose(report.xi, expect, rtol=1e-12)


def test_apply_prunes_evaluates_all_nodes_at_original_m():
    # Two weak nodes vanish in one pass; the threshold on record is the one
    # for three nodes, not recomputed after the first removal.
    n = 32
    st0 = NetworkState(
        [TWO_PI * 4 / n, TWO_PI * 12 / n, TWO_PI * 24 / n],
        [3.0, 1e-7, 1e-7],
    )
    y = 3.0 * atom(TWO_PI * 4 / n, n) + 0.1 * _unit_noise(n, 12)
    out, report = apply_prunes(st0, y, OrderConfig())
    assert out.m_nodes == 1
    assert report.threshold == pytest.approx(prune_threshold(n, 3, OrderConfig()))
    assert list(report.keep_mask) == [True, False, False]


def test_apply_prunes_perfect_fit_keeps_all():
    n = 16
    st0 = NetworkState([1.0, 2.0], [1.0, 0.5])
    y = forward(st0, n)
    out, report = apply_prunes(st0, y, OrderConfig())
    assert out.m_nodes == 2
    assert np.all(np.isinf(report.xi))
    assert np.all(report.keep_mask)


@pytest.mark.parametrize("extra", [0, 1], ids=["m_eq_n", "m_eq_n_plus_1"])
def test_apply_prunes_overfull_model_raises(extra):
    # The F(2, 2(N - M)) quantile exists only for M < N; no pass reaches
    # M >= N, so a direct call with such a state fails loudly.
    n = 8
    omegas = TWO_PI * np.arange(n + extra) / (n + extra)
    st0 = NetworkState(omegas, np.ones(n + extra))
    y = np.ones(n, dtype=complex) + 0.1 * _unit_noise(n, 13)
    with pytest.raises(InvalidDimension, match=f"fewer nodes than samples: M = {n + extra}, N = {n}"):
        apply_prunes(st0, y, OrderConfig())


def test_apply_prunes_empty_state():
    st0 = NetworkState.empty()
    y = np.ones(8, dtype=complex)
    out, report = apply_prunes(st0, y, OrderConfig())
    assert out.m_nodes == 0
    assert report.threshold == math.inf
    assert report.xi.size == 0 and report.keep_mask.size == 0


# ---------------------------------------------------------------------------
# detection probability


def _one_pass_removes_a_node(state, y):
    """Whether apply_merges, then apply_prunes on its result, removes a node."""
    merged, _ = apply_merges(state, y, OrderConfig())
    kept, _ = apply_prunes(merged, y, OrderConfig())
    return kept.m_nodes < state.m_nodes


@pytest.mark.parametrize("gap_bins", [0.05, 0.2])
@pytest.mark.parametrize("weak", [0.1, 0.3])
def test_decision_margins_fall_below_one_where_a_node_goes(gap_bins, weak):
    # A pair gap_bins of a bin apart and a third node of amplitude weak: the
    # gap margin is below 1 where apply_merges fuses the pair, and the prune
    # margin where apply_prunes removes a node of the state as given. The
    # smaller margin is below 1 exactly when one merge and prune pass
    # removes a node, for three nodes, one and none.
    n = 32
    w = TWO_PI * np.array([0.2, 0.2 + gap_bins / n, 0.6])
    st0 = NetworkState(w, [1.0, 0.8j, weak])
    y = design_matrix(w, n) @ st0.alphas + 0.3 * _unit_noise(n, 7)
    gap, prune = decision_margins(y, OrderConfig(), st0.omegas, st0.alphas)
    _, events = apply_merges(st0, y, OrderConfig())
    kept, _ = apply_prunes(st0, y, OrderConfig())
    assert (gap < 1.0) == bool(events) == (gap_bins == 0.05)
    assert (prune < 1.0) == (kept.m_nodes < 3) == (weak == 0.1)
    one = decision_margins(y, OrderConfig(), w[:1], np.array([1.0 + 0j]))
    assert one[0] == math.inf and one[1] > 1.0
    for state in (st0, NetworkState(w[:1], [1.0]), NetworkState.empty()):
        margins = decision_margins(y, OrderConfig(), state.omegas, state.alphas)
        assert (min(margins) < 1.0) == _one_pass_removes_a_node(state, y)


def test_decision_margins_of_no_node_find_none_to_remove():
    # No node gives (inf, inf); the samples are still checked.
    y = _unit_noise(16, 3)
    assert decision_margins(y, OrderConfig(), np.zeros(0), np.zeros(0, dtype=complex)) == (math.inf, math.inf)
    y[2] = np.nan
    with pytest.raises(DegenerateInput):
        decision_margins(y, OrderConfig(), np.zeros(0), np.zeros(0, dtype=complex))


def test_detection_prob_matches_scipy_noncentral_f():
    cfg = OrderConfig(epsilon_a=1e-3)
    for n, m in [(32, 1), (32, 3), (64, 2)]:
        d2 = 2 * (n - m)
        q = scipy.stats.f.ppf(1.0 - 1e-3, 2, d2)
        for snr in [0.05, 0.3, 1.0, 4.0]:
            want = scipy.stats.ncf.sf(q, 2, d2, 2.0 * n * snr)
            got = detection_prob(snr, n, m, cfg)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_detection_prob_zero_snr_equals_false_alarm_rate():
    cfg = OrderConfig(epsilon_a=0.01)
    assert detection_prob(0.0, 32, 1, cfg) == pytest.approx(0.01, rel=1e-9)


def test_detection_prob_monotone_in_snr():
    cfg = OrderConfig(epsilon_a=1e-4)
    grid = [detection_prob(s, 32, 1, cfg) for s in [0.0, 0.1, 0.5, 1.0, 2.0, 8.0]]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert grid[-1] > 0.999


@pytest.mark.parametrize("snr", [math.nan, math.inf])
def test_detection_prob_rejects_non_finite_snr(snr):
    with pytest.raises(InvalidDimension):
        detection_prob(snr, 32, 1, OrderConfig())


def test_detection_prob_validation():
    cfg = OrderConfig()
    with pytest.raises(InvalidDimension):
        detection_prob(-0.1, 32, 1, cfg)
    with pytest.raises(InvalidDimension):
        detection_prob(1.0, 32, 0, cfg)
    with pytest.raises(InvalidDimension):
        detection_prob(1.0, 8, 8, cfg)

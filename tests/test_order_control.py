"""Tests for CRB-based merging and CFAR pruning.

The pair CRB is checked against an independently constructed Fisher
information matrix (derivative columns assembled from scratch and inverted
numerically). Thresholds and detection probabilities are checked against
scipy.stats, which is used only as an oracle here.
"""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, strategies as st

from linespec.errors import (
    DegenerateResidual,
    InvalidDimension,
    SingularInformation,
)
from linespec.optimizer import NetworkState
from linespec.order_control import (
    CrbPair,
    MergeEvent,
    OrderConfig,
    PruneReport,
    apply_merges,
    apply_prunes,
    crb_pair,
    detection_prob,
    estimate_noise_var,
    merge_radius,
    merge_test,
    prune_statistic,
    prune_statistics,
    prune_threshold,
    refit_amplitudes,
    rho,
)
from linespec.signal_model import TWO_PI, atom, design_matrix


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


def test_merge_test_floor_spacing():
    cfg = OrderConfig(delta_omega_min=0.1, epsilon_f=1e-6)
    tiny_crb = 1e-20
    assert merge_test(1.0, 1.05, tiny_crb, cfg)
    assert not merge_test(1.0, 1.15, tiny_crb, cfg)


def test_estimate_noise_var_hand_value():
    y = np.array([1.0 + 0j, 2.0j])
    model = np.zeros(2, dtype=complex)
    assert estimate_noise_var(y, model) == pytest.approx(2.5, rel=1e-15)
    with pytest.raises(InvalidDimension):
        estimate_noise_var(y, np.zeros(3, dtype=complex))


def test_order_config_validation():
    with pytest.raises(InvalidDimension):
        OrderConfig(delta_omega_min=-0.1)
    with pytest.raises(InvalidDimension):
        OrderConfig(epsilon_f=0.0)
    with pytest.raises(InvalidDimension):
        OrderConfig(epsilon_a=1.0)


# ---------------------------------------------------------------------------
# apply_merges


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
    assert merged.alphas[0] == pytest.approx(2.0 + 0j)
    assert merged.alphas[1] == pytest.approx(2.0j)


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
    assert merged.alphas[0] == pytest.approx(2.0 + 0j)


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
    assert merged.alphas[0] == pytest.approx(3.0 + 0j)


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


def test_apply_merges_single_node_noop():
    st0 = NetworkState([1.0], [1.0])
    y = np.ones(8, dtype=complex)
    out, events = apply_merges(st0, y, OrderConfig())
    assert out is st0
    assert events == []


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


def test_prune_statistic_perfect_fit_raises():
    n = 16
    st0 = NetworkState([1.0], [1.0])
    y = design_matrix(st0.omegas, n) @ st0.alphas
    with pytest.raises(DegenerateResidual):
        prune_statistic(0, st0, y)


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
    y = design_matrix(st0.omegas, n) @ st0.alphas
    out, report = apply_prunes(st0, y, OrderConfig())
    assert out.m_nodes == 2
    assert np.all(np.isinf(report.xi))
    assert np.all(report.keep_mask)


def test_apply_prunes_overfull_model_warns_and_clamps():
    n = 8
    omegas = TWO_PI * np.arange(n) / n
    st0 = NetworkState(omegas, np.ones(n))
    y = np.ones(n, dtype=complex) + 0.1 * _unit_noise(n, 13)
    with pytest.warns(RuntimeWarning):
        out, report = apply_prunes(st0, y, OrderConfig())
    assert report.threshold == pytest.approx(prune_threshold(n, n - 1, OrderConfig()))


def test_apply_prunes_empty_state():
    st0 = NetworkState.empty()
    y = np.ones(8, dtype=complex)
    out, report = apply_prunes(st0, y, OrderConfig())
    assert out.m_nodes == 0
    assert report.threshold == math.inf
    assert report.xi.size == 0 and report.keep_mask.size == 0


# ---------------------------------------------------------------------------
# detection probability


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

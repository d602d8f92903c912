"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test pins its scenario (dimensions, seeds, trial counts), its numeric
tolerance, and a wall-clock budget. Every random quantity comes from a
per-trial generator seeded with base + trial index, so each criterion is a
single reproducible number compared against a fixed bar. scipy appears only
as a statistical oracle (quantiles, KS test).
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from linespec.errors import SingularInformation
from linespec.experiments import (
    general_crb,
    fd_gradients,
    match_components,
    mc_cluster,
    mc_mse,
    mc_order,
    TrialSpec,
)
from linespec.optimizer import (
    NetworkState,
    TrainConfig,
    grad_alpha,
    grad_omega,
    train_inner,
)
from linespec.order_control import OrderConfig, crb_pair, detection_prob, prune_statistic, prune_threshold
from linespec.pipeline import estimate_spectrum, estimate_with_fixed_order
from linespec.signal_model import TWO_PI, Sinusoid, atom, design_matrix
from linespec.stat_dist import FParams, f_inv_cdf, std_normal_inv_cdf


def _tone_signal(freqs, amps, n, snr_db, rng):
    """Deterministic tones plus one seeded complex white noise draw."""
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    amps = np.atleast_1d(np.asarray(amps, dtype=complex))
    x = design_matrix(freqs, n) @ amps
    sig2 = float(np.vdot(x, x).real) / (n * 10.0 ** (snr_db / 10.0))
    e = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x + math.sqrt(sig2 / 2.0) * e, sig2


def _single_node_xi(y, omega):
    """Power statistic of one node with its least-squares amplitude."""
    n = y.size
    amp = np.vdot(atom(omega, n), y) / n
    state = NetworkState([omega], [amp])
    return prune_statistic(0, state, y)


def test_01_analytic_gradients_match_finite_differences():
    budget = 10.0
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(100):
        rng = np.random.default_rng(t)
        m = int(rng.integers(1, 5))
        n = int(rng.integers(max(2, m), 17))
        state = NetworkState(
            rng.uniform(0.0, TWO_PI, m),
            rng.standard_normal(m) + 1j * rng.standard_normal(m),
        )
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ga, gw = grad_alpha(state, y), grad_omega(state, y)
        fa, fw = fd_gradients(state, y, step=1e-6)
        err_a = np.max(np.abs(ga - fa)) / max(np.max(np.abs(fa)), 1e-12)
        err_w = np.max(np.abs(gw - fw)) / max(np.max(np.abs(fw)), 1e-12)
        worst = max(worst, float(err_a), float(err_w))
    assert worst < 1e-6, f"worst relative gradient error {worst:.3e}"
    assert time.perf_counter() - t0 < budget


def test_02_superresolution_recovery_of_close_tones():
    # N = 32, normalized frequencies {0.1, 0.115, 0.37}: the close pair is
    # separated by roughly half the FFT resolution limit. 100 seeded trials
    # at SNR 10 dB; bar: correct order in at least 85% of trials, and few
    # frequencies of correct-order trials beyond 3*sqrt(CRB) of their truth.
    #
    # "Few" is what an efficient estimator allows. An error at the CRB
    # exceeds 3 sigma with p = 2 * (1 - Phi(3)) = 0.0027, so over the
    # 3 * correct estimates the count is Binomial(3 * correct, p), 0.7 on
    # average for 255 estimates and zero only about half the time. The bar
    # is the smallest k with P(Binomial > k) <= 1e-3: k = 4 for 255
    # estimates. An estimator whose error is 1.5x the CRB's sigma exceeds
    # with p = 0.0455, about 12 times in 255, and still fails.
    budget = 120.0
    t0 = time.perf_counter()
    n = 32
    freqs = TWO_PI * np.array([0.1, 0.115, 0.37])
    trials = 100
    correct = 0
    crb_violation = 0
    for t in range(trials):
        rng = np.random.default_rng(1000 + t)
        amps = np.exp(1j * rng.uniform(0.0, TWO_PI, 3))
        y, sig2 = _tone_signal(freqs, amps, n, 10.0, rng)
        report = estimate_spectrum(y)
        if report.k_hat != 3:
            continue
        correct += 1
        truth = [Sinusoid(amps[i], freqs[i]) for i in range(3)]
        crb = general_crb(truth, n, sig2)[2::3]
        matches = match_components([s.omega for s in report.estimates], freqs)
        for i in range(3):
            if matches[i][1] > 3.0 * math.sqrt(crb[i]):
                crb_violation += 1
    p_exceed = 2.0 * scipy.stats.norm.sf(3.0)
    binomial = scipy.stats.binom(3 * correct, p_exceed)
    allowed = next(k for k in range(3 * correct + 1) if binomial.sf(k) <= 1e-3)
    problems = []
    if correct < 85:
        problems.append(f"correct order in {correct}/100 trials (need >= 85)")
    if crb_violation > allowed:
        problems.append(
            f"{crb_violation} frequency estimates outside 3*sqrt(CRB) "
            f"across {correct} correct-order trials (allowed {allowed})"
        )
    assert not problems, "; ".join(problems)
    assert time.perf_counter() - t0 < budget


def test_03_frequency_mse_tracks_crb_within_2db():
    budget = 300.0
    t0 = time.perf_counter()
    spec = TrialSpec(
        truth=[
            Sinusoid(1.0 + 0.0j, TWO_PI * 0.1),
            Sinusoid(1.0 + 0.0j, TWO_PI * 0.22),
            Sinusoid(1.0 + 0.0j, TWO_PI * 0.37),
        ],
        n_samples=32,
        snr_db=20.0,
        trials=200,
        base_seed=7000,
    )
    result = mc_mse(spec, [20.0, 30.0])
    for row in result.rows:
        assert row["correct_order"] > 0
        for comp, gap in enumerate(row["freq_gap_db"]):
            assert abs(gap) <= 2.0, (
                f"SNR {row['snr_db']}: component {comp} MSE is {gap:+.2f} dB "
                f"from the CRB (limit 2 dB)"
            )
    assert time.perf_counter() - t0 < budget


def test_04_prune_threshold_false_alarm_calibration():
    # Pure complex white noise, one fixed node, eps_a = 0.05, 2000 trials:
    # the exceedance rate must sit inside the 3-sigma binomial band, and the
    # scaled statistic (N - M)/N * xi must be F(2, 2(N-M)) distributed
    # (KS test at p > 0.01).
    budget = 60.0
    t0 = time.perf_counter()
    n, m, eps_a, trials = 32, 1, 0.05, 2000
    w = TWO_PI * 0.37
    threshold = prune_threshold(n, m, OrderConfig(epsilon_a=eps_a))
    xis = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng(4100 + t)
        y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
        xis[t] = _single_node_xi(y, w)
    rate = float(np.mean(xis >= threshold))
    band = 3.0 * math.sqrt(eps_a * (1.0 - eps_a) / trials)
    assert abs(rate - eps_a) <= band, f"false-alarm rate {rate:.4f} vs {eps_a}+-{band:.4f}"
    scaled = (n - m) / n * xis
    ks = scipy.stats.kstest(scaled, scipy.stats.f(2, 2 * (n - m)).cdf)
    assert ks.pvalue > 0.01, f"KS p = {ks.pvalue:.4f}"
    assert time.perf_counter() - t0 < budget


def test_05_detection_probability_matches_noncentral_f_theory():
    budget = 120.0
    t0 = time.perf_counter()
    n, m, trials = 32, 1, 2000
    w = TWO_PI * 0.37
    a = atom(w, n)
    for snr_db in (0.0, 10.0):
        snr = 10.0 ** (snr_db / 10.0)
        sig2 = 1.0 / snr
        for eps_a in (0.05, 1e-2, 1e-3):
            cfg = OrderConfig(epsilon_a=eps_a)
            threshold = prune_threshold(n, m, cfg)
            pd_theory = detection_prob(snr, n, m, cfg)
            hits = 0
            for t in range(trials):
                rng = np.random.default_rng(4600 + t)
                phase = np.exp(1j * TWO_PI * rng.uniform())
                e = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(
                    sig2 / 2.0
                )
                hits += _single_node_xi(phase * a + e, w) >= threshold
            mc = hits / trials
            band = 3.0 * math.sqrt(max(pd_theory * (1.0 - pd_theory), 1e-9) / trials)
            assert abs(mc - pd_theory) <= max(band, 3.0 / trials), (
                f"SNR {snr_db} dB, eps_a {eps_a:g}: theory {pd_theory:.4f}, "
                f"Monte Carlo {mc:.4f}, band {band:.4f}"
            )
    assert time.perf_counter() - t0 < budget


def test_06_merge_resolves_duplicates_and_keeps_resolvable_pairs():
    # Clause 1: a single tone estimated from two straddling nodes must end
    # as one node in >= 95% of 200 trials. Clause 2: two tones separated by
    # 10*sqrt(CRB of the frequency difference) must stay two nodes in
    # >= 99% of 200 trials at merge level 1e-6.
    budget = 180.0
    t0 = time.perf_counter()
    n = 32
    big_l = 4 * n
    trials = 200

    one_node = 0
    for t in range(trials):
        rng = np.random.default_rng(8200 + t)
        w0 = TWO_PI * rng.uniform()
        amp = np.exp(1j * TWO_PI * rng.uniform(size=1))
        y, _ = _tone_signal([w0], amp, n, 20.0, rng)
        start = [w0 - TWO_PI / big_l, w0 + TWO_PI / big_l]
        one_node += estimate_with_fixed_order(y, start).k_hat == 1

    # pair separation solving sep = 10*sqrt(crb_delta(sep)) at SNR 20 dB
    w0 = TWO_PI * 0.3
    pair_amps = np.array([1.0 + 0.0j, 1.0 + 0.0j])
    lo, hi = 1e-4, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        wt = np.array([w0, w0 + mid])
        x = design_matrix(wt, n) @ pair_amps
        sig2 = float(np.vdot(x, x).real) / (n * 100.0)
        try:
            cd = crb_pair(pair_amps[0], pair_amps[1], wt[0], wt[1], sig2, n).crb_delta
            target = 10.0 * math.sqrt(cd)
        except SingularInformation:
            target = hi
        if mid > target:
            hi = mid
        else:
            lo = mid
    sep = 0.5 * (lo + hi)
    wt = np.array([w0, w0 + sep])

    two_nodes = 0
    for t in range(trials):
        rng = np.random.default_rng(8400 + t)
        y, _ = _tone_signal(wt, pair_amps, n, 20.0, rng)
        two_nodes += estimate_with_fixed_order(y, wt).k_hat == 2

    problems = []
    if one_node < 190:
        problems.append(
            f"split tone collapsed to one node in {one_node}/200 trials (need >= 190)"
        )
    if two_nodes < 198:
        problems.append(
            f"pair at 10*sqrt(CRB_delta) separation {sep:.4f} rad survived in "
            f"{two_nodes}/200 trials (need >= 198)"
        )
    assert not problems, "; ".join(problems)
    assert time.perf_counter() - t0 < budget


def test_07_model_order_accuracy_on_separated_scenes():
    budget = 300.0
    t0 = time.perf_counter()
    k1 = mc_order(32, 10.0, trials=200, base_seed=5017, k_values=(1,))
    frac1 = k1.rows[0]["fraction_correct"]
    k3 = mc_order(32, 10.0, trials=200, base_seed=5051, k_values=(3,))
    frac3 = k3.rows[0]["fraction_correct"]
    assert frac1 >= 0.9, f"K=1 recovered in {frac1:.3f} of trials (need >= 0.9)"
    assert frac3 >= 0.8, f"K=3 recovered in {frac3:.3f} of trials (need >= 0.8)"
    assert time.perf_counter() - t0 < budget


def test_08_two_cluster_scene_resolves_ten_tones():
    # Ten tones in two sub-resolution clusters, N = 128, SNR 20 dB, 20
    # seeds from a 12-node bracketed start. Bar: estimated order ten in a
    # majority of seeds, and among those, frequencies within 3*sqrt(CRB)
    # in at least half the resolved seeds.
    budget = 180.0
    t0 = time.perf_counter()
    result = mc_cluster(trials=20, base_seed=9000)
    row = result.rows[0]
    resolved = row["resolved_k10"]
    within = row["within_3sigma_crb"]
    problems = []
    if resolved < 11:
        problems.append(
            f"order ten in {resolved}/20 seeds (need >= 11); histogram {row['histogram']}"
        )
    if within < math.ceil(resolved / 2):
        problems.append(
            f"frequencies within 3*sqrt(CRB) in {within}/{resolved} resolved seeds"
        )
    assert not problems, "; ".join(problems)
    assert time.perf_counter() - t0 < budget


def test_09_f_quantile_precision_and_normal_tail():
    budget = 1.0
    t0 = time.perf_counter()
    for d2 in range(2, 201):
        for p in (0.5, 0.99, 1.0 - 1e-6):
            closed = (d2 / 2.0) * ((1.0 - p) ** (-2.0 / d2) - 1.0)
            got = f_inv_cdf(p, FParams(2.0, float(d2)))
            assert got == pytest.approx(closed, rel=1e-9), (d2, p)
    assert std_normal_inv_cdf(1.0 - 1e-6) == pytest.approx(4.753424, abs=1e-5)
    assert time.perf_counter() - t0 < budget


def test_10_per_iteration_cost_scales_linearly_in_n():
    # Fixed node count M = 8, N doubled from 2048 to 4096, exactly 100
    # training iterations per run: the median per-iteration time may grow
    # at most 2.3x (linear growth with overhead allowance).
    budget = 60.0
    t0 = time.perf_counter()
    medians = {}
    for n in (2048, 4096):
        rng = np.random.default_rng(99)
        m = 8
        freqs = np.sort(rng.uniform(0.0, TWO_PI, m))
        alphas = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        x = design_matrix(freqs, n) @ alphas
        y = x + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        state = NetworkState(freqs, alphas)
        cfg = TrainConfig(min_iter=100, max_iter=100)
        train_inner(y, state, cfg)  # warm-up
        times = []
        for _ in range(7):
            t1 = time.perf_counter()
            _, trace = train_inner(y, state, cfg)
            times.append((time.perf_counter() - t1) / trace.iterations_run)
            assert trace.iterations_run == 100
        medians[n] = float(np.median(times))
    ratio = medians[4096] / medians[2048]
    assert ratio <= 2.3, f"per-iteration time ratio {ratio:.2f} for doubled N (limit 2.3)"
    assert time.perf_counter() - t0 < budget

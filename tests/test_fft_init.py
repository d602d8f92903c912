"""FFT initialization: spectrum, noise floor, peak gating, starting amplitudes."""

import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from linespec import fft_init, order_control
from linespec.fft_init import (
    L_FACTOR,
    PEAK_GATE_EPSILON,
    find_peaks,
    initialize,
    noise_floor_estimate,
    periodogram_estimate,
    zero_padded_fft,
)
from linespec.experiments import _draw_signal, sample_well_separated
from linespec.signal_model import TWO_PI, Sinusoid, atom, atom_table, design_matrix, ls_amplitudes


def test_zero_padded_fft_matches_numpy_reference():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    spec = zero_padded_fft(y)
    assert L_FACTOR == 4 and spec.size == 64
    np.testing.assert_allclose(spec, np.fft.fft(y, 64), rtol=1e-12)


def _floor_gating_at(eps, floor):
    """The noise floor at which the fixed gate is the one ``floor`` gives at false-alarm level ``eps``."""
    return floor * math.log(1.0 / eps) / math.log(1.0 / PEAK_GATE_EPSILON)


def test_noise_floor_constant_spectrum_hand_value():
    # all magnitudes c: median(|.|^2) = c^2, floor = c^2 / (N * ln 2)
    c = 3.0
    mag = np.full(64, c)
    est = noise_floor_estimate(mag, 16)
    assert est == pytest.approx(c * c / (16 * math.log(2)), rel=1e-12)


def test_noise_floor_estimates_noise_variance():
    # For white complex noise of variance s2, |FFT|^2 has mean N*s2 and
    # median N*s2*ln2, so the estimator recovers s2.
    rng = np.random.default_rng(1)
    n, s2 = 4096, 2.5
    y = math.sqrt(s2 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    mag = np.abs(np.fft.fft(y, 4 * n))
    # zero padding scales spectral power by N/L on average; correct for it
    est = noise_floor_estimate(mag, n)
    assert est == pytest.approx(s2, rel=0.15)


def test_find_peaks_gate_formula():
    # Spectrum with two local maxima; only the one whose squared magnitude
    # clears noise_floor * N * ln(1/eps), eps = 1e-9, may pass.
    n = 16
    floor = 1.0
    gate = floor * n * math.log(1.0 / PEAK_GATE_EPSILON)  # = 331.5...
    mag = np.ones(L_FACTOR * n)
    mag[10] = math.sqrt(gate * 1.01)  # just above
    mag[40] = math.sqrt(gate * 0.99)  # just below
    assert PEAK_GATE_EPSILON == 1e-9
    assert find_peaks(mag, floor) == [10]


def test_find_peaks_requires_local_maximum():
    mag = np.ones(32)
    mag[5] = 10.0
    mag[6] = 11.0  # 5 is not a peak: right neighbor is larger
    peaks = find_peaks(mag, _floor_gating_at(0.5, 1e-6))
    assert 6 in peaks and 5 not in peaks


def test_find_peaks_plateau_keeps_left_edge():
    mag = np.full(32, 0.1)
    mag[7] = mag[8] = 5.0
    peaks = find_peaks(mag, _floor_gating_at(0.5, 1e-9))
    assert 7 in peaks and 8 not in peaks


def test_find_peaks_wraps_circularly():
    mag = np.full(32, 0.1)
    mag[0] = 5.0  # neighbors are bins 31 and 1
    assert 0 in find_peaks(mag, _floor_gating_at(0.5, 1e-9))


@pytest.mark.parametrize("offset, side", [(0.3, 1.0), (-0.3, -1.0)])
def test_initialize_companion_takes_stronger_neighbor_side(offset, side):
    # A tone 0.3 padded bin off bin k peaks at k; its companion goes toward
    # the neighbor bin the tone is closer to, which is the stronger one.
    n, k = 32, 20
    big_l = 4 * n
    rng = np.random.default_rng(1)
    noise = 0.03 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    y = atom(TWO_PI * (k + offset) / big_l, n) + noise
    state = initialize(y)
    head = TWO_PI * k / big_l
    assert state.m_nodes == 2
    assert head in state.omegas
    companion = state.omegas[state.omegas != head][0]
    assert np.sign(companion - head) == side
    assert abs(companion - head) <= TWO_PI / big_l


def test_initialize_companion_tie_goes_to_upper_bin(monkeypatch):
    # The side rule reads only the padded spectrum, so this hands initialize
    # a spectrum whose peak bin has two equal neighbors.
    n, k = 32, 10
    big_l = 4 * n
    mag = np.zeros(big_l)
    mag[k] = 10.0
    mag[k - 1] = mag[k + 1] = 4.0
    monkeypatch.setattr(fft_init, "zero_padded_fft", lambda y: mag)
    rng = np.random.default_rng(2)
    y = atom(TWO_PI * k / big_l, n) + 0.03 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    state = initialize(y)
    head = TWO_PI * k / big_l
    assert state.m_nodes == 2
    assert state.omegas[0] == head
    assert head < state.omegas[1] <= head + TWO_PI / big_l


def _benchmark_workloads(monkeypatch):
    """perfbench/scenes.py's WORKLOADS, loaded from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenes.py"
    spec = importlib.util.spec_from_file_location("perfbench_scenes", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_merge_radius_runs_no_exact_merge_test_on_the_benchmark_scenes(monkeypatch):
    # merge_radius solves the merge test's flip condition in closed form; an
    # exact test would cost one rho.
    counts = {"radius": 0, "rho": 0}
    inside = [False]
    real_radius, real_rho = fft_init.merge_radius, order_control.rho

    def radius(*args):
        counts["radius"] += 1
        inside[0] = True
        try:
            return real_radius(*args)
        finally:
            inside[0] = False

    def rho(*args):
        counts["rho"] += inside[0]
        return real_rho(*args)

    monkeypatch.setattr(fft_init, "merge_radius", radius)
    monkeypatch.setattr(order_control, "rho", rho)
    workloads = _benchmark_workloads(monkeypatch)
    for name, seeds in (("sep3_n32", range(7000, 7020)), ("tones8_n512", range(8000, 8005)), ("cluster10_n128", range(9000, 9004))):
        counts.update(radius=0, rho=0)
        for seed in seeds:
            initialize(workloads[name].scene(seed).y)
        assert counts["radius"] == len(seeds), name
        assert counts["rho"] == 0, name


def test_initialize_two_clean_tones():
    # Each detected peak also seeds its stronger adjacent bin, so two tones
    # launch four nodes.  Every true frequency must have a node within one
    # fine bin, and the joint LS fit must already explain almost all energy.
    n = 32
    truth = [Sinusoid(2.0 + 0j, TWO_PI * 0.15), Sinusoid(0.0 + 1.5j, TWO_PI * 0.4)]
    y = design_matrix([t.omega for t in truth], n) @ np.array([t.amplitude for t in truth])
    state = initialize(y)
    assert state.m_nodes == 4
    bin_width = TWO_PI / (4 * n)
    for t in truth:
        assert np.min(np.abs(state.omegas - t.omega)) <= bin_width + 1e-12
    resid = y - design_matrix(state.omegas, n) @ state.alphas
    assert np.linalg.norm(resid) < 0.05 * np.linalg.norm(y)


def test_initialize_pure_noise_low_gate_is_empty_or_small():
    rng = np.random.default_rng(3)
    y = 0.01 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
    state = initialize(y)
    # with the strict 1e-9 gate, white noise rarely seeds anything
    assert state.m_nodes <= 1


def _first_fit_heads(heads):
    """A _peak_fit that records, in ``heads``, the frequencies of the first peaks it fits.

    initialize's first fit is the one of the gated peaks, before the prune test.
    """
    real_fit = fft_init._peak_fit

    def fit(y, spectrum, bins):
        if not heads:
            heads.append(TWO_PI * bins / spectrum.size)
        return real_fit(y, spectrum, bins)

    return fit


def test_initialize_caps_nodes_at_signal_length(monkeypatch):
    # The start holds fewer nodes than samples. No benchmark signal comes
    # near the cap: the most gated peaks per sample are 0.156 on sep3
    # (seeds 7000-7059), 0.113 on tones8 (8000-8019), 0.078 on cluster10
    # (9000-9003) and 0.094 on acceptance 02's signals, and noiseless
    # random scenes at N = 3-39 start with at most 0.4 nodes per sample.
    # So here every local maximum passes the gate and the prune test, and
    # the cap alone keeps the strongest (N - 1) // 2 of them.
    candidates, fitted, heads = [], [], []

    def every_maximum(mag, noise_floor):
        candidates[:] = find_peaks(mag, 0.0)
        return list(candidates)

    def keep_all(n_samples, m_nodes, cfg):
        fitted.append(m_nodes)
        return 0.0

    monkeypatch.setattr(fft_init, "find_peaks", every_maximum)
    monkeypatch.setattr(fft_init, "prune_threshold", keep_all)
    monkeypatch.setattr(fft_init, "_peak_fit", _first_fit_heads(heads))
    capped = set()
    for n in range(1, 17):
        rng = np.random.default_rng([4, n])
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fitted.clear()
        heads.clear()
        state = initialize(y)
        cap = (n - 1) // 2
        mag = np.abs(zero_padded_fft(y))
        kept = [round(w * mag.size / TWO_PI) for w in (heads[0] if heads else [])]
        dropped = sorted(set(candidates) - set(kept))
        assert len(kept) == min(len(candidates), cap) and set(kept) <= set(candidates)
        assert kept == sorted(kept)
        assert fitted == ([len(kept)] if kept else [])
        if kept and dropped:
            assert mag[kept].min() >= mag[dropped].max()
        if len(candidates) > cap:
            capped.add(n)
        assert state.m_nodes == 2 * len(kept) < n
    assert capped == set(range(2, 17)) - {3}


def test_initialize_cap_breaks_ties_toward_the_lower_bin(monkeypatch):
    # N = 8 keeps 3 of these 5 peaks: bin 14, then 8 and 20 of the three
    # tied at magnitude 2, in bin order.
    n = 8
    spectrum = np.zeros(L_FACTOR * n, dtype=complex)
    spectrum[[2, 8, 14, 20, 26]] = [1.0, 2.0, 3.0, 2.0j, -2.0]
    heads = []
    monkeypatch.setattr(fft_init, "zero_padded_fft", lambda y: spectrum)
    monkeypatch.setattr(fft_init, "find_peaks", lambda mag, floor: [2, 8, 14, 20, 26])
    monkeypatch.setattr(fft_init, "prune_threshold", lambda n_samples, m_nodes, cfg: 0.0)
    monkeypatch.setattr(fft_init, "_peak_fit", _first_fit_heads(heads))
    rng = np.random.default_rng(5)
    initialize(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    np.testing.assert_array_equal(heads[0], TWO_PI * np.array([8, 14, 20]) / spectrum.size)


def _table_kept_peaks(y, order):
    """_kept_peaks as a fit of the peaks' atom table: (kept bins, amplitudes).

    np.linalg.lstsq on atom_table of the gated peaks, the prune test of that
    fit (order_control._prune_statistics), and a refit of the peaks it keeps.
    """
    n = y.size
    mag = np.abs(zero_padded_fft(y))
    bins = np.array(fft_init.find_peaks(mag, noise_floor_estimate(mag, n)), dtype=int)
    bins = np.sort(bins[np.argsort(-mag[bins], kind="stable")[: (n - 1) // 2]])
    A = atom_table(TWO_PI * bins / mag.size, n)
    alphas = np.linalg.lstsq(A, y, rcond=1e-12)[0]
    r = y - A @ alphas
    xi = order_control._prune_statistics(A.conj().T @ r, r, alphas)
    keep = xi >= fft_init.prune_threshold(n, bins.size, order)
    return bins[keep], np.linalg.lstsq(A[:, keep], y, rcond=1e-12)[0]


def _assert_peak_fit_is_the_table_fit(y):
    order = order_control.OrderConfig()
    _, bins, alphas, _, _ = fft_init._kept_peaks(y, order)
    ref_bins, ref_alphas = _table_kept_peaks(y, order)
    np.testing.assert_array_equal(bins, ref_bins)
    assert np.linalg.norm(alphas - ref_alphas) <= 1e-12 * np.linalg.norm(ref_alphas)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 128, 512])
def test_padded_gram_is_the_gram_of_the_padded_grid_atoms(n):
    # a_k^H a_l = g[(l - k) mod L] for every pair of the L padded-grid atoms;
    # a few rows k of the Gram matrix, each against all L columns.
    big_l = L_FACTOR * n
    A = atom_table(TWO_PI * np.arange(big_l) / big_l, n)
    g = fft_init._padded_gram(n)
    assert g.shape == (big_l,) and not g.flags.writeable
    for k in sorted({0, 1, big_l // 2 + 1, big_l - 1}):
        np.testing.assert_allclose(A[:, k].conj() @ A, np.roll(g, k), rtol=0, atol=1e-12 * n)


def test_peak_fit_is_the_table_fit_on_tones8_scenes(monkeypatch):
    # Some 40 gated peaks, most of them sidelobes that the prune test drops.
    workloads = _benchmark_workloads(monkeypatch)
    for seed in range(8000, 8005):
        _assert_peak_fit_is_the_table_fit(workloads["tones8_n512"].scene(seed).y)


def test_peak_fit_is_the_table_fit_with_every_maximum_fitted(monkeypatch):
    # The cap scenario: every local maximum passes the gate and the prune
    # test, so the fitted atoms sit as close as half a bin apart.
    monkeypatch.setattr(fft_init, "find_peaks", lambda mag, noise_floor: find_peaks(mag, 0.0))
    monkeypatch.setattr(fft_init, "prune_threshold", lambda n_samples, m_nodes, cfg: 0.0)
    for n in range(3, 17):
        rng = np.random.default_rng([4, n])
        _assert_peak_fit_is_the_table_fit(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _recorded_pair_fits(monkeypatch, y, radius=None):
    """The arguments and result of the one _pair_fits call of initialize(y).

    initialize runs with RuntimeWarning raised as an error, and its state
    must hold the recorded amplitudes. A ``radius`` replaces merge_radius's
    spacing for every companion.
    """
    calls = []
    real_fits = fft_init._pair_fits

    def fits(*args):
        calls.append((args, real_fits(*args)))
        return calls[-1][1]

    monkeypatch.setattr(fft_init, "_pair_fits", fits)
    if radius is not None:
        monkeypatch.setattr(fft_init, "merge_radius", lambda alpha, *args: np.full(np.size(alpha), radius))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        state = initialize(y)
    (args, amps), = calls
    np.testing.assert_array_equal(np.sort_complex(state.alphas), np.sort_complex(amps.ravel()))
    return args, amps


@pytest.mark.parametrize("n, omega", [(32, TWO_PI * 5 / 128), (32, 0.3), (512, TWO_PI * 5 / 2048), (512, 0.3)])
def test_initialize_fits_noiseless_tones_as_lstsq_does(monkeypatch, n, omega):
    # On a noiseless tone the peak fit is exact to rounding, so merge_radius
    # puts an on-grid tone's companion some 1e-8 bin from its peak, where
    # N^2 - |a^H c|^2 cancels to nothing. Each pair must still be lstsq's
    # fit of the table [a_i, c_i] to p_i = r + a_i alpha_i, to within what
    # the pair's condition number kappa allows, and a companion that
    # coincides with its peak must take half its amplitude. An atom's phase
    # n*omega carries omega's rounding n times, so atom_table and the FFT's
    # grid differ by up to about N*eps per entry, and the fits by that times
    # kappa.
    y = atom(omega, n)
    (residual, _, alphas, heads, companions), amps = _recorded_pair_fits(monkeypatch, y)
    for head, companion, alpha, fit in zip(heads, companions, alphas, amps):
        if companion == head:
            assert fit[0] == fit[1]
            continue
        pair = atom_table([head, companion], n)
        reference = np.linalg.lstsq(pair, residual + pair[:, 0] * alpha, rcond=1e-12)[0]
        singular = np.linalg.svd(pair, compute_uv=False)
        tol = 4 * n * np.finfo(float).eps * singular[0] / singular[-1] * np.linalg.norm(y) / math.sqrt(n)
        assert np.max(np.abs(fit - reference)) <= tol, (head, companion)


@pytest.mark.parametrize("n, omega", [(32, TWO_PI * 5 / 128), (32, 0.3), (512, 0.3)])
@pytest.mark.parametrize("radius", [0.0, 1e-15])
def test_pair_fits_split_a_companion_at_or_under_the_cut_in_halves(monkeypatch, n, omega, radius):
    # A companion at its peak (radius 0), or so close that [a, c] has a
    # singular value below 1e-12 of the larger one (1e-15 rad), gets
    # lstsq's minimum-norm fit: halves of the peak's amplitude, exactly
    # equal where c is a.
    y = atom(omega, n)
    (residual, _, alphas, heads, companions), amps = _recorded_pair_fits(monkeypatch, y, radius)
    for head, companion, alpha, fit in zip(heads, companions, alphas, amps):
        assert (companion == head) == (radius == 0.0)
        pair = atom_table([head, companion], n)
        reference = np.linalg.lstsq(pair, residual + pair[:, 0] * alpha, rcond=1e-12)[0]
        np.testing.assert_allclose(fit, reference, rtol=1e-12, atol=1e-12 * abs(alpha))
        if radius == 0.0:
            assert fit[0] == fit[1]


def test_initialize_empty_for_zero_signal():
    state = initialize(np.zeros(16, dtype=complex))
    assert state.m_nodes == 0


def test_periodogram_estimate_two_tones():
    # Moderate noise sets the median-based gate above the spectral leakage of
    # the stronger tone, so exactly the two true on-grid peaks survive.
    n = 64
    truth = [Sinusoid(1.0, TWO_PI * 8 / n), Sinusoid(2.0j, TWO_PI * 24 / n)]
    x = design_matrix([t.omega for t in truth], n) @ np.array([t.amplitude for t in truth])
    rng = np.random.default_rng(7)
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    est = periodogram_estimate(x + noise)
    assert len(est) == 2
    for t, e in zip(truth, est):
        assert abs(e.omega - t.omega) < 1e-12  # on-grid tones hit their bin
        assert abs(e.amplitude - t.amplitude) < 0.2


def test_periodogram_estimate_is_the_starts_peaks_on_a_tones8_scene():
    # Eight separated tones at N = 512 and 20 dB, drawn as the tones8
    # benchmark scene 8000: some 40 sidelobe peaks clear the gate, and the
    # prune test of their joint fit keeps one per tone, as initialize does.
    n = 512
    rng = np.random.default_rng(8000)
    freqs = np.sort(sample_well_separated(rng, 8, 8 * TWO_PI / n))
    y, _, _ = _draw_signal(freqs, np.ones(8), n, 20.0, rng)
    mag = np.abs(zero_padded_fft(y))
    assert len(find_peaks(mag, noise_floor_estimate(mag, n))) > 30
    est = periodogram_estimate(y)
    state = initialize(y)
    assert len(est) == state.m_nodes // 2 == 8
    assert set(e.omega for e in est) <= set(state.omegas.tolist())
    omegas = [e.omega for e in est]
    np.testing.assert_allclose([e.amplitude for e in est], ls_amplitudes(omegas, y), rtol=1e-12)


def test_atom_consistency_between_modules():
    np.testing.assert_allclose(
        design_matrix([1.0], 8)[:, 0], atom(1.0, 8), rtol=0, atol=1e-15
    )

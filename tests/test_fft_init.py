"""FFT initialization: spectrum, noise floor, peak gating, starting amplitudes."""

import math

import numpy as np
import pytest

from linespec.errors import InvalidDimension
from linespec import fft_init
from linespec.fft_init import (
    InitConfig,
    find_peaks,
    initialize,
    noise_floor_estimate,
    periodogram_estimate,
    zero_padded_fft,
)
from linespec.signal_model import TWO_PI, Sinusoid, atom, design_matrix


def test_zero_padded_fft_matches_numpy_reference():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    cfg = InitConfig(l_factor=4)
    spec = zero_padded_fft(y, cfg)
    assert spec.size == 64
    np.testing.assert_allclose(spec, np.fft.fft(y, 64), rtol=1e-12)


def test_init_config_validation():
    with pytest.raises(InvalidDimension):
        InitConfig(l_factor=0)
    with pytest.raises(InvalidDimension):
        InitConfig(peak_gate_epsilon=0.0)
    with pytest.raises(InvalidDimension):
        InitConfig(peak_gate_epsilon=1.0)


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
    # clears noise_floor * N * ln(1/eps) may pass.
    n = 16
    eps = 1e-3
    floor = 1.0
    gate = floor * n * math.log(1.0 / eps)  # = 110.5...
    mag = np.ones(64)
    mag[10] = math.sqrt(gate * 1.01)  # just above
    mag[40] = math.sqrt(gate * 0.99)  # just below
    cfg = InitConfig(l_factor=4, peak_gate_epsilon=eps)
    assert find_peaks(mag, floor, cfg) == [10]


def test_find_peaks_requires_local_maximum():
    mag = np.ones(32)
    mag[5] = 10.0
    mag[6] = 11.0  # 5 is not a peak: right neighbor is larger
    cfg = InitConfig(l_factor=4, peak_gate_epsilon=0.5)
    peaks = find_peaks(mag, 1e-6, cfg)
    assert 6 in peaks and 5 not in peaks


def test_find_peaks_plateau_keeps_left_edge():
    mag = np.full(32, 0.1)
    mag[7] = mag[8] = 5.0
    cfg = InitConfig(l_factor=4, peak_gate_epsilon=0.5)
    peaks = find_peaks(mag, 1e-9, cfg)
    assert 7 in peaks and 8 not in peaks


def test_find_peaks_wraps_circularly():
    mag = np.full(32, 0.1)
    mag[0] = 5.0  # neighbors are bins 31 and 1
    cfg = InitConfig(l_factor=4, peak_gate_epsilon=0.5)
    assert 0 in find_peaks(mag, 1e-9, cfg)


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
    monkeypatch.setattr(fft_init, "zero_padded_fft", lambda y, cfg: mag)
    rng = np.random.default_rng(2)
    y = atom(TWO_PI * k / big_l, n) + 0.03 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    state = initialize(y)
    head = TWO_PI * k / big_l
    assert state.m_nodes == 2
    assert state.omegas[0] == head
    assert head < state.omegas[1] <= head + TWO_PI / big_l


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
    state = initialize(y, InitConfig(peak_gate_epsilon=1e-9))
    # with a strict gate, white noise rarely seeds anything
    assert state.m_nodes <= 1


def test_initialize_caps_nodes_at_signal_length():
    rng = np.random.default_rng(4)
    n = 8
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # epsilon near 1 gates almost nothing: every local max becomes a
    # candidate, then pairs collapse until at most N remain
    state = initialize(y, InitConfig(peak_gate_epsilon=0.9))
    assert state.m_nodes <= n


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


def test_atom_consistency_between_modules():
    np.testing.assert_allclose(
        design_matrix([1.0], 8)[:, 0], atom(1.0, 8), rtol=0, atol=1e-15
    )

"""FFT initialization: spectrum, noise floor, peak gating, starting amplitudes."""

import importlib.util
import math
import sys
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
from linespec.signal_model import TWO_PI, Sinusoid, atom, atom_table, design_matrix


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

    def peak_table(omegas, n_samples):
        # initialize's first table is the one of the peaks it fits
        if not heads:
            heads.append(np.array(omegas))
        return atom_table(omegas, n_samples)

    monkeypatch.setattr(fft_init, "find_peaks", every_maximum)
    monkeypatch.setattr(fft_init, "prune_threshold", keep_all)
    monkeypatch.setattr(fft_init, "atom_table", peak_table)
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

    def peak_table(omegas, n_samples):
        if not heads:
            heads.append(np.array(omegas))
        return atom_table(omegas, n_samples)

    monkeypatch.setattr(fft_init, "zero_padded_fft", lambda y: spectrum)
    monkeypatch.setattr(fft_init, "find_peaks", lambda mag, floor: [2, 8, 14, 20, 26])
    monkeypatch.setattr(fft_init, "prune_threshold", lambda n_samples, m_nodes, cfg: 0.0)
    monkeypatch.setattr(fft_init, "atom_table", peak_table)
    rng = np.random.default_rng(5)
    initialize(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    np.testing.assert_array_equal(heads[0], TWO_PI * np.array([8, 14, 20]) / spectrum.size)


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

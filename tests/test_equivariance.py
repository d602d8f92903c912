"""The estimator commutes with the signal transforms that the ML estimate does.

Scenes are shaped like the sep3 benchmark: three unit tones at 0.10, 0.22
and 0.37 cycles/sample, N = 32, 20 dB, seeds 7000-7009. Each test compares
the estimate of a transformed signal with the transformed estimate of the
original. A sign flip changes no intermediate magnitude, so its
frequencies are bit-identical; a common phase, conjugation and a shift by
whole zero-padded FFT bins move the FFT start exactly but round the
training arithmetic differently, so they agree to 1e-12 rad.
"""

from functools import cache

import numpy as np
import pytest

from linespec.experiments import _draw_signal
from linespec.fft_init import InitConfig
from linespec.pipeline import estimate_spectrum
from linespec.signal_model import TWO_PI, wrap_angle

N = 32
SEEDS = range(7000, 7010)
TOL = 1e-12
# Seven bins of the zero-padded FFT that initialization searches.
SHIFT = TWO_PI * 7 / (InitConfig().l_factor * N)


def _signal(seed: int) -> np.ndarray:
    freqs = TWO_PI * np.array([0.10, 0.22, 0.37])
    y, _, _ = _draw_signal(freqs, np.ones(3), N, 20.0, np.random.default_rng(seed))
    return y


@cache
def _omegas(seed: int) -> np.ndarray:
    return np.array([s.omega for s in estimate_spectrum(_signal(seed)).estimates])


def _assert_close_on_the_circle(got: np.ndarray, want: np.ndarray, seed: int):
    # Both sides sorted in [0, 2*pi); a node within TOL of 0 could sort to
    # the other end, and none is near it on these scenes.
    want = np.sort(wrap_angle(want))
    assert got.size == want.size, f"seed {seed}: k_hat {got.size} != {want.size}"
    err = np.abs(np.angle(np.exp(1j * (got - want))))
    assert np.max(err, initial=0.0) < TOL, f"seed {seed}: {np.max(err):.3g} rad"


@pytest.mark.parametrize("seed", SEEDS)
def test_negation_gives_bit_identical_frequencies(seed):
    got = np.array([s.omega for s in estimate_spectrum(-_signal(seed)).estimates])
    assert got.tobytes() == _omegas(seed).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_common_phase_j_keeps_the_frequencies(seed):
    got = np.array([s.omega for s in estimate_spectrum(1j * _signal(seed)).estimates])
    _assert_close_on_the_circle(got, _omegas(seed), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_conjugation_mirrors_the_frequencies(seed):
    got = np.array([s.omega for s in estimate_spectrum(np.conj(_signal(seed))).estimates])
    _assert_close_on_the_circle(got, TWO_PI - _omegas(seed), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_shift_by_whole_padded_bins_shifts_the_frequencies(seed):
    y = _signal(seed) * np.exp(1j * SHIFT * np.arange(N))
    got = np.array([s.omega for s in estimate_spectrum(y).estimates])
    _assert_close_on_the_circle(got, _omegas(seed) + SHIFT, seed)

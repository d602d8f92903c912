"""Frequency initialization from a zero-padded FFT, plus the FFT baseline.

The estimator seeds its hidden layer from the spectrum of the data: compute
an L = L_FACTOR * N point FFT, keep local spectral maxima that clear a
constant-false-alarm-rate gate, drop the sidelobe peaks that a joint fit
of all peaks does not need, pair each remaining peak with a companion node
on the side of its stronger neighbor bin (off-grid tones split their energy
over two bins), and fit initial amplitudes by least squares, one pair at a
time.

PEAK_GATE_EPSILON is the per-bin false-alarm probability of the gate that
separates spectral peaks from noise ripples. It is strict: weak spurious
peaks that sit on the sidelobes of a strong tone survive gradient training
as locked local optima, so they must be rejected at birth rather than
pruned later.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidDimension
from .optimizer import NetworkState
from .order_control import OrderConfig, _prune_statistics, merge_radius, prune_threshold
from .signal_model import TWO_PI, Sinusoid, _ls_solve, as_samples, atom_table, wrap_angle


L_FACTOR = 4
PEAK_GATE_EPSILON = 1e-9


def zero_padded_fft(observed) -> np.ndarray:
    """L-point DFT of the signal zero-padded to L = L_FACTOR * N."""
    y = as_samples(observed)
    return np.fft.fft(y, L_FACTOR * y.size)


def noise_floor_estimate(spectrum_mag: np.ndarray, n_samples: int) -> float:
    """Per-sample noise variance from the median of the squared spectrum.

    Under pure noise each |y^f_k|^2 is exponential with mean N * sigma2, so
    the median divided by (N * ln 2) estimates sigma2 robustly even when a
    few bins carry strong tones.
    """
    mag2 = np.asarray(spectrum_mag, dtype=float) ** 2
    return float(np.median(mag2)) / (n_samples * math.log(2.0))


def find_peaks(spectrum_mag, noise_floor: float) -> list[int]:
    """Bins that are circular local maxima and clear the false-alarm gate.

    A bin k qualifies when |y^f_k| > |y^f_{k-1}|, |y^f_k| >= |y^f_{k+1}|
    (circular indexing), and |y^f_k|^2 > noise_floor * N * ln(1/epsilon),
    the level a noise bin exceeds with probability epsilon =
    PEAK_GATE_EPSILON; N is the spectrum's size over L_FACTOR.
    """
    mag = np.asarray(spectrum_mag, dtype=float)
    big_l = mag.size
    if big_l < 3:
        raise InvalidDimension("spectrum must have at least 3 bins")
    n_samples = big_l // L_FACTOR
    gate = noise_floor * n_samples * math.log(1.0 / PEAK_GATE_EPSILON)
    left = np.roll(mag, 1)
    right = np.roll(mag, -1)
    keep = (mag > left) & (mag >= right) & (mag**2 > gate)
    return [int(k) for k in np.nonzero(keep)[0]]


def _drop_weaker_of_closest_pair(bins: list[int], mag: np.ndarray, big_l: int) -> list[int]:
    """Remove the weaker-magnitude member of the closest candidate pair."""
    order = sorted(bins)
    gaps = []
    for i in range(len(order)):
        j = (i + 1) % len(order)
        gap = (order[j] - order[i]) % big_l
        gaps.append((gap, order[i], order[j]))
    _, ka, kb = min(gaps)
    drop = ka if mag[ka] <= mag[kb] else kb
    return [k for k in order if k != drop]


def initialize(observed, order: OrderConfig | None = None) -> NetworkState:
    """Seed a network state from the zero-padded spectrum.

    Every gated peak, capped at N / 2 so that each can take a companion
    node, enters one least-squares fit. A sidelobe peak is leakage of a
    stronger tone, so the fit gives it almost no amplitude and the prune
    test drops it: the test each outer pass runs (prune_statistics against
    prune_threshold), applied to a fitted model of the peaks alone.

    Each surviving peak bin gets a companion node on the side of its
    stronger neighbor bin (the upper one on a tie, so an on-grid peak is
    deterministic), one padded bin away or, if closer, at merge_radius: the
    spacing up to which the merge test of ``order`` fuses the peak's
    amplitude split in two equal halves, solved in closed form for all
    peaks at once (the limit, one padded bin, is at most 2 pi / N, as
    merge_radius requires). A companion the data do not need can then be
    merged away; at large N a full padded bin lies beyond that radius, and
    an isolated tone would start, and stay, as an unmergeable split pair.
    Each pair is fitted by least squares to the data minus the other peaks'
    joint fit, never jointly with all pairs: atoms a fraction of a bin
    apart across all peaks make that fit ill conditioned, and its
    amplitudes cancel each other at many times a tone's size. An empty
    peak set (pure noise under the gate) yields an M = 0 state.
    """
    if order is None:
        order = OrderConfig()
    y = as_samples(observed)
    n = y.size
    mag = np.abs(zero_padded_fft(y))
    big_l = mag.size
    peaks = find_peaks(mag, noise_floor_estimate(mag, n))
    while 2 * len(peaks) > n:
        peaks = _drop_weaker_of_closest_pair(peaks, mag, big_l)
    if not peaks:
        return NetworkState.empty()
    bins = np.array(peaks)
    A = atom_table(TWO_PI * bins / big_l, n)
    keep = _prune_statistics(y, A, _ls_solve(A, y)) >= prune_threshold(n, bins.size, order)
    if not keep.any():
        return NetworkState.empty()
    # A column of atom_table does not depend on the others, so the kept
    # columns are the table of the kept peaks.
    bins, A = bins[keep], np.ascontiguousarray(A[:, keep])
    heads = TWO_PI * bins / big_l
    alphas = _ls_solve(A, y)
    residual = y - A @ alphas
    sigma2 = float(np.vdot(residual, residual).real) / n
    sides = np.where(mag[(bins + 1) % big_l] >= mag[(bins - 1) % big_l], 1.0, -1.0)
    companions = heads + sides * merge_radius(alphas, sigma2, n, order, TWO_PI / big_l)
    B = atom_table(companions, n)
    amps = []
    for i in range(bins.size):
        partial = residual + A[:, i] * alphas[i]
        amps.extend(_ls_solve(np.column_stack((A[:, i], B[:, i])), partial))
    omegas = wrap_angle(np.column_stack((heads, companions)).ravel())
    idx = np.argsort(omegas, kind="stable")
    return NetworkState(omegas[idx], np.array(amps)[idx])


def periodogram_estimate(observed) -> list[Sinusoid]:
    """Plain FFT estimator: gated peak bins with amplitudes y^f_k / N."""
    y = as_samples(observed)
    spectrum = zero_padded_fft(y)
    mag = np.abs(spectrum)
    peaks = find_peaks(mag, noise_floor_estimate(mag, y.size))
    big_l = mag.size
    return [Sinusoid(spectrum[k] / y.size, TWO_PI * k / big_l) for k in peaks]

"""Frequency initialization from a zero-padded FFT, plus the FFT baseline.

The estimator seeds its hidden layer from the spectrum of the data: compute
an L = l_factor * N point FFT, keep local spectral maxima that clear a
constant-false-alarm-rate gate, drop the sidelobe peaks that a joint fit
of all peaks does not need, pair each remaining peak with a companion node
on the side of its stronger neighbor bin (off-grid tones split their energy
over two bins), and fit initial amplitudes by least squares, one pair at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension
from .optimizer import NetworkState, _set_integer
from .order_control import OrderConfig, _prune_statistics, merge_radius, prune_threshold
from .signal_model import TWO_PI, Sinusoid, _ls_solve, as_samples, atom_table, wrap_angle


@dataclass(frozen=True)
class InitConfig:
    """Zero-padding factor and false-alarm level of the peak gate.

    ``peak_gate_epsilon`` is the per-bin false-alarm probability of the
    pre-gate that separates spectral peaks from noise ripples. The default
    is strict (1e-9): weak spurious peaks that sit on the sidelobes of a
    strong tone survive gradient training as locked local optima, so they
    must be rejected at birth rather than pruned later.
    """

    l_factor: int = 4
    peak_gate_epsilon: float = 1e-9

    def __post_init__(self):
        _set_integer(self, "l_factor")
        if self.l_factor < 1:
            raise InvalidDimension("l_factor must be at least 1")
        if not 0.0 < self.peak_gate_epsilon < 1.0:
            raise InvalidDimension("peak_gate_epsilon must lie in (0, 1)")


def zero_padded_fft(observed, cfg: InitConfig) -> np.ndarray:
    """L-point DFT of the signal zero-padded to L = l_factor * N."""
    y = as_samples(observed)
    return np.fft.fft(y, cfg.l_factor * y.size)


def noise_floor_estimate(spectrum_mag: np.ndarray, n_samples: int) -> float:
    """Per-sample noise variance from the median of the squared spectrum.

    Under pure noise each |y^f_k|^2 is exponential with mean N * sigma2, so
    the median divided by (N * ln 2) estimates sigma2 robustly even when a
    few bins carry strong tones.
    """
    mag2 = np.asarray(spectrum_mag, dtype=float) ** 2
    return float(np.median(mag2)) / (n_samples * math.log(2.0))


def find_peaks(spectrum_mag, noise_floor: float, cfg: InitConfig) -> list[int]:
    """Bins that are circular local maxima and clear the false-alarm gate.

    A bin k qualifies when |y^f_k| > |y^f_{k-1}|, |y^f_k| >= |y^f_{k+1}|
    (circular indexing), and |y^f_k|^2 > noise_floor * N * ln(1/epsilon),
    the level a noise bin exceeds with probability epsilon.
    """
    mag = np.asarray(spectrum_mag, dtype=float)
    big_l = mag.size
    if big_l < 3:
        raise InvalidDimension("spectrum must have at least 3 bins")
    n_samples = big_l // cfg.l_factor
    gate = noise_floor * n_samples * math.log(1.0 / cfg.peak_gate_epsilon)
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


def _peak_bins(y: np.ndarray, mag: np.ndarray, cfg: InitConfig, order: OrderConfig) -> list[int]:
    """Gated peak bins whose atoms survive the prune test of a joint fit.

    Every gated peak enters one least-squares fit. A sidelobe peak is
    leakage of a stronger tone, so the fit gives it almost no amplitude and
    the prune test drops it: the test each outer pass runs (prune_statistics
    against prune_threshold), applied to a fitted model of the peaks alone.
    Peaks are first capped at N / 2 so that each can take a companion node.
    """
    big_l = mag.size
    peaks = find_peaks(mag, noise_floor_estimate(mag, y.size), cfg)
    while 2 * len(peaks) > y.size:
        peaks = _drop_weaker_of_closest_pair(peaks, mag, big_l)
    if not peaks:
        return []
    A = atom_table(TWO_PI * np.array(peaks) / big_l, y.size)
    xi = _prune_statistics(y, A, _ls_solve(A, y))
    keep = xi >= prune_threshold(y.size, len(peaks), order)
    return [k for k, kept in zip(peaks, keep) if kept]


def initialize(observed, cfg: InitConfig | None = None, order: OrderConfig | None = None) -> NetworkState:
    """Seed a network state from the zero-padded spectrum.

    Each surviving peak bin (see _peak_bins) gets a companion node on the
    side of its stronger neighbor bin (the upper one on a tie, so an
    on-grid peak is deterministic), one padded bin away or, if closer,
    at merge_radius: the spacing up to which the merge test of ``order``
    fuses the peak's amplitude split in two equal halves, solved in closed
    form for all peaks at once (the limit, one padded bin, is at most
    2 pi / N, as merge_radius requires). A companion the data do not need
    can then be merged away; at large N a full padded bin lies beyond that
    radius, and an isolated tone would start, and stay, as
    an unmergeable split pair. Each pair is fitted by least squares to the
    data minus the other peaks' joint fit, never jointly with all pairs:
    atoms a fraction of a bin apart across all peaks make that fit ill
    conditioned, and its amplitudes cancel each other at many times a
    tone's size. An empty peak set (pure noise under the gate) yields an
    M = 0 state.
    """
    if cfg is None:
        cfg = InitConfig()
    if order is None:
        order = OrderConfig()
    y = as_samples(observed)
    n = y.size
    mag = np.abs(zero_padded_fft(y, cfg))
    big_l = mag.size
    peaks = _peak_bins(y, mag, cfg, order)
    if not peaks:
        return NetworkState.empty()
    bins = np.array(peaks)
    heads = TWO_PI * bins / big_l
    A = atom_table(heads, n)
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


def periodogram_estimate(observed, cfg: InitConfig | None = None) -> list[Sinusoid]:
    """Plain FFT estimator: gated peak bins with amplitudes y^f_k / N."""
    if cfg is None:
        cfg = InitConfig()
    y = as_samples(observed)
    spectrum = zero_padded_fft(y, cfg)
    mag = np.abs(spectrum)
    floor = noise_floor_estimate(mag, y.size)
    peaks = find_peaks(mag, floor, cfg)
    big_l = mag.size
    return [Sinusoid(spectrum[k] / y.size, TWO_PI * k / big_l) for k in peaks]

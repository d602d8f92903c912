"""Frequency initialization from a zero-padded FFT, plus the FFT baseline.

The estimator seeds its hidden layer from the spectrum of the data: compute
an L = L_FACTOR * N point FFT, keep local spectral maxima that clear a
constant-false-alarm-rate gate, drop the sidelobe peaks that a joint fit
of all peaks does not need, pair each remaining peak with a companion node
on the side of its stronger neighbor bin (off-grid tones split their energy
over two bins), and fit initial amplitudes by least squares, one pair at a
time.

The peaks sit on the padded grid, so their fit needs no table of their
atoms a_k = e^{j 2 pi k n / L}: a_k^H y is the spectrum's bin k, and
a_k^H a_l = g[(l - k) mod L] with g the unscaled inverse FFT of N ones.
np.linalg.lstsq solves that M x M system and counts singular values below
1e-24 of the largest as zero: the Gram matrix's singular values are the
squares of the atoms', so this is ls_amplitudes' 1e-12 cut. The residual
is y minus the inverse FFT of the amplitudes placed at their bins. The
pair fits are closed-form 2 x 2 solves (_pair_fits).

PEAK_GATE_EPSILON is the per-bin false-alarm probability of the gate that
separates spectral peaks from noise ripples. It is strict: weak spurious
peaks that sit on the sidelobes of a strong tone survive gradient training
as locked local optima, so they must be rejected at birth rather than
pruned later.

The start holds fewer nodes than samples, M < N, the one model-size rule of
the estimator: the prune test's F(2, 2(N - M)) quantile exists only there,
and merging and pruning never add nodes. So at most (N - 1) // 2 gated
peaks, the strongest, enter the start, and with their companions they make
at most N - 1 nodes; for N <= 2 the start is empty.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InvalidDimension
from .optimizer import NetworkState
from .order_control import OrderConfig, _prune_statistics, merge_radius, prune_threshold
from .signal_model import TWO_PI, Sinusoid, as_samples, atom_table, wrap_angle


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


@lru_cache(maxsize=16)
def _padded_gram(n_samples: int) -> np.ndarray:
    """g with a_k^H a_l = g[(l - k) mod L] for the padded-grid atoms a_k = e^{j 2 pi k n / L}.

    g[m] is the sum of e^{j 2 pi m n / L} over n < N, the unscaled inverse
    FFT of N ones padded to L = L_FACTOR * N. Computed once per N, read-only.
    """
    g = np.fft.ifft(np.ones(n_samples), L_FACTOR * n_samples, norm="forward")
    g.flags.writeable = False
    return g


def _peak_fit(y: np.ndarray, spectrum: np.ndarray, bins: np.ndarray):
    """(alphas, residual r, a_k^H r): the least-squares fit of the atoms at ``bins``, from the spectrum."""
    big_l = spectrum.size
    gram = _padded_gram(y.size)[(bins[None, :] - bins[:, None]) % big_l]
    alphas = np.linalg.lstsq(gram, spectrum[bins], rcond=1e-24)[0]
    placed = np.zeros(big_l, dtype=complex)
    placed[bins] = alphas
    residual = y - np.fft.ifft(placed, norm="forward")[: y.size]
    return alphas, residual, np.fft.fft(residual, big_l)[bins]


def _kept_peaks(y: np.ndarray, order: OrderConfig):
    """The start's first stage: (|spectrum|, kept peak bins, amplitudes, residual, a_k^H residual).

    The gated peaks enter one least-squares fit (_peak_fit), at most
    (N - 1) // 2 of them so that peaks and companions stay fewer than the N
    samples (see the module docstring): the strongest, the lower bin first
    on a tie, kept in bin order. A sidelobe peak is leakage of a stronger
    tone, so the fit gives it almost no amplitude and the prune test drops
    it: the test each outer pass runs (_prune_statistics, inf or 0 on an
    exact fit, against prune_threshold), applied to a fitted model of the
    peaks alone. If it drops a peak, the kept peaks are fitted again,
    jointly; none kept gives empty arrays.
    """
    n = y.size
    spectrum = zero_padded_fft(y)
    mag = np.abs(spectrum)
    bins = np.array(find_peaks(mag, noise_floor_estimate(mag, n)), dtype=int)
    bins = np.sort(bins[np.argsort(-mag[bins], kind="stable")[: (n - 1) // 2]])
    if not bins.size:
        return mag, bins, np.zeros(0, dtype=complex), y, np.zeros(0, dtype=complex)
    alphas, residual, projected = _peak_fit(y, spectrum, bins)
    keep = _prune_statistics(projected, residual, alphas) >= prune_threshold(n, bins.size, order)
    if not keep.all():
        bins = bins[keep]
        alphas, residual, projected = _peak_fit(y, spectrum, bins)
    return mag, bins, alphas, residual, projected


def _pair_fits(residual, projected, alphas, heads, companions) -> np.ndarray:
    """(K, 2) amplitudes of each peak atom a_i and its companion c_i, fitted to p_i = r + a_i alpha_i.

    ``projected`` holds a_i^H r. Each pair is one 2 x 2 solve in the basis
    (a_i, c_i - a_i), whose Gram entries are sums over n of
    e^{j delta n} - 1 = -2 sin^2(delta n / 2) + j sin(delta n), delta the
    pair's gap: so they keep their digits as delta goes to 0, where
    N^2 - |a_i^H c_i|^2 would cancel to nothing. Only the companions' atoms
    are built. As ls_amplitudes cuts singular values below 1e-12 of the
    largest, a pair so close that [a_i, c_i] falls under that cut takes the
    minimum-norm fit: equal halves where c_i is a_i.
    """
    n = residual.size
    phase = np.outer(companions - heads, np.arange(n))
    half_sin2 = np.sum(np.sin(phase / 2) ** 2, axis=1)
    cross = -2.0 * half_sin2 + 1j * np.sum(np.sin(phase), axis=1)  # a^H (c - a)
    spread = 4.0 * half_sin2  # ||c - a||^2
    head_fit = projected + n * alphas  # a^H p
    companion_r = (residual.conj() @ atom_table(companions, n)).conj()  # c^H r
    gap_fit = companion_r - projected + alphas * cross.conj()  # (c - a)^H p
    det = n * spread - np.abs(cross) ** 2
    top = n + np.abs(n + cross)  # the larger squared singular value of [a, c]
    cut = det <= (1e-12 * top) ** 2
    det = np.where(cut, np.inf, det)  # a cut pair takes only the minimum-norm fit below
    gap = (n * gap_fit - cross.conj() * head_fit) / det
    head = ((spread + cross.conj()) * head_fit - (n + cross) * gap_fit) / det
    turn = (n + cross) / np.abs(n + cross)  # the phase of a^H c
    half = np.where(cut, (head_fit + turn * (head_fit + gap_fit)) / (2.0 * top), 0.0)
    return np.column_stack((head + half, gap + turn.conj() * half))


def initialize(observed, order: OrderConfig | None = None) -> NetworkState:
    """Seed a network state from the zero-padded spectrum.

    Each peak bin _kept_peaks keeps gets a companion node on the side of its
    stronger neighbor bin (the upper one on a tie, so an on-grid peak is
    deterministic), one padded bin away or, if closer, at merge_radius: the
    spacing up to which the merge test of ``order`` fuses the peak's
    amplitude split in two equal halves, solved in closed form for all
    peaks at once (the limit, one padded bin, is at most 2 pi / N, as
    merge_radius requires). A companion the data do not need can then be
    merged away; at large N a full padded bin lies beyond that radius, and
    an isolated tone would start, and stay, as an unmergeable split pair.
    Each pair is fitted by least squares to the data minus the other peaks'
    joint fit, never jointly with all pairs: atoms a fraction of a bin apart
    across all peaks make that fit ill conditioned, and its amplitudes
    cancel each other at many times a tone's size. The pair fits are
    closed-form 2 x 2 solves (_pair_fits) with ls_amplitudes' 1e-12
    singular-value cut, as the peak fit is one M x M solve with its square
    (see the module docstring). An empty peak set (pure noise under the
    gate) yields an M = 0 state.
    """
    if order is None:
        order = OrderConfig()
    y = as_samples(observed)
    n = y.size
    mag, bins, alphas, residual, projected = _kept_peaks(y, order)
    if not bins.size:
        return NetworkState.empty()
    big_l = mag.size
    heads = TWO_PI * bins / big_l
    sigma2 = float(np.vdot(residual, residual).real) / n
    sides = np.where(mag[(bins + 1) % big_l] >= mag[(bins - 1) % big_l], 1.0, -1.0)
    companions = heads + sides * merge_radius(alphas, sigma2, n, order, TWO_PI / big_l)
    amps = _pair_fits(residual, projected, alphas, heads, companions).ravel()
    omegas = wrap_angle(np.column_stack((heads, companions)).ravel())
    idx = np.argsort(omegas, kind="stable")
    return NetworkState(omegas[idx], amps[idx])


def periodogram_estimate(observed) -> list[Sinusoid]:
    """Plain FFT estimator: the peaks initialize keeps (_kept_peaks, default
    OrderConfig) at their padded-bin frequencies, with their joint
    least-squares amplitudes."""
    y = as_samples(observed)
    mag, bins, alphas, _, _ = _kept_peaks(y, OrderConfig())
    return [Sinusoid(a, TWO_PI * k / mag.size) for k, a in zip(bins, alphas)]

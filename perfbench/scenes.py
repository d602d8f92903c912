"""Seeded input scenes for the benchmark workloads.

A workload is a fixed set of signal seeds. Signal ``s`` is drawn from
``numpy.random.default_rng(s)`` in one order: the scene's frequencies (when
the scene draws them), then uniform phases on unit magnitudes, then complex
white noise at 20 dB SNR. That is the order ``linespec.experiments`` draws
its Monte Carlo trials in. The amplitude/noise draw is repeated here instead
of importing the private ``_draw_signal`` so that the benchmark's inputs stay
pinned if the package's helper changes; ``test_perfbench.py`` checks that
both agree bit for bit. The estimator only ever receives ``Scene.y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from linespec import Sinusoid
from linespec.experiments import cluster_frequencies, general_crb, sample_well_separated

TWO_PI = 2.0 * math.pi
SNR_DB = 20.0


@dataclass(frozen=True)
class Scene:
    """One benchmark input and the truth it was drawn from."""

    seed: int
    y: np.ndarray
    freqs: np.ndarray
    amps: np.ndarray
    sigma2: float

    def freq_crb(self) -> np.ndarray:
        """Frequency CRB of each true tone at the drawn amplitudes and noise."""
        truth = [Sinusoid(a, w) for a, w in zip(self.amps, self.freqs)]
        return general_crb(truth, self.y.size, self.sigma2)[2::3]


@dataclass(frozen=True)
class Workload:
    name: str
    n_samples: int
    seeds: tuple[int, ...]
    draw_freqs: Callable[[np.random.Generator], np.ndarray]

    def scene(self, seed: int) -> Scene:
        rng = np.random.default_rng(seed)
        freqs = self.draw_freqs(rng)
        y, sigma2, amps = draw_signal(freqs, np.ones(freqs.size), self.n_samples, SNR_DB, rng)
        return Scene(seed, y, freqs, amps, sigma2)

    def scenes(self) -> list[Scene]:
        return [self.scene(s) for s in self.seeds]


def draw_signal(freqs: np.ndarray, mags: np.ndarray, n_samples: int, snr_db: float, rng):
    """Random phases, then noise at the target SNR; returns (y, sigma2, amps)."""
    amps = mags * np.exp(1j * TWO_PI * rng.uniform(size=freqs.size))
    x = np.exp(1j * np.outer(np.arange(n_samples), freqs)) @ amps
    sigma2 = float(np.vdot(x, x).real) / (n_samples * 10.0 ** (snr_db / 10.0))
    e = rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
    return x + math.sqrt(sigma2 / 2.0) * e, sigma2, amps


def _sep3(rng) -> np.ndarray:
    return TWO_PI * np.array([0.10, 0.22, 0.37])


def _tones8(rng) -> np.ndarray:
    return np.sort(sample_well_separated(rng, 8, 8 * TWO_PI / 512))


def _cluster10(rng) -> np.ndarray:
    return cluster_frequencies(128)


# Seed sets are the first seeds from each base; their size keeps one pass over
# a set to roughly 7-16 s on a 2-CPU host, so a run repeats it at least twice.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sep3_n32", 32, tuple(range(7000, 7020)), _sep3),
        Workload("tones8_n512", 512, tuple(range(8000, 8005)), _tones8),
        Workload("cluster10_n128", 128, tuple(range(9000, 9004)), _cluster10),
    )
}


def warmup_signal() -> np.ndarray:
    """A one-tone N = 32 signal at about 10 dB SNR.

    It runs every estimator stage (init, eight annealing passes of training,
    merge and prune) in about 15 ms and resolves to one tone.
    """
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    return np.exp(0.2j * math.pi * np.arange(32)) + 0.3 * noise

"""Complex sinusoid-in-noise signal model.

A length-N observation is modeled as y = x + e where x is a sum of complex
sinusoids, x(n) = sum_k alpha_k * exp(j * omega_k * n), and e is circularly
symmetric complex Gaussian noise. This module provides the steering vectors
(atoms), design matrices, the least-squares amplitude fit, synthetic signals
at a controlled SNR, and the small value types shared across the library.

Two ways build the atoms. ``atom``, ``design_matrix`` and ``synthesize``
take one complex exp per sample; they make the signals. ``atom_table``
builds the same matrix by angle addition, about 2*sqrt(N) exps per atom,
with the bits of the training kernel's matrix; everything the estimator
fits evaluates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateInput, InvalidDimension

TWO_PI = 2.0 * math.pi


def wrap_angle(omega):
    """Map angular frequencies, elementwise, to the canonical interval [0, 2*pi).

    Tiny negative inputs round up to exactly 2*pi under np.mod; those fold
    back to 0 so the half-open interval contract holds for every input. A
    scalar gives a float, an array an array.
    """
    wrapped = np.mod(omega, TWO_PI)
    wrapped = np.where(wrapped < TWO_PI, wrapped, 0.0)
    return float(wrapped) if wrapped.ndim == 0 else wrapped


@dataclass(frozen=True)
class Sinusoid:
    """One complex sinusoid: amplitude alpha and angular frequency omega.

    The frequency is wrapped into [0, 2*pi) at construction; any real input
    is accepted.
    """

    amplitude: complex
    omega: float

    def __post_init__(self):
        amp = complex(self.amplitude)
        w = float(self.omega)
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise DegenerateInput("sinusoid amplitude must be finite")
        if not math.isfinite(w):
            raise DegenerateInput("sinusoid frequency must be finite")
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "omega", wrap_angle(w))

    @property
    def normalized_freq(self) -> float:
        """Frequency as a fraction of the sample rate, omega / (2*pi)."""
        return self.omega / TWO_PI


@dataclass(frozen=True)
class Signal:
    """A length-N vector of complex samples with a finite energy sum |y[n]|^2."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.complex128)
        if s.ndim != 1 or s.size < 1:
            raise InvalidDimension("signal must be a nonempty 1-d vector")
        # One sum catches every non-finite sample and an energy that
        # overflows, which would make the cost and the noise variance inf.
        if not math.isfinite(np.vdot(s, s).real):
            raise DegenerateInput(
                "signal samples must be finite and their energy sum |y[n]|^2 must not overflow"
            )
        object.__setattr__(self, "samples", s)

    @property
    def n_samples(self) -> int:
        return self.samples.size

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class NoiseSpec:
    """Noise variance and RNG seed for reproducible signal synthesis.

    ``sigma2`` is the total per-sample variance of the circularly symmetric
    complex Gaussian noise (real and imaginary parts each carry sigma2 / 2).
    """

    sigma2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma2 < math.inf:
            raise DegenerateInput("noise variance must be finite and nonnegative")
        if self.seed < 0:
            raise DegenerateInput("noise seed must be nonnegative")


def as_samples(observed) -> np.ndarray:
    """Coerce a Signal or array-like into a finite 1-d complex sample vector."""
    return (observed if isinstance(observed, Signal) else Signal(observed)).samples


def atom(omega: float, n_samples: int) -> np.ndarray:
    """Unit-modulus steering vector [1, e^{j w}, ..., e^{j w (N-1)}]."""
    if n_samples < 1:
        raise InvalidDimension("atom needs at least one sample")
    n = np.arange(n_samples)
    return np.exp(1j * omega * n)


def design_matrix(omegas, n_samples: int) -> np.ndarray:
    """N x M matrix whose column i is atom(omegas[i], n_samples); N x 0 for M = 0."""
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    if n_samples < 1:
        raise InvalidDimension("design matrix needs at least one sample")
    n = np.arange(n_samples)
    return np.exp(1j * np.outer(n, w))


@lru_cache(maxsize=16)
def atom_split(n_samples: int) -> tuple[int, np.ndarray]:
    """(B, k): the angle-addition split of the sample indices 0 .. N-1.

    With B = isqrt(N - 1) + 1 = ceil(sqrt(N)) every n < N is q*B + s with
    s < B and q*B < N. k is a read-only float column of the B offsets s,
    then the multiples q*B, so exp(j*n*w) = exp(j*k_{B+q}*w) * exp(j*k_s*w).
    Computed once per N and shared by atom_table and the training kernel.
    """
    if n_samples < 1:
        raise InvalidDimension("atom table needs at least one sample")
    b = math.isqrt(n_samples - 1) + 1
    k = np.concatenate((np.arange(b), np.arange(0, n_samples, b)))[:, None].astype(float)
    k.flags.writeable = False
    return b, k


def atom_table(omegas, n_samples: int) -> np.ndarray:
    """design_matrix(omegas, n_samples) built by angle addition.

    One exp per step of atom_split and frequency, B + ceil(N/B) of them
    instead of N, and one complex multiply per entry. Each phase k*w is rounded as
    n*w is, so the table keeps the direct exp's accuracy; its entries
    differ from it in the last bits. The operations are those of the
    training kernel, so the result has the bits of its matrix at the same
    frequencies, and a column's bits do not depend on the other columns.
    """
    w = np.asarray(omegas, dtype=float).ravel()
    b, k = atom_split(n_samples)
    # Only the imaginary part is written: exp(0 + j*k*w).
    steps = np.zeros((k.size, w.size), dtype=np.complex128)
    np.multiply(k, w, steps.imag)
    np.exp(steps, steps)
    prod = np.multiply(steps[b:, None], steps[:b])
    return prod.reshape(prod.shape[0] * b, w.size)[:n_samples]


def ls_amplitudes(omegas, target: np.ndarray) -> np.ndarray:
    """Least-squares amplitudes of the atoms at ``omegas`` fitted to ``target``.

    Singular values below 1e-12 of the largest count as zero, so
    numerically duplicated frequencies share their amplitude as the
    minimum-norm solution (equal halves for an exact duplicate) instead of
    cancelling at many times the data's size. No frequencies fit nothing.
    The atoms come from atom_table.
    """
    return _ls_solve(atom_table(omegas, target.size), target)


def _ls_solve(A: np.ndarray, target: np.ndarray) -> np.ndarray:
    """ls_amplitudes for a design matrix the caller has already built."""
    return np.linalg.lstsq(A, target, rcond=1e-12)[0]


def synthesize(components, n_samples: int, noise: NoiseSpec) -> Signal:
    """Generate y = sum_k alpha_k * atom(omega_k) + e deterministically.

    ``components`` is an iterable of Sinusoid (or (amplitude, omega) pairs).
    The noise draw is fully determined by ``noise.seed``.
    """
    if n_samples < 1:
        raise InvalidDimension("cannot synthesize an empty signal")
    comps = [c if isinstance(c, Sinusoid) else Sinusoid(c[0], c[1]) for c in components]
    amps = np.array([c.amplitude for c in comps], dtype=np.complex128)
    x = design_matrix([c.omega for c in comps], n_samples) @ amps
    if noise.sigma2 > 0:
        rng = np.random.default_rng(noise.seed)
        scale = math.sqrt(noise.sigma2 / 2.0)
        e = scale * (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples))
        x = x + e
    return Signal(x)


def noise_var_for_snr(clean, snr_db: float) -> float:
    """Per-sample noise variance that puts the clean signal at ``snr_db``.

    Solves 10*log10(||x||^2 / (N * sigma2)) = snr_db, so
    sigma2 = ||x||^2 / (N * 10^(snr_db / 10)). An all-zero signal, or an
    SNR for which sigma2 is no finite positive float, raises DegenerateInput.
    """
    x = as_samples(clean)
    power = float(np.vdot(x, x).real)
    try:
        sigma2 = power / (x.size * 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma2 = math.nan
    if not 0.0 < sigma2 < math.inf:
        raise DegenerateInput(f"no finite positive noise variance gives {snr_db} dB SNR")
    return sigma2

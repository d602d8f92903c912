"""Network state and gradient training for the sinusoid model.

The estimator views the signal model as a small three-layer network: the
hidden layer holds M nodes, one per sinusoid, parameterized by an angular
frequency omega and a complex amplitude alpha, and the output layer sums the
node responses into the model signal x_hat. Training minimizes the squared
residual C = ||y - x_hat||^2 by gradient descent with exponential moving
average momentum, using the analytic complex (Wirtinger) gradient for the
amplitudes and the real gradient for the frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidDimension, NumericalDivergence
from .signal_model import TWO_PI, as_samples

_DEFAULT_RATE_NUMERATOR = 0.5


def sum_n_squared(n_samples: int) -> float:
    """Sum of n^2 for n = 0 .. N-1, the curvature scale of the frequency block."""
    n = n_samples
    return (n - 1) * n * (2 * n - 1) / 6.0


@dataclass(frozen=True)
class NetworkState:
    """Hidden-layer weights: one frequency and one complex amplitude per node."""

    omegas: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        a = np.atleast_1d(np.asarray(self.alphas, dtype=np.complex128))
        if w.size != a.size:
            raise InvalidDimension("state vectors must share one length")
        if w.size and not np.all(np.isfinite(w)):
            raise NumericalDivergence("state contains non-finite frequencies")
        if a.size and not np.all(np.isfinite(a.view(float))):
            raise NumericalDivergence("state contains non-finite amplitudes")
        object.__setattr__(self, "omegas", w)
        object.__setattr__(self, "alphas", a)

    @classmethod
    def empty(cls) -> "NetworkState":
        return cls(np.zeros(0), np.zeros(0, dtype=np.complex128))

    @property
    def m_nodes(self) -> int:
        return self.omegas.size


@dataclass(frozen=True)
class TrainConfig:
    """Learning rates, momentum, and stopping rule for the inner loop.

    ``gamma_alpha`` and ``gamma_omega`` default to None, meaning "resolve per
    signal length": 0.5 / N for the amplitudes and 0.5 / sum(n^2) for the
    frequencies, which rescales the two gradient blocks to comparable step
    sizes. ``momentum`` is the exponential moving average coefficient of the
    momentum buffers. The loop stops once the mean cost change |dC/N| stays
    below ``eps_tol`` for ``consec_hits`` consecutive iterations after at
    least ``min_iter`` iterations; the bare defaults (0, 1) stop at the first
    crossing.
    """

    gamma_alpha: float | None = None
    gamma_omega: float | None = None
    momentum: float = 0.9
    eps_tol: float = 1e-5
    max_iter: int = 20000
    safeguard_patience: int = 20
    min_iter: int = 0
    consec_hits: int = 1

    def __post_init__(self):
        if self.gamma_alpha is not None and not self.gamma_alpha > 0:
            raise InvalidDimension("gamma_alpha must be positive")
        if self.gamma_omega is not None and not self.gamma_omega > 0:
            raise InvalidDimension("gamma_omega must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidDimension("momentum must lie in [0, 1)")
        if not self.eps_tol > 0:
            raise InvalidDimension("eps_tol must be positive")
        if self.max_iter < 1 or self.safeguard_patience < 1:
            raise InvalidDimension("iteration limits must be positive")
        if self.min_iter < 0 or self.consec_hits < 1:
            raise InvalidDimension("stopping counters out of range")

    def resolve(self, n_samples: int) -> "TrainConfig":
        """Fill in the per-N default learning rates."""
        ga = self.gamma_alpha
        gw = self.gamma_omega
        if ga is None:
            ga = _DEFAULT_RATE_NUMERATOR / n_samples
        if gw is None:
            gw = _DEFAULT_RATE_NUMERATOR / sum_n_squared(max(n_samples, 2))
        return replace(self, gamma_alpha=ga, gamma_omega=gw)


@dataclass(frozen=True)
class CostTrace:
    """Per-iteration mean cost C/N, starting with the initial state's cost."""

    mean_costs: np.ndarray
    iterations_run: int
    converged: bool


def _phase_steps(n_samples: int):
    """Step table of _residual for N samples: (k, B) with B = ceil(sqrt(N)).

    Every n < N is q*B + s with s < B and q*B < N, so exp(j*n*w) is the
    product exp(j*q*B*w) * exp(j*s*w); k lists the B offsets s and then
    the multiples q*B.
    """
    b = math.isqrt(n_samples - 1) + 1
    return np.concatenate((np.arange(b), np.arange(0, n_samples, b))), b


def _residual(omegas: np.ndarray, alphas: np.ndarray, y: np.ndarray, steps):
    """Design matrix A = exp(j * outer(n, omegas)) and residual r = A alpha - y.

    A is built by angle addition from the step table (see _phase_steps):
    one exp per step and node, B + ceil(N / B) of them instead of N, and
    one complex multiply per entry of A. Each phase k*w is rounded as n*w
    is, so A keeps the accuracy of the direct exp.
    """
    k, b = steps
    t = np.exp(np.outer(k, 1j * omegas))
    A = (t[b:, None, :] * t[None, :b, :]).reshape((k.size - b) * b, omegas.size)[: y.size]
    r = A @ alphas
    r -= y
    return A, r


def _gradients(A: np.ndarray, r: np.ndarray, alphas: np.ndarray, n: np.ndarray):
    """Amplitude and frequency gradients of ||r||^2 from the design matrix and residual."""
    return A.conj().T @ r, 2.0 * np.imag(alphas * (A.T @ (n * np.conj(-r))))


def forward(state: NetworkState, n_samples: int) -> np.ndarray:
    """Model signal x_hat(n) = sum_i alpha_i * exp(j * omega_i * n)."""
    if n_samples < 1:
        raise InvalidDimension("forward needs at least one sample")
    # The residual against y = 0 is the model itself.
    zeros = np.zeros(n_samples)
    return _residual(state.omegas, state.alphas, zeros, _phase_steps(n_samples))[1]


def cost(observed, model) -> float:
    """Squared residual ||y - x_hat||^2."""
    y = as_samples(observed)
    x = np.asarray(model, dtype=np.complex128)
    if y.shape != x.shape:
        raise InvalidDimension("observed and model lengths differ")
    r = y - x
    return float(np.vdot(r, r).real)


def grad_alpha(state: NetworkState, observed) -> np.ndarray:
    """Gradient of the cost with respect to the conjugate amplitudes, A^H (x_hat - y)."""
    y = as_samples(observed)
    n = np.arange(y.size)
    A, r = _residual(state.omegas, state.alphas, y, _phase_steps(y.size))
    return _gradients(A, r, state.alphas, n)[0]


def grad_omega(state: NetworkState, observed) -> np.ndarray:
    """Gradient of the cost with respect to the frequencies.

    Equals 2 * Im{ alpha * [A^T (n * conj(y - x_hat))] } elementwise over nodes.
    """
    y = as_samples(observed)
    n = np.arange(y.size)
    A, r = _residual(state.omegas, state.alphas, y, _phase_steps(y.size))
    return _gradients(A, r, state.alphas, n)[1]


def train_inner(observed, state: NetworkState, cfg: TrainConfig | None = None):
    """Gradient descent with momentum until the mean cost change is below tolerance.

    Returns (final state, CostTrace). The momentum buffers live only inside
    one call and start from zero. If the cost rises for
    ``safeguard_patience`` consecutive iterations, both learning rates are
    halved, the buffers are zeroed, and the best state seen so far is
    restored before continuing.
    """
    y = as_samples(observed)
    n_samples = y.size
    if cfg is None:
        cfg = TrainConfig()
    cfg = cfg.resolve(n_samples)
    m = state.m_nodes
    if m == 0:
        c0 = float(np.vdot(y, y).real) / n_samples
        return state, CostTrace(np.array([c0]), 0, True)

    n = np.arange(n_samples)
    steps = _phase_steps(n_samples)
    w = state.omegas.copy()
    a = state.alphas.copy()
    dw = np.zeros(m)
    da = np.zeros(m, dtype=np.complex128)
    rate_a = cfg.gamma_alpha
    rate_w = cfg.gamma_omega
    lam = cfg.momentum

    A, r = _residual(w, a, y, steps)
    cbar = float(np.vdot(r, r).real) / n_samples
    trace = [cbar]
    best_c, best_w, best_a = cbar, w.copy(), a.copy()
    rising = 0
    hits = 0
    iterations = 0
    converged = False

    for t in range(1, cfg.max_iter + 1):
        iterations = t
        ga, gw = _gradients(A, r, a, n)
        da = lam * da + (1.0 - lam) * ga
        dw = lam * dw + (1.0 - lam) * gw
        a = a - rate_a * da
        w = w - rate_w * dw
        A, r = _residual(w, a, y, steps)
        c = float(np.vdot(r, r).real) / n_samples
        trace.append(c)
        if not math.isfinite(c):
            raise NumericalDivergence("training cost became non-finite")
        if c < best_c:
            best_c, best_w, best_a = c, w.copy(), a.copy()
        if c > cbar:
            rising += 1
            if rising >= cfg.safeguard_patience:
                rate_a *= 0.5
                rate_w *= 0.5
                da[:] = 0.0
                dw[:] = 0.0
                w, a = best_w.copy(), best_a.copy()
                A, r = _residual(w, a, y, steps)
                c = best_c
                rising = 0
        else:
            rising = 0
        if c == 0.0:
            cbar = c
            converged = True
            break
        if t > cfg.min_iter and abs(c - cbar) < cfg.eps_tol:
            hits += 1
            if hits >= cfg.consec_hits:
                cbar = c
                converged = True
                break
        else:
            hits = 0
        cbar = c

    return NetworkState(w, a), CostTrace(np.asarray(trace), iterations, converged)


def wrap_frequencies(state: NetworkState) -> NetworkState:
    """Wrap every frequency into [0, 2*pi); amplitudes unchanged."""
    return NetworkState(np.mod(state.omegas, TWO_PI), state.alphas)

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
from .signal_model import as_samples, atom_split

_DEFAULT_RATE_NUMERATOR = 0.5
# Rising iterations in a row that trigger a safeguard halving, and
# below-tolerance iterations in a row that end a pass.
_SAFEGUARD_PATIENCE = 20
_CONSEC_HITS = 3
# Training at N >= this applies A through its factors (_FactoredKernel);
# below it, building A (_Kernel) takes less time per iteration.
_FACTORED_MIN_N = 256


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
        if not np.all(np.isfinite(w)):
            raise NumericalDivergence("state contains non-finite frequencies")
        if not np.all(np.isfinite(a)):
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

    The defaults are what every estimator pass trains with; the outer loop
    sets only the tolerance of each pass, with ``eps_tol`` as its floor.
    ``gamma_alpha`` and ``gamma_omega`` default to None, meaning "resolve per
    signal length": 0.5 / N for the amplitudes and 0.5 / sum(n^2) for the
    frequencies, which rescales the two gradient blocks to comparable step
    sizes; a set rate must be finite and positive. ``momentum`` is the
    exponential moving average coefficient of the momentum buffers. The
    loop stops once the mean cost change |dC/N| stays below ``eps_tol`` for
    three consecutive iterations after at least ``min_iter`` iterations, so
    a momentary flat spot of the cost does not end it.
    """

    gamma_alpha: float | None = None
    gamma_omega: float | None = None
    momentum: float = 0.9
    eps_tol: float = 1e-9
    max_iter: int = 20000
    min_iter: int = 30

    def __post_init__(self):
        if self.gamma_alpha is not None and not 0.0 < self.gamma_alpha < math.inf:
            raise InvalidDimension("gamma_alpha must be finite and positive")
        if self.gamma_omega is not None and not 0.0 < self.gamma_omega < math.inf:
            raise InvalidDimension("gamma_omega must be finite and positive")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidDimension("momentum must lie in [0, 1)")
        if not self.eps_tol > 0:
            raise InvalidDimension("eps_tol must be positive")
        if self.max_iter < 1 or self.min_iter < 0:
            raise InvalidDimension("iteration limits out of range")

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
    """Per-iteration mean cost C/N, starting with the initial state's cost.

    train_inner returns the last iterate, whose cost is the last entry,
    unless that cost is above the first entry, the starting state's; then
    it returns the lowest-cost state of the run, whose cost is the minimum
    of ``mean_costs``. So a call never ends above its start.
    ``halvings`` counts the safeguard's learning-rate halvings.
    ``exit_reason`` says why the loop stopped: ``"tol"`` (the mean cost
    change stayed below tolerance; also an empty state, whose cost cannot
    change), ``"exact_fit"`` (the cost reached exactly zero) or
    ``"max_iter"`` (the iteration limit, the one unconverged exit).
    """

    mean_costs: np.ndarray
    iterations_run: int
    halvings: int
    exit_reason: str

    @property
    def converged(self) -> bool:
        return self.exit_reason != "max_iter"


class _Kernel:
    """Model, residual and both gradients for one signal y and M nodes.

    Every array is allocated once, here; ``residual`` and ``gradients`` only
    write into them, so each call overwrites what the last one returned.
    Every numpy call passes its output positionally and takes array
    operands only, the cheapest way to call a ufunc on a few dozen numbers.
    The design matrix A = exp(j * outer(n, omegas)) is built by angle
    addition on the split of signal_model.atom_split: one exp per step k
    (the B offsets s, then the multiples q*B) and node, B + ceil(N/B) of
    them instead of N, and one complex multiply per entry of A. These are
    signal_model.atom_table's operations into fixed buffers, so A has its
    bits.
    """

    def __init__(self, y: np.ndarray, m_nodes: int):
        n_samples = y.size
        b, k = atom_split(n_samples)
        self._y = y
        self._k = k
        # Only the imaginary part is ever written: exp(0 + j*k*w).
        self._phase = np.zeros((k.size, m_nodes), dtype=np.complex128)
        self._phase_imag = self._phase.imag
        self._steps = np.empty_like(self._phase)
        self._hi = self._steps[b:, None, :]
        self._lo = self._steps[None, :b, :]
        self._prod = np.empty((k.size - b, b, m_nodes), dtype=np.complex128)
        self.A = self._prod.reshape((k.size - b) * b, m_nodes)[:n_samples]
        self._At = self.A.T
        self.r = np.empty(n_samples, dtype=np.complex128)
        self._rc = np.empty(n_samples, dtype=np.complex128)
        self._n = np.arange(n_samples, dtype=np.complex128)
        self._s = np.empty(m_nodes, dtype=np.complex128)
        self._s_pairs = self._s.view(float)
        self._s_imag = self._s.imag

    def residual(self, omegas: np.ndarray, alphas: np.ndarray) -> np.ndarray:
        """Rebuild A at omegas and return r = A alpha - y."""
        np.multiply(self._k, omegas, self._phase_imag)
        np.exp(self._phase, self._steps)
        np.multiply(self._hi, self._lo, self._prod)
        np.matmul(self.A, alphas, self.r)
        np.subtract(self.r, self._y, self.r)
        return self.r

    def gradients(
        self, alphas: np.ndarray, scale_a: np.ndarray, scale_w: np.ndarray, out
    ) -> None:
        """Scaled gradients of ||r||^2 at the last residual, written into out.

        ``out`` is a pair: the amplitude block as interleaved (re, im)
        floats, then the frequency block. With s = A^T conj(r), the first
        gets ``scale_a`` times the (re, im) pairs of s, the second
        ``scale_w`` times Im{alpha * A^T (n * conj(r))}. The unit scales
        [1, -1, 1, -1, ...] and -2 give the gradients themselves:
        A^H r = conj(s), and 2 Im{alpha * A^T (n * conj(-r))} is
        -2 Im{alpha * A^T (n * conj(r))}. Negation and doubling are exact,
        so a step scaled here by [c, -c] and -2c has the bits of the
        gradient times c.
        """
        out_a, out_w = out
        rc = np.conjugate(self.r, self._rc)
        np.matmul(self._At, rc, self._s)
        np.multiply(self._s_pairs, scale_a, out_a)
        np.multiply(self._n, rc, rc)
        np.matmul(self._At, rc, self._s)
        np.multiply(alphas, self._s, self._s)
        np.multiply(self._s_imag, scale_w, out_w)


class _FactoredKernel:
    """_Kernel's residual and gradients, applying A through its two factors.

    With the split of signal_model.atom_split, A[q*B + s] = H[q] * L[s]
    elementwise, where H = exp(j*q*B*omegas) is Q x M and
    L = exp(j*s*omegas) is B x M. The model on the zero-padded Q x B grid
    is then one product, (H * alpha) @ L^T, whose first N entries minus y
    are r. Both gradient sums come from one product of the stacked
    2Q x B array [conj(r); n * conj(r)] with L, times H and summed over q:
    A^T conj(r) and A^T (n * conj(r)). Only the first N entries of each
    half are ever written, so the padded tail stays zero. This skips the
    N x M table and its complex multiply; the sums run in another order,
    so the results differ from _Kernel's in the last bits.
    """

    def __init__(self, y: np.ndarray, m_nodes: int):
        n_samples = y.size
        b, k = atom_split(n_samples)
        q = k.size - b
        self._y = y
        self._k = k
        # Only the imaginary part is ever written: exp(0 + j*k*w).
        self._phase = np.zeros((k.size, m_nodes), dtype=np.complex128)
        self._phase_imag = self._phase.imag
        self._steps = np.empty_like(self._phase)
        self._l = self._steps[:b]
        self._lt = self._l.T
        self._h = self._steps[b:]
        self._ha = np.empty((q, m_nodes), dtype=np.complex128)
        self._x = np.empty((q, b), dtype=np.complex128)
        self.r = self._x.reshape(q * b)[:n_samples]
        self._stack = np.zeros((2 * q, b), dtype=np.complex128)
        halves = self._stack.reshape(2, q * b)
        self._rc = halves[0, :n_samples]
        self._nrc = halves[1, :n_samples]
        self._p = np.empty((2 * q, m_nodes), dtype=np.complex128)
        self._p3 = self._p.reshape(2, q, m_nodes)
        self._n = np.arange(n_samples, dtype=np.complex128)
        self._s = np.empty((2, m_nodes), dtype=np.complex128)
        self._s_pairs = self._s[0].view(float)
        self._s_w = self._s[1]
        self._s_imag = self._s_w.imag

    def residual(self, omegas: np.ndarray, alphas: np.ndarray) -> np.ndarray:
        """Evaluate the factors at omegas and return r = A alpha - y."""
        np.multiply(self._k, omegas, self._phase_imag)
        np.exp(self._phase, self._steps)
        np.multiply(self._h, alphas, self._ha)
        np.matmul(self._ha, self._lt, self._x)
        np.subtract(self.r, self._y, self.r)
        return self.r

    def gradients(
        self, alphas: np.ndarray, scale_a: np.ndarray, scale_w: np.ndarray, out
    ) -> None:
        """_Kernel.gradients at the last residual, through the factors."""
        out_a, out_w = out
        np.conjugate(self.r, self._rc)
        np.multiply(self._n, self._rc, self._nrc)
        np.matmul(self._stack, self._l, self._p)
        np.multiply(self._p3, self._h, self._p3)
        np.add.reduce(self._p3, 1, None, self._s)
        np.multiply(self._s_pairs, scale_a, out_a)
        np.multiply(alphas, self._s_w, self._s_w)
        np.multiply(self._s_imag, scale_w, out_w)


def forward(state: NetworkState, n_samples: int) -> np.ndarray:
    """Model signal x_hat(n) = sum_i alpha_i * exp(j * omega_i * n)."""
    if n_samples < 1:
        raise InvalidDimension("forward needs at least one sample")
    # The residual against y = 0 is the model itself.
    kernel = _Kernel(np.zeros(n_samples), state.m_nodes)
    return kernel.residual(state.omegas, state.alphas)


def cost(observed, model) -> float:
    """Squared residual ||y - x_hat||^2."""
    y = as_samples(observed)
    x = np.asarray(model, dtype=np.complex128)
    if y.shape != x.shape:
        raise InvalidDimension("observed and model lengths differ")
    r = y - x
    return float(np.vdot(r, r).real)


def _gradients(state: NetworkState, observed) -> tuple[np.ndarray, np.ndarray]:
    """(A^H r, -2 Im{alpha * A^T (n * conj(r))}) at r = A alpha - y."""
    m = state.m_nodes
    kernel = _Kernel(as_samples(observed), m)
    kernel.residual(state.omegas, state.alphas)
    grad_a = np.empty(m, dtype=np.complex128)
    grad_w = np.empty(m)
    unit_a, unit_w = np.tile([1.0, -1.0], m), np.full(m, -2.0)
    kernel.gradients(state.alphas, unit_a, unit_w, (grad_a.view(float), grad_w))
    return grad_a, grad_w


def grad_alpha(state: NetworkState, observed) -> np.ndarray:
    """Gradient of the cost with respect to the conjugate amplitudes, A^H (x_hat - y)."""
    return _gradients(state, observed)[0]


def grad_omega(state: NetworkState, observed) -> np.ndarray:
    """Gradient of the cost with respect to the frequencies.

    Equals 2 * Im{ alpha * [A^T (n * conj(y - x_hat))] } elementwise over nodes.
    """
    return _gradients(state, observed)[1]


def train_inner(observed, state: NetworkState, cfg: TrainConfig | None = None):
    """Gradient descent with momentum until the mean cost change is below tolerance.

    Returns (final state, CostTrace). The momentum buffer lives only inside
    one call and starts from zero. If the cost rises for 20 consecutive
    iterations, both learning rates are halved, the buffer is zeroed, and
    the best state seen so far is restored before continuing. The final
    state is the last iterate, or the best state seen when the last
    iterate costs more than the starting state (an oscillation that never
    rises 20 times in a row can end there). From N = 256 samples the model
    and gradients go through _FactoredKernel, below it through _Kernel.
    """
    y = as_samples(observed)
    n_samples = y.size
    if cfg is None:
        cfg = TrainConfig()
    cfg = cfg.resolve(n_samples)
    m = state.m_nodes
    if m == 0:
        c0 = float(np.vdot(y, y).real) / n_samples
        return state, CostTrace(np.array([c0]), 0, 0, "tol")

    kernel = (_FactoredKernel if n_samples >= _FACTORED_MIN_N else _Kernel)(y, m)
    # Parameters, momentum, rates and steps share one flat layout:
    # [alpha (re, im interleaved), omega]. Three parameter buffers rotate:
    # the current one, the best one (often the same) and a free one that
    # takes the next iterate, so keeping the best state copies nothing.
    bufs = []
    for _ in range(3):
        p = np.empty(3 * m)
        bufs.append((p, p[: 2 * m].view(np.complex128), p[2 * m :]))
    p, a, w = bufs[0]
    a[:] = state.alphas
    w[:] = state.omegas
    rates = np.concatenate((np.full(2 * m, cfg.gamma_alpha), np.full(m, cfg.gamma_omega)))
    d = np.zeros(3 * m)
    step = np.empty(3 * m)
    step_parts = (step[: 2 * m], step[2 * m :])
    lam = np.full(3 * m, cfg.momentum)
    # The gradient scaled by mix = 1 - lambda in one write: conj(s) * mix
    # is (re, im) * [mix, -mix], and -2 Im{...} * mix is Im{...} * (-2 mix).
    mix = 1.0 - cfg.momentum
    scale_a = np.tile([mix, -mix], m)
    scale_w = np.full(m, -2.0 * mix)

    r = kernel.residual(w, a)
    cbar = float(np.vdot(r, r).real) / n_samples
    trace = [cbar]
    best_c = cbar
    cur = best = 0
    rising = 0
    hits = 0
    halvings = 0
    exit_reason = "max_iter"

    # Loop invariants, looked up once.
    gradients = kernel.gradients
    residual = kernel.residual
    multiply = np.multiply
    add = np.add
    subtract = np.subtract
    vdot = np.vdot
    isfinite = math.isfinite
    append = trace.append
    eps_tol = cfg.eps_tol
    min_iter = cfg.min_iter
    hits_to_stop = _CONSEC_HITS
    patience = _SAFEGUARD_PATIENCE

    for t in range(1, cfg.max_iter + 1):
        gradients(a, scale_a, scale_w, step_parts)
        multiply(d, lam, d)
        add(d, step, d)
        multiply(rates, d, step)
        # The next buffer after cur that does not hold the best state.
        nxt = (cur + 1) % 3
        if nxt == best:
            nxt = (nxt + 1) % 3
        q, a, w = bufs[nxt]
        subtract(p, step, q)
        p, cur = q, nxt
        r = residual(w, a)
        c = float(vdot(r, r).real) / n_samples
        append(c)
        if not isfinite(c):
            raise NumericalDivergence("training cost became non-finite")
        if c < best_c:
            best_c = c
            best = cur
        if c > cbar:
            rising += 1
            if rising >= patience:
                rates *= 0.5
                d[:] = 0.0
                cur = best
                p, a, w = bufs[best]
                residual(w, a)
                c = best_c
                rising = 0
                halvings += 1
        else:
            rising = 0
        if c == 0.0:
            exit_reason = "exact_fit"
            break
        if t > min_iter and abs(c - cbar) < eps_tol:
            hits += 1
            if hits >= hits_to_stop:
                exit_reason = "tol"
                break
        else:
            hits = 0
        cbar = c

    if c > trace[0]:
        _, a, w = bufs[best]
    out = NetworkState(w.copy(), a.copy())
    return out, CostTrace(np.asarray(trace), t, halvings, exit_reason)

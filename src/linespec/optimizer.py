"""Network state and gradient training for the sinusoid model.

The estimator views the signal model as a small three-layer network: the
hidden layer holds M nodes, one per sinusoid, parameterized by an angular
frequency omega and a complex amplitude alpha, and the output layer sums the
node responses into the model signal x_hat. Training minimizes the squared
residual C = ||y - x_hat||^2 by gradient descent with exponential moving
average momentum, using the analytic complex (Wirtinger) gradient for the
amplitudes and the real gradient for the frequencies; two kernels of one
interface evaluate them at real frequencies with atom_table's operations.
polish_frequencies minimizes the same cost at a fixed order by variable
projection; the pipeline's look-ahead runs it on a copy of the state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import InvalidDimension, NumericalDivergence
from .signal_model import TWO_PI, as_samples, atom_split, atom_table, wrap_angle

_DEFAULT_RATE_NUMERATOR = 0.5
# Rising iterations in a row that trigger a safeguard halving, and
# below-tolerance iterations in a row that end a pass.
_SAFEGUARD_PATIENCE = 20
_CONSEC_HITS = 3
# The crawl test: a pass also ends once its total cost fell by less than
# _CRAWL_TAU * sigma2_hat over its last _CRAWL_WINDOW iterations, sigma2_hat
# the current mean cost C/N. Near an optimum a move of one CRB standard
# deviation along any direction raises the cost by sigma^2 / 2, so a fall of
# tau * sigma^2 is a move of about sqrt(2 tau) = 0.1 sqrt(CRB) along the
# least-determined direction: iterates the data cannot tell apart. The
# window is the number of steps after which the momentum's memory of a
# gradient, lambda^W at the default lambda = 0.9, is below 1e-9:
# ceil(ln 1e-9 / ln 0.9) = 197. Both sides of the test scale as the cost.
_CRAWL_TAU = 0.005
_CRAWL_WINDOW = 197
# polish_frequencies: at most this many cost evaluations, a first
# Levenberg-Marquardt damping, and the step (rad) that counts as converged.
_POLISH_STEPS = 20
_POLISH_DAMPING = 1e-3
_POLISH_TOL = 1e-12
# Training at N >= this applies A through its factors (_FactoredKernel);
# below it, building A (_Kernel) takes less time per iteration at M >= 8
# (tools/kernel_crossover.py).
_FACTORED_MIN_N = 128


def sum_n_squared(n_samples: int) -> float:
    """Sum of n^2 for n = 0 .. N-1, the curvature scale of the frequency block."""
    n = n_samples
    return (n - 1) * n * (2 * n - 1) / 6.0


def _set_integer(cfg, name: str) -> None:
    """Store the config field ``name`` as an int; a non-integer is InvalidDimension."""
    try:
        object.__setattr__(cfg, name, operator.index(getattr(cfg, name)))
    except TypeError:
        raise InvalidDimension(f"{name} must be an integer") from None


@dataclass(frozen=True)
class NetworkState:
    """Hidden-layer weights: one frequency and one complex amplitude per node.

    ``velocity`` is the momentum buffer of the descent that produced the
    state, in train_inner's private layout (4 floats per node), or None for
    a state at rest. Only _of sets it: train_inner hands back its own and
    continues from the one it is given, and the estimator's outer loop
    decides what each pass starts from. The order-control stages build the
    states they change at rest and hand on the ones they leave alone as
    they came.
    ``_fit`` is (the bytes of y, A, y - A alpha) for samples y, which the
    merge stage hands to the prune statistics; they read it only for
    samples of the same bytes. A state that has one has read-only arrays.
    No constructor or replace carries either field.
    """

    omegas: np.ndarray
    alphas: np.ndarray
    velocity: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)
    _fit: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        a = np.atleast_1d(np.asarray(self.alphas, dtype=np.complex128))
        if w.ndim != 1 or a.ndim != 1:
            raise InvalidDimension("state vectors must be 1-d")
        if w.size != a.size:
            raise InvalidDimension("state vectors must share one length")
        if not np.all(np.isfinite(w)):
            raise NumericalDivergence("state contains non-finite frequencies")
        if not np.all(np.isfinite(a)):
            raise NumericalDivergence("state contains non-finite amplitudes")
        object.__setattr__(self, "omegas", w)
        object.__setattr__(self, "alphas", a)

    @classmethod
    def _of(cls, omegas, alphas, velocity=None, fit=None) -> "NetworkState":
        """A state built without the checks, of nodes taken from a checked
        state or of train_inner's iterates, whose cost it checked finite."""
        state = object.__new__(cls)
        state.__dict__.update(omegas=omegas, alphas=alphas, velocity=velocity, _fit=fit)
        if fit is not None:
            omegas.flags.writeable = alphas.flags.writeable = False
        return state

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
    three consecutive iterations. A descent from rest must first run
    ``min_iter`` iterations, so the flat start of a restarted descent does
    not end it; one that continues with the momentum it was handed may stop
    at its first three hits. A second, scale-free test, which no field
    sets, also ends the loop: once the total cost fell by less than
    0.005 sigma2_hat over the last 197 iterations, sigma2_hat the current
    mean cost (train_inner). ``max_iter`` bounds a pass that meets neither.
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
        _set_integer(self, "max_iter")
        _set_integer(self, "min_iter")
        if self.max_iter < 1 or self.min_iter < 0:
            raise InvalidDimension("iteration limits out of range")

    @lru_cache(maxsize=64)
    def resolve(self, n_samples: int) -> "TrainConfig":
        """Fill in the per-N default learning rates (computed once per config and N)."""
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
    change), ``"crawl"`` (the total cost fell by less than 0.005 times the
    current mean cost over the last 197 iterations, or rose), ``"exact_fit"``
    (the cost reached exactly zero) or ``"max_iter"`` (the iteration limit,
    the one unconverged exit). ``converged`` is true for every exit but
    ``"max_iter"``: a crawl stop counts as converged, since the data cannot
    tell the iterates it would still visit apart.
    polish_frequencies returns one as well: an entry per cost evaluation,
    each the lowest cost so far, ``iterations_run`` the evaluations,
    ``halvings`` 0, and its own stopping rule's exit reason.
    """

    mean_costs: np.ndarray
    iterations_run: int
    halvings: int
    exit_reason: str

    @property
    def converged(self) -> bool:
        return self.exit_reason != "max_iter"


class _Kernel:
    """Model, residual and both gradient sums for one signal y and M nodes.

    Every array is allocated once, here; ``residual`` and
    ``gradient_sums`` only write into them, so each call overwrites what the
    last one returned. Every numpy call passes its output positionally and
    takes array operands only, the cheapest way to call a ufunc on a few
    dozen numbers. The design matrix A = exp(j * outer(n, omegas)) is built
    by angle addition on the split of signal_model.atom_split: the phases
    k*omegas are written into the imaginary part of a buffer whose real
    part stays 0, then one exp per step k (the B offsets s, then the
    multiples q*B) and node, B + ceil(N/B) of them instead of N, and one
    complex multiply per entry of A. These are signal_model.atom_table's
    operations into fixed buffers, so A has its bits.
    ``block`` is 8M zeroed floats: the sums s as (re, im) pairs, then 4M
    floats train_inner keeps its momentum in, so one multiply scales both.
    """

    def __init__(self, y: np.ndarray, m_nodes: int):
        n_samples = y.size
        b, k = atom_split(n_samples)
        self._y = y
        self._k = k
        self._phase = np.zeros((k.size, m_nodes), dtype=np.complex128)
        self._phase_im = self._phase.imag
        self._steps = np.empty((k.size, m_nodes), dtype=np.complex128)
        self._hi = self._steps[b:, None, :]
        self._lo = self._steps[None, :b, :]
        self._prod = np.empty((k.size - b, b, m_nodes), dtype=np.complex128)
        self.A = self._prod.reshape((k.size - b) * b, m_nodes)[:n_samples]
        self._At = self.A.T
        self.r = np.empty(n_samples, dtype=np.complex128)
        self._rc = np.empty(n_samples, dtype=np.complex128)
        self._n = np.arange(n_samples, dtype=np.complex128)
        self.s, self.block = _sums_block(m_nodes)
        self._s0, self._s1 = self.s

    def residual(self, omegas: np.ndarray, alphas: np.ndarray) -> np.ndarray:
        """Rebuild A at the frequencies omegas and return r = A alpha - y."""
        np.multiply(self._k, omegas, self._phase_im)
        np.exp(self._phase, self._steps)
        np.multiply(self._hi, self._lo, self._prod)
        np.matmul(self.A, alphas, self.r)
        np.subtract(self.r, self._y, self.r)
        return self.r

    def gradient_sums(self, alphas: np.ndarray) -> np.ndarray:
        """s = [A^T conj(r); alpha * A^T (n * conj(r))] at the last residual, as a 2 x M array.

        ``alphas`` are the amplitudes of that residual. The gradients are
        A^H r = conj(s[0]) and -2 Im{s[1]}, since
        2 Im{alpha * A^T (n * conj(-r))} = -2 Im{alpha * A^T (n * conj(r))}.
        The amplitudes multiply the second sum in place, which keeps the
        trajectories' bits: at M = 1 numpy rounds an in-place complex
        product differently from one into a new array.
        """
        rc = np.conjugate(self.r, self._rc)
        np.matmul(self._At, rc, self._s0)
        np.multiply(self._n, rc, rc)
        np.matmul(self._At, rc, self._s1)
        np.multiply(alphas, self._s1, self._s1)
        return self.s


def _sums_block(m_nodes: int):
    """(s, block): the 2 x M complex gradient sums as the first half of 8M zeroed floats."""
    halves = np.zeros((2, 2, m_nodes), dtype=np.complex128)
    return halves[0], halves.reshape(4 * m_nodes).view(float)


class _FactoredKernel:
    """_Kernel's residual and gradient sums, applying A through its two factors.

    With the split of signal_model.atom_split, A[q*B + s] = H[q] * L[s]
    elementwise, where H = exp(j*q*B*omegas) is Q x M and
    L = exp(j*s*omegas) is B x M. Per node, two exps give z1 = exp(j*w)
    and zB = exp(j*fl(B*w)); L and H are their running powers, z1^s for
    s < B and zB^q for q < Q, from one multiply.accumulate of a stride-0
    view of the two into rows 1.. of a buffer whose first row is ones.
    The s-th (q-th) power carries about s (q) roundings of exp and the
    complex multiply, and H also q times the rounding of B*w, the size of
    the direct exp's own phase rounding at n = q*B. The model on the
    zero-padded Q x B grid is then one product, (H * alpha) @ L^T, whose
    first N entries minus y are r; H * alpha stays in a third plane of the
    powers buffer, beside H. Both gradient sums come from one product of
    the stacked 2Q x B array [conj(r); n * conj(r)] with L, times the
    stacked view [H; H * alpha] and summed over q: A^T conj(r) and
    alpha * A^T (n * conj(r)). Only the first N entries of each half are
    ever written, so the padded tail stays zero. This skips the N x M
    table and its complex multiply; the factors and the sums are rounded
    differently, so the results differ from _Kernel's in the last bits.
    """

    def __init__(self, y: np.ndarray, m_nodes: int):
        n_samples = y.size
        b, k = atom_split(n_samples)
        q = k.size - b
        self._y = y
        self._k = np.array([[1.0], [b]])
        self._phase = np.zeros((2, 1, m_nodes), dtype=np.complex128)
        self._phase_im = self._phase.imag[:, 0]
        self._z = np.empty((2, 1, m_nodes), dtype=np.complex128)
        self._bases = np.broadcast_to(self._z, (2, b - 1, m_nodes))
        # Planes L, H and H * alpha. Row 0 of L and H stays one; accumulate
        # writes the powers below it.
        self._powers = np.ones((3, b, m_nodes), dtype=np.complex128)
        self._rows = self._powers[:2, 1:]
        self._l = self._powers[0]
        self._lt = self._l.T
        self._h = self._powers[1, :q]
        self._ha = self._powers[2, :q]
        self._h_ha = self._powers[1:, :q]
        self._x = np.empty((q, b), dtype=np.complex128)
        self.r = self._x.reshape(q * b)[:n_samples]
        self._stack = np.zeros((2 * q, b), dtype=np.complex128)
        halves = self._stack.reshape(2, q * b)
        self._rc = halves[0, :n_samples]
        self._nrc = halves[1, :n_samples]
        self._p = np.empty((2 * q, m_nodes), dtype=np.complex128)
        self._p3 = self._p.reshape(2, q, m_nodes)
        self._n = np.arange(n_samples, dtype=np.complex128)
        self.s, self.block = _sums_block(m_nodes)

    def residual(self, omegas: np.ndarray, alphas: np.ndarray) -> np.ndarray:
        """Evaluate the factors at the frequencies omegas and return r = A alpha - y."""
        np.multiply(self._k, omegas, self._phase_im)
        np.exp(self._phase, self._z)
        np.multiply.accumulate(self._bases, 1, None, self._rows)
        np.multiply(self._h, alphas, self._ha)
        np.matmul(self._ha, self._lt, self._x)
        np.subtract(self.r, self._y, self.r)
        return self.r

    def gradient_sums(self, alphas: np.ndarray) -> np.ndarray:
        """_Kernel.gradient_sums at the last residual, through the factors.

        The amplitudes enter through the residual's H * alpha, so ``alphas``
        must be those of the last residual, as in _Kernel.
        """
        np.conjugate(self.r, self._rc)
        np.multiply(self._n, self._rc, self._nrc)
        np.matmul(self._stack, self._l, self._p)
        np.multiply(self._p3, self._h_ha, self._p3)
        return np.add.reduce(self._p3, 1, None, self.s)


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
    kernel = _Kernel(as_samples(observed), state.m_nodes)
    kernel.residual(state.omegas, state.alphas)
    s = kernel.gradient_sums(state.alphas)
    return np.conjugate(s[0]), -2.0 * s[1].imag


def grad_alpha(state: NetworkState, observed) -> np.ndarray:
    """Gradient of the cost with respect to the conjugate amplitudes, A^H (x_hat - y)."""
    return _gradients(state, observed)[0]


def grad_omega(state: NetworkState, observed) -> np.ndarray:
    """Gradient of the cost with respect to the frequencies.

    Equals 2 * Im{ alpha * [A^T (n * conj(y - x_hat))] } elementwise over nodes.
    """
    return _gradients(state, observed)[1]


def _drifting(start, now, t: int, remaining: int) -> bool:
    """Whether a decision margin above 1 reaches 1 within ``remaining``
    iterations, moving on at its mean rate over the t iterations since
    ``start``."""
    return any(m > 1.0 and m + (m - m0) / t * remaining < 1.0 for m0, m in zip(start, now))


@lru_cache(maxsize=64)
def _step_vectors(cfg: TrainConfig, m_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(rates, factors) of train_inner's layout for M nodes and a resolved config, read-only.

    ``rates`` is 4M floats: gamma_alpha on the amplitude block, gamma_omega
    on the frequency slots. ``factors`` is 8M floats, the scale of the sums
    then the momentum lambda. The scale turns the sums
    s = [A^T conj(r); alpha * A^T (n * conj(r))], as (re, im) pairs, into
    the gradient times mix = 1 - lambda: conj(s[0]) * mix is
    (re, im) * [mix, -mix], and -2 Im{s[1]} * mix is Im{s[1]} * (-2 mix).
    The real slots of the frequency block get rate 0 and scale 0: their
    momentum and parameters stay 0.
    """
    m = m_nodes
    rates = np.zeros(4 * m)
    rates[: 2 * m] = cfg.gamma_alpha
    rates[2 * m + 1 :: 2] = cfg.gamma_omega
    mix = 1.0 - cfg.momentum
    factors = np.zeros(8 * m)
    factors[: 2 * m : 2] = mix
    factors[1 : 2 * m : 2] = -mix
    factors[2 * m + 1 : 4 * m : 2] = -2.0 * mix
    factors[4 * m :] = cfg.momentum
    rates.flags.writeable = factors.flags.writeable = False
    return rates, factors


def train_inner(observed, state: NetworkState, cfg: TrainConfig | None = None, margins=None):
    """Gradient descent with momentum until the cost change is below tolerance or noise level.

    A second test ends the descent once the data cannot tell its iterates
    apart ("crawl"): at iteration t >= W = _CRAWL_WINDOW = 197, when the
    mean costs satisfy trace[t - W] - c < tau * c / N, tau = _CRAWL_TAU =
    0.005. That is a fall of the total cost below tau * sigma2_hat over the
    last W iterations, sigma2_hat = c the current mean cost; a descent whose
    cost rose over them stops too. Both sides scale as the cost, so scaling
    y and the amplitudes by 2^k does not move the stop.

    ``margins``, if given, guards a drift from the crawl stop: a callable
    (omegas, alphas) -> ratios that fall below 1 at an order decision, such
    as order_control.decision_margins. Where the crawl test holds, the pass
    goes on if one ratio above 1 would reach 1 within the pass's remaining
    ``max_iter`` budget at its mean rate since the pass began; the crawl
    test is then next asked W iterations later.

    Returns (final state, CostTrace). The momentum buffer starts from the
    state's ``velocity``, or from zero for a state at rest; only a descent
    from rest is held to ``min_iter``. If the cost rises for 20 consecutive
    iterations, both learning rates are halved, the buffer is zeroed, and
    the best state seen so far is restored before continuing. The final
    state is the last iterate, carrying the buffer as its ``velocity``, so
    training it again continues the descent bit for bit; or, when the last
    iterate costs more than the starting state, the best state seen, at
    rest (an oscillation that never rises 20 times in a row can end
    there). From N = _FACTORED_MIN_N = 128
    samples the model and gradient sums go through _FactoredKernel, below
    it through _Kernel. The kernel's gradient sums already carry the
    amplitudes, and they sit beside the momentum in the kernel's block, so
    one multiply scales the sums and decays the momentum; the returned
    ``velocity`` is a copy of that momentum.
    """
    y = as_samples(observed)
    n_samples = y.size
    m = state.m_nodes
    if m == 0:
        c0 = float(np.vdot(y, y).real) / n_samples
        return state, CostTrace(np.array([c0]), 0, 0, "tol")

    cfg = (TrainConfig() if cfg is None else cfg).resolve(n_samples)
    kernel = (_FactoredKernel if n_samples >= _FACTORED_MIN_N else _Kernel)(y, m)
    # Parameters, momentum, rates and steps share one flat float layout:
    # the complex slots [alpha; j*omega] as (re, im) pairs, each frequency
    # in the imaginary part of its slot, the view the kernel reads. Three
    # parameter buffers rotate: the current one, the best one (often the
    # same) and a free one that takes the next iterate, so keeping the best
    # state copies nothing. The step is the fourth row of their block.
    slots = np.zeros((4, 4 * m))
    bufs = []
    for p in slots[:3]:
        c_slots = p.view(np.complex128)
        bufs.append((p, c_slots[:m], c_slots[m:].imag))
    step = slots[3]
    p, a, w = bufs[0]
    a[:] = state.alphas
    w[:] = state.omegas
    base_rates, factors = _step_vectors(cfg, m)
    rates = base_rates.copy()  # a halving scales them
    # The kernel's block holds the sums s as (re, im) pairs, then the
    # momentum d: one multiply by factors = [scale | lambda] scales the
    # sums and decays the momentum.
    block = kernel.block
    s_pairs, d = block[: 4 * m], block[4 * m :]
    if state.velocity is not None:
        d[:] = state.velocity

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
    gradient_sums = kernel.gradient_sums
    residual = kernel.residual
    multiply = np.multiply
    add = np.add
    subtract = np.subtract
    vdot = np.vdot
    isfinite = math.isfinite
    append = trace.append
    eps_tol = cfg.eps_tol
    min_iter = cfg.min_iter if state.velocity is None else 0
    hits_to_stop = _CONSEC_HITS
    patience = _SAFEGUARD_PATIENCE
    window = next_crawl = _CRAWL_WINDOW
    crawl = _CRAWL_TAU / n_samples
    start_margins = None

    for t in range(1, cfg.max_iter + 1):
        gradient_sums(a)
        multiply(block, factors, block)
        add(d, s_pairs, d)
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
        if t >= next_crawl and trace[t - window] - c < crawl * c:
            if margins is not None and start_margins is None:
                start_margins = margins(state.omegas, state.alphas)
            if margins is None or not _drifting(start_margins, margins(w, a), t, cfg.max_iter - t):
                exit_reason = "crawl"
                break
            next_crawl = t + window
        cbar = c

    if c > trace[0]:
        _, a, w = bufs[best]
        velocity = None
    else:
        velocity = d.copy()  # not a view of the kernel's block
    # Every iterate's cost was checked finite, and so are its parameters.
    out = NetworkState._of(w.copy(), a.copy(), velocity)
    return out, CostTrace(np.asarray(trace), t, halvings, exit_reason)


def _projected_fit(omegas: np.ndarray, y: np.ndarray):
    """(cost, alphas, A, basis, residual) of the least-squares amplitudes at ``omegas``.

    A = atom_table(omegas, N) = Q R by QR, and R = U S V^H by SVD, so the
    columns of Q U are an orthonormal basis of A's range. Singular values
    below 1e-12 of the largest count as zero, as in ls_amplitudes: the
    amplitudes are the minimum-norm fit and ``basis`` keeps the columns of
    the other singular values, so a rank-deficient A (near-duplicate
    nodes) costs nothing more. The residual is y minus its projection.
    """
    A = atom_table(omegas, y.size)
    q, r = np.linalg.qr(A)
    u, s, vh = np.linalg.svd(r)
    keep = s > 1e-12 * s[0]
    basis = q @ u[:, keep]
    c = basis.conj().T @ y
    alphas = vh[keep].conj().T @ (c / s[keep])
    residual = y - basis @ c
    return float(np.vdot(residual, residual).real), alphas, A, basis, residual


def polish_frequencies(observed, state: NetworkState) -> tuple[NetworkState, CostTrace]:
    """Least-squares fit of the M frequencies, with the amplitudes solved out.

    Variable projection (Golub & Pereyra 1973): at frequencies omega the
    amplitudes are the least-squares fit (_projected_fit), so the cost is
    the residual of y off the range of A. Levenberg-Marquardt steps the
    frequencies along Kaufman's Jacobian (1975) of that residual,
    -P (j n A) diag(alpha) with P the projector off A's range, on the
    normal equations damped by their own diagonal. Only a step that lowers
    the cost is taken. The damping follows Nielsen's rule (1999): a taken
    step scales it by max(1/3, 1 - (2 rho - 1)^3), rho the ratio of the
    cost's fall to the fall the linear model predicted, and each refused
    step in a row raises it by a factor that doubles. No step moves
    the frequencies by more than one bin, 2 pi / N, in all. The loop stops
    at a step below 1e-12 rad ("tol"), a zero cost ("exact_fit") or after
    _POLISH_STEPS = 20 cost evaluations ("max_iter").

    The fit runs on y * 2^-k, k the binary exponent of max |y|, so no
    product overflows at any signal scale; the amplitudes are scaled back
    exactly. The state's amplitudes are not read. Returns the polished
    state, wrapped and sorted, and a CostTrace of the mean cost C/N before
    each evaluation and after the last, never rising, so the result never
    costs more than the start's frequencies with their least-squares
    amplitudes.
    """
    y = np.ascontiguousarray(as_samples(observed))
    n_samples = y.size
    if state.m_nodes == 0:
        c0 = float(np.vdot(y, y).real) / n_samples
        return state, CostTrace(np.array([c0]), 0, 0, "tol")
    k = int(np.frexp(np.max(np.abs(y)))[1])
    ys = np.ldexp(y.view(float), -k).view(np.complex128)
    jn = 1j * np.arange(n_samples)
    max_step = TWO_PI / n_samples

    w = state.omegas.copy()
    fit = _projected_fit(w, ys)
    costs = [fit[0]]
    damping = _POLISH_DAMPING
    raise_by = 2.0
    exit_reason = "max_iter"
    evaluations = 0
    fresh = True
    while evaluations < _POLISH_STEPS:
        c, alphas, A, basis, residual = fit
        if c == 0.0:
            exit_reason = "exact_fit"
            break
        if fresh:
            # Kaufman's Jacobian is -P D; its gradient term -Re(D^H P r)
            # is -Re(D^H r), since r is already off A's range.
            D = jn[:, None] * A * alphas
            PD = D - basis @ (basis.conj().T @ D)
            h = (PD.conj().T @ PD).real
            g = (D.conj().T @ residual).real
            diag = np.diagonal(h)
            if not diag.max() > 0.0:
                exit_reason = "tol"
                break
            diag = np.maximum(diag, 1e-12 * diag.max())
            fresh = False
        # Damping lost to rounding can leave the system singular (exactly
        # duplicated nodes); raising it as for a refused step cures that.
        try:
            step = np.linalg.solve(h + np.diag(damping * diag), g)
            size = float(np.max(np.abs(step)))
        except np.linalg.LinAlgError:
            size = math.inf
        if not size < math.inf:
            damping *= raise_by
            raise_by *= 2.0
            continue
        if size <= _POLISH_TOL:
            exit_reason = "tol"
            break
        if size > max_step:
            step *= max_step / size
        trial = _projected_fit(w + step, ys)
        evaluations += 1
        if trial[0] < c:
            # The linear model's fall, ||r||^2 - ||r - P D step||^2, is
            # positive but for rounding; from rho = 1 on the rule gives 1/3.
            predicted = float(2.0 * (step @ g) - step @ h @ step)
            rho = min((c - trial[0]) / predicted, 1.0) if predicted > 0.0 else 1.0
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            raise_by = 2.0
            w = w + step
            fit = trial
            fresh = True
        else:
            damping *= raise_by
            raise_by *= 2.0
        costs.append(fit[0])

    alphas = np.ldexp(fit[1].view(float), k).view(np.complex128)
    w = wrap_angle(w)
    order = np.argsort(w, kind="stable")
    trace = np.ldexp(np.asarray(costs), 2 * k) / n_samples
    return NetworkState(w[order], alphas[order]), CostTrace(trace, evaluations, 0, exit_reason)

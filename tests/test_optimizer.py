"""Optimizer: gradients against finite differences, training behavior."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from linespec import optimizer, pipeline
from linespec.errors import InvalidDimension, NumericalDivergence
from linespec.experiments import _draw_signal
from linespec.fft_init import initialize
from linespec.optimizer import (
    CostTrace,
    NetworkState,
    TrainConfig,
    _FactoredKernel,
    _Kernel,
    cost,
    forward,
    grad_alpha,
    grad_omega,
    polish_frequencies,
    train_inner,
)
from linespec.signal_model import TWO_PI, atom, design_matrix


def _numeric_cost(y, omegas, alphas):
    A = design_matrix(omegas, y.size)
    r = y - A @ alphas
    return float(np.vdot(r, r).real)


def _fd_oracle(y, omegas, alphas, h=1e-6):
    """Independent central-difference gradients of the squared error.

    The amplitude gradient follows the conjugate convention
    0.5 * (dC/dRe + j * dC/dIm).
    """
    m = len(omegas)
    ga = np.zeros(m, dtype=complex)
    gw = np.zeros(m)
    for i in range(m):
        for unit in (1.0, 1.0j):
            ap = alphas.copy()
            am = alphas.copy()
            ap[i] += unit * h
            am[i] -= unit * h
            d = (_numeric_cost(y, omegas, ap) - _numeric_cost(y, omegas, am)) / (2 * h)
            ga[i] += 0.5 * d * (1.0j if unit == 1.0j else 1.0)
        wp = omegas.copy()
        wm = omegas.copy()
        wp[i] += h
        wm[i] -= h
        gw[i] = (_numeric_cost(y, wp, alphas) - _numeric_cost(y, wm, alphas)) / (2 * h)
    return ga, gw


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(max(2, m), 17))
        omegas = rng.uniform(0, TWO_PI, m)
        alphas = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        state = NetworkState(omegas, alphas)
        ga, gw = grad_alpha(state, y), grad_omega(state, y)
        fa, fw = _fd_oracle(y, omegas, alphas)
        scale_a = max(np.max(np.abs(fa)), 1e-12)
        scale_w = max(np.max(np.abs(fw)), 1e-12)
        assert np.max(np.abs(ga - fa)) / scale_a < 1e-6
        assert np.max(np.abs(gw - fw)) / scale_w < 1e-6


def test_gradient_closed_forms_on_single_node():
    # one node, alpha gradient is a^H (a*alpha - y)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    w, alpha = 1.3, 0.7 - 0.2j
    state = NetworkState([w], [alpha])
    a = atom(w, 8)
    expected = np.vdot(a, alpha * a - y)
    assert grad_alpha(state, y)[0] == pytest.approx(expected, rel=1e-12)


def test_zero_residual_means_zero_gradients():
    w = TWO_PI * 0.2
    alpha = 2.0 + 1j
    y = alpha * atom(w, 12)
    state = NetworkState([w], [alpha])
    assert np.allclose(grad_alpha(state, y), 0.0, atol=1e-12)
    assert np.allclose(grad_omega(state, y), 0.0, atol=1e-10)


def test_forward_is_design_times_amplitudes():
    state = NetworkState([0.5, 1.5], [1.0, 2.0j])
    out = forward(state, 10)
    expected = design_matrix([0.5, 1.5], 10) @ np.array([1.0, 2.0j])
    np.testing.assert_allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 31, 32, 33, 512, 4096])
def test_training_kernel_matches_direct_design_matrix(n):
    # The kernel builds A by angle addition; it must agree with the direct
    # exp of design_matrix, including frequencies below 0 and above 2*pi.
    rng = np.random.default_rng(n)
    omegas = np.array([-2.5, -0.1, 0.0, 1.3, TWO_PI - 1e-3, TWO_PI + 0.7, 3.0 * TWO_PI + 2.2])
    alphas = rng.standard_normal(omegas.size) + 1j * rng.standard_normal(omegas.size)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    kernel = _Kernel(y, omegas.size)
    r = kernel.residual(omegas, alphas)
    A = kernel.A
    D = design_matrix(omegas, n)
    tol = 1e-12 * max(n, 1)
    assert A.shape == (n, omegas.size)
    assert A.flags.c_contiguous
    np.testing.assert_allclose(A, D, rtol=0, atol=tol)
    np.testing.assert_allclose(r, D @ alphas - y, rtol=0, atol=tol)


def _direct_gradients(omegas, alphas, y):
    """r = A alpha - y and its two gradients, with A = design_matrix."""
    D = design_matrix(omegas, y.size)
    r = D @ alphas - y
    n = np.arange(y.size)
    return r, D.conj().T @ r, -2.0 * np.imag(alphas * (D.T @ (n * np.conj(r))))


@pytest.mark.parametrize("m", [1, 3, 8, 90])
@pytest.mark.parametrize("n", [128, 144, 255, 256, 257, 300, 512, 529, 4096])
def test_factored_kernel_agrees_with_the_table_kernel_and_the_direct_exp(n, m):
    # 144, 256, 529 and 4096 split exactly (B * Q = N), 128, 255, 257, 300
    # and 512 into a zero-padded grid; frequencies from -3 to 3 * 2 * pi.
    rng = np.random.default_rng(1000 * n + m)
    omegas = rng.uniform(-3.0, 3.0 * TWO_PI, m)
    alphas = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    results = []
    for cls in (_FactoredKernel, _Kernel):
        kernel = cls(y, m)
        r = kernel.residual(omegas, alphas).copy()
        s = kernel.gradient_sums(alphas)
        results.append((r, np.conj(s[0]), -2.0 * np.imag(s[1])))
    results.append(_direct_gradients(omegas, alphas, y))
    # Each sum is bounded by the sum of its terms' moduli: ||r||_1 for the
    # amplitude gradient, 2 |alpha| sum n |r_n| for the frequency gradient.
    r_abs = np.abs(results[2][0])
    scales = (1.0, r_abs.sum(), 2.0 * np.abs(alphas) * (np.arange(n) * r_abs).sum())
    tol = 1e-12 * n
    (r, grad_a, grad_w), *refs = results
    for r_ref, ga_ref, gw_ref in refs:
        assert np.max(np.abs(r - r_ref)) <= tol * scales[0]
        assert np.max(np.abs(grad_a - ga_ref)) <= tol * scales[1]
        assert np.all(np.abs(grad_w - gw_ref) <= tol * scales[2])


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="needs an extended-precision long double"
)
@pytest.mark.parametrize("m", [1, 8, 90])
@pytest.mark.parametrize("n", [128, 144, 255, 256, 257, 512, 529, 4096])
def test_factored_kernel_powers_stay_within_their_rounding_bound(n, m):
    # L = exp(j*s*w) and H = exp(j*q*B*w) are running powers of z1 = exp(j*w)
    # and zB = exp(j*fl(B*w)). exp gives each part within one ulp, so
    # |z1 - exp(j*w)| <= 2u, and |zB - exp(j*B*w)| <= d + 2u with
    # d = |fl(B*w) - B*w|; each complex multiply adds at most sqrt(5)*u
    # relative error (Brent, Percival and Zimmermann, 2007; the first, by
    # one, adds none). So the s-th power is off by at most
    # g = expm1(s*(2 + sqrt(5))*u), about s*(2 + sqrt(5))*u, and the q-th
    # by g + q*d*(1 + g), about q*d + q*(2 + sqrt(5))*u. The
    # reference exp runs in long double on the same float w; its phase
    # n*w is exact up to n < 2**11 and rounded once above, so its own error
    # is at most (|n*w| + 2) long-double units.
    rng = np.random.default_rng(3000 * n + m)
    omegas = rng.uniform(-3.0, 3.0 * TWO_PI, m)
    kernel = _FactoredKernel(np.zeros(n, dtype=np.complex128), m)
    kernel.residual(omegas, np.zeros(m, dtype=np.complex128))
    L, H = kernel._l, kernel._h
    b, q = L.shape[0], H.shape[0]
    assert (b, q) == (math.isqrt(n - 1) + 1, -(-n // b))
    u = np.finfo(float).eps / 2
    u_ext = float(np.finfo(np.longdouble).eps / 2)
    per_step = (2.0 + math.sqrt(5.0)) * u
    w = omegas.astype(np.longdouble)
    d = np.abs(np.float64(b) * omegas - b * w).astype(float)
    for powers, steps, phase_error in ((L, np.arange(b), 0.0), (H, b * np.arange(q), d)):
        k = np.arange(powers.shape[0])[:, None]
        exact = np.exp(1j * (steps[:, None] * w))
        err = np.abs(powers.astype(np.clongdouble) - exact).astype(float)
        ref_err = u_ext * (np.abs(steps[:, None] * omegas) + 2.0)
        grown = np.expm1(k * per_step)
        bound = grown + k * phase_error * (1.0 + grown) + ref_err
        assert np.all(err <= bound), np.max(err / bound)


def _counting(cls, made: list):
    class Counting(cls):
        def __init__(self, y, m_nodes):
            made.append((cls.__name__, y.size))
            super().__init__(y, m_nodes)

    return Counting


def test_train_inner_picks_the_kernel_by_signal_length(monkeypatch):
    made = []
    for name in ("_Kernel", "_FactoredKernel"):
        monkeypatch.setattr(optimizer, name, _counting(getattr(optimizer, name), made))
    threshold = optimizer._FACTORED_MIN_N
    assert threshold == 128
    for n in (threshold - 1, threshold):
        train_inner(_noisy_tones(n, [1.0], 0), NetworkState([1.01], [1.0]), TrainConfig(max_iter=3))
    assert made == [("_Kernel", 127), ("_FactoredKernel", 128)]
    # The gradient helpers and forward keep the table kernel at every N.
    made.clear()
    state = NetworkState([1.0], [1.0])
    forward(state, 512)
    grad_alpha(state, _noisy_tones(512, [1.0], 0))
    assert made == [("_Kernel", 512), ("_Kernel", 512)]


def test_training_allocates_no_per_iteration_design_matrix():
    # The kernel's buffers hold one N x M product; a temporary of that size
    # made in each iteration (A.conj(), a fresh A beside the old one) would
    # lift the traced peak above the bound.
    n, m = 4096, 8
    rng = np.random.default_rng(99)
    freqs = np.sort(rng.uniform(0.0, TWO_PI, m))
    alphas = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    state = NetworkState(freqs, alphas)
    cfg = TrainConfig(min_iter=100, max_iter=100)
    tracemalloc.start()
    try:
        _, trace = train_inner(y, state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.iterations_run == 100
    assert peak < 2.5 * n * m * 16, f"peak {peak / (n * m * 16):.2f} x N*M*16 bytes"


def test_cost_hand_value():
    y = np.array([1.0 + 0j, 0.0])
    model = np.array([0.0j, 1.0 + 1.0j])
    # residual [1, -1-j]: squared norm 1 + 2 = 3
    assert cost(y, model) == pytest.approx(3.0, rel=1e-15)


def test_network_state_validation():
    with pytest.raises(InvalidDimension):
        NetworkState(np.zeros(2), np.zeros(3, dtype=complex))
    with pytest.raises(InvalidDimension, match="1-d"):
        NetworkState([1.0, 2.0], [[1.0, 2.0]])
    with pytest.raises(NumericalDivergence):
        NetworkState([np.nan], [1.0])
    with pytest.raises(NumericalDivergence):
        NetworkState([1.0], [complex("inf")])
    with pytest.raises(NumericalDivergence):
        NetworkState([1.0, 2.0], np.array([1.0, 2.0, complex(3.0, np.nan), 4.0])[::2])
    # velocity is set only by training (NetworkState._of), never by a caller.
    with pytest.raises(TypeError, match="velocity"):
        NetworkState([1.0, 2.0], [1.0, 2.0], velocity=np.zeros(8))
    with pytest.raises(TypeError):
        NetworkState([1.0, 2.0], [1.0, 2.0], np.zeros(8))


def test_network_state_accepts_strided_amplitudes():
    alphas = (np.arange(8) + 1j)[::2]
    state = NetworkState(np.linspace(0.1, 1, 4), alphas)
    np.testing.assert_array_equal(state.alphas, alphas)


def test_train_config_validation():
    with pytest.raises(InvalidDimension):
        TrainConfig(momentum=1.0)
    with pytest.raises(InvalidDimension):
        TrainConfig(eps_tol=0.0)
    with pytest.raises(InvalidDimension):
        TrainConfig(gamma_alpha=-1.0)
    with pytest.raises(InvalidDimension):
        TrainConfig(max_iter=0)
    with pytest.raises(InvalidDimension):
        TrainConfig(min_iter=-1)


@pytest.mark.parametrize("field", ["max_iter", "min_iter"])
@pytest.mark.parametrize("value", [2.5, 3.0, "30", None])
def test_train_config_takes_integer_iteration_limits_only(field, value):
    with pytest.raises(InvalidDimension, match=field):
        TrainConfig(**{field: value})
    limit = getattr(TrainConfig(**{field: np.int64(40)}), field)
    assert type(limit) is int and limit == 40


@pytest.mark.parametrize("field", ["gamma_alpha", "gamma_omega"])
@pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0])
def test_train_config_rejects_rates_that_are_not_finite_and_positive(field, rate):
    with pytest.raises(InvalidDimension, match=field):
        TrainConfig(**{field: rate})


def test_resolve_fills_documented_default_rates():
    cfg = TrainConfig().resolve(16)
    assert cfg.gamma_alpha == pytest.approx(0.5 / 16)
    sum_n2 = sum(k * k for k in range(16))
    assert cfg.gamma_omega == pytest.approx(0.5 / sum_n2)


def test_resolve_keeps_explicit_rates():
    cfg = TrainConfig(gamma_alpha=0.01, gamma_omega=1e-5).resolve(64)
    assert cfg.gamma_alpha == 0.01
    assert cfg.gamma_omega == 1e-5


def test_train_inner_two_iterations_match_hand_steps():
    # Two momentum steps from zeroed buffers, written out by hand:
    # d <- lam*d + (1-lam)*g, then w -= gamma*d, with the gradients of
    # each iterate taken from the closed forms a^H r and 2 Im{alpha a^T(n conj(-r))}.
    n = np.arange(8)
    y = (1.5 - 0.5j) * atom(0.8, 8)
    w, alpha = 0.7, 1.0 + 0.2j
    cfg = TrainConfig(gamma_alpha=0.05, gamma_omega=0.002, momentum=0.9, max_iter=2, eps_tol=1e-30)
    dw, da = 0.0, 0.0j
    for _ in range(2):
        a = np.exp(1j * w * n)
        r = alpha * a - y
        ga = np.vdot(a, r)
        gw = 2.0 * np.imag(alpha * np.sum(a * n * np.conj(-r)))
        da = 0.9 * da + 0.1 * ga
        dw = 0.9 * dw + 0.1 * gw
        alpha, w = alpha - 0.05 * da, w - 0.002 * dw
    out, trace = train_inner(y, NetworkState([0.7], [1.0 + 0.2j]), cfg)
    assert trace.iterations_run == 2
    assert out.omegas[0] == pytest.approx(w, rel=1e-12)
    assert out.alphas[0] == pytest.approx(alpha, rel=1e-12)
    assert trace.mean_costs[-1] == pytest.approx(cost(y, alpha * atom(w, 8)) / 8, rel=1e-12)


# Reference: the training loop as it stood before the buffered kernel,
# verbatim apart from its return value (a tuple in place of CostTrace) and
# the choice of formulas by N below. The kernels must reproduce its
# trajectories bit for bit.
def _ref_phase_steps(n_samples: int):
    b = math.isqrt(n_samples - 1) + 1
    return np.concatenate((np.arange(b), np.arange(0, n_samples, b))), b


def _ref_residual(omegas: np.ndarray, alphas: np.ndarray, y: np.ndarray, steps):
    k, b = steps
    t = np.exp(np.outer(k, 1j * omegas))
    A = (t[b:, None, :] * t[None, :b, :]).reshape((k.size - b) * b, omegas.size)[: y.size]
    r = A @ alphas
    r -= y
    return A, r


def _ref_gradients(A: np.ndarray, r: np.ndarray, alphas: np.ndarray, n: np.ndarray):
    return A.conj().T @ r, 2.0 * np.imag(alphas * (A.T @ (n * np.conj(-r))))


# The same loop at N >= optimizer._FACTORED_MIN_N, where training applies A
# through its angle-addition factors H = exp(j*q*B*w) (Q x M) and
# L = exp(j*s*w) (B x M), built as running powers of the two exponentials
# exp(j*w) and exp(j*fl(B*w)): the model is (H * alpha) @ L^T on the
# zero-padded Q x B grid, and both gradient sums are one product of the
# stacked [conj(r); n * conj(r)] with L, times the stacked [H; H * alpha]
# and summed over q, so the amplitudes enter the frequency sum per q.
def _ref_factored_residual(omegas: np.ndarray, alphas: np.ndarray, y: np.ndarray, steps):
    k, b = steps
    z = np.exp(np.outer([1.0, b], 1j * omegas))
    rows = np.concatenate((np.ones((2, 1, omegas.size)), np.repeat(z[:, None], b - 1, axis=1)), axis=1)
    powers = np.cumprod(rows, axis=1)
    H, L = powers[1, : k.size - b], powers[0]
    r = ((H * alphas) @ L.T).reshape(-1)[: y.size] - y
    return (H, L), r


def _ref_factored_gradients(HL, r: np.ndarray, alphas: np.ndarray, n: np.ndarray):
    H, L = HL
    q, b = H.shape[0], L.shape[0]
    R = np.zeros((2, q * b), dtype=np.complex128)
    R[0, : r.size] = np.conj(r)
    R[1, : r.size] = n * np.conj(r)
    s = ((R.reshape(2 * q, b) @ L).reshape(2, q, -1) * np.stack((H, H * alphas))).sum(axis=1)
    return np.conj(s[0]), -2.0 * np.imag(s[1])


def _ref_train_inner(observed, state: NetworkState, cfg: TrainConfig | None = None):
    y = np.asarray(observed, dtype=np.complex128)
    n_samples = y.size
    if cfg is None:
        cfg = TrainConfig()
    cfg = cfg.resolve(n_samples)
    m = state.m_nodes
    if n_samples >= optimizer._FACTORED_MIN_N:
        residual, gradients = _ref_factored_residual, _ref_factored_gradients
    else:
        residual, gradients = _ref_residual, _ref_gradients

    n = np.arange(n_samples)
    steps = _ref_phase_steps(n_samples)
    w = state.omegas.copy()
    a = state.alphas.copy()
    dw = np.zeros(m)
    da = np.zeros(m, dtype=np.complex128)
    rate_a = cfg.gamma_alpha
    rate_w = cfg.gamma_omega
    lam = cfg.momentum

    A, r = residual(w, a, y, steps)
    cbar = float(np.vdot(r, r).real) / n_samples
    trace = [cbar]
    best_c, best_w, best_a = cbar, w.copy(), a.copy()
    rising = 0
    hits = 0
    iterations = 0
    exit_reason = "max_iter"

    for t in range(1, cfg.max_iter + 1):
        iterations = t
        ga, gw = gradients(A, r, a, n)
        da = lam * da + (1.0 - lam) * ga
        dw = lam * dw + (1.0 - lam) * gw
        a = a - rate_a * da
        w = w - rate_w * dw
        A, r = residual(w, a, y, steps)
        c = float(np.vdot(r, r).real) / n_samples
        trace.append(c)
        if not math.isfinite(c):
            raise NumericalDivergence("training cost became non-finite")
        if c < best_c:
            best_c, best_w, best_a = c, w.copy(), a.copy()
        if c > cbar:
            rising += 1
            if rising >= optimizer._SAFEGUARD_PATIENCE:
                rate_a *= 0.5
                rate_w *= 0.5
                da[:] = 0.0
                dw[:] = 0.0
                w, a = best_w.copy(), best_a.copy()
                A, r = residual(w, a, y, steps)
                c = best_c
                rising = 0
        else:
            rising = 0
        if c == 0.0:
            exit_reason = "exact_fit"
            break
        if t > cfg.min_iter and abs(c - cbar) < cfg.eps_tol:
            hits += 1
            if hits >= optimizer._CONSEC_HITS:
                exit_reason = "tol"
                break
        else:
            hits = 0
        # The crawl test: the total cost fell by less than tau * c over the
        # last W iterations, c the current mean cost.
        window = optimizer._CRAWL_WINDOW
        if t >= window and trace[t - window] - c < optimizer._CRAWL_TAU / n_samples * c:
            exit_reason = "crawl"
            break
        cbar = c

    # A call never ends above its start: past it, the best state is returned.
    if c > trace[0]:
        w, a = best_w, best_a
    return w, a, np.asarray(trace), iterations, exit_reason


def _noisy_tones(n, omegas, seed):
    rng = np.random.default_rng(seed)
    x = design_matrix(omegas, n) @ np.exp(1j * rng.uniform(0, TWO_PI, len(omegas)))
    return x + 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


_BIT_PIN_CASES = {
    # N = 1: a one-row design matrix, and the frequency gradient is zero
    "n1": (np.array([0.4 - 1.1j]), [0.7], [0.2 + 0.1j], TrainConfig(eps_tol=1e-14)),
    "m1": (_noisy_tones(24, [1.1], 1), [1.0], [0.8 + 0.1j], TrainConfig(eps_tol=1e-12)),
    # every step overshoots; the safeguard halves the rates and restores
    "safeguard": (
        _noisy_tones(16, [1.0, 2.5], 5),
        [1.0, 1.1],
        [10.0, -10.0],
        TrainConfig(gamma_alpha=1e3, gamma_omega=1e3, max_iter=2000),
    ),
    # exp(0) = 1 exactly, so the residual is exactly zero
    "exact_fit": (np.full(12, 1.5 - 0.25j), [0.0], [1.5 - 0.25j], TrainConfig()),
    "min_iter_consec_hits": (
        _noisy_tones(32, [0.9, 1.6, 4.0], 3),
        [0.85, 1.65, 4.1],
        [1.0, 1.0j, -1.0],
        TrainConfig(eps_tol=1e-5),
    ),
    "wide": (
        _noisy_tones(512, np.linspace(0.3, 5.9, 8), 8),
        np.linspace(0.31, 5.88, 8),
        np.ones(8, dtype=complex),
        TrainConfig(),
    ),
    # the table kernel one sample below the factored kernel's smallest N
    "tones3_n127": (
        _noisy_tones(127, [0.7, 2.1, 4.4], 127),
        [0.71, 2.08, 4.43],
        np.ones(3, dtype=complex),
        TrainConfig(eps_tol=1e-7),
    ),
    # the factored kernel at its smallest N and a small M, where it is
    # slowest against the table
    "tones3_n128": (
        _noisy_tones(128, [0.7, 2.1, 4.4], 128),
        [0.71, 2.08, 4.43],
        np.ones(3, dtype=complex),
        TrainConfig(eps_tol=1e-7),
    ),
    # the shape of the cluster10_n128 benchmark: eleven nodes 0.8 bin apart
    "cluster_n128": (
        _noisy_tones(128, 1.0 + TWO_PI * 0.8 * np.arange(11) / 128, 11),
        1.004 + TWO_PI * 0.8 * np.arange(11) / 128,
        np.ones(11, dtype=complex),
        TrainConfig(eps_tol=1e-7),
    ),
    # sixteen nodes about eight tones, as tones8_n512's first passes train
    # them; at N = 512 training applies A through its factors
    "tones8_n512": (
        _noisy_tones(512, np.linspace(0.3, 5.9, 8), 12),
        np.sort(np.concatenate((np.linspace(0.3, 5.9, 8) + 0.004, np.linspace(0.3, 5.9, 8) + 0.02))),
        np.full(16, 0.5 + 0j),
        TrainConfig(eps_tol=1e-6),
    ),
    # the factored kernel on an exact 16 x 16 split, through seven safeguard
    # restores
    "safeguard_n256": (
        _noisy_tones(256, [1.0, 2.5], 6),
        [1.0, 1.1],
        [10.0, -10.0],
        TrainConfig(gamma_alpha=10.0, gamma_omega=0.01, max_iter=2000),
    ),
    # with a safeguard patience of 3: four halvings, each restoring a best
    # state at least two iterations old, and new best states in between
    # (see the rotation test below)
    "rotation": (
        _noisy_tones(24, [0.8, 2.0, 2.4], 2),
        [0.75, 2.05, 2.3],
        [1.0, 1.0, 1.0],
        TrainConfig(gamma_alpha=1.0, gamma_omega=0.02, max_iter=3000, eps_tol=1e-12),
    ),
}
# Cases that need a shorter safeguard patience than the default 20.
_PATIENCE = {"rotation": 3}


@pytest.mark.parametrize("case", sorted(_BIT_PIN_CASES))
def test_train_inner_reproduces_the_reference_bit_for_bit(case, monkeypatch):
    y, w0, a0, cfg = _BIT_PIN_CASES[case]
    if case in _PATIENCE:
        monkeypatch.setattr(optimizer, "_SAFEGUARD_PATIENCE", _PATIENCE[case])
    state = NetworkState(w0, a0)
    w_in, a_in = state.omegas.copy(), state.alphas.copy()
    out, trace = train_inner(y, state, cfg)
    w_ref, a_ref, costs_ref, iters_ref, exit_ref = _ref_train_inner(y, state, cfg)
    assert out.omegas.tobytes() == w_ref.tobytes()
    assert out.alphas.tobytes() == a_ref.tobytes()
    assert trace.mean_costs.tobytes() == costs_ref.tobytes()
    assert (trace.iterations_run, trace.exit_reason) == (iters_ref, exit_ref)
    assert state.omegas.tobytes() == w_in.tobytes()
    assert state.alphas.tobytes() == a_in.tobytes()
    assert out.omegas.flags.owndata and out.alphas.flags.owndata
    if case.startswith("safeguard"):
        assert trace.halvings > 0
    if case == "exact_fit":
        assert trace.exit_reason == "exact_fit"


def _restores(costs: np.ndarray, patience: int) -> list[tuple[int, int]]:
    """(iteration, iteration of the best state) of every safeguard restore.

    Replays the loop's bookkeeping on its cost trace: the best cost is the
    running minimum of the trace, and a restore replaces the rising cost
    by the best one.
    """
    cbar = best_c = costs[0]
    best_t = rising = 0
    events = []
    for t in range(1, costs.size):
        c = costs[t]
        if c < best_c:
            best_c, best_t = c, t
        if c > cbar:
            rising += 1
            if rising >= patience:
                events.append((t, best_t))
                c = best_c
                rising = 0
        else:
            rising = 0
        cbar = c
    return events


def test_rotation_case_restores_old_and_moving_best_states(monkeypatch):
    # The loop keeps three parameter buffers. A restore whose best state is
    # at least two iterations old finds it in neither the current buffer
    # nor the one written before it; a best state that moves between
    # restores makes the rotation skip a different buffer each time.
    y, w0, a0, cfg = _BIT_PIN_CASES["rotation"]
    monkeypatch.setattr(optimizer, "_SAFEGUARD_PATIENCE", _PATIENCE["rotation"])
    _, trace = train_inner(y, NetworkState(w0, a0), cfg)
    events = _restores(trace.mean_costs, _PATIENCE["rotation"])
    assert len(events) == trace.halvings >= 2
    assert all(best_t <= t - 2 for t, best_t in events)
    assert len({best_t for _, best_t in events}) >= 2


def _parent_gradients(A: np.ndarray, r: np.ndarray, alphas: np.ndarray):
    """The buffered kernel's gradient formulas before the scaled write, verbatim."""
    m = alphas.size
    rc = np.empty_like(r)
    s = np.empty(m, dtype=np.complex128)
    grad = np.empty(3 * m)
    grad_a = grad[: 2 * m].view(np.complex128)
    grad_w = grad[2 * m :]
    rc = np.conjugate(r, out=rc)
    np.matmul(A.T, rc, out=s)
    np.conjugate(s, out=grad_a)
    np.multiply(np.arange(r.size, dtype=np.complex128), rc, out=rc)
    np.matmul(A.T, rc, out=s)
    np.multiply(alphas, s, out=s)
    np.multiply(s.imag, -2.0, out=grad_w)
    return grad_a, grad_w


@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (2, 1), (24, 1), (32, 4), (128, 11), (512, 9)])
def test_gradients_keep_the_bits_of_the_parent_formulas(n, m):
    rng = np.random.default_rng(10 * n + m)
    for _ in range(5):
        state = NetworkState(
            rng.uniform(-1.0, TWO_PI + 1.0, m), rng.standard_normal(m) + 1j * rng.standard_normal(m)
        )
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kernel = _Kernel(y, m)
        r = kernel.residual(state.omegas, state.alphas).copy()
        ref_a, ref_w = _parent_gradients(kernel.A, r, state.alphas)
        assert grad_alpha(state, y).tobytes() == ref_a.tobytes()
        assert grad_omega(state, y).tobytes() == ref_w.tobytes()


_EXIT_CASES = {
    "tol": (_noisy_tones(24, [1.1], 1), [1.0], [0.8 + 0.1j], TrainConfig(eps_tol=1e-8)),
    "max_iter": (
        _noisy_tones(24, [1.1], 1),
        [1.0],
        [0.8 + 0.1j],
        TrainConfig(eps_tol=1e-30, max_iter=40),
    ),
    "exact_fit": _BIT_PIN_CASES["exact_fit"],
}


@pytest.mark.parametrize("reason", sorted(_EXIT_CASES))
def test_exit_reason_names_the_stopping_rule(reason):
    y, w0, a0, cfg = _EXIT_CASES[reason]
    _, trace = train_inner(y, NetworkState(w0, a0), cfg)
    assert trace.exit_reason == reason
    assert trace.converged == (reason != "max_iter")
    assert trace.halvings == 0
    if reason == "max_iter":
        assert trace.iterations_run == cfg.max_iter


def test_oversized_rates_force_a_halving(monkeypatch):
    y, w0, a0, _ = _BIT_PIN_CASES["m1"]
    monkeypatch.setattr(optimizer, "_SAFEGUARD_PATIENCE", 5)
    cfg = TrainConfig(gamma_alpha=40.0, gamma_omega=40.0, max_iter=300)
    _, trace = train_inner(y, NetworkState(w0, a0), cfg)
    assert trace.halvings >= 1
    assert np.all(np.isfinite(trace.mean_costs))


def test_training_recovers_clean_offgrid_tone():
    n = 32
    w_true = TWO_PI * (3.5 / n)  # half a bin off the coarse grid
    alpha_true = 1.0 - 0.5j
    y = alpha_true * atom(w_true, n)
    # start half a bin away with the on-grid LS amplitude
    w0 = TWO_PI * (3.0 / n)
    a0 = np.vdot(atom(w0, n), y) / n
    state = NetworkState([w0], [a0])
    out, trace = train_inner(y, state, TrainConfig(eps_tol=1e-14, max_iter=20000))
    assert abs(out.omegas[0] - w_true) < 1e-6
    assert abs(out.alphas[0] - alpha_true) < 1e-4
    assert trace.mean_costs[-1] < 1e-10


def test_training_never_worsens_the_best_cost():
    rng = np.random.default_rng(7)
    y = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    state = NetworkState([1.0, 2.0], [0.1, 0.1])
    out, trace = train_inner(y, state, TrainConfig(max_iter=500, eps_tol=1e-12))
    final = cost(y, forward(out, 24)) / 24
    assert final <= trace.mean_costs[0] + 1e-12
    assert isinstance(trace, CostTrace)


def test_trace_starts_at_initial_cost_and_counts_iterations():
    rng = np.random.default_rng(11)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state = NetworkState([1.0], [0.0])
    _, trace = train_inner(y, state, TrainConfig(max_iter=50, eps_tol=1e-30))
    assert trace.mean_costs[0] == pytest.approx(cost(y, forward(state, 16)) / 16)
    assert trace.iterations_run == 50
    assert not trace.converged
    assert trace.mean_costs.size == 51


def test_min_iter_defers_stopping():
    # a scenario that converges almost immediately under the bare rule
    y = atom(1.0, 16)
    state = NetworkState([1.0], [np.vdot(atom(1.0, 16), y) / 16])
    _, bare = train_inner(y, state, TrainConfig(eps_tol=1e-3, min_iter=0))
    _, patient = train_inner(y, state, TrainConfig(eps_tol=1e-3, min_iter=40))
    assert bare.iterations_run < 40
    assert patient.iterations_run > 40


def test_a_pass_stops_at_the_first_three_consecutive_hits():
    # An iteration hits when it is past min_iter and |dC/N| < eps_tol. Here
    # lone and paired hits (iterations 56, 64-65 and 69-70) come first and
    # do not end the pass; the first run of three does, at 80.
    rng = np.random.default_rng(1)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    cfg = TrainConfig(eps_tol=1e-5)
    _, trace = train_inner(y, NetworkState([0.9], [0.0]), cfg)
    c = trace.mean_costs
    hit = [t > cfg.min_iter and abs(c[t] - c[t - 1]) < cfg.eps_tol for t in range(c.size)]
    first_run = next(t for t in range(2, c.size) if all(hit[t - 2 : t + 1]))
    assert (trace.exit_reason, trace.halvings) == ("tol", 0)
    assert trace.iterations_run == first_run
    assert sum(hit[: first_run - 2]) >= 3


@pytest.mark.parametrize("n", [32, 128, 256])
def test_a_call_continued_from_its_velocity_equals_one_longer_call(n):
    # 40 iterations (past min_iter), then 25 more from the returned state
    # and its velocity, against one call of 65: a tolerance no iteration
    # meets, no halving, and a falling cost, so both parts return their
    # last iterate. Both kernels (N = 32, and 128 and 256).
    y = _noisy_tones(n, [1.0, 2.2], 3)
    start = NetworkState([1.0 + 3.0 / n, 2.2 - 2.0 / n], [0.6 + 0.2j, -0.3 + 0.7j])
    cfg = TrainConfig(eps_tol=1e-300)
    whole, trace = train_inner(y, start, replace(cfg, max_iter=65))
    first, trace1 = train_inner(y, start, replace(cfg, max_iter=40))
    second, trace2 = train_inner(y, first, replace(cfg, max_iter=25))
    assert trace.halvings == trace1.halvings == trace2.halvings == 0
    assert trace2.mean_costs[-1] < trace2.mean_costs[0] < trace1.mean_costs[0]
    np.testing.assert_array_equal(second.omegas, whole.omegas)
    np.testing.assert_array_equal(second.alphas, whole.alphas)
    np.testing.assert_array_equal(second.velocity, whole.velocity)
    np.testing.assert_array_equal(np.concatenate((trace1.mean_costs, trace2.mean_costs[1:])), trace.mean_costs)


@pytest.mark.parametrize("n", [32, 128])
def test_a_returned_velocity_owns_its_memory(n):
    # The momentum lives in the kernel's block, beside the gradient sums;
    # the state gets a copy, 4 floats per node, which a continued call
    # reads and leaves as it was. Both kernels (N = 32 and 128).
    y = _noisy_tones(n, [1.0, 2.2], 3)
    start = NetworkState([1.0 + 3.0 / n, 2.2 - 2.0 / n], [0.6 + 0.2j, -0.3 + 0.7j])
    cfg = TrainConfig(eps_tol=1e-300, max_iter=40)
    first, _ = train_inner(y, start, cfg)
    velocity = first.velocity
    assert velocity.base is None and velocity.flags.owndata and velocity.shape == (8,)
    kept = velocity.copy()
    second, _ = train_inner(y, first, cfg)
    assert second.velocity.base is None and second.velocity is not velocity
    assert velocity.tobytes() == kept.tobytes()


def test_only_a_descent_from_rest_waits_for_min_iter():
    # At this tolerance every step of the descent hits. From rest the call
    # still runs min_iter iterations before its three hits; continued with
    # the velocity it returned, the next call stops at its first three, and
    # the same state at rest waits again.
    y = _noisy_tones(16, [1.0], 2)
    state = NetworkState([1.05], [np.vdot(atom(1.05, 16), y) / 16])
    cfg = TrainConfig(eps_tol=1e-3)
    moving, from_rest = train_inner(y, state, cfg)
    assert from_rest.iterations_run == cfg.min_iter + 3
    _, continued = train_inner(y, moving, cfg)
    assert continued.iterations_run == 3
    _, restarted = train_inner(y, NetworkState(moving.omegas, moving.alphas), cfg)
    assert restarted.iterations_run == cfg.min_iter + 3


def test_empty_state_is_a_converged_noop():
    y = np.ones(8, dtype=complex)
    out, trace = train_inner(y, NetworkState.empty(), TrainConfig())
    assert out.m_nodes == 0
    assert trace.converged
    assert trace.iterations_run == 0


def test_perfect_fit_stops_immediately():
    w = TWO_PI * 0.25  # on-grid: LS amplitude is exact
    y = (2.0 + 1j) * atom(w, 16)
    state = NetworkState([w], [2.0 + 1j])
    _, trace = train_inner(y, state, TrainConfig())
    assert trace.converged
    assert trace.mean_costs[-1] == pytest.approx(0.0, abs=1e-28)


def test_divergence_raises_when_updates_overflow():
    # Rates huge enough to overflow before the safeguard's patience window
    # can halve them; moderate excess is tamed by the safeguard instead.
    rng = np.random.default_rng(5)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state = NetworkState([1.0, 1.1], [10.0, -10.0])
    cfg = TrainConfig(gamma_alpha=1e280, gamma_omega=1e280, max_iter=2000)
    with pytest.raises(NumericalDivergence):
        train_inner(y, state, cfg)


def test_safeguard_keeps_moderately_excessive_rates_finite():
    # At these rates every step overshoots, but the safeguard restores the
    # best state and halves the rates before anything overflows; the run
    # completes instead of diverging.
    rng = np.random.default_rng(5)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state = NetworkState([1.0, 1.1], [10.0, -10.0])
    cfg = TrainConfig(gamma_alpha=1e3, gamma_omega=1e3, max_iter=2000)
    out, trace = train_inner(y, state, cfg)
    assert np.all(np.isfinite(out.omegas))
    assert np.all(np.isfinite(out.alphas.view(float)))
    assert np.all(np.isfinite(trace.mean_costs))


def test_an_oscillating_call_returns_its_best_state_not_its_last():
    # The converge study's trial at twice the default rates, momentum 0,
    # seed 3000: the cost settles into a two-state cycle about 14 times its
    # start. It never rises 20 times in a row, so the safeguard never
    # halves, and the call would end on the cycle. The crawl test stops it
    # at its first chance, W iterations in, since the cost is then above
    # the start; it returns the best state, here the start.
    freqs = TWO_PI * np.array([0.1, 0.22, 0.37])
    y, _, _ = _draw_signal(freqs, np.ones(3), 32, 10.0, np.random.default_rng(3000))
    base = TrainConfig(eps_tol=1e-5).resolve(32)
    cfg = replace(base, gamma_alpha=2 * base.gamma_alpha, gamma_omega=2 * base.gamma_omega, momentum=0.0)
    out, trace = train_inner(y, initialize(y), cfg)
    assert (trace.exit_reason, trace.halvings) == ("crawl", 0)
    assert trace.iterations_run == optimizer._CRAWL_WINDOW
    assert trace.mean_costs[-1] > 10 * trace.mean_costs[0]
    final = cost(y, forward(out, 32)) / 32
    assert final == pytest.approx(trace.mean_costs.min(), rel=1e-12)
    assert final <= trace.mean_costs[0]
    assert out.velocity is None  # the best state is not where the descent's momentum was


def _crawling(costs: np.ndarray, n_samples: int) -> list[bool]:
    """Per iteration t, whether the crawl test holds: costs[t - W] - c < tau * c / N."""
    window, crawl = optimizer._CRAWL_WINDOW, optimizer._CRAWL_TAU / n_samples
    return [t >= window and costs[t - window] - costs[t] < crawl * costs[t] for t in range(costs.size)]


def test_a_pass_stops_once_its_fall_over_the_window_is_below_tau_sigma2():
    # The cluster case at a tolerance no step meets, so only the crawl test
    # can stop it: the pass runs while the total cost falls by at least
    # tau * sigma2_hat over every W iterations, and stops at the first
    # iteration where it does not. It returns its last iterate with its
    # velocity, as a "tol" stop does.
    y, w0, a0, _ = _BIT_PIN_CASES["cluster_n128"]
    n = y.size
    cfg = TrainConfig(eps_tol=1e-300)
    out, trace = train_inner(y, NetworkState(w0, a0), cfg)
    c = trace.mean_costs
    assert (trace.exit_reason, trace.halvings) == ("crawl", 0) and trace.converged
    assert _crawling(c, n).index(True) == trace.iterations_run == c.size - 1 > 10 * optimizer._CRAWL_WINDOW
    assert out.velocity is not None and np.any(out.velocity != 0.0)
    assert cost(y, forward(out, n)) / n == pytest.approx(c[-1], rel=1e-12)
    # One iteration short of that, the same descent runs to its limit.
    _, short = train_inner(y, NetworkState(w0, a0), replace(cfg, max_iter=trace.iterations_run - 1))
    assert short.exit_reason == "max_iter"
    np.testing.assert_array_equal(short.mean_costs, c[:-1])


@pytest.mark.parametrize("k", [-30, -10, 10, 30])
def test_the_crawl_stop_does_not_move_with_the_signal_scale(k):
    # y and the amplitudes times 2^k scale every cost by 4^k. The frequency
    # gradient grows as the cost, so the frequency rate is scaled by 4^-k;
    # every step is then the unit-scale one times 2^k (amplitudes) or 1
    # (frequencies), exactly. A scale-free stopping rule stops both calls at
    # one iteration. The tolerance is one no step meets at any of the scales.
    y, w0, a0, _ = _BIT_PIN_CASES["min_iter_consec_hits"]
    base = TrainConfig(eps_tol=1e-300).resolve(y.size)
    unit, unit_trace = train_inner(y, NetworkState(w0, a0), base)
    scaled_cfg = replace(base, gamma_omega=math.ldexp(base.gamma_omega, -2 * k))
    out, trace = train_inner(y * 2.0**k, NetworkState(w0, np.asarray(a0) * 2.0**k), scaled_cfg)
    assert trace.exit_reason == unit_trace.exit_reason == "crawl"
    assert trace.iterations_run == unit_trace.iterations_run
    assert out.omegas.tobytes() == unit.omegas.tobytes()
    assert out.alphas.tobytes() == (unit.alphas * 2.0**k).tobytes()
    assert trace.mean_costs.tobytes() == (unit_trace.mean_costs * 4.0**k).tobytes()


def test_a_margin_drifting_toward_a_decision_holds_off_the_crawl_stop():
    # The pass above, with a drift guard whose one margin reads 2 at the
    # start, then 1.5, 1.2 and 0.9 at each crawl stop it is asked about. At
    # its mean rate since the start, 1.5 and then 1.2 would reach 1 within
    # the remaining budget, so the pass goes on W iterations each time;
    # 0.9 is no longer above 1, and the pass stops.
    y, w0, a0, _ = _BIT_PIN_CASES["cluster_n128"]
    cfg = TrainConfig(eps_tol=1e-300)
    _, plain = train_inner(y, NetworkState(w0, a0), cfg)
    readings = iter([2.0, 1.5, 1.2, 0.9])
    asked = []

    def margins(omegas, alphas):
        asked.append(omegas.copy())
        return (next(readings), math.inf)

    _, trace = train_inner(y, NetworkState(w0, a0), cfg, margins)
    window = optimizer._CRAWL_WINDOW
    assert trace.exit_reason == "crawl"
    assert trace.iterations_run == plain.iterations_run + 2 * window
    assert len(asked) == 4 and asked[0].tobytes() == np.asarray(w0).tobytes()
    np.testing.assert_array_equal(trace.mean_costs[: plain.mean_costs.size], plain.mean_costs)
    assert all(_crawling(trace.mean_costs, y.size)[plain.iterations_run + k * window] for k in (1, 2))


def test_a_pass_that_climbs_above_its_start_stops_after_one_window():
    # A cancelling near-duplicate pair with large amplitudes, the kind of
    # state an adopted polish can hand a floor pass: the frequency steps
    # throw the pair apart and the cost climbs more than 1000 times above
    # its start. From W on every iteration costs more than the one W
    # before, so the pass stops at W and returns its best state, the start,
    # at rest.
    freqs = TWO_PI * np.array([0.1, 0.37])
    y, _, amps = _draw_signal(freqs, np.ones(2), 32, 10.0, np.random.default_rng(3))
    start = NetworkState([freqs[0], freqs[0] + 1e-3, freqs[1]], [30.0, amps[0] - 30.0, amps[1]])
    out, trace = train_inner(y, start, TrainConfig())
    c = trace.mean_costs
    assert (trace.exit_reason, trace.iterations_run) == ("crawl", optimizer._CRAWL_WINDOW)
    assert c.max() > 1000 * c[0] and c[-1] > c[0]
    assert out.velocity is None
    np.testing.assert_array_equal(out.omegas, start.omegas)
    np.testing.assert_array_equal(out.alphas, start.alphas)


def _polish_cost(y, state):
    return cost(y, forward(state, y.size)) / y.size


@pytest.mark.parametrize("n", [32, 64, 512])
def test_polish_recovers_noiseless_tones_a_third_of_a_bin_apart(n):
    # Two tones 0.3 bin apart, each started 0.1 bin off: the least-squares
    # optimum is the truth, reached to 1e-9 rad in either node order.
    bin_ = TWO_PI / n
    truth = np.array([1.0, 1.0 + 0.3 * bin_])
    amps = np.array([1.0 + 0.2j, -0.5 + 0.7j])
    y = design_matrix(truth, n) @ amps
    starts = [1.0 - 0.1 * bin_, 1.0 + 0.4 * bin_]
    results = []
    for order in (starts, starts[::-1]):
        out, trace = polish_frequencies(y, NetworkState(order, np.zeros(2)))
        assert trace.exit_reason == "tol" and trace.iterations_run <= optimizer._POLISH_STEPS
        assert np.max(np.abs(out.omegas - truth)) < 1e-9
        assert np.max(np.abs(out.alphas - amps)) < 1e-8
        results.append(out)
    np.testing.assert_allclose(results[0].omegas, results[1].omegas, rtol=0, atol=1e-12)


def test_polish_trace_never_rises_and_ends_at_the_returned_state():
    freqs = TWO_PI * np.array([0.1, 0.22, 0.37])
    y, _, _ = _draw_signal(freqs, np.ones(3), 32, 20.0, np.random.default_rng(7003))
    start = NetworkState(freqs + 0.02, np.zeros(3))
    out, trace = polish_frequencies(y, start)
    assert np.all(np.diff(trace.mean_costs) <= 0.0)
    assert trace.mean_costs.size == trace.iterations_run + 1
    assert _polish_cost(y, out) == pytest.approx(trace.mean_costs[-1], rel=1e-12)
    assert np.all((0.0 <= out.omegas) & (out.omegas < TWO_PI)) and np.all(np.diff(out.omegas) > 0)


def test_polish_wraps_and_sorts_its_output():
    n = 32
    y = design_matrix([0.05, 3.0], n) @ np.array([1.0, 0.5j])
    out, _ = polish_frequencies(y, NetworkState([3.01, 0.04 - TWO_PI], np.zeros(2)))
    np.testing.assert_allclose(out.omegas, [0.05, 3.0], atol=1e-9)
    np.testing.assert_allclose(out.alphas, [1.0, 0.5j], atol=1e-8)


@pytest.mark.parametrize("gap", [0.0, 1e-13, 1e-7])
def test_polish_of_a_cancelling_near_duplicate_start_stays_finite(gap):
    # A is rank deficient at the start: two nodes at (nearly) one frequency,
    # started with large cancelling amplitudes, which the polish ignores.
    n = 32
    y = design_matrix([1.0], n) @ np.array([1.0 + 0.0j])
    start = NetworkState([1.1, 1.1 + gap], [1e3, -1e3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, trace = polish_frequencies(y, start)
    assert np.all(np.isfinite(out.omegas)) and np.all(np.isfinite(out.alphas))
    assert np.all(np.isfinite(trace.mean_costs))
    assert trace.mean_costs[-1] <= trace.mean_costs[0]
    assert _polish_cost(y, out) <= trace.mean_costs[0] * (1 + 1e-12)


def test_polish_of_an_empty_state_is_a_noop():
    y = np.ones(8, dtype=complex)
    out, trace = polish_frequencies(y, NetworkState.empty())
    assert out.m_nodes == 0
    assert (trace.iterations_run, trace.exit_reason) == (0, "tol")
    assert trace.mean_costs.tolist() == [1.0]


@pytest.mark.parametrize("scale", [2.0**-1000, 1.0, 2.0**508])
def test_polish_is_scale_safe(scale):
    # The fit runs on y * 2^-k, so at a power-of-two scale the steps are
    # those of y at unit scale, and no square overflows or underflows.
    n = 8
    y = design_matrix([0.3], n) @ np.array([1.0 + 0.0j])
    start = NetworkState([0.5, 0.8], np.zeros(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit, unit_trace = polish_frequencies(y, start)
        out, trace = polish_frequencies(scale * y, start)
    np.testing.assert_array_equal(out.omegas, unit.omegas)
    assert trace.iterations_run == unit_trace.iterations_run
    np.testing.assert_allclose(out.alphas / scale, unit.alphas, rtol=0, atol=1e-15)
    assert np.all(trace.mean_costs <= trace.mean_costs[0])


def test_estimate_of_a_1e153_tone_runs_the_polish_without_a_warning(monkeypatch):
    # The one-tone N = 8 signal at 1e153: every pass runs to max_iter, so
    # the last two passes look ahead, and the polish sees squares near 1e306.
    calls = []

    def counted(observed, state):
        calls.append(state.m_nodes)
        return polish_frequencies(observed, state)

    monkeypatch.setattr(pipeline, "polish_frequencies", counted)
    y = 1e153 * np.exp(0.3j * np.arange(8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pipeline.estimate_spectrum(y)
    assert calls
    assert report.k_hat == 2
    assert all(math.isfinite(s.omega) for s in report.estimates)

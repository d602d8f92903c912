"""Optimizer: gradients against finite differences, training behavior."""

import numpy as np
import pytest

from linespec.errors import InvalidDimension, NumericalDivergence
from linespec.optimizer import (
    CostTrace,
    NetworkState,
    TrainConfig,
    cost,
    forward,
    grad_alpha,
    grad_omega,
    train_inner,
    wrap_frequencies,
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


def test_cost_hand_value():
    y = np.array([1.0 + 0j, 0.0])
    model = np.array([0.0j, 1.0 + 1.0j])
    # residual [1, -1-j]: squared norm 1 + 2 = 3
    assert cost(y, model) == pytest.approx(3.0, rel=1e-15)


def test_network_state_validation():
    with pytest.raises(InvalidDimension):
        NetworkState(np.zeros(2), np.zeros(3, dtype=complex))
    with pytest.raises(NumericalDivergence):
        NetworkState([np.nan], [1.0])
    with pytest.raises(NumericalDivergence):
        NetworkState([1.0], [complex("inf")])


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
        TrainConfig(consec_hits=0)


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
    _, bare = train_inner(y, state, TrainConfig(eps_tol=1e-3))
    _, patient = train_inner(y, state, TrainConfig(eps_tol=1e-3, min_iter=40))
    assert bare.iterations_run < 40
    assert patient.iterations_run > 40


def test_consecutive_hits_require_a_run_of_flat_iterations():
    rng = np.random.default_rng(13)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state = NetworkState([0.9], [0.0])
    _, single = train_inner(y, state, TrainConfig(eps_tol=1e-6))
    _, tripled = train_inner(y, state, TrainConfig(eps_tol=1e-6, consec_hits=3))
    assert tripled.iterations_run >= single.iterations_run


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


def test_wrap_frequencies_preserves_order_of_magnitude():
    state = NetworkState([TWO_PI + 0.3, -0.2], [1.0, 2.0])
    wrapped = wrap_frequencies(state)
    assert wrapped.omegas[0] == pytest.approx(0.3, rel=1e-12)
    assert wrapped.omegas[1] == pytest.approx(TWO_PI - 0.2, rel=1e-12)
    np.testing.assert_array_equal(wrapped.alphas, state.alphas)

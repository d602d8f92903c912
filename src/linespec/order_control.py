"""Model-order control: CRB-based node merging and CFAR node pruning.

Two mechanisms shrink the hidden layer to the true number of sinusoids.
Merging tests whether two adjacent frequency estimates are statistically
indistinguishable, using the Cramer-Rao bound of their difference: if the
observed gap is small compared with the bound, the pair is one sinusoid
split in two and is replaced by a single node. Pruning tests each node
against a constant-false-alarm-rate threshold built from the F distribution
of its normalized power under the noise-only hypothesis. That power is the
power the node adds to a fitted model: its atom projected onto the data
that the other nodes leave unexplained.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateResidual,
    InvalidDimension,
    SingularInformation,
)
from .optimizer import NetworkState, cost, sum_n_squared
from .signal_model import TWO_PI, _ls_solve, as_samples, atom_table, wrap_angle
from .stat_dist import FParams, f2_upper_quantile, noncentral_f_sf, std_normal_inv_cdf


@dataclass(frozen=True)
class OrderConfig:
    """Hypothesis-test parameters for merging and pruning.

    ``epsilon_f`` is the significance of the merge test and ``epsilon_a``
    the false-alarm rate of the prune test. ``epsilon_f`` must lie below
    0.5: from there on the merge bound is not positive and no gap fuses.
    """

    epsilon_f: float = 1e-6
    epsilon_a: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.epsilon_f < 0.5:
            raise InvalidDimension("epsilon_f must lie in (0, 0.5)")
        if not 0.0 < self.epsilon_a < 1.0:
            raise InvalidDimension("epsilon_a must lie in (0, 1)")


@dataclass(frozen=True)
class CrbPair:
    """CRB of a two-sinusoid frequency estimate and of the difference."""

    matrix: np.ndarray
    crb_delta: float


@dataclass(frozen=True)
class PruneReport:
    """Per-node statistics, the threshold, and the survival mask."""

    xi: np.ndarray
    threshold: float
    keep_mask: np.ndarray


@dataclass(frozen=True)
class MergeEvent:
    """One merge: the two source frequencies and the replacement."""

    omega_low: float
    omega_high: float
    omega_merged: float


def estimate_noise_var(observed, model) -> float:
    """Residual-power noise estimate ||x_hat - y||^2 / N."""
    y = as_samples(observed)
    return cost(y, model) / y.size


def rho(omega_i, omega_j, n_samples: int):
    """Weighted index sums of the pair Fisher information.

    Returns (rho1, rho2) with rho1 = sum n^2 and
    rho2 = sum n^2 * exp(j * (omega_j - omega_i) * n) over n = 0 .. N-1,
    the exponentials from atom_table. Scalar frequencies give a complex
    rho2; arrays give an array, one rho2 per pair, each summed along its
    own contiguous row with the scalar's bits.
    """
    if n_samples < 2:
        raise InvalidDimension("rho needs at least two samples")
    gap = np.subtract(omega_j, omega_i)
    n2 = np.arange(n_samples, dtype=float) ** 2
    rows = np.multiply(atom_table(gap, n_samples).T, n2, order="C")
    rho2 = rows.sum(axis=-1).reshape(gap.shape)
    return sum_n_squared(n_samples), complex(rho2) if rho2.ndim == 0 else rho2


def crb_pair(
    alpha_i: complex,
    alpha_j: complex,
    omega_i: float,
    omega_j: float,
    sigma2: float,
    n_samples: int,
) -> CrbPair:
    """Two-sinusoid frequency CRB with amplitudes treated as known.

    The 2x2 bound is (sigma2 / 2) times the inverse of the frequency block
    of the Fisher information; crb_delta is the variance bound of the
    difference omega_j - omega_i. Raises SingularInformation when the
    information matrix is singular (aligned phases at equal frequencies).
    """
    if sigma2 <= 0:
        raise SingularInformation("noise variance must be positive")
    pi2 = abs(alpha_i) ** 2
    pj2 = abs(alpha_j) ** 2
    if pi2 == 0.0 or pj2 == 0.0:
        raise SingularInformation("zero amplitude makes the information singular")
    rho1, rho2 = rho(omega_i, omega_j, n_samples)
    cross = (np.conj(alpha_i) * alpha_j * rho2).real
    den = pi2 * pj2 * rho1**2 - cross**2
    if den <= 0.0:
        raise SingularInformation("pair information matrix is singular")
    half_sigma2 = sigma2 / 2.0
    matrix = (half_sigma2 / den) * np.array([[pj2 * rho1, -cross], [-cross, pi2 * rho1]])
    delta = half_sigma2 * ((pi2 + pj2) * rho1 + 2.0 * cross) / den
    return CrbPair(matrix, float(delta))


def merge_test(omega_lo: float, omega_hi: float, crb_delta: float, cfg: OrderConfig) -> bool:
    """True when the gap is too small to be a resolvable pair.

    The pair merges when omega_hi - omega_lo < -sqrt(crb_delta) *
    Phi^{-1}(epsilon_f); the quantile is negative for epsilon_f < 0.5, so
    the bound grows with the CRB.
    """
    bound = -math.sqrt(crb_delta) * std_normal_inv_cdf(cfg.epsilon_f)
    return (omega_hi - omega_lo) < bound


def _fuse_test(alpha_i, alpha_j, sigma2: float, n_samples: int, cfg: OrderConfig):
    """merge_test on crb_pair's bound for arrays of amplitude pairs, or one pair.

    Returns fuses(omega_i, omega_j): one boolean per pair, True where the
    pair merges; a singular bound means one node and fuses. The terms that
    do not depend on the frequencies are computed once. Every value is
    crb_pair's and merge_test's, in their order, element by element, so a
    decision has the scalar path's bits: a modulus goes through hypot (as
    abs of a complex scalar does), a square through float_power (libm pow,
    as a scalar ** 2 does) and a complex product through its real
    arithmetic, since numpy's vector complex multiply rounds differently.
    """
    pi2 = np.float_power(np.hypot(alpha_i.real, alpha_i.imag), 2.0)
    pj2 = np.float_power(np.hypot(alpha_j.real, alpha_j.imag), 2.0)
    conj_i = np.conj(alpha_i)
    c_re = conj_i.real * alpha_j.real - conj_i.imag * alpha_j.imag
    c_im = conj_i.real * alpha_j.imag + conj_i.imag * alpha_j.real
    rho1 = sum_n_squared(n_samples)
    power_term = pi2 * pj2 * rho1**2
    sum_term = (pi2 + pj2) * rho1
    half_sigma2 = sigma2 / 2.0
    quantile = std_normal_inv_cdf(cfg.epsilon_f)
    singular = (sigma2 <= 0) | (pi2 == 0.0) | (pj2 == 0.0)

    def fuses(omega_i, omega_j) -> np.ndarray:
        _, rho2 = rho(omega_i, omega_j, n_samples)
        cross = c_re * rho2.real - c_im * rho2.imag
        den = power_term - np.float_power(cross, 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = half_sigma2 * (sum_term + 2.0 * cross) / den
            bound = -np.sqrt(delta) * quantile
        return singular | (den <= 0.0) | (np.subtract(omega_j, omega_i) < bound)

    return fuses


# Amplitudes outside this range are rescaled before the exact merge test,
# whose |h|^4 rho1^2 would overflow (or underflow) near its ends.
_SAFE_MAGNITUDE = (2.0**-128, 2.0**128)
# Newton stops once |F / t - 1| <= _NEWTON_TOL, and the window widens by
# what is left; a root still open after _NEWTON_STEPS gets no window.
_NEWTON_STEPS = 12
_NEWTON_TOL = 2.0**-46


@lru_cache(maxsize=16)
def _flip_sums(n_samples: int):
    """Per-N terms of _flip_window: (n / 2, n^2, n^3) over n = 0 .. N-1,
    read-only, then sum n^4, sum n^6 and S (2 rho1 - S) at pi / (N - 1)."""
    n = np.arange(n_samples, dtype=float)
    n2 = n * n
    powers = (0.5 * n, n2, n2 * n)
    for p in powers:
        p.flags.writeable = False
    s_end = 2.0 * float(np.sum(n2 * np.sin(0.5 * math.pi / (n_samples - 1) * n) ** 2))
    return powers, float(np.sum(n2 * n2)), float(np.sum(n2**3)), s_end * (2.0 * sum_n_squared(n_samples) - s_end)


def _flip_window(half, sigma2: float, n_samples: int, cfg: OrderConfig, top: float):
    """(below, above): where _fuse_test of the pair (h, h) flips, per h in ``half``.

    For equal amplitudes h, crb_pair's bound reduces to
    sigma2 / (|h|^2 S(d)) with S(d) = rho1 - Re rho2(d) = 2 sum n^2
    sin^2(n d / 2), so the pair fuses at gap d iff F(d) = d^2 S(d) is below
    t = sigma2 q^2 / |h|^2, q = Phi^{-1}(epsilon_f). Every term of F grows
    up to d = pi / (N - 1), and ``top`` may not lie past it. Newton's method
    on F^(1/4), which is close to linear in d, finds the root of F = t,
    kept between ``top`` and the lower bound that sin x <= x gives.
    d ln F / d ln d lies in [2, 4], so the last residual g = ln(F / t)
    puts the root within |g| / 2 of the last point d, and past d e^(|g| / 4)
    when F(d) < t; a root past ``top`` needs no more.

    The test fuses at gaps below ``below`` and keeps the pair apart at gaps
    from ``above`` to pi / (N - 1); the window between is the root's
    uncertainty widened by a relative band. In units of u = 2^-53, rounding
    moves the exact test's flip point by at most about
    38 rho1^2 / (S (2 rho1 - S)) + 4 (its den, |h|^4 (rho1^2 - (Re rho2)^2),
    cancels to S (2 rho1 - S), and Re rho2's table and sum are good to
    about 30 rho1) and this root by about 15 (F is good to 30). The band,
    2^-47 (1 + rho1^2 / (S (2 rho1 - S))), is at least twice that; S is taken
    at the root and at pi / (N - 1), where rho1 + Re rho2 is smallest (0 at
    N = 2, which gets no window). Singular or extreme input (h = 0,
    sigma2 <= 0, top <= 0, a root below 2^-200) gets the window
    (-inf, inf), and so does a root Newton leaves unconverged.
    """
    mag = np.abs(half)
    below = np.full(mag.shape, -math.inf)
    above = np.full(mag.shape, math.inf)
    if not (0.0 < sigma2 < math.inf and top > 0.0):
        return below, above
    (n_half, n2, n3), sum_n4, sum_n6, cancel_end = _flip_sums(n_samples)
    rho1 = sum_n_squared(n_samples)
    # sqrt(t), capped at 2 top sqrt(rho1): any t above 4 top^2 rho1 >= 2 F(top)
    # puts the root past the top, and the cap keeps t finite.
    scale = math.sqrt(sigma2) * -std_normal_inv_cdf(cfg.epsilon_f)
    root_t = scale / np.maximum(mag, scale / (2.0 * top * math.sqrt(rho1)))
    # F(d) <= d^4 sum n^4 / 2, so the root is at least lo.
    lo = np.sqrt(root_t * math.sqrt(2.0 / sum_n4))
    ok = np.flatnonzero((mag > 0.0) & (lo > 2.0**-200))
    t, lo = root_t[ok] ** 2, np.minimum(lo[ok], top)
    # Start at the root of d^4 sum n^4 / 2 - d^6 sum n^6 / 24 = t, to first order.
    d = np.minimum(lo * (1.0 + lo * lo * (sum_n6 / (48.0 * sum_n4))), top)
    for _ in range(_NEWTON_STEPS):
        sin = np.sin(np.multiply.outer(d, n_half))
        sin2 = sin * sin
        sum_half = (sin2 * n2).sum(axis=-1)
        root, ratio = d, t / ((2.0 * d * d) * sum_half)
        # F grows at most as d^4, so the root is at least reach when F < t.
        reach = d * np.sqrt(np.sqrt(ratio))
        capped = reach > top
        converged = capped | (np.abs(ratio - 1.0) <= _NEWTON_TOL)
        if converged.all():
            break
        # d ln F / d ln d = 2 + d sum n^3 sin cos / sum n^2 sin^2, with
        # cos >= 0 up to pi / (N - 1); only the step depends on its rounding.
        slope = 2.0 + d * ((sin * np.sqrt(1.0 - sin2)) @ n3) / sum_half
        d = np.clip(d + 4.0 * (reach - d) / slope, lo, top)
    s = 2.0 * sum_half
    with np.errstate(divide="ignore"):
        band = 2.0**-47 * (1.0 + rho1**2 / np.minimum(s * (2.0 * rho1 - s), cancel_end))
    err = np.abs(np.log(ratio)) / 2.0
    lower = np.where(capped, reach, root * (1.0 - err)) * (1.0 - band)
    upper = np.where(capped, math.inf, root * (1.0 + err) * (1.0 + band))
    below[ok] = np.where(converged, lower, -math.inf)
    above[ok] = np.where(converged, upper, math.inf)
    return below, above


def _rescaled_fuse_test(h: complex, sigma2: float, n_samples: int, cfg: OrderConfig):
    """_fuse_test of the pair (h, h), with h and sigma2 scaled into range.

    An h outside _SAFE_MAGNITUDE is divided by the power of two 2^k that
    puts |h| in [0.5, 1), and sigma2 by 4^k. Both scalings are exact and
    leave the bound as it is, up to float_power's last bit; amplitudes in
    range are not scaled, so their decisions keep their bits.
    """
    mag = abs(h)
    k = 0 if _SAFE_MAGNITUDE[0] <= mag <= _SAFE_MAGNITUDE[1] else math.frexp(mag)[1]
    scaled = np.complex128(complex(math.ldexp(h.real, -k), math.ldexp(h.imag, -k)))
    return _fuse_test(scaled, scaled, np.ldexp(sigma2, -2 * k), n_samples, cfg)


def merge_radius(alpha, sigma2: float, n_samples: int, cfg: OrderConfig, limit: float):
    """Largest spacing, up to ``limit``, at which merge_test fuses alpha split in two.

    The pair is two nodes with amplitude alpha / 2 each, and the spacing is
    what a bisection of the merge decision apply_merges takes (_fuse_test)
    returns: the test at ``limit`` (an amplitude whose halves fuse there
    gets ``limit``), then 40 midpoints. Each decision is read off the
    window where the test flips (_flip_window). Only a point inside the
    window or past pi / (N - 1), and singular input, run the exact test,
    on operands rescaled so that it cannot overflow (_rescaled_fuse_test).
    So the result has the bisection's bits. ``alpha`` may be an array: a
    scalar gives a float, an array an array.
    """
    if n_samples < 2:
        raise InvalidDimension("merge_radius needs at least two samples")
    half = np.asarray(alpha, dtype=complex) / 2
    flat = half.ravel()
    limit = float(limit)
    end = math.pi / (n_samples - 1)
    below, above = _flip_window(flat, sigma2, n_samples, cfg, min(limit, end))
    radius = np.empty(flat.shape)
    for i, (h, fuse_below, apart_above) in enumerate(zip(flat.tolist(), below.tolist(), above.tolist())):
        exact = None

        def fuses(gap: float) -> bool:
            nonlocal exact
            if gap > end or fuse_below <= gap <= apart_above:
                exact = exact or _rescaled_fuse_test(h, sigma2, n_samples, cfg)
                return bool(exact(0.0, gap))
            return gap < fuse_below

        if fuses(limit):
            radius[i] = limit
            continue
        lo, hi = 0.0, limit
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if fuses(mid) else (lo, mid)
        radius[i] = lo
    return float(radius[0]) if half.ndim == 0 else radius.reshape(half.shape)


def apply_merges(state: NetworkState, observed, cfg: OrderConfig):
    """Merge statistically indistinguishable neighbor nodes, then refit them.

    Nodes are wrapped into [0, 2*pi) and sorted. One circular walk tests
    each node i against its next neighbor j = (i + 1) mod M, shifted by
    2*pi for the wrap-around pair (last, first), with the current amplitudes
    and the residual noise estimate (see _fuse_test; a singular pair bound
    means the nodes are already indistinguishable and forces the merge).
    All M adjacent pairs, the wrap-around one included, are tested at once.
    A fused pair becomes one node at the midpoint with the summed
    amplitude, which is tested again against its next neighbor; the
    wrap-around pair ends the walk. Every fused node then gets
    least-squares amplitudes (refit_amplitudes), so the result is a fitted
    model, wrapped and sorted; a state of fewer than two nodes is returned
    as it is. Returns (new state, list of MergeEvent).
    """
    y = as_samples(observed)
    n_samples = y.size
    if state.m_nodes <= 1:
        return state, []
    w = wrap_angle(state.omegas)
    order = np.argsort(w, kind="stable")
    w, a = w[order], state.alphas[order]
    sigma2 = estimate_noise_var(y, atom_table(w, n_samples) @ a)
    # Pair k is (k, k + 1 mod M). Until a node fuses, its next neighbor in
    # the walk is its next neighbor here, so only pairs that hold a fused
    # node need a new test.
    adjacent = _fuse_test(a, np.append(a[1:], a[0]), sigma2, n_samples, cfg)(w, np.append(w[1:], w[0] + TWO_PI))

    ws, am, fused, origin = list(w), list(a), [False] * w.size, list(range(w.size))
    events: list[MergeEvent] = []
    i = 0
    while len(ws) > 1 and i < len(ws):
        j = (i + 1) % len(ws)
        shift = TWO_PI if j == 0 else 0.0
        if fused[i] or fused[j]:
            fuses = _fuse_test(am[i], am[j], sigma2, n_samples, cfg)(ws[i], ws[j] + shift)
        else:
            fuses = adjacent[origin[i]]
        if not fuses:
            i += 1
            continue
        merged = wrap_angle(0.5 * (ws[i] + ws[j] + shift))
        events.append(MergeEvent(ws[i], ws[j], merged))
        ws[i], am[i], fused[i] = merged, am[i] + am[j], True
        del ws[j], am[j], fused[j], origin[j]
        if j == 0:
            break
    w = np.array(ws)
    order = np.argsort(w, kind="stable")
    merged_state = NetworkState(w[order], np.array(am, dtype=np.complex128)[order])
    return refit_amplitudes(merged_state, y, np.array(fused)[order]), events


def refit_amplitudes(state: NetworkState, observed, nodes) -> NetworkState:
    """Least-squares amplitudes for the selected nodes, the others held fixed.

    ``nodes`` is a boolean mask. The selected amplitudes are fitted jointly
    to the data minus the unselected nodes' contribution; frequencies are
    unchanged. apply_merges calls it on the nodes it fused: a merged node
    sits at the midpoint with the summed amplitudes, which no fit produced,
    and refitting it before apply_prunes keeps the residual, and so every
    node's statistic, that of a fitted model.
    """
    y = as_samples(observed)
    sel = np.asarray(nodes, dtype=bool)
    if sel.shape != (state.m_nodes,):
        raise InvalidDimension("node mask must have one entry per node")
    if not sel.any():
        return state
    A = atom_table(state.omegas, y.size)
    target = y - A[:, ~sel] @ state.alphas[~sel]
    alphas = state.alphas.copy()
    alphas[sel] = _ls_solve(A[:, sel], target)
    return NetworkState(state.omegas, alphas)


def prune_statistics(state: NetworkState, observed) -> np.ndarray:
    """Normalized power each node adds, |a_i^H (r + a_i alpha_i)|^2 / ||r||^2.

    r = y - A alpha is the residual of the state as given, so r + a_i alpha_i
    is the data minus every node but i and the projection measures what
    node i explains beyond the others: a node in the main lobe of a stronger
    tone no longer inherits that tone's power. Since a_i^H a_i = N the
    numerator is |a_i^H r + N alpha_i|^2. The statistic means what the F
    test assumes only for a fitted state; for atoms orthogonal to the other
    nodes' atoms it equals |a_i^H y|^2 / ||r||^2. The atoms come from
    atom_table, the model forward() evaluates. A zero residual (perfect
    fit) gives inf for every node.
    """
    y = as_samples(observed)
    return _prune_statistics(y, atom_table(state.omegas, y.size), state.alphas)


def _prune_statistics(y: np.ndarray, A: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """prune_statistics for a design matrix the caller has already built."""
    residual = y - A @ alphas
    den = float(np.vdot(residual, residual).real)
    if den == 0.0:
        return np.full(alphas.size, math.inf)
    return np.abs(A.conj().T @ residual + y.size * alphas) ** 2 / den


def prune_statistic(node_index: int, state: NetworkState, observed) -> float:
    """prune_statistics of one node; raises DegenerateResidual on a perfect fit."""
    if not 0 <= node_index < state.m_nodes:
        raise InvalidDimension("node index out of range")
    xi = float(prune_statistics(state, observed)[node_index])
    if math.isinf(xi):
        raise DegenerateResidual("perfect fit; the node statistic is unbounded")
    return xi


def _f2_upper_quantile(n_samples: int, m_nodes: int, cfg: OrderConfig):
    """(q, d2): the F(2, d2) quantile at 1 - epsilon_a, d2 = 2(N - M)."""
    if m_nodes < 1 or n_samples <= m_nodes:
        raise InvalidDimension("the F test needs n_samples > m_nodes >= 1")
    d2 = 2 * (n_samples - m_nodes)
    return f2_upper_quantile(math.log(cfg.epsilon_a), d2), d2


def prune_threshold(n_samples: int, m_nodes: int, cfg: OrderConfig) -> float:
    """CFAR keep threshold (N / (N - M)) * F^{-1}_{2, 2(N-M)}(1 - epsilon_a)."""
    q, _ = _f2_upper_quantile(n_samples, m_nodes, cfg)
    return n_samples / (n_samples - m_nodes) * q


def apply_prunes(state: NetworkState, observed, cfg: OrderConfig):
    """Remove every node whose statistic falls below the CFAR threshold.

    All nodes are evaluated simultaneously against one threshold for the
    current (N, M), each on the power it adds (see prune_statistics); the
    state should be fitted, since the statistic is read off its residual.
    An M = 0 result is legal. A zero residual (perfect fit)
    keeps every node. When M >= N the threshold is computed with M clamped
    to N - 1 and a warning is emitted. Returns (new state, PruneReport).
    """
    y = as_samples(observed)
    n_samples = y.size
    m = state.m_nodes
    if m == 0:
        return state, PruneReport(np.zeros(0), math.inf, np.zeros(0, dtype=bool))
    m_eff = m
    if m >= n_samples:
        m_eff = n_samples - 1
        warnings.warn(
            "more nodes than samples; prune threshold clamped to M = N - 1",
            RuntimeWarning,
            stacklevel=2,
        )
    threshold = prune_threshold(n_samples, m_eff, cfg)
    xi = prune_statistics(state, y)
    keep = xi >= threshold
    kept = NetworkState(state.omegas[keep], state.alphas[keep])
    return kept, PruneReport(xi, float(threshold), keep)


def detection_prob(snr_linear: float, n_samples: int, m_nodes: int, cfg: OrderConfig) -> float:
    """Probability that a sinusoid at the given SNR survives pruning.

    Under a present tone the scaled statistic (N - M) / N * xi follows a
    noncentral F distribution with dof (2, 2(N - M)) and noncentrality
    2 * N * snr_linear, so the detection probability is the upper tail at
    the scaled threshold.
    """
    if not 0 <= snr_linear < math.inf:
        raise InvalidDimension("snr_linear must be nonnegative and finite")
    q, d2 = _f2_upper_quantile(n_samples, m_nodes, cfg)
    return noncentral_f_sf(q, FParams(2.0, float(d2), 2.0 * n_samples * snr_linear))

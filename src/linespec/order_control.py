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
    n2 = _radius_sums(n_samples)[0][1]
    rows = np.multiply(atom_table(gap, n_samples).T, n2, order="C")
    rho2 = rows.sum(axis=-1).reshape(gap.shape)
    return sum_n_squared(n_samples), complex(rho2) if rho2.ndim == 0 else rho2


def _pair_bound(alpha_i, alpha_j, omega_i, omega_j, sigma2: float, n_samples: int):
    """crb_pair's bound over arrays of pairs: (crb_delta, singular, terms).

    One entry per pair; scalars count as one pair. ``singular`` marks the
    pairs whose information is singular (a zero amplitude, or aligned
    phases at equal frequencies), and their crb_delta is inf; a zero
    sigma2 (an exact fit) gives every other pair 0.
    ``terms`` is (pi2, pj2, cross, rho1, sigma2 / 2, den), the information
    of the pair as scaled: each pair's amplitudes are divided by the power
    of two 2^k that puts the larger modulus in [0.5, 1), and sigma2 by 4^k,
    so pi2 * pj2 * rho1^2 cannot overflow. The scaling is exact, so the
    bound is the unscaled pair's wherever that one is in range.
    """
    ai, aj = (np.atleast_1d(np.asarray(a, dtype=complex)) for a in (alpha_i, alpha_j))
    mi, mj = np.abs(ai), np.abs(aj)
    # 2^-k, kept finite for a subnormal modulus
    k = np.maximum(np.frexp(np.maximum(mi, mj))[1], -1021)
    scale = np.ldexp(1.0, -k)
    pi2, pj2 = (mi * scale) ** 2, (mj * scale) ** 2
    rho1, rho2 = rho(np.atleast_1d(omega_i), np.atleast_1d(omega_j), n_samples)
    cross = (np.conj(ai) * scale * (aj * scale) * rho2).real
    den = pi2 * pj2 * rho1**2 - cross**2
    half_sigma2 = np.ldexp(sigma2 / 2.0, -2 * k)
    # A zero amplitude gives den = -cross^2 <= 0.
    singular = den <= 0.0
    num = half_sigma2 * ((pi2 + pj2) * rho1 + 2.0 * cross)
    delta = np.divide(num, den, out=np.full(den.shape, math.inf), where=~singular)
    return delta, singular, (pi2, pj2, cross, rho1, half_sigma2, den)


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
    delta, singular, (pi2, pj2, cross, rho1, half_sigma2, den) = _pair_bound(
        alpha_i, alpha_j, omega_i, omega_j, sigma2, n_samples
    )
    if singular[0]:
        raise SingularInformation("pair information matrix is singular")
    matrix = (half_sigma2 / den) * np.array([[pj2 * rho1, -cross], [-cross, pi2 * rho1]])
    return CrbPair(matrix[..., 0], float(delta[0]))


_normal_quantile = lru_cache(maxsize=16)(std_normal_inv_cdf)  # Phi^{-1}(epsilon_f)


def merge_test(omega_lo, omega_hi, crb_delta, cfg: OrderConfig):
    """True when the gap is too small to be a resolvable pair.

    The pair merges when omega_hi - omega_lo < -sqrt(crb_delta) *
    Phi^{-1}(epsilon_f); the quantile is negative for epsilon_f < 0.5, so
    the bound grows with the CRB, and an infinite crb_delta (a singular
    pair, see _pair_bound) fuses. Arrays give one decision per pair, a
    scalar a bool.
    """
    fuses = np.subtract(omega_hi, omega_lo) < _merge_bound(crb_delta, cfg)
    return bool(fuses) if fuses.ndim == 0 else fuses


def _merge_bound(crb_delta, cfg: OrderConfig):
    """merge_test's bound on the gap, -sqrt(crb_delta) * Phi^{-1}(epsilon_f)."""
    return -np.sqrt(crb_delta) * _normal_quantile(cfg.epsilon_f)


def _adjacent_pairs(y: np.ndarray, omegas, alphas):
    """The nodes wrapped and sorted, their fit, and the bound of each adjacent pair.

    Returns (w, a, A, residual, sigma2, w_next, crb_delta): A =
    atom_table(w, N), residual = y - A a, sigma2 = ||residual||^2 / N, and
    pair k is (k, k + 1 mod M), w_next[k] its upper frequency (the first
    node's plus 2*pi for the wrap-around pair) and crb_delta[k] its
    _pair_bound at sigma2.
    """
    n_samples = y.size
    w = wrap_angle(omegas)
    order = np.argsort(w, kind="stable")
    w, a = w[order], alphas[order]
    A = atom_table(w, n_samples)
    residual = y - A @ a
    sigma2 = float(np.vdot(residual, residual).real) / n_samples
    w_next = np.concatenate((w[1:], w[:1] + TWO_PI))
    delta, _, _ = _pair_bound(a, np.concatenate((a[1:], a[:1])), w, w_next, sigma2, n_samples)
    return w, a, A, residual, sigma2, w_next, delta


# Newton stops once |F / t - 1| <= _NEWTON_TOL; merge_radius's last step
# squares that residual, far below its rounding band. A root left open
# after _NEWTON_STEPS is still approached from below.
_NEWTON_STEPS = 12
_NEWTON_TOL = 2.0**-36


@lru_cache(maxsize=16)
def _radius_sums(n_samples: int):
    """Per-N terms of merge_radius: (n / 2, n^2, n^3) over n = 0 .. N-1, read-only, sum n^4 and sum n^6."""
    n = np.arange(n_samples, dtype=float)
    n2 = n * n
    powers = (0.5 * n, n2, n2 * n)
    for p in powers:
        p.flags.writeable = False
    return powers, float(np.sum(n2 * n2)), float(np.sum(n2**3))


def _flip_terms(d: np.ndarray, root_t: np.ndarray, n_samples: int):
    """(t / F(d), d ln F / d ln d, S(d)) per gap d, for sqrt(t) = root_t.

    F(d) = d^4 W with W = 2 sum n^2 (sin(n d / 2) / d)^2, which stays in
    range for any root a finite t can have. Each entry is summed along its
    own row, so its bits do not depend on the other entries.
    """
    (n_half, n2, n3), _, _ = _radius_sums(n_samples)
    x = np.multiply.outer(d, n_half)
    sin = np.sin(x)
    c = sin / d[:, None]
    c2 = np.sum(c * c * n2, axis=-1)
    # cos(x) from sin(x), x < pi: only the slope reads it, to a few ulp.
    cos = np.copysign(np.sqrt(1.0 - sin * sin), 0.5 * math.pi - x)
    slope = 2.0 + np.sum(c * cos * n3, axis=-1) / c2
    return (root_t / d / d) ** 2 / (2.0 * c2), slope, 2.0 * c2 * d * d


def merge_radius(alpha, sigma2: float, n_samples: int, cfg: OrderConfig, limit: float):
    """Largest spacing, up to ``limit``, at which merge_test fuses alpha split in two.

    The pair is two nodes with amplitude h = alpha / 2 each. For it,
    crb_pair's bound is sigma2 / (|h|^2 S(d)) with S(d) = rho1 - Re rho2(d)
    = 2 sum n^2 sin^2(n d / 2), so the pair fuses at gap d iff
    F(d) = d^2 S(d) is below t = sigma2 q^2 / |h|^2, q = Phi^{-1}(epsilon_f).
    On (0, 2 pi / N], F rises to one maximum (at 0.85 to 1 bin) and ln F is
    concave in ln d up to it. So the result is ``limit`` where F(limit) < t,
    and otherwise the root of F = t on the rising branch, by Newton's
    method in (ln d, ln F) from a start where F rises: since the tangent of
    a concave function lies above it, each step lands at or below the root.

    The root is then pulled in so that the merge test itself still fuses
    there: the last step aims at F = t / (1 + eta) instead of t. In units of
    u = 2^-53, rounding moves the test's decision by at most about
    76 R + 8 in ln F, with R = rho1^2 / (S (2 rho1 - S)) (its den,
    |h|^4 (rho1^2 - (Re rho2)^2), cancels to S (2 rho1 - S), and Re rho2's
    table and sum are good to about 30 rho1), and the closed form F by
    about 30; eta = 2^-46 (1 + R), S taken at the root, covers both.

    A zero amplitude or an infinite sigma2 fuses the pair at any gap, and a
    zero sigma2 (an exact fit, bound 0) at none; all three give ``limit``.
    ``alpha`` may be an array: a scalar gives a float, an array an array.
    Raises InvalidDimension for N < 2 or a limit outside (0, 2 pi / N].
    """
    if n_samples < 2:
        raise InvalidDimension("merge_radius needs at least two samples")
    limit = float(limit)
    if not 0.0 < limit <= TWO_PI / n_samples:
        raise InvalidDimension("merge_radius needs a limit in (0, 2*pi/N]")
    half = np.asarray(alpha, dtype=complex) / 2
    radius = np.full(half.size, limit)
    if 0.0 < sigma2 < math.inf:
        rho1 = sum_n_squared(n_samples)
        # sqrt(t), capped at 2 (2 pi / N) sqrt(rho1): F(limit) <= 2 limit^2 rho1
        # lies below that cap squared, so such a pair fuses at the limit
        # either way, and the cap keeps t finite.
        scale = math.sqrt(sigma2) * -_normal_quantile(cfg.epsilon_f)
        root_t = scale / np.maximum(np.abs(half.ravel()), scale / (2.0 * TWO_PI / n_samples * math.sqrt(rho1)))
        split = _flip_terms(np.array([limit]), root_t, n_samples)[0] <= 1.0  # F(limit) >= t
        root_t = root_t[split]
        # F(d) <= d^4 sum n^4 / 2, so the root is at least lo; the start is
        # the root of d^4 sum n^4 / 2 - d^6 sum n^6 / 24 = t to first order,
        # kept where F rises.
        _, sum_n4, sum_n6 = _radius_sums(n_samples)
        lo = np.sqrt(root_t) * (2.0 / sum_n4) ** 0.25
        d = np.maximum(lo, np.minimum(lo * (1.0 + lo * lo * (sum_n6 / (48.0 * sum_n4))), math.pi / (n_samples - 1)))
        ratio, slope, s_d = _flip_terms(d, root_t, n_samples)
        for _ in range(_NEWTON_STEPS):
            open_ = np.abs(ratio - 1.0) > _NEWTON_TOL
            if not open_.any():
                break
            d = np.where(open_, d * ratio ** (1.0 / slope), d)
            ratio, slope, s_d = _flip_terms(d, root_t, n_samples)
        with np.errstate(divide="ignore", over="ignore"):
            eta = 2.0**-46 * (1.0 + rho1**2 / (s_d * (2.0 * rho1 - s_d)))
        radius[split] = d * (ratio / (1.0 + eta)) ** (1.0 / slope)
    return float(radius[0]) if half.ndim == 0 else radius.reshape(half.shape)


def apply_merges(state: NetworkState, observed, cfg: OrderConfig):
    """Merge statistically indistinguishable neighbor nodes, then refit them.

    Nodes are wrapped into [0, 2*pi) and sorted. One circular walk tests
    each node i against its next neighbor j = (i + 1) mod M, shifted by
    2*pi for the wrap-around pair (last, first), with the current amplitudes
    and the residual noise estimate: merge_test on crb_pair's bound
    (_pair_bound; a singular pair bound means the nodes are already
    indistinguishable and forces the merge).
    All M adjacent pairs, the wrap-around one included, are tested at once.
    A fused pair becomes one node at the midpoint with the summed
    amplitude, which is tested again against its next neighbor; the
    wrap-around pair ends the walk. Every fused node then gets
    least-squares amplitudes (refit_amplitudes), so the result is a fitted
    model, wrapped and sorted; a state of fewer than two nodes is returned
    as it is. Returns (new state, list of MergeEvent). A walk that fuses
    nothing hands the table and residual of its noise estimate, on the new
    state, to apply_prunes.
    """
    y = as_samples(observed)
    n_samples = y.size
    if state.m_nodes <= 1:
        return state, []
    w, a, A, residual, sigma2, w_next, delta = _adjacent_pairs(y, state.omegas, state.alphas)
    # Until a node fuses, its next neighbor in the walk is its next neighbor
    # here, so only pairs that hold a fused node need a new test.
    adjacent = merge_test(w, w_next, delta, cfg)
    if not adjacent.any():
        # apply_prunes reads its statistics off this table and residual.
        return NetworkState._of(w, a, fit=(y.tobytes(), A, residual)), []

    ws, am, fused, origin = list(w), list(a), [False] * w.size, list(range(w.size))
    events: list[MergeEvent] = []
    i = 0
    while len(ws) > 1 and i < len(ws):
        j = (i + 1) % len(ws)
        shift = TWO_PI if j == 0 else 0.0
        if fused[i] or fused[j]:
            delta, _, _ = _pair_bound(am[i], am[j], ws[i], ws[j] + shift, sigma2, n_samples)
            fuses = merge_test(ws[i], ws[j] + shift, delta[0], cfg)
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
    return refit_amplitudes(merged_state, observed, np.array(fused)[order]), events


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
    fit) gives inf, or 0 for a node that adds no power (zero amplitude).
    """
    y = as_samples(observed)
    if state._fit is not None and state._fit[0] == y.tobytes():
        return _prune_statistics(y, *state._fit[1:], state.alphas)
    A = atom_table(state.omegas, y.size)
    return _prune_statistics(y, A, y - A @ state.alphas, state.alphas)


def _prune_statistics(y: np.ndarray, A: np.ndarray, residual: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """prune_statistics for a design matrix and residual the caller has already built."""
    den = float(np.vdot(residual, residual).real)
    power = np.abs(A.conj().T @ residual + y.size * alphas) ** 2
    return power / den if den != 0.0 else np.where(power > 0.0, math.inf, 0.0)


def prune_statistic(node_index: int, state: NetworkState, observed) -> float:
    """prune_statistics of one node; raises DegenerateResidual where it is inf (a perfect fit)."""
    if not 0 <= node_index < state.m_nodes:
        raise InvalidDimension("node index out of range")
    xi = float(prune_statistics(state, observed)[node_index])
    if math.isinf(xi):
        raise DegenerateResidual("perfect fit; the node statistic is unbounded")
    return xi


def _f2_upper_quantile(n_samples: int, m_nodes: int, cfg: OrderConfig):
    """(q, d2): the F(2, d2) quantile at 1 - epsilon_a, d2 = 2(N - M)."""
    if m_nodes < 1:
        raise InvalidDimension("prune test needs at least one node")
    if n_samples <= m_nodes:
        raise InvalidDimension(f"prune test needs fewer nodes than samples: M = {m_nodes}, N = {n_samples}")
    d2 = 2 * (n_samples - m_nodes)
    return f2_upper_quantile(math.log(cfg.epsilon_a), d2), d2


def prune_threshold(n_samples: int, m_nodes: int, cfg: OrderConfig) -> float:
    """CFAR keep threshold (N / (N - M)) * F^{-1}_{2, 2(N-M)}(1 - epsilon_a)."""
    return _keep_threshold(n_samples, m_nodes, cfg)


def _keep_threshold(n_samples: int, m_nodes: int, cfg: OrderConfig) -> float:
    """prune_threshold's value, for order_changes, which must not call it."""
    q, _ = _f2_upper_quantile(n_samples, m_nodes, cfg)
    return n_samples / (n_samples - m_nodes) * q


def apply_prunes(state: NetworkState, observed, cfg: OrderConfig):
    """Remove every node whose statistic falls below the CFAR threshold.

    All nodes are evaluated simultaneously against one threshold for the
    current (N, M), each on the power it adds (see prune_statistics); the
    state should be fitted, since the statistic is read off its residual.
    An M = 0 result is legal. A zero residual (perfect fit) keeps every
    node that adds power. The test needs fewer nodes than samples: the start
    and estimate_with_fixed_order admit fewer than N nodes and no pass adds
    one, and a state of M >= N nodes raises InvalidDimension (from
    prune_threshold). Returns (new state, PruneReport); the new state is the
    given one when every node is kept.
    """
    y = as_samples(observed)
    if state.m_nodes == 0:
        return state, PruneReport(np.zeros(0), math.inf, np.zeros(0, dtype=bool))
    threshold = prune_threshold(y.size, state.m_nodes, cfg)
    xi = prune_statistics(state, observed)
    keep = xi >= threshold
    kept = state if keep.all() else NetworkState._of(state.omegas[keep], state.alphas[keep])
    return kept, PruneReport(xi, float(threshold), keep)


def order_changes(state: NetworkState, observed, cfg: OrderConfig) -> bool:
    """Whether apply_merges, then apply_prunes on its result, would remove a node.

    The pipeline's look-ahead asks this of a polished copy of its state,
    which it drops when the answer is no. So the question is answered
    without calling apply_prunes or prune_threshold: a run calls each of
    those once per pass, and perfbench/spans.py counts them so.
    """
    merged, events = apply_merges(state, observed, cfg)
    if events:
        return True
    if merged.m_nodes == 0:
        return False
    threshold = _keep_threshold(as_samples(observed).size, merged.m_nodes, cfg)
    return bool(np.any(prune_statistics(merged, observed) < threshold))


def decision_margins(observed, cfg: OrderConfig, omegas, alphas) -> tuple[float, float]:
    """How far the merge and prune tests are from removing one of the nodes.

    Returns (the smallest gap over its merge bound among the adjacent pairs,
    inf for one node; the smallest xi over the keep threshold), at the
    nodes as given, with the residual noise estimate: each ratio falls
    below 1 where apply_merges would fuse that pair or apply_prunes would
    remove that node. train_inner's drift guard reads them. Like
    order_changes, it does not call prune_threshold.
    """
    y = as_samples(observed)
    w, a, A, residual, _, w_next, delta = _adjacent_pairs(y, omegas, alphas)
    gap = math.inf
    if w.size > 1:
        bound = _merge_bound(delta, cfg)
        ratio = np.divide(w_next - w, bound, out=np.full(w.size, math.inf), where=bound > 0.0)
        gap = float(ratio.min())
    xi = _prune_statistics(y, A, residual, a)
    return gap, float(xi.min()) / _keep_threshold(y.size, w.size, cfg)


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

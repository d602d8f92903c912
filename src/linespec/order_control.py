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

import numpy as np

from .errors import (
    DegenerateResidual,
    InvalidDimension,
    SingularInformation,
)
from .optimizer import NetworkState, cost, sum_n_squared
from .signal_model import TWO_PI, as_samples, design_matrix, ls_amplitudes
from .stat_dist import FParams, f2_upper_quantile, noncentral_f_sf, std_normal_inv_cdf


@dataclass(frozen=True)
class OrderConfig:
    """Hypothesis-test parameters for merging and pruning.

    ``delta_omega_min`` is the frequency difference below which two nodes
    are considered one component (0 keeps the decision purely statistical).
    ``epsilon_f`` is the significance of the merge test and ``epsilon_a``
    the false-alarm rate of the prune test.
    """

    delta_omega_min: float = 0.0
    epsilon_f: float = 1e-6
    epsilon_a: float = 1e-6

    def __post_init__(self):
        if self.delta_omega_min < 0:
            raise InvalidDimension("delta_omega_min must be nonnegative")
        if not (0.0 < self.epsilon_f < 1.0 and 0.0 < self.epsilon_a < 1.0):
            raise InvalidDimension("test levels must lie in (0, 1)")


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


def rho(omega_i: float, omega_j: float, n_samples: int):
    """Weighted index sums of the pair Fisher information.

    Returns (rho1, rho2) with rho1 = sum n^2 and
    rho2 = sum n^2 * exp(j * (omega_j - omega_i) * n) over n = 0 .. N-1.
    """
    if n_samples < 2:
        raise InvalidDimension("rho needs at least two samples")
    n = np.arange(n_samples)
    n2 = n.astype(float) ** 2
    rho2 = complex(np.sum(n2 * np.exp(1j * (omega_j - omega_i) * n)))
    return sum_n_squared(n_samples), rho2


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

    The pair merges when omega_hi - omega_lo < delta_omega_min
    - sqrt(crb_delta) * Phi^{-1}(epsilon_f); the quantile is negative for
    small epsilon_f, so the bound grows with the CRB.
    """
    bound = cfg.delta_omega_min - math.sqrt(crb_delta) * std_normal_inv_cdf(cfg.epsilon_f)
    return (omega_hi - omega_lo) < bound


def _crb_delta_or_none(alpha_i, alpha_j, omega_i, omega_j, sigma2, n_samples):
    try:
        return crb_pair(alpha_i, alpha_j, omega_i, omega_j, sigma2, n_samples).crb_delta
    except SingularInformation:
        return None


def merge_radius(alpha: complex, sigma2: float, n_samples: int, cfg: OrderConfig, limit: float) -> float:
    """Largest spacing, up to ``limit``, at which merge_test fuses alpha split in two.

    The pair is two nodes with amplitude alpha / 2 each; the spacing is
    found by bisection of merge_test over crb_pair. A singular bound (zero
    amplitude or noise) counts as fused, as in apply_merges.
    """

    def fuses(gap: float) -> bool:
        cd = _crb_delta_or_none(alpha / 2, alpha / 2, 0.0, gap, sigma2, n_samples)
        return cd is None or merge_test(0.0, gap, cd, cfg)

    if fuses(limit):
        return limit
    lo, hi = 0.0, limit
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if fuses(mid):
            lo = mid
        else:
            hi = mid
    return lo


def apply_merges(state: NetworkState, observed, cfg: OrderConfig):
    """Merge statistically indistinguishable adjacent nodes.

    Nodes are sorted by frequency (wrapped into [0, 2*pi)) and adjacent
    pairs are tested left to right with the current amplitude estimates and
    the residual noise estimate; a merged node is immediately eligible for
    further merging with its next neighbor. The wrap-around pair (last,
    first + 2*pi) is tested once at the end. A singular pair bound means the
    nodes are already indistinguishable and forces the merge. Each merge
    averages the frequencies and sums the amplitudes. Returns (new state,
    list of MergeEvent).
    """
    y = as_samples(observed)
    n_samples = y.size
    m = state.m_nodes
    if m <= 1:
        return state, []
    w = np.mod(state.omegas, TWO_PI)
    order = np.argsort(w, kind="stable")
    w = w[order]
    a = state.alphas[order]
    sigma2 = estimate_noise_var(y, design_matrix(w, n_samples) @ a)

    ws, am = list(w), list(a)
    events: list[MergeEvent] = []
    i = 0
    while i + 1 < len(ws):
        wi, wj = ws[i], ws[i + 1]
        cd = _crb_delta_or_none(am[i], am[i + 1], wi, wj, sigma2, n_samples)
        if cd is None or merge_test(wi, wj, cd, cfg):
            merged = 0.5 * (wi + wj)
            events.append(MergeEvent(wi, wj, merged))
            ws[i] = merged
            am[i] = am[i] + am[i + 1]
            del ws[i + 1], am[i + 1]
        else:
            i += 1
    if len(ws) >= 2:
        wi, wj = ws[-1], ws[0]
        cd = _crb_delta_or_none(am[-1], am[0], wi, wj + TWO_PI, sigma2, n_samples)
        if cd is None or merge_test(wi, wj + TWO_PI, cd, cfg):
            merged = float(np.mod(0.5 * (wi + wj + TWO_PI), TWO_PI))
            events.append(MergeEvent(wi, wj, merged))
            am[0] = am[-1] + am[0]
            ws[0] = merged
            del ws[-1], am[-1]
    if not events:
        return NetworkState(w, a), []
    w = np.array(ws)
    a = np.array(am, dtype=np.complex128)
    order = np.argsort(w, kind="stable")
    return NetworkState(w[order], a[order]), events


def refit_amplitudes(state: NetworkState, observed, nodes) -> NetworkState:
    """Least-squares amplitudes for the selected nodes, the others held fixed.

    ``nodes`` is a boolean mask. The selected amplitudes are fitted jointly
    to the data minus the unselected nodes' contribution; frequencies are
    unchanged. apply_merges leaves a merged node at the midpoint with the
    summed amplitudes, which no fit produced; refitting it before
    apply_prunes keeps the residual, and so every node's statistic, that of
    a fitted model.
    """
    y = as_samples(observed)
    sel = np.asarray(nodes, dtype=bool)
    if sel.shape != (state.m_nodes,):
        raise InvalidDimension("node mask must have one entry per node")
    if not sel.any():
        return state
    target = y - design_matrix(state.omegas, y.size)[:, ~sel] @ state.alphas[~sel]
    alphas = state.alphas.copy()
    alphas[sel] = ls_amplitudes(state.omegas[sel], target)
    return NetworkState(state.omegas, alphas)


def prune_statistics(state: NetworkState, observed) -> np.ndarray:
    """Normalized power each node adds, |a_i^H (r + a_i alpha_i)|^2 / ||r||^2.

    r = y - A alpha is the residual of the state as given, so r + a_i alpha_i
    is the data minus every node but i and the projection measures what
    node i explains beyond the others: a node in the main lobe of a stronger
    tone no longer inherits that tone's power. Since a_i^H a_i = N the
    numerator is |a_i^H r + N alpha_i|^2. The statistic means what the F
    test assumes only for a fitted state; for atoms orthogonal to the other
    nodes' atoms it equals |a_i^H y|^2 / ||r||^2. A zero residual (perfect
    fit) gives inf for every node.
    """
    y = as_samples(observed)
    A = design_matrix(state.omegas, y.size)
    residual = y - A @ state.alphas
    den = float(np.vdot(residual, residual).real)
    if den == 0.0:
        return np.full(state.m_nodes, math.inf)
    return np.abs(A.conj().T @ residual + y.size * state.alphas) ** 2 / den


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

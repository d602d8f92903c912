"""End-to-end spectral estimation: init, train, merge, prune, repeat.

The outer loop alternates inner gradient training with one merge pass and
one prune pass until the structure stops changing. Merged nodes get
least-squares amplitudes before the prune pass, so pruning always judges a
fitted model. The inner tolerance is annealed across outer passes: early
passes stop training coarsely so that redundant nodes are merged or pruned
while they are cheap to remove, and later passes tighten the tolerance
down to a floor so the surviving nodes converge to full precision. The loop exits only when a floor-tolerance pass
makes no structural change (or the pass budget runs out).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateInput, InvalidDimension, NumericalDivergence, Overdetermined
from .fft_init import InitConfig, initialize
from .optimizer import (
    NetworkState,
    TrainConfig,
    forward,
    train_inner,
    wrap_frequencies,
)
from .order_control import (
    MergeEvent,
    OrderConfig,
    PruneReport,
    apply_merges,
    apply_prunes,
    estimate_noise_var,
    refit_amplitudes,
)
from .signal_model import TWO_PI, Sinusoid, as_samples, ls_amplitudes


def _default_train() -> TrainConfig:
    # The outer loop overrides eps_tol per pass; min_iter and consec_hits
    # guard each pass against stopping on a momentary flat spot of the cost.
    return TrainConfig(min_iter=30, consec_hits=3)


@dataclass(frozen=True)
class EstimatorConfig:
    """Configuration of the full estimation pipeline.

    ``eps_start``, ``eps_decay``, and ``eps_floor`` define the annealed
    inner-tolerance schedule: the first pass trains to ``eps_start``, each
    following pass multiplies the tolerance by ``eps_decay`` down to
    ``eps_floor``, and the loop exits once a floor-tolerance pass changes
    nothing. The schedule overrides ``train.eps_tol`` on every pass.
    """

    init: InitConfig = field(default_factory=InitConfig)
    train: TrainConfig = field(default_factory=_default_train)
    order: OrderConfig = field(default_factory=OrderConfig)
    max_outer: int = 20
    eps_start: float = 1e-2
    eps_decay: float = 0.1
    eps_floor: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.eps_floor <= self.eps_start:
            raise InvalidDimension("eps_floor must lie in (0, eps_start]")


@dataclass(frozen=True)
class RunReport:
    """Everything one estimation run produced.

    ``merge_events`` holds (outer_pass, MergeEvent) tuples and
    ``prune_events`` holds (outer_pass, PruneReport) tuples for passes that
    removed at least one node. ``cost_trace`` concatenates the per-pass
    inner training traces.
    """

    estimates: list[Sinusoid]
    sigma2_hat: float
    outer_iterations: int
    cost_trace: np.ndarray
    merge_events: list[tuple[int, MergeEvent]]
    prune_events: list[tuple[int, PruneReport]]

    @property
    def k_hat(self) -> int:
        return len(self.estimates)


def _finalize_state(state: NetworkState) -> list[Sinusoid]:
    """Wrap, sort, and deduplicate the surviving nodes into estimates."""
    state = wrap_frequencies(state)
    order = np.argsort(state.omegas, kind="stable")
    omegas = state.omegas[order]
    alphas = state.alphas[order]
    out: list[Sinusoid] = []
    for w, a in zip(omegas, alphas):
        if out and w == out[-1].omega:
            out[-1] = Sinusoid(out[-1].amplitude + a, w)
        else:
            out.append(Sinusoid(a, float(w)))
    return out


def _build_report(y, state, outer, traces, merge_events, prune_events) -> RunReport:
    estimates = _finalize_state(state)
    final = NetworkState([s.omega for s in estimates], [s.amplitude for s in estimates])
    sigma2 = estimate_noise_var(y, forward(final, y.size))
    trace = np.concatenate(traces) if traces else np.zeros(0)
    return RunReport(estimates, sigma2, outer, trace, merge_events, prune_events)


def _run_outer(y: np.ndarray, state: NetworkState, cfg: EstimatorConfig) -> RunReport:
    eps = cfg.eps_start
    outer = 0
    traces: list[np.ndarray] = []
    merge_events: list[tuple[int, MergeEvent]] = []
    prune_events: list[tuple[int, PruneReport]] = []
    while outer < cfg.max_outer and state.m_nodes > 0:
        outer += 1
        try:
            state, trace = train_inner(y, state, replace(cfg.train, eps_tol=eps))
        except NumericalDivergence as exc:
            exc.report = _build_report(y, state, outer, traces, merge_events, prune_events)
            raise
        traces.append(trace.mean_costs)
        state, merged = apply_merges(state, y, cfg.order)
        merge_events.extend((outer, e) for e in merged)
        if merged:
            fused = np.isin(state.omegas, [e.omega_merged for e in merged])
            state = refit_amplitudes(state, y, fused)
        state, prune_report = apply_prunes(state, y, cfg.order)
        pruned = not bool(np.all(prune_report.keep_mask))
        if pruned:
            prune_events.append((outer, prune_report))
        if not (merged or pruned) and eps <= cfg.eps_floor * (1.0 + 1e-9):
            break
        eps = max(eps * cfg.eps_decay, cfg.eps_floor)
    return _build_report(y, state, outer, traces, merge_events, prune_events)


def estimate_spectrum(observed, cfg: EstimatorConfig | None = None) -> RunReport:
    """Estimate the sinusoids in a signal, including how many there are.

    Initializes the network from the zero-padded FFT, then loops inner
    training, merging, and pruning until the structure is stable. An empty
    initialization (nothing clears the peak gate) returns an empty estimate
    immediately.
    """
    if cfg is None:
        cfg = EstimatorConfig()
    y = as_samples(observed)
    state = initialize(y, cfg.init, cfg.order)
    if state.m_nodes == 0:
        return _build_report(y, state, 0, [], [], [])
    return _run_outer(y, state, cfg)


def estimate_with_fixed_order(observed, omegas0, cfg: EstimatorConfig | None = None) -> RunReport:
    """Run the estimation loop from caller-supplied initial frequencies.

    The initial amplitudes come from a least-squares fit at the given
    frequencies; everything after that is identical to estimate_spectrum
    (merging and pruning may still change the order; duplicate starts
    fuse). More starts than samples raise Overdetermined.
    """
    if cfg is None:
        cfg = EstimatorConfig()
    y = as_samples(observed)
    w0 = np.atleast_1d(np.asarray(omegas0, dtype=float))
    if not np.all(np.isfinite(w0)):
        raise DegenerateInput("initial frequencies must be finite")
    if w0.size > y.size:
        raise Overdetermined(f"{w0.size} initial frequencies exceed {y.size} samples")
    w0 = np.sort(np.mod(w0, TWO_PI))
    return _run_outer(y, NetworkState(w0, ls_amplitudes(w0, y)), cfg)

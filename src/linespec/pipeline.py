"""End-to-end spectral estimation: init, train, merge, prune, repeat.

The outer loop alternates inner gradient training with one merge pass and
one prune pass until the structure stops changing. The merge pass refits
the nodes it fuses by least squares, so pruning always judges a fitted
model. The inner tolerance is annealed across outer passes: early
passes stop training coarsely so that redundant nodes are merged or pruned
while they are cheap to remove, and later passes tighten the tolerance
down to a floor so the surviving nodes converge to full precision: pass k
(from 0) trains to max(10^-(EPS_START_DECADE + k), train.eps_tol), an
exact power of ten or the floor itself. The loop exits when a floor pass
makes no structural change, after MAX_PASSES passes, or when no node is
left.

Before a pass whose tolerance is within a decade of the floor, if the pass
before it ran past its first chance to stop (min_iter + _CONSEC_HITS
iterations), the loop looks ahead: it polishes a copy of the state with
optimizer.polish_frequencies and asks whether one merge and prune pass on
that copy would change the order. Only then does the pass train from the
polished copy; otherwise the copy is dropped and the pass trains as if the
look-ahead had not run. A node that gradient descent would drag toward its
fate over thousands of iterations reaches it in one polish.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateInput, InvalidDimension, NumericalDivergence, Overdetermined
from .fft_init import initialize
from .optimizer import (
    _CONSEC_HITS,
    CostTrace,
    NetworkState,
    TrainConfig,
    forward,
    polish_frequencies,
    train_inner,
)
from .order_control import (
    MergeEvent,
    OrderConfig,
    PruneReport,
    apply_merges,
    apply_prunes,
    estimate_noise_var,
    order_changes,
)
from .signal_model import Sinusoid, as_samples, ls_amplitudes, wrap_angle


EPS_START_DECADE = 2
MAX_PASSES = 20


@dataclass(frozen=True)
class EstimatorConfig:
    """Configuration of the full estimation pipeline.

    Every outer pass trains with ``train``, at the annealed tolerance whose
    floor is ``train.eps_tol``; that floor may not exceed the schedule's
    start, 10^-EPS_START_DECADE. The loop exits once a pass at the floor
    changes nothing.
    """

    train: TrainConfig = field(default_factory=TrainConfig)
    order: OrderConfig = field(default_factory=OrderConfig)

    def __post_init__(self):
        if self.train.eps_tol > 10.0**-EPS_START_DECADE:
            raise InvalidDimension(
                f"train.eps_tol must be at most {10.0**-EPS_START_DECADE:g},"
                " where the annealing schedule starts"
            )


@dataclass(frozen=True)
class RunReport:
    """Everything one estimation run produced.

    ``merge_events`` holds (outer_pass, MergeEvent) tuples and
    ``prune_events`` holds (outer_pass, PruneReport) tuples for passes that
    removed at least one node. ``cost_trace`` concatenates the per-pass
    inner training traces. ``polish_events`` holds (outer_pass, CostTrace)
    tuples, the polisher's trace, for the passes that trained from the
    look-ahead's polished state.
    """

    estimates: list[Sinusoid]
    sigma2_hat: float
    outer_iterations: int
    cost_trace: np.ndarray
    merge_events: list[tuple[int, MergeEvent]]
    prune_events: list[tuple[int, PruneReport]]
    polish_events: list[tuple[int, CostTrace]] = field(default_factory=list)

    @property
    def k_hat(self) -> int:
        return len(self.estimates)


def _build_report(y, state, outer, traces, merge_events, prune_events, polish_events) -> RunReport:
    # A pass leaves its state wrapped and sorted, but for a lone node, which
    # apply_merges passes through as trained; Sinusoid wraps that one.
    estimates = [Sinusoid(a, w) for w, a in zip(state.omegas, state.alphas)]
    final = NetworkState([s.omega for s in estimates], [s.amplitude for s in estimates])
    sigma2 = estimate_noise_var(y, forward(final, y.size))
    trace = np.concatenate(traces) if traces else np.zeros(0)
    return RunReport(estimates, sigma2, outer, trace, merge_events, prune_events, polish_events)


def _run_outer(y: np.ndarray, state: NetworkState, cfg: EstimatorConfig) -> RunReport:
    outer = 0
    traces: list[np.ndarray] = []
    merge_events: list[tuple[int, MergeEvent]] = []
    prune_events: list[tuple[int, PruneReport]] = []
    polish_events: list[tuple[int, CostTrace]] = []
    first_stop = cfg.train.min_iter + _CONSEC_HITS
    ran_on = False
    while outer < MAX_PASSES and state.m_nodes > 0:
        eps = max(10.0 ** -(EPS_START_DECADE + outer), cfg.train.eps_tol)
        outer += 1
        try:
            if ran_on and eps <= 10.0 * cfg.train.eps_tol:
                polished, polish_trace = polish_frequencies(y, state)
                if order_changes(polished, y, cfg.order):
                    state = polished
                    polish_events.append((outer, polish_trace))
            state, trace = train_inner(y, state, replace(cfg.train, eps_tol=eps))
        except NumericalDivergence as exc:
            exc.report = _build_report(y, state, outer, traces, merge_events, prune_events, polish_events)
            raise
        traces.append(trace.mean_costs)
        ran_on = trace.iterations_run > first_stop
        state, merged = apply_merges(state, y, cfg.order)
        merge_events.extend((outer, e) for e in merged)
        state, prune_report = apply_prunes(state, y, cfg.order)
        pruned = not bool(np.all(prune_report.keep_mask))
        if pruned:
            prune_events.append((outer, prune_report))
        if not (merged or pruned) and eps == cfg.train.eps_tol:
            break
    return _build_report(y, state, outer, traces, merge_events, prune_events, polish_events)


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
    state = initialize(y, cfg.order)
    if state.m_nodes == 0:
        return _build_report(y, state, 0, [], [], [], [])
    return _run_outer(y, state, cfg)


def estimate_with_fixed_order(observed, omegas0, cfg: EstimatorConfig | None = None) -> RunReport:
    """Run the estimation loop from caller-supplied initial frequencies.

    The initial amplitudes come from a least-squares fit at the given
    frequencies; everything after that is identical to estimate_spectrum
    (merging and pruning may still change the order; duplicate starts
    fuse). The prune test needs fewer nodes than samples, so as many starts
    as samples or more raise Overdetermined.
    """
    if cfg is None:
        cfg = EstimatorConfig()
    y = as_samples(observed)
    w0 = np.atleast_1d(np.asarray(omegas0, dtype=float))
    if not np.all(np.isfinite(w0)):
        raise DegenerateInput("initial frequencies must be finite")
    if w0.size >= y.size:
        raise Overdetermined(f"{w0.size} initial frequencies need more than {y.size} samples")
    w0 = np.sort(wrap_angle(w0))
    return _run_outer(y, NetworkState(w0, ls_amplitudes(w0, y)), cfg)

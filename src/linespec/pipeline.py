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

A pass's training also ends at optimizer.train_inner's crawl test, once
its total cost fell by less than 0.005 sigma2_hat over the last 197
iterations, and such a pass counts as converged ("crawl"); only a pass
that reaches max_iter does not. One object answers the run's order
question: order_control.decision_margins on its signal and order config,
which falls below 1 where one merge and prune pass would remove a node.
The loop hands it to train_inner as the drift guard, so a pass goes on
past the crawl test while a node is drifting toward a merge or prune
decision that the pass's remaining budget would reach, and the
look-ahead below asks it too. It remembers its last answer, so the
guard's first question in a pass that trains from an adopted polish,
about the copy the look-ahead has just asked about, is not asked again.

One rule, at the end of a pass that merged and pruned nothing, sets what
the next pass starts from. If the pass halved no rate, returned its last
iterate and kept its node order through apply_merges' sort, and the next
pass is not the first within a decade of the floor, the next pass
continues the descent from its momentum (NetworkState.velocity) and skips
the min_iter wait of a start from rest. Otherwise it starts from rest, a
lone node too; the first pass within a decade of the floor does so that
a drifting node runs long enough there to trigger the look-ahead.

Before a pass whose tolerance is within a decade of the floor, if the pass
before it ran past its first chance to stop (min_iter + _CONSEC_HITS
iterations), the loop looks ahead: it polishes a copy of the state with
optimizer.polish_frequencies and asks decision_margins whether one merge
and prune pass on that copy would remove a node. Only then does the pass
train from the polished copy; otherwise the copy is dropped and the pass
trains as if the look-ahead had not run. A node that gradient descent
would drag toward its fate over thousands of iterations reaches it in one
polish.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

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
    decision_margins,
    estimate_noise_var,
)
from .signal_model import Signal, Sinusoid, ls_amplitudes, wrap_angle


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


def _build_report(signal, state, outer, traces, merge_events, prune_events, polish_events) -> RunReport:
    # A pass leaves its state wrapped and sorted, but for a lone node, which
    # apply_merges passes through as trained; Sinusoid wraps that one.
    estimates = [Sinusoid(a, w) for w, a in zip(state.omegas, state.alphas)]
    final = NetworkState([s.omega for s in estimates], [s.amplitude for s in estimates])
    sigma2 = estimate_noise_var(signal, forward(final, signal.n_samples))
    trace = np.concatenate(traces) if traces else np.zeros(0)
    return RunReport(estimates, sigma2, outer, trace, merge_events, prune_events, polish_events)


_pass_config = lru_cache(maxsize=64)(replace)  # one TrainConfig per (train, eps)


def _last_answer(margins):
    """margins with a one-entry memo keyed by the bytes of the arrays it was last asked about.

    After an adopted look-ahead polish, train_inner's drift guard asks
    about the copy the look-ahead has just asked about; it gets that answer.
    """
    last = [None, None]

    def ask(omegas, alphas):
        key = (omegas.tobytes(), alphas.tobytes())
        if key != last[0]:
            last[:] = key, margins(omegas, alphas)
        return last[1]

    return ask


def _run_outer(signal: Signal, state: NetworkState, cfg: EstimatorConfig) -> RunReport:
    # Every stage takes the Signal, so the samples are checked once a run.
    outer = 0
    traces: list[np.ndarray] = []
    merge_events: list[tuple[int, MergeEvent]] = []
    prune_events: list[tuple[int, PruneReport]] = []
    polish_events: list[tuple[int, CostTrace]] = []
    first_stop = cfg.train.min_iter + _CONSEC_HITS
    zone = 10.0 * cfg.train.eps_tol
    margins = _last_answer(partial(decision_margins, signal, cfg.order))
    ran_on = False
    while outer < MAX_PASSES and state.m_nodes > 0:
        eps = max(10.0 ** -(EPS_START_DECADE + outer), cfg.train.eps_tol)
        outer += 1
        try:
            if ran_on and eps <= zone:
                polished, polish_trace = polish_frequencies(signal, state)
                if min(margins(polished.omegas, polished.alphas)) < 1.0:
                    state = polished
                    polish_events.append((outer, polish_trace))
            trained, trace = train_inner(signal, state, _pass_config(cfg.train, eps_tol=eps), margins)
        except NumericalDivergence as exc:
            exc.report = _build_report(signal, state, outer, traces, merge_events, prune_events, polish_events)
            raise
        traces.append(trace.mean_costs)
        ran_on = trace.iterations_run > first_stop
        state, merged = apply_merges(trained, signal, cfg.order)
        merge_events.extend((outer, e) for e in merged)
        state, prune_report = apply_prunes(state, signal, cfg.order)
        pruned = not prune_report.keep_mask.all()
        if pruned:
            prune_events.append((outer, prune_report))
        if not (merged or pruned):
            if eps == cfg.train.eps_tol:
                break
            # The next pass continues this descent unless this pass halved a
            # rate or merging reordered its nodes, or the next pass is the
            # first in the look-ahead zone: continued, that one can stop
            # before a drifting node shows, and no look-ahead would follow.
            steady = trace.halvings == 0 and (np.diff(wrap_angle(trained.omegas)) >= 0).all()
            enters_zone = eps > zone >= 10.0 ** -(EPS_START_DECADE + outer)
            velocity = trained.velocity if steady and not enters_zone else None
            state = NetworkState._of(state.omegas, state.alphas, velocity)
    return _build_report(signal, state, outer, traces, merge_events, prune_events, polish_events)


def estimate_spectrum(observed, cfg: EstimatorConfig | None = None) -> RunReport:
    """Estimate the sinusoids in a signal, including how many there are.

    Initializes the network from the zero-padded FFT, then loops inner
    training, merging, and pruning until the structure is stable. An empty
    initialization (nothing clears the peak gate) returns an empty estimate
    immediately.
    """
    if cfg is None:
        cfg = EstimatorConfig()
    signal = observed if isinstance(observed, Signal) else Signal(observed)
    state = initialize(signal, cfg.order)
    if state.m_nodes == 0:
        return _build_report(signal, state, 0, [], [], [], [])
    return _run_outer(signal, state, cfg)


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
    signal = observed if isinstance(observed, Signal) else Signal(observed)
    w0 = np.atleast_1d(np.asarray(omegas0, dtype=float))
    if not np.all(np.isfinite(w0)):
        raise DegenerateInput("initial frequencies must be finite")
    if w0.size >= signal.n_samples:
        raise Overdetermined(f"{w0.size} initial frequencies need more than {signal.n_samples} samples")
    w0 = np.sort(wrap_angle(w0))
    return _run_outer(signal, NetworkState(w0, ls_amplitudes(w0, signal.samples)), cfg)

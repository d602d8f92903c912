"""End-to-end tests of the estimation loop.

Order selection is a statistical decision that needs a genuine noise floor:
with (near) zero noise every node's power statistic diverges and redundant
nodes survive, so the clean-signal test checks reconstruction quality and
frequency accuracy rather than the reported count. Counting is asserted at
moderate SNR where the thresholds are calibrated to operate.
"""

import math
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from linespec import optimizer, order_control, pipeline
from linespec.errors import DegenerateInput, InvalidDimension, NumericalDivergence, Overdetermined
from linespec.optimizer import NetworkState, TrainConfig, polish_frequencies, train_inner
from linespec.order_control import (
    OrderConfig,
    apply_merges,
    apply_prunes,
    decision_margins,
    prune_statistics,
)
from linespec.pipeline import (
    MAX_PASSES,
    EstimatorConfig,
    RunReport,
    estimate_spectrum,
    estimate_with_fixed_order,
)
from linespec.experiments import _cluster_draw, _cluster_init, _draw_signal, sample_well_separated
from linespec.signal_model import TWO_PI, Sinusoid, atom_table, design_matrix

N = 32
FREQS = TWO_PI * np.array([0.1, 0.22, 0.37])
AMPS = np.array([1.0 + 0.5j, -0.7 + 0.2j, 0.3 - 1.1j])


def _clean_signal():
    return design_matrix(FREQS, N) @ AMPS


def _noisy_signal(seed=42, snr_db=20.0):
    x = _clean_signal()
    sig2 = np.sum(np.abs(AMPS) ** 2) / 10 ** (snr_db / 10)
    rng = np.random.default_rng(seed)
    e = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * np.sqrt(sig2 / 2)
    return x + e, sig2


def test_clean_tones_reconstructed_to_high_accuracy():
    x = _clean_signal()
    rep = estimate_spectrum(x)
    assert rep.k_hat >= 3
    west = np.array([s.omega for s in rep.estimates])
    aest = np.array([s.amplitude for s in rep.estimates])
    xhat = design_matrix(west, N) @ aest
    assert np.linalg.norm(xhat - x) < 0.01 * np.linalg.norm(x)
    for f in FREQS:
        assert np.min(np.abs(west - f)) < 0.01  # radians; a fine bin is 0.049


def test_moderate_noise_recovers_count_and_frequencies():
    y, sig2 = _noisy_signal()
    rep = estimate_spectrum(y)
    assert rep.k_hat == 3
    west = np.array([s.omega for s in rep.estimates])
    assert np.abs(west - FREQS).max() < 0.01
    assert 0.2 * sig2 < rep.sigma2_hat < 5.0 * sig2


def test_pure_noise_returns_empty_report():
    rng = np.random.default_rng(3)
    e = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / np.sqrt(2)
    rep = estimate_spectrum(e)
    assert rep.k_hat == 0
    assert rep.estimates == []
    assert rep.outer_iterations == 0
    assert rep.cost_trace.size == 0
    assert rep.merge_events == [] and rep.prune_events == []
    assert rep.sigma2_hat == pytest.approx(np.vdot(e, e).real / N, rel=1e-12)


def test_report_invariants():
    y, _ = _noisy_signal()
    rep = estimate_spectrum(y)
    assert isinstance(rep, RunReport)
    assert rep.k_hat == len(rep.estimates)
    assert all(isinstance(s, Sinusoid) for s in rep.estimates)
    west = np.array([s.omega for s in rep.estimates])
    assert np.all(west >= 0) and np.all(west < TWO_PI)
    assert np.all(np.diff(west) > 0)  # sorted, no duplicates
    assert 1 <= rep.outer_iterations <= 20
    assert rep.cost_trace.size > 0
    assert np.all(np.isfinite(rep.cost_trace))
    for outer_pass, event in rep.merge_events:
        assert 1 <= outer_pass <= rep.outer_iterations
    for outer_pass, report in rep.prune_events:
        assert 1 <= outer_pass <= rep.outer_iterations
        assert not np.all(report.keep_mask)
    assert rep.sigma2_hat >= 0


DECADES = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]


def _record_tolerances(monkeypatch) -> list[float]:
    seen: list[float] = []

    def recording(y, state, cfg, margins):
        seen.append(cfg.eps_tol)
        return train_inner(y, state, cfg, margins)

    monkeypatch.setattr(pipeline, "train_inner", recording)
    return seen


@pytest.mark.parametrize("floor", [1e-9, 1e-6, 1e-2])
def test_passes_train_at_exact_decades_down_to_the_floor(monkeypatch, floor):
    seen = _record_tolerances(monkeypatch)
    y, _ = _noisy_signal()
    rep = estimate_spectrum(y, EstimatorConfig(train=TrainConfig(eps_tol=floor)))
    decades = DECADES[: DECADES.index(floor) + 1]
    assert seen[: len(decades)] == decades
    assert seen[len(decades):] == [floor] * (len(seen) - len(decades))
    assert len(seen) == rep.outer_iterations <= MAX_PASSES == 20


def test_a_run_that_never_settles_stops_at_the_pass_cap(monkeypatch):
    # Every pass reports a prune, so no floor pass ends the run.
    seen = _record_tolerances(monkeypatch)

    def always_prunes(state, y, order):
        state, report = apply_prunes(state, y, order)
        return state, replace(report, keep_mask=np.zeros_like(report.keep_mask))

    monkeypatch.setattr(pipeline, "apply_prunes", always_prunes)
    y, _ = _noisy_signal()
    rep = estimate_spectrum(y)
    assert rep.outer_iterations == MAX_PASSES
    assert seen == DECADES + [1e-9] * (MAX_PASSES - len(DECADES))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "run",
    [estimate_spectrum, lambda y: estimate_with_fixed_order(y, [FREQS[0]])],
    ids=["estimate_spectrum", "estimate_with_fixed_order"],
)
def test_non_finite_sample_is_rejected(run, bad):
    y, _ = _noisy_signal()
    y[7] = bad
    with pytest.raises(DegenerateInput):
        run(y)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "stage",
    [
        lambda y, s: apply_merges(s, y, OrderConfig()),
        lambda y, s: apply_prunes(s, y, OrderConfig()),
        lambda y, s: decision_margins(y, OrderConfig(), s.omegas, s.alphas),
        lambda y, s: prune_statistics(s, y),
        lambda y, s: train_inner(y, s, TrainConfig()),
        lambda y, s: polish_frequencies(y, s),
    ],
    ids=["apply_merges", "apply_prunes", "decision_margins", "prune_statistics", "train_inner", "polish_frequencies"],
)
def test_each_stage_rejects_a_non_finite_sample(stage, bad):
    # A run checks its samples once; each stage called on its own checks
    # them too.
    y, _ = _noisy_signal()
    y[7] = bad
    with pytest.raises(DegenerateInput):
        stage(y, NetworkState(FREQS, AMPS))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e154, 1e155])
def test_overflowing_signal_energy_is_rejected(scale):
    # Every sample is finite, but sum |y[n]|^2 overflows: the estimate used
    # to end at k_hat = 0 with sigma2_hat inf (1e154) or NaN (1e155).
    with pytest.raises(DegenerateInput, match="energy"):
        estimate_spectrum(scale * np.exp(0.3j * np.arange(8)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fixed_order_non_finite_start_is_rejected(bad):
    y, _ = _noisy_signal()
    with pytest.raises(DegenerateInput):
        estimate_with_fixed_order(y, [FREQS[0], bad])


@pytest.mark.parametrize("extra", [0, 8])
def test_fixed_order_as_many_starts_as_samples_or_more_is_rejected(extra):
    # The prune test needs fewer nodes than samples.
    y, _ = _noisy_signal()
    with pytest.raises(Overdetermined):
        estimate_with_fixed_order(y, TWO_PI * np.arange(N + extra) / (N + extra))


def test_fixed_order_one_start_fewer_than_samples_runs():
    # N - 1 starts is the largest model the prune test can judge.
    y, _ = _noisy_signal()
    report = estimate_with_fixed_order(y, TWO_PI * np.arange(N - 1) / (N - 1))
    assert 0 < report.k_hat < N


@pytest.mark.parametrize(
    "stage",
    [
        lambda y: train_inner(y, NetworkState([[0.6], [1.4]], [[1.0], [1.0]]), TrainConfig()),
        lambda y: apply_prunes(NetworkState([[0.6], [1.4]], [1.0, 1.0]), y, OrderConfig()),
        lambda y: estimate_with_fixed_order(y, [[0.6], [1.4]]),
    ],
    ids=["train_inner", "apply_prunes", "estimate_with_fixed_order"],
)
def test_a_state_of_2d_vectors_is_rejected(stage):
    # Each stage once failed on such a state with a bare numpy error.
    y, _ = _noisy_signal()
    with pytest.raises(InvalidDimension, match="1-d"):
        stage(y)


def test_tolerance_floor_above_start_is_rejected():
    # train.eps_tol is the schedule's floor, so it may not lie above the
    # tolerance of the first pass.
    with pytest.raises(InvalidDimension, match="train.eps_tol"):
        EstimatorConfig(train=TrainConfig(eps_tol=0.1))
    with pytest.raises(InvalidDimension, match="train.eps_tol"):
        EstimatorConfig(train=TrainConfig(eps_tol=np.nextafter(1e-2, 1.0)))


def _settable(cfg, prefix="") -> list[str]:
    names = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            names += _settable(value, f"{prefix}{f.name}.")
        else:
            names.append(prefix + f.name)
    return names


def test_estimator_config_has_exactly_eight_settable_values():
    # A new setting must be a deliberate change to this list.
    assert sorted(_settable(EstimatorConfig())) == sorted([
        "train.gamma_alpha", "train.gamma_omega", "train.momentum",
        "train.eps_tol", "train.max_iter", "train.min_iter",
        "order.epsilon_f", "order.epsilon_a",
    ])


def test_default_config_is_what_every_pass_trains_with(monkeypatch):
    # Each pass trains with EstimatorConfig().train == TrainConfig(), but
    # for the tolerance the schedule sets.
    seen: list[TrainConfig] = []

    def recording(y, state, cfg, margins):
        seen.append(cfg)
        return train_inner(y, state, cfg, margins)

    monkeypatch.setattr(pipeline, "train_inner", recording)
    y, _ = _noisy_signal()
    estimate_spectrum(y)
    assert EstimatorConfig().train == TrainConfig()
    assert seen and all(replace(cfg, eps_tol=TrainConfig().eps_tol) == TrainConfig() for cfg in seen)


def test_fixed_order_straddling_pair_merges_to_one():
    # One noisy tone, two initial nodes half a coarse bin to each side.
    # The pair is statistically one component and collapses (this specific
    # noise draw resolves it through the merge test).
    w0 = TWO_PI * 0.3
    x = 2.0 * np.exp(1j * w0 * np.arange(N))
    rng = np.random.default_rng(1)
    e = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * np.sqrt(0.4 / 2)
    off = TWO_PI / (4 * N)
    rep = estimate_with_fixed_order(x + e, [w0 - off, w0 + off])
    assert rep.k_hat == 1
    assert len(rep.merge_events) == 1
    assert abs(rep.estimates[0].omega - w0) < 0.02
    assert abs(rep.estimates[0].amplitude - 2.0) < 0.2


@pytest.mark.parametrize("gap", [0.0, 1e-13], ids=["equal", "1e-13-apart"])
def test_fixed_order_duplicate_starts_fuse_into_one(gap):
    # Coincident starts share the tone's amplitude in the first fit, and
    # the first merge pass fuses them into one node.
    w0 = TWO_PI * 0.3
    x = 2.0 * np.exp(1j * w0 * np.arange(N))
    rng = np.random.default_rng(1)
    e = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * np.sqrt(0.18 / 2)
    rep = estimate_with_fixed_order(x + e, [w0, w0 + gap])
    assert rep.k_hat == 1
    assert len(rep.merge_events) == 1
    assert abs(rep.estimates[0].omega - w0) < 0.02
    assert abs(rep.estimates[0].amplitude - 2.0) < 0.2


def test_fixed_order_on_noise_prunes_to_zero():
    rng = np.random.default_rng(3)
    e = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / np.sqrt(2)
    rep = estimate_with_fixed_order(e, [TWO_PI * 0.25])
    assert rep.k_hat == 0
    assert len(rep.prune_events) == 1


def test_fixed_order_on_a_zero_signal_keeps_no_zero_amplitude_node():
    # Zero data are fitted exactly by nodes of zero amplitude. Such a node
    # adds no power, so the prune test drops it instead of keeping it on an
    # unbounded statistic.
    rep = estimate_with_fixed_order(np.zeros(16), [0.3, 2.0])
    assert rep.k_hat == 0
    assert rep.estimates == []


def test_fixed_order_empty_initialization():
    y, _ = _noisy_signal()
    rep = estimate_with_fixed_order(y, [])
    assert rep.k_hat == 0
    assert rep.outer_iterations == 0


def test_divergence_carries_partial_report():
    y, _ = _noisy_signal()
    cfg = EstimatorConfig(train=TrainConfig(gamma_alpha=1e280))
    with pytest.raises(NumericalDivergence) as excinfo:
        estimate_spectrum(y, cfg)
    report = excinfo.value.report
    assert isinstance(report, RunReport)
    assert report.outer_iterations == 1


def test_runs_are_bitwise_deterministic():
    y, _ = _noisy_signal()
    a = estimate_spectrum(y)
    b = estimate_spectrum(y)
    assert a.k_hat == b.k_hat
    for sa, sb in zip(a.estimates, b.estimates):
        assert sa.omega == sb.omega
        assert sa.amplitude == sb.amplitude
    assert np.array_equal(a.cost_trace, b.cost_trace)
    assert a.sigma2_hat == b.sigma2_hat


def test_merged_nodes_are_refit_before_prune():
    # Acceptance 02's scene at seed 1048: tones at normalized 0.1, 0.115 and
    # 0.37, N = 32, SNR 10 dB, started from its six padded-FFT peak and
    # neighbor bins. Pass 1 merges three pairs. Pruned while the merged
    # nodes still held the midpoint and the summed amplitudes, the model's
    # residual energy was inflated enough that the close pair fell under the
    # threshold, and with the whole-data statistic the isolated tone at 0.37
    # went too.
    freqs = TWO_PI * np.array([0.1, 0.115, 0.37])
    rng = np.random.default_rng(1048)
    amps = np.exp(1j * rng.uniform(0.0, TWO_PI, 3))
    x = design_matrix(freqs, N) @ amps
    sig2 = float(np.vdot(x, x).real) / (N * 10.0)
    y = x + np.sqrt(sig2 / 2.0) * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    start = TWO_PI * np.array([12, 13, 15, 16, 47, 48]) / (4 * N)
    rep = estimate_with_fixed_order(y, start)
    assert rep.merge_events
    assert rep.k_hat == 3
    west = np.array([s.omega for s in rep.estimates])
    assert np.min(np.abs(west - freqs[2])) < 0.05


def _sep3(seed):
    """The sep3_n32 benchmark scene of this seed (perfbench/scenes.py draws it so)."""
    y, _, _ = _draw_signal(FREQS, np.ones(3), N, 20.0, np.random.default_rng(seed))
    return y


def _inner_iterations(report):
    return report.cost_trace.size - report.outer_iterations  # one initial cost per pass


def test_passes_that_stop_at_their_first_chance_never_look_ahead(monkeypatch):
    # Seed 7000's passes all stop at their first chance: min_iter + 3 = 33
    # iterations from rest, fewer (3, 21, 6 and 3) where a pass continues
    # the descent of one that changed nothing. So no pass gives the
    # look-ahead a reason to run, and it costs nothing.
    def fail(*args):
        raise AssertionError("the look-ahead ran")

    monkeypatch.setattr(pipeline, "polish_frequencies", fail)
    report = estimate_spectrum(_sep3(7000))
    assert report.k_hat == 3
    assert _inner_iterations(report) == 4 * 33 + 3 + 21 + 6 + 3
    assert report.polish_events == []


def _check_carries(monkeypatch, signals, eps_tol):
    """Run each signal at the floor eps_tol; return (continued passes, passes after a halving).

    A pass may start with a velocity only when the pass before it merged
    and pruned nothing and halved no rate, it trains no polished copy, and
    it is not the first pass within a decade of the floor (the 1e-8 pass
    at the default floor, the 1e-6 pass at 1e-7), which restarts.
    """
    cfg = EstimatorConfig(train=TrainConfig(eps_tol=eps_tol))
    seen: list[tuple[float, bool, int]] = []

    def recording(y, state, pass_cfg, margins):
        trained, trace = train_inner(y, state, pass_cfg, margins)
        seen.append((pass_cfg.eps_tol, state.velocity is not None, trace.halvings))
        return trained, trace

    monkeypatch.setattr(pipeline, "train_inner", recording)
    continued = after_halving = 0
    for i, y in enumerate(signals):
        seen.clear()
        report = estimate_spectrum(y, cfg)
        changed = {p for p, _ in report.merge_events + report.prune_events}
        polished = {p for p, _ in report.polish_events}
        first_in_zone = next(k for k, (eps, _, _) in enumerate(seen, start=1) if eps <= 10.0 * eps_tol)
        for k, (eps, moving, _) in enumerate(seen, start=1):
            halved = k > 1 and seen[k - 2][2] > 0
            after_halving += halved
            if moving:
                assert k > 1 and k - 1 not in changed and k not in polished, (eps_tol, i, k)
                assert not halved and k != first_in_zone, (eps_tol, i, k)
                continued += 1
    return continued, after_halving


def test_a_pass_continues_the_descent_only_after_a_pass_that_changed_nothing(monkeypatch):
    for eps_tol in (1e-9, 1e-7):
        continued, _ = _check_carries(monkeypatch, [_sep3(seed) for seed in range(7000, 7010)], eps_tol)
        assert continued > 0, eps_tol


def _one_tone(seed):
    """One unit tone at 0.3 cycles per sample, N = 16, 10 dB."""
    y, _, _ = _draw_signal(np.array([0.3 * TWO_PI]), np.ones(1), 16, 10.0, np.random.default_rng(seed))
    return y


def test_a_lone_node_starts_from_rest_after_a_pass_that_halved(monkeypatch):
    # apply_merges hands a lone node on as trained, velocity included, so
    # only the carry rule stops a halved descent from continuing. At
    # patience 2 most one-node passes halve.
    monkeypatch.setattr(optimizer, "_SAFEGUARD_PATIENCE", 2)
    for eps_tol in (1e-9, 1e-7):
        _, after_halving = _check_carries(monkeypatch, [_one_tone(seed) for seed in range(10)], eps_tol)
        assert after_halving > 0, eps_tol


def test_a_drifting_spare_node_is_settled_by_the_look_ahead():
    # Seed 7003 starts its last passes with four nodes against three tones.
    # Gradient descent drags the spare node for 15 366 iterations (its 1e-9
    # pass, which the drift guard holds off the crawl stop) before the prune
    # test removes it: 15 997 inner iterations in all. The polish takes it
    # to the least-squares optimum, where the prune test removes it at once.
    report = estimate_spectrum(_sep3(7003))
    assert report.k_hat == 3
    assert _inner_iterations(report) < 2000
    assert [p for p, _ in report.polish_events] == [p for p, _ in report.prune_events]
    (trace,) = [t for _, t in report.polish_events]
    assert trace.mean_costs[-1] < trace.mean_costs[0]


def test_a_look_ahead_that_keeps_the_order_leaves_the_run_as_it_was(monkeypatch):
    # The look-ahead runs on seed 7003 but is told the order stays: the
    # polished copy is dropped, and the run keeps the bits of a run with no
    # look-ahead at all (a trigger no pass can meet). Only the polished
    # copies are answered so: the drift guard asks the same
    # decision_margins and must see what it sees in the plain run.
    y = _sep3(7003)
    polished, answered = [], []

    def polish(*args):
        state, trace = polish_frequencies(*args)
        polished.append(state.omegas)
        return state, trace

    def margins(observed, cfg, omegas, alphas):
        if any(omegas is w for w in polished):
            answered.append(omegas)
            return math.inf, math.inf
        return decision_margins(observed, cfg, omegas, alphas)

    monkeypatch.setattr(pipeline, "polish_frequencies", polish)
    monkeypatch.setattr(pipeline, "decision_margins", margins)
    kept = estimate_spectrum(y)
    assert polished and len(answered) == len(polished)
    monkeypatch.setattr(pipeline, "_CONSEC_HITS", 10**9)
    plain = estimate_spectrum(y)
    assert kept.polish_events == []
    assert [s.omega for s in kept.estimates] == [s.omega for s in plain.estimates]
    assert [s.amplitude for s in kept.estimates] == [s.amplitude for s in plain.estimates]
    assert np.array_equal(kept.cost_trace, plain.cost_trace)
    assert _inner_iterations(plain) == 15997


@pytest.mark.parametrize("seed", [9011, 9013])
def test_an_adopted_polish_is_asked_about_once(seed, monkeypatch):
    # Acceptance 08's scenes 9011 and 9013 adopt a polish whose pass reaches
    # the crawl test, where the drift guard asks decision_margins about the
    # pass's start: the copy the look-ahead has just asked about. The run's
    # margins remember their last answer, so that copy is asked about once.
    asked, polished, starts, guarded = {}, [], [], []

    def key(omegas, alphas):
        return omegas.tobytes(), alphas.tobytes()

    def margins(observed, cfg, omegas, alphas):
        k = key(omegas, alphas)
        asked[k] = asked.get(k, 0) + 1
        return decision_margins(observed, cfg, omegas, alphas)

    def polish(*args):
        state, trace = polish_frequencies(*args)
        polished.append(key(state.omegas, state.alphas))
        return state, trace

    def train(observed, state, cfg, guard):
        starts.append(key(state.omegas, state.alphas))

        def recorded(omegas, alphas):
            guarded.append(key(omegas, alphas))
            return guard(omegas, alphas)

        return train_inner(observed, state, cfg, recorded)

    monkeypatch.setattr(pipeline, "decision_margins", margins)
    monkeypatch.setattr(pipeline, "polish_frequencies", polish)
    monkeypatch.setattr(pipeline, "train_inner", train)
    y, _, _ = _cluster_draw(seed)
    report = estimate_with_fixed_order(y, _cluster_init(y))
    adopted = [k for k in polished if k in starts]
    assert len(adopted) == len(report.polish_events) == 1
    assert adopted[0] in guarded
    assert asked[adopted[0]] == 1


def test_runs_that_adopt_a_polish_keep_the_tracers_call_pattern(monkeypatch):
    # perfbench/spans.py counts one merge, prune and threshold call per
    # training call. The look-ahead asks its question inside a pass, and an
    # adopted polish still trains, so seeds 7003 and 7004, which adopt one
    # polish each, keep that count.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    tracer = spans.Tracer()
    for seed in (7003, 7004):
        with tracer, tracer.span("pipeline", seed):
            report = estimate_spectrum(_sep3(seed))
        assert len(report.polish_events) == 1
        (summary,) = [s for s in spans.summarize(tracer) if s.estimate == seed]
        assert summary.layer_calls["order_control.threshold"] == summary.passes == report.outer_iterations


def _stage_tables(monkeypatch, y):
    """Run y; per pass (M in, tables apply_merges built, tables apply_prunes built) as (N, columns).

    rho's table of the pair gaps is not counted.
    """
    passes: list[tuple[int, list, list]] = []
    inside = {"merge": False, "prune": False, "rho": False}

    def flagged(fn, key):
        def call(*args):
            inside[key] = True
            try:
                return fn(*args)
            finally:
                inside[key] = False

        return call

    def merges(state, y, cfg):
        passes.append((state.m_nodes, [], []))
        return flagged(apply_merges, "merge")(state, y, cfg)

    def table(omegas, n_samples):
        if not inside["rho"]:
            for slot, key in ((1, "merge"), (2, "prune")):
                if inside[key]:
                    passes[-1][slot].append((n_samples, np.size(omegas)))
        return atom_table(omegas, n_samples)

    monkeypatch.setattr(pipeline, "apply_merges", merges)
    monkeypatch.setattr(pipeline, "apply_prunes", flagged(apply_prunes, "prune"))
    monkeypatch.setattr(order_control, "rho", flagged(order_control.rho, "rho"))
    monkeypatch.setattr(order_control, "atom_table", table)
    report = estimate_spectrum(y)
    assert len(passes) == report.outer_iterations
    return report, passes


def test_a_pass_that_merges_nothing_builds_one_atom_table(monkeypatch):
    # apply_merges builds the N x M atom table of the trained nodes for its
    # noise estimate. When it fuses nothing, apply_prunes reads its
    # statistics off that table and residual instead of building both
    # again.
    report, passes = _stage_tables(monkeypatch, _sep3(7005))
    merged = {p for p, _ in report.merge_events}
    quiet = [(m, merge + prune) for k, (m, merge, prune) in enumerate(passes, start=1) if k not in merged]
    assert quiet
    assert all(tables == [(N, m)] for m, tables in quiet)


def _tones8(seed):
    """The tones8_n512 benchmark scene of this seed (perfbench/scenes.py draws it so)."""
    rng = np.random.default_rng(seed)
    freqs = np.sort(sample_well_separated(rng, 8, 8 * TWO_PI / 512))
    y, _, _ = _draw_signal(freqs, np.ones(8), 512, 20.0, rng)
    return y


@pytest.mark.parametrize("scene", ["sep3_7005", "tones8_8000"])
def test_a_pass_that_merges_builds_its_table_once(scene, monkeypatch):
    # A pass that fuses builds the N x M table of the trained nodes, then
    # only the fused nodes' columns: the kept nodes keep theirs, and the
    # refit amplitudes' table and residual go on to apply_prunes, which
    # builds none.
    y = _sep3(7005) if scene == "sep3_7005" else _tones8(8000)
    report, passes = _stage_tables(monkeypatch, y)
    fusing = {}
    for k, event in report.merge_events:
        fusing.setdefault(k, []).append(event)
    assert fusing
    for k, events in fusing.items():
        m, merge, prune = passes[k - 1]
        # Each fuse makes one fused node of its two ends, fused or not.
        merged = set()
        fused_nodes = 0
        for e in events:
            fused_nodes += 1 - (e.omega_low in merged) - (e.omega_high in merged)
            merged.add(e.omega_merged)
        assert merge == [(y.size, m), (y.size, fused_nodes)] and prune == []

"""Monte Carlo harness: MSE sweeps, ROC curves, order counts, traces.

Every experiment is reproducible by construction: trial i draws all of its
randomness from one generator seeded with base_seed + i, aggregates are
reduced in trial order, and every result records the exact configuration
and seeds that produced it. Results serialize to JSON (full detail) and
flat CSV (one row per condition) for external plotting.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import Sequence

import numpy as np

from .errors import SingularInformation
from .fft_init import InitConfig, find_peaks, initialize, zero_padded_fft
from .optimizer import NetworkState, cost, sum_n_squared, train_inner
from .order_control import OrderConfig, apply_prunes, detection_prob
from .pipeline import (
    EstimatorConfig,
    RunReport,
    estimate_spectrum,
    estimate_with_fixed_order,
)
from .signal_model import TWO_PI, Sinusoid, as_samples, design_matrix, ls_amplitudes

_DESK_TRIALS = 200


@dataclass(frozen=True)
class TrialSpec:
    """A Monte Carlo experiment: fixed truth, dimensions, trial count, seeds."""

    truth: list[Sinusoid]
    n_samples: int
    snr_db: float
    trials: int = _DESK_TRIALS
    base_seed: int = 0
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)


@dataclass
class SweepResult:
    """Per-condition aggregate rows plus full reproducibility metadata."""

    name: str
    rows: list[dict]
    config: dict
    seeds: dict

    def to_json(self, path) -> None:
        write_json(path, self)

    def to_csv(self, path) -> None:
        keys: list[str] = []
        for row in self.rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        with open(path, "w", newline="") as fh:
            if not self.rows:
                return
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            for row in self.rows:
                flat = {
                    k: json.dumps(_plain(v), allow_nan=False)
                    if isinstance(v, (list, dict, complex, np.ndarray))
                    else v
                    for k, v in row.items()
                }
                writer.writerow(flat)


def _plain(value):
    """``value`` as plain JSON data, for strict JSON.

    numpy scalars and arrays, complex numbers and dataclasses become numbers,
    lists and dicts; NaN and the infinities, which strict JSON cannot hold,
    become None (``null``).
    """
    if isinstance(value, (np.generic, np.ndarray)):
        value = value.tolist()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, complex):
        return {"re": _plain(value.real), "im": _plain(value.imag)}
    if is_dataclass(value):
        return _plain(asdict(value))
    raise TypeError(f"cannot serialize {type(value)!r}")


def write_json(path, payload) -> None:
    """Write ``payload`` as indented strict JSON through ``_plain``; the one JSON writer."""
    with open(path, "w") as fh:
        json.dump(_plain(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def circular_distance(omega_a: float, omega_b: float) -> float:
    """Shortest angular distance between two frequencies on the circle."""
    return abs(float(np.angle(np.exp(1j * (omega_a - omega_b)))))


def match_components(est_omegas, true_omegas) -> dict[int, tuple[int, float]]:
    """Greedy nearest-frequency matching of estimates to truth.

    Returns {truth index: (estimate index, circular distance)}; pairs are
    claimed globally smallest-distance first, so the result is symmetric
    under relabeling of the truth components. Unmatched truth components
    (fewer estimates than truths) are absent from the result.
    """
    pairs = []
    for i, wt in enumerate(true_omegas):
        for j, we in enumerate(est_omegas):
            pairs.append((circular_distance(we, wt), i, j))
    pairs.sort()
    taken_i: set[int] = set()
    taken_j: set[int] = set()
    out: dict[int, tuple[int, float]] = {}
    for d, i, j in pairs:
        if i not in taken_i and j not in taken_j:
            out[i] = (j, d)
            taken_i.add(i)
            taken_j.add(j)
    return out


def general_crb(truth: Sequence[Sinusoid], n_samples: int, sigma2: float) -> np.ndarray:
    """Per-parameter CRBs for K sinusoids, order (Re a, Im a, omega) per component.

    Builds the Fisher information (2 / sigma2) * Re[D^H D] where D stacks the
    model derivatives with respect to each parameter, inverts it, and returns
    the diagonal. Frequency variances sit at indices 2, 5, 8, ...
    """
    comps = [c if isinstance(c, Sinusoid) else Sinusoid(c[0], c[1]) for c in truth]
    if sigma2 <= 0:
        raise SingularInformation("noise variance must be positive")
    n = np.arange(n_samples)
    cols = []
    for c in comps:
        a = np.exp(1j * c.omega * n)
        cols.extend([a, 1j * a, 1j * c.amplitude * n * a])
    D = np.array(cols).T
    fim = (2.0 / sigma2) * (D.conj().T @ D).real
    try:
        inv = np.linalg.inv(fim)
    except np.linalg.LinAlgError as exc:
        raise SingularInformation("Fisher information matrix is singular") from exc
    diag = np.diag(inv)
    if np.any(diag <= 0):
        raise SingularInformation("Fisher information matrix is not positive definite")
    return diag.copy()


def fd_gradients(state: NetworkState, observed, step: float = 1e-6):
    """Central finite-difference gradients of the training cost.

    Returns (g_alpha, g_omega) in the same convention as the analytic
    gradients: the amplitude gradient is taken with respect to the conjugate
    amplitude, 0.5 * (dC/dRe + j * dC/dIm).
    """
    y = as_samples(observed)

    def cost_at(omegas, alphas):
        return cost(y, design_matrix(omegas, y.size) @ alphas)

    m = state.m_nodes
    g_alpha = np.zeros(m, dtype=np.complex128)
    g_omega = np.zeros(m)
    for i in range(m):
        for part, delta in ((1.0, step), (1j, step)):
            up = state.alphas.copy()
            dn = state.alphas.copy()
            up[i] += part * delta
            dn[i] -= part * delta
            diff = (cost_at(state.omegas, up) - cost_at(state.omegas, dn)) / (2 * delta)
            g_alpha[i] += 0.5 * diff * (1j if part == 1j else 1.0)
        up = state.omegas.copy()
        dn = state.omegas.copy()
        up[i] += step
        dn[i] -= step
        g_omega[i] = (cost_at(up, state.alphas) - cost_at(dn, state.alphas)) / (2 * step)
    return g_alpha, g_omega


def _draw_signal(freqs: np.ndarray, mags: np.ndarray, n_samples: int, snr_db: float, rng):
    """One Monte Carlo draw: random phases, then noise at the target SNR.

    Returns (y, sigma2, amps). The phase draw precedes the noise draw on the
    same generator, which pins the exact realization for a given seed.
    """
    amps = mags * np.exp(1j * TWO_PI * rng.uniform(size=freqs.size))
    x = design_matrix(freqs, n_samples) @ amps
    power = float(np.vdot(x, x).real)
    sigma2 = power / (n_samples * 10.0 ** (snr_db / 10.0)) if power > 0 else 1.0
    e = rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
    return x + math.sqrt(sigma2 / 2.0) * e, sigma2, amps


def _truth_arrays(truth: Sequence[Sinusoid]):
    freqs = np.array([c.omega for c in truth])
    mags = np.array([abs(c.amplitude) for c in truth])
    return freqs, mags


def _matched_errors(report: RunReport, freqs: np.ndarray):
    """(estimates, squared circular frequency errors) matched to ``freqs``, in truth order.

    None when the estimated order is not ``freqs.size``.
    """
    if report.k_hat != freqs.size:
        return None
    m = match_components([s.omega for s in report.estimates], freqs)
    pairs = [m[i] for i in range(freqs.size)]
    return [report.estimates[j] for j, _ in pairs], [d**2 for _, d in pairs]


def mc_mse(spec: TrialSpec, snr_grid=None) -> SweepResult:
    """Frequency and amplitude MSE against the CRB over an SNR grid.

    Trials whose estimated order differs from the truth are counted and
    excluded from the MSE. Frequency errors are reported raw (rad^2) and
    normalized by (2*pi)^2; amplitude errors are normalized by |alpha|^2.
    The CRB reference uses the first trial's amplitude draw.
    """
    if snr_grid is None:
        snr_grid = [spec.snr_db]
    freqs, mags = _truth_arrays(spec.truth)
    k = freqs.size
    rows = []
    for snr_db in snr_grid:
        good = []
        crb_ref = None
        for t in range(spec.trials):
            rng = np.random.default_rng(spec.base_seed + t)
            y, sigma2, amps = _draw_signal(freqs, mags, spec.n_samples, snr_db, rng)
            if crb_ref is None:
                truth_t = [Sinusoid(amps[i], freqs[i]) for i in range(k)]
                crb_ref = general_crb(truth_t, spec.n_samples, sigma2)
            matched = _matched_errors(estimate_spectrum(y, spec.estimator), freqs)
            if matched is not None:
                est, fe = matched
                good.append((fe, [abs(e.amplitude - a) ** 2 for e, a in zip(est, amps)]))
        excluded = spec.trials - len(good)
        if good:
            freq_mse = np.mean([g[0] for g in good], axis=0)
            amp_mse = np.mean([g[1] for g in good], axis=0)
        else:
            freq_mse = np.full(k, math.nan)
            amp_mse = np.full(k, math.nan)
        crb_freq = crb_ref[2::3]
        crb_amp = crb_ref[0::3] + crb_ref[1::3]
        rows.append(
            {
                "snr_db": float(snr_db),
                "trials": spec.trials,
                "correct_order": len(good),
                "excluded": excluded,
                "freq_mse": list(freq_mse),
                "freq_crb": list(crb_freq),
                "freq_gap_db": [
                    10.0 * math.log10(m / c) if m > 0 else (math.nan if math.isnan(m) else -math.inf)
                    for m, c in zip(freq_mse, crb_freq)
                ],
                "freq_mse_normalized": list(freq_mse / TWO_PI**2),
                "amp_mse_normalized": list(amp_mse / mags**2),
                "amp_crb_normalized": list(crb_amp / mags**2),
            }
        )
    return SweepResult(
        name="mse_vs_crb",
        rows=rows,
        config={
            "estimator": spec.estimator,
            "n_samples": spec.n_samples,
            "truth_freqs": list(freqs),
            "truth_mags": list(mags),
            "notes": [
                "amplitudes drawn as |alpha| * exp(j*uniform phase) per trial",
                "wrong-order trials excluded from MSE, count reported",
                "freq errors normalized by (2*pi)^2, amp errors by |alpha|^2",
                "CRB reference evaluated at the first trial's amplitudes",
            ],
        },
        seeds={"base_seed": spec.base_seed, "trials": spec.trials},
    )


def mc_roc_merge(spec: TrialSpec, epsilon_f_grid) -> SweepResult:
    """Empirical ROC of the merge test.

    Detection: two tones separated by 2*pi/(16*N) (far below the FFT
    resolution), two nodes initialized at the true frequencies; PD is the
    fraction of trials keeping both nodes. False alarm: one tone with two
    nodes initialized one padded-FFT bin on either side; FAR is the fraction
    keeping two nodes.
    """
    n = spec.n_samples
    sep = TWO_PI / (16.0 * n)
    bin_off = TWO_PI / (spec.estimator.init.l_factor * n)
    rows = []
    for eps_f in epsilon_f_grid:
        cfg = replace(spec.estimator, order=replace(spec.estimator.order, epsilon_f=float(eps_f)))
        kept_pair = 0
        for t in range(spec.trials):
            rng = np.random.default_rng(spec.base_seed + t)
            w0 = TWO_PI * 0.5
            pair = np.array([w0, w0 + sep])
            y, _, _ = _draw_signal(pair, np.ones(2), n, spec.snr_db, rng)
            report = estimate_with_fixed_order(y, pair, cfg)
            kept_pair += report.k_hat == 2
        false_pair = 0
        for t in range(spec.trials):
            rng = np.random.default_rng(spec.base_seed + 10000 + t)
            w0 = TWO_PI * rng.uniform()
            y, _, _ = _draw_signal(np.array([w0]), np.ones(1), n, spec.snr_db, rng)
            report = estimate_with_fixed_order(y, np.array([w0 - bin_off, w0 + bin_off]), cfg)
            false_pair += report.k_hat == 2
        rows.append(
            {
                "epsilon_f": float(eps_f),
                "trials": spec.trials,
                "pd": kept_pair / spec.trials,
                "far": false_pair / spec.trials,
                "kept_pair": kept_pair,
                "false_pair": false_pair,
            }
        )
    return SweepResult(
        name="roc_merge",
        rows=rows,
        config={
            "estimator": spec.estimator,
            "n_samples": n,
            "snr_db": spec.snr_db,
            "pair_separation": sep,
        },
        seeds={"base_seed": spec.base_seed, "trials": spec.trials},
    )


def _prune_keep(y: np.ndarray, node_omegas: np.ndarray, watch: int, eps_a: float) -> bool:
    """Prune decision for one node of a least-squares fit at fixed frequencies."""
    state = NetworkState(node_omegas, ls_amplitudes(node_omegas, y))
    return bool(apply_prunes(state, y, OrderConfig(epsilon_a=eps_a))[1].keep_mask[watch])


def mc_roc_prune(spec: TrialSpec, epsilon_a_grid, scenario: str = "one-node") -> SweepResult:
    """Empirical and theoretical ROC of the prune test.

    ``one-node``: a tone at normalized frequency 0.5 versus pure noise, one
    fixed node at the tone frequency. ``two-node-weak``: tones at 0.5 and
    0.8 with magnitudes 1 and 0.1, two fixed nodes; detection concerns the
    weak node, and the false-alarm runs omit the weak tone. The theoretical
    curve comes from the noncentral F detection probability.
    """
    if scenario not in ("one-node", "two-node-weak"):
        raise ValueError("scenario must be 'one-node' or 'two-node-weak'")
    n = spec.n_samples
    w_main = TWO_PI * 0.5
    w_weak = TWO_PI * 0.8
    if scenario == "one-node":
        sig_freqs, sig_mags = np.array([w_main]), np.ones(1)
        nodes = np.array([w_main])
        watch = 0
    else:
        sig_freqs, sig_mags = np.array([w_main, w_weak]), np.array([1.0, 0.1])
        nodes = np.array([w_main, w_weak])
        watch = 1
    rows = []
    for eps_a in epsilon_a_grid:
        kept_sig = 0
        kept_null = 0
        sigma2_ref = None
        for t in range(spec.trials):
            rng = np.random.default_rng(spec.base_seed + t)
            y, sigma2, _ = _draw_signal(sig_freqs, sig_mags, n, spec.snr_db, rng)
            if sigma2_ref is None:
                sigma2_ref = sigma2
            kept_sig += _prune_keep(y, nodes, watch, float(eps_a))
        for t in range(spec.trials):
            rng = np.random.default_rng(spec.base_seed + 10000 + t)
            if scenario == "one-node":
                y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
            else:
                y, _, _ = _draw_signal(
                    sig_freqs[:1], sig_mags[:1], n, spec.snr_db, rng
                )
            kept_null += _prune_keep(y, nodes, watch, float(eps_a))
        snr_node = (sig_mags[watch] ** 2) / sigma2_ref
        rows.append(
            {
                "epsilon_a": float(eps_a),
                "trials": spec.trials,
                "pd": kept_sig / spec.trials,
                "far": kept_null / spec.trials,
                "pd_theory": detection_prob(
                    snr_node, n, nodes.size, OrderConfig(epsilon_a=float(eps_a))
                ),
            }
        )
    return SweepResult(
        name=f"roc_prune_{scenario}",
        rows=rows,
        config={"n_samples": n, "snr_db": spec.snr_db, "scenario": scenario},
        seeds={"base_seed": spec.base_seed, "trials": spec.trials},
    )


def sample_well_separated(rng, k: int, min_sep: float) -> np.ndarray:
    """K frequencies uniformly placed with pairwise circular gaps >= min_sep."""
    slack = TWO_PI - k * min_sep
    if slack <= 0:
        raise ValueError("min_sep too large for k components")
    u = np.sort(rng.uniform(0.0, slack, k))
    return np.mod(u + np.arange(k) * min_sep + rng.uniform(0.0, TWO_PI), TWO_PI)


def mc_order(
    n_samples: int,
    snr_db: float,
    trials: int,
    base_seed: int,
    k_values: Sequence[int] = (1, 2, 3, 4, 5),
) -> SweepResult:
    """Model-order accuracy over random well-separated scenes.

    Per trial: K frequencies with circular separation at least 4 bins of the
    length-N grid, unit magnitudes, random phases. Reports the histogram of
    estimated orders and the fraction correct for each K.
    """
    rows = []
    for k in k_values:
        hist: dict[int, int] = {}
        correct = 0
        for t in range(trials):
            rng = np.random.default_rng(base_seed + t)
            freqs = np.sort(sample_well_separated(rng, k, 4 * TWO_PI / n_samples))
            y, _, _ = _draw_signal(freqs, np.ones(k), n_samples, snr_db, rng)
            report = estimate_spectrum(y)
            hist[report.k_hat] = hist.get(report.k_hat, 0) + 1
            correct += report.k_hat == k
        rows.append(
            {
                "k": int(k),
                "trials": trials,
                "correct": correct,
                "fraction_correct": correct / trials,
                "histogram": {str(kh): c for kh, c in sorted(hist.items())},
            }
        )
    return SweepResult(
        name="order_accuracy",
        rows=rows,
        config={
            "estimator": EstimatorConfig(),
            "n_samples": n_samples,
            "snr_db": snr_db,
            "min_separation": 4 * TWO_PI / n_samples,
        },
        seeds={"base_seed": base_seed, "trials": trials},
    )


def convergence_trace(spec: TrialSpec, gamma_grid, lambda_grid) -> SweepResult:
    """Inner-loop cost trajectories across learning-rate and momentum settings.

    ``gamma_grid`` entries scale both default learning rates. Each setting
    runs spec.trials seeded instances of the scenario; the row reports the
    median iteration count, whether every run converged, and one thinned
    trace from the first seed. Runs train under the estimator's stopping
    rule at a fixed tolerance of 1e-5, one call from the FFT start.
    """
    freqs, mags = _truth_arrays(spec.truth)
    base = replace(spec.estimator.train, eps_tol=1e-5).resolve(spec.n_samples)
    rows = []
    for gs in gamma_grid:
        for lam in lambda_grid:
            cfg = replace(
                base,
                gamma_alpha=float(gs) * base.gamma_alpha,
                gamma_omega=float(gs) * base.gamma_omega,
                momentum=float(lam),
            )
            iters = []
            convs = []
            sample_trace = None
            for t in range(spec.trials):
                rng = np.random.default_rng(spec.base_seed + t)
                y, _, _ = _draw_signal(freqs, mags, spec.n_samples, spec.snr_db, rng)
                state = initialize(y, spec.estimator.init, spec.estimator.order)
                state, trace = train_inner(y, state, cfg)
                iters.append(trace.iterations_run)
                convs.append(trace.converged)
                if sample_trace is None:
                    stride = max(1, trace.mean_costs.size // 512)
                    sample_trace = list(trace.mean_costs[::stride])
            rows.append(
                {
                    "gamma_scale": float(gs),
                    "momentum": float(lam),
                    "median_iterations": float(np.median(iters)),
                    "all_converged": bool(all(convs)),
                    "n_nonconverged": int(sum(not c for c in convs)),
                    "trace": sample_trace,
                }
            )
    return SweepResult(
        name="convergence",
        rows=rows,
        config={
            "n_samples": spec.n_samples,
            "snr_db": spec.snr_db,
            "truth_freqs": list(freqs),
            "train": base,
            "notes": ["gamma_scale multiplies both default learning rates"],
        },
        seeds={"base_seed": spec.base_seed, "trials": spec.trials},
    )


_CLUSTER_N = 128
_CLUSTER_SNR_DB = 20.0


def cluster_frequencies(n_samples: int = _CLUSTER_N) -> np.ndarray:
    """Two five-tone clusters with sub-bin spacing around 0.3 and 0.7.

    Offsets are fractions of one DFT bin (1/N in normalized frequency), so
    every within-cluster gap is below the length-N resolution limit.
    """
    n = n_samples
    c1 = 0.3 + np.array([-1.8, -0.75, 0.0, 0.75, 1.8]) / n
    c2 = 0.7 + np.array([-2.0, -0.8, 0.0, 0.8, 2.0]) / n
    return TWO_PI * np.concatenate([c1, c2])


def _cluster_init(y: np.ndarray) -> np.ndarray:
    """Twelve starting frequencies from the four strongest separated peaks.

    Picks the top four padded-FFT magnitudes subject to a circular exclusion
    radius of two N-grid bins, then brackets each with companions two padded
    bins on either side. Overlapping tones bury some spectral peaks, so
    bracketing seeds more nodes than peak counting alone would give.
    """
    cfg = InitConfig()
    mag = np.abs(zero_padded_fft(y, cfg))
    L = mag.size
    peaks = find_peaks(mag, 0.0, cfg)
    peaks.sort(key=lambda k: -mag[k])
    excl = 2 * cfg.l_factor
    centers: list[int] = []
    for k in peaks:
        if all(min(abs(k - c), L - abs(k - c)) >= excl for c in centers):
            centers.append(k)
        if len(centers) == 4:
            break
    bins: set[int] = set()
    for k in centers:
        bins.update(((k - 2) % L, k, (k + 2) % L))
    return np.sort(TWO_PI * np.array(sorted(bins)) / L)


def _cluster_estimator() -> EstimatorConfig:
    gamma_omega = 1.0 / sum_n_squared(_CLUSTER_N)
    train = replace(EstimatorConfig().train, gamma_omega=gamma_omega, min_iter=3000)
    return EstimatorConfig(train=train, order=OrderConfig(epsilon_f=1e-12))


@dataclass
class ClusterCaseResult:
    """Outcome of one closely-spaced-clusters trial."""

    report: RunReport
    truth: list[Sinusoid]
    sigma2: float
    initial_m: int
    freq_errors: list[float] | None
    freq_crb: list[float]


def cluster_case(seed: int) -> ClusterCaseResult:
    """Estimate ten sub-resolution tones in two clusters from a 12-node start.

    N = 128, SNR 20 dB, unit magnitudes with seeded random phases. The run
    starts from the bracketed 12-node initializer, trains each pass to a long
    patient schedule with a doubled frequency rate, and merges under a strict
    1e-12 false-merge level. freq_errors is per-truth squared circular error
    when the estimated order is exactly ten, else None.
    """
    freqs = cluster_frequencies()
    rng = np.random.default_rng(seed)
    y, sigma2, amps = _draw_signal(freqs, np.ones(freqs.size), _CLUSTER_N, _CLUSTER_SNR_DB, rng)
    start = _cluster_init(y)
    report = estimate_with_fixed_order(y, start, _cluster_estimator())
    truth = [Sinusoid(amps[i], freqs[i]) for i in range(freqs.size)]
    crb = general_crb(truth, _CLUSTER_N, sigma2)[2::3]
    matched = _matched_errors(report, freqs)
    return ClusterCaseResult(
        report=report,
        truth=truth,
        sigma2=sigma2,
        initial_m=start.size,
        freq_errors=None if matched is None else matched[1],
        freq_crb=list(crb),
    )


def mc_cluster(trials: int, base_seed: int) -> SweepResult:
    """Repeat the cluster scenario over seeds and tabulate order recovery."""
    hist: dict[int, int] = {}
    within = 0
    resolved = 0
    for s in range(trials):
        res = cluster_case(base_seed + s)
        k_hat = res.report.k_hat
        hist[k_hat] = hist.get(k_hat, 0) + 1
        if res.freq_errors is not None:
            resolved += 1
            bound = [9.0 * c for c in res.freq_crb]
            within += all(e <= b for e, b in zip(res.freq_errors, bound))
    rows = [
        {
            "trials": trials,
            "resolved_k10": resolved,
            "within_3sigma_crb": within,
            "histogram": {str(k): c for k, c in sorted(hist.items())},
        }
    ]
    return SweepResult(
        name="cluster_recovery",
        rows=rows,
        config={
            "n_samples": _CLUSTER_N,
            "snr_db": _CLUSTER_SNR_DB,
            "truth_freqs": list(cluster_frequencies()),
            "estimator": _cluster_estimator(),
        },
        seeds={"base_seed": base_seed, "trials": trials},
    )

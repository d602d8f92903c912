"""Command-line interface.

Four subcommands: ``simulate`` writes a sampled signal to CSV, ``estimate``
runs the full estimator on a signal file and reports the result, ``gradcheck``
verifies the analytic gradients against finite differences, and ``experiment``
runs one of the packaged Monte Carlo studies and writes JSON + CSV results.

Exit codes: 0 success (including an empty estimate), 2 bad arguments or
unparseable input, 3 numerical divergence (a partial report is still written
when requested).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import experiments
from .errors import LineSpecError, NumericalDivergence
from .pipeline import EPS_START_DECADE, EstimatorConfig, RunReport, estimate_spectrum
from .signal_model import TWO_PI, NoiseSpec, Sinusoid, noise_var_for_snr, synthesize

_CONFIG_PREFIX = "# config "
_DEFAULTS = EstimatorConfig()


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _load_components(path: str) -> list[Sinusoid]:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not raw:
        raise ValueError("components file must hold a non-empty JSON list")
    comps = []
    for entry in raw:
        comps.append(
            Sinusoid(
                complex(float(entry["re"]), float(entry["im"])),
                TWO_PI * float(entry["normalized_freq"]),
            )
        )
    return comps


def cmd_simulate(args) -> int:
    try:
        comps = _load_components(args.components)
    except (OSError, ValueError, KeyError, TypeError, LineSpecError) as exc:
        return _fail(f"cannot read components: {exc}", 2)
    try:
        clean = synthesize(comps, args.n, NoiseSpec())
        sigma2 = 0.0 if args.snr_db is None else noise_var_for_snr(clean, args.snr_db)
        noise = NoiseSpec(sigma2=sigma2, seed=args.seed)
    except LineSpecError as exc:
        return _fail(str(exc), 2)
    signal = synthesize(comps, args.n, noise)
    meta = {
        "n": args.n,
        "snr_db": args.snr_db,
        "seed": args.seed,
        "sigma2": sigma2,
        "components": [
            {"re": c.amplitude.real, "im": c.amplitude.imag, "normalized_freq": c.normalized_freq}
            for c in comps
        ],
    }
    try:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "re", "im"])
            for i, v in enumerate(signal.samples):
                writer.writerow([i, repr(float(v.real)), repr(float(v.imag))])
            fh.write(_CONFIG_PREFIX + json.dumps(meta) + "\n")
    except OSError as exc:
        return _fail(f"cannot write signal: {exc}", 2)
    print(f"wrote {args.n} samples to {args.out} (sigma2 = {sigma2!r})")
    return 0


def _read_signal_csv(path: str):
    """Parse a signal CSV; returns (samples, metadata or None)."""
    meta = None
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith(_CONFIG_PREFIX):
                    meta = json.loads(line[len(_CONFIG_PREFIX):])
                continue
            rows.append(next(csv.reader([line])))
    if not rows or [c.strip() for c in rows[0]] != ["index", "re", "im"]:
        raise ValueError("signal file must start with header 'index,re,im'")
    body = rows[1:]
    if not body:
        raise ValueError("signal file holds no samples")
    y = np.zeros(len(body), dtype=np.complex128)
    seen: set[int] = set()
    for row in body:
        if len(row) != 3:
            raise ValueError(f"malformed row: {row!r}")
        idx = int(row[0])
        if not 0 <= idx < y.size:
            raise ValueError(f"sample index {idx} out of range")
        # N rows with in-range indices and no repeat cover every index once.
        if idx in seen:
            raise ValueError(f"sample index {idx} repeated")
        seen.add(idx)
        y[idx] = complex(float(row[1]), float(row[2]))
    return y, meta


def _report_dict(report: RunReport, cfg: EstimatorConfig, seed) -> dict:
    events = [{"pass": p, "kind": "merge", **asdict(ev)} for p, ev in report.merge_events]
    for p, pr in report.prune_events:
        events.append(
            {
                "pass": p,
                "kind": "prune",
                "threshold": pr.threshold,
                "xi": pr.xi,
                "keep_mask": pr.keep_mask,
            }
        )
    for p, trace in report.polish_events:
        events.append({"pass": p, "kind": "polish", **asdict(trace)})
    # Within a pass: its polish, then its merges, then its prunes.
    kinds = ("polish", "merge", "prune")
    events.sort(key=lambda e: (e["pass"], kinds.index(e["kind"])))
    return {
        "estimates": [
            {
                "re": s.amplitude.real,
                "im": s.amplitude.imag,
                "omega": s.omega,
                "normalized_freq": s.normalized_freq,
            }
            for s in report.estimates
        ],
        "sigma2_hat": report.sigma2_hat,
        "k_hat": report.k_hat,
        "outer_iterations": report.outer_iterations,
        "cost_trace": report.cost_trace,
        "events": events,
        "config": cfg,
        "seed": seed,
    }


def _write_report(path: str, payload: dict) -> bool:
    """Write the JSON report; on an unopenable path print an error and return False."""
    try:
        experiments.write_json(path, payload)
    except OSError as exc:
        _fail(f"cannot write report: {exc}", 2)
        return False
    return True


def cmd_estimate(args) -> int:
    try:
        y, meta = _read_signal_csv(args.infile)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read signal: {exc}", 2)
    try:
        cfg = replace(
            _DEFAULTS,
            train=replace(
                _DEFAULTS.train,
                gamma_alpha=args.gamma_alpha,
                gamma_omega=args.gamma_omega,
                momentum=args.momentum,
                eps_tol=args.eps,
                max_iter=args.max_iter,
            ),
            order=replace(_DEFAULTS.order, epsilon_f=args.epsf, epsilon_a=args.epsa),
        )
    except LineSpecError as exc:
        return _fail(str(exc), 2)
    seed = meta.get("seed") if meta else None
    try:
        report = estimate_spectrum(y, cfg)
    except NumericalDivergence as exc:
        if args.report and exc.report is not None:
            payload = _report_dict(exc.report, cfg, seed)
            payload["diverged"] = True
            _write_report(args.report, payload)
        return _fail(f"optimization diverged: {exc}", 3)
    except LineSpecError as exc:
        return _fail(str(exc), 2)
    print(f"k_hat = {report.k_hat}")
    print(f"sigma2_hat = {report.sigma2_hat!r}")
    print(f"outer_iterations = {report.outer_iterations}")
    for s in report.estimates:
        print(
            f"  omega = {s.omega:.10f}  normalized_freq = {s.normalized_freq:.10f}"
            f"  amplitude = {s.amplitude.real:+.6f}{s.amplitude.imag:+.6f}j"
        )
    if args.report:
        if not _write_report(args.report, _report_dict(report, cfg, seed)):
            return 2
        print(f"report written to {args.report}")
    return 0


def cmd_gradcheck(args) -> int:
    from .optimizer import NetworkState, grad_alpha, grad_omega

    if args.n < max(2, args.m):
        return _fail("gradcheck needs --n of at least 2 and at least --m", 2)
    if not 0.0 < args.tol < math.inf:
        return _fail(f"--tol must be finite and positive, got {args.tol}", 2)
    worst = 0.0
    for t in range(args.trials):
        rng = np.random.default_rng(args.seed + t)
        m_t = int(rng.integers(1, args.m + 1))
        n_t = int(rng.integers(max(2, m_t), args.n + 1))
        omegas = rng.uniform(0.0, TWO_PI, m_t)
        alphas = rng.standard_normal(m_t) + 1j * rng.standard_normal(m_t)
        y = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
        state = NetworkState(omegas, alphas)
        ga = grad_alpha(state, y)
        gw = grad_omega(state, y)
        if args.perturb:
            ga = ga * (1.0 + 1e-3)
            gw = gw * (1.0 + 1e-3)
        fa, fw = experiments.fd_gradients(state, y)
        err_a = np.max(np.abs(ga - fa)) / max(np.max(np.abs(fa)), 1e-12)
        err_w = np.max(np.abs(gw - fw)) / max(np.max(np.abs(fw)), 1e-12)
        worst = max(worst, float(err_a), float(err_w))
    ok = worst < args.tol
    print(
        f"gradcheck: {args.trials} instances (n <= {args.n}, m <= {args.m}),"
        f" worst relative error {worst:.3e}, tolerance {args.tol:.1e}:"
        f" {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


_MSE_TRUTH = [
    Sinusoid(1.0 + 0.0j, TWO_PI * 0.1),
    Sinusoid(1.0 + 0.0j, TWO_PI * 0.22),
    Sinusoid(1.0 + 0.0j, TWO_PI * 0.37),
]


def _spec(truth: list[Sinusoid], snr_db: float, trials: int, seed: int):
    return experiments.TrialSpec(truth, n_samples=32, snr_db=snr_db, trials=trials, base_seed=seed)


_EPS_A_GRID = [1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.1]

# name: (default trials, default base seed, runner(trials, base_seed)).
# --full multiplies every default trial count by 5.
_STUDIES = {
    "mse": (200, 7000, lambda t, s: experiments.mc_mse(
        _spec(_MSE_TRUTH, 20.0, t, s), snr_grid=[0.0, 10.0, 20.0, 30.0])),
    "roc-merge": (50, 8200, lambda t, s: experiments.mc_roc_merge(
        _spec([], 20.0, t, s), [1e-8, 1e-6, 1e-4, 1e-2, 1e-1])),
    "roc-prune": (2000, 4600, lambda t, s: experiments.mc_roc_prune(
        _spec([], 0.0, t, s), _EPS_A_GRID, scenario="one-node")),
    "roc-prune-weak": (2000, 4600, lambda t, s: experiments.mc_roc_prune(
        _spec([], 0.0, t, s), _EPS_A_GRID, scenario="two-node-weak")),
    "order": (200, 5000, lambda t, s: experiments.mc_order(
        n_samples=32, snr_db=10.0, trials=t, base_seed=s)),
    "converge": (20, 3000, lambda t, s: experiments.convergence_trace(
        _spec(_MSE_TRUTH, 10.0, t, s), [0.5, 1.0, 2.0], [0.0, 0.5, 0.9])),
    "cluster": (20, 9000, lambda t, s: experiments.mc_cluster(trials=t, base_seed=s)),
}


def _run_experiment(name: str, trials: int | None, seed: int | None, full: bool):
    default_trials, default_seed, run = _STUDIES[name]
    trials = trials or default_trials * (5 if full else 1)
    return run(trials, default_seed if seed is None else seed)


def cmd_experiment(args) -> int:
    if not (os.path.isdir(args.out_dir) and os.access(args.out_dir, os.W_OK)):
        return _fail(f"--out-dir {args.out_dir} is not a writable directory", 2)
    try:
        result = _run_experiment(args.name, args.trials, args.seed, args.full)
    except LineSpecError as exc:
        return _fail(str(exc), 3)
    stem = result.name
    json_path = f"{args.out_dir}/{stem}.json"
    csv_path = f"{args.out_dir}/{stem}.csv"
    try:
        result.to_json(json_path)
        result.to_csv(csv_path)
    except OSError as exc:
        return _fail(f"cannot write results: {exc}", 2)
    print(f"experiment {args.name}: {len(result.rows)} rows")
    print(f"  {json_path}")
    print(f"  {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linespec",
        description="Maximum-likelihood line spectral estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a noisy multi-sinusoid signal")
    p.add_argument("--n", type=_count, required=True, help="number of samples")
    p.add_argument(
        "--components",
        required=True,
        help="JSON file: list of {re, im, normalized_freq}",
    )
    p.add_argument("--snr-db", type=float, default=None, help="SNR in dB (omit for noiseless)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate sinusoids from a signal CSV")
    p.add_argument("--in", dest="infile", required=True, help="input CSV (index,re,im)")
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.add_argument(
        "--eps",
        type=float,
        default=_DEFAULTS.train.eps_tol,
        help="floor of the annealed inner tolerance: passes tighten it from"
        f" {10.0**-EPS_START_DECADE:g} down to this value, and the run ends at the first"
        " floor pass that changes nothing",
    )
    p.add_argument("--epsf", type=float, default=_DEFAULTS.order.epsilon_f,
                   help="merge test level")
    p.add_argument("--epsa", type=float, default=_DEFAULTS.order.epsilon_a,
                   help="prune false-alarm level")
    p.add_argument("--gamma-alpha", type=float, default=_DEFAULTS.train.gamma_alpha,
                   help="amplitude learning rate")
    p.add_argument("--gamma-omega", type=float, default=_DEFAULTS.train.gamma_omega,
                   help="frequency learning rate")
    p.add_argument("--lambda", dest="momentum", type=float, default=_DEFAULTS.train.momentum,
                   help="momentum coefficient")
    p.add_argument("--max-iter", type=int, default=_DEFAULTS.train.max_iter,
                   help="inner iteration cap")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("gradcheck", help="compare analytic and finite-difference gradients")
    p.add_argument("--n", type=_count, default=16, help="maximum signal length")
    p.add_argument("--m", type=_count, default=4, help="maximum node count")
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=float, default=1e-6, help="relative error tolerance")
    p.add_argument(
        "--perturb",
        action="store_true",
        help="bias the analytic gradients; the check must then fail",
    )
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("experiment", help="run a packaged Monte Carlo study")
    p.add_argument("name", choices=_STUDIES)
    p.add_argument("--trials", type=_count, default=None, help="override the trial count")
    p.add_argument("--seed", type=_seed, default=None, help="override the base seed")
    p.add_argument("--out-dir", default=".", help="directory for JSON/CSV results")
    p.add_argument("--full", action="store_true",
                   help="publication-scale trial counts: five times every study's default")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

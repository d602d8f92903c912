"""Closed-loop benchmark of ``linespec.estimate_spectrum``.

Usage, from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload sep3_n32 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

One client in one process sends each signal of the workload's fixed seed set
(``scenes.WORKLOADS``) to ``estimate_spectrum`` with the default
configuration and waits for the result before sending the next. ``--seed``
shuffles the visiting order of every round; the signals themselves are pinned
so that counts and quality compare across runs and commits. Rounds repeat
while the next one still fits in ``--seconds``.

Host CPU speed on a shared machine drifts by up to a third over tens of
seconds, which no amount of repetition inside one run averages out. So a
fixed reference loop at the workload's N that touches nothing in linespec
(``make_probe``) is timed between consecutive estimates, and each call's wall
time is also reported in ``probe`` units: the call's seconds over the mean of
the probes on either side of it. A signal's time is its median over rounds;
throughput is the median over rounds of signals per summed probe units.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds, wraps the estimator's layer functions from
outside the package (``spans.py``), and prints the per-layer metrics and the
tracing overhead. Both modes check every result (finite, frequencies in
[0, 2*pi), k_hat <= N) and that the per-signal counts repeat exactly across
rounds and between traced and untraced rounds. The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, spans included, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads OpenBLAS. The client is single
# threaded, and how OpenBLAS splits a product across threads changes its
# rounding, which moves the estimator's iteration counts (tones8_n512 seed
# 8001: 587 iterations with two threads, about 20k with one). Pinning keeps
# counts independent of the host's core count, and keeps a spinning BLAS
# worker from slowing the probe on a hyperthread sibling.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
COUNT_KEYS = ("k_hat", "nodes_out", "iterations", "passes", "merges", "prunes")

# A fresh interpreter imports the package and runs one warm-up estimate.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:]; "
    "import linespec, scenes; linespec.estimate_spectrum(scenes.warmup_signal())"
)


def make_probe(n_samples: int, steps: int = 60, repeats: int = 5):
    """A timer for ``steps`` of a fixed M = 8 gradient loop at the workload's N.

    Each step builds the N x M design matrix and both gradients, as one inner
    training iteration does, so host speed changes move the probe and the
    estimator alike at every N. The probe returns the median of ``repeats``
    timings, which ignores a stall that hits one of them. It touches nothing
    in linespec.
    """
    n = np.arange(n_samples)
    w0 = 2.0 * np.pi * (np.arange(8) + 0.3) / 8
    y = np.exp(1j * np.outer(n, w0 + 0.5 / n_samples)).sum(axis=1)

    def probe() -> float:
        times = []
        for _ in range(repeats):
            w, a = w0.copy(), np.ones(8, dtype=complex)
            t0 = perf_counter()
            for _ in range(steps):
                A = np.exp(1j * np.outer(n, w))
                r = A @ a - y
                a = a - 1e-3 * (A.conj().T @ r)
                w = w - 1e-6 * np.imag(a * (A.T @ (n * np.conj(-r))))
            times.append(perf_counter() - t0)
        return statistics.median(times)

    return probe


def load_linespec():
    """Import linespec from this checkout's ``src``, or exit 1."""
    if not (SRC / "linespec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no linespec sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import linespec

    if not Path(linespec.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported linespec from {linespec.__file__}, not {SRC}")
    return linespec


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be queried."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def process_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def measure_setup() -> float:
    """Median wall time of a fresh process that imports and warms up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)], check=True, timeout=120
        )
        times.append(perf_counter() - t0)
    return statistics.median(times)


def check_output(report, n_samples: int) -> str | None:
    """Why a result is invalid, or None when it passes the output check."""
    w = np.array([s.omega for s in report.estimates], dtype=float)
    a = np.array([s.amplitude for s in report.estimates], dtype=complex)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(a)) and math.isfinite(report.sigma2_hat)):
        return "non-finite omega, alpha or sigma2"
    if np.any(w < 0.0) or np.any(w >= 2.0 * math.pi):
        return "omega outside [0, 2*pi)"
    if report.k_hat > n_samples:
        return f"k_hat = {report.k_hat} > N = {n_samples}"
    return None


def report_counts(report, nodes_out: int) -> tuple:
    """Counts read off a RunReport, in COUNT_KEYS order."""
    prunes = sum(int((~p.keep_mask).sum()) for _, p in report.prune_events)
    return (
        report.k_hat,
        nodes_out,
        report.cost_trace.size - report.outer_iterations,  # one initial cost per pass
        report.outer_iterations,
        len(report.merge_events),
        prunes,
    )


class Round:
    """One pass over the signal set: per-seed times, estimates and counts.

    Only each report's estimates are kept, not its cost trace, so memory does
    not grow with the number of rounds and ``peak_rss_mb`` stays comparable.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.seconds: dict[int, float] = {}
        self.probes: dict[int, float] = {}  # the call's seconds in probe units
        self.estimates: dict[int, list] = {}
        self.counts: dict[int, tuple | None] = {}
        self.estimate_ids: dict[int, int] = {}


def run_round(linespec, scenes, order, nodes_out, problems, probe, tracer=None) -> Round:
    rnd = Round(tracer is not None)
    p_before = probe()
    for i in order:
        sc = scenes[i]
        report, error = None, None
        if tracer is None:
            t0 = perf_counter()
            try:
                report = linespec.estimate_spectrum(sc.y)
            except Exception as exc:  # counted as a failed call; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
        else:
            eid = len(tracer.spans)  # index of the estimate's own span
            rnd.estimate_ids[sc.seed] = eid
            with tracer.span("pipeline", eid) as sp:
                try:
                    report = linespec.estimate_spectrum(sc.y)
                except Exception as exc:  # counted as a failed call; the run goes on
                    error = f"{type(exc).__name__}: {exc}"
                    tracer.failed.add(eid)
            dt = sp.seconds
        p_after = probe()
        rnd.seconds[sc.seed] = dt
        rnd.probes[sc.seed] = dt / (0.5 * (p_before + p_after))
        p_before = p_after
        if report is not None:
            error = check_output(report, sc.y.size)
        if error is None:
            rnd.estimates[sc.seed] = report.estimates
            rnd.counts[sc.seed] = report_counts(report, nodes_out[sc.seed])
        else:
            rnd.counts[sc.seed] = None
            problems.append(f"seed {sc.seed}: {error}")
            print(f"FAILED seed {sc.seed}: {error}", flush=True)
    return rnd


def run_rounds(linespec, scenes, nodes_out, seconds, seed, tracer, problems):
    """Repeat blocks of rounds while the next block still fits in ``seconds``.

    A block is one untraced round or, with a tracer, one untraced and one
    traced round in alternating order, so drift does not bias the overhead.
    Returns the rounds and the most threads the process had at a block end.
    """
    rng = np.random.default_rng(seed)
    probe = make_probe(scenes[0].y.size)
    rounds: list[Round] = []
    threads = 0
    t_start = perf_counter()
    while True:
        t_block = perf_counter()
        if tracer is None:
            modes = [False]
        else:
            modes = [False, True] if len(rounds) % 4 == 0 else [True, False]
        for traced in modes:
            order = rng.permutation(len(scenes))
            if traced:
                with tracer:
                    rounds.append(run_round(linespec, scenes, order, nodes_out, problems, probe, tracer))
            else:
                rounds.append(run_round(linespec, scenes, order, nodes_out, problems, probe))
        threads = max(threads, process_threads() or 0)
        now = perf_counter()
        if now - t_start + (now - t_block) > seconds:
            return rounds, threads


def deterministic(rounds, traced_counts, problems) -> bool:
    """Per-seed counts agree across all rounds, traced ones included."""
    ok = True
    first = rounds[0].counts
    views = [("round", r.counts) for r in rounds[1:]] + [("trace", c) for c in traced_counts]
    for label, counts in views:
        for seed, ref in first.items():
            if counts.get(seed) != ref:
                ok = False
                problems.append(f"seed {seed}: {label} counts {counts.get(seed)} != {ref}")
    return ok


def per_signal(rounds, scenes, attr: str) -> list[float]:
    """Each signal's median over ``rounds`` of ``Round.seconds`` or ``Round.probes``."""
    return [statistics.median(getattr(r, attr)[sc.seed] for r in rounds) for sc in scenes]


def end_to_end(scenes, rounds, setup_s):
    secs = per_signal(rounds, scenes, "seconds")
    cost = per_signal(rounds, scenes, "probes")
    round_cost = [sum(r.probes.values()) for r in rounds]
    estimates = rounds[0].estimates
    ok = [sc for sc in scenes if sc.seed in estimates]
    sq_err, crb = [], []
    for sc in ok:
        est = np.array([s.omega for s in estimates[sc.seed]])
        if est.size:
            d = np.abs(np.angle(np.exp(1j * (sc.freqs[:, None] - est[None, :]))))
            sq_err.extend(d.min(axis=1) ** 2)
            crb.extend(sc.freq_crb())
    ratio = float(np.mean(sq_err) / np.mean(crb)) if crb else math.nan
    attempted = sum(len(r.counts) for r in rounds)
    return {
        "estimates_per_kprobe": (1000.0 * len(ok) / statistics.median(round_cost), "1/kprobe"),
        "estimate_probes_p50": (statistics.median(cost), "probe"),
        "estimates_per_s": (len(ok) / sum(secs), "1/s"),
        "estimate_s_p50": (statistics.median(secs), "s"),
        "estimate_s_max": (max(secs), "s"),
        "order_correct_frac": (
            sum(len(estimates[sc.seed]) == sc.freqs.size for sc in ok) / len(scenes),
            "frac",
        ),
        "freq_mse_crb_ratio": (ratio, "ratio"),
        "freq_mse_crb_db": (10.0 * math.log10(ratio) if ratio > 0 else math.nan, "dB"),
        "failed_frac": (sum(c is None for r in rounds for c in r.counts.values()) / attempted, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(scenes, rounds, summaries):
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    n_est = len(summaries)
    n_rounds = len(traced)

    def layer(name):
        return sum(s.layer_s.get(name, 0.0) for s in summaries)

    def per_call(name):
        return layer(name) / max(sum(s.layer_calls.get(name, 0) for s in summaries), 1)

    wall = sum(s.wall for s in summaries)
    train = layer("optimizer")
    iters = [s.iterations for s in summaries]
    passes = sum(s.passes for s in summaries)
    nodes_out = sum(s.nodes_out for s in summaries)
    k_hat = sum(len(est) for r in traced for est in r.estimates.values())
    overhead = sum(per_signal(traced, scenes, "probes")) / sum(per_signal(untraced, scenes, "probes"))
    return {
        "fft_init.s_per_call": (per_call("fft_init"), "s"),
        "fft_init.nodes_out": (nodes_out / n_rounds, "count"),
        "fft_init.nodes_kept": (k_hat / n_rounds, "count"),
        "fft_init.nodes_kept_frac": (k_hat / max(nodes_out, 1), "frac"),
        "optimizer.s_per_estimate": (train / n_est, "s"),
        "optimizer.share": (train / wall, "frac"),
        "optimizer.iters_per_estimate_p50": (float(np.median(iters)), "count"),
        "optimizer.iters_per_estimate_max": (max(iters), "count"),
        "optimizer.max_iter_exits": (sum(s.max_iter_exits for s in summaries) / n_rounds, "count"),
        "optimizer.passes": (passes / n_rounds, "count"),
        "optimizer.us_per_iter": (1e6 * train / max(sum(iters), 1), "us"),
        "optimizer.node_samples_per_s": (sum(s.node_samples for s in summaries) / train, "1/s"),
        "order_control.merge_s_per_call": (per_call("order_control.merge"), "s"),
        "order_control.merges_per_estimate": (sum(s.merges for s in summaries) / n_est, "count"),
        "order_control.prune_s_per_call": (per_call("order_control.prune"), "s"),
        "order_control.prunes_per_estimate": (sum(s.prunes for s in summaries) / n_est, "count"),
        "order_control.threshold_s_per_call": (per_call("order_control.threshold"), "s"),
        "order_control.threshold_share": (layer("order_control.threshold") / wall, "frac"),
        "pipeline.passes_per_estimate": (passes / n_est, "count"),
        "pipeline.self_s_per_estimate": (sum(s.self_time for s in summaries) / n_est, "s"),
        "trace.overhead_frac": (overhead - 1.0, "frac"),
    }


def traced_counts(rounds, summaries) -> list[dict]:
    """Per-seed counts of each traced round, read off the spans."""
    by_id = {s.estimate: s for s in summaries}
    out = []
    for r in rounds:
        if not r.traced:
            continue
        counts = {}
        for seed, eid in r.estimate_ids.items():
            s, est = by_id.get(eid), r.estimates.get(seed)
            counts[seed] = None if s is None or est is None else (
                len(est), s.nodes_out, s.iterations, s.passes, s.merges, s.prunes
            )
        out.append(counts)
    return out


def declared_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args) -> int:
    linespec = load_linespec()
    import scenes as scene_mod
    from spans import Tracer, summarize

    wl = scene_mod.WORKLOADS[args.workload]
    setup_s = math.nan if args.trace else measure_setup()
    scenes = wl.scenes()
    nodes_out = {sc.seed: linespec.initialize(sc.y).m_nodes for sc in scenes}
    linespec.estimate_spectrum(scene_mod.warmup_signal())

    problems: list[str] = []
    tracer = Tracer() if args.trace else None
    rounds, threads_max = run_rounds(
        linespec, scenes, nodes_out, args.seconds, args.seed, tracer, problems
    )
    summaries = summarize(tracer) if tracer else []
    same = deterministic(rounds, traced_counts(rounds, summaries), problems)
    if tracer:
        metrics = per_layer(scenes, rounds, summaries)
    else:
        metrics = end_to_end(scenes, rounds, setup_s)

    counts = {str(sc.seed): rounds[0].counts[sc.seed] for sc in scenes}
    env = {
        "workload": wl.name,
        "signal_seeds": list(wl.seeds),
        "order_seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "threads_max": threads_max,
        "probe_s_p50": statistics.median(
            r.seconds[s] / r.probes[s] for r in rounds for s in r.probes
        ),
        "counts_keys": COUNT_KEYS,
        "counts_sha256": hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest(),
    }
    failed = sum(c is None for r in rounds for c in r.counts.values())
    attempted = sum(len(r.counts) for r in rounds)

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "env": env,
        "problems": problems,
        "counts": counts,
        "rounds": [
            {"traced": r.traced, "seconds": r.seconds, "probes": r.probes} for r in rounds
        ],
        "metrics": {k: v[0] for k, v in metrics.items()},
        "spans": [
            [s.name, s.start, s.end, s.parent, s.estimate, s.counts]
            for s in (tracer.spans if tracer else [])
        ],
    }
    out_path.write_text(json.dumps(record, default=int))

    print("env " + json.dumps(env))
    for problem in problems:
        print("problem " + problem)
    k_hats = [c[0] if c else None for c in (rounds[0].counts[sc.seed] for sc in scenes)]
    print(f"{wl.name}: {len(scenes)} signals x {len(rounds)} rounds, k_hat {k_hats}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    print(f"record {out_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in declared_metrics(args.trace)
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    for name in (w["name"] for w in workloads):
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout, end="")
                print(f"perfbench: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]), flush=True)
            last = json.loads(lines[-1])
            total["correct"] &= last["correct"]
            total["attempted"] += last["attempted"]
            total["failed"] += last["failed"]
            for key, value in last["metrics"].items():
                total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total), flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0, help="seed of the visiting order")
    p.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

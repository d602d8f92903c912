"""Per-seed results of a benchmark workload, and how far two trees differ.

Usage, from the root of a checkout::

    python3 tools/same_results.py tones8_n512 8000 8020 --out before.json
    python3 tools/same_results.py tones8_n512 8000 8020 --against before.json
    python3 tools/same_results.py tones8_n512 8000 8020 --perturb 3
    python3 tools/same_results.py --scene cluster 9000 9020 --perturb 3
    python3 tools/same_results.py --scene order1 5017 5217 --out order1.json
    python3 tools/same_results.py --scene close 1000 1100 --against close.json

Runs ``estimate_spectrum`` once per seed in [START, STOP) on the scenes of
``perfbench/scenes.py`` (any seed, not only the workload's benchmark set),
with one OpenBLAS thread as the benchmark runs it. The other scenes take
no workload. ``--scene cluster`` runs acceptance 08's estimator on
``experiments.cluster_case``'s draws instead (see ClusterScenes), and
nodes_out is the size of its start. ``--scene order1`` and ``--scene
order3`` run the default estimator on acceptance 07's draws, those of
``experiments.mc_order`` at N = 32 and 10 dB with one or three tones and
trial seed base + t (see OrderScenes); ``--scene close`` runs it on
acceptance 02's close-pair draws, trial seed 1000 + t (see CloseScenes).
Prints one JSON line per
seed: the counts ``perfbench/run.py`` checks (k_hat, nodes_out,
iterations, passes, merges, prunes) and the sha256 of the estimated
frequencies, amplitudes, noise variance, cost trace and pass count, in
that order, as raw float64 / complex128 / int64 bytes. A last line gives
the sha256 over every seed's digest.

``--out F`` also writes the rows, estimates included, to F as JSON.
``--against F`` compares with such a file. It prints one line per seed
whose counts moved, with k_hat, iterations and passes as [in F, now] and
the scene's true order, then one line of totals over the seeds in both:
how many end at the true order, and the inner iterations, on each side.
So a change that moves results on purpose can paste its table. The last
line gives the largest |delta omega| (rad), |delta alpha| and relative
|delta sigma2_hat| over the seeds whose k_hat agree, the seeds among them
whose |delta omega| exceeds OMEGA_BOUND (``omega_over_bound``), the seeds
whose counts differ and the seeds whose digests differ. Its ``same_results`` is
false when some seed's counts differ, some seed of the run is not in F,
or the largest |delta omega| exceeds OMEGA_BOUND = 1e-12 rad, the bound
of README's same-results rule.

``--perturb K`` also estimates each seed from K copies of y + d, d
complex white Gaussian noise with rms 1e-15 rms(y), the copy seeded by
(seed, copy index), and adds their k_hat to the row; a last line lists
the seeds where one of them differs from the unperturbed k_hat. An order
that such a last-bit change flips is one no refactor can be held to.

Exits 1 when ``same_results`` is false under --against or some seed
flips under --perturb, else 0; exits 2 on an empty range (STOP <= START),
which would compare nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402  (sets OPENBLAS_NUM_THREADS before numpy loads)

import numpy as np  # noqa: E402

OMEGA_BOUND = 1e-12


class ClusterScenes:
    """Acceptance 08's scenes and estimator, in place of a workload and of linespec.

    scene(seed) is experiments.cluster_case's draw. initialize(y) is its
    bracketed start, experiments._cluster_init, with least-squares
    amplitudes, and estimate_spectrum(y) runs estimate_with_fixed_order
    from those frequencies, with the default configuration, as
    cluster_case does.
    """

    def __init__(self, linespec):
        from linespec import experiments
        from scenes import Scene

        self._linespec = linespec
        self._experiments = experiments
        self._scene = Scene

    def scene(self, seed: int):
        y, sigma2, amps = self._experiments._cluster_draw(seed)
        return self._scene(seed, y, self._experiments.cluster_frequencies(), amps, sigma2)

    def initialize(self, y):
        w0 = self._experiments._cluster_init(y)
        return self._linespec.NetworkState(w0, self._linespec.ls_amplitudes(w0, y))

    def estimate_spectrum(self, y):
        return self._linespec.estimate_with_fixed_order(y, self._experiments._cluster_init(y))


class OrderScenes:
    """Acceptance 07's scenes, in place of a workload.

    scene(seed) is the draw of ``experiments.mc_order``'s trial whose seed
    is ``seed``: K frequencies at least 4 bins apart on N = 32 samples,
    unit magnitudes with random phases, 10 dB SNR.
    """

    N_SAMPLES = 32
    SNR_DB = 10.0

    def __init__(self, k: int):
        from linespec import experiments
        from scenes import Scene

        self._k = k
        self._experiments = experiments
        self._scene = Scene

    def scene(self, seed: int):
        ex, n = self._experiments, self.N_SAMPLES
        rng = np.random.default_rng(seed)
        freqs = np.sort(ex.sample_well_separated(rng, self._k, 4 * ex.TWO_PI / n))
        y, sigma2, amps = ex._draw_signal(freqs, np.ones(self._k), n, self.SNR_DB, rng)
        return self._scene(seed, y, freqs, amps, sigma2)


class CloseScenes:
    """Acceptance 02's scenes, in place of a workload.

    scene(seed) is the draw of 02's trial whose seed is ``seed``: tones at
    0.1, 0.115 and 0.37 cycles per sample on N = 32 samples, the first two
    about half a bin apart, unit magnitudes with random phases, 10 dB SNR.
    """

    N_SAMPLES = 32
    SNR_DB = 10.0
    CYCLES = (0.1, 0.115, 0.37)

    def __init__(self):
        from linespec import experiments
        from scenes import Scene

        self._experiments = experiments
        self._scene = Scene

    def scene(self, seed: int):
        ex = self._experiments
        freqs = ex.TWO_PI * np.array(self.CYCLES)
        rng = np.random.default_rng(seed)
        y, sigma2, amps = ex._draw_signal(freqs, np.ones(freqs.size), self.N_SAMPLES, self.SNR_DB, rng)
        return self._scene(seed, y, freqs, amps, sigma2)


def seed_row(linespec, scene) -> dict:
    """Counts, digest and estimates of one estimate on one scene."""
    report = linespec.estimate_spectrum(scene.y)
    counts = run.report_counts(report, linespec.initialize(scene.y).m_nodes)
    w = np.array([s.omega for s in report.estimates], dtype=np.float64)
    a = np.array([s.amplitude for s in report.estimates], dtype=np.complex128)
    h = hashlib.sha256()
    for part in (w, a, np.float64(report.sigma2_hat), report.cost_trace, np.int64(report.outer_iterations)):
        h.update(np.ascontiguousarray(part).tobytes())
    return {
        "seed": scene.seed,
        "true_k": int(scene.freqs.size),
        **dict(zip(run.COUNT_KEYS, counts)),
        "sha256": h.hexdigest(),
        "omegas": w.tolist(),
        "alphas": a.view(np.float64).tolist(),
        "sigma2_hat": report.sigma2_hat,
    }


def perturbed_k_hats(linespec, scene, copies: int) -> list[int]:
    """k_hat of ``copies`` seeded copies of the scene's y plus noise at 1e-15 of its rms."""
    y = scene.y
    rms = math.sqrt(np.vdot(y, y).real / y.size)
    k_hats = []
    for copy in range(copies):
        rng = np.random.default_rng([scene.seed, copy])
        d = (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) * (1e-15 * rms / math.sqrt(2.0))
        k_hats.append(len(linespec.estimate_spectrum(y + d).estimates))
    return k_hats


def compare(rows: list[dict], old: list[dict]) -> dict:
    """Largest estimate differences and the seeds that differ, row by row."""
    old_by_seed = {r["seed"]: r for r in old}
    d_w = d_a = d_s2 = 0.0
    counts_differ, digests_differ, missing, over_bound = [], [], [], []
    for r in rows:
        o = old_by_seed.get(r["seed"])
        if o is None:
            missing.append(r["seed"])
            continue
        if any(r[k] != o[k] for k in run.COUNT_KEYS):
            counts_differ.append(r["seed"])
        if r["sha256"] != o["sha256"]:
            digests_differ.append(r["seed"])
        if len(r["omegas"]) == len(o["omegas"]):
            if r["omegas"]:
                seed_d_w = float(np.max(np.abs(np.subtract(r["omegas"], o["omegas"]))))
                d_w = max(d_w, seed_d_w)
                if seed_d_w > OMEGA_BOUND:
                    over_bound.append(r["seed"])
                a, b = (np.array(x["alphas"]).view(np.complex128) for x in (r, o))
                d_a = max(d_a, float(np.max(np.abs(a - b))))
            d_s2 = max(d_s2, abs(r["sigma2_hat"] - o["sigma2_hat"]) / (abs(o["sigma2_hat"]) or 1.0))
    return {
        "max_abs_d_omega": d_w,
        "omega_over_bound": over_bound,
        "max_abs_d_alpha": d_a,
        "max_rel_d_sigma2": d_s2,
        "counts_differ": counts_differ,
        "digests_differ": digests_differ,
        "seeds_not_in_file": missing,
        "same_results": not counts_differ and not missing and d_w <= OMEGA_BOUND,
    }


def moved(rows: list[dict], old: list[dict]) -> tuple[list[dict], dict]:
    """The seeds whose counts moved, and the correct-order and iteration totals of both sides.

    Each moved seed gives k_hat, iterations and passes as [old, new] next
    to its true order; the totals count the seeds present in both.
    """
    old_by_seed = {r["seed"]: r for r in old}
    pairs = [(o, r) for r in rows if (o := old_by_seed.get(r["seed"])) is not None]
    lines = [
        {"seed": r["seed"], "true_k": r["true_k"], **{k: [o[k], r[k]] for k in ("k_hat", "iterations", "passes")}}
        for o, r in pairs
        if any(r[k] != o[k] for k in run.COUNT_KEYS)
    ]
    totals = {
        "seeds": len(pairs),
        "order_correct_before": sum(o["k_hat"] == r["true_k"] for o, r in pairs),
        "order_correct_after": sum(r["k_hat"] == r["true_k"] for o, r in pairs),
        "iterations_before": sum(o["iterations"] for o, r in pairs),
        "iterations_after": sum(r["iterations"] for o, r in pairs),
    }
    return lines, totals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", nargs="?", help="a perfbench workload; omitted with any other --scene")
    ap.add_argument("start", type=int)
    ap.add_argument("stop", type=int)
    out = ap.add_mutually_exclusive_group()
    out.add_argument("--out", type=Path, help="write the rows, estimates included, to this JSON file")
    out.add_argument("--against", type=Path, help="compare with a file written by --out")
    ap.add_argument("--perturb", type=int, default=0, metavar="K", help="also estimate K perturbed copies of each seed")
    ap.add_argument(
        "--scene",
        choices=("workload", "cluster", "order1", "order3", "close"),
        default="workload",
        help="instead of a workload's scenes, cluster: acceptance 08's draws and estimator;"
        " order1, order3: acceptance 07's draws with one or three tones;"
        " close: acceptance 02's close-pair draws",
    )
    args = ap.parse_args(argv)
    if (args.workload is None) != (args.scene != "workload"):
        ap.error("give a workload, or --scene cluster, order1, order3 or close without one")
    if args.perturb < 0:
        ap.error("--perturb must be at least 0")
    if args.stop <= args.start:
        ap.error("STOP must be above START: the range [START, STOP) holds no seed")

    linespec = run.load_linespec()
    import scenes

    if args.scene == "cluster":
        workload = linespec = ClusterScenes(linespec)
    elif args.scene == "workload":
        workload = scenes.WORKLOADS[args.workload]
    elif args.scene == "close":
        workload = CloseScenes()
    else:
        workload = OrderScenes(int(args.scene[-1]))
    if args.scene != "workload":
        args.workload = args.scene
    old = json.loads(args.against.read_text())["rows"] if args.against else None
    rows = []
    shown_keys = ("seed", *run.COUNT_KEYS, "sha256") + (("perturbed_k_hat",) if args.perturb else ())
    for seed in range(args.start, args.stop):
        scene = workload.scene(seed)
        rows.append(seed_row(linespec, scene))
        if args.perturb:
            rows[-1]["perturbed_k_hat"] = perturbed_k_hats(linespec, scene, args.perturb)
        print(json.dumps({k: rows[-1][k] for k in shown_keys}), flush=True)
    total = hashlib.sha256("".join(r["sha256"] for r in rows).encode()).hexdigest()
    print(json.dumps({"workload": args.workload, "seeds": [args.start, args.stop - 1], "sha256": total}))
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "rows": rows}))
    failed = False
    if args.perturb:
        flips = [r["seed"] for r in rows if any(k != r["k_hat"] for k in r["perturbed_k_hat"])]
        print(json.dumps({"perturb": args.perturb, "flips": flips}))
        failed = bool(flips)
    if old is not None:
        lines, totals = moved(rows, old)
        for line in lines:
            print(json.dumps(line))
        print(json.dumps(totals))
        diff = compare(rows, old)
        print(json.dumps(diff))
        failed = failed or not diff["same_results"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-seed results of a benchmark workload, and how far two trees differ.

Usage, from the root of a checkout::

    python3 tools/same_results.py tones8_n512 8000 8020 --out before.json
    python3 tools/same_results.py tones8_n512 8000 8020 --against before.json

Runs ``estimate_spectrum`` once per seed in [START, STOP) on the scenes of
``perfbench/scenes.py`` (any seed, not only the workload's benchmark set),
with one OpenBLAS thread as the benchmark runs it. Prints one JSON line per
seed: the counts ``perfbench/run.py`` checks (k_hat, nodes_out,
iterations, passes, merges, prunes) and the sha256 of the estimated
frequencies, amplitudes, noise variance, cost trace and pass count, in
that order, as raw float64 / complex128 / int64 bytes. A last line gives
the sha256 over every seed's digest.

``--out F`` also writes the rows, estimates included, to F as JSON.
``--against F`` compares with such a file: it prints the largest
|delta omega| (rad), |delta alpha| and relative |delta sigma2_hat| over
the seeds whose k_hat agree, the seeds whose counts differ and the seeds
whose digests differ. Exits 1 when some seed's counts differ, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402  (sets OPENBLAS_NUM_THREADS before numpy loads)

import numpy as np  # noqa: E402


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
        **dict(zip(run.COUNT_KEYS, counts)),
        "sha256": h.hexdigest(),
        "omegas": w.tolist(),
        "alphas": a.view(np.float64).tolist(),
        "sigma2_hat": report.sigma2_hat,
    }


def compare(rows: list[dict], old: list[dict]) -> dict:
    """Largest estimate differences and the seeds that differ, row by row."""
    old_by_seed = {r["seed"]: r for r in old}
    d_w = d_a = d_s2 = 0.0
    counts_differ, digests_differ, missing = [], [], []
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
                d_w = max(d_w, float(np.max(np.abs(np.subtract(r["omegas"], o["omegas"])))))
                a, b = (np.array(x["alphas"]).view(np.complex128) for x in (r, o))
                d_a = max(d_a, float(np.max(np.abs(a - b))))
            d_s2 = max(d_s2, abs(r["sigma2_hat"] - o["sigma2_hat"]) / (abs(o["sigma2_hat"]) or 1.0))
    return {
        "max_abs_d_omega": d_w,
        "max_abs_d_alpha": d_a,
        "max_rel_d_sigma2": d_s2,
        "counts_differ": counts_differ,
        "digests_differ": digests_differ,
        "seeds_not_in_file": missing,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("start", type=int)
    ap.add_argument("stop", type=int)
    out = ap.add_mutually_exclusive_group()
    out.add_argument("--out", type=Path, help="write the rows, estimates included, to this JSON file")
    out.add_argument("--against", type=Path, help="compare with a file written by --out")
    args = ap.parse_args(argv)

    linespec = run.load_linespec()
    import scenes

    workload = scenes.WORKLOADS[args.workload]
    old = json.loads(args.against.read_text())["rows"] if args.against else None
    rows = []
    for seed in range(args.start, args.stop):
        rows.append(seed_row(linespec, workload.scene(seed)))
        shown = {k: rows[-1][k] for k in ("seed", *run.COUNT_KEYS, "sha256")}
        print(json.dumps(shown), flush=True)
    total = hashlib.sha256("".join(r["sha256"] for r in rows).encode()).hexdigest()
    print(json.dumps({"workload": args.workload, "seeds": [args.start, args.stop - 1], "sha256": total}))
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "rows": rows}))
    if old is None:
        return 0
    diff = compare(rows, old)
    print(json.dumps(diff))
    return 1 if diff["counts_differ"] else 0


if __name__ == "__main__":
    sys.exit(main())

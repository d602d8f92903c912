"""Per-seed counts of a workload's scene over any range of signal seeds.

Usage, from the root of a checkout::

    python3 perfbench/counts.py sep3_n32 7000 7060

Runs ``estimate_spectrum`` once per seed in [start, stop), untimed, and
prints one JSON line per seed with the counts ``run.py`` checks for
determinism, then one summary line: signals with the true order, and the
sum, median and maximum of inner iterations per estimate.
"""

from __future__ import annotations

import json
import statistics
import sys

import run


def main(argv: list[str]) -> int:
    name, start, stop = argv[0], int(argv[1]), int(argv[2])
    linespec = run.load_linespec()
    import scenes

    wl = scenes.WORKLOADS[name]
    rows = []
    correct = 0
    for seed in range(start, stop):
        sc = wl.scene(seed)
        report = linespec.estimate_spectrum(sc.y)
        counts = run.report_counts(report, linespec.initialize(sc.y).m_nodes)
        rows.append({"seed": seed, **dict(zip(run.COUNT_KEYS, counts))})
        correct += report.k_hat == sc.freqs.size
        print(json.dumps(rows[-1]), flush=True)
    iters = [r["iterations"] for r in rows]
    summary = {
        "workload": name,
        "seeds": [start, stop - 1],
        "order_correct": f"{correct}/{len(rows)}",
        "iterations_sum": sum(iters),
        "iterations_p50": statistics.median(iters),
        "iterations_max": max(iters),
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Per-call time of the factored training kernel over the table kernel, per (N, M).

Usage, from the root of a checkout::

    python3 tools/kernel_crossover.py
    python3 tools/kernel_crossover.py --n 128 256 512 --m 8 16 --repeats 21

Times one ``residual`` + ``gradient_sums`` call, the kernel's share of a
training iteration, of ``optimizer._FactoredKernel`` and of
``optimizer._Kernel`` on the same seeded signal, nodes and amplitudes,
in-process, with one OpenBLAS thread as the benchmark runs it. Each repeat
times ``--calls`` consecutive calls of each kernel, the two kernels in
alternating order (the factored one first at even repeats). The ratio,
factored over table (below 1, the factored kernel is faster), is the median
over repeats of the two back-to-back batch times' ratio, so host speed
drift between repeats divides out and a stall in one repeat does not
count. ``ratio_q1`` and ``ratio_q3`` are the quartiles of those batch
ratios: a row whose quartiles straddle 1 is a tie, whatever its median.
This is the measurement behind ``optimizer._FACTORED_MIN_N``.

Prints one JSON line per (N, M) with each kernel's median per-call time in
microseconds, the ratio and its quartiles, then a last line with each N's
ratio range over the M values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402  (sets OPENBLAS_NUM_THREADS before numpy loads)

import numpy as np  # noqa: E402

DEFAULT_N = (32, 64, 96, 128, 160, 192, 256, 320, 512, 1024, 4096)
DEFAULT_M = (3, 8, 12, 16, 32)


def batch_times(optimizer, n: int, m: int, repeats: int, calls: int) -> dict:
    """Per-call seconds of each kernel in each of ``repeats`` alternating batches."""
    rng = np.random.default_rng([n, m])
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    omegas = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
    alphas = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    kernels = {"factored": optimizer._FactoredKernel(y, m), "table": optimizer._Kernel(y, m)}
    times = {name: np.empty(repeats) for name in kernels}
    for repeat in range(repeats):
        order = list(kernels) if repeat % 2 == 0 else list(reversed(kernels))
        for name in order:
            kernel = kernels[name]
            start = perf_counter()
            for _ in range(calls):
                kernel.residual(omegas, alphas)
                kernel.gradient_sums()
            times[name][repeat] = (perf_counter() - start) / calls
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=DEFAULT_N, help="signal lengths")
    ap.add_argument("--m", type=int, nargs="+", default=DEFAULT_M, help="node counts")
    ap.add_argument("--repeats", type=int, default=21, help="alternating batches per kernel")
    ap.add_argument("--calls", type=int, default=100, help="calls per batch")
    args = ap.parse_args(argv)
    if min(args.n) < 1 or min(args.m) < 1 or args.repeats < 1 or args.calls < 1:
        ap.error("every count must be at least 1")

    optimizer = run.load_linespec().optimizer
    ranges = {}
    for n in args.n:
        for m in args.m:
            times = batch_times(optimizer, n, m, args.repeats, args.calls)
            q1, ratio, q3 = (float(q) for q in np.percentile(times["factored"] / times["table"], [25, 50, 75]))
            lo, hi = ranges.get(n, (ratio, ratio))
            ranges[n] = (min(lo, ratio), max(hi, ratio))
            row = {f"{name}_us": 1e6 * float(np.median(t)) for name, t in times.items()}
            print(json.dumps({"n": n, "m": m, **row, "ratio": ratio, "ratio_q1": q1, "ratio_q3": q3}), flush=True)
    print(json.dumps({"blas_threads": run.blas_threads(), "ratio_range": {str(n): r for n, r in ranges.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""tools/kernel_crossover.py: one row per (N, M) and a range per N; timings unchecked."""

import json
import math
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "kernel_crossover.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=120
    )


def test_prints_a_row_per_grid_point_and_the_ranges():
    done = _run("--n", "4", "256", "--m", "1", "3", "--repeats", "2", "--calls", "2")
    assert done.returncode == 0, done.stderr
    *rows, last = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(r["n"], r["m"]) for r in rows] == [(4, 1), (4, 3), (256, 1), (256, 3)]
    for r in rows:
        assert set(r) == {"n", "m", "factored_us", "table_us", "ratio"}
        assert r["factored_us"] > 0 and r["table_us"] > 0
        assert 0 < r["ratio"] < math.inf
    assert last["blas_threads"] in (1, None)
    for n in (4, 256):
        ratios = [r["ratio"] for r in rows if r["n"] == n]
        assert last["ratio_range"][str(n)] == [min(ratios), max(ratios)]


def test_rejects_an_empty_grid_point():
    done = _run("--m", "0")
    assert done.returncode == 2
    assert "at least 1" in done.stderr

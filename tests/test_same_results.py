"""tools/same_results.py: per-seed digests repeat, and a comparison names what moved."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_results.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("same_results", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), "sep3_n32", "7000", "7002", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_a_second_run_matches_the_saved_one(tmp_path):
    saved = tmp_path / "before.json"
    first = _run("--out", str(saved))
    assert first.returncode == 0, first.stderr
    rows = json.loads(saved.read_text())["rows"]
    assert [r["seed"] for r in rows] == [7000, 7001]
    second = _run("--against", str(saved))
    assert second.returncode == 0, second.stderr
    lines = second.stdout.splitlines()
    assert lines[:3] == first.stdout.splitlines()[:3]
    diff = json.loads(lines[-1])
    assert diff["counts_differ"] == diff["digests_differ"] == []
    assert diff["max_abs_d_omega"] == diff["max_abs_d_alpha"] == diff["max_rel_d_sigma2"] == 0.0


def test_compare_reports_the_largest_differences_and_the_seeds_that_moved():
    tool = _load_tool()
    counts = dict.fromkeys(tool.run.COUNT_KEYS, 1)
    old = [
        {"seed": 1, **counts, "sha256": "a", "omegas": [1.0], "alphas": [1.0, 0.0], "sigma2_hat": 2.0},
        {"seed": 2, **counts, "sha256": "b", "omegas": [2.0], "alphas": [0.0, 1.0], "sigma2_hat": 4.0},
    ]
    new = [
        {**old[0], "sha256": "c", "omegas": [1.0 + 1e-15], "sigma2_hat": 2.0 + 2e-14},
        {**old[1], "iterations": 2, "alphas": [0.0, 1.0 + 3e-13]},
        {**old[1], "seed": 3},
    ]
    diff = tool.compare(new, old)
    assert diff["max_abs_d_omega"] == abs((1.0 + 1e-15) - 1.0)
    assert diff["max_abs_d_alpha"] == abs((1.0 + 3e-13) - 1.0)
    assert diff["max_rel_d_sigma2"] == abs((2.0 + 2e-14) - 2.0) / 2.0
    assert diff["counts_differ"] == [2]
    assert diff["digests_differ"] == [1]
    assert diff["seeds_not_in_file"] == [3]

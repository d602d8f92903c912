"""tools/same_results.py: per-seed digests repeat, and a comparison names what moved."""

import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

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
    # No seed moved, so only the totals line stands between the rows and the diff.
    assert json.loads(lines[-2]) == {
        "seeds": 2,
        "order_correct_before": 2,
        "order_correct_after": 2,
        "iterations_before": rows[0]["iterations"] + rows[1]["iterations"],
        "iterations_after": rows[0]["iterations"] + rows[1]["iterations"],
    }
    diff = json.loads(lines[-1])
    assert diff["counts_differ"] == diff["digests_differ"] == []
    assert diff["same_results"] is True
    assert diff["max_abs_d_omega"] == diff["max_abs_d_alpha"] == diff["max_rel_d_sigma2"] == 0.0
    # A run with a seed the file lacks fails, so a mistyped range cannot pass.
    shifted = subprocess.run(
        [sys.executable, str(TOOL), "sep3_n32", "7001", "7003", "--against", str(saved)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert shifted.returncode == 1, shifted.stdout + shifted.stderr
    diff = json.loads(shifted.stdout.splitlines()[-1])
    assert diff["seeds_not_in_file"] == [7002]
    assert diff["same_results"] is False


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
    assert not diff["same_results"]


def test_compare_fails_a_frequency_difference_beyond_1e_12_rad():
    # Equal counts are not enough: README's same-results rule also bounds
    # |delta omega| by 1e-12 rad.
    tool = _load_tool()
    counts = dict.fromkeys(tool.run.COUNT_KEYS, 1)
    old = [{"seed": 1, **counts, "sha256": "a", "omegas": [1.0], "alphas": [1.0, 0.0], "sigma2_hat": 2.0}]
    for d_omega, same in ((0.0, True), (2.0**-40, True), (2.0**-39, False)):
        new = [{**old[0], "sha256": "b", "omegas": [1.0 + d_omega]}]
        diff = tool.compare(new, old)
        assert diff["counts_differ"] == []
        assert diff["same_results"] is same, d_omega
        assert diff["omega_over_bound"] == ([] if same else [1])
    # omega_over_bound names each seed past the bound, not only the largest.
    old = [{**old[0], "seed": seed} for seed in (1, 2, 3)]
    new = [{**row, "sha256": "b", "omegas": [1.0 + d]} for row, d in zip(old, (2.0**-39, 2.0**-40, 2.0**-38))]
    assert tool.compare(new, old)["omega_over_bound"] == [1, 3]


def test_compare_fails_a_seed_missing_from_the_file():
    # A mistyped seed range compares nothing; it must not read as a pass.
    tool = _load_tool()
    counts = dict.fromkeys(tool.run.COUNT_KEYS, 1)
    old = [{"seed": 1, **counts, "sha256": "a", "omegas": [1.0], "alphas": [1.0, 0.0], "sigma2_hat": 2.0}]
    assert tool.compare(old, old)["same_results"] is True
    for new in ([{**old[0], "seed": 2}], [old[0], {**old[0], "seed": 2}]):
        diff = tool.compare(new, old)
        assert diff["seeds_not_in_file"] == [2]
        assert diff["counts_differ"] == [] and diff["max_abs_d_omega"] == 0.0
        assert diff["same_results"] is False


def test_a_last_bit_perturbation_flips_no_order_on_benchmark_seeds():
    # Noise at 1e-15 of the signal's rms moves each estimate by last bits;
    # no order on these seeds may hang on them.
    for workload, start, stop in (("sep3_n32", "7000", "7004"), ("tones8_n512", "8000", "8002")):
        done = subprocess.run(
            [sys.executable, str(TOOL), workload, start, stop, "--perturb", "2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        lines = [json.loads(line) for line in done.stdout.splitlines()]
        assert [len(row["perturbed_k_hat"]) for row in lines[:-2]] == [2] * (int(stop) - int(start))
        assert lines[-1] == {"perturb": 2, "flips": []}


def test_perturbed_copies_are_seeded_and_at_1e_15_of_the_rms():
    tool = _load_tool()
    seen = []

    def estimate_spectrum(y):
        seen.append(y)
        return types.SimpleNamespace(estimates=[0.0])

    fake = types.SimpleNamespace(estimate_spectrum=estimate_spectrum)
    y = np.full(256, 2.0 + 0j)
    scene = types.SimpleNamespace(seed=3, y=y)
    assert tool.perturbed_k_hats(fake, scene, 3) == [1, 1, 1]
    tool.perturbed_k_hats(fake, scene, 3)
    for copy, again in zip(seen[:3], seen[3:]):
        np.testing.assert_array_equal(copy, again)
        assert 0.8e-15 < np.sqrt(np.mean(np.abs(copy - y) ** 2)) / 2.0 < 1.2e-15
    assert not np.array_equal(seen[0], seen[1])


def test_moved_lists_each_seed_whose_counts_changed_and_both_sides_totals():
    tool = _load_tool()
    counts = dict.fromkeys(tool.run.COUNT_KEYS, 1)
    old = [
        {"seed": 1, "true_k": 3, **counts, "k_hat": 4, "iterations": 20000, "passes": 9},
        {"seed": 2, "true_k": 3, **counts, "k_hat": 3, "iterations": 264, "passes": 8},
        {"seed": 3, "true_k": 3, **counts, "k_hat": 3, "iterations": 300, "passes": 8},
    ]
    new = [
        {**old[0], "k_hat": 3, "iterations": 500, "prunes": 2},
        {**old[1], "merges": 2},
        old[2],
        {**old[2], "seed": 4},
    ]
    lines, totals = tool.moved(new, old)
    assert lines == [
        {"seed": 1, "true_k": 3, "k_hat": [4, 3], "iterations": [20000, 500], "passes": [9, 9]},
        {"seed": 2, "true_k": 3, "k_hat": [3, 3], "iterations": [264, 264], "passes": [8, 8]},
    ]
    # Seed 4 is not in the old file, so neither side counts it.
    assert totals == {
        "seeds": 3,
        "order_correct_before": 2,
        "order_correct_after": 3,
        "iterations_before": 20564,
        "iterations_after": 1064,
    }


def test_an_empty_seed_range_exits_2_before_estimating(tmp_path, capsys):
    # [START, STOP) with STOP <= START runs no seed, so a comparison over it
    # would print "same_results": true having compared nothing.
    tool = _load_tool()
    saved = tmp_path / "before.json"
    saved.write_text(json.dumps({"workload": "sep3_n32", "rows": []}))
    for start, stop in (("7060", "7000"), ("7005", "7005")):
        with pytest.raises(SystemExit) as exc:
            tool.main(["sep3_n32", start, stop, "--against", str(saved)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "STOP must be above START" in captured.err


def test_the_cluster_scene_runs_acceptance_08s_estimator(tmp_path):
    # --scene cluster takes no workload. Its row for a seed is
    # experiments.cluster_case's run: the same estimates and counts, with
    # the bracketed start's size as nodes_out.
    from linespec.experiments import cluster_case

    saved = tmp_path / "cluster.json"
    args = [sys.executable, str(TOOL), "--scene", "cluster", "9001", "9002"]
    first = subprocess.run([*args, "--out", str(saved)], capture_output=True, text=True, timeout=300)
    assert first.returncode == 0, first.stderr
    (row,) = json.loads(saved.read_text())["rows"]
    case = cluster_case(9001)
    report = case.report
    assert (row["true_k"], row["k_hat"], row["nodes_out"]) == (10, report.k_hat, case.initial_m)
    assert row["iterations"] == report.cost_trace.size - report.outer_iterations
    assert row["omegas"] == [s.omega for s in report.estimates]
    again = subprocess.run([*args, "--against", str(saved)], capture_output=True, text=True, timeout=300)
    assert again.returncode == 0, again.stdout + again.stderr
    assert json.loads(again.stdout.splitlines()[-1])["same_results"] is True


def test_the_order_scenes_are_acceptance_07s_draws(monkeypatch, tmp_path):
    # --scene order1 and order3 draw mc_order's trials (N = 32, 10 dB, one
    # or three tones, trial seed base + t) and run the default estimator.
    from linespec import experiments
    from linespec.pipeline import estimate_spectrum

    tool = _load_tool()
    for k, base in ((1, 5017), (3, 5051)):
        drawn = []
        monkeypatch.setattr(experiments, "estimate_spectrum", lambda y: drawn.append(y) or estimate_spectrum(y))
        experiments.mc_order(32, 10.0, trials=2, base_seed=base, k_values=(k,))
        scenes = [tool.OrderScenes(k).scene(base + t) for t in range(2)]
        assert [s.y.tobytes() for s in scenes] == [y.tobytes() for y in drawn]
        assert [s.freqs.size for s in scenes] == [k, k]
    saved = tmp_path / "order3.json"
    args = [sys.executable, str(TOOL), "--scene", "order3", "5051", "5053", "--out", str(saved)]
    done = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = json.loads(saved.read_text())["rows"]
    assert [r["true_k"] for r in rows] == [3, 3]
    assert [r["omegas"] for r in rows] == [[s.omega for s in estimate_spectrum(y).estimates] for y in drawn]


def test_the_close_scene_is_acceptance_02s_draw(monkeypatch, tmp_path):
    # --scene close draws 02's trials (N = 32, 10 dB, tones at 0.1, 0.115
    # and 0.37 cycles, trial seed 1000 + t) and runs the default estimator.
    # 02 runs here with an estimator that records each signal and finds no
    # tone, so the test fails on its order count after drawing all 100.
    from linespec.pipeline import estimate_spectrum

    spec = importlib.util.spec_from_file_location("acceptance", TOOL.parents[1] / "tests" / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    drawn = []
    monkeypatch.setattr(acceptance, "estimate_spectrum", lambda y: drawn.append(y) or types.SimpleNamespace(k_hat=0))
    with pytest.raises(AssertionError, match="correct order in 0/100"):
        acceptance.test_02_superresolution_recovery_of_close_tones()
    tool = _load_tool()
    scenes = [tool.CloseScenes().scene(1000 + t) for t in range(100)]
    assert len(drawn) == 100
    assert [s.y.tobytes() for s in scenes] == [y.tobytes() for y in drawn]
    assert all(s.freqs.size == 3 for s in scenes)
    saved = tmp_path / "close.json"
    args = [sys.executable, str(TOOL), "--scene", "close", "1000", "1002", "--out", str(saved)]
    done = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = json.loads(saved.read_text())["rows"]
    assert [r["true_k"] for r in rows] == [3, 3]
    assert [r["omegas"] for r in rows] == [[s.omega for s in estimate_spectrum(y).estimates] for y in drawn[:2]]


@pytest.mark.parametrize("argv", [["7000", "7001"], ["sep3_n32", "7000", "7001", "--scene", "cluster"]])
def test_a_run_names_a_workload_or_the_cluster_scene_but_not_both(argv, capsys):
    tool = _load_tool()
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    assert "--scene cluster" in capsys.readouterr().err

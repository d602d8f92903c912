"""Command-line interface tests.

Everything drives main(argv) in process and checks exit codes, file
contents, and the JSON report contract. One subprocess test confirms the
installed console script responds.
"""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import linespec
from linespec import experiments
from linespec.cli import _STUDIES, _run_experiment, build_parser, main
from linespec.pipeline import EstimatorConfig

COMPONENTS = [
    {"re": 1.0, "im": 0.0, "normalized_freq": 0.1},
    {"re": 0.0, "im": 1.0, "normalized_freq": 0.22},
    {"re": -0.5, "im": 0.5, "normalized_freq": 0.37},
]
REPORT_KEYS = {
    "estimates",
    "sigma2_hat",
    "k_hat",
    "outer_iterations",
    "cost_trace",
    "events",
    "config",
    "seed",
}


def _components_file(tmp_path):
    path = tmp_path / "components.json"
    path.write_text(json.dumps(COMPONENTS))
    return str(path)


def test_simulate_estimate_round_trip(tmp_path, capsys):
    comp = _components_file(tmp_path)
    sig = str(tmp_path / "signal.csv")
    rep = str(tmp_path / "report.json")
    assert main(["simulate", "--n", "32", "--components", comp,
                 "--snr-db", "20", "--seed", "0", "--out", sig]) == 0
    assert main(["estimate", "--in", sig, "--report", rep]) == 0
    capsys.readouterr()

    data = json.loads((tmp_path / "report.json").read_text())
    assert set(data.keys()) == REPORT_KEYS
    assert data["k_hat"] == 3
    assert data["seed"] == 0  # propagated from the signal file metadata
    got = sorted(e["normalized_freq"] for e in data["estimates"])
    for want, have in zip([0.1, 0.22, 0.37], got):
        assert abs(have - want) < 5e-3
    assert data["sigma2_hat"] > 0
    assert len(data["cost_trace"]) > 0
    assert data["config"] == asdict(EstimatorConfig())
    for event in data["events"]:
        assert event["kind"] in ("polish", "merge", "prune")
        assert event["pass"] >= 1


def test_estimate_report_lists_a_polish_before_its_pass_prune(tmp_path, capsys):
    # README's three tones at seed 0: the look-ahead before pass 8 polishes
    # the split tone at 0.37, and pass 8 prunes one of its two nodes.
    comp = tmp_path / "tones.json"
    comp.write_text(json.dumps([
        {"re": 1.0, "im": 0.5, "normalized_freq": 0.10},
        {"re": -0.7, "im": 0.2, "normalized_freq": 0.22},
        {"re": 0.3, "im": -1.1, "normalized_freq": 0.37},
    ]))
    sig, rep = str(tmp_path / "signal.csv"), tmp_path / "report.json"
    assert main(["simulate", "--n", "32", "--components", str(comp), "--snr-db", "20", "--seed", "0", "--out", sig]) == 0
    assert main(["estimate", "--in", sig, "--report", str(rep)]) == 0
    capsys.readouterr()
    data = json.loads(rep.read_text())
    assert data["k_hat"] == 3
    (polish,) = [e for e in data["events"] if e["kind"] == "polish"]
    assert {"mean_costs", "iterations_run", "halvings", "exit_reason"} <= polish.keys()
    assert len(polish["mean_costs"]) == polish["iterations_run"] + 1
    same_pass = [e["kind"] for e in data["events"] if e["pass"] == polish["pass"]]
    assert same_pass == ["polish", "prune"]


def test_noiseless_round_trip_finds_true_tones(tmp_path, capsys):
    # Without noise the order statistics have no floor to calibrate against
    # and extra low-power nodes survive; the three dominant estimates still
    # pin the true frequencies.
    comp = _components_file(tmp_path)
    sig = str(tmp_path / "clean.csv")
    rep = str(tmp_path / "clean.json")
    assert main(["simulate", "--n", "32", "--components", comp, "--out", sig]) == 0
    assert main(["estimate", "--in", sig, "--report", rep]) == 0
    capsys.readouterr()

    data = json.loads((tmp_path / "clean.json").read_text())
    assert data["k_hat"] >= 3
    dominant = sorted(
        data["estimates"], key=lambda e: -(e["re"] ** 2 + e["im"] ** 2)
    )[:3]
    got = sorted(e["normalized_freq"] for e in dominant)
    for want, have in zip([0.1, 0.22, 0.37], got):
        assert abs(have - want) < 5e-3


@pytest.mark.parametrize(
    "components",
    [
        {"re": 1.0},
        [1, 2],
        [{"re": 1.0, "im": 0.0, "normalized_freq": "nan"}],
        [{"re": "inf", "im": 0.0, "normalized_freq": 0.1}],
    ],
    ids=["not-a-list", "entry-not-an-object", "nan-frequency", "inf-amplitude"],
)
def test_simulate_rejects_bad_components(components, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(components))
    rc = main(["simulate", "--n", "32", "--components", str(bad),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    rc = main(["simulate", "--n", "32", "--components", _components_file(tmp_path),
               "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error: cannot write signal" in captured.err
    assert "wrote" not in captured.out


def test_estimate_unwritable_report_exits_2(tmp_path, capsys):
    sig = str(tmp_path / "signal.csv")
    assert main(["simulate", "--n", "32", "--components", _components_file(tmp_path),
                 "--snr-db", "20", "--out", sig]) == 0
    rc = main(["estimate", "--in", sig, "--report", str(tmp_path / "missing" / "r.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error: cannot write report" in captured.err
    assert "report written" not in captured.out


def test_estimate_missing_file_exits_2(tmp_path, capsys):
    rc = main(["estimate", "--in", str(tmp_path / "nope.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_estimate_headerless_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.csv"
    path.write_text("0,1.0,2.0\n1,0.5,0.1\n")
    rc = main(["estimate", "--in", str(path)])
    assert rc == 2
    assert "header" in capsys.readouterr().err


def test_estimate_malformed_row_exits_2(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("index,re,im\n0,1.0\n")
    rc = main(["estimate", "--in", str(path)])
    assert rc == 2
    capsys.readouterr()


def _write_csv(path, rows):
    path.write_text("index,re,im\n" + "".join(f"{i},{re},{im}\n" for i, re, im in rows))
    return str(path)


def test_estimate_repeated_index_exits_2(tmp_path, capsys):
    # Index 1 twice and index 2 never: the missing sample must not be zero-filled.
    rows = [(0, 1.0, 0.0), (1, 0.5, 0.1), (1, 0.5, 0.1), (3, 0.2, 0.0)]
    path = _write_csv(tmp_path / "dup.csv", rows)
    assert main(["estimate", "--in", path]) == 2
    assert "repeated" in capsys.readouterr().err


def test_estimate_non_finite_sample_exits_2(tmp_path, capsys):
    rows = [(i, 1.0, 0.0) for i in range(16)]
    rows[5] = (5, "nan", 0.0)
    path = _write_csv(tmp_path / "nan.csv", rows)
    assert main(["estimate", "--in", path]) == 2
    assert "finite" in capsys.readouterr().err


def test_estimate_overflowing_energy_exits_2(tmp_path, capsys):
    # Finite samples whose energy sum overflows a float.
    rows = [(i, 1e154, 0.0) for i in range(8)]
    path = _write_csv(tmp_path / "huge.csv", rows)
    assert main(["estimate", "--in", path]) == 2
    assert "energy" in capsys.readouterr().err


def test_estimate_eps_sets_the_tolerance_floor(tmp_path, capsys):
    comp = _components_file(tmp_path)
    sig = str(tmp_path / "signal.csv")
    assert main(["simulate", "--n", "32", "--components", comp,
                 "--snr-db", "20", "--seed", "0", "--out", sig]) == 0
    reports = {}
    for eps in ("1e-9", "1e-6"):
        rep = tmp_path / f"report{eps}.json"
        assert main(["estimate", "--in", sig, "--eps", eps, "--report", str(rep)]) == 0
        reports[eps] = json.loads(rep.read_text())
    default = tmp_path / "default.json"
    assert main(["estimate", "--in", sig, "--report", str(default)]) == 0
    capsys.readouterr()
    assert json.loads(default.read_text()) == reports["1e-9"]
    assert reports["1e-6"]["config"]["train"]["eps_tol"] == 1e-6
    assert reports["1e-6"]["outer_iterations"] < reports["1e-9"]["outer_iterations"]


def test_estimate_parser_defaults_are_the_estimator_config():
    args = build_parser().parse_args(["estimate", "--in", "signal.csv"])
    cfg = EstimatorConfig()
    assert not hasattr(args, "l_factor")
    assert args.eps == cfg.train.eps_tol
    assert (args.epsf, args.epsa) == (cfg.order.epsilon_f, cfg.order.epsilon_a)
    train = (args.gamma_alpha, args.gamma_omega, args.momentum, args.max_iter)
    assert train == (
        cfg.train.gamma_alpha, cfg.train.gamma_omega, cfg.train.momentum, cfg.train.max_iter
    )


def test_estimate_eps_above_the_schedule_start_exits_2(tmp_path, capsys):
    path = _write_csv(tmp_path / "ones.csv", [(i, 1.0, 0.0) for i in range(16)])
    assert main(["estimate", "--in", path, "--eps", "0.1"]) == 2
    assert "train.eps_tol" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("option", ["--gamma-alpha", "--gamma-omega"])
def test_estimate_infinite_learning_rate_exits_2(option, tmp_path, capsys):
    path = _write_csv(tmp_path / "ones.csv", [(i, 1.0, 0.0) for i in range(16)])
    assert main(["estimate", "--in", path, option, "inf"]) == 2
    assert option[2:].replace("-", "_") in capsys.readouterr().err


def test_estimate_epsf_at_which_nothing_merges_exits_2(tmp_path, capsys):
    path = _write_csv(tmp_path / "ones.csv", [(i, 1.0, 0.0) for i in range(16)])
    assert main(["estimate", "--in", path, "--epsf", "0.5"]) == 2
    assert "epsilon_f" in capsys.readouterr().err


def test_estimate_without_metadata_has_null_seed(tmp_path, capsys):
    import numpy as np

    n = 32
    tone = 2.0 * np.exp(1j * 2.0 * np.pi * 0.25 * np.arange(n))
    rng = np.random.default_rng(8)
    y = tone + (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.1
    path = tmp_path / "hand.csv"
    lines = ["index,re,im"]
    lines += [f"{i},{float(v.real)!r},{float(v.imag)!r}" for i, v in enumerate(y)]
    path.write_text("\n".join(lines) + "\n")
    rep = str(tmp_path / "hand.json")
    assert main(["estimate", "--in", str(path), "--report", rep]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "hand.json").read_text())
    assert data["seed"] is None
    assert data["k_hat"] == 1
    assert abs(data["estimates"][0]["normalized_freq"] - 0.25) < 1e-3


def test_gradcheck_passes_and_detects_bias(capsys):
    assert main(["gradcheck", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert main(["gradcheck", "--trials", "20", "--perturb"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "0", "--components", "c.json", "--out", "x.csv"],
        ["experiment", "order", "--trials", "0"],
        ["experiment", "mse", "--trials", "-1"],
        ["gradcheck", "--n", "1"],
        ["gradcheck", "--seed", "-1"],
        ["experiment", "order", "--seed", "-1"],
        ["simulate", "--n", "32", "--components", "c.json", "--snr-db", "10",
         "--seed", "-1", "--out", "x.csv"],
        ["gradcheck", "--tol", "nan"],
        ["gradcheck", "--tol=-1"],
        ["gradcheck", "--tol", "0"],
        ["gradcheck", "--tol", "inf"],
    ],
    ids=["simulate-n-0", "order-trials-0", "mse-trials-negative", "gradcheck-n-1",
         "gradcheck-seed-negative", "experiment-seed-negative", "simulate-seed-negative",
         "gradcheck-tol-nan", "gradcheck-tol-negative", "gradcheck-tol-0", "gradcheck-tol-inf"],
)
def test_out_of_range_count_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(COMPONENTS))
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_simulate_with_nan_snr_exits_2(tmp_path, monkeypatch, capsys):
    # A NaN SNR gives a NaN noise variance; it must not become a noiseless signal.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(COMPONENTS))
    argv = ["simulate", "--n", "8", "--components", "c.json", "--snr-db", "nan", "--out", "x.csv"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("snr", ["--snr-db=-inf", "--snr-db=4000"])
def test_simulate_with_snr_outside_float_range_exits_2(snr, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(COMPONENTS))
    assert main(["simulate", "--n", "8", "--components", "c.json", snr, "--out", "x.csv"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_experiment_missing_out_dir_exits_2_before_the_study_runs(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(experiments, "mc_order", lambda **kwargs: calls.append(kwargs))
    assert main(["experiment", "order", "--out-dir", str(tmp_path / "missing")]) == 2
    assert "error:" in capsys.readouterr().err
    assert calls == []


def test_unknown_experiment_name_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "bogus"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_estimate_has_no_padding_option(capsys):
    # The FFT start's padding is the constant fft_init.L_FACTOR.
    with pytest.raises(SystemExit) as excinfo:
        main(["estimate", "--in", "signal.csv", "--l-factor", "4"])
    assert excinfo.value.code == 2
    assert "--l-factor" in capsys.readouterr().err


def test_full_multiplies_every_default_trial_count_by_five(monkeypatch):
    trials = []

    def fake(*args, **kwargs):
        trials.append(kwargs["trials"] if "trials" in kwargs else args[0].trials)

    for runner in ("mc_mse", "mc_roc_merge", "mc_roc_prune", "mc_order",
                   "convergence_trace", "mc_cluster"):
        monkeypatch.setattr(experiments, runner, fake)
    for name, (default_trials, _, _) in _STUDIES.items():
        _run_experiment(name, None, None, full=True)
        assert trials[-1] == 5 * default_trials, name
    assert len(trials) == 7


def test_experiment_outputs_are_reproducible(tmp_path, capsys):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    d1.mkdir()
    d2.mkdir()
    for d in (d1, d2):
        rc = main(["experiment", "roc-prune", "--trials", "50",
                   "--seed", "4600", "--out-dir", str(d)])
        assert rc == 0
    capsys.readouterr()
    for stem in ("roc_prune_one-node.json", "roc_prune_one-node.csv"):
        a = (d1 / stem).read_text()
        b = (d2 / stem).read_text()
        assert a == b
        assert len(a) > 0
    data = json.loads((d1 / "roc_prune_one-node.json").read_text())
    assert data["seeds"] == {"base_seed": 4600, "trials": 50}
    assert len(data["rows"]) == 6


def test_console_script_installed():
    # The child must import the linespec under test, installed or not.
    root = str(Path(linespec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "linespec.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "experiment" in proc.stdout

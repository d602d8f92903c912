"""Tests for the Monte Carlo harness.

The general CRB helper is checked against a finite-difference construction
of the information matrix (independent of the analytic derivative columns)
and against the classical single-tone closed form. Experiment runners are
exercised on small deterministic configurations: structure, counting
identities, calibration of the false-alarm rate, and bit-reproducibility.
"""

import csv
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from linespec import experiments
from linespec.errors import SingularInformation
from linespec.experiments import (
    SweepResult,
    TrialSpec,
    circular_distance,
    cluster_case,
    cluster_frequencies,
    convergence_trace,
    fd_gradients,
    general_crb,
    match_components,
    mc_mse,
    mc_order,
    mc_roc_merge,
    mc_roc_prune,
    sample_well_separated,
    write_json,
)
from linespec.fft_init import InitConfig
from linespec.optimizer import NetworkState, grad_alpha, grad_omega
from linespec.pipeline import EstimatorConfig
from linespec.signal_model import TWO_PI, Sinusoid


# ---------------------------------------------------------------------------
# general_crb


def _crb_fd_oracle(truth, n, sigma2, step=1e-7):
    """CRB diagonal from finite-difference derivative columns."""
    idx = np.arange(n)

    def model(params):
        x = np.zeros(n, dtype=complex)
        for re, im, w in params:
            x += (re + 1j * im) * np.exp(1j * w * idx)
        return x

    base = [[c.amplitude.real, c.amplitude.imag, c.omega] for c in truth]
    cols = []
    for ci in range(len(base)):
        for p in range(3):
            up = [list(b) for b in base]
            dn = [list(b) for b in base]
            up[ci][p] += step
            dn[ci][p] -= step
            cols.append((model(up) - model(dn)) / (2 * step))
    D = np.array(cols).T
    fim = (2.0 / sigma2) * (D.conj().T @ D).real
    return np.diag(np.linalg.inv(fim)).copy()


def test_general_crb_matches_finite_difference_oracle():
    truth = [Sinusoid(1.0 + 0.5j, 0.8), Sinusoid(-0.3 + 1.2j, 1.1)]
    n, sigma2 = 32, 0.05
    got = general_crb(truth, n, sigma2)
    want = _crb_fd_oracle(truth, n, sigma2)
    np.testing.assert_allclose(got, want, rtol=1e-5)


def test_general_crb_single_tone_closed_form():
    n, sigma2 = 64, 0.2
    alpha = 0.7 - 0.4j
    got = general_crb([Sinusoid(alpha, 1.3)], n, sigma2)
    freq_var = 6.0 * sigma2 / (abs(alpha) ** 2 * n * (n**2 - 1))
    assert got[2] == pytest.approx(freq_var, rel=1e-10)
    assert got.shape == (3,)
    assert np.all(got > 0)


def test_general_crb_singular_cases():
    with pytest.raises(SingularInformation):
        general_crb([Sinusoid(1.0, 1.0)], 32, 0.0)
    with pytest.raises(SingularInformation):
        general_crb([Sinusoid(1.0, 1.0), Sinusoid(1.0, 1.0)], 32, 0.1)


# ---------------------------------------------------------------------------
# fd_gradients (the reference the gradient checker trusts)


def test_fd_gradients_agree_with_analytic():
    rng = np.random.default_rng(0)
    n, m = 24, 3
    state = NetworkState(
        np.sort(rng.uniform(0, TWO_PI, m)),
        rng.standard_normal(m) + 1j * rng.standard_normal(m),
    )
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fa, fw = fd_gradients(state, y)
    np.testing.assert_allclose(fa, grad_alpha(state, y), rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(fw, grad_omega(state, y), rtol=1e-6, atol=1e-8)


def test_fd_gradients_empty_state():
    fa, fw = fd_gradients(NetworkState.empty(), np.ones(8, dtype=complex))
    assert fa.size == 0 and fw.size == 0


# ---------------------------------------------------------------------------
# matching utilities


def test_circular_distance_properties():
    assert circular_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2, rel=1e-12)
    assert circular_distance(1.0, 1.0) == 0.0
    assert circular_distance(0.3, 2.5) == circular_distance(2.5, 0.3)
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.uniform(0, TWO_PI, 2)
        d = circular_distance(a, b)
        assert 0.0 <= d <= math.pi + 1e-12


def test_match_components_hand_cases():
    out = match_components([0.5, 1.5], [1.4, 0.6])
    assert out[0] == (1, pytest.approx(0.1))
    assert out[1] == (0, pytest.approx(0.1))

    # wrap-around distance
    out = match_components([6.2], [0.05])
    j, d = out[0]
    assert j == 0
    assert d == pytest.approx(TWO_PI - 6.15, rel=1e-9)

    # fewer estimates than truths: exactly one truth gets the estimate
    out = match_components([0.1], [0.0, 0.2])
    assert len(out) == 1

    # globally smallest distance claims first
    out = match_components([1.0, 1.3], [1.29, 1.02])
    assert out[0] == (1, pytest.approx(0.01))
    assert out[1] == (0, pytest.approx(0.02))


def test_sample_well_separated_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        w = np.sort(sample_well_separated(rng, 4, 0.5))
        assert np.all(w >= 0) and np.all(w < TWO_PI)
        gaps = np.diff(np.concatenate([w, [w[0] + TWO_PI]]))
        assert np.all(gaps >= 0.5 - 1e-12)
    with pytest.raises(ValueError):
        sample_well_separated(rng, 13, 0.5)


# ---------------------------------------------------------------------------
# serialization


def _toy_result():
    return SweepResult(
        name="toy",
        rows=[
            {"snr_db": 10.0, "values": [1.0, 2.0], "count": np.int64(3)},
            {"snr_db": 20.0, "amp": 1.0 + 2.0j, "extra": {"a": 1}, "ok": np.bool_(True)},
        ],
        config={"n_samples": 32, "freqs": np.array([0.1, 0.2]), "estimator": EstimatorConfig()},
        seeds={"base_seed": 7},
    )


def test_sweep_result_json_round_trip(tmp_path):
    path = tmp_path / "toy.json"
    _toy_result().to_json(path)
    data = json.loads(path.read_text())
    assert data["name"] == "toy"
    assert data["rows"][0]["count"] == 3
    assert data["rows"][1]["amp"] == {"re": 1.0, "im": 2.0}
    assert data["rows"][1]["ok"] is True
    assert data["config"]["freqs"] == [0.1, 0.2]
    assert data["config"]["estimator"] == asdict(EstimatorConfig())
    assert data["seeds"]["base_seed"] == 7


def test_sweep_result_csv_round_trip(tmp_path):
    path = tmp_path / "toy.csv"
    _toy_result().to_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    # header is the union of keys in first-seen order
    assert list(rows[0].keys()) == ["snr_db", "values", "count", "amp", "extra", "ok"]
    assert json.loads(rows[0]["values"]) == [1.0, 2.0]
    assert json.loads(rows[1]["extra"]) == {"a": 1}
    assert rows[1]["amp"] == '{"re": 1.0, "im": 2.0}'


def test_sweep_result_empty_rows_csv(tmp_path):
    path = tmp_path / "empty.csv"
    SweepResult("empty", [], {}, {}).to_csv(path)
    assert path.read_text() == ""


def test_write_json_round_trips_estimator_config(tmp_path):
    path = tmp_path / "config.json"
    write_json(path, EstimatorConfig())
    d = json.loads(path.read_text())
    assert set(d) == {"init", "train", "order"}
    assert set(d["train"]) == {
        "gamma_alpha", "gamma_omega", "momentum", "eps_tol", "max_iter", "min_iter"
    }
    assert d["train"]["eps_tol"] == 1e-9
    assert d["train"]["momentum"] == 0.9


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_write_json_writes_non_finite_numbers_as_null(tmp_path):
    path = tmp_path / "nonfinite.json"
    payload = {
        "nan": math.nan,
        "list": [math.inf, -math.inf, 1.5],
        "array": np.array([np.nan, 2.0]),
        "scalar": np.float64(-np.inf),
        "complex": complex(math.nan, 1.0),
    }
    write_json(path, payload)
    assert json.loads(path.read_text(), parse_constant=_reject_constant) == {
        "nan": None,
        "list": [None, None, 1.5],
        "array": [None, 2.0],
        "scalar": None,
        "complex": {"re": None, "im": 1.0},
    }


# ---------------------------------------------------------------------------
# experiment runners (small deterministic configurations)


def test_mc_mse_structure_and_determinism():
    spec = TrialSpec(
        truth=[Sinusoid(1.0, TWO_PI * 0.15), Sinusoid(1.0, TWO_PI * 0.4)],
        n_samples=32,
        snr_db=20.0,
        trials=6,
        base_seed=7000,
    )
    res = mc_mse(spec, [20.0])
    assert res.name == "mse_vs_crb"
    assert len(res.rows) == 1
    row = res.rows[0]
    assert row["correct_order"] + row["excluded"] == 6
    assert len(row["freq_mse"]) == 2 and len(row["freq_crb"]) == 2
    assert all(c > 0 for c in row["freq_crb"])
    if row["correct_order"]:
        assert all(m >= 0 for m in row["freq_mse"])
    again = mc_mse(spec, [20.0])
    assert again.rows == res.rows


def test_mc_mse_row_without_a_correct_order_has_no_gap(tmp_path):
    # Two tones 0.05 rad apart at N = 16 and 0 dB: the estimator finds one,
    # so the row has no frequency MSE, and its gap to the CRB is unknown,
    # not infinitely far below it.
    spec = TrialSpec(
        truth=[Sinusoid(1.0, 1.0), Sinusoid(1.0, 1.05)], n_samples=16, snr_db=0.0, trials=1
    )
    res = mc_mse(spec)
    row = res.rows[0]
    assert row["correct_order"] == 0
    assert all(math.isnan(g) for g in row["freq_gap_db"])
    path = tmp_path / "mse.json"
    res.to_json(path)
    data = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert data["rows"][0]["freq_gap_db"] == [None, None]
    assert data["rows"][0]["freq_mse"] == [None, None]


def test_mc_roc_prune_false_alarm_matches_design_level():
    spec = TrialSpec(truth=[], n_samples=32, snr_db=0.0, trials=400, base_seed=4600)
    res = mc_roc_prune(spec, [0.05, 1e-2])
    for row in res.rows:
        eps = row["epsilon_a"]
        band = 3.0 * math.sqrt(eps * (1 - eps) / 400)
        assert abs(row["far"] - eps) <= max(band, 3.0 / 400)
        assert abs(row["pd"] - row["pd_theory"]) <= max(
            3.0 * math.sqrt(row["pd_theory"] * (1 - row["pd_theory"]) / 400), 3.0 / 400
        )


def test_mc_roc_prune_weak_scenario_structure():
    spec = TrialSpec(truth=[], n_samples=32, snr_db=0.0, trials=60, base_seed=4600)
    res = mc_roc_prune(spec, [0.05], scenario="two-node-weak")
    row = res.rows[0]
    assert res.name == "roc_prune_two-node-weak"
    assert 0.0 <= row["pd"] <= 1.0 and 0.0 <= row["far"] <= 1.0
    assert 0.0 < row["pd_theory"] < 1.0
    with pytest.raises(ValueError):
        mc_roc_prune(spec, [0.05], scenario="bogus")


def test_mc_roc_merge_structure():
    spec = TrialSpec(truth=[], n_samples=32, snr_db=20.0, trials=4, base_seed=8200)
    res = mc_roc_merge(spec, [1e-6])
    row = res.rows[0]
    assert row["kept_pair"] + 0 <= 4 and row["false_pair"] <= 4
    assert row["pd"] == row["kept_pair"] / 4
    assert row["far"] == row["false_pair"] / 4
    assert res.config["pair_separation"] == pytest.approx(TWO_PI / (16 * 32))


def test_mc_roc_merge_offsets_the_false_alarm_pair_by_the_spec_padding(monkeypatch):
    # The false-alarm runs start two nodes one padded-FFT bin either side of the tone.
    starts = []

    def fake(y, omegas0, cfg):
        starts.append(np.asarray(omegas0))
        return experiments.RunReport([], 1.0, 0, np.zeros(0), [], [])

    monkeypatch.setattr(experiments, "estimate_with_fixed_order", fake)
    estimator = EstimatorConfig(init=InitConfig(l_factor=8))
    spec = TrialSpec(truth=[], n_samples=32, snr_db=20.0, trials=1, estimator=estimator)
    mc_roc_merge(spec, [1e-6])
    false_alarm_pair = starts[1]
    assert false_alarm_pair[1] - false_alarm_pair[0] == pytest.approx(2 * TWO_PI / (8 * 32))


def test_mc_order_histogram_counts():
    res = mc_order(32, 10.0, trials=5, base_seed=5017, k_values=(1, 2))
    assert [r["k"] for r in res.rows] == [1, 2]
    for row in res.rows:
        assert sum(row["histogram"].values()) == row["trials"] == 5
        assert 0.0 <= row["fraction_correct"] <= 1.0
        assert row["correct"] == row["histogram"].get(str(row["k"]), 0)
    again = mc_order(32, 10.0, trials=5, base_seed=5017, k_values=(1, 2))
    assert again.rows == res.rows


def test_convergence_trace_structure():
    spec = TrialSpec(
        truth=[Sinusoid(1.0, TWO_PI * 0.3)],
        n_samples=32,
        snr_db=20.0,
        trials=2,
        base_seed=3000,
    )
    res = convergence_trace(spec, [1.0], [0.0, 0.9])
    assert len(res.rows) == 2
    for row in res.rows:
        assert row["median_iterations"] >= 1
        assert isinstance(row["all_converged"], bool)
        assert row["n_nonconverged"] >= 0
        assert 1 <= len(row["trace"]) <= 513
        assert all(np.isfinite(row["trace"]))


def test_convergence_trace_records_the_training_config(tmp_path):
    # The study trains under the estimator's stopping rule at 1e-5, with the
    # per-N rates resolved.
    spec = TrialSpec(truth=[Sinusoid(1.0, TWO_PI * 0.3)], n_samples=32, snr_db=20.0, trials=1)
    convergence_trace(spec, [1.0], [0.9]).to_json(tmp_path / "convergence.json")
    train = json.loads((tmp_path / "convergence.json").read_text())["config"]["train"]
    assert train["eps_tol"] == 1e-5
    assert train["min_iter"] == 30
    assert train["max_iter"] == spec.estimator.train.max_iter
    assert train["gamma_alpha"] == 0.5 / 32


# ---------------------------------------------------------------------------
# clustered-tone scenario


def test_cluster_frequencies_are_sub_resolution():
    w = cluster_frequencies()
    assert w.shape == (10,)
    assert np.all((w > 0) & (w < TWO_PI))
    bin_width = TWO_PI / 128
    for cluster in (w[:5], w[5:]):
        assert np.all(np.diff(cluster) > 0)
        # widest designed within-cluster gap is 1.2 bins
        assert np.all(np.diff(cluster) <= 1.2 * bin_width * (1 + 1e-12))
        assert cluster[-1] - cluster[0] <= 4 * bin_width * (1 + 1e-12)


def test_cluster_case_structure():
    res = cluster_case(seed=9000)
    assert res.initial_m == 12
    assert len(res.freq_crb) == 10
    assert all(c > 0 for c in res.freq_crb)
    assert res.sigma2 > 0
    assert res.report.k_hat >= 1
    if res.freq_errors is not None:
        assert len(res.freq_errors) == 10

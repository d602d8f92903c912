"""Checks of the benchmark's inputs, output check, tracing and determinism.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import linespec
import run as bench
import scenes
import spans
from linespec.experiments import _draw_signal, cluster_frequencies, sample_well_separated

TWO_PI = 2.0 * np.pi
CHEAP_SEEDS = (7000, 7001, 7002)  # sep3_n32 signals that take about 10 ms each


def _reference(name, seed):
    """The scene as linespec.experiments would draw it for this seed."""
    rng = np.random.default_rng(seed)
    if name == "sep3_n32":
        freqs, n = TWO_PI * np.array([0.10, 0.22, 0.37]), 32
    elif name == "tones8_n512":
        freqs, n = np.sort(sample_well_separated(rng, 8, 8 * TWO_PI / 512)), 512
    else:
        freqs, n = cluster_frequencies(), 128
    return (freqs, *_draw_signal(freqs, np.ones(freqs.size), n, 20.0, rng))


@pytest.mark.parametrize(
    "name, seeds",
    [
        ("sep3_n32", range(7000, 7060)),
        ("tones8_n512", scenes.WORKLOADS["tones8_n512"].seeds),
        ("cluster10_n128", scenes.WORKLOADS["cluster10_n128"].seeds),
    ],
)
def test_generators_reproduce_experiments_draw_bit_for_bit(name, seeds):
    wl = scenes.WORKLOADS[name]
    for seed in seeds:
        freqs, y, sigma2, amps = _reference(name, seed)
        sc = wl.scene(seed)
        assert np.array_equal(sc.freqs, freqs), seed
        assert np.array_equal(sc.y, y), seed
        assert np.array_equal(sc.amps, amps), seed
        assert sc.sigma2 == sigma2, seed


def test_output_check_flags_invalid_results():
    def report(omegas, sigma2=1.0):
        est = [SimpleNamespace(omega=w, amplitude=1.0) for w in omegas]
        return SimpleNamespace(estimates=est, sigma2_hat=sigma2, k_hat=len(est))

    assert bench.check_output(report([0.5, 6.0]), 32) is None
    assert "outside" in bench.check_output(report([TWO_PI]), 32)
    assert "non-finite" in bench.check_output(report([np.nan]), 32)
    assert "non-finite" in bench.check_output(report([0.5], sigma2=np.inf), 32)
    assert "k_hat" in bench.check_output(report([0.1, 0.2, 0.3]), 2)


def _traced_and_untraced(seeds):
    sep3 = scenes.WORKLOADS["sep3_n32"]
    tracer = spans.Tracer()
    untraced, traced = {}, {}
    for seed in seeds:
        y = sep3.scene(seed).y
        report = linespec.estimate_spectrum(y)
        untraced[seed] = bench.report_counts(report, linespec.initialize(y).m_nodes)
        with tracer, tracer.span("pipeline", seed):
            report = linespec.estimate_spectrum(y)
        s = spans.summarize(tracer)[-1]
        traced[seed] = (report.k_hat, s.nodes_out, s.iterations, s.passes, s.merges, s.prunes)
    return untraced, traced, tracer


def test_traced_counts_equal_untraced_and_wrappers_are_removed():
    originals = [getattr(m, f) for m, f, _, _ in spans.LAYERS]
    untraced, traced, tracer = _traced_and_untraced(CHEAP_SEEDS)
    assert traced == untraced
    assert [getattr(m, f) for m, f, _, _ in spans.LAYERS] == originals
    summaries = spans.summarize(tracer)
    assert all(s.self_time >= 0.0 for s in summaries)
    assert all(s.layer_calls["order_control.threshold"] == s.passes > 0 for s in summaries)


def test_guard_fails_when_a_layer_records_no_calls(monkeypatch):
    layers = tuple(layer for layer in spans.LAYERS if layer[2] != "optimizer")
    monkeypatch.setattr(spans, "LAYERS", layers)
    tracer = spans.Tracer()
    with tracer, tracer.span("pipeline", 0):
        linespec.estimate_spectrum(scenes.warmup_signal())
    with pytest.raises(spans.TraceError, match="optimizer recorded no call"):
        spans.summarize(tracer)


def test_guard_fails_when_children_exceed_their_parent():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("pipeline", 0.0, 1.0, None, 0),
        spans.Span("fft_init", 0.5, 1.5, 0, 0, {"nodes_out": 0}),
    ]
    with pytest.raises(spans.TraceError, match="exceed"):
        spans.summarize(tracer)


def test_counts_repeat_in_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH / "counts.py"), "sep3_n32", str(CHEAP_SEEDS[0]),
         str(CHEAP_SEEDS[-1] + 1)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    rows = [json.loads(line) for line in proc.stdout.splitlines()[:-1]]
    fresh = {r["seed"]: tuple(r[k] for k in bench.COUNT_KEYS) for r in rows}
    untraced, _, _ = _traced_and_untraced(CHEAP_SEEDS)
    assert fresh == untraced


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sep3_n32", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
